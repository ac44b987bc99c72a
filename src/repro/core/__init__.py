"""Core analysis library — the paper's contribution.

The analyses are organised by research question:

* RQ1 — :mod:`repro.core.breakdown` (Figures 2 and 3)
* RQ2 — :mod:`repro.core.spatial` (Figures 4 and 5)
* RQ3 — :mod:`repro.core.multigpu` (Table III and Figure 8)
* RQ4 — :mod:`repro.core.temporal` (Figures 6 and 7)
* RQ5 — :mod:`repro.core.recovery` and :mod:`repro.core.seasonal`
  (Figures 9-12)

plus the shared data model (:mod:`repro.core.records`), taxonomy
(:mod:`repro.core.taxonomy`), metric definitions
(:mod:`repro.core.metrics`), text report rendering
(:mod:`repro.core.report`) and the ``/analyze`` payload formatters
(:mod:`repro.core.payloads`).
"""

from repro.core.breakdown import (
    CategoryBreakdown,
    CategoryShare,
    RootLocusBreakdown,
    category_breakdown,
    software_root_loci,
)
from repro.core.category_trends import (
    CategoryShift,
    category_rate_shifts,
    category_window_counts,
)
from repro.core.columns import ColumnarView, build_columns
from repro.core.compare import GenerationComparison, compare_generations
from repro.core.exposure import ExposureReport, ExposureRow, exposure_report
from repro.core.impact import ImpactEntry, ImpactRanking, impact_ranking
from repro.core.metrics import (
    PerformanceErrorProportionality,
    availability,
    job_interruption_probability,
    mtbf,
    mtbf_span,
    mttr,
    performance_error_proportionality,
    tbf_series_hours,
    ttr_series_hours,
)
from repro.core.overlap import ConcurrentOutages, concurrent_outages
from repro.core.multigpu import (
    MultiGpuClustering,
    MultiGpuInvolvement,
    multi_gpu_clustering,
    multi_gpu_involvement,
)
from repro.core.records import FailureLog, FailureRecord
from repro.core.recovery import (
    CategoryTtr,
    TtrDistribution,
    class_spread_comparison,
    ttr_by_category,
    ttr_distribution,
)
from repro.core.seasonal import (
    HourOfDayProfile,
    MonthlyFailureCounts,
    MonthlyTtr,
    SeasonalCorrelation,
    WeekdayProfile,
    hour_of_day_profile,
    monthly_failure_counts,
    monthly_ttr,
    ttr_density_correlation,
    weekday_profile,
)
from repro.core.spatial import (
    GpuSlotDistribution,
    NodeFailureDistribution,
    RackFailureDistribution,
    RepeatFailureClassSplit,
    gpu_slot_distribution,
    node_failure_distribution,
    rack_failure_distribution,
    repeat_failure_class_split,
)
from repro.core.taxonomy import Category, FailureClass
from repro.core.temporal import (
    CategoryTbf,
    ComponentClassMtbf,
    TbfDistribution,
    component_class_mtbf,
    tbf_by_category,
    tbf_distribution,
)
from repro.core.trends import (
    CrowAmsaaFit,
    WindowPoint,
    crow_amsaa_fit,
    ttr_survival,
    windowed_mtbf,
    windowed_mttr,
)

__all__ = [
    "Category",
    "CategoryBreakdown",
    "CategoryShare",
    "CategoryShift",
    "CategoryTbf",
    "CategoryTtr",
    "ColumnarView",
    "ComponentClassMtbf",
    "ConcurrentOutages",
    "CrowAmsaaFit",
    "ExposureReport",
    "ExposureRow",
    "FailureClass",
    "FailureLog",
    "FailureRecord",
    "GenerationComparison",
    "GpuSlotDistribution",
    "HourOfDayProfile",
    "ImpactEntry",
    "ImpactRanking",
    "MonthlyFailureCounts",
    "MonthlyTtr",
    "MultiGpuClustering",
    "MultiGpuInvolvement",
    "NodeFailureDistribution",
    "PerformanceErrorProportionality",
    "RackFailureDistribution",
    "RepeatFailureClassSplit",
    "RootLocusBreakdown",
    "SeasonalCorrelation",
    "TbfDistribution",
    "TtrDistribution",
    "WeekdayProfile",
    "WindowPoint",
    "availability",
    "build_columns",
    "category_breakdown",
    "category_rate_shifts",
    "category_window_counts",
    "class_spread_comparison",
    "compare_generations",
    "component_class_mtbf",
    "concurrent_outages",
    "crow_amsaa_fit",
    "exposure_report",
    "job_interruption_probability",
    "gpu_slot_distribution",
    "hour_of_day_profile",
    "impact_ranking",
    "monthly_failure_counts",
    "monthly_ttr",
    "mtbf",
    "mtbf_span",
    "mttr",
    "multi_gpu_clustering",
    "multi_gpu_involvement",
    "node_failure_distribution",
    "performance_error_proportionality",
    "rack_failure_distribution",
    "repeat_failure_class_split",
    "software_root_loci",
    "tbf_by_category",
    "tbf_distribution",
    "tbf_series_hours",
    "ttr_by_category",
    "ttr_density_correlation",
    "ttr_distribution",
    "ttr_series_hours",
    "ttr_survival",
    "weekday_profile",
    "windowed_mtbf",
    "windowed_mttr",
]
