"""Calibrated synthetic failure-trace generation.

The Tsubame failure logs are proprietary; this package is the
substitution (see DESIGN.md): a generator whose statistical targets
come from every number the paper publishes, so that the analysis
pipeline in :mod:`repro.core` exercises the same code paths it would on
the real logs and reproduces the published shape of every figure and
table.
"""

from repro.synth.arrivals import (
    MonthlyIntensityWarp,
    WeibullRenewal,
    arrival_offsets_hours,
    calibrate_weibull,
)
from repro.synth.generator import GeneratorConfig, TraceGenerator, generate_log
from repro.synth.involvement import assign_involvement_labels, choose_slots
from repro.synth.placement import (
    assign_failures_to_nodes,
    sample_node_multiplicities,
)
from repro.synth.profiles import (
    MachineProfile,
    TSUBAME2_PROFILE,
    TSUBAME3_PROFILE,
    profile_for,
)
from repro.synth.recovery import LognormalTtrSampler, normalize_to_mean
from repro.synth.sampling import (
    allocate_counts,
    weighted_sample_without_replacement,
)
from repro.synth.scenarios import (
    replicate_scenario,
    with_failure_rate_scaled,
    with_operational_practices_of,
    with_software_share,
)

__all__ = [
    "GeneratorConfig",
    "LognormalTtrSampler",
    "MachineProfile",
    "MonthlyIntensityWarp",
    "TSUBAME2_PROFILE",
    "TSUBAME3_PROFILE",
    "TraceGenerator",
    "WeibullRenewal",
    "allocate_counts",
    "arrival_offsets_hours",
    "assign_failures_to_nodes",
    "assign_involvement_labels",
    "calibrate_weibull",
    "choose_slots",
    "generate_log",
    "normalize_to_mean",
    "profile_for",
    "replicate_scenario",
    "sample_node_multiplicities",
    "weighted_sample_without_replacement",
    "with_failure_rate_scaled",
    "with_operational_practices_of",
    "with_software_share",
]
