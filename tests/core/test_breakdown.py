"""Tests for RQ1 — category and root-locus breakdowns."""

import pytest

from repro.core.breakdown import category_breakdown, software_root_loci
from repro.core.taxonomy import FailureClass
from repro.errors import AnalysisError
from tests.conftest import make_log, make_record


def _mixed_log():
    records = (
        [make_record(i, hours=i + 1, category="GPU") for i in range(6)]
        + [make_record(10 + i, hours=20 + i, category="CPU")
           for i in range(3)]
        + [make_record(20, hours=50, category="PBS")]
    )
    return make_log(records)


class TestCategoryBreakdown:
    def test_counts_and_shares(self):
        result = category_breakdown(_mixed_log())
        assert result.total == 10
        assert result.count_of("GPU") == 6
        assert result.share_of("GPU") == pytest.approx(0.6)
        assert result.share_of("CPU") == pytest.approx(0.3)

    def test_shares_sum_to_one(self):
        result = category_breakdown(_mixed_log())
        assert sum(e.share for e in result.shares) == pytest.approx(1.0)

    def test_sorted_by_descending_count(self):
        result = category_breakdown(_mixed_log())
        counts = [e.count for e in result.shares]
        assert counts == sorted(counts, reverse=True)

    def test_dominant_category(self):
        assert category_breakdown(_mixed_log()).dominant_category == "GPU"

    def test_absent_category_is_zero(self):
        result = category_breakdown(_mixed_log())
        assert result.share_of("SSD") == 0.0
        assert result.count_of("SSD") == 0

    def test_top_k(self):
        result = category_breakdown(_mixed_log())
        assert [e.category for e in result.top(2)] == ["GPU", "CPU"]

    def test_class_share(self):
        result = category_breakdown(_mixed_log())
        assert result.class_share(FailureClass.HARDWARE) == pytest.approx(0.9)
        assert result.class_share(FailureClass.SOFTWARE) == pytest.approx(0.1)

    def test_empty_log_rejected(self):
        with pytest.raises(AnalysisError):
            category_breakdown(make_log([]))

    def test_tie_broken_by_name(self):
        records = [
            make_record(0, hours=1, category="SSD"),
            make_record(1, hours=2, category="Disk"),
        ]
        result = category_breakdown(make_log(records))
        assert [e.category for e in result.shares] == ["Disk", "SSD"]


class TestCalibratedBreakdown:
    """The paper's Figure 2 numbers on the calibrated logs."""

    def test_t2_gpu_share(self, t2_log):
        result = category_breakdown(t2_log)
        assert result.share_of("GPU") == pytest.approx(0.4437, abs=0.001)

    def test_t2_cpu_share(self, t2_log):
        result = category_breakdown(t2_log)
        assert result.share_of("CPU") == pytest.approx(0.0178, abs=0.001)

    def test_t2_dominant_is_gpu(self, t2_log):
        assert category_breakdown(t2_log).dominant_category == "GPU"

    def test_t3_software_share(self, t3_log):
        result = category_breakdown(t3_log)
        assert result.share_of("Software") == pytest.approx(0.5059, abs=0.001)

    def test_t3_gpu_share(self, t3_log):
        result = category_breakdown(t3_log)
        assert result.share_of("GPU") == pytest.approx(0.2781, abs=0.001)

    def test_t3_dominant_is_software(self, t3_log):
        assert category_breakdown(t3_log).dominant_category == "Software"

    def test_gpu_failures_exceed_cpu_on_both(self, t2_log, t3_log):
        for log in (t2_log, t3_log):
            result = category_breakdown(log)
            assert result.count_of("GPU") > 5 * result.count_of("CPU")


class TestSoftwareRootLoci:
    def test_loci_counts(self):
        records = [
            make_record(0, hours=1, category="Software",
                        root_locus="gpu_driver"),
            make_record(1, hours=2, category="Software",
                        root_locus="gpu_driver"),
            make_record(2, hours=3, category="Software",
                        root_locus=None),
            make_record(3, hours=4, category="GPU"),
        ]
        log = make_log(records, machine="tsubame3")
        result = software_root_loci(log)
        assert result.total_software == 3
        assert result.share_of("gpu_driver") == pytest.approx(2 / 3)
        # A missing locus is grouped under "unknown".
        assert result.share_of("unknown") == pytest.approx(1 / 3)

    def test_unknown_locus_merges_with_missing(self):
        records = [
            make_record(0, hours=1, category="Software",
                        root_locus="unknown"),
            make_record(1, hours=2, category="Software", root_locus=""),
            make_record(2, hours=3, category="Software", root_locus=None),
            make_record(3, hours=4, category="Software",
                        root_locus="lustre"),
        ]
        result = software_root_loci(make_log(records, machine="tsubame3"))
        assert [(s.category, s.count) for s in result.shares] == [
            ("unknown", 3), ("lustre", 1),
        ]

    def test_no_software_failures_rejected(self):
        log = make_log([make_record(0, hours=1, category="GPU")],
                       machine="tsubame3")
        with pytest.raises(AnalysisError):
            software_root_loci(log)

    def test_t3_driver_share_near_43_percent(self, t3_log):
        result = software_root_loci(t3_log)
        assert result.share_of("gpu_driver") == pytest.approx(0.43, abs=0.02)

    def test_t3_unknown_share_near_20_percent(self, t3_log):
        result = software_root_loci(t3_log)
        assert result.share_of("unknown") == pytest.approx(0.20, abs=0.02)

    def test_t3_top16_covers_everything(self, t3_log):
        result = software_root_loci(t3_log)
        assert sum(e.count for e in result.top(16)) == result.total_software

    def test_t3_kernel_panics_and_lustre_rare(self, t3_log):
        result = software_root_loci(t3_log)
        assert result.share_of("kernel_panic") < 0.03
        assert result.share_of("lustre_bug") < 0.03

    def test_t3_total_matches_paper(self, t3_log):
        # 171 reported root loci (Section III, RQ1).
        assert software_root_loci(t3_log).total_software == 171
