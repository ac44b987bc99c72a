"""Error paths of the vectorized kernels against the per-record oracles.

Where a kernel rejects its input it names the first offending record,
slot or category.  Each case pins the exception type and message, and
holds the kernel to what the oracle's record-by-record scan raises.
"""

from __future__ import annotations

import pytest

from repro.core import multigpu, spatial
from repro.errors import AnalysisError, TaxonomyError
from tests.conftest import make_log, make_record
from tests.core import oracles


def _raised(kernel, *args) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        kernel(*args)
    return type(info.value), str(info.value)


def _gpu_log():
    return make_log(
        [
            make_record(0, hours=1.0, node_id=3, gpus_involved=(0,)),
            make_record(1, hours=2.0, node_id=4),
            make_record(2, hours=3.0, node_id=5, gpus_involved=(0, 1, 2)),
            make_record(3, hours=4.0, node_id=6, gpus_involved=(1, 2)),
            make_record(4, hours=5.0, node_id=7, gpus_involved=(0, 1, 2)),
        ]
    )


class TestInvolvementBeyondMaxGpus:
    def test_names_the_first_record_over_the_limit(self):
        log = _gpu_log()
        expected = (
            AnalysisError,
            "record 2 involves 3 GPUs but the node only has 2",
        )
        assert _raised(multigpu.multi_gpu_involvement, log, 2) == expected
        assert _raised(oracles.multi_gpu_involvement, log, 2) == expected

    def test_invalid_max_gpus_wins_over_involvement(self):
        log = _gpu_log()
        expected = (AnalysisError, "max_gpus must be >= 1, got 0")
        assert _raised(multigpu.multi_gpu_involvement, log, 0) == expected
        assert _raised(oracles.multi_gpu_involvement, log, 0) == expected


class TestSlotOutsideTheNode:
    def test_names_the_first_record_and_slot(self):
        log = _gpu_log()
        expected = (
            AnalysisError,
            "record 2 involves GPU slot 2, which is not among the "
            "node's slots [0, 1]",
        )
        assert _raised(spatial.gpu_slot_distribution, log, (1, 0)) == (
            expected
        )
        assert _raised(oracles.gpu_slot_distribution, log, (1, 0)) == (
            expected
        )
        assert spatial.gpu_slot_distribution(
            log, (0, 1, 2)
        ) == oracles.gpu_slot_distribution(log, (0, 1, 2))

    def test_record_without_slots_is_skipped(self):
        log = make_log(
            [
                make_record(0, hours=1.0),
                make_record(1, hours=2.0),
                make_record(2, hours=3.0, gpus_involved=(3,)),
            ],
            machine="tsubame3",
        )
        expected = (
            AnalysisError,
            "record 2 involves GPU slot 3, which is not among the "
            "node's slots [0, 1, 2]",
        )
        for kernel in (spatial.gpu_slot_distribution,
                       oracles.gpu_slot_distribution):
            assert _raised(kernel, log, (0, 1, 2)) == expected


def _adhoc_log(adhoc_node: int):
    """Nodes 1 and 2 fail twice, node 9 once; one record on
    ``adhoc_node`` carries a category outside the taxonomy."""
    placements = [(1, "GPU"), (2, "CPU"), (1, "Memory"), (9, "GPU"),
                  (2, "GPU")]
    records = [
        make_record(i, hours=float(i + 1), node_id=node, category=name)
        for i, (node, name) in enumerate(placements)
    ]
    records.append(
        make_record(len(records), hours=10.0, node_id=adhoc_node,
                    category="Gremlins")
    )
    return make_log(records, strict_taxonomy=False)


class TestAdHocCategory:
    def test_on_a_multi_failure_node_raises(self):
        log = _adhoc_log(adhoc_node=2)
        expected = (
            TaxonomyError,
            "unknown category 'Gremlins' for machine 'tsubame2'",
        )
        assert _raised(spatial.repeat_failure_class_split, log) == expected
        assert _raised(oracles.repeat_failure_class_split, log) == expected

    def test_on_single_failure_nodes_only_does_not_raise(self):
        log = _adhoc_log(adhoc_node=11)
        split = spatial.repeat_failure_class_split(log)
        assert split == oracles.repeat_failure_class_split(log)
        assert split.num_multi_failure_nodes == 2
        assert split.total == 4
