"""Materialized analytics, maintained incrementally on append.

A :class:`StoreViews` carries enough sufficient statistics to rebuild
every ``/analyze`` payload the serving layer exposes — breakdown,
metrics, spatial, seasonal, multigpu — without touching the event
columns.  :meth:`StoreViews.absorb` folds a
:class:`~repro.core.columns.ColumnarView` into them: each appended
batch's, so analytics cost O(batch), not O(store), or on a rebuild the
whole store's.  The :mod:`repro.stream.online` estimators (Welford
means, GK quantile sketches, an EWMA rate) are the merge algebra.

Each analysis has one formulation, shared with the cold
:mod:`repro.core` kernels: their counting helpers give the integer
tallies (merged by addition), and their result constructors,
clustering-ratio rule and :mod:`repro.core.payloads` formatters give
the payloads.  Parity contract (asserted by :func:`verify_parity`, the
property suite, and the store benchmark):

* the set of analyses, shapes, counts, shares, sort orders, CDFs,
  peak months and the involvement table equal the cold kernels' **by
  construction**;
* float means (MTBF, MTTR, availability, monthly TTR, clustering
  gaps) agree to a relative 1e-9: the cold kernels use NumPy's
  pairwise summation while the incremental path uses Welford updates
  and exact integer microsecond sums, which round differently in the
  last bits;
* the state depends only on the record *sequence*, never on how it
  was split into batches — Welford/GK updates are per-element and the
  multi-GPU clustering sums are exact integers — so a rebuild
  reproduces the incremental state bit-for-bit (the lone exception,
  the EWMA mass, is diagnostic-only and never enters a payload).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core.breakdown import CategoryBreakdown, category_counts
from repro.core.columns import ColumnarView
from repro.core.multigpu import (
    MultiGpuInvolvement,
    clustering_ratio,
    gpu_involvement_counts,
)
from repro.core.payloads import (
    PAYLOADS,
    format_breakdown,
    format_metrics,
    format_multigpu,
    format_seasonal,
    format_spatial,
)
from repro.core.seasonal import MONTHS, MonthlyFailureCounts, month_counts
from repro.core.spatial import NodeFailureDistribution, node_counts
from repro.errors import AnalysisError, StoreCorruptError, TaxonomyError
from repro.machines.specs import get_machine
from repro.stream.online import EwmaRate, GKQuantileSketch, Welford

__all__ = ["StoreViews", "VIEWS_NAME", "verify_parity"]

VIEWS_NAME = "views.json"

_STATE_VERSION = 2
_STATE_KEY = b', "state": '
_US_PER_HOUR = 3_600_000_000
#: Persisted fields by kind, besides machine, window, category counts
#: and month TTR.
_INTS = (
    "rows", "pending_single_count", "pending_single_us",
    "gaps_multi_count", "gaps_multi_us", "gaps_single_count",
    "gaps_single_us",
)
_OPTIONAL_INTS = ("last_ts_us", "last_multi_us")
_INT_KEYED = ("node_counts", "month_counts", "involvement")
_ESTIMATORS = {
    "ttr": Welford, "gaps": Welford, "ttr_sketch": GKQuantileSketch,
    "gap_sketch": GKQuantileSketch, "rate": EwmaRate,
}


class StoreViews:
    """Incrementally maintained sufficient statistics of one store."""

    def __init__(self, machine: str, window_start_us: int) -> None:
        self.machine = machine
        self.window_start_us = int(window_start_us)
        self.rows = 0
        self.category_counts: dict[str, int] = {}
        self.node_counts: dict[int, int] = {}
        self.month_counts: dict[int, int] = {}
        self.involvement: dict[int, int] = {}
        self.month_ttr: dict[int, Welford] = {}
        self.ttr = Welford()
        self.gaps = Welford()
        self.last_ts_us: int | None = None
        # Multi-GPU clustering (Figure 8) as exact integer sums: every
        # involved event waits for the *next* multi-GPU event; when one
        # arrives at T, each pending event at t contributes a gap
        # T - t, classified by whether it was itself multi-GPU.  Sums
        # are microseconds relative to the window start.
        self.pending_single_count = 0
        self.pending_single_us = 0
        self.last_multi_us: int | None = None
        self.gaps_multi_count = 0
        self.gaps_multi_us = 0
        self.gaps_single_count = 0
        self.gaps_single_us = 0
        # Diagnostic estimators (store info, never in payloads).
        self.ttr_sketch = GKQuantileSketch()
        self.gap_sketch = GKQuantileSketch()
        self.rate = EwmaRate()

    # -- delta maintenance -------------------------------------------------

    def absorb(self, cols: ColumnarView) -> None:
        """Fold a time-ordered run of records, after those already in.

        The writer passes each appended batch's view and a rebuild the
        whole store's; both run this one method, which is what makes a
        rebuild bit-identical to the incremental history.
        """
        n = len(cols)
        if n == 0:
            return
        ts_us, ttr, months = cols.ts_us, cols.ttr_hours, cols.months
        _add(self.category_counts, category_counts(cols))
        _add(self.node_counts, node_counts(cols))
        _add(self.month_counts, month_counts(cols))
        _add(self.involvement, gpu_involvement_counts(cols))

        # TTR means: Welford per calendar month plus overall.
        for month in np.unique(months).tolist():
            self.month_ttr.setdefault(month, Welford()).push_many(
                ttr[months == month]
            )
        self.ttr.push_many(ttr)
        self.ttr_sketch.push_many(ttr)

        # MTBF gaps in the same float domain as the cold kernel:
        # hour offsets from the window start, then differences, so
        # each individual gap is bit-identical to np.diff(ts_hours).
        ts_hours = (ts_us - self.window_start_us) / 1e6 / 3600.0
        if self.last_ts_us is not None:
            previous = (
                (self.last_ts_us - self.window_start_us) / 1e6 / 3600.0
            )
            gap_values = np.diff(ts_hours, prepend=previous)
        else:
            gap_values = np.diff(ts_hours)
        self.gaps.push_many(gap_values)
        self.gap_sketch.push_many(gap_values)
        self.last_ts_us = int(ts_us[-1])

        rate = self.rate.state()
        tau = rate["tau"]
        last_hour = float(ts_hours[-1])
        decayed = rate["mass"] * math.exp(
            -(last_hour - rate["last"]) / tau
        ) + float(np.sum(np.exp(-(last_hour - ts_hours) / tau)))
        self.rate = EwmaRate.from_state(
            {"tau": tau, "mass": decayed, "last": last_hour,
             "count": rate["count"] + n}
        )

        # Multi-GPU clustering, summed exactly in Python ints.
        involved = np.nonzero(cols.gpu_counts > 0)[0]
        rel_us = (ts_us[involved] - self.window_start_us).tolist()
        previous = 0
        for position in np.nonzero(cols.gpu_counts[involved] > 1)[0].tolist():
            # Everything between two multi events is single-GPU.
            self.pending_single_count += position - previous
            self.pending_single_us += sum(rel_us[previous:position])
            arrival = rel_us[position]
            self.gaps_single_us += (
                self.pending_single_count * arrival - self.pending_single_us
            )
            self.gaps_single_count += self.pending_single_count
            self.pending_single_count = 0
            self.pending_single_us = 0
            if self.last_multi_us is not None:
                self.gaps_multi_count += 1
                self.gaps_multi_us += arrival - self.last_multi_us
            self.last_multi_us = arrival
            previous = position + 1
        self.pending_single_count += len(rel_us) - previous
        self.pending_single_us += sum(rel_us[previous:])

        self.rows += n

    # -- payloads ----------------------------------------------------------

    def payloads(self, window_end_us: int) -> dict[str, dict[str, Any]]:
        """Every ``/analyze`` payload whose preconditions hold.

        Analyses the result constructors and formatters refuse (empty
        store, single failure, no GPU involvement, ad-hoc categories)
        are simply absent, so the serving layer falls back to the cold
        path — which raises the same error the in-memory dataset would.
        """
        machine, rows = self.machine, self.rows
        spec = get_machine(machine)
        span_hours = (window_end_us - self.window_start_us) / 1e6 / 3600.0
        ttr_means = [
            self.month_ttr[m].mean if m in self.month_ttr else float("nan")
            for m in MONTHS
        ]
        return _available({
            "breakdown": lambda: format_breakdown(
                CategoryBreakdown.from_counts(machine, self.category_counts)
            ),
            "metrics": lambda: format_metrics(
                machine, rows, span_hours, self.gaps.mean, self.ttr.mean,
                self.ttr.mean * rows,
            ),
            "spatial": lambda: format_spatial(
                NodeFailureDistribution.from_counts(machine, self.node_counts)
            ),
            "seasonal": lambda: format_seasonal(
                MonthlyFailureCounts.from_counts(machine, self.month_counts),
                ttr_means,
            ),
            "multigpu": lambda: format_multigpu(
                MultiGpuInvolvement.from_counts(
                    machine, spec.gpus_per_node, self.involvement
                ),
                clustering_ratio(
                    _mean_hours(self.gaps_single_us, self.gaps_single_count),
                    _mean_hours(self.gaps_multi_us, self.gaps_multi_count),
                ),
            ),
        })

    def info(self) -> dict[str, Any]:
        """Diagnostic summary for ``store info`` / dataset describe."""
        summary: dict[str, Any] = {
            "rows": self.rows,
            "categories": len(self.category_counts),
            "affected_nodes": len(self.node_counts),
            "gpu_involved_failures": sum(self.involvement.values()),
        }
        if self.ttr.n:
            summary["ttr_hours"] = {
                "mean": self.ttr.mean,
                "p50": self.ttr_sketch.value(0.5),
                "p90": self.ttr_sketch.value(0.9),
                "p99": self.ttr_sketch.value(0.99),
            }
        if self.gaps.n:
            summary["tbf_hours"] = {
                "mean": self.gaps.mean,
                "p50": self.gap_sketch.value(0.5),
            }
        if self.rate.count:
            summary["recent_rate_per_hour"] = self.rate.rate_per_hour()
        return summary

    # -- persistence -------------------------------------------------------

    def state(self) -> dict[str, Any]:
        """JSON-serializable snapshot; exact inverse of :meth:`from_state`."""
        state: dict[str, Any] = {
            "version": _STATE_VERSION,
            "machine": self.machine,
            "window_start_us": self.window_start_us,
            "category_counts": self.category_counts,
            "month_ttr": {
                str(month): welford.state()
                for month, welford in self.month_ttr.items()
            },
        }
        for name in _INTS + _OPTIONAL_INTS:
            state[name] = getattr(self, name)
        for name in _INT_KEYED:
            state[name] = {str(k): n for k, n in getattr(self, name).items()}
        for name in _ESTIMATORS:
            state[name] = getattr(self, name).state()
        return state

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "StoreViews":
        """Restore views bit-identically from a :meth:`state` snapshot."""
        views = cls(state["machine"], state["window_start_us"])
        views.category_counts = {
            str(name): int(count)
            for name, count in state["category_counts"].items()
        }
        views.month_ttr = {
            int(month): Welford.from_state(snapshot)
            for month, snapshot in state["month_ttr"].items()
        }
        for name in _INTS:
            setattr(views, name, int(state[name]))
        for name in _OPTIONAL_INTS:
            value = state[name]
            setattr(views, name, None if value is None else int(value))
        for name in _INT_KEYED:
            setattr(views, name, {
                int(key): int(count) for key, count in state[name].items()
            })
        for name, kind in _ESTIMATORS.items():
            setattr(views, name, kind.from_state(state[name]))
        return views

    def save(self, root: str | Path, token: str) -> None:
        """Write ``views.json`` bound to one committed manifest state.

        Written via temp-and-rename like the manifest; a stale, torn or
        edited file merely costs a rebuild, never wrong analytics,
        because :meth:`load` refuses any token or checksum mismatch.
        """
        root = Path(root)
        path = root / VIEWS_NAME
        tmp = root / (VIEWS_NAME + ".tmp")
        body = json.dumps(self.state()).encode("utf-8")
        head = json.dumps({"token": token, "sha256": _checksum(body)})
        # The state goes last, as ``json.dumps`` of the whole object
        # would write it, so load can checksum the bytes it parses.
        blob = head[:-1].encode("utf-8") + _STATE_KEY + body + b"}"
        with open(tmp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    @classmethod
    def load(cls, root: str | Path, token: str) -> "StoreViews | None":
        """Load saved views if their token and checksum match; None —
        for any mismatch or malformed file — means rebuild."""
        try:
            raw = (Path(root) / VIEWS_NAME).read_bytes()
            saved = json.loads(raw)
            state = saved["state"]
            body = raw[raw.find(_STATE_KEY) + len(_STATE_KEY):-1]
            if (
                saved["token"] != token
                or saved["sha256"] != _checksum(body)
                or state["version"] != _STATE_VERSION
            ):
                return None
            return cls.from_state(state)
        except (OSError, ValueError, LookupError, TypeError, AttributeError):
            return None


def _add(tally: dict, counts: dict) -> None:
    for key, count in counts.items():
        tally[key] = tally.get(key, 0) + count


def _mean_hours(total_us: int, count: int) -> float:
    """Mean of ``count`` microsecond gaps in hours (nan over none)."""
    return (total_us / count) / _US_PER_HOUR if count else float("nan")


def _checksum(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()


def _available(
    builders: dict[str, Callable[[], dict[str, Any]]],
) -> dict[str, dict[str, Any]]:
    """Every payload whose builder's preconditions hold."""
    payloads = {}
    for name, build in builders.items():
        try:
            payloads[name] = build()
        except (AnalysisError, TaxonomyError):
            continue
    return payloads


# --------------------------------------------------------------------------
# Parity against the cold kernels
# --------------------------------------------------------------------------

def verify_parity(
    payloads: dict[str, dict[str, Any]],
    log,
    *,
    rel_tol: float = 1e-9,
) -> None:
    """Assert materialized payloads match the cold kernels on ``log``.

    ``payloads`` must hold exactly the analyses the cold kernels
    answer on ``log``.  Integer-derived values must be exactly equal;
    floats to ``rel_tol`` (see the module docstring for why bit-exact
    float means are impossible against pairwise summation).

    Raises:
        StoreCorruptError: On the first mismatch, naming the path.
    """
    cold = _available(
        {name: partial(build, log) for name, build in PAYLOADS.items()}
    )
    _compare("analyses", payloads, cold, rel_tol)


def _compare(path: str, ours: Any, cold: Any, rel_tol: float) -> None:
    if isinstance(cold, float) and isinstance(ours, (int, float)):
        ours = float(ours)
        same = (math.isnan(cold) and math.isnan(ours)) or math.isclose(
            ours, cold, rel_tol=rel_tol, abs_tol=1e-12
        )
    elif isinstance(cold, dict) and isinstance(ours, dict):
        same = sorted(ours) == sorted(cold)
        if same:
            for key in cold:
                _compare(f"{path}.{key}", ours[key], cold[key], rel_tol)
        else:  # report the keys, not the whole mappings
            ours, cold = sorted(ours), sorted(cold)
    elif isinstance(cold, (list, tuple)) and isinstance(ours, (list, tuple)):
        same = len(ours) == len(cold)
        if same:
            for index, (a, b) in enumerate(zip(ours, cold)):
                _compare(f"{path}[{index}]", a, b, rel_tol)
    else:
        same = ours == cold
    if not same:
        raise StoreCorruptError(
            f"materialized analytics diverge from the cold kernels at "
            f"{path}: {ours!r} != {cold!r}"
        )
