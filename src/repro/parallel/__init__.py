"""Deterministic, fault-tolerant parallel execution substrate.

Monte-Carlo replication (many seeds through the same pipeline) and
grid sweeps (many configurations over the same log) are embarrassingly
parallel.  This package runs them across processes while keeping two
guarantees: result *determinism* (the output does not depend on worker
scheduling) and *parity* (the parallel path returns exactly what the
serial loop returns, in the same order).

Three modules:

* :mod:`repro.parallel.outcomes` — outcome/error types, worker-count
  policy (``REPRO_WORKERS``, CPU affinity), retry-bounded item runner.
* :mod:`repro.parallel.pool` — the process-lifetime warm worker pool
  (singleton, fork-safe, crash-respawning) that amortises
  fork + import startup across every sweep in the process.
* :mod:`repro.parallel.sweeps` — :func:`sweep` / :func:`sweep_iter`:
  input-ordered, fault-tolerant dispatch with probe-autotuned
  work-stealing chunking, and a ``shared=`` payload each worker
  unpickles once per sweep.

``sweep(fn, seeds, processes=...)`` is bit-identical to
``[fn(s) for s in seeds]``.  ``fn`` must be picklable (a module-level
function or a picklable callable object, not a lambda or closure)
whenever ``processes > 1``.
"""

from repro.parallel.outcomes import (
    SweepItemError,
    SweepOutcome,
    available_cpus,
    default_processes,
)
from repro.parallel.pool import (
    WorkerPool,
    get_pool,
    pool_stats,
    shutdown_pool,
)
from repro.parallel.sweeps import sweep, sweep_iter

__all__ = [
    "sweep",
    "sweep_iter",
    "default_processes",
    "available_cpus",
    "SweepOutcome",
    "SweepItemError",
    "WorkerPool",
    "get_pool",
    "shutdown_pool",
    "pool_stats",
]
