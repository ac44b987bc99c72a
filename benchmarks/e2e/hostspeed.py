"""Host-speed correction for timings taken on a shared host.

The benchmark host shares its physical cores with other tenants.  Their
load slows every instruction of this process by up to ~70% for seconds
to minutes at a time, which swamps the differences a change makes.  A
fixed pure-Python probe, which no change to the program can speed up,
is timed between operations; each operation's wall time is multiplied
by ``REFERENCE_PROBE_S`` over the mean of the probes on either side.
The result is the time the operation would take on a host that runs
the probe in ``REFERENCE_PROBE_S`` — about this host when no other
tenant is busy (a 2-vCPU 2.1 GHz Xeon KVM guest).  Raw wall times are
printed alongside.
"""

from __future__ import annotations

import gc
import time

__all__ = ["REFERENCE_PROBE_S", "probe", "scaled"]

#: Probe time that corrected timings are expressed against.
REFERENCE_PROBE_S = 0.005


def probe() -> float:
    """Seconds one fixed interpreter-bound task takes right now.

    The garbage collector is paused so that a collection of the
    program's own heap is not timed as host slowness."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict[int, int] = {}
        keys = []
        for i in range(30_000):
            key = (i * 7919) & 4095
            table[key] = table.get(key, 0) + i
            if i % 3 == 0:
                keys.append(key)
        keys.sort()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between probes ``before`` and ``after``,
    corrected to the reference host speed."""
    return seconds * 2 * REFERENCE_PROBE_S / (before + after)
