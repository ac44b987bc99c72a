#!/usr/bin/env python3
"""Server process of the ``serve`` workload.

Serves a ``store:``-backed dataset ``big`` and a CSV-backed ``t3`` with
one worker, prints ``READY <port>`` once bound, and stops gracefully on
SIGTERM (or when its parent dies).  On exit it writes its peak RSS and,
with ``--trace``, the serving-layer timers to ``--stats``::

    python3 benchmarks/e2e/serve_child.py --store DIR --t3 FILE \
        --stats OUT.json [--trace]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

from repro.serve import DatasetRegistry, ReproApp  # noqa: E402
from repro.serve.server import ReproServer  # noqa: E402

import spans  # noqa: E402


async def serve(app: ReproApp) -> None:
    server = ReproServer(app, port=0)
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)
    parent = os.getppid()

    async def orphan_watch() -> None:
        while os.getppid() == parent:
            await asyncio.sleep(1.0)
        stop.set()

    watch = asyncio.create_task(orphan_watch())
    print(f"READY {server.port}", flush=True)
    await stop.wait()
    watch.cancel()
    await server.stop()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--t3", required=True)
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        spans.install_serve(tracer)
    registry = DatasetRegistry()
    registry.register_store("big", args.store)
    registry.load("t3", args.t3)
    app = ReproApp(registry, workers=1, cache_size=1024,
                   cache_ttl_seconds=None)
    asyncio.run(serve(app))
    stats = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "timers": {} if tracer is None else {
            name: sum(durations) for name, durations in tracer.timers.items()
        },
        "timer_calls": {} if tracer is None else {
            name: len(durations) for name, durations in tracer.timers.items()
        },
    }
    Path(args.stats).write_text(json.dumps(stats) + "\n")


if __name__ == "__main__":
    main()
