"""Span tracing for the end-to-end benchmark, installed from outside.

The program under test carries no tracing code.  ``install`` wraps the
public functions of each layer, named after its module in
``src/repro``, in spans; ``Tracer.uninstall`` puts the originals back.
A span records its layer, function, start, end and parent.  A layer's
*self* time is its spans' duration minus the part their child spans
cover, so the self times of one operation sum to its wall time and
nothing is counted twice.

Engine events are attributed by wrapping the callbacks handed to
``SimulationEngine.schedule_at``/``schedule_in``/``subscribe``: each
callback runs inside a span named by its ``__module__``, so the
injector's ``_fire`` counts as ``sim.faults`` and the scheduler's
completions as ``sim.scheduler``.

Spans are aggregated as they close; the first ``KEEP_SPANS`` are also
kept raw so ``dump`` can write them out at the end of a run.  The span
stack assumes one thread: the serving layer, which runs on an event
loop plus executor threads, uses ``timer`` instead, which records only
durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

__all__ = ["Tracer", "install", "install_serve", "layer_of"]

_perf = time.perf_counter
#: Raw spans kept per run; the aggregates count every span.
KEEP_SPANS = 20_000

#: Modules of ``repro.core`` whose public functions are analysis kernels.
KERNEL_MODULES = (
    "breakdown", "category_trends", "compare", "exposure", "impact",
    "metrics", "multigpu", "overlap", "recovery", "seasonal", "spatial",
    "temporal", "trends",
)

#: (module, target, span name).  A target is a function, ``Class.name``,
#: ``Class.*`` (every public method of the class) or ``*`` (every public
#: function defined in the module).
SPANS: tuple[tuple[str, str, str], ...] = (
    ("repro.io.formats", "read_log", "io.read_log"),
    ("repro.io.csvio", "read_csv", "io.read_log"),
    ("repro.core.records", "FailureLog.__post_init__", "core.records.build"),
    ("repro.core.columns", "build_columns", "core.records.build"),
    ("repro.core.records", "FailureLog.*", "core.records"),
    ("repro.core.columns", "ColumnarView.*", "core.records"),
    *(("repro.core." + name, "*", "core.kernels") for name in KERNEL_MODULES),
    ("repro.core.report", "*", "core.report"),
    ("repro.viz.ascii", "*", "viz"),
    ("repro.store.store", "open_store", "store.open"),
    ("repro.store.store", "FailureStore.append", "store.append"),
    ("repro.store.store", "FailureStore.compact", "store.compact"),
    ("repro.store.store", "FailureStore.payloads", "store.views"),
    ("repro.store.views", "StoreViews.*", "store.views"),
    ("repro.sim.engine", "SimulationEngine.run_until", "sim.engine"),
    ("repro.sim.cluster", "Cluster.__init__", "sim.cluster"),
    ("repro.sim.cluster", "Cluster.*", "sim.cluster"),
    ("repro.sim.repair", "RepairService.submit", "sim.repair"),
    ("repro.sim.faults", "FaultInjector.__init__", "sim.faults"),
    ("repro.sim.faults", "FaultInjector.start", "sim.faults"),
    ("repro.sim.scheduler", "Scheduler.*", "sim.scheduler"),
    ("repro.sim.jobs", "WorkloadGenerator.jobs_until", "sim.jobs"),
    ("repro.sim.simulator", "ClusterSimulator.__init__", "sim.simulator"),
    ("repro.sim.simulator", "ClusterSimulator.run", "sim.simulator"),
    ("repro.sim.montecarlo", "run_replications", "sim.montecarlo"),
    ("repro.train.montecarlo", "run_train_replications", "train.montecarlo"),
    ("repro.train.gang", "GangTrainingRun.*", "train.gang"),
    ("repro.train.gang", "GangTrainingRun._try_start", "train.gang"),
    ("repro.trace.recorder", "record_run", "trace.recorder"),
    ("repro.trace.recorder", "TraceRecorder.__init__", "trace.recorder"),
    ("repro.trace.recorder", "TraceRecorder.finalize", "trace.recorder"),
    ("repro.trace.format", "read_trace", "trace.format"),
    ("repro.trace.format", "write_trace", "trace.format"),
    ("repro.trace.format", "parse_trace", "trace.format"),
    ("repro.trace.format", "Trace.*", "trace.format"),
    ("repro.trace.replay", "replay", "trace.replay"),
    ("repro.trace.replay", "compare_traces", "trace.replay"),
    ("repro.trace.replay", "ReplaySimulator.__init__", "trace.replay"),
    ("repro.trace.replay", "ReplaySimulator.run", "trace.replay"),
    ("repro.trace.replay", "ReplayInjector.start", "trace.replay"),
)

#: Serving-layer timers: (module, target, timer name).
SERVE_TIMERS: tuple[tuple[str, str, str], ...] = (
    ("repro.serve.app", "ReproApp.dispatch", "serve.app.dispatch"),
    ("repro.serve.coalesce", "MicroBatcher.submit", "serve.coalesce.submit"),
    ("repro.serve.app", "ReproApp._run_simulate_batch",
     "serve.coalesce.execute"),
    ("repro.serve.app", "execute_simulate_job", "parallel.pool.task"),
    ("repro.serve.app", "_parse_log_body", "serve.registry.upload"),
    ("repro.serve.registry", "DatasetRegistry.register",
     "serve.registry.upload"),
)


def layer_of(module: str) -> str:
    """Layer name of a ``repro`` module: the dotted path below ``repro``."""
    return module[len("repro."):] if module.startswith("repro.") else module


class Tracer:
    """In-memory spans, counters and timers for one traced run."""

    def __init__(self) -> None:
        #: (layer, function) -> [calls, self seconds, total seconds]
        self.functions: dict[tuple[str, str], list] = {}
        self.counters: dict[str, float] = defaultdict(float)
        #: timer name -> durations in seconds
        self.timers: dict[str, list[float]] = defaultdict(list)
        self.spans: list[tuple] = []
        # Root frame: [child seconds, span id].  Spans opened outside any
        # other span report to it, which is how ``unattributed`` works.
        self._stack: list[list] = [[0.0, 0]]
        self._next_id = 0
        self._undo: list[tuple[Any, str, Any]] = []
        self._event_layers: dict[str, str] = {}

    # -- recording ---------------------------------------------------------

    def wrap(
        self,
        layer: str,
        name: str,
        fn: Callable,
        on_return: Callable[["Tracer", Any], None] | None = None,
    ) -> Callable:
        """``fn`` run inside a span of ``layer``/``name``."""
        totals = self.functions.setdefault((layer, name), [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            parent = stack[-1]
            self._next_id += 1
            frame = [0.0, self._next_id]
            stack.append(frame)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                duration = end - start
                parent[0] += duration
                totals[0] += 1
                totals[1] += duration - frame[0]
                totals[2] += duration
                if len(spans) < KEEP_SPANS:
                    spans.append(
                        (frame[1], parent[1], layer, name, start, end)
                    )
            if on_return is not None:
                on_return(self, result)
            return result

        return traced

    def event(self, callback: Callable) -> Callable:
        """An engine callback wrapped in a span named by its module."""
        module = getattr(callback, "__module__", None) or getattr(
            getattr(callback, "func", None), "__module__", "unknown"
        )
        layer = self._event_layers.get(module)
        if layer is None:
            layer = self._event_layers[module] = layer_of(module)
        return self.wrap(layer, "event", callback)

    def timer(self, name: str, fn: Callable) -> Callable:
        """``fn`` with its wall duration appended to ``timers[name]``.

        Works for coroutine functions (the duration then includes the
        awaits) and from any thread: ``list.append`` is atomic.
        """
        durations = self.timers[name]
        if inspect.iscoroutinefunction(fn):
            async def timed_async(*args, **kwargs):
                start = _perf()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    durations.append(_perf() - start)

            return functools.wraps(fn)(timed_async)

        def timed(*args, **kwargs):
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                durations.append(_perf() - start)

        return functools.wraps(fn)(timed)

    # -- patching ----------------------------------------------------------

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def patch(
        self,
        module_name: str,
        target: str,
        make: Callable[[Callable, str], Callable],
    ) -> None:
        """Replace ``target`` in ``module_name`` by ``make(fn, name)``.

        Functions are also rebound wherever another module imported them
        by name, so ``from repro.io import read_log`` sees the wrapper.
        """
        module = importlib.import_module(module_name)
        if "." not in target:
            names = (
                [
                    name for name, value in vars(module).items()
                    if inspect.isfunction(value)
                    and value.__module__ == module_name
                    and not name.startswith("_")
                ]
                if target == "*" else [target]
            )
            index = _binding_index()
            for name in names:
                original = getattr(module, name)
                wrapped = functools.update_wrapper(
                    make(original, name), original
                )
                for owner, key in index.get(id(original), [(module, name)]):
                    self._set(owner, key, wrapped)
            return
        cls_name, method = target.split(".", 1)
        cls = getattr(module, cls_name)
        names = (
            [
                name for name, value in vars(cls).items()
                if not name.startswith("_") and (
                    inspect.isfunction(value)
                    or isinstance(value, (classmethod, staticmethod))
                )
            ]
            if method == "*" else [method]
        )
        for name in names:
            raw = cls.__dict__[name]
            kind = type(raw) if isinstance(
                raw, (classmethod, staticmethod)
            ) else None
            fn = raw.__func__ if kind else raw
            wrapped = functools.update_wrapper(make(fn, name), fn)
            self._set(cls, name, kind(wrapped) if kind else wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- reading -----------------------------------------------------------

    def layers(self) -> dict[str, list]:
        """layer -> [calls, self seconds, total seconds]."""
        out: dict[str, list] = {}
        for (layer, _), (calls, self_s, total_s) in self.functions.items():
            entry = out.setdefault(layer, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += self_s
            entry[2] += total_s
        return out

    def calls(self, layer: str, name: str) -> int:
        return self.functions.get((layer, name), (0, 0.0, 0.0))[0]

    def coverage(self, root: tuple[str, str] = ("op", "op")) -> float:
        """Share of the root spans' wall time that named layers cover:
        everything but the root's own self time."""
        _, self_s, total_s = self.functions[root]
        return 1.0 - self_s / total_s

    def dump(self, path: Path, **extra: Any) -> None:
        """Write the aggregates and the raw spans kept as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            **extra,
            "layers": {
                layer: {"calls": c, "self_s": s, "total_s": t}
                for layer, (c, s, t) in sorted(self.layers().items())
            },
            "functions": {
                f"{layer}:{name}": {"calls": c, "self_s": s, "total_s": t}
                for (layer, name), (c, s, t) in sorted(self.functions.items())
            },
            "counters": dict(self.counters),
            "timers": {
                name: {"calls": len(d), "total_s": sum(d)}
                for name, d in self.timers.items()
            },
            "span_fields": ["id", "parent", "layer", "function", "start",
                            "end"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload) + "\n")


def _binding_index() -> dict[int, list[tuple[Any, str]]]:
    """id(function) -> every (module, name) binding it in a loaded
    ``repro`` module or a module of this benchmark."""
    here = str(Path(__file__).resolve().parent)
    index: dict[int, list[tuple[Any, str]]] = defaultdict(list)
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        path = getattr(module, "__file__", None) or ""
        if not (name.startswith("repro") or path.startswith(here)):
            continue
        for key, value in list(vars(module).items()):
            if inspect.isfunction(value):
                index[id(value)].append((module, key))
    return index


def install(tracer: Tracer) -> None:
    """Wrap every layer of ``SPANS`` plus engine callbacks and fsync."""
    from repro.serve import app
    from repro.sim.engine import SimulationEngine

    for module_name, target, layer in SPANS:
        tracer.patch(
            module_name, target,
            lambda fn, name, layer=layer: tracer.wrap(
                layer, name, fn, _ON_RETURN.get((layer, name))
            ),
        )
    tracer._set(os, "fsync", tracer.wrap("store.fsync", "fsync", os.fsync))
    # The analysis payloads sit in a table, not behind a module name.
    tracer._set(app, "ANALYSES", {
        name: tracer.wrap("serve.app", name, fn)
        for name, fn in app.ANALYSES.items()
    })

    schedule_at = SimulationEngine.schedule_at
    schedule_in = SimulationEngine.schedule_in
    subscribe = SimulationEngine.subscribe
    tracer._set(SimulationEngine, "schedule_at",
                lambda engine, when, callback: schedule_at(
                    engine, when, tracer.event(callback)))
    tracer._set(SimulationEngine, "schedule_in",
                lambda engine, delay, callback: schedule_in(
                    engine, delay, tracer.event(callback)))
    tracer._set(SimulationEngine, "subscribe",
                lambda engine, topic, callback: subscribe(
                    engine, topic, tracer.wrap(
                        layer_of(callback.__module__), "subscriber",
                        callback)))


def install_serve(tracer: Tracer) -> None:
    """Wrap the serving-layer timers of ``SERVE_TIMERS``."""
    for module_name, target, name in SERVE_TIMERS:
        tracer.patch(
            module_name, target,
            lambda fn, _, name=name: tracer.timer(name, fn),
        )


def _count_restarts(tracer: Tracer, stats: Any) -> None:
    tracer.counters["train.gang.restarts"] += stats.restarts


def _count_trace_bytes(tracer: Tracer, text: str) -> None:
    tracer.counters["trace.bytes"] += len(text.encode("utf-8"))


#: Counters read from a function's result, keyed by (layer, function).
_ON_RETURN = {
    ("train.gang", "finalize"): _count_restarts,
    ("trace.format", "dumps"): _count_trace_bytes,
}
