"""The analytics application: routing, handlers, and the serving stack.

:class:`ReproApp` is transport-agnostic — it maps one
:class:`~repro.serve.http.HttpRequest` to one
:class:`~repro.serve.http.Response` and never touches a socket, so the
whole request pipeline is unit-testable without a server.  Every
request runs through the same stages, in order:

1. **rate limiting** (per client token bucket, 429 when over budget),
2. **result cache** (hits return the byte-identical cold payload),
3. **admission** (bounded concurrency + queue, 503 when saturated),
4. **single-flight** (identical concurrent requests share one
   execution),
5. **backend** — CPU-bound analysis in the worker executor; simulate
   requests additionally micro-batch through
   :func:`repro.parallel.sweep_iter`.

``/healthz`` and ``/statsz`` bypass stages 1-4 so operators can always
see in.  Handler failures are rendered as JSON errors (type + message,
never a traceback) and leave the server running — the chaos suite
feeds this layer deliberately broken handlers to prove it.
"""

from __future__ import annotations

import asyncio
import json
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

from repro.core.payloads import PAYLOADS
from repro.core.records import FailureLog
from repro.errors import ReproError, ServeError
from repro.io import KNOWN_FORMATS, read_log
from repro.io.formats import format_for_media_type
from repro.io.tolerant import ON_ERROR_MODES, LogReadReport
from repro.machines.specs import known_machines
from repro.parallel import default_processes, sweep_iter
from repro.serve.admission import AdmissionController, RateLimiter
from repro.serve.cache import ResultCache, canonical_key
from repro.serve.coalesce import MicroBatcher, SingleFlight
from repro.serve.http import (
    HttpError,
    HttpRequest,
    Response,
    error_body,
    json_body,
)
from repro.serve.jobs import JOB_STATES, Job, JobConflict, JobQueue
from repro.serve.registry import DatasetRegistry
from repro.serve.stats import ServerStats
from repro.sim.montecarlo import EnsembleReport, run_replications
from repro.synth import GeneratorConfig, generate_log
from repro.train.metrics import ettf_payload

__all__ = ["ANALYSES", "ReproApp", "SimulateJob"]


#: Analysis endpoints served under ``/analyze/{dataset}/{name}``.
#: Apps copy this table, so tests can swap a single instance's
#: handler (e.g. for a chaos wrapper) without touching the module.
ANALYSES: dict[str, Callable[[FailureLog], dict[str, Any]]] = {
    **PAYLOADS,
    "ettf": ettf_payload,
}


# --------------------------------------------------------------------------
# Simulation jobs (picklable: they may cross process boundaries)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulateJob:
    """Normalized parameters of one ``POST /simulate`` request."""

    machine: str
    horizon_hours: float
    replications: int
    seed: int
    intensity: float
    ci: float
    num_technicians: int | None
    spare_lead_time_hours: float | None

    def params(self) -> dict[str, Any]:
        """Canonical parameter dict (the cache/coalescing identity)."""
        return {
            "machine": self.machine,
            "horizon_hours": self.horizon_hours,
            "replications": self.replications,
            "seed": self.seed,
            "intensity": self.intensity,
            "ci": self.ci,
            "num_technicians": self.num_technicians,
            "spare_lead_time_hours": self.spare_lead_time_hours,
        }


def ensemble_payload(ensemble: EnsembleReport) -> dict[str, Any]:
    """JSON-friendly view of a Monte-Carlo ensemble."""
    return {
        "machine": ensemble.machine,
        "horizon_hours": ensemble.horizon_hours,
        "replications": ensemble.replications,
        "failed_replications": ensemble.failed_replications,
        "ci": ensemble.ci,
        "metrics": {
            name: {
                "mean": stats.mean,
                "std": stats.std,
                "stderr": stats.stderr,
                "ci_lower": stats.ci_lower,
                "ci_upper": stats.ci_upper,
            }
            for name, stats in ensemble.metrics.items()
        },
    }


def execute_simulate_job(job: SimulateJob) -> dict[str, Any]:
    """Run one simulate job to completion (worker entry point).

    Replications inside a job run serially; parallelism comes from
    batching across jobs, so nested pools never happen.
    """
    ensemble = run_replications(
        job.machine,
        replications=job.replications,
        horizon_hours=job.horizon_hours,
        seed=job.seed,
        intensity=job.intensity,
        ci=job.ci,
        num_technicians=job.num_technicians,
        spare_lead_time_hours=job.spare_lead_time_hours,
    )
    return ensemble_payload(ensemble)


# --------------------------------------------------------------------------
# The application
# --------------------------------------------------------------------------

class ReproApp:
    """Request pipeline + handler table for the analytics service.

    Args:
        registry: Pre-loaded dataset registry (a fresh empty one by
            default).
        workers: Executor threads for CPU-bound work, and the process
            count used to drain multi-job simulate batches on the warm
            worker pool.  ``None`` resolves via
            :func:`repro.parallel.default_processes` (``REPRO_WORKERS``
            if set, else the schedulable CPU count).
        cache_size: Result-cache capacity (entries).
        cache_ttl_seconds: Result-cache TTL (``None`` = LRU only).
        max_inflight: Concurrent backend executions admitted.
        max_queue: Requests allowed to wait for admission; beyond
            this the request is shed with 503.
        rate_per_second: Per-client token-bucket rate; ``None``
            disables rate limiting.
        burst: Token-bucket depth.
        batch_max: Simulate micro-batch size cap.
        batch_linger_seconds: How long a lone simulate job waits for
            batch company.
        max_replications: Per-request ensemble-size ceiling
            (admission control for the most expensive endpoint).
        shard_index: This instance's position in a sharded
            deployment; ``None`` for a standalone server.  When set,
            every response carries an ``X-Shard`` header (affinity is
            observable) and job ids embed the shard for routing.
        job_concurrency: Runner tasks draining the ``/jobs`` queue.
            More than one lets concurrent jobs micro-batch into one
            warm-pool dispatch; exactly one gives strict priority
            order.  ``None`` sizes to the worker count.
        job_retention: Finished jobs kept for polling.
        clock: Injectable monotonic clock for cache/limiter/stats.
    """

    def __init__(
        self,
        registry: DatasetRegistry | None = None,
        *,
        workers: int | None = None,
        cache_size: int = 256,
        cache_ttl_seconds: float | None = 300.0,
        max_inflight: int = 8,
        max_queue: int = 32,
        rate_per_second: float | None = None,
        burst: float = 20.0,
        batch_max: int = 16,
        batch_linger_seconds: float = 0.005,
        max_replications: int = 512,
        shard_index: int | None = None,
        job_concurrency: int | None = None,
        job_retention: int = 512,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.registry = registry if registry is not None else DatasetRegistry()
        self.workers = workers if workers is not None else default_processes()
        self.cache = ResultCache(
            cache_size, cache_ttl_seconds, clock=clock
        )
        self.singleflight = SingleFlight()
        self.admission = AdmissionController(max_inflight, max_queue)
        self.limiter = (
            RateLimiter(rate_per_second, burst, clock=clock)
            if rate_per_second is not None
            else None
        )
        self.stats = ServerStats(clock=clock)
        self.analyses = dict(ANALYSES)
        self.max_replications = max_replications
        self.shard_index = shard_index
        self.draining = False
        self._clock = clock
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, self.workers),
            thread_name_prefix="repro-serve",
        )
        self.batcher = MicroBatcher(
            self._run_simulate_batch,
            max_batch=batch_max,
            linger_seconds=batch_linger_seconds,
        )
        self.jobs = JobQueue(
            self._execute_job,
            shard_index=shard_index if shard_index is not None else 0,
            concurrency=(
                job_concurrency
                if job_concurrency is not None
                else max(2, min(8, self.workers))
            ),
            retention=job_retention,
            clock=clock,
        )
        self._warm_cache()

    def _warm_cache(self) -> None:
        """Seed the result cache from materialized analytics.

        Datasets that carry incrementally-maintained views (the
        ``store:`` specs) have every analysis payload available at
        registration time for O(1); caching them up front means the
        first request after a restart is a cache *hit* — the warm
        restart the store exists to provide.
        """
        for name in self.registry.names():
            dataset = self.registry.get(name)
            for analysis in self.analyses:
                payload = dataset.materialized(analysis)
                if payload is None:
                    continue
                key = canonical_key(
                    f"analyze/{analysis}", {}, dataset.fingerprint
                )
                self.cache.put(key, json_body(payload))

    # -- lifecycle ---------------------------------------------------------

    def begin_drain(self) -> None:
        """Start a graceful drain.

        ``/healthz`` flips to ``draining``; new data requests are shed
        with 503 + ``Retry-After``; queued jobs are cancelled with
        drain attribution (running jobs finish — :meth:`close` awaits
        them); requests already in flight complete normally.
        """
        self.draining = True
        self.admission.begin_drain()
        self.jobs.drain(reason="server drain")

    async def close(self) -> None:
        """Drain jobs, flush the batcher, release the executor."""
        self.draining = True
        await self.jobs.close()
        await self.batcher.close()
        self._executor.shutdown(wait=False)

    async def _offload(self, fn: Callable, *args: Any) -> Any:
        """Run CPU-bound work in the worker executor."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, partial(fn, *args)
        )

    # -- dispatch ----------------------------------------------------------

    async def dispatch(self, request: HttpRequest) -> Response:
        """Map one request to a response; never raises."""
        start = self._clock()
        label = "unrouted"
        try:
            label, response = await self._route(request)
        except HttpError as error:
            label, response = label, self._error_response(error)
        except ReproError as error:
            response = Response(
                400, error_body(type(error).__name__, str(error))
            )
        except asyncio.CancelledError:
            raise
        except Exception as error:
            # A broken or chaos-injected handler: answer with the
            # exception type and message only — no traceback crosses
            # the wire — and keep serving.
            response = Response(
                500, error_body(type(error).__name__, str(error))
            )
        self.stats.observe(
            label, response.status, self._clock() - start
        )
        if self.shard_index is not None:
            response.headers.setdefault(
                "X-Shard", str(self.shard_index)
            )
        return response

    @staticmethod
    def _error_response(error: HttpError) -> Response:
        headers = {}
        if error.retry_after_seconds is not None:
            headers["Retry-After"] = (
                f"{max(1, round(error.retry_after_seconds))}"
            )
        return Response(
            error.status,
            error_body("HttpError", str(error)),
            headers,
        )

    async def _route(
        self, request: HttpRequest
    ) -> tuple[str, Response]:
        parts = [part for part in request.path.split("/") if part]
        method = request.method

        if not parts:
            return "index", self._index(request)
        head = parts[0]
        if head == "healthz" and len(parts) == 1:
            self._require(method, "GET")
            return "healthz", self._healthz()
        if head == "statsz" and len(parts) == 1:
            self._require(method, "GET")
            return "statsz", self._statsz(request)

        # Everything below is a data/compute endpoint.  During a
        # drain, arrivals are turned away at the door — in-flight
        # requests finish, new ones go elsewhere.
        if self.draining:
            raise HttpError(
                503,
                "server is draining; retry against another instance",
                retry_after_seconds=1.0,
            )
        # Rate-limited from here on.
        if self.limiter is not None:
            self.limiter.check(request.client_id)

        if head == "datasets":
            if len(parts) == 1:
                self._require(method, "GET")
                return "datasets", self._list_datasets()
            if len(parts) == 2:
                if method == "GET":
                    return "datasets", self._describe_dataset(parts[1])
                if method in ("POST", "PUT"):
                    return "datasets", await self._upload(
                        request, parts[1]
                    )
                raise HttpError(
                    405, f"method {method} not allowed on {request.path}"
                )
        if head == "analyze" and len(parts) == 3:
            self._require(method, "GET")
            return "analyze", await self._analyze(parts[1], parts[2])
        if head == "simulate" and len(parts) == 1:
            self._require(method, "POST")
            return "simulate", await self._simulate(request)
        if head == "generate" and len(parts) == 1:
            self._require(method, "POST")
            return "generate", await self._generate(request)
        if head == "jobs":
            if len(parts) == 1:
                if method == "POST":
                    return "jobs", self._submit_job(request)
                self._require(method, "GET")
                return "jobs", self._list_jobs(request)
            if len(parts) == 2:
                if method == "GET":
                    return "jobs", self._get_job(parts[1])
                if method == "DELETE":
                    return "jobs", self._cancel_job(parts[1])
                raise HttpError(
                    405,
                    f"method {method} not allowed on {request.path}",
                )
        raise HttpError(404, f"no route for {request.path}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise HttpError(
                405, f"method {method} not allowed (use {expected})"
            )

    # -- introspection endpoints -------------------------------------------

    def _index(self, request: HttpRequest) -> Response:
        self._require(request.method, "GET")
        return Response(
            200,
            json_body(
                {
                    "service": "repro.serve",
                    "description": (
                        "reliability analytics for multi-GPU "
                        "supercomputer failure logs"
                    ),
                    "endpoints": [
                        "GET /healthz",
                        "GET /statsz",
                        "GET /datasets",
                        "GET /datasets/{name}",
                        "POST /datasets/{name}",
                        "GET /analyze/{name}/"
                        + "{" + "|".join(sorted(ANALYSES)) + "}",
                        "POST /simulate",
                        "POST /generate",
                        "POST /jobs",
                        "GET /jobs",
                        "GET /jobs/{id}",
                        "DELETE /jobs/{id}",
                    ],
                }
            ),
        )

    def _healthz(self) -> Response:
        payload = {
            "status": "draining" if self.draining else "ok",
            "uptime_seconds": self.stats.uptime_seconds,
            "datasets": self.registry.names(),
            "inflight": self.admission.inflight,
            "queued": self.admission.queued,
            "requests_total": self.stats.requests_total,
            "jobs_queued": self.jobs.queued,
            "jobs_running": self.jobs.running,
        }
        if self.shard_index is not None:
            payload["shard"] = self.shard_index
        return Response(200, json_body(payload))

    def _statsz(self, request: HttpRequest) -> Response:
        # ``?states=1`` adds the raw estimator states (Welford
        # moments, GK tuple lists) so a router can merge per-shard
        # latency distributions instead of averaging averages.
        include_states = request.query.get("states") in ("1", "true")
        payload = {
            "server": self.stats.snapshot(include_states),
            "cache": self.cache.stats(),
            "singleflight": self.singleflight.stats(),
            "batcher": self.batcher.stats(),
            "admission": self.admission.stats(),
            "jobs": self.jobs.stats(),
            "rate_limiter": (
                self.limiter.stats() if self.limiter else None
            ),
            "datasets": {
                name: self.registry.get(name).fingerprint
                for name in self.registry.names()
            },
        }
        if self.shard_index is not None:
            payload["shard"] = self.shard_index
        return Response(200, json_body(payload))

    # -- dataset endpoints -------------------------------------------------

    def _list_datasets(self) -> Response:
        return Response(
            200,
            json_body(
                {
                    "datasets": [
                        self.registry.get(name).describe()
                        for name in self.registry.names()
                    ]
                }
            ),
        )

    def _describe_dataset(self, name: str) -> Response:
        try:
            dataset = self.registry.get(name)
        except ServeError as error:
            raise HttpError(404, str(error)) from None
        return Response(200, json_body(dataset.describe()))

    async def _upload(
        self, request: HttpRequest, name: str
    ) -> Response:
        """Register a dataset from the request body.

        The body format comes from ``?format=`` (same names as the
        CLI's ``--format``) or, failing that, the ``Content-Type``
        header via :func:`repro.io.formats.format_for_media_type` —
        the serving layer and the CLI share one format vocabulary.
        """
        format = request.query.get("format")
        if format is not None and format not in KNOWN_FORMATS:
            raise HttpError(
                400,
                f"unknown format {format!r} "
                f"(known: {', '.join(KNOWN_FORMATS)})",
            )
        if format is None:
            content_type = request.headers.get("content-type")
            if not content_type:
                raise HttpError(
                    415,
                    "supply a Content-Type header or ?format= "
                    f"({', '.join(KNOWN_FORMATS)})",
                )
            try:
                format = format_for_media_type(content_type)
            except ReproError as error:
                raise HttpError(415, str(error)) from None
        on_error = request.query.get("on_error", "raise")
        if on_error not in ON_ERROR_MODES:
            raise HttpError(
                400,
                f"unknown on_error mode {on_error!r} "
                f"(known: {', '.join(ON_ERROR_MODES)})",
            )
        if not request.body:
            raise HttpError(400, "empty request body")
        async with self.admission:
            loaded = await self._offload(
                _parse_log_body, request.body, format, on_error
            )
        if isinstance(loaded, LogReadReport):
            log, quarantined = loaded.log, loaded.num_quarantined
        else:
            log, quarantined = loaded, 0
        dataset = self.registry.register(
            name, log, source=f"upload:{format}"
        )
        payload = dataset.describe()
        payload["quarantined_rows"] = quarantined
        return Response(201, json_body(payload))

    async def _generate(self, request: HttpRequest) -> Response:
        """Synthesize a calibrated log and register it as a dataset."""
        params = request.json()
        if not isinstance(params, dict):
            raise HttpError(400, "body must be a JSON object")
        name = params.get("name")
        machine = params.get("machine")
        if not name or not isinstance(name, str):
            raise HttpError(400, "missing dataset 'name'")
        if machine not in known_machines():
            raise HttpError(
                400,
                f"unknown machine {machine!r} "
                f"(known: {', '.join(known_machines())})",
            )
        seed = _as_seed(params.get("seed", 0))
        failures = params.get("failures")
        if failures is not None:
            failures = _as_int(failures, "failures")
        config = GeneratorConfig(seed=seed, num_failures=failures)
        async with self.admission:
            log = await self._offload(
                generate_log, machine, seed, config
            )
        dataset = self.registry.register(
            name, log, source=f"synth:{machine}:seed={seed}"
        )
        return Response(201, json_body(dataset.describe()))

    # -- analysis endpoints ------------------------------------------------

    async def _analyze(self, name: str, analysis: str) -> Response:
        if analysis not in self.analyses:
            raise HttpError(
                404,
                f"unknown analysis {analysis!r} "
                f"(known: {', '.join(sorted(self.analyses))})",
            )
        try:
            dataset = self.registry.get(name)
        except ServeError as error:
            raise HttpError(404, str(error)) from None
        key = canonical_key(
            f"analyze/{analysis}", {}, dataset.fingerprint
        )
        cached = self.cache.get(key)
        if cached is not None:
            return Response(200, cached, {"X-Cache": "hit"})

        fn = self.analyses[analysis]

        async def compute() -> bytes:
            # Store-backed datasets serve their incrementally
            # materialized views; the cold kernels run only when no
            # materialized payload exists (plain datasets, or an
            # analysis the store cannot maintain).
            payload = dataset.materialized(analysis)
            if payload is None:
                payload = await self._offload(fn, dataset.log)
            body = json_body(payload)
            self.cache.put(key, body)
            return body

        async with self.admission:
            body, coalesced = await self.singleflight.run(key, compute)
        return Response(
            200,
            body,
            {"X-Cache": "coalesced" if coalesced else "miss"},
        )

    # -- simulation endpoints ----------------------------------------------

    def _parse_simulate(self, request: HttpRequest) -> SimulateJob:
        params = request.json()
        if not isinstance(params, dict):
            raise HttpError(400, "body must be a JSON object")
        return self._parse_simulate_params(params)

    def _parse_simulate_params(
        self, params: dict[str, Any]
    ) -> SimulateJob:
        machine = params.get("machine")
        if machine not in known_machines():
            raise HttpError(
                400,
                f"unknown machine {machine!r} "
                f"(known: {', '.join(known_machines())})",
            )
        replications = _as_int(
            params.get("replications", 1), "replications"
        )
        if not 1 <= replications <= self.max_replications:
            raise HttpError(
                400,
                f"replications must lie in [1, "
                f"{self.max_replications}], got {replications}",
            )
        technicians = params.get("num_technicians")
        lead_time = params.get("spare_lead_time_hours")
        return SimulateJob(
            machine=machine,
            horizon_hours=_as_float(
                params.get("horizon_hours", 2000.0), "horizon_hours"
            ),
            replications=replications,
            seed=_as_seed(params.get("seed", 0)),
            intensity=_as_float(
                params.get("intensity", 1.0), "intensity"
            ),
            ci=_as_float(params.get("ci", 0.95), "ci"),
            num_technicians=(
                None
                if technicians is None
                else _as_int(technicians, "num_technicians")
            ),
            spare_lead_time_hours=(
                None
                if lead_time is None
                else _as_float(lead_time, "spare_lead_time_hours")
            ),
        )

    async def _simulate(self, request: HttpRequest) -> Response:
        job = self._parse_simulate(request)
        key = canonical_key("simulate", job.params())
        cached = self.cache.get(key)
        if cached is not None:
            return Response(200, cached, {"X-Cache": "hit"})

        async def compute() -> bytes:
            payload = await self.batcher.submit(job)
            body = json_body(payload)
            self.cache.put(key, body)
            return body

        async with self.admission:
            body, coalesced = await self.singleflight.run(key, compute)
        return Response(
            200,
            body,
            {"X-Cache": "coalesced" if coalesced else "miss"},
        )

    async def _run_simulate_batch(
        self, jobs: list[SimulateJob]
    ) -> list[Any]:
        """Drain one micro-batch through the sweep machinery.

        Single-job batches run serially in the executor thread;
        multi-job batches fan out across ``workers`` processes via
        :func:`repro.parallel.sweep_iter` — which dispatches to the
        process-wide *warm* worker pool, so consecutive ``/simulate``
        batches reuse the same worker processes instead of paying a
        pool spawn per batch.  Per-job failures come back as
        exceptions for that job's submitter only.
        """
        processes = (
            self.workers if len(jobs) > 1 and self.workers > 1 else None
        )

        def drain() -> list[Any]:
            results: list[Any] = []
            for outcome in sweep_iter(
                execute_simulate_job, jobs, processes=processes
            ):
                results.append(
                    outcome.result if outcome.ok else outcome.error
                )
            return results

        return await self._offload(drain)

    # -- job endpoints ------------------------------------------------------

    def _submit_job(self, request: HttpRequest) -> Response:
        """``POST /jobs``: enqueue a simulate job, answer 202.

        The body is the ``/simulate`` parameter object plus an
        optional integer ``priority`` (higher runs first, default 0).
        """
        params = request.json()
        if not isinstance(params, dict):
            raise HttpError(400, "body must be a JSON object")
        priority = _as_int(params.pop("priority", 0), "priority")
        sim = self._parse_simulate_params(params)
        if self.draining:
            raise HttpError(
                503,
                "server is draining; jobs are not accepted",
                retry_after_seconds=1.0,
            )
        job = self.jobs.submit(sim.params(), priority=priority)
        return Response(202, json_body({"job": job.describe()}))

    def _get_job(self, job_id: str) -> Response:
        try:
            job = self.jobs.get(job_id)
        except ServeError as error:
            raise HttpError(404, str(error)) from None
        payload: dict[str, Any] = {"job": job.describe()}
        if job.status == "done" and job.result is not None:
            payload["result"] = json.loads(job.result)
        return Response(200, json_body(payload))

    def _cancel_job(self, job_id: str) -> Response:
        try:
            job = self.jobs.cancel(job_id)
        except JobConflict as error:
            raise HttpError(409, str(error)) from None
        except ServeError as error:
            raise HttpError(404, str(error)) from None
        return Response(200, json_body({"job": job.describe()}))

    def _list_jobs(self, request: HttpRequest) -> Response:
        status = request.query.get("status")
        if status is not None and status not in JOB_STATES:
            raise HttpError(
                400,
                f"unknown job status {status!r} "
                f"(known: {', '.join(JOB_STATES)})",
            )
        limit = 100
        if "limit" in request.query:
            try:
                limit = max(1, min(1000, int(request.query["limit"])))
            except ValueError:
                raise HttpError(
                    400,
                    f"limit must be an integer, "
                    f"got {request.query['limit']!r}",
                ) from None
        jobs = self.jobs.list(status=status, limit=limit)
        return Response(
            200,
            json_body(
                {
                    "jobs": [job.describe() for job in jobs],
                    "stats": self.jobs.stats(),
                }
            ),
        )

    async def _execute_job(
        self, params: dict[str, Any], job: Job
    ) -> bytes:
        """Run one queued job through the shared serving machinery.

        Jobs reuse the result cache and single-flight exactly like
        the synchronous endpoint — a queued job whose parameters were
        already computed finishes instantly as a cache hit, and the
        result it stores makes a later ``POST /simulate`` with the
        same parameters a byte-identical hit.  Jobs bypass admission
        control: the queue itself is the backpressure.
        """
        sim = SimulateJob(**params)
        key = canonical_key("simulate", sim.params())
        cached = self.cache.get(key)
        if cached is not None:
            job.cached = True
            return cached

        async def compute() -> bytes:
            payload = await self.batcher.submit(sim)
            body = json_body(payload)
            self.cache.put(key, body)
            return body

        body, coalesced = await self.singleflight.run(key, compute)
        job.cached = coalesced
        return body


# --------------------------------------------------------------------------
# Helpers
# --------------------------------------------------------------------------

def _parse_log_body(
    body: bytes, format: str, on_error: str
) -> FailureLog | LogReadReport:
    """Parse an uploaded log body by spooling it through a temp file
    (the io readers are path-based)."""
    suffix = ".csv" if format == "csv" else ".jsonl"
    handle = tempfile.NamedTemporaryFile(suffix=suffix, delete=False)
    path = Path(handle.name)
    try:
        with handle:
            handle.write(body)
        return read_log(path, format=format, on_error=on_error)
    finally:
        path.unlink(missing_ok=True)


def _as_int(value: Any, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise HttpError(400, f"{name} must be a number, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise HttpError(400, f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_seed(value: Any) -> int:
    # numpy seeds must be non-negative; a negative one is a client
    # error, not a failure inside the simulator.
    seed = _as_int(value, "seed")
    if seed < 0:
        raise HttpError(400, f"seed must be >= 0, got {seed}")
    return seed


def _as_float(value: Any, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise HttpError(400, f"{name} must be a number, got {value!r}")
    return float(value)
