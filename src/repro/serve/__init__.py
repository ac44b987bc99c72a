"""repro.serve — asyncio reliability-analytics service.

A dependency-free service layer over the analysis core: named datasets
(:mod:`~repro.serve.registry`), an HTTP/1.1 request pipeline with
result caching (:mod:`~repro.serve.cache`), request coalescing
(:mod:`~repro.serve.coalesce`), and admission control
(:mod:`~repro.serve.admission`), served by ``asyncio.start_server``
(:mod:`~repro.serve.server`).  Expensive simulations can also be
queued through a priority job queue (:mod:`~repro.serve.jobs`).  See
``docs/SERVING.md`` for endpoint schemas and operational semantics.

Quick start::

    from repro.serve import DatasetRegistry, ReproApp, run_in_thread

    registry = DatasetRegistry()
    registry.synthesize("t2", "tsubame2", seed=42)
    with run_in_thread(ReproApp(registry)) as handle:
        ...  # http://127.0.0.1:{handle.port}/analyze/t2/breakdown
"""

from repro.serve.admission import (
    AdmissionController,
    RateLimiter,
    TokenBucket,
)
from repro.serve.app import ANALYSES, ReproApp, SimulateJob
from repro.serve.cache import ResultCache, canonical_key
from repro.serve.coalesce import MicroBatcher, SingleFlight
from repro.serve.http import HttpError, HttpRequest, Response
from repro.serve.jobs import JOB_STATES, Job, JobConflict, JobQueue
from repro.serve.registry import (
    Dataset,
    DatasetRegistry,
    fingerprint_file,
    fingerprint_log,
    parse_dataset_spec,
    register_from_spec,
)
from repro.serve.server import ReproServer, ServerHandle, run_in_thread
from repro.serve.stats import ServerStats

__all__ = [
    "ANALYSES",
    "AdmissionController",
    "Dataset",
    "DatasetRegistry",
    "HttpError",
    "HttpRequest",
    "JOB_STATES",
    "Job",
    "JobConflict",
    "JobQueue",
    "MicroBatcher",
    "RateLimiter",
    "ReproApp",
    "ReproServer",
    "ResultCache",
    "Response",
    "ServerHandle",
    "ServerStats",
    "SimulateJob",
    "SingleFlight",
    "TokenBucket",
    "canonical_key",
    "fingerprint_file",
    "fingerprint_log",
    "parse_dataset_spec",
    "register_from_spec",
    "run_in_thread",
]
