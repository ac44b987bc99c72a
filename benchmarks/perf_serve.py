#!/usr/bin/env python3
"""Serving-layer benchmark: cache, coalescing, and sustained load.

Stands up a real :mod:`repro.serve` server (background thread, TCP
socket, stdlib ``http.client`` — the same path production traffic
takes) and measures the three properties ``docs/SERVING.md`` promises:

* **cold vs cached latency** — one Monte-Carlo simulate request cold,
  then the same request repeatedly against the warm cache; the
  acceptance bar is a >= 10x speedup.
* **single-flight coalescing** — N identical concurrent simulate
  requests on a fresh key must cost exactly **one** backend
  execution; the report records the measured executions and the
  coalescing factor N/executions.
* **sustained cached throughput** — concurrent clients hammering a
  warm analysis endpoint, reported as requests per second.
* **cold uploads** — ``POST /datasets/{name}?format=csv`` of distinct
  1x Tsubame-2 bodies, reported as the median latency, plus
  ``records_built``: the records the uploaded logs hold once
  registered, 0 when every upload stays lazy (parsed and fingerprinted
  from its columns).  The frozen ``before_columnar_fingerprint`` block
  holds the median as last measured when ``fingerprint_log`` built
  every record.

Writes ``BENCH_serve.json`` at the repo root next to
``BENCH_core.json``/``BENCH_sim.json``.

Run::

    PYTHONPATH=src python benchmarks/perf_serve.py

Environment knobs (CI smoke uses small values):
``REPRO_BENCH_SERVE_REPLICATIONS`` (ensemble size of the simulate
probe), ``REPRO_BENCH_SERVE_CLIENTS`` (concurrent clients),
``REPRO_BENCH_SERVE_REQUESTS`` (requests per client in the sustained
phase).
"""

from __future__ import annotations

import http.client
import json
import os
import platform
import statistics
import tempfile
import threading
import time
from pathlib import Path

from repro.io import write_csv
from repro.serve import DatasetRegistry, ReproApp, run_in_thread

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_serve.json"

BENCH_SEED = 42
SIMULATE_HORIZON_HOURS = 300.0
CACHED_SAMPLES = 30
DEFAULT_REPLICATIONS = 4
DEFAULT_CLIENTS = 8
DEFAULT_REQUESTS_PER_CLIENT = 50
UPLOAD_SAMPLES = 30

#: The ``upload`` median as last measured with ``fingerprint_log``
#: building every record of the uploaded log.
UPLOAD_BEFORE = {
    "note": (
        "record-built fingerprint_log: this section of the current "
        "perf_serve.py run on the previous registry, median of seven "
        "runs alternating with the current registry's, pinned to one "
        "CPU of a shared 2-CPU host (Python 3.11.7, NumPy 2.4.6); not "
        "re-measured"
    ),
    "uploads": 30,
    "rows_per_upload": 896,
    "median_ms": 5.859611999767367,
    "records_built": 26880,
}


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    return int(raw) if raw else default


def _request(
    port: int,
    method: str,
    path: str,
    payload: dict | None = None,
) -> tuple[int, bytes, str | None, float]:
    """One request on a fresh connection.

    Returns (status, body, X-Cache header, seconds).
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        body = (
            json.dumps(payload).encode() if payload is not None else None
        )
        start = time.perf_counter()
        conn.request(method, path, body)
        response = conn.getresponse()
        data = response.read()
        elapsed = time.perf_counter() - start
        return response.status, data, response.getheader("X-Cache"), elapsed
    finally:
        conn.close()


def _make_app() -> ReproApp:
    registry = DatasetRegistry()
    registry.synthesize("t2", "tsubame2", seed=BENCH_SEED)
    registry.synthesize("t3", "tsubame3", seed=BENCH_SEED)
    # Generous admission so the benchmark measures the serving layer,
    # not a deliberately tight queue.
    return ReproApp(
        registry,
        workers=min(4, os.cpu_count() or 1),
        cache_size=1024,
        cache_ttl_seconds=None,
        max_inflight=32,
        max_queue=256,
    )


def _bench_latency(port: int, replications: int) -> dict:
    """Cold-vs-cached latency of one simulate request."""
    payload = {
        "machine": "tsubame2",
        "replications": replications,
        "horizon_hours": SIMULATE_HORIZON_HOURS,
        "seed": 7,
    }
    status, cold_body, tag, cold_s = _request(
        port, "POST", "/simulate", payload
    )
    assert status == 200, f"cold simulate failed: {status}"
    assert tag == "miss", f"cold request unexpectedly {tag}"
    # Cached samples reuse ONE keep-alive connection: a fresh TCP
    # handshake per request would swamp the sub-millisecond cache hit
    # and understate the speedup this benchmark exists to measure.
    cached: list[float] = []
    body_bytes = json.dumps(payload).encode()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        for _ in range(CACHED_SAMPLES):
            start = time.perf_counter()
            conn.request("POST", "/simulate", body_bytes)
            response = conn.getresponse()
            body = response.read()
            cached.append(time.perf_counter() - start)
            assert response.status == 200
            assert response.getheader("X-Cache") == "hit"
            assert body == cold_body, "cache hit was not byte-identical"
    finally:
        conn.close()
    cached_s = statistics.median(cached)
    return {
        "replications": replications,
        "horizon_hours": SIMULATE_HORIZON_HOURS,
        "cold_ms": cold_s * 1e3,
        "cached_ms": cached_s * 1e3,
        "cached_samples": CACHED_SAMPLES,
        "speedup": cold_s / cached_s if cached_s else float("inf"),
        "byte_identical": True,
    }


def _bench_coalescing(
    app: ReproApp, port: int, clients: int, replications: int
) -> dict:
    """N identical concurrent requests -> exactly one execution."""
    payload = {
        "machine": "tsubame3",
        "replications": replications,
        "horizon_hours": SIMULATE_HORIZON_HOURS,
        "seed": 99,  # fresh key: not in cache
    }
    executions_before = app.singleflight.executions
    barrier = threading.Barrier(clients)
    statuses: list[int] = []
    bodies: set[bytes] = set()
    lock = threading.Lock()

    def worker() -> None:
        barrier.wait()
        status, body, _, _ = _request(port, "POST", "/simulate", payload)
        with lock:
            statuses.append(status)
            bodies.add(body)

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - start
    executions = app.singleflight.executions - executions_before
    assert statuses == [200] * clients, f"failures: {statuses}"
    assert len(bodies) == 1, "coalesced responses diverged"
    return {
        "concurrent_requests": clients,
        "backend_executions": executions,
        "coalescing_factor": clients / executions if executions else 0.0,
        "wall_s": wall_s,
        "all_identical": True,
    }


def _bench_sustained(
    port: int, clients: int, requests_per_client: int
) -> dict:
    """Concurrent clients against a warm cached analysis endpoint."""
    path = "/analyze/t2/breakdown"
    status, _, _, _ = _request(port, "GET", path)  # warm the cache
    assert status == 200
    latencies: list[float] = []
    lock = threading.Lock()
    barrier = threading.Barrier(clients)

    def worker() -> None:
        conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=120
        )
        local: list[float] = []
        barrier.wait()
        try:
            for _ in range(requests_per_client):
                start = time.perf_counter()
                conn.request("GET", path)
                response = conn.getresponse()
                response.read()
                local.append(time.perf_counter() - start)
                assert response.status == 200
        finally:
            conn.close()
        with lock:
            latencies.extend(local)

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - start
    total = clients * requests_per_client
    latencies.sort()
    return {
        "clients": clients,
        "requests_per_client": requests_per_client,
        "total_requests": total,
        "wall_s": wall_s,
        "requests_per_s": total / wall_s if wall_s else 0.0,
        "p50_ms": latencies[len(latencies) // 2] * 1e3,
        "p99_ms": latencies[int(len(latencies) * 0.99) - 1] * 1e3,
    }


def _bench_upload(app: ReproApp, port: int) -> dict:
    """Cold CSV uploads of distinct 1x Tsubame-2 bodies.

    Body ``k`` drops row ``k`` of the calibrated log, so every upload
    is new content with a new fingerprint.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t2.csv"
        write_csv(app.registry.get("t2").log, path)
        lines = path.read_text().splitlines(keepends=True)
    head, rows = "".join(lines[:4]), lines[4:]  # metadata + header
    latencies: list[float] = []
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        for k in range(UPLOAD_SAMPLES):
            body = (head + "".join(rows[:k] + rows[k + 1:])).encode()
            start = time.perf_counter()
            conn.request("POST", f"/datasets/upload{k}?format=csv", body)
            response = conn.getresponse()
            response.read()
            latencies.append(time.perf_counter() - start)
            assert response.status == 201, response.status
    finally:
        conn.close()
    logs = [app.registry.get(f"upload{k}").log for k in range(UPLOAD_SAMPLES)]
    return {
        "uploads": UPLOAD_SAMPLES,
        "rows_per_upload": len(rows) - 1,
        "median_ms": statistics.median(latencies) * 1e3,
        "records_built": sum(0 if log._lazy else len(log) for log in logs),
        "before_columnar_fingerprint": UPLOAD_BEFORE,
    }


def run_benchmark() -> dict:
    replications = _env_int(
        "REPRO_BENCH_SERVE_REPLICATIONS", DEFAULT_REPLICATIONS
    )
    clients = _env_int("REPRO_BENCH_SERVE_CLIENTS", DEFAULT_CLIENTS)
    requests_per_client = _env_int(
        "REPRO_BENCH_SERVE_REQUESTS", DEFAULT_REQUESTS_PER_CLIENT
    )
    app = _make_app()
    with run_in_thread(app) as handle:
        latency = _bench_latency(handle.port, replications)
        coalescing = _bench_coalescing(
            app, handle.port, clients, replications
        )
        sustained = _bench_sustained(
            handle.port, clients, requests_per_client
        )
        upload = _bench_upload(app, handle.port)
        stats = app.stats.snapshot()
    return {
        "schema": 1,
        "seed": BENCH_SEED,
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "latency": latency,
        "coalescing": coalescing,
        "sustained": sustained,
        "upload": upload,
        "server_totals": {
            "requests_total": stats["requests_total"],
            "errors_5xx": stats["errors_5xx"],
            "shed_total": stats["shed_total"],
        },
    }


def write_report(results: dict, path: Path = REPORT_PATH) -> Path:
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def main() -> None:
    results = run_benchmark()
    latency = results["latency"]
    print(
        f"simulate ({latency['replications']} replications): "
        f"cold {latency['cold_ms']:.1f} ms, cached "
        f"{latency['cached_ms']:.2f} ms "
        f"({latency['speedup']:.0f}x, byte-identical)"
    )
    coalescing = results["coalescing"]
    print(
        f"coalescing: {coalescing['concurrent_requests']} identical "
        f"concurrent requests -> {coalescing['backend_executions']} "
        f"backend execution(s) "
        f"(factor {coalescing['coalescing_factor']:.0f})"
    )
    sustained = results["sustained"]
    print(
        f"sustained: {sustained['total_requests']} cached requests "
        f"across {sustained['clients']} clients in "
        f"{sustained['wall_s']:.2f} s = "
        f"{sustained['requests_per_s']:,.0f} req/s "
        f"(p50 {sustained['p50_ms']:.2f} ms, "
        f"p99 {sustained['p99_ms']:.2f} ms)"
    )
    upload = results["upload"]
    before = upload["before_columnar_fingerprint"]
    print(
        f"upload: {upload['uploads']} cold CSV uploads of "
        f"{upload['rows_per_upload']} rows, median "
        f"{upload['median_ms']:.2f} ms (record-built fingerprint "
        f"{before['median_ms']:.2f} ms), records built "
        f"{upload['records_built']}"
    )
    path = write_report(results)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
