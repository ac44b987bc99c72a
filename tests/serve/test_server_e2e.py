"""End-to-end service tests over a real TCP socket.

A live :class:`~repro.serve.server.ReproServer` on a background
thread, driven with stdlib ``http.client`` — the same transport any
real client uses.  Covers the acceptance properties of the serving
layer: byte-identical cache hits, exactly-one backend execution for N
identical concurrent requests, 429/503 shedding with ``Retry-After``,
and graceful drain.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro.serve import DatasetRegistry, ReproApp, run_in_thread


def make_app(**kwargs) -> ReproApp:
    registry = DatasetRegistry()
    registry.synthesize("t2", "tsubame2", seed=42, failures=150)
    registry.synthesize("t3", "tsubame3", seed=42, failures=100)
    kwargs.setdefault("workers", 2)
    return ReproApp(registry, **kwargs)


def request(
    port: int,
    method: str,
    path: str,
    payload: dict | None = None,
    headers: dict | None = None,
):
    """One request on a fresh connection; returns the response with
    the body preloaded on ``.body``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        conn.request(method, path, body, headers or {})
        response = conn.getresponse()
        response.body = response.read()
        return response
    finally:
        conn.close()


@pytest.fixture(scope="module")
def server():
    with run_in_thread(make_app()) as handle:
        yield handle


class TestRoutes:
    def test_index_lists_endpoints(self, server):
        response = request(server.port, "GET", "/")
        assert response.status == 200
        payload = json.loads(response.body)
        assert payload["service"] == "repro.serve"
        assert any("simulate" in e for e in payload["endpoints"])

    def test_healthz(self, server):
        response = request(server.port, "GET", "/healthz")
        payload = json.loads(response.body)
        assert payload["status"] == "ok"
        assert payload["datasets"] == ["t2", "t3"]

    def test_datasets_listing_and_detail(self, server):
        listing = json.loads(
            request(server.port, "GET", "/datasets").body
        )
        assert [d["name"] for d in listing["datasets"]] == ["t2", "t3"]
        detail = json.loads(
            request(server.port, "GET", "/datasets/t2").body
        )
        assert detail["machine"] == "tsubame2"
        assert detail["failures"] == 150
        assert len(detail["fingerprint"]) == 64

    def test_all_analyses_answer(self, server):
        for analysis in (
            "breakdown",
            "metrics",
            "spatial",
            "seasonal",
            "multigpu",
        ):
            response = request(
                server.port, "GET", f"/analyze/t2/{analysis}"
            )
            assert response.status == 200, analysis
            payload = json.loads(response.body)
            assert payload["machine"] == "tsubame2"

    def test_unknown_routes_are_404_json(self, server):
        for path in ("/nope", "/analyze/t2/nope", "/analyze/zzz/metrics"):
            response = request(server.port, "GET", path)
            assert response.status == 404
            assert "error" in json.loads(response.body)

    def test_wrong_method_is_405(self, server):
        assert request(server.port, "POST", "/healthz").status == 405
        assert request(server.port, "GET", "/simulate").status == 405

    def test_bad_simulate_params_are_400(self, server):
        for payload in (
            {"machine": "nope"},
            {"machine": "tsubame2", "replications": 0},
            {"machine": "tsubame2", "replications": 100000},
            {"machine": "tsubame2", "horizon_hours": "long"},
        ):
            response = request(
                server.port, "POST", "/simulate", payload
            )
            assert response.status == 400, payload

    @pytest.mark.parametrize(
        "path, payload",
        [
            ("/simulate", {"machine": "tsubame2", "seed": -1}),
            ("/jobs", {"machine": "tsubame2", "seed": -1}),
            (
                "/generate",
                {"name": "neg", "machine": "tsubame2", "seed": -5},
            ),
        ],
        ids=["simulate", "jobs", "generate"],
    )
    def test_negative_seed_is_400(self, server, path, payload):
        response = request(server.port, "POST", path, payload)
        assert response.status == 400
        error = json.loads(response.body)["error"]
        assert "seed must be >= 0" in error["message"]

    def test_statsz_sections(self, server):
        payload = json.loads(request(server.port, "GET", "/statsz").body)
        assert set(payload) >= {
            "server",
            "cache",
            "singleflight",
            "batcher",
            "admission",
            "datasets",
        }
        assert payload["server"]["requests_total"] > 0


class TestCaching:
    def test_cache_hit_is_byte_identical(self, server):
        cold = request(server.port, "GET", "/analyze/t3/breakdown")
        warm = request(server.port, "GET", "/analyze/t3/breakdown")
        assert warm.getheader("X-Cache") == "hit"
        assert cold.body == warm.body

    def test_simulate_cache_hit(self, server):
        payload = {
            "machine": "tsubame2",
            "replications": 2,
            "horizon_hours": 150.0,
            "seed": 3,
        }
        cold = request(server.port, "POST", "/simulate", payload)
        assert cold.status == 200
        warm = request(server.port, "POST", "/simulate", payload)
        assert warm.getheader("X-Cache") == "hit"
        assert cold.body == warm.body
        # Spelling the same params differently hits the same key.
        reordered = dict(reversed(list(payload.items())))
        assert (
            request(
                server.port, "POST", "/simulate", reordered
            ).getheader("X-Cache")
            == "hit"
        )

    def test_upload_caches_by_content_fingerprint(self, server):
        t2 = server.app.registry.get("t2")
        import tempfile
        from pathlib import Path

        from repro.io import write_csv

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "alt.csv"
            write_csv(t2.log, path)
            body = path.read_bytes()
        before = request(server.port, "GET", "/analyze/t2/metrics")
        # raw-bytes upload: go through http.client manually
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=60
        )
        conn.request(
            "POST", "/datasets/t2b", body, {"Content-Type": "text/csv"}
        )
        response = conn.getresponse()
        uploaded = json.loads(response.read())
        conn.close()
        assert response.status == 201
        assert uploaded["failures"] == 150
        assert uploaded["quarantined_rows"] == 0
        # Same content => same fingerprint => shared cache entries.
        assert uploaded["fingerprint"] == t2.fingerprint
        warm = request(server.port, "GET", "/analyze/t2b/metrics")
        assert warm.getheader("X-Cache") == "hit"
        assert warm.body == before.body

    def test_upload_needs_a_recognised_format(self, server):
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=60
        )
        conn.request("POST", "/datasets/x", b"data", {})
        response = conn.getresponse()
        status, body = response.status, response.read()
        conn.close()
        assert status == 415
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=60
        )
        conn.request(
            "POST", "/datasets/x", b"data",
            {"Content-Type": "application/pdf"},
        )
        response = conn.getresponse()
        assert response.status == 415
        response.read()
        conn.close()

    def test_generate_registers_dataset(self, server):
        response = request(
            server.port,
            "POST",
            "/generate",
            {
                "name": "gen1",
                "machine": "tsubame3",
                "seed": 9,
                "failures": 40,
            },
        )
        assert response.status == 201
        assert json.loads(response.body)["failures"] == 40
        analyze = request(server.port, "GET", "/analyze/gen1/metrics")
        assert analyze.status == 200


class TestSingleFlight:
    def test_n_identical_concurrent_requests_one_execution(self, server):
        app = server.app
        barrier = threading.Barrier(8)
        payload = {
            "machine": "tsubame3",
            "replications": 2,
            "horizon_hours": 400.0,
            "seed": 77,
        }
        executions_before = app.singleflight.executions
        statuses: list[int] = []
        bodies: list[bytes] = []
        tags: list[str | None] = []
        lock = threading.Lock()

        def worker():
            barrier.wait()
            response = request(
                server.port, "POST", "/simulate", payload
            )
            with lock:
                statuses.append(response.status)
                bodies.append(response.body)
                tags.append(response.getheader("X-Cache"))

        threads = [
            threading.Thread(target=worker) for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert statuses == [200] * 8
        assert len(set(bodies)) == 1  # all byte-identical
        # The acceptance property: exactly one backend execution.
        executions = app.singleflight.executions - executions_before
        assert executions == 1
        assert tags.count("coalesced") + tags.count("hit") == 7

    def test_concurrent_clients_mixed_endpoints(self, server):
        paths = [
            "/analyze/t2/breakdown",
            "/analyze/t2/metrics",
            "/analyze/t3/spatial",
            "/analyze/t3/seasonal",
            "/healthz",
            "/datasets",
        ] * 4
        results: list[int] = []
        lock = threading.Lock()

        def worker(path: str):
            response = request(server.port, "GET", path)
            with lock:
                results.append(response.status)

        threads = [
            threading.Thread(target=worker, args=(path,))
            for path in paths
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert results == [200] * len(paths)


class TestKeepAlive:
    def test_many_requests_one_connection(self, server):
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=30
        )
        try:
            for _ in range(5):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
        finally:
            conn.close()

    def test_malformed_request_gets_400_not_hangup(self, server):
        import socket

        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock:
            sock.sendall(b"GARBAGE\r\n\r\n")
            reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400")


class TestBackpressure:
    def test_rate_limited_client_gets_429_with_retry_after(self):
        app = make_app(rate_per_second=1.0, burst=2.0)
        with run_in_thread(app) as handle:
            headers = {"X-Client-Id": "greedy"}
            seen = []
            for _ in range(6):
                response = request(
                    handle.port, "GET", "/datasets", None, headers
                )
                seen.append(response.status)
                if response.status == 429:
                    assert int(response.getheader("Retry-After")) >= 1
                    payload = json.loads(response.body)
                    assert "rate budget" in payload["error"]["message"]
            assert 429 in seen
            # A different client is unaffected.
            other = request(
                handle.port,
                "GET",
                "/datasets",
                None,
                {"X-Client-Id": "patient"},
            )
            assert other.status == 200
            # healthz is exempt even for the limited client.
            health = request(
                handle.port, "GET", "/healthz", None, headers
            )
            assert health.status == 200

    def test_overload_sheds_503_with_retry_after(self):
        app = make_app(max_inflight=1, max_queue=0, workers=1)
        release = threading.Event()
        original = app.analyses["breakdown"]

        def slow(log):
            release.wait(timeout=30)
            return original(log)

        app.analyses["breakdown"] = slow
        with run_in_thread(app) as handle:
            results: list[tuple[int, str | None]] = []
            lock = threading.Lock()

            def worker(path):
                response = request(handle.port, "GET", path)
                with lock:
                    results.append(
                        (
                            response.status,
                            response.getheader("Retry-After"),
                        )
                    )

            blocker = threading.Thread(
                target=worker, args=("/analyze/t2/breakdown",)
            )
            blocker.start()
            deadline = time.time() + 10
            while app.admission.inflight == 0:
                assert time.time() < deadline, "blocker never admitted"
                time.sleep(0.005)
            # Inflight is full and the queue is zero: shed.
            shed = request(handle.port, "GET", "/analyze/t2/metrics")
            assert shed.status == 503
            assert int(shed.getheader("Retry-After")) >= 1
            release.set()
            blocker.join(timeout=30)
            assert results[0][0] == 200
            stats = json.loads(
                request(handle.port, "GET", "/statsz").body
            )
            assert stats["admission"]["shed"] >= 1
            assert stats["server"]["shed_total"] >= 1


class TestGracefulShutdown:
    def test_inflight_request_drains_before_stop(self):
        app = make_app(workers=1)
        entered = threading.Event()
        release = threading.Event()
        original = app.analyses["metrics"]

        def slow(log):
            entered.set()
            release.wait(timeout=30)
            return original(log)

        app.analyses["metrics"] = slow
        handle = run_in_thread(app, drain_timeout=30.0)
        result: dict[str, object] = {}

        def client():
            response = request(
                handle.port, "GET", "/analyze/t2/metrics"
            )
            result["status"] = response.status
            result["body"] = response.body

        thread = threading.Thread(target=client)
        thread.start()
        assert entered.wait(timeout=10)

        stopper = threading.Thread(target=handle.stop)
        stopper.start()
        time.sleep(0.1)  # stop() is now draining
        release.set()
        thread.join(timeout=30)
        stopper.join(timeout=30)
        # The accepted request completed despite the shutdown.
        assert result["status"] == 200
        assert json.loads(result["body"])["machine"] == "tsubame2"

    def test_healthz_reports_draining(self):
        app = make_app()
        with run_in_thread(app) as handle:
            app.begin_drain()
            payload = json.loads(
                request(handle.port, "GET", "/healthz").body
            )
            assert payload["status"] == "draining"
