"""Chaos tests: the service must degrade, never die.

Reuses the :mod:`repro.testing.chaos` harness against a live server:
flaky and poisoned analysis handlers, corrupted upload bodies.  The
properties under test: a failing handler answers **500 with a JSON
error body and no traceback text**, the server keeps serving
afterwards, errors are never cached, and no accepted request is
dropped.
"""

from __future__ import annotations

import errno
import http.client
import json
import tempfile
import threading

import pytest

from repro.io import write_csv, write_jsonl
from repro.serve import DatasetRegistry, ReproApp, run_in_thread
from repro.serve.app import ANALYSES
from repro.synth import GeneratorConfig, generate_log
from repro.testing.chaos import (
    ChaosInjectedError,
    FlakyFunction,
    PoisonedFunction,
    corrupt_log_file,
)


def small_log():
    # Small on purpose: FlakyFunction digests repr(item) per call.
    return generate_log(
        "tsubame2", config=GeneratorConfig(seed=5, num_failures=40)
    )


def make_app(**kwargs) -> ReproApp:
    registry = DatasetRegistry()
    registry.register("t2", small_log(), source="test")
    kwargs.setdefault("workers", 1)
    return ReproApp(registry, **kwargs)


def request(port, method, path, body=None, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, body, headers or {})
        response = conn.getresponse()
        response.body = response.read()
        return response
    finally:
        conn.close()


class TestFlakyHandler:
    def test_transient_fault_then_recovery(self, tmp_path):
        app = make_app()
        app.analyses["breakdown"] = FlakyFunction(
            ANALYSES["breakdown"], failures=2, state_dir=tmp_path
        )
        with run_in_thread(app) as handle:
            statuses = []
            for _ in range(4):
                response = request(
                    handle.port, "GET", "/analyze/t2/breakdown"
                )
                statuses.append(response.status)
                payload = json.loads(response.body)
                raw = response.body.decode()
                assert "Traceback" not in raw
                assert "File \"" not in raw
                if response.status == 500:
                    assert (
                        payload["error"]["type"] == "ChaosInjectedError"
                    )
            # Two injected failures, then the handler heals.
            assert statuses == [500, 500, 200, 200]
            # The server is still fully alive on other endpoints.
            assert (
                request(handle.port, "GET", "/healthz").status == 200
            )

    def test_errors_are_never_cached(self, tmp_path):
        app = make_app()
        app.analyses["metrics"] = FlakyFunction(
            ANALYSES["metrics"], failures=1, state_dir=tmp_path
        )
        with run_in_thread(app) as handle:
            first = request(handle.port, "GET", "/analyze/t2/metrics")
            assert first.status == 500
            second = request(handle.port, "GET", "/analyze/t2/metrics")
            assert second.status == 200
            # The success was computed fresh, not replayed from cache.
            assert second.getheader("X-Cache") == "miss"
            third = request(handle.port, "GET", "/analyze/t2/metrics")
            assert third.status == 200
            assert third.getheader("X-Cache") == "hit"
            assert third.body == second.body


class TestPoisonedHandler:
    def test_permanently_broken_endpoint_isolates(self):
        app = make_app()
        log = app.registry.get("t2").log
        app.analyses["spatial"] = PoisonedFunction(
            ANALYSES["spatial"], poisoned=[log]
        )
        with run_in_thread(app) as handle:
            for _ in range(3):
                response = request(
                    handle.port, "GET", "/analyze/t2/spatial"
                )
                assert response.status == 500
                payload = json.loads(response.body)
                assert payload["error"]["type"] == "ChaosInjectedError"
                assert "Traceback" not in response.body.decode()
            # Sibling endpoints are unaffected.
            ok = request(handle.port, "GET", "/analyze/t2/breakdown")
            assert ok.status == 200

    def test_no_accepted_request_dropped_under_chaos(self, tmp_path):
        """Concurrent clients against a flaky handler: every accepted
        request gets exactly one well-formed HTTP answer."""
        app = make_app(workers=2)
        app.analyses["breakdown"] = FlakyFunction(
            ANALYSES["breakdown"], failures=3, state_dir=tmp_path
        )
        with run_in_thread(app) as handle:
            paths = (
                ["/analyze/t2/breakdown"] * 6
                + ["/analyze/t2/metrics"] * 5
                + ["/healthz"] * 5
            )
            answers: list[tuple[str, int, bytes]] = []
            lock = threading.Lock()

            def worker(path):
                response = request(handle.port, "GET", path)
                with lock:
                    answers.append(
                        (path, response.status, response.body)
                    )

            threads = [
                threading.Thread(target=worker, args=(p,))
                for p in paths
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)

            assert len(answers) == len(paths)  # nothing dropped
            for path, status, body in answers:
                assert status in (200, 500), (path, status)
                json.loads(body)  # every body is well-formed JSON
                assert b"Traceback" not in body
                if path != "/analyze/t2/breakdown":
                    assert status == 200, path
            # The injected faults surfaced on the flaky endpoint...
            flaky = [
                s for p, s, _ in answers
                if p == "/analyze/t2/breakdown"
            ]
            assert 500 in flaky
            # ...and the server is intact afterwards.  Coalescing may
            # have collapsed the concurrent attempts, so retry past
            # the remaining injected-fault budget (3 in total).
            final = [
                request(
                    handle.port, "GET", "/analyze/t2/breakdown"
                ).status
                for _ in range(4)
            ]
            assert final[-1] == 200


class TestCorruptedUploads:
    @pytest.mark.parametrize("format", ["csv", "jsonl"])
    def test_strict_upload_rejects_corruption_cleanly(
        self, tmp_path, format
    ):
        clean = tmp_path / f"clean.{format}"
        dirty = tmp_path / f"dirty.{format}"
        writer = write_csv if format == "csv" else write_jsonl
        writer(small_log(), clean)
        manifest = corrupt_log_file(clean, dirty, seed=3, rate=0.3)
        assert manifest  # some rows corrupted
        app = make_app()
        with run_in_thread(app) as handle:
            response = request(
                handle.port,
                "POST",
                f"/datasets/dirty?format={format}",
                dirty.read_bytes(),
            )
            assert response.status == 400
            payload = json.loads(response.body)
            assert "Traceback" not in response.body.decode()
            assert payload["error"]["type"]
            # Nothing half-registered.
            listing = json.loads(
                request(handle.port, "GET", "/datasets").body
            )
            assert [d["name"] for d in listing["datasets"]] == ["t2"]

    def test_lenient_upload_quarantines_and_registers(self, tmp_path):
        clean = tmp_path / "clean.jsonl"
        dirty = tmp_path / "dirty.jsonl"
        write_jsonl(small_log(), clean)
        corrupt_log_file(clean, dirty, seed=3, rate=0.3)
        app = make_app()
        with run_in_thread(app) as handle:
            response = request(
                handle.port,
                "POST",
                "/datasets/dirty?format=jsonl&on_error=collect",
                dirty.read_bytes(),
            )
            assert response.status == 201
            payload = json.loads(response.body)
            assert payload["quarantined_rows"] > 0
            # Corruption can duplicate rows, so exact conservation is
            # not guaranteed — but clean rows must have survived.
            assert payload["failures"] > 0
            # The quarantined dataset is analyzable.
            ok = request(
                handle.port, "GET", "/analyze/dirty/breakdown"
            )
            assert ok.status == 200

    def test_failed_body_write_leaves_no_temp_file(
        self, tmp_path, monkeypatch
    ):
        spool = tmp_path / "spool"
        spool.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spool))
        real = tempfile.NamedTemporaryFile

        def full_disk(*args, **kwargs):
            handle = real(*args, **kwargs)

            def write(data):
                handle.file.write(data[: len(data) // 2])
                handle.file.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

            handle.write = write
            return handle

        monkeypatch.setattr(tempfile, "NamedTemporaryFile", full_disk)
        write_csv(small_log(), tmp_path / "clean.csv")
        app = make_app()
        with run_in_thread(app) as handle:
            response = request(
                handle.port,
                "POST",
                "/datasets/full?format=csv",
                (tmp_path / "clean.csv").read_bytes(),
            )
            listing = json.loads(
                request(handle.port, "GET", "/datasets").body
            )
        assert response.status == 500
        error = json.loads(response.body)["error"]
        assert error["type"] == "OSError"
        assert "No space left" in error["message"]
        assert [d["name"] for d in listing["datasets"]] == ["t2"]
        assert list(spool.iterdir()) == []

    def test_unknown_on_error_mode_is_400(self, tmp_path):
        clean = tmp_path / "clean.csv"
        write_csv(small_log(), clean)
        app = make_app()
        with run_in_thread(app) as handle:
            response = request(
                handle.port,
                "POST",
                "/datasets/x?format=csv&on_error=wishful",
                clean.read_bytes(),
            )
            assert response.status == 400


class TestChaosInSimulate:
    def test_simulate_batch_chaos_fails_only_that_request(self):
        """A chaos-injected failure inside the batch executor fails
        its own request with a clean 500 and leaves the server up."""
        app = make_app()
        original = app.batcher._execute

        calls = {"n": 0}

        async def sabotaged(jobs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ChaosInjectedError("pool exploded")
            return await original(jobs)

        app.batcher._execute = sabotaged
        payload = json.dumps(
            {
                "machine": "tsubame2",
                "replications": 1,
                "horizon_hours": 100.0,
            }
        ).encode()
        with run_in_thread(app) as handle:
            first = request(
                handle.port, "POST", "/simulate", payload
            )
            assert first.status == 500
            body = json.loads(first.body)
            assert body["error"]["type"] == "ChaosInjectedError"
            assert "Traceback" not in first.body.decode()
            # Retry succeeds: the error was not cached.
            second = request(
                handle.port, "POST", "/simulate", payload
            )
            assert second.status == 200
