"""The ``repro-failures serve`` subcommand and its exit-code contract.

The server runs as a real subprocess (signals don't cross thread
boundaries cleanly), probed over HTTP and stopped with SIGINT or
SIGTERM.  The CLI's exit-code contract must hold on the serving path
too: 1 for domain errors (bad dataset spec), 2 for usage and
environment errors (unknown flag, port in use), 130 for Ctrl-C and
SIGTERM.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def serve_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        f"{src}{os.pathsep}{existing}" if existing else src
    )
    return env


def spawn_serve(*extra_args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=serve_env(),
        cwd=REPO_ROOT,
    )


def wait_for_port(proc: subprocess.Popen, timeout: float = 60.0) -> int:
    """Read stdout until the 'serving on' line; return the port."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line and proc.poll() is not None:
            raise AssertionError(
                f"server exited early with {proc.returncode}"
            )
        match = re.search(r"http://[\d.]+:(\d+)", line)
        if match:
            return int(match.group(1))
    raise AssertionError("server never printed its address")


class TestServeLifecycle:
    @pytest.mark.parametrize(
        "signum", [signal.SIGINT, signal.SIGTERM], ids=lambda s: s.name
    )
    def test_serves_and_exits_130_on_signal(self, signum):
        proc = spawn_serve(
            "--datasets", "t2=synth:tsubame2:42:60", "--cache-ttl", "60"
        )
        try:
            port = wait_for_port(proc)
            health = json.loads(
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/healthz", timeout=10
                ).read()
            )
            assert health["status"] == "ok"
            assert health["datasets"] == ["t2"]
            analyze = json.loads(
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/analyze/t2/breakdown",
                    timeout=30,
                ).read()
            )
            assert analyze["machine"] == "tsubame2"
        finally:
            proc.send_signal(signum)
            returncode = proc.wait(timeout=30)
        assert returncode == 130

    def test_default_datasets_register_both_machines(self):
        proc = spawn_serve("--datasets",
                           "t2=synth:tsubame2:1:30,t3=synth:tsubame3:1:30")
        try:
            port = wait_for_port(proc)
            listing = json.loads(
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/datasets", timeout=10
                ).read()
            )
            names = [d["name"] for d in listing["datasets"]]
            assert names == ["t2", "t3"]
        finally:
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=30)


class TestServeFailureExitCodes:
    def test_malformed_dataset_spec_exits_1(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve",
             "--datasets", "not-a-spec"],
            capture_output=True, text=True, env=serve_env(),
            cwd=REPO_ROOT, timeout=60,
        )
        assert result.returncode == 1
        assert "error:" in result.stderr
        assert "Traceback" not in result.stderr

    def test_unknown_machine_spec_exits_1(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve",
             "--datasets", "x=synth:crayxk7"],
            capture_output=True, text=True, env=serve_env(),
            cwd=REPO_ROOT, timeout=60,
        )
        assert result.returncode == 1

    def test_missing_dataset_file_exits_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve",
             "--datasets", "x=/no/such/file.csv"],
            capture_output=True, text=True, env=serve_env(),
            cwd=REPO_ROOT, timeout=60,
        )
        assert result.returncode == 2

    def test_unknown_shards_flag_exits_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--shards", "2"],
            capture_output=True, text=True, env=serve_env(),
            cwd=REPO_ROOT, timeout=60,
        )
        assert result.returncode == 2
        assert "unrecognized arguments: --shards 2" in result.stderr

    def test_port_in_use_exits_2(self):
        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            busy_port = blocker.getsockname()[1]
            result = subprocess.run(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--port", str(busy_port), "--datasets", ""],
                capture_output=True, text=True, env=serve_env(),
                cwd=REPO_ROOT, timeout=60,
            )
        finally:
            blocker.close()
        assert result.returncode == 2
        assert "error:" in result.stderr
        assert "Traceback" not in result.stderr


class TestServeParser:
    def test_parser_accepts_all_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--host", "0.0.0.0", "--port", "9999",
             "--datasets", "a=synth:tsubame2",
             "--workers", "4", "--cache-size", "64",
             "--cache-ttl", "30", "--max-inflight", "2",
             "--max-queue", "4", "--rate-limit", "5", "--burst", "9"]
        )
        assert args.command == "serve"
        assert args.port == 9999
        assert args.workers == 4
        assert args.rate_limit == 5.0

    def test_serve_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert "synth:tsubame2" in args.datasets
        assert args.cache_size == 256
        assert args.rate_limit is None
