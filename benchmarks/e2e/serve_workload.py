"""The ``serve`` workload: a request mix against a server process.

The server (``serve_child.py``) runs as its own process with one
worker, a ``store:``-backed 30x Tsubame-2 dataset ``big`` and a 1x
Tsubame-3 CSV ``t3``.  One generator process sends the mix over two
keep-alive connections in cycles: an open loop of Poisson arrivals at
100 req/s for half a second (``low``), one at 300 req/s (``high``), then
``BURSTS`` closed-loop bursts (``peak``) of one request mix each, sent
as fast as two connections allow.  Cycles repeat until the run's time
is up.  A burst is the workload's operation: a host-speed probe runs
after every segment and burst, while nothing is in flight, and burst
times are corrected like the batch workloads' operations.  Single
requests take well under a millisecond, mostly in system calls and
context switches, which do not slow down with the host as computation
does; their latencies, open-loop ones included, are reported as
measured.  The rates are fixed, not re-measured per run.

The mix: 85% cached ``GET /analyze/{big,t3}/...``; 8% ``POST
/simulate`` (tsubame2, 4 replications x 300 h), one in eight of them
for a new seed (see ``MISS_EVERY``); 4% uploads of a fresh 1x CSV, each
a new fingerprint; 3% ``GET /analyze`` on the dataset uploaded last,
computed cold.
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from hostspeed import probe, scaled
from loadgen import Outcome, open_loop, poisson_times
from workloads import PAYLOADS, percentile, tiled_log

from repro.io import write_csv
from repro.store import init_store
from repro.synth import generate_log

HERE = Path(__file__).resolve().parent

#: Arrival rate (req/s) of each open-loop segment of a cycle, in order.
RATES = {"low": 100.0, "high": 300.0}
#: Seconds of each open-loop segment.  Short segments leave most of the
#: run to bursts, whose count sets how steady the median is.
OPEN_S = 0.5
#: Closed-loop bursts per cycle.
BURSTS = 10
SLO_MS = 50.0
BIG_COPIES = 30
#: One ``/simulate`` request in this many asks for a seed not asked for
#: before (a miss); the rest repeat an earlier seed (a hit, or a wait on
#: the miss in flight).  Every burst thus holds exactly one miss, and
#: bursts cost the same from the first to the last.
MISS_EVERY = 8
UPLOAD_NAMES = 8
#: Request kinds per 100 requests.  Every 100 consecutive requests hold
#: exactly this mix, so runs differ in order and timing, not in mix, and
#: each burst is one such deck.
MIX = {"analyze": 85, "simulate": 8, "upload": 4, "analyze_upload": 3}
DECK = sum(MIX.values())
OK = (200, 201)
#: Unit of each figure ``summarize`` reports per open-loop phase.
PHASE_UNITS = {"requests": "count", "p50_ms": "ms", "p90_ms": "ms",
               "p99_ms": "ms", "slo_miss_rate": "ratio",
               "achieved_rps": "1/s"}


@dataclass(frozen=True)
class Request:
    kind: str
    path: str
    body: bytes | None = None
    key: object = None


@dataclass
class Segment:
    """One segment's outcomes, with times in seconds from its start."""

    phase: str
    outcomes: list[Outcome]
    #: Multiply a time measured in the segment by this to correct it to
    #: the reference host speed.
    speed: float

    @property
    def seconds(self) -> float:
        """Scheduled length, or until the last reply if that is later."""
        length = OPEN_S if self.phase in RATES else 0.0
        return max([length] + [o.done for o in self.outcomes])


def request_kinds(rng: random.Random):
    """Request kinds forever, shuffled a deck of ``MIX`` at a time."""
    deck = [kind for kind, count in MIX.items() for _ in range(count)]
    while True:
        rng.shuffle(deck)
        yield from deck


class ServerProcess:
    """One ``serve_child.py`` process, bound and ready."""

    def __init__(self, workdir: Path, store: Path, t3: Path, traced: bool):
        self.stats_path = workdir / f"server-{int(traced)}.json"
        self.stats_path.unlink(missing_ok=True)
        tmp = workdir / "tmp"
        tmp.mkdir(exist_ok=True)
        command = [
            sys.executable, str(HERE / "serve_child.py"),
            "--store", str(store), "--t3", str(t3),
            "--stats", str(self.stats_path),
        ] + (["--trace"] if traced else [])
        # Uploads are spooled through tempfile; keep them in the workdir.
        env = dict(os.environ, TMPDIR=str(tmp))
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, env=env
        )
        line = self.proc.stdout.readline()
        if not line.startswith("READY "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split()[1])

    def stop(self) -> dict:
        """Stop gracefully and return what the server wrote on exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        if self.stats_path.exists():
            return json.loads(self.stats_path.read_text())
        return {}


class Serve:
    name = "serve"

    def __init__(self, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.seed = seed
        base = generate_log("tsubame2", seed=seed)
        big = tiled_log(base, BIG_COPIES)
        self.store_path = workdir / "big.store"
        init_store(
            self.store_path, big.machine,
            window_start=big.window_start, window_end=big.window_end,
        ).append(big)
        self.t3_path = workdir / "t3.csv"
        write_csv(generate_log("tsubame3", seed=seed), self.t3_path)
        upload = workdir / "upload.csv"
        write_csv(base, upload)
        lines = upload.read_text().splitlines(keepends=True)
        self._upload_head = "".join(lines[:4])  # 3 metadata lines + header
        self._upload_rows = lines[4:]
        self.latest_upload = ""
        self._uploads = self._simulates = 0
        self._sim_seeds: list[int] = []
        self.server = ServerProcess(workdir, self.store_path, self.t3_path,
                                    traced=False)

    def close(self) -> None:
        self.server.stop()

    # -- requests -----------------------------------------------------------

    def upload_request(self, k: int) -> Request:
        """A 1x CSV unlike every other: row ``k`` of the base is left out."""
        skip = k % len(self._upload_rows)
        rows = self._upload_rows[:skip] + self._upload_rows[skip + 1:]
        name = f"u{k % UPLOAD_NAMES}"
        return Request("upload", f"/datasets/{name}?format=csv",
                       (self._upload_head + "".join(rows)).encode(), name)

    def simulate_request(self, sim_seed: int) -> Request:
        body = json.dumps({
            "machine": "tsubame2", "replications": 4,
            "horizon_hours": 300.0, "seed": sim_seed,
        }).encode()
        return Request("simulate", "/simulate", body, sim_seed)

    def request(self, kind: str, rng: random.Random) -> Request:
        if kind == "analyze":
            return Request(kind, "/analyze/{}/{}".format(
                rng.choice(("big", "t3")), rng.choice(PAYLOADS)))
        if kind == "simulate":
            miss = self._simulates % MISS_EVERY == 0
            self._simulates += 1
            if miss:
                self._sim_seeds.append(self.seed + len(self._sim_seeds))
                return self.simulate_request(self._sim_seeds[-1])
            return self.simulate_request(rng.choice(self._sim_seeds))
        if kind == "upload":
            self._uploads += 1
            return self.upload_request(self._uploads - 1)
        return Request(kind, "/analyze/{upload}/" + rng.choice(PAYLOADS))

    def plan(self, phase: str, rng: random.Random, kinds) -> list:
        """One segment's ``(due, request)`` pairs, made from the seed."""
        if phase == "peak":
            dues = [0.0] * DECK
        else:
            dues = poisson_times(rng, RATES[phase], 0.0, OPEN_S)
        return [(due, self.request(next(kinds), rng)) for due in dues]

    def send(self, conn, request: Request) -> tuple[int, bytes]:
        path = request.path
        if request.kind == "analyze_upload":
            # Only datasets whose upload has been answered exist.
            path = path.format(upload=self.latest_upload)
        conn.request("GET" if request.body is None else "POST", path,
                     request.body)
        response = conn.getresponse()
        body = response.read()
        if request.kind == "upload" and response.status == 201:
            self.latest_upload = request.key
        return response.status, body

    def prime(self) -> list[str]:
        """Warm every code path once; the measured mix starts after."""
        warm = [Request("analyze", f"/analyze/{ds}/{name}")
                for ds in ("big", "t3") for name in PAYLOADS]
        warm.append(self.simulate_request(self.seed - 1))
        warm.append(self.upload_request(len(self._upload_rows) - 1))
        warm.append(Request("analyze_upload", "/analyze/{upload}/breakdown"))
        outcomes = open_loop(self.server.port, [(0.0, r) for r in warm],
                             self.send, connections=1)
        return [f"serve: warm-up {o.request.path} -> {o.status}"
                for o in outcomes if o.status not in OK]

    # -- measuring ----------------------------------------------------------

    def run_load(self, seconds: float) -> tuple[list[Segment], list[str]]:
        """Whole cycles of segments until ``seconds`` pass (at least one)."""
        failures = self.prime()
        # Every load, on a fresh server or not, sends the same requests.
        rng = random.Random(self.seed)
        self._uploads = self._simulates = 0
        self._sim_seeds = []
        # Bursts draw from their own deck so each is exactly one mix.
        kinds = {"open": request_kinds(rng), "peak": request_kinds(rng)}
        segments: list[Segment] = []
        deadline = time.perf_counter() + seconds
        before = probe()
        while not segments or time.perf_counter() < deadline:
            for phase in [*RATES] + ["peak"] * BURSTS:
                deck = kinds["peak" if phase == "peak" else "open"]
                outcomes = open_loop(self.server.port,
                                     self.plan(phase, rng, deck), self.send)
                after = probe()
                segments.append(
                    Segment(phase, outcomes, scaled(1.0, before, after)))
                before = after
        outcomes = [o for s in segments for o in s.outcomes]
        failures += [
            f"serve: {o.request.kind} {o.request.path} -> {o.status}"
            for o in outcomes if o.status not in OK
        ]
        failures += [
            f"serve: /simulate seed {seed} hit differs from its miss"
            for seed, bodies in simulate_bodies(outcomes).items()
            if len(bodies) > 1
        ]
        return segments, failures

    def measure(self, seconds: float):
        """End-to-end metrics of one untraced run.  An operation is one
        burst: one request mix served over two connections."""
        segments, failures = self.run_load(seconds)
        peak_rss_mb = self.server.stop().get("peak_rss_mb", 0.0)
        bursts = [s for s in segments if s.phase == "peak"]
        wall = [s.seconds for s in bursts]
        corrected = [s.seconds * s.speed for s in bursts]
        metrics = {
            "ops_per_s": len(bursts) / sum(corrected),
            "op_p50_ms": statistics.median(corrected) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        attempted = sum(len(s.outcomes) for s in segments)
        in_bursts = [(o.done - o.sent) * 1e3
                     for s in bursts for o in s.outcomes]
        slowdown = 1 / statistics.median(s.speed for s in segments)
        notes = [
            f"serve {phase}.{key} {value:.6g} {PHASE_UNITS[key]}"
            for phase, summary in summarize(segments).items()
            for key, value in summary.items()
        ] + [
            f"serve peak.requests_per_s {DECK * metrics['ops_per_s']:.6g} "
            f"1/s",
            f"serve peak.p50_ms {percentile(in_bursts, 0.50):.6g} ms",
            f"serve op_samples {len(bursts)} count",
            f"serve op_p50_wall_ms {statistics.median(wall) * 1e3:.6g} ms",
            f"serve ops_per_s_wall {len(wall) / sum(wall):.6g} 1/s",
            f"serve host_slowdown {slowdown:.6g} ratio",
        ]
        return metrics, attempted, failures, notes

    def measure_traced(self, seconds: float):
        """Per-layer metrics: an untraced half, then a traced half."""
        half = seconds / 2
        plain, failures = self.run_load(half)
        self.server.stop()
        self.server = ServerProcess(self.workdir, self.store_path,
                                    self.t3_path, traced=True)
        traced, traced_failures = self.run_load(half)
        failures += traced_failures
        statsz = json.loads(open_loop(
            self.server.port, [(0.0, Request("stats", "/statsz"))],
            self.send, connections=1)[0].body)
        stats = self.server.stop()
        everything = [o for s in plain + traced for o in s.outcomes]
        failures += [
            f"serve: traced /simulate seed {seed} differs from untraced"
            for seed, bodies in simulate_bodies(everything).items()
            if len(bodies) > 1
        ]
        metrics = serve_layers(plain, traced, statsz, stats)
        attempted = sum(len(s.outcomes) for s in plain + traced)
        return metrics, attempted, failures, []


def simulate_bodies(outcomes: list[Outcome]) -> dict[object, set[bytes]]:
    bodies: dict[object, set[bytes]] = {}
    for o in outcomes:
        if o.request.kind == "simulate" and o.status == 200:
            bodies.setdefault(o.request.key, set()).add(o.body)
    return bodies


def summarize(segments: list[Segment]) -> dict[str, dict]:
    """Per open-loop phase: latency from due time, SLO misses (a failed
    request misses too) and achieved rate, as measured."""
    out = {}
    for phase in RATES:
        chosen = [s for s in segments if s.phase == phase]
        outcomes = [o for s in chosen for o in s.outcomes]
        latencies = [o.latency * 1e3 for o in outcomes]
        ok = sum(1 for o in outcomes if o.status in OK)
        missed = sum(1 for o in outcomes
                     if o.status not in OK or o.latency * 1e3 > SLO_MS)
        out[phase] = {
            "requests": len(outcomes),
            "p50_ms": percentile(latencies, 0.50),
            "p90_ms": percentile(latencies, 0.90),
            "p99_ms": percentile(latencies, 0.99),
            "slo_miss_rate": missed / len(outcomes),
            "achieved_rps": ok / sum(s.seconds for s in chosen),
        }
    return out


def serve_layers(plain: list[Segment], traced: list[Segment], statsz: dict,
                 stats: dict) -> dict[str, float]:
    """Serving-layer metrics from the traced half, per request and as
    measured; latency by phase and generator lag from the untraced half;
    tracing overhead from the corrected burst times of both."""
    timers = stats.get("timers", {})
    requests = stats.get("timer_calls", {}).get("serve.app.dispatch", 0)

    def per_request(name: str) -> float:
        return timers.get(name, 0.0) / requests if requests else 0.0

    def burst_s(segments: list[Segment]) -> float:
        return statistics.fmean(
            s.seconds * s.speed for s in segments if s.phase == "peak")

    dispatch = per_request("serve.app.dispatch")
    service = statistics.fmean(
        o.done - o.sent for s in traced for o in s.outcomes)
    cache = statsz["cache"]
    batcher = statsz["batcher"]
    items = batcher["items"]
    batch_size = items / batcher["batches"] if batcher["batches"] else 0.0
    wait = (
        (timers.get("serve.coalesce.submit", 0.0)
         - timers.get("serve.coalesce.execute", 0.0) * batch_size) / items
        if items else 0.0
    )
    phases = summarize(plain)
    lags = [o.lag * 1e3 for s in plain if s.phase != "peak"
            for o in s.outcomes]
    return {
        "serve.app.dispatch.s": dispatch,
        "serve.http.s": service - dispatch,
        "serve.cache.hit_ratio":
            cache["hits"] / max(1, cache["hits"] + cache["misses"]),
        "serve.coalesce.executions_per_request":
            statsz["singleflight"]["executions"]
            / max(1, statsz["server"]["requests_total"]),
        "serve.coalesce.batch_size": batch_size,
        "serve.coalesce.batch_wait_s": wait,
        "serve.admission.rejected": statsz["admission"]["shed"],
        "serve.registry.upload.s": per_request("serve.registry.upload"),
        "parallel.pool.task_s": per_request("parallel.pool.task"),
        "serve.loadgen.lag_p99_ms": percentile(lags, 0.99),
        "serve.p50_ms.low": phases["low"]["p50_ms"],
        "serve.p99_ms.low": phases["low"]["p99_ms"],
        "serve.p50_ms.high": phases["high"]["p50_ms"],
        "serve.p99_ms.high": phases["high"]["p99_ms"],
        "serve.slo_miss_rate.high": phases["high"]["slo_miss_rate"],
        "serve.achieved_rps.high": phases["high"]["achieved_rps"],
        "tracing.slowdown": burst_s(traced) / burst_s(plain),
    }
