"""Command-line interface.

Subcommands::

    repro-failures generate --machine tsubame2 --seed 42 --out t2.csv
    repro-failures analyze t2.csv [--format csv|jsonl] [--lenient]
    repro-failures report [--seed 42] [--out report.txt]
    repro-failures simulate --machine tsubame3 --horizon 2000 \
        --technicians 4
    repro-failures monitor t2.csv [--window 720] [--report-every 200]
    repro-failures monitor --live --machine tsubame2 --horizon 5000
    repro-failures serve --port 8080 --datasets t2=synth:tsubame2:42
    repro-failures store init events.store --machine tsubame3
    repro-failures store append events.store t3.csv
    repro-failures store query events.store --as-of 2014-03-01T00:00:00
    repro-failures trace record --machine tsubame2 --horizon 2000 \
        --out run.trace.jsonl
    repro-failures trace replay run.trace.jsonl [--to-store PATH]
    repro-failures trace whatif run.trace.jsonl --technicians 2
    repro-failures trace info run.trace.jsonl
    repro-failures train simulate --machine a100 --nodes 64 \
        --replications 8
    repro-failures train compare --machines tsubame2,tsubame3,a100,h100

``generate`` writes a calibrated synthetic log; ``analyze`` prints the
headline metrics of an existing log file (format inferred from the
extension, ``--format`` overrides); ``report`` regenerates every table
and figure for both machines; ``simulate`` runs the discrete-event
cluster simulation and prints its operational report; ``monitor``
streams a log (or a live simulation) through the online estimators of
:mod:`repro.stream`, printing rolling metrics, alerts, and — for
replays — an online-vs-batch parity check; ``serve`` runs the
:mod:`repro.serve` analytics service (HTTP/JSON over asyncio, with
result caching, request coalescing, and backpressure — see
docs/SERVING.md); ``store`` manages a persistent columnar event store
with incrementally materialized analytics (``init``/``append``/
``info``/``compact``/``query --as-of`` — see docs/STORAGE.md);
``trace`` records a simulation run as a replayable JSONL trace,
replays one bit-exactly (exit 1 with a first-divergence diagnosis if
it does not reproduce), and re-runs a recorded failure history under
counterfactual repair/checkpoint policies (see docs/REPLAY.md);
``train`` models gang-scheduled LLM training jobs — a single
simulated run or Monte-Carlo ensemble of ETTF/goodput outcomes on one
machine, and the cross-machine comparative study generalizing the
paper's performance-error proportionality (see docs/TRAINING.md).

``--lenient`` (on ``analyze`` and ``monitor``) quarantines malformed
log rows instead of aborting and prints the quarantine summary.  Exit
codes: 0 success, 1 domain error, 2 usage/environment error, 130
interrupted (see docs/ROBUSTNESS.md).
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from datetime import datetime
from pathlib import Path

from repro.core import metrics
from repro.core.breakdown import category_breakdown
from repro.core.report import full_report
from repro.errors import ReproError
from repro.io import KNOWN_FORMATS, read_log, sniff_format, write_log
from repro.machines.specs import known_machines
from repro.sim import ClusterSimulator, RepairPolicy
from repro.synth import GeneratorConfig, TraceGenerator, profile_for

__all__ = [
    "main",
    "build_parser",
    "EXIT_OK",
    "EXIT_ERROR",
    "EXIT_USAGE",
    "EXIT_INTERRUPT",
]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-failures",
        description="Failure/repair analysis toolkit for multi-GPU "
                    "supercomputers (DSN 2021 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser(
        "generate", help="generate a calibrated synthetic failure log"
    )
    generate.add_argument(
        "--machine", choices=known_machines(), required=True
    )
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--failures", type=int, default=None,
                          help="override the log size")
    generate.add_argument("--out", type=Path, required=True,
                          help="output path (.csv or .jsonl)")

    analyze = sub.add_parser(
        "analyze", help="print headline metrics of a log file"
    )
    analyze.add_argument("path", type=Path)
    analyze.add_argument(
        "--format", choices=KNOWN_FORMATS, default=None,
        help="input format (default: inferred from the file extension)",
    )
    analyze.add_argument(
        "--lenient", action="store_true",
        help="quarantine malformed rows instead of aborting, and "
             "print the quarantine summary",
    )

    report = sub.add_parser(
        "report", help="regenerate every table and figure"
    )
    report.add_argument("--seed", type=int, default=42)
    report.add_argument("--out", type=Path, default=None,
                        help="write the report here instead of stdout")

    simulate = sub.add_parser(
        "simulate", help="run the failure/repair cluster simulation"
    )
    simulate.add_argument(
        "--machine", choices=known_machines(), required=True
    )
    simulate.add_argument("--horizon", type=float, default=2000.0,
                          help="simulated hours")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--technicians", type=int, default=4)
    simulate.add_argument("--lead-time", type=float, default=168.0,
                          help="spare procurement lead time in hours")
    simulate.add_argument(
        "--replications", type=int, default=1,
        help="run a Monte-Carlo ensemble of this many seeded "
             "replications (1 = single run, the default)",
    )
    simulate.add_argument(
        "--ci", type=float, default=0.95,
        help="confidence level of the ensemble percentile intervals",
    )
    simulate.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for the ensemble (default: "
             "REPRO_WORKERS if set, else the schedulable CPU count; "
             "results are identical at any worker count)",
    )

    compare = sub.add_parser(
        "compare", help="cross-generation comparison of two log files"
    )
    compare.add_argument("older", type=Path,
                         help="older machine's log (.csv or .jsonl)")
    compare.add_argument("newer", type=Path,
                         help="newer machine's log (.csv or .jsonl)")

    fit = sub.add_parser(
        "fit", help="fit TBF/TTR distributions of a log file"
    )
    fit.add_argument("path", type=Path)

    spares = sub.add_parser(
        "spares", help="size a spare-part inventory from a log file"
    )
    spares.add_argument("path", type=Path)
    spares.add_argument("--lead-time", type=float, default=168.0)
    spares.add_argument("--stockout", type=float, default=0.05,
                        help="target stockout probability")

    trends = sub.add_parser(
        "trends", help="reliability-growth and windowed trends of a log"
    )
    trends.add_argument("path", type=Path)
    trends.add_argument("--window", type=float, default=720.0,
                        help="window length in hours (default 30 days)")

    monitor = sub.add_parser(
        "monitor",
        help="stream a log (or live simulation) through the online "
             "failure monitor",
    )
    monitor.add_argument(
        "path", type=Path, nargs="?", default=None,
        help="log file to replay (.csv or .jsonl); omit with --live",
    )
    monitor.add_argument(
        "--format", choices=KNOWN_FORMATS, default=None,
        help="input format (default: inferred from the file extension)",
    )
    monitor.add_argument(
        "--live", action="store_true",
        help="drive a live simulation instead of replaying a file",
    )
    monitor.add_argument(
        "--trace", action="store_true",
        help="treat the path as a recorded simulation trace "
             "(repro-failures trace record) instead of a log file",
    )
    monitor.add_argument(
        "--machine", choices=known_machines(), default=None,
        help="machine to simulate (required with --live)",
    )
    monitor.add_argument("--horizon", type=float, default=5000.0,
                         help="simulated hours for --live")
    monitor.add_argument("--seed", type=int, default=0)
    monitor.add_argument("--window", type=float, default=720.0,
                         help="rolling-window length in hours")
    monitor.add_argument(
        "--report-every", type=int, default=0, metavar="N",
        help="print a rolling snapshot every N failures (0 = only "
             "the final snapshot)",
    )
    monitor.add_argument(
        "--no-parity", action="store_true",
        help="skip the online-vs-batch parity check on replays",
    )
    monitor.add_argument(
        "--lenient", action="store_true",
        help="quarantine malformed log rows instead of aborting, and "
             "print the quarantine summary",
    )
    monitor.add_argument(
        "--quiet-alerts", action="store_true",
        help="do not print alerts as they fire",
    )

    serve = sub.add_parser(
        "serve",
        help="run the HTTP analytics service (see docs/SERVING.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port (0 picks an ephemeral port)")
    serve.add_argument(
        "--datasets",
        default="t2=synth:tsubame2:42,t3=synth:tsubame3:42",
        help="comma-separated NAME=PATH, "
             "NAME=synth:MACHINE[:SEED[:FAILURES]], or "
             "NAME=store:PATH specs "
             "(empty string starts with no datasets)",
    )
    serve.add_argument(
        "--workers", type=int, default=None,
        help="worker threads/processes for CPU-bound requests "
             "(default: REPRO_WORKERS if set, else the schedulable "
             "CPU count)",
    )
    serve.add_argument("--cache-size", type=int, default=256,
                       help="result-cache capacity in entries")
    serve.add_argument(
        "--cache-ttl", type=float, default=300.0,
        help="result-cache TTL in seconds (0 = no expiry)",
    )
    serve.add_argument("--max-inflight", type=int, default=8,
                       help="concurrent backend executions")
    serve.add_argument(
        "--max-queue", type=int, default=32,
        help="requests queued beyond --max-inflight before shedding",
    )
    serve.add_argument(
        "--rate-limit", type=float, default=None, metavar="RPS",
        help="per-client requests/second budget (default: unlimited)",
    )
    serve.add_argument("--burst", type=float, default=20.0,
                       help="token-bucket depth for --rate-limit")

    store = sub.add_parser(
        "store",
        help="manage a persistent columnar event store "
             "(see docs/STORAGE.md)",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)

    store_init = store_sub.add_parser(
        "init", help="create an empty store directory"
    )
    store_init.add_argument("path", type=Path)
    store_init.add_argument(
        "--machine", choices=known_machines(), required=True
    )
    store_init.add_argument(
        "--lenient", action="store_true",
        help="accept categories outside the paper taxonomy",
    )

    store_append = store_sub.add_parser(
        "append", help="append a log file's events to a store"
    )
    store_append.add_argument("path", type=Path)
    store_append.add_argument("log", type=Path,
                              help="log file to append (.csv or .jsonl)")
    store_append.add_argument(
        "--format", choices=KNOWN_FORMATS, default=None,
        help="input format (default: inferred from the file extension)",
    )
    store_append.add_argument(
        "--reindex", action="store_true",
        help="renumber the batch's record ids after the store's "
             "committed ids instead of rejecting collisions",
    )

    store_info = store_sub.add_parser(
        "info", help="print a store's identity, lineage, and health"
    )
    store_info.add_argument("path", type=Path)

    store_compact = store_sub.add_parser(
        "compact", help="merge a store's segments into one"
    )
    store_compact.add_argument("path", type=Path)

    store_query = store_sub.add_parser(
        "query",
        help="print headline metrics from the materialized views",
    )
    store_query.add_argument("path", type=Path)
    store_query.add_argument(
        "--as-of", type=datetime.fromisoformat, default=None,
        metavar="ISO8601",
        help="query the store's state as of this event time "
             "(time travel)",
    )

    trace = sub.add_parser(
        "trace",
        help="record, replay, and counterfactually re-run simulation "
             "traces (see docs/REPLAY.md)",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    trace_record = trace_sub.add_parser(
        "record", help="run a simulation and record it as a trace"
    )
    trace_record.add_argument(
        "--machine", choices=known_machines(), required=True
    )
    trace_record.add_argument("--horizon", type=float, default=2000.0,
                              help="simulated hours")
    trace_record.add_argument("--seed", type=int, default=0)
    trace_record.add_argument("--technicians", type=int, default=4)
    trace_record.add_argument(
        "--lead-time", type=float, default=168.0,
        help="spare procurement lead time in hours",
    )
    trace_record.add_argument(
        "--intensity", type=float, default=1.0,
        help="failure-rate multiplier",
    )
    trace_record.add_argument(
        "--health-tests", type=float, default=0.0, metavar="P",
        help="probability a multi-GPU failure is contained to one GPU",
    )
    trace_record.add_argument(
        "--workload", action="store_true",
        help="run the batch scheduler under a default synthetic "
             "workload",
    )
    trace_record.add_argument(
        "--checkpoint-interval", type=float, default=None, metavar="H",
        help="checkpoint interval in hours (enables checkpointing; "
             "requires --workload)",
    )
    trace_record.add_argument(
        "--checkpoint-cost", type=float, default=0.2, metavar="H",
        help="cost of one checkpoint in hours",
    )
    trace_record.add_argument("--out", type=Path, required=True,
                              help="trace output path (.jsonl)")

    trace_replay = trace_sub.add_parser(
        "replay",
        help="re-execute a trace and verify it reproduces bit-exactly",
    )
    trace_replay.add_argument("path", type=Path)
    trace_replay.add_argument(
        "--to-store", type=Path, default=None, metavar="STORE",
        help="persist the replayed failure history to this event "
             "store (created if missing)",
    )

    trace_whatif = trace_sub.add_parser(
        "whatif",
        help="replay a recorded failure history under different "
             "operational policies and diff the outcomes",
    )
    trace_whatif.add_argument("path", type=Path)
    trace_whatif.add_argument(
        "--technicians", type=int, default=None,
        help="override the number of concurrent repairs",
    )
    trace_whatif.add_argument(
        "--lead-time", type=float, default=None,
        help="override the spare procurement lead time in hours",
    )
    trace_whatif.add_argument(
        "--spares", default=None, metavar="CAT=N[,CAT=N...]",
        help="override the starting spare inventory",
    )
    trace_whatif.add_argument(
        "--checkpoint-interval", type=float, default=None, metavar="H",
        help="override the checkpoint interval in hours",
    )
    trace_whatif.add_argument(
        "--backfill-depth", type=int, default=None,
        help="override the scheduler's backfill depth",
    )
    trace_whatif.add_argument(
        "--all-fields", action="store_true",
        help="print unchanged outcome fields too",
    )
    trace_whatif.add_argument(
        "--json", action="store_true",
        help="emit the diff as JSON instead of text",
    )

    trace_info = trace_sub.add_parser(
        "info", help="summarize a trace file"
    )
    trace_info.add_argument("path", type=Path)
    trace_info.add_argument(
        "--lenient", action="store_true",
        help="quarantine malformed trace lines instead of aborting, "
             "and print the quarantine summary",
    )

    train = sub.add_parser(
        "train",
        help="gang-scheduled LLM training reliability: per-machine "
             "ETTF ensembles and the cross-machine study "
             "(see docs/TRAINING.md)",
    )
    train_sub = train.add_subparsers(dest="train_command", required=True)

    train_simulate = train_sub.add_parser(
        "simulate",
        help="simulate a gang-scheduled training job on one machine",
    )
    train_simulate.add_argument(
        "--machine", choices=known_machines(), required=True
    )
    train_simulate.add_argument(
        "--nodes", type=int, default=64,
        help="gang size in nodes (clamped to the fleet)",
    )
    train_simulate.add_argument(
        "--step-hours", type=float, default=0.01, metavar="H",
        help="duration of one synchronous training step",
    )
    train_simulate.add_argument(
        "--detection-delay", type=float, default=0.05, metavar="H",
        help="hours between a member failure and the restart attempt",
    )
    train_simulate.add_argument(
        "--total-work", type=float, default=None, metavar="H",
        help="total useful work the job needs; default runs "
             "open-ended to the horizon",
    )
    train_simulate.add_argument("--horizon", type=float, default=720.0,
                                help="simulated hours")
    train_simulate.add_argument("--seed", type=int, default=0)
    train_simulate.add_argument(
        "--intensity", type=float, default=1.0,
        help="failure-rate multiplier",
    )
    train_simulate.add_argument(
        "--checkpoint-interval", type=float, default=None, metavar="H",
        help="checkpoint interval in hours; default is the "
             "Young/Daly optimum for the gang's MTBF",
    )
    train_simulate.add_argument(
        "--checkpoint-cost", type=float, default=0.25, metavar="H",
        help="cost of one checkpoint in hours",
    )
    train_simulate.add_argument(
        "--restart-cost", type=float, default=0.5, metavar="H",
        help="hours to reload the last checkpoint on restart",
    )
    train_simulate.add_argument(
        "--replications", type=int, default=1,
        help="Monte-Carlo ensemble size (1 = single run)",
    )
    train_simulate.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for the ensemble (default: auto)",
    )
    train_simulate.add_argument(
        "--record", type=Path, default=None, metavar="PATH",
        help="record the (single) run as a replayable trace",
    )
    train_simulate.add_argument(
        "--json", action="store_true",
        help="emit the result as JSON instead of text",
    )

    train_compare = train_sub.add_parser(
        "compare",
        help="cross-machine training study: synth -> sim -> analyze, "
             "generalizing the paper's performance-error "
             "proportionality",
    )
    train_compare.add_argument(
        "--machines", default=",".join(known_machines()),
        metavar="M[,M...]",
        help="comma-separated machine names (default: all registered)",
    )
    train_compare.add_argument(
        "--nodes", type=int, default=64,
        help="gang size in nodes (clamped per machine)",
    )
    train_compare.add_argument("--horizon", type=float, default=720.0,
                               help="simulated hours per replication")
    train_compare.add_argument(
        "--replications", type=int, default=8,
        help="Monte-Carlo replications per machine",
    )
    train_compare.add_argument("--seed", type=int, default=0)
    train_compare.add_argument(
        "--checkpoint-cost", type=float, default=0.25, metavar="H",
        help="cost of one checkpoint in hours",
    )
    train_compare.add_argument(
        "--workers", type=int, default=None,
        help="worker processes per ensemble (default: auto)",
    )
    train_compare.add_argument(
        "--json", action="store_true",
        help="emit the study as JSON instead of a table",
    )
    return parser


def _read_log(path: Path, format: str | None = None):
    return read_log(path, format=format)


def _cmd_generate(args: argparse.Namespace) -> int:
    profile = profile_for(args.machine)
    config = GeneratorConfig(seed=args.seed, num_failures=args.failures)
    log = TraceGenerator(profile, config).generate()
    write_log(log, args.out, format=sniff_format(args.out) or "csv")
    print(f"wrote {len(log)} failures for {args.machine} to {args.out}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.lenient:
        report = read_log(
            args.path, format=args.format, on_error="collect"
        )
        for line in report.summary_lines():
            print(line)
        log = report.log
    else:
        log = _read_log(args.path, format=args.format)
    breakdown = category_breakdown(log)
    print(f"machine:          {log.machine}")
    print(f"failures:         {len(log)}")
    print(f"window:           {log.window_start} .. {log.window_end}")
    print(f"MTBF:             {metrics.mtbf(log):.1f} h")
    print(f"MTTR:             {metrics.mttr(log):.1f} h")
    print(f"dominant:         {breakdown.dominant_category} "
          f"({100 * breakdown.shares[0].share:.1f}%)")
    print("top categories:")
    for entry in breakdown.top(5):
        print(f"  {entry.category:<16} {entry.count:>5} "
              f"({100 * entry.share:.2f}%)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.synth import generate_log

    t2 = generate_log("tsubame2", seed=args.seed)
    t3 = generate_log("tsubame3", seed=args.seed)
    text = full_report(t2, t3)
    if args.out is not None:
        args.out.write_text(text + "\n")
        print(f"wrote report to {args.out}")
    else:
        print(text)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.replications > 1:
        from repro.parallel import default_processes
        from repro.sim.montecarlo import run_replications

        workers = (
            args.workers if args.workers is not None
            else default_processes()
        )
        ensemble = run_replications(
            args.machine,
            replications=args.replications,
            horizon_hours=args.horizon,
            seed=args.seed,
            ci=args.ci,
            max_workers=workers,
            num_technicians=args.technicians,
            spare_lead_time_hours=args.lead_time,
        )
        print(ensemble.summary())
        return 0
    simulator = ClusterSimulator(
        args.machine,
        repair_policy=RepairPolicy(
            num_technicians=args.technicians,
            spare_lead_time_hours=args.lead_time,
        ),
        seed=args.seed,
    )
    report = simulator.run(args.horizon)
    print(f"machine:            {report.machine}")
    print(f"horizon:            {report.horizon_hours:.0f} h")
    print(f"failures injected:  {report.failures_injected}")
    print(f"repairs completed:  {report.repairs_completed}")
    print(f"effective MTTR:     {report.effective_mttr_hours:.1f} h")
    print(f"  waiting share:    {100 * report.waiting_share_of_mttr:.1f}%")
    print(f"availability:       {100 * report.availability:.3f}%")
    print(f"spare stockouts:    {report.spare_stockouts}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.core.compare import compare_generations

    older = _read_log(args.older)
    newer = _read_log(args.newer)
    comparison = compare_generations(older, newer)
    for line in comparison.summary_lines():
        print(line)
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    from repro.core.metrics import tbf_series_hours, ttr_series_hours
    from repro.stats.fitting import fit_best

    log = _read_log(args.path)
    tbf = fit_best([gap for gap in tbf_series_hours(log) if gap > 0])
    ttr = fit_best([t for t in ttr_series_hours(log) if t > 0])
    for label, fit in (("TBF", tbf), ("TTR", ttr)):
        shape = fit.shape_parameter()
        shape_text = f", shape {shape:.3f}" if shape is not None else ""
        print(f"{label}: {fit.name}{shape_text}, mean "
              f"{fit.mean():.1f} h, KS {fit.ks_statistic:.3f} "
              f"(p={fit.ks_pvalue:.3f}, n={fit.n})")
    return 0


def _cmd_spares(args: argparse.Namespace) -> int:
    from repro.predict.provisioning import plan_spares

    log = _read_log(args.path)
    plan = plan_spares(
        log,
        lead_time_hours=args.lead_time,
        target_stockout_probability=args.stockout,
    )
    print(f"machine: {plan.machine}; lead time "
          f"{plan.lead_time_hours:.0f} h; target stockout "
          f"{100 * plan.target_stockout_probability:.1f}%")
    for entry in plan.entries:
        print(f"  {entry.category:<16} stock {entry.recommended_stock:>3} "
              f"(demand {entry.lead_time_demand:.2f}, "
              f"P(stockout) {100 * entry.stockout_probability:.2f}%)")
    print(f"total spares: {plan.total_stock}")
    return 0


def _cmd_trends(args: argparse.Namespace) -> int:
    from repro.core.trends import crow_amsaa_fit, windowed_mtbf, windowed_mttr

    log = _read_log(args.path)
    growth = crow_amsaa_fit(log)
    direction = "improving" if growth.is_improving else "deteriorating"
    print(f"Crow-AMSAA: beta {growth.beta:.3f} ({direction}), "
          f"lambda {growth.lam:.4g}, n={growth.n}")
    print(f"{'window (h)':<22} {'failures':>8} {'MTBF (h)':>10} "
          f"{'MTTR (h)':>10}")
    mtbf_points = windowed_mtbf(log, args.window)
    mttr_points = windowed_mttr(log, args.window)
    for mtbf_point, mttr_point in zip(mtbf_points, mttr_points):
        window = (f"{mtbf_point.window_start_hours:.0f}-"
                  f"{mtbf_point.window_end_hours:.0f}")
        mttr_text = (
            f"{mttr_point.value_hours:>10.1f}"
            if mttr_point.num_failures else f"{'-':>10}"
        )
        print(f"{window:<22} {mtbf_point.num_failures:>8} "
              f"{mtbf_point.value_hours:>10.1f} {mttr_text}")
    return 0


def _parity_lines(monitor, log) -> list[str]:
    """Online-vs-batch comparison for a replayed log."""
    from repro.core.metrics import (
        mtbf,
        mtbf_span,
        mttr,
        tbf_series_hours,
    )

    snapshot = monitor.snapshot()
    lines = ["parity check (online vs batch):"]

    def relative(online: float | None, batch: float) -> str:
        if online is None or batch == 0:
            return "-"
        return f"{100.0 * (online - batch) / batch:+.3f}%"

    pairs = [
        ("MTBF (gap mean)", snapshot.mtbf_hours, mtbf(log)),
        ("MTBF (span)", snapshot.mtbf_span_hours, mtbf_span(log)),
        ("MTTR", snapshot.mttr_hours, mttr(log)),
    ]
    for label, online, batch in pairs:
        online_text = f"{online:10.3f}" if online is not None else "-"
        lines.append(
            f"  {label:<16} {online_text} vs {batch:10.3f} h  "
            f"({relative(online, batch)})"
        )
    import bisect
    import math

    gaps = sorted(tbf_series_hours(log))
    epsilon = monitor.sketch_epsilon
    for q in (0.5, 0.99):
        estimate = monitor.tbf_quantile(q)
        if estimate is None:
            continue
        # The sketch targets rank ceil(q*n); the estimate's occurrences
        # span 1-based ranks lo+1 .. hi in the sorted batch series.
        target_rank = max(1, math.ceil(q * len(gaps)))
        lo = bisect.bisect_left(gaps, estimate)
        hi = bisect.bisect_right(gaps, estimate)
        if lo + 1 <= target_rank <= hi:
            rank_error = 0
        else:
            rank_error = min(
                abs(target_rank - (lo + 1)), abs(target_rank - hi)
            )
        lines.append(
            f"  TBF p{int(q * 100):<14} {estimate:10.3f} h  "
            f"(rank error {rank_error} <= "
            f"{epsilon * len(gaps):.1f} allowed)"
        )
    return lines


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.stream import FailureMonitor, FileSource, PrintSink

    if args.live == (args.path is not None):
        print(
            "error: pass a log file to replay, or --live with "
            "--machine (not both)",
            file=sys.stderr,
        )
        return 2

    sinks = [] if args.quiet_alerts else [PrintSink()]
    monitor = FailureMonitor(window_hours=args.window, sinks=sinks)

    if args.live:
        if args.machine is None:
            print("error: --live requires --machine", file=sys.stderr)
            return 2
        simulator = ClusterSimulator(args.machine, seed=args.seed)
        monitor.attach(simulator.engine)
        report = simulator.run(args.horizon)
        monitor.finalize(args.horizon)
        print(f"live simulation: {args.machine}, "
              f"{report.horizon_hours:.0f} h horizon, "
              f"{report.failures_injected} failures injected")
        for line in monitor.snapshot().format_lines():
            print(line)
        return 0

    if args.trace:
        from repro.stream import TraceSource

        source = TraceSource(
            args.path,
            include_repairs=True,
            on_error="quarantine" if args.lenient else "raise",
        )
        if source.quarantined:
            print(f"quarantined {len(source.quarantined)} malformed "
                  f"trace lines")
    else:
        source = FileSource(
            args.path,
            format=args.format,
            on_error="collect" if args.lenient else "raise",
        )
        if source.read_report is not None:
            for line in source.read_report.summary_lines():
                print(line)
    every = args.report_every
    for event in source:
        monitor.observe(event)
        if every and event.is_failure and (
            monitor.failures_seen % every == 0
        ):
            for line in monitor.snapshot().format_lines():
                print(line)
    monitor.finalize(source.span_hours)
    print(f"replayed {source.path} ({source.machine}, "
          f"{monitor.failures_seen} failures)")
    for line in monitor.snapshot().format_lines():
        print(line)
    # Parity needs the batch log; a trace replay has only events.
    if not args.no_parity and not args.trace:
        for line in _parity_lines(monitor, source.log):
            print(line)
    return 0


async def _serve_async(args: argparse.Namespace) -> int:
    """Run the service until stopped; 130 on SIGINT/SIGTERM."""
    import signal

    from repro.serve import (
        DatasetRegistry,
        ReproApp,
        ReproServer,
        register_from_spec,
    )

    registry = DatasetRegistry()
    for spec in filter(None, args.datasets.split(",")):
        dataset = register_from_spec(registry, spec.strip())
        print(f"registered dataset {dataset.name!r}: "
              f"{dataset.source} "
              f"({dataset.describe()['failures']} failures)")

    app = ReproApp(
        registry,
        workers=args.workers,
        cache_size=args.cache_size,
        cache_ttl_seconds=args.cache_ttl or None,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        rate_per_second=args.rate_limit,
        burst=args.burst,
    )
    server = ReproServer(app, host=args.host, port=args.port)
    await server.start()
    print(f"serving on http://{args.host}:{server.port} "
          f"(Ctrl-C to stop)", flush=True)

    loop = asyncio.get_running_loop()
    interrupted = asyncio.Event()
    installed: list[signal.Signals] = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, interrupted.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):
            pass
    try:
        waiters = [
            asyncio.ensure_future(interrupted.wait()),
            asyncio.ensure_future(server.wait_stopped()),
        ]
        done, pending = await asyncio.wait(
            waiters, return_when=asyncio.FIRST_COMPLETED
        )
        for task in pending:
            task.cancel()
        if interrupted.is_set():
            print("shutting down (draining in-flight requests)...",
                  flush=True)
            await server.stop()
            return EXIT_INTERRUPT
        return EXIT_OK
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)


def _cmd_serve(args: argparse.Namespace) -> int:
    return asyncio.run(_serve_async(args))


def _store_info_lines(store) -> list[str]:
    # From the handle and its manifest alone: O(1) in the store's size.
    manifest = store.manifest
    lines = [
        f"machine:          {store.machine}",
        f"rows:             {store.rows}",
        f"segments:         {len(store.segments)} "
        f"(generation {manifest['generation']}, "
        f"{len(manifest['appends'])} appends)",
        f"schema version:   {manifest['schema_version']}",
        f"strict taxonomy:  {store.strict_taxonomy}",
        f"fingerprint:      {store.fingerprint}",
    ]
    if store.window is not None:
        start, end = store.window
        lines.append(f"window:           {start.isoformat()} .. "
                     f"{end.isoformat()}")
    if store.watermark is not None and store.as_of is None:
        lines.append(f"watermark:        {store.watermark.isoformat()}")
    if store.as_of is not None:
        lines.append(f"as of:            {store.as_of.isoformat()}")
    if store.recovered:
        lines.append("recovered:        yes (a torn tail was dropped)")
    if store.quarantined:
        lines.append("quarantined:      " + ", ".join(store.quarantined))
    return lines


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.store import init_store, open_store

    if args.store_command == "init":
        store = init_store(
            args.path, args.machine,
            strict_taxonomy=not args.lenient,
        )
        print(f"initialized {args.machine} store at {args.path}")
        del store
        return 0

    if args.store_command == "append":
        log = _read_log(args.log, format=args.format)
        store = open_store(args.path)
        summary = store.append(log, reindex=args.reindex)
        print(f"appended {summary['rows']} failures to {args.path} "
              f"({summary['rows_total']} total, "
              f"segment {summary['segment']})")
        return 0

    if args.store_command == "info":
        for line in _store_info_lines(open_store(args.path)):
            print(line)
        return 0

    if args.store_command == "compact":
        summary = open_store(args.path).compact()
        if not summary["compacted"]:
            print(f"nothing to compact: {summary['reason']}")
            return 0
        print(f"compacted {summary['segments']} segments into "
              f"{summary['segment']} "
              f"(generation {summary['generation']}, "
              f"{summary['rows']} rows)")
        return 0

    # query: headline metrics straight from the materialized views —
    # O(1) in the store's size for a full handle.
    store = open_store(args.path, as_of=args.as_of)
    payloads = store.payloads()
    when = "latest" if store.as_of is None else store.as_of.isoformat()
    print(f"machine:          {store.machine}")
    print(f"state:            {when} ({store.rows} failures)")
    window = store.window
    if window is not None:
        start, end = window
        print(f"window:           {start.isoformat()} .. "
              f"{end.isoformat()}")
    metrics_payload = payloads.get("metrics")
    if metrics_payload is not None:
        print(f"MTBF:             {metrics_payload['mtbf_hours']:.1f} h")
        print(f"MTTR:             {metrics_payload['mttr_hours']:.1f} h")
        print(f"availability:     "
              f"{100 * metrics_payload['availability']:.3f}%")
    breakdown_payload = payloads.get("breakdown")
    if breakdown_payload is not None:
        print(f"dominant:         "
              f"{breakdown_payload['dominant_category']}")
        print("top categories:")
        for entry in breakdown_payload["categories"][:5]:
            print(f"  {entry['category']:<16} {entry['count']:>5} "
                  f"({100 * entry['share']:.2f}%)")
    return 0


def _parse_spares(text: str) -> dict[str, int]:
    from repro.errors import ValidationError

    spares: dict[str, int] = {}
    for item in filter(None, text.split(",")):
        name, _, count = item.partition("=")
        if not name or not count:
            raise ValidationError(
                f"--spares entries must be CAT=N, got {item!r}"
            )
        try:
            spares[name.strip()] = int(count)
        except ValueError:
            raise ValidationError(
                f"--spares count for {name.strip()!r} must be an "
                f"integer, got {count!r}"
            ) from None
    return spares


def _trace_report_lines(report: dict) -> list[str]:
    lines = [
        f"failures injected:  {report['failures_injected']}",
        f"repairs completed:  {report['repairs_completed']}",
        f"effective MTTR:     {report['effective_mttr_hours']:.1f} h",
        f"availability:       {100 * report['availability']:.3f}%",
        f"spare stockouts:    {report['spare_stockouts']}",
    ]
    scheduler = report.get("scheduler")
    if scheduler is not None:
        lines.append(
            f"jobs:               {scheduler['jobs_completed']}"
            f"/{scheduler['jobs_submitted']} completed, "
            f"{scheduler['jobs_killed_by_failures']} killed"
        )
    return lines


def _cmd_trace(args: argparse.Namespace) -> int:
    import json as _json

    from repro.trace import (
        WhatIf,
        read_trace,
        record_run,
        replay,
        report_to_dict,
        run_whatif,
        write_trace,
    )

    if args.trace_command == "record":
        from repro.errors import ValidationError
        from repro.sim import CheckpointPolicy, WorkloadConfig

        checkpoint = None
        if args.checkpoint_interval is not None:
            if not args.workload:
                raise ValidationError(
                    "--checkpoint-interval requires --workload"
                )
            checkpoint = CheckpointPolicy(
                interval_hours=args.checkpoint_interval,
                cost_hours=args.checkpoint_cost,
            )
        simulator = ClusterSimulator(
            args.machine,
            repair_policy=RepairPolicy(
                num_technicians=args.technicians,
                spare_lead_time_hours=args.lead_time,
            ),
            seed=args.seed,
            intensity=args.intensity,
            health_test_effectiveness=args.health_tests,
            workload=WorkloadConfig() if args.workload else None,
            checkpoint_policy=checkpoint,
        )
        report, trace = record_run(simulator, args.horizon)
        write_trace(trace, args.out)
        print(f"recorded {args.machine} x {args.horizon:.0f} h to "
              f"{args.out} ({trace.event_count} events, "
              f"{report.failures_injected} failures)")
        return 0

    if args.trace_command == "replay":
        trace, _ = read_trace(args.path)
        result = replay(trace)  # raises ReplayDivergenceError on drift
        report = report_to_dict(result.report)
        print(f"replayed {args.path} bit-exactly "
              f"({result.trace.event_count} events)")
        for line in _trace_report_lines(report):
            print(line)
        if args.to_store is not None:
            summary = result.simulator.to_store(args.to_store)
            print(f"stored {summary['rows']} failures in "
                  f"{args.to_store} ({summary['rows_total']} total)")
        return 0

    if args.trace_command == "whatif":
        trace, _ = read_trace(args.path)
        overrides = WhatIf(
            num_technicians=args.technicians,
            spare_lead_time_hours=args.lead_time,
            initial_spares=(
                _parse_spares(args.spares)
                if args.spares is not None
                else None
            ),
            checkpoint_interval_hours=args.checkpoint_interval,
            backfill_depth=args.backfill_depth,
        )
        result = run_whatif(trace, overrides)
        if args.json:
            print(_json.dumps(result.diff.to_dict(), indent=2,
                              sort_keys=True))
        else:
            print(f"counterfactual replay of {args.path}:")
            print(result.diff.format_text(
                changed_only=not args.all_fields
            ))
        return 0

    # info
    trace, quarantined = read_trace(
        args.path, on_error="quarantine" if args.lenient else "raise"
    )
    config = trace.config
    counts: dict[str, int] = {}
    for row in trace.event_rows():
        counts[row[0]] = counts.get(row[0], 0) + 1
    print(f"machine:            {config.machine}")
    print(f"horizon:            {trace.horizon_hours:.0f} h")
    print(f"seed:               {config.seed}")
    if counts:
        breakdown = ", ".join(
            f"{kind}={counts[kind]}" for kind in sorted(counts)
        )
        print(f"events:             {trace.event_count} ({breakdown})")
    else:
        print("events:             0")
    print(f"workload:           "
          f"{'yes' if config.workload is not None else 'no'}")
    print(f"checkpointing:      "
          f"{'yes' if config.checkpoint_policy is not None else 'no'}")
    if config.train is not None:
        print(f"training gang:      {config.train.num_nodes} nodes")
    if trace.report is not None:
        for line in _trace_report_lines(trace.report):
            print(line)
    if quarantined:
        print(f"quarantined lines:  {len(quarantined)}")
        for entry in quarantined[:5]:
            print(f"  line {entry.line_number}: {entry.reason}")
    return 0


def _train_stats_lines(stats) -> list[str]:
    """Single-run TrainStats rendered for the terminal."""
    lines = [
        f"gang nodes:         {stats.job_nodes}",
        f"ETTR:               {stats.ettr:.4f}",
        f"work committed:     {stats.work_committed_hours:.2f} h "
        f"({stats.steps_committed} steps)",
        f"interrupts:         {stats.interrupts} "
        f"({stats.interrupts_per_day:.3f}/day)",
        f"restarts:           {stats.restarts}",
        f"lost work:          {stats.lost_work_hours:.2f} h",
        f"stall:              {stats.stall_hours:.2f} h",
        f"restart overhead:   {stats.restart_overhead_hours:.2f} h",
        f"checkpoint cost:    {stats.checkpoint_overhead_hours:.2f} h",
        f"blast radius:       {stats.blast_radius_node_hours:.1f} "
        f"node-hours",
    ]
    if stats.completed:
        lines.append(
            f"completed at:       {stats.completed_at_hours:.2f} h"
        )
    if stats.lost_work_by_category:
        lines.append("lost work by category:")
        ranked = sorted(
            stats.lost_work_by_category.items(),
            key=lambda item: (-item[1], item[0]),
        )
        lines.extend(
            f"  {category:<16} {hours:>8.2f} h"
            for category, hours in ranked[:8]
        )
    return lines


def _cmd_train(args: argparse.Namespace) -> int:
    import json as _json

    from repro.errors import ValidationError
    from repro.machines.specs import get_machine
    from repro.sim import CheckpointPolicy, young_daly_policy
    from repro.train import (
        TrainingJobConfig,
        compare_training,
        run_train_replications,
        train_ensemble_payload,
    )

    if args.train_command == "compare":
        machines = tuple(
            name.strip()
            for name in args.machines.split(",")
            if name.strip()
        )
        comparison = compare_training(
            machines,
            gang_nodes=args.nodes,
            horizon_hours=args.horizon,
            replications=args.replications,
            seed=args.seed,
            checkpoint_cost_hours=args.checkpoint_cost,
            max_workers=args.workers,
        )
        if args.json:
            print(_json.dumps(comparison.to_dict(), indent=2,
                              sort_keys=True))
            return 0
        print(comparison.table())
        if "tsubame2" in machines and "tsubame3" in machines:
            ratio = comparison.proportionality_ratio(
                "tsubame3", "tsubame2"
            )
            print(
                f"tsubame3/tsubame2 proportionality: "
                f"goodput x{ratio['goodput_pflops']:.2f}, "
                f"PFLOP-hours/interrupt "
                f"x{ratio['pflop_hours_between_interrupts']:.2f}"
            )
        return 0

    # simulate
    spec = get_machine(args.machine)
    gang = min(args.nodes, spec.num_nodes)
    if args.checkpoint_interval is not None:
        policy = CheckpointPolicy(
            interval_hours=args.checkpoint_interval,
            cost_hours=args.checkpoint_cost,
            restart_cost_hours=args.restart_cost,
        )
    else:
        # Young/Daly at the gang's MTBF, estimated from the machine's
        # reported failure rate thinned by gang / fleet.
        system_mtbf = (
            spec.log_span_hours
            / (spec.reported_failures * args.intensity)
        )
        job_mtbf = system_mtbf * spec.num_nodes / gang
        policy = young_daly_policy(
            args.checkpoint_cost, job_mtbf,
            restart_cost_hours=args.restart_cost,
        )
    train = TrainingJobConfig(
        num_nodes=gang,
        step_time_hours=args.step_hours,
        detection_delay_hours=args.detection_delay,
        total_work_hours=args.total_work,
    )
    if args.record is not None and args.replications != 1:
        raise ValidationError("--record implies --replications 1")
    if args.replications > 1:
        ensemble = run_train_replications(
            args.machine,
            replications=args.replications,
            horizon_hours=args.horizon,
            checkpoint_policy=policy,
            train=train,
            seed=args.seed,
            intensity=args.intensity,
            max_workers=args.workers,
        )
        if args.json:
            print(_json.dumps(train_ensemble_payload(ensemble),
                              indent=2, sort_keys=True))
        else:
            print(ensemble.summary())
        return 0
    simulator = ClusterSimulator(
        args.machine,
        seed=args.seed,
        intensity=args.intensity,
        checkpoint_policy=policy,
        train=train,
    )
    if args.record is not None:
        from repro.trace import record_run, write_trace

        report, trace = record_run(simulator, args.horizon)
        write_trace(trace, args.record)
        print(f"recorded {args.machine} x {args.horizon:.0f} h to "
              f"{args.record} ({trace.event_count} events, "
              f"{report.failures_injected} failures)")
    else:
        report = simulator.run(args.horizon)
    stats = report.train
    if args.json:
        payload = {
            "machine": args.machine,
            "horizon_hours": args.horizon,
            "checkpoint_interval_hours": policy.interval_hours,
            "ettr": stats.ettr,
            "interrupts": stats.interrupts,
            "restarts": stats.restarts,
            "steps_committed": stats.steps_committed,
            "work_committed_hours": stats.work_committed_hours,
            "lost_work_hours": stats.lost_work_hours,
            "lost_work_by_category": stats.lost_work_by_category,
            "stall_hours": stats.stall_hours,
            "restart_overhead_hours": stats.restart_overhead_hours,
            "checkpoint_overhead_hours": (
                stats.checkpoint_overhead_hours
            ),
            "blast_radius_node_hours": stats.blast_radius_node_hours,
            "completed": stats.completed,
            "completed_at_hours": stats.completed_at_hours,
        }
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"machine:            {args.machine}")
    print(f"horizon:            {args.horizon:.0f} h")
    print(f"checkpoint every:   {policy.interval_hours:.2f} h "
          f"(cost {policy.cost_hours:.2f} h, restart "
          f"{policy.restart_cost_hours:.2f} h)")
    for line in _train_stats_lines(stats):
        print(line)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "analyze": _cmd_analyze,
    "report": _cmd_report,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "fit": _cmd_fit,
    "spares": _cmd_spares,
    "trends": _cmd_trends,
    "monitor": _cmd_monitor,
    "serve": _cmd_serve,
    "store": _cmd_store,
    "trace": _cmd_trace,
    "train": _cmd_train,
}


#: Exit codes: 0 ok, 1 domain error (ReproError), 2 usage/environment
#: (unreadable path, permissions, full disk), 130 interrupted
#: (128 + SIGINT, the shell convention).
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_INTERRUPT = 130


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Failures map to clean one-line stderr messages, never raw
    tracebacks: :class:`~repro.errors.ReproError` exits 1,
    environment problems (``OSError``: missing/unreadable paths, full
    disks) exit 2, and Ctrl-C exits 130.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPT


if __name__ == "__main__":
    sys.exit(main())
