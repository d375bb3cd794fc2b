"""Command-line interface: regenerate any paper figure from the terminal.

Usage::

    python -m repro list
    python -m repro run fig12 --out results/
    python -m repro run all --out results/
    python -m repro demo          # the Section V.C running example

Each run prints the experiment's text report (parameter block, result
table, ASCII chart, notes) and, with ``--out``, also writes the CSV and
report artefacts.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Dict, List, Optional

from .experiments import ALL_EXPERIMENTS, _QUICK_OVERRIDES, _engine_kwargs

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_logging_flags(
    parser: argparse.ArgumentParser, *, suppress: bool = False
) -> None:
    """The stderr-logging knobs, on the root parser and every subcommand.

    Subcommand copies use ``SUPPRESS`` defaults so ``dpgreedy --log-level
    info solve ...`` and ``dpgreedy solve ... --log-level info`` both
    work without the subparser's default clobbering the root value.
    """
    kwargs = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        **({"default": argparse.SUPPRESS} if suppress else {"default": None}),
        help=(
            "stderr logging threshold for the repro.* loggers (default: "
            "warning -- retries, timeouts, degradations, stalls, and "
            "chaos injections surface as WARNING records)"
        ),
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        **kwargs,
        help="suppress WARNING logs (errors only); overrides --log-level",
    )


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """The Phase-2 execution-engine knobs shared by run/report/solve."""
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "Phase-2 process-pool width: N >= 2 forks N worker processes, "
            "capped at the number of units to solve (default 1: serial, "
            "in-process)"
        ),
    )
    parser.add_argument(
        "--no-memo",
        action="store_true",
        help="disable the content-addressed solver memo (on by default)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help=(
            "emit the repro.obs cost-attribution metrics (ledger + phase "
            "spans + counters + latency) as a METRICS_*.json artefact"
        ),
    )
    parser.add_argument(
        "--trace",
        dest="trace_out",
        default=None,
        metavar="PATH",
        help=(
            "record the solve pipeline as nested spans and write a Chrome "
            "trace-event JSON to PATH (open in Perfetto/chrome://tracing); "
            "with 'run all' the experiment id is appended to the filename"
        ),
    )
    parser.add_argument(
        "--unit-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-dispatch Phase-2 deadline (a dispatch is one unit, or a "
            "group of units on a pool); an overdue dispatch is abandoned "
            "and retried.  Enforced only on a process pool (--workers 2 "
            "or more); the serial rung warns and runs units to completion"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "re-dispatches of a failed/timed-out Phase-2 dispatch before it "
            "is declared failed (default 0; 2 once any of --unit-timeout/"
            "--retries/--on-unit-error is set, and for --shards)"
        ),
    )
    parser.add_argument(
        "--on-unit-error",
        choices=("raise", "degrade", "skip"),
        default=None,
        help=(
            "what to do when a Phase-2 dispatch exhausts its retries: "
            "'raise' a UnitSolveError/UnitTimeoutError (default), 'degrade' "
            "to one final in-process serial attempt, or 'skip' its units "
            "and count them"
        ),
    )
    parser.add_argument(
        "--prom",
        default=None,
        metavar="PATH",
        help=(
            "write the run's telemetry (latency quantiles, resource "
            "peaks, counters) as Prometheus text format v0.0.4 to PATH "
            "(implies --metrics; with 'run all' the experiment id is "
            "appended to the filename)"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help=(
            "paint a live Phase-2 progress line (done/total, in-flight, "
            "retries, stalls, ETA) on stderr while solving, then print "
            "the telemetry dashboard (latency quantiles + resource peaks)"
        ),
    )
    parser.add_argument(
        "--stall-after",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "flag a dispatched Phase-2 unit as stalled (WARNING log + "
            "engine.stalls counter) once it has been silent this long -- "
            "an early-warning tripwire that fires before any "
            "--unit-timeout abandons the unit"
        ),
    )


def _make_observer(
    *, metrics: bool, trace: bool, progress: bool, stall_after: Optional[float]
):
    """The one :class:`~repro.obs.observer.Observer` the observation
    flags ask for, or ``None`` when none is set: ``--metrics`` keeps
    the cost ledger and (with the runtime leg) the latency/resource
    sections, ``--trace`` keeps span records, and ``--progress`` /
    ``--stall-after`` need the runtime leg."""
    runtime = metrics or progress or stall_after is not None
    if not (runtime or trace):
        return None
    from .obs.observer import Observer

    return Observer(
        spans=trace, runtime=runtime, ledger=metrics, stall_after=stall_after
    )


@contextlib.contextmanager
def _observer_session(observer, progress: bool):
    """Install and start ``observer`` process-wide for the duration.

    Solves that are not handed an ``observer=`` pick it up via
    :func:`repro.obs.observer.active`, which is how the CLI flags reach
    solves buried inside experiment harnesses; with ``progress`` a live
    status line paints on stderr until the session closes.
    """
    if observer is None:
        yield None
        return
    from .obs.observer import install
    from .obs.telemetry import ProgressRenderer

    previous = install(observer)
    observer.start()
    renderer = ProgressRenderer(observer).start() if progress else None
    try:
        yield observer
    finally:
        if renderer is not None:
            renderer.stop()
        observer.stop()
        install(previous)


def _resilience_from_args(args: argparse.Namespace):
    """Build a :class:`ResilienceConfig` when any resilience flag is set.

    Leaving all three flags at their defaults returns ``None``: the
    solver's own default (no retries for ``solve_dp_greedy``).
    """
    if (
        args.unit_timeout is None
        and args.retries is None
        and args.on_unit_error is None
    ):
        return None
    from .engine.resilience import ResilienceConfig

    kwargs: Dict[str, object] = {}
    if args.unit_timeout is not None:
        kwargs["unit_timeout"] = args.unit_timeout
    if args.retries is not None:
        kwargs["retries"] = args.retries
    if args.on_unit_error is not None:
        kwargs["on_unit_error"] = args.on_unit_error
    return ResilienceConfig(**kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpgreedy",
        description=(
            "Reproduction of 'DP_Greedy: A Two-Phase Caching Algorithm for "
            "Mobile Cloud Services' (CLUSTER 2019)"
        ),
    )
    _add_logging_flags(parser)
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument(
        "experiment",
        help="experiment id (see 'list') or 'all'",
    )
    run.add_argument(
        "--out",
        default=None,
        help="directory for CSV/report artefacts (default: print only)",
    )
    run.add_argument(
        "--quick",
        action="store_true",
        help="smaller workloads for a fast smoke run",
    )
    run.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help=(
            "record each completed sweep point to "
            "DIR/CHECKPOINT_<experiment>.jsonl as it finishes (crash-safe; "
            "harnesses without sweep checkpointing ignore it)"
        ),
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help=(
            "skip sweep points already recorded in the checkpoint file "
            "(implies checkpointing; location defaults to --checkpoint, "
            "then --out, then 'results')"
        ),
    )
    _add_engine_flags(run)
    _add_logging_flags(run, suppress=True)

    sub.add_parser("demo", help="run the Section V.C running example")

    rep = sub.add_parser(
        "report", help="run every experiment and write results/REPORT.md"
    )
    rep.add_argument("--out", default="results", help="output directory")
    rep.add_argument("--quick", action="store_true", help="reduced sizes")
    _add_engine_flags(rep)
    _add_logging_flags(rep, suppress=True)

    solve = sub.add_parser(
        "solve",
        help="run every algorithm on a trace CSV (see repro.trace.io format)",
    )
    solve.add_argument(
        "trace",
        help="path to a server,time,items CSV (or, with --store, a "
        "columnar store directory from 'trace convert')",
    )
    solve.add_argument("--theta", type=float, default=0.3)
    solve.add_argument("--alpha", type=float, default=0.8)
    solve.add_argument("--mu", type=float, default=1.0)
    solve.add_argument("--lam", type=float, default=1.0)
    solve.add_argument(
        "--store",
        action="store_true",
        help=(
            "treat TRACE as a memory-mapped columnar store directory "
            "(written by 'trace convert'); requests are served straight "
            "off the mapped columns, never materialised"
        ),
    )
    solve.add_argument(
        "--shards",
        type=_positive_int,
        default=None,
        metavar="K",
        help=(
            "run Phase 2 through the sharded driver: serving units are "
            "grouped into K balanced shards (packages never split) and "
            "each shard dispatches as one unit through the resilient "
            "dispatcher -- bit-identical costs, out-of-core friendly"
        ),
    )
    solve.add_argument(
        "--on-trace-error",
        choices=("raise", "skip"),
        default="raise",
        help=(
            "'raise' (default) aborts on the first malformed trace row; "
            "'skip' drops and counts bad rows (reported, and surfaced as "
            "the trace.rows_skipped metrics counter with --metrics)"
        ),
    )
    solve.add_argument(
        "--prom-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "with --prom, re-write the exposition file every SECONDS "
            "while the solve runs (atomic tmp-then-rename, so scrapers "
            "never see a torn file); the final exposition still lands "
            "on completion"
        ),
    )
    _add_engine_flags(solve)
    _add_logging_flags(solve, suppress=True)

    from .serve.cli import add_loadtest_parser, add_serve_parser

    serve_parser = add_serve_parser(sub)
    _add_logging_flags(serve_parser, suppress=True)
    loadtest_parser = add_loadtest_parser(sub)
    _add_logging_flags(loadtest_parser, suppress=True)

    trace_cmd = sub.add_parser(
        "trace",
        help="trace tooling: convert a CSV into a columnar store",
    )
    trace_sub = trace_cmd.add_subparsers(dest="trace_command")
    convert = trace_sub.add_parser(
        "convert",
        help=(
            "stream a server,time,items CSV into a memory-mappable "
            "columnar store directory (solve it with 'solve --store')"
        ),
    )
    convert.add_argument("csv", help="path to a server,time,items CSV")
    convert.add_argument("store", help="destination store directory")
    convert.add_argument(
        "--num-servers",
        type=_positive_int,
        default=None,
        metavar="M",
        help="server universe size (default: CSV header, else inferred)",
    )
    convert.add_argument(
        "--origin",
        type=int,
        default=None,
        metavar="S",
        help="origin server id (default: CSV header, else 0)",
    )
    convert.add_argument(
        "--on-error",
        choices=("raise", "skip"),
        default="raise",
        help=(
            "'raise' (default) aborts on the first malformed row; 'skip' "
            "drops and counts bad rows"
        ),
    )

    sched = sub.add_parser(
        "schedule",
        help="render space-time schedule diagrams (paper Figs. 1/2/7 style)",
    )
    sched.add_argument("--n", type=int, default=12, help="number of requests")
    sched.add_argument("--servers", type=int, default=4, help="server count")
    sched.add_argument("--seed", type=int, default=0, help="workload seed")
    sched.add_argument("--mu", type=float, default=1.0, help="cache cost rate")
    sched.add_argument("--lam", type=float, default=1.0, help="transfer cost")
    return parser


def _trace_destination(trace_path: str, experiment_id: str, multi: bool) -> str:
    """Per-experiment trace filename when several experiments share
    one ``--trace`` flag (``run all``)."""
    if not multi:
        return trace_path
    from pathlib import Path

    p = Path(trace_path)
    suffix = p.suffix or ".json"
    return str(p.with_name(f"{p.stem}_{experiment_id}{suffix}"))


def _run_one(
    name: str,
    out: Optional[str],
    quick: bool,
    workers: Optional[int] = None,
    memo: bool = False,
    metrics: bool = False,
    trace_path: Optional[str] = None,
    multi_trace: bool = False,
    resilience=None,
    checkpoint=None,
    resume: bool = False,
    prom: Optional[str] = None,
    progress: bool = False,
    stall_after: Optional[float] = None,
) -> int:
    fn = ALL_EXPERIMENTS.get(name)
    if fn is None:
        print(f"unknown experiment {name!r}; try 'list'", file=sys.stderr)
        return 2
    metrics = metrics or prom is not None  # exposition needs a snapshot
    kwargs = dict(_QUICK_OVERRIDES.get(name, {})) if quick else {}
    kwargs.update(
        _engine_kwargs(
            fn,
            workers,
            memo,
            metrics,
            trace=trace_path is not None,
            resilience=resilience,
            checkpoint=checkpoint,
            resume=resume,
        )
    )
    observer = _make_observer(
        metrics=metrics, trace=trace_path is not None, progress=progress,
        stall_after=stall_after,
    )
    with _observer_session(observer, progress):
        result = fn(**kwargs)
    if prom is not None and result.metrics is not None:
        from .obs.telemetry import render_prometheus

        result.prom = render_prometheus(result.metrics)
    print(result.report())
    if progress:
        from .obs.telemetry import render_dashboard

        print()
        print(render_dashboard(observer))
    if out is None and result.metrics is not None:
        # --metrics promises a METRICS_*.json artefact even without --out.
        out = "results"
    if out:
        path = result.save(out)
        print(f"\nartefacts written to {path}/{result.experiment_id}.*")
        if result.metrics is not None:
            agg = result.metrics.get("aggregate", {})
            print(
                f"metrics: {path}/METRICS_{result.experiment_id}.json "
                f"({agg.get('runs', 0)} observed runs, max reconciliation "
                f"error {agg.get('max_reconciliation_error', 0.0):.2e})"
            )
    if trace_path is not None:
        if result.trace is None:
            print(f"note: {name} does not support span tracing; no trace written")
        else:
            from .obs.observer import write_chrome_trace

            dest = write_chrome_trace(
                result.trace,
                _trace_destination(trace_path, result.experiment_id, multi_trace),
            )
            events = len(result.trace.get("traceEvents", ()))
            print(f"trace: {dest} ({events} events; open in Perfetto)")
    if prom is not None:
        if result.metrics is None:
            print(f"note: {name} does not expose metrics; no prometheus file written")
        else:
            from .obs.telemetry import write_prometheus

            dest = write_prometheus(
                result.metrics,
                _trace_destination(prom, result.experiment_id, multi_trace),
            )
            print(f"prometheus: {dest}")
    return 0


def _solve_trace(args: argparse.Namespace) -> int:
    """Load a user trace and print the full algorithm comparison."""
    from .cache.model import CostModel
    from .core.baselines import solve_optimal_nonpacking, solve_package_served
    from .core.dp_greedy import solve_dp_greedy
    from .correlation import sparse_correlation_stats
    from .trace.io import LoadReport, load_sequence_report
    from .viz import format_table

    if args.store:
        from .trace.store import TraceStore

        seq = TraceStore.open(args.trace)
        load_report = LoadReport(rows_total=len(seq), rows_loaded=len(seq))
    else:
        seq, load_report = load_sequence_report(
            args.trace, on_error=args.on_trace_error
        )
    model = CostModel(mu=args.mu, lam=args.lam)
    print(
        f"trace: {len(seq)} requests, {len(seq.items)} items, "
        f"{seq.num_servers} servers (origin s{seq.origin})"
    )
    if load_report.rows_skipped:
        print(
            f"trace: skipped {load_report.rows_skipped}/"
            f"{load_report.rows_total} malformed row(s)"
        )
        for line, message in load_report.errors[:5]:
            print(f"  line {line}: {message}")

    stats = sparse_correlation_stats(seq)
    # threshold=0.0 keeps the listing candidate-sized (zero-similarity
    # pairs are uninformative and, sparsely, O(k^2) to enumerate)
    top = stats.pairs_by_similarity(threshold=0.0)[:5]
    if top:
        print("top pair similarities: " + ", ".join(
            f"J(d{a},d{b})={j:.3f}" for j, a, b in top
        ))

    if args.prom is not None:
        args.metrics = True  # exposition needs a metrics snapshot
    observer = _make_observer(
        metrics=args.metrics, trace=args.trace_out is not None,
        progress=args.progress, stall_after=args.stall_after,
    )
    with _observer_session(observer, args.progress):
        flusher = None
        if args.metrics:
            run = observer.begin_run(
                trace=args.trace, theta=args.theta, alpha=args.alpha
            )
            run.counters["trace.rows_total"] = load_report.rows_total
            run.counters["trace.rows_skipped"] = load_report.rows_skipped
        if args.prom is not None and args.prom_interval is not None:
            # interval exposition: a scraper watching PATH sees live
            # mid-solve quantiles, atomically re-written
            from .obs.metrics import live_snapshot
            from .obs.telemetry import PrometheusFlusher

            flusher = PrometheusFlusher(
                lambda: live_snapshot(observer),
                args.prom,
                interval=args.prom_interval,
            ).start()
        engine = dict(
            theta=args.theta,
            alpha=args.alpha,
            workers=args.workers,
            memo=not args.no_memo,
            resilience=_resilience_from_args(args),
            observer=observer,
        )
        if args.shards is not None:
            from .engine.sharding import solve_dp_greedy_sharded

            dpg = solve_dp_greedy_sharded(seq, model, shards=args.shards, **engine)
        else:
            dpg = solve_dp_greedy(seq, model, **engine)
    if flusher is not None:
        flusher.stop()
    opt = solve_optimal_nonpacking(seq, model)
    pkg = solve_package_served(seq, model, theta=args.theta, alpha=args.alpha)
    print(f"packages: {[sorted(p) for p in dpg.plan.packages]}")
    es = dpg.engine_stats
    print(
        f"engine: {es.pool} pool, {es.workers} worker(s), "
        f"{es.memo_hits}/{es.memo_hits + es.memo_misses} memo hits"
    )
    if es.shards:
        print(f"sharded: {es.shards} shard(s) over {es.units} unit(s)")
    if es.retries or es.timeouts or es.pool_fallbacks or es.units_failed:
        print(
            f"resilience: {es.retries} retr(y/ies), {es.timeouts} "
            f"timeout(s), {es.pool_fallbacks} pool fallback(s), "
            f"{es.units_failed} unit(s) skipped"
        )
    if es.stalls:
        print(f"watchdog: {es.stalls} stall(s) flagged")
    print()
    print(format_table([
        {"algorithm": "DP_Greedy", "total_cost": dpg.total_cost,
         "ave_cost": dpg.ave_cost},
        {"algorithm": "Optimal (non-packing)", "total_cost": opt.total_cost,
         "ave_cost": opt.ave_cost},
        {"algorithm": "Package_Served", "total_cost": pkg.total_cost,
         "ave_cost": pkg.ave_cost},
    ]))
    if args.progress:
        from .obs.telemetry import render_dashboard

        print()
        print(render_dashboard(observer))
    if args.metrics:
        from .obs import write_metrics

        run = observer.runs[-1]
        actions = run.ledger.by_action()
        print(
            "\ncost attribution: "
            + ", ".join(f"{a}={v:.3f}" for a, v in actions.items())
        )
        print(
            "phase wall-times: "
            + ", ".join(
                f"{name}={rec['seconds'] * 1000:.2f}ms"
                for name, rec in run.phases.items()
            )
        )
        snap = observer.metrics()
        path = write_metrics(snap, "results/METRICS_solve.json")
        print(
            f"metrics: {path} (reconciliation error "
            f"{run.reconciliation_error:.2e})"
        )
        if args.prom is not None:
            from .obs.telemetry import write_prometheus

            dest = write_prometheus(snap, args.prom)
            print(f"prometheus: {dest}")
    if args.trace_out is not None:
        from .obs.observer import write_chrome_trace

        dest = write_chrome_trace(observer.to_chrome(), args.trace_out)
        print(
            f"trace: {dest} ({len(observer.records())} spans; open in "
            "Perfetto or chrome://tracing)"
        )
    return 0


def _convert_trace(args: argparse.Namespace) -> int:
    """Stream a CSV into a columnar store and report what was written."""
    from .trace.store import TraceStore, convert_csv_to_store

    path, report = convert_csv_to_store(
        args.csv,
        args.store,
        num_servers=args.num_servers,
        origin=args.origin,
        on_error=args.on_error,
    )
    store = TraceStore(path)
    size = sum(f.stat().st_size for f in path.iterdir() if f.is_file())
    print(
        f"store: {path} ({store.num_requests} requests, "
        f"{store.num_items} items, {store.num_servers} servers, "
        f"{size / 1e6:.1f} MB on disk)"
    )
    if report.rows_skipped:
        print(
            f"convert: skipped {report.rows_skipped}/{report.rows_total} "
            "malformed row(s)"
        )
        for line, message in report.errors[:5]:
            print(f"  line {line}: {message}")
    return 0


def _render_schedules(args: argparse.Namespace) -> int:
    """Draw the optimal and greedy schedules for one random trajectory."""
    from .cache.greedy import solve_greedy
    from .cache.model import CostModel
    from .cache.optimal_dp import solve_optimal
    from .trace.workload import random_single_item_view
    from .viz.spacetime import render_schedule

    view = random_single_item_view(
        args.n, args.servers, seed=args.seed, horizon=float(args.n)
    )
    model = CostModel(mu=args.mu, lam=args.lam)
    opt = solve_optimal(view, model)
    greedy = solve_greedy(view, model)
    print(
        render_schedule(
            opt.schedule, view,
            title=f"optimal off-line schedule (cost {opt.cost:.2f})",
        )
    )
    print()
    print(
        render_schedule(
            greedy.schedule, view,
            title=f"simple greedy schedule (cost {greedy.cost:.2f})",
        )
    )
    print(
        f"\ngreedy / optimal = {greedy.cost / opt.cost:.3f} "
        "(Section IV-B proves <= 2)"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    from .logutil import configure_cli_logging

    configure_cli_logging(args.log_level, quiet=args.quiet)

    if args.command == "list":
        for name in ALL_EXPERIMENTS:
            print(name)
        return 0
    if args.command == "demo":
        return _run_one("running_example", None, False)
    if args.command == "schedule":
        return _render_schedules(args)
    if args.command == "solve":
        return _solve_trace(args)
    if args.command == "serve":
        from .serve.cli import run_serve

        return run_serve(args)
    if args.command == "loadtest":
        from .serve.cli import run_loadtest

        return run_loadtest(args)
    if args.command == "trace":
        if args.trace_command == "convert":
            return _convert_trace(args)
        parser.parse_args(["trace", "--help"])
        return 1
    if args.command == "report":
        from .experiments.report import run_report

        observer = _make_observer(
            metrics=args.metrics or args.prom is not None,
            trace=args.trace_out is not None,
            progress=args.progress,
            stall_after=args.stall_after,
        )
        with _observer_session(observer, args.progress):
            path = run_report(
                args.out,
                quick=args.quick,
                workers=args.workers,
                memo=not args.no_memo,
                metrics=args.metrics,
                trace=args.trace_out is not None,
                resilience=_resilience_from_args(args),
                prom=args.prom is not None,
            )
        print(f"report written to {path}")
        return 0
    if args.command == "run":
        workers, memo = args.workers, not args.no_memo
        metrics, trace_path = args.metrics, args.trace_out
        resilience = _resilience_from_args(args)
        checkpoint = args.checkpoint
        if args.resume and checkpoint is None:
            checkpoint = args.out or "results"
        if args.experiment == "all":
            rc = 0
            for name in ALL_EXPERIMENTS:
                rc = max(
                    rc,
                    _run_one(
                        name, args.out, args.quick, workers, memo, metrics,
                        trace_path, multi_trace=True,
                        resilience=resilience,
                        checkpoint=checkpoint, resume=args.resume,
                        prom=args.prom, progress=args.progress,
                        stall_after=args.stall_after,
                    ),
                )
                print()
            return rc
        return _run_one(
            args.experiment, args.out, args.quick, workers, memo, metrics,
            trace_path, resilience=resilience,
            checkpoint=checkpoint, resume=args.resume,
            prom=args.prom, progress=args.progress,
            stall_after=args.stall_after,
        )

    parser.print_help()
    return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
