"""CLI entry points for the serving engine: ``serve`` and ``loadtest``.

``dpgreedy serve``
    Run the always-on engine, either replaying a trace (CSV or columnar
    store) through it or serving a synthetic workload, with the full
    admission/backpressure/breaker knob set exposed.  SIGTERM/SIGINT
    drain gracefully: admission stops, in-flight batches flush, and the
    final METRICS/PROM/TRACE artefacts are written before exit.
``dpgreedy loadtest``
    Closed-loop load generation against a fresh in-process engine;
    reports sustained req/s, decisions/s, and p50/p99
    admission-to-answer latency.

Both commands are thin wrappers over :mod:`repro.serve.engine` and
:mod:`repro.serve.loadgen`; everything they print is computable from
the library API.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Optional

__all__ = ["add_serve_parser", "add_loadtest_parser", "run_serve", "run_loadtest"]


def _add_shared_engine_flags(parser: argparse.ArgumentParser) -> None:
    """Model, packing, batching, and admission knobs (serve + loadtest)."""
    parser.add_argument("--theta", type=float, default=0.3)
    parser.add_argument("--alpha", type=float, default=0.8)
    parser.add_argument("--mu", type=float, default=1.0)
    parser.add_argument("--lam", type=float, default=1.0)
    parser.add_argument(
        "--min-observations",
        type=int,
        default=5,
        metavar="N",
        help="per-item warm-up before a pair may pack (default: 5)",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=128,
        metavar="N",
        help="requests per solve batch (default: 128)",
    )
    parser.add_argument(
        "--max-wait",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "batch grouping wait (default: 0.002 for serve, 0 for "
            "loadtest -- closed-loop clients keep batches full without "
            "idling)"
        ),
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=None,
        metavar="RPS",
        help="token-bucket admission rate (default: unlimited)",
    )
    parser.add_argument(
        "--burst",
        type=int,
        default=128,
        metavar="N",
        help="token-bucket burst capacity (default: 128)",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=1024,
        metavar="N",
        help="ingress queue bound; full queue rejects (default: 1024)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-request latency budget; an expired request is shed, "
            "never half-served (default: none)"
        ),
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        metavar="N",
        help="consecutive batch failures tripping the breaker (default: 5)",
    )
    parser.add_argument(
        "--breaker-cooldown",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="breaker OPEN dwell before a half-open probe (default: 1)",
    )
    parser.add_argument(
        "--batch-retries",
        type=int,
        default=1,
        metavar="N",
        help="re-attempts for a chaos-failed batch before shedding it",
    )
    parser.add_argument(
        "--repack-every",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "background Phase-1 re-packing period (default: off); the "
            "epoch publishes an offline-quality plan from the streaming "
            "statistics and pauses while the breaker is open"
        ),
    )
    parser.add_argument(
        "--repack-adopt",
        action="store_true",
        help=(
            "let re-packing epochs adopt proposed packages into the "
            "serving state (changes costs vs. the pure in-stream replay)"
        ),
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="write the final METRICS_serve.json artefact on drain",
    )
    parser.add_argument(
        "--prom",
        default=None,
        metavar="PATH",
        help="write Prometheus text exposition to PATH on drain",
    )
    parser.add_argument(
        "--prom-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "re-write --prom every SECONDS while serving (atomic "
            "tmp-then-rename, so scrapers never see a torn file)"
        ),
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write per-batch spans as a Chrome trace JSON on drain",
    )
    parser.add_argument(
        "--stall-after",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "flag a batch silent this long as stalled (WARNING + "
            "engine.stalls counter)"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the final summary as JSON instead of text",
    )


def add_serve_parser(sub) -> argparse.ArgumentParser:
    serve = sub.add_parser(
        "serve",
        help=(
            "run the always-on serving engine: replay a trace through it "
            "or serve a synthetic workload, with admission control, "
            "backpressure, and graceful SIGTERM/SIGINT drain"
        ),
    )
    serve.add_argument(
        "trace",
        nargs="?",
        default=None,
        help=(
            "optional server,time,items CSV (or, with --store, a columnar "
            "store directory) to replay; omitted = synthetic workload"
        ),
    )
    serve.add_argument(
        "--store",
        action="store_true",
        help="treat TRACE as a columnar store directory ('trace convert')",
    )
    serve.add_argument(
        "--requests",
        type=int,
        default=10_000,
        metavar="N",
        help="synthetic workload size when no trace is given",
    )
    serve.add_argument(
        "--items",
        type=int,
        default=64,
        metavar="K",
        help="synthetic workload item universe",
    )
    serve.add_argument(
        "--servers",
        type=int,
        default=8,
        metavar="M",
        help="synthetic workload server count",
    )
    serve.add_argument("--seed", type=int, default=0, help="workload seed")
    serve.add_argument(
        "--window",
        type=int,
        default=256,
        metavar="N",
        help="in-flight answers awaited concurrently during replay",
    )
    _add_shared_engine_flags(serve)
    return serve


def add_loadtest_parser(sub) -> argparse.ArgumentParser:
    lt = sub.add_parser(
        "loadtest",
        help=(
            "closed-loop load test against an in-process serving engine; "
            "reports sustained req/s and p50/p99 latency"
        ),
    )
    lt.add_argument(
        "--clients",
        type=int,
        default=64,
        metavar="N",
        help="closed-loop clients, one request in flight each (default: 64)",
    )
    lt.add_argument(
        "--requests",
        type=int,
        default=50_000,
        metavar="N",
        help="total requests attempted across all clients",
    )
    lt.add_argument(
        "--items", type=int, default=64, metavar="K", help="item universe"
    )
    lt.add_argument(
        "--servers",
        type=int,
        default=None,
        metavar="M",
        help="server count (default: max(4, clients))",
    )
    lt.add_argument("--seed", type=int, default=0, help="workload seed")
    lt.add_argument(
        "--cooccurrence",
        type=float,
        default=0.3,
        help="pair co-occurrence probability of the workload",
    )
    lt.add_argument(
        "--max-retries",
        type=int,
        default=0,
        metavar="N",
        help=(
            "client retries after a rejection (default: 0 -- count the "
            "rejection and move on, the overload-probe setting)"
        ),
    )
    _add_shared_engine_flags(lt)
    return lt


def _build_engine(args: argparse.Namespace, observer, *, origin: int = 0,
                  default_max_wait: float):
    from ..cache.model import CostModel
    from .admission import AdmissionConfig
    from .engine import ServeConfig, ServingEngine

    model = CostModel(mu=args.mu, lam=args.lam)
    config = ServeConfig(
        max_batch=args.max_batch,
        max_wait=args.max_wait if args.max_wait is not None else default_max_wait,
        admission=AdmissionConfig(
            rate=args.rate,
            burst=args.burst,
            queue_limit=args.queue_limit,
            deadline=args.deadline,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown=args.breaker_cooldown,
        ),
        min_observations=args.min_observations,
        repack_every=args.repack_every,
        repack_adopt=args.repack_adopt,
        batch_retries=args.batch_retries,
    )
    return ServingEngine(
        model,
        theta=args.theta,
        alpha=args.alpha,
        origin=origin,
        config=config,
        observer=observer,
    )


def _final_artefacts(args, engine, observer, report, total: float) -> None:
    """The drain-path artefacts: METRICS (v3), PROM, TRACE."""
    snapshot = None
    if args.metrics or args.prom is not None:
        from ..obs.metrics import live_snapshot

        snapshot = live_snapshot(
            observer, counters=engine.counters(), runs=1, total_cost=total
        )
    if args.metrics:
        from ..obs import write_metrics

        path = write_metrics(snapshot, "results/METRICS_serve.json")
        print(f"metrics: {path}", file=sys.stderr)
    if args.prom is not None:
        from ..obs.telemetry import write_prometheus

        dest = write_prometheus(snapshot, args.prom)
        print(f"prometheus: {dest}", file=sys.stderr)
    if args.trace_out is not None:
        from ..obs.observer import write_chrome_trace

        dest = write_chrome_trace(observer.to_chrome(), args.trace_out)
        print(
            f"trace: {dest} ({len(observer.records())} spans; open in Perfetto)",
            file=sys.stderr,
        )


def _print_summary(args, engine, report, total: float) -> None:
    if args.json:
        payload = report.to_dict()
        payload["total_cost"] = total
        payload["breaker_state"] = engine.breaker.state
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.report())
        print(f"final total cost:   {total:.3f}")
        print(f"breaker state:      {engine.breaker.state}")


def _flusher(args, engine, observer):
    """The interval Prometheus re-writer (``--prom --prom-interval``)."""
    if args.prom is None or args.prom_interval is None:
        return None
    from ..obs.metrics import live_snapshot
    from ..obs.telemetry import PrometheusFlusher

    return PrometheusFlusher(
        lambda: live_snapshot(observer, counters=engine.counters(), runs=0),
        args.prom,
        interval=args.prom_interval,
    )


async def _serve_async(args: argparse.Namespace, observer) -> int:
    from .loadgen import replay_sequence, run_load_test, workload_requests

    seq = None
    origin = 0
    if args.trace is not None:
        if args.store:
            from ..trace.store import TraceStore

            seq = TraceStore.open(args.trace)
        else:
            from ..trace.io import load_sequence

            seq = load_sequence(args.trace)
        origin = seq.origin
        print(
            f"serve: replaying {len(seq)} requests "
            f"({seq.num_servers} servers, origin s{origin})",
            file=sys.stderr,
        )
    else:
        print(
            f"serve: synthetic workload, {args.requests} requests over "
            f"{args.servers} servers / {args.items} items",
            file=sys.stderr,
        )

    engine = _build_engine(
        args, observer, origin=origin, default_max_wait=0.002
    )
    await engine.start()
    engine.install_signal_handlers()
    flusher = _flusher(args, engine, observer)
    if flusher is not None:
        flusher.start()
    try:
        if seq is not None:
            report = await replay_sequence(engine, seq, window=args.window)
        else:
            report = await run_load_test(
                engine,
                clients=max(1, min(64, args.requests)),
                requests=args.requests,
                num_items=args.items,
                num_servers=args.servers,
                seed=args.seed,
            )
        total = await engine.drain()
    finally:
        if flusher is not None:
            flusher.stop()
    _print_summary(args, engine, report, total)
    _final_artefacts(args, engine, observer, report, total)
    return 0


async def _loadtest_async(args: argparse.Namespace, observer) -> int:
    from .loadgen import run_load_test

    engine = _build_engine(args, observer, default_max_wait=0.0)
    await engine.start()
    engine.install_signal_handlers()
    flusher = _flusher(args, engine, observer)
    if flusher is not None:
        flusher.start()
    try:
        report = await run_load_test(
            engine,
            clients=args.clients,
            requests=args.requests,
            num_items=args.items,
            num_servers=args.servers,
            seed=args.seed,
            cooccurrence=args.cooccurrence,
            max_retries=args.max_retries,
        )
        total = await engine.drain()
    finally:
        if flusher is not None:
            flusher.stop()
    _print_summary(args, engine, report, total)
    _final_artefacts(args, engine, observer, report, total)
    return 0


def _with_session(args: argparse.Namespace, runner) -> int:
    from ..cli import _observer_session
    from ..obs.observer import Observer

    # the serve histograms (admit/batch-wait/solve/e2e) always flow
    # through the runtime leg -- the loadtest summary and the drain
    # artefacts both read them
    observer = Observer(
        spans=args.trace_out is not None, runtime=True, stall_after=args.stall_after
    )
    with _observer_session(observer, False):
        return asyncio.run(runner(args, observer))


def run_serve(args: argparse.Namespace) -> int:
    return _with_session(args, _serve_async)


def run_loadtest(args: argparse.Namespace) -> int:
    return _with_session(args, _loadtest_async)
