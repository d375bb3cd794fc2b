"""Seeded inputs and per-workload drivers of the DP_Greedy benchmark.

Every workload is one class with the same steps:

* ``build()``: turn the generated rows into the program's input.  The
  runner times ``build()`` plus the first ``run()`` on the fresh input as
  the set-up, i.e. time to the first answer with cold caches.
* ``run(inp)``: one operation, timed by itself; returns an
  :class:`Outcome`.
* ``certify(inp, outcome)``: check the first outcome against an
  independent reference, computed outside every timed region.
* ``check(outcome)``: compare a later outcome with that reference.
* ``layers(inp, outcome)``: for ``--trace 1``, time each layer of the
  same operation by calling its public entry point on the same input.

The program receives only the generated rows: the generator lives here,
not in the package, so a change to the package's own workload helpers
cannot change what the benchmark measures.
"""

from __future__ import annotations

import asyncio
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro
from repro.correlation import StreamingCorrelation
from repro.serve import ServeConfig, ServingEngine

#: The paper's Section VI parameters: theta, alpha, and mu = lam = 3
#: (rho = 1 on the lam + mu = 6 scale of the figure harnesses).
THETA = 0.3
ALPHA = 0.8
MODEL = repro.CostModel(mu=3.0, lam=3.0)
NUM_SERVERS = 50

Row = Tuple[int, float, Tuple[int, ...]]


def make_rows(
    seed: int,
    n: int,
    num_items: int,
    *,
    packable: float,
    mean_gap: float = 0.05,
    zipf_s: float = 1.1,
    hotspot: float = 0.05,
) -> List[Row]:
    """``n`` requests ``(server, time, items)`` over ``NUM_SERVERS`` servers.

    Items have Zipf(``zipf_s``) popularity.  Items ``2j`` and ``2j + 1``
    are partners: a request for either also carries the other with a
    probability ``p_j`` fixed per pair, which makes the pair's expected
    Jaccard similarity exactly ``p_j`` whatever the two popularities.
    A ``packable`` share of the pairs draws ``p_j`` from [0.45, 0.7), the
    rest from [0.05, 0.2): both bands sit well clear of ``THETA``, so the
    number of packages barely moves from seed to seed.  Servers decay
    geometrically by ``hotspot`` (a downtown bias); gaps are exponential,
    so with ``mu = lam`` both caching and transfers are optimal for some
    requests.
    """
    rng = np.random.default_rng(seed)
    weights = np.arange(1, num_items + 1, dtype=float) ** -zipf_s
    weights /= weights.sum()
    primary = rng.choice(num_items, size=n, p=weights)
    spread = (np.arange(num_items) // 2 * 0.6180339887498949) % 1.0
    partner_p = np.where(
        spread < packable,
        0.45 + 0.25 * spread / packable,
        0.05 + 0.15 * (spread - packable) / (1.0 - packable),
    )
    partner = primary ^ 1
    # the k-th request of an item carries the partner when a golden-ratio
    # sequence falls below p_j: a low-discrepancy draw, so even a rarely
    # requested pair's similarity stays within 1/count of p_j
    order = np.argsort(primary, kind="stable")
    first = np.searchsorted(primary[order], primary[order], side="left")
    occurrence = np.empty(n, dtype=np.int64)
    occurrence[order] = np.arange(n) - first
    draw = ((occurrence + 1) * 0.6180339887498949 + primary * 0.7548776662) % 1.0
    paired = (draw < partner_p[primary]) & (partner < num_items)
    times = np.cumsum(rng.exponential(mean_gap, size=n) + mean_gap * 1e-6)
    server_w = (1.0 - hotspot) ** np.arange(NUM_SERVERS)
    server_w /= server_w.sum()
    servers = rng.choice(NUM_SERVERS, size=n, p=server_w)
    return [
        (s, t, (p, q) if both else (p,))
        for s, t, p, q, both in zip(
            servers.tolist(),
            times.tolist(),
            primary.tolist(),
            partner.tolist(),
            paired.tolist(),
        )
    ]


def make_sequence(rows: List[Row]) -> "repro.RequestSequence":
    return repro.RequestSequence(rows, num_servers=NUM_SERVERS)


@dataclass
class Outcome:
    """What one operation produced, with its own wall time."""

    seconds: float
    total_cost: float
    item_requests: int
    result: object = None
    latencies: Optional[np.ndarray] = None
    failed: int = 0
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def ave_cost(self) -> float:
        return self.total_cost / self.item_requests


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def _unit_costs(seq, plan) -> Tuple[float, List[Tuple[frozenset, float]]]:
    """Serial DP-kernel time and cost of every serving unit of ``plan``.

    Views are projected before the clock starts, so the time is the
    recurrence alone: the package co-occurrence trajectory at package
    rate, each singleton's trajectory at the individual rate.
    """
    rate = repro.package_rate(2, ALPHA)
    units = [(frozenset(p), seq.group_view(p), rate) for p in plan.packages]
    units += [(frozenset((d,)), seq.item_view(d), 1.0) for d in plan.singletons]
    t0 = time.perf_counter()
    costs = [
        (group, repro.optimal_cost(view, MODEL, rate_multiplier=r))
        for group, view, r in units
    ]
    return time.perf_counter() - t0, costs


class OfflineWorkload:
    """In-memory two-phase solve with the library defaults."""

    requests = 6_000
    items = 64
    packable = 0.5
    zipf_s = 1.1

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.rows = make_rows(
            seed,
            self.requests,
            self.items,
            packable=self.packable,
            zipf_s=self.zipf_s,
        )
        self.work_dir = work_dir
        self.reference: Optional[Outcome] = None

    # -- the operation -----------------------------------------------------
    def solve(self, seq, **kwargs):
        return repro.solve_dp_greedy(seq, MODEL, theta=THETA, alpha=ALPHA, **kwargs)

    def build(self):
        return make_sequence(self.rows)

    def run(self, inp) -> Outcome:
        seconds, result = _timed(self.solve, inp)
        return Outcome(
            seconds, result.total_cost, result.denominator, result=result
        )

    # -- correctness -------------------------------------------------------
    def certify(self, inp, out: Outcome) -> None:
        """Check the first solve independently and keep it as the
        reference: every singleton costs exactly its optimal single-item
        DP, and the total is the left-to-right sum of the unit reports."""
        self.reference = out
        result = out.result
        reports = {r.group: r for r in result.reports}
        for d in result.plan.singletons:
            want = repro.optimal_cost(inp.item_view(d), MODEL)
            if reports[frozenset((d,))].package_cost != want:
                raise AssertionError(f"singleton {d}: DP cost mismatch")
        if sum(r.total for r in result.reports) != result.total_cost:
            raise AssertionError("total is not the sum of the unit reports")

    def check(self, out: Outcome) -> bool:
        ref = self.reference.result
        got = out.result
        return (
            got.total_cost == ref.total_cost
            and got.plan.packages == ref.plan.packages
            and got.reports == ref.reports
        )

    # -- per-layer breakdown -------------------------------------------------
    def layers(self, inp, out: Outcome) -> Dict[str, float]:
        join_s, stats = _timed(repro.sparse_correlation_stats, inp)
        pack_s, plan = _timed(repro.greedy_pair_packing, stats, THETA)
        planned_s, planned = _timed(self.solve, inp, plan=plan)
        kernel_s, costs = _unit_costs(inp, plan)
        reports = {r.group: r for r in out.result.reports}
        if plan.packages != out.result.plan.packages or planned.total_cost != (
            out.total_cost
        ):
            raise AssertionError("layer-by-layer plan differs from the solve")
        for group, cost in costs:
            if reports[group].package_cost != cost:
                raise AssertionError(f"unit {sorted(group)}: kernel cost mismatch")
        return {
            "join_ms": join_s * 1e3,
            "pack_ms": pack_s * 1e3,
            "phase2_ms": (planned_s - join_s) * 1e3,
            "kernel_ms": kernel_s * 1e3,
            "units": len(plan.packages) + len(plan.singletons),
            "packages": len(plan.packages),
        }


class WideWorkload(OfflineWorkload):
    """A wide catalog of weakly correlated items: many small units."""

    requests = 8_000
    items = 1_000
    packable = 0.2
    zipf_s = 0.6


class StoreWorkload(OfflineWorkload):
    """CSV converted to the columnar store, then the sharded solve."""

    requests = 20_000
    items = 256
    shards = 4

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.csv_path = work_dir / "trace.csv"
        with open(self.csv_path, "w") as fh:
            fh.write(f"# num_servers={NUM_SERVERS}\nserver,time,items\n")
            fh.writelines(
                f"{s},{t!r},{'|'.join(map(str, items))}\n"
                for s, t, items in self.rows
            )
        self._stores = 0

    def solve(self, seq, **kwargs):
        return repro.solve_dp_greedy_sharded(
            seq, MODEL, theta=THETA, alpha=ALPHA, shards=self.shards, **kwargs
        )

    def build(self):
        self._stores += 1
        dest = self.work_dir / f"store{self._stores}"
        if dest.exists():
            shutil.rmtree(dest)
        dest, _report = repro.convert_csv_to_store(self.csv_path, dest)
        return repro.TraceStore.open(dest)

    def certify(self, inp, out: Outcome) -> None:
        """As offline, and the store-backed sharded solve must be
        bit-identical to the in-memory solver on the same rows."""
        super().certify(inp, out)
        ref = repro.solve_dp_greedy(
            make_sequence(self.rows), MODEL, theta=THETA, alpha=ALPHA
        )
        if ref.total_cost != out.total_cost or ref.reports != out.result.reports:
            raise AssertionError("sharded store solve differs from in-memory")


class ServeWorkload:
    """The trace replayed through the serving engine by closed-loop clients."""

    requests = 10_000
    items = 64
    packable = 0.5
    clients = 64

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.rows = make_rows(
            seed, self.requests, self.items, packable=self.packable
        )
        self.seq = make_sequence(self.rows)
        self.online = repro.solve_online_dp_greedy(
            self.seq, MODEL, theta=THETA, alpha=ALPHA
        )

    def build(self):
        # max_wait=0: a batch closes as soon as the queue is empty, so
        # the measured time is the engine's work, not a linger timer
        return ServeConfig(max_wait=0.0)

    def certify(self, inp, out: Outcome) -> None:
        if not self.check(out):
            raise AssertionError("served pass differs from the online replay")

    async def _serve(self, config) -> Outcome:
        engine = ServingEngine(MODEL, theta=THETA, alpha=ALPHA, config=config)
        await engine.start()
        rows = iter(self.rows)
        latencies = np.empty(len(self.rows))
        answered = 0
        failed = 0

        async def client() -> None:
            nonlocal answered, failed
            for server, t, items in rows:
                t0 = time.perf_counter()
                answer = await engine.submit(server, items, time=t)
                latencies[answered] = time.perf_counter() - t0
                answered += 1
                failed += answer.status != "ok"

        t0 = time.perf_counter()
        await asyncio.gather(*(client() for _ in range(self.clients)))
        seconds = time.perf_counter() - t0
        total = await engine.drain()
        return Outcome(
            seconds,
            total,
            self.online.denominator,
            latencies=latencies[:answered],
            failed=failed,
            counters=engine.counters(),
        )

    def run(self, config) -> Outcome:
        return asyncio.run(self._serve(config))

    def check(self, out: Outcome) -> bool:
        # admission stamps trace times in iterator order, so a shed-free
        # pass must price exactly like the serial online replay
        return (
            out.failed == 0
            and len(out.latencies) == len(self.rows)
            and out.total_cost == self.online.total_cost
        )

    def layers(self, config, out: Outcome) -> Dict[str, float]:
        def observe_all():
            stats = StreamingCorrelation(min_observations=5)
            for req in self.seq:
                stats.observe(req)
            return stats

        join_s, stats = _timed(observe_all)
        pack_s, _plan = _timed(repro.greedy_pair_packing, stats, THETA)
        kernel_s, online = _timed(
            repro.solve_online_dp_greedy, self.seq, MODEL, theta=THETA, alpha=ALPHA
        )
        if online.total_cost != out.total_cost:
            raise AssertionError("serial online replay differs from the served pass")
        return {
            "join_ms": join_s * 1e3,
            "pack_ms": pack_s * 1e3,
            "phase2_ms": out.seconds * 1e3,
            "kernel_ms": kernel_s * 1e3,
            "units": out.counters["serve.batches"],
            "packages": out.counters["serve.packages_formed"],
        }


WORKLOADS = {
    "offline": OfflineWorkload,
    "wide": WideWorkload,
    "store": StoreWorkload,
    "serve": ServeWorkload,
}
