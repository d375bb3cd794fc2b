"""The cost ledger: every charged unit of cost, attributed.

The paper's evaluation (Figs. 9-13) is about *where the money goes*,
which a scalar ``total_cost`` cannot answer.  The ledger records every
elementary charge, keyed by

* the **serving unit** (package or singleton) that incurred it,
* the **request index** in the original sequence the charge serves, and
* the **action** that was paid for.

The five actions partition every cost the algorithms can charge:

``cache``
    Holding a copy between two same-server requests (a DP *keep*
    decision, or an Observation-2 cache win on a single-sided node).
``transfer``
    Moving a copy between servers at a request instant (a DP *drop*
    decision's replacement transfer, or an Observation-2 transfer win).
``ship``
    Observation 2's constant package-ship option (``alpha * k * lam``).
``backbone``
    The persistence charge spanning an inter-event gap not covered by
    any kept interval (the item can never be resurrected).
``first-copy``
    The mandatory ``lam`` paid by a request with no same-server
    predecessor (its first copy arrives by transfer).

Each charge is recorded with its request position from the serving
unit's own rows -- no timestamp search -- into columns (unit, request
position, action code, amount).  Because the charges come *from the
solver's own decision path* (see
:func:`repro.cache.optimal_dp.attribute_positions`), their sum
reconciles with the reported scalar total to float precision --
:meth:`CostLedger.reconcile` turns that identity into a hard invariant,
making every observed run a self-audit of the cost accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "ACTIONS",
    "LedgerEntry",
    "LedgerReconciliationError",
    "CostLedger",
    "MODE_ACTIONS",
    "action_codes",
]

#: The closed set of ledger actions (see module docstring).
ACTIONS = ("cache", "transfer", "ship", "backbone", "first-copy")

_CODE = {a: i for i, a in enumerate(ACTIONS)}

#: Observation-2 serving modes -> ledger actions.  The mode strings are
#: owned by :mod:`repro.core.dp_greedy` (MODE_CACHE/MODE_TRANSFER/
#: MODE_PACKAGE); importing them here would be circular, so the mapping
#: is spelled out and pinned by tests.
MODE_ACTIONS = {"cache": "cache", "transfer": "transfer", "package": "ship"}


def action_codes(actions: Iterable[str]) -> np.ndarray:
    """Ledger action names as column codes; unknown names raise."""
    try:
        return np.array([_CODE[a] for a in actions], dtype=np.int8)
    except KeyError as exc:
        raise ValueError(
            f"unknown ledger action {exc.args[0]!r}; expected one of {ACTIONS}"
        ) from None


@dataclass(frozen=True, slots=True)
class LedgerEntry:
    """One elementary charge: ``unit`` paid ``amount`` for ``action``
    while serving the request at ``request_index`` (a row view of the
    ledger's columns)."""

    unit: Tuple[int, ...]
    request_index: int
    action: str
    amount: float


class LedgerReconciliationError(ValueError):
    """Attributed costs do not sum to the reported total."""


class CostLedger:
    """Append-only columnar charge store with aggregations.

    All totals use :func:`math.fsum` so aggregation order never widens
    the gap against the scalar totals the solvers report.
    """

    __slots__ = ("_unit_ids", "_chunks")

    def __init__(self) -> None:
        self._unit_ids: Dict[Tuple[int, ...], int] = {}
        self._chunks: List[Tuple[np.ndarray, ...]] = []

    def extend(
        self,
        units: Sequence[Iterable[int]],
        unit_of: np.ndarray,
        positions: np.ndarray,
        actions: np.ndarray,
        amounts: np.ndarray,
    ) -> None:
        """Append charges as columns: charge ``i`` is unit
        ``units[unit_of[i]]`` paying ``amounts[i]`` for action code
        ``actions[i]`` (see :func:`action_codes`) at request
        ``positions[i]``."""
        actions = np.asarray(actions, dtype=np.int8)
        amounts = np.asarray(amounts, dtype=np.float64)
        if len(actions) and not 0 <= actions.min() <= actions.max() < len(ACTIONS):
            raise ValueError(f"unknown ledger action code; expected 0..{len(ACTIONS) - 1}")
        if len(amounts) and amounts.min() < 0:
            raise ValueError(f"ledger amounts must be non-negative, got {amounts.min()}")
        ids = [self._unit_ids.setdefault(tuple(sorted(u)), len(self._unit_ids)) for u in units]
        self._chunks.append(
            (
                np.asarray(ids, dtype=np.int64)[np.asarray(unit_of, dtype=np.int64)],
                np.asarray(positions, dtype=np.int64),
                actions,
                amounts,
            )
        )

    def record(
        self,
        unit: Iterable[int],
        request_index: int,
        action: str,
        amount: float,
    ) -> None:
        """Append one charge; ``action`` must be one of :data:`ACTIONS`."""
        self.extend([unit], [0], [int(request_index)], action_codes([action]), [amount])

    def _columns(self) -> List[list]:
        """``[units, positions, actions, amounts]`` as Python lists."""
        if not self._chunks:
            return [[], [], [], []]
        return [np.concatenate(col).tolist() for col in zip(*self._chunks)]

    def __len__(self) -> int:
        return sum(len(chunk[3]) for chunk in self._chunks)

    @property
    def entries(self) -> Tuple[LedgerEntry, ...]:
        units = list(self._unit_ids)
        return tuple(
            LedgerEntry(units[u], p, ACTIONS[a], c) for u, p, a, c in zip(*self._columns())
        )

    # -- aggregations ----------------------------------------------------
    def _sums(self, key) -> Dict[object, float]:
        """``math.fsum`` of the amounts per ``key(unit, action)``."""
        units = list(self._unit_ids)
        unit, _, action, amount = self._columns()
        buckets: Dict[object, List[float]] = {}
        for u, a, c in zip(unit, action, amount):
            buckets.setdefault(key(units[u], ACTIONS[a]), []).append(c)
        return {k: math.fsum(v) for k, v in buckets.items()}

    def total(self) -> float:
        """Grand total over every recorded charge."""
        return math.fsum(self._columns()[3])

    def by_action(self) -> Dict[str, float]:
        """Per-action totals; every action key is present (0.0 when unused)."""
        sums = self._sums(lambda unit, action: action)
        return {a: sums.get(a, 0.0) for a in ACTIONS}

    def by_unit(self) -> Dict[Tuple[int, ...], float]:
        """Per-serving-unit totals, keyed by the sorted item tuple."""
        return self._sums(lambda unit, action: unit)

    def by_unit_action(self) -> Dict[Tuple[int, ...], Dict[str, float]]:
        """Nested unit -> action -> total breakdown."""
        out: Dict[Tuple[int, ...], Dict[str, float]] = {}
        for (unit, action), total in self._sums(lambda u, a: (u, a)).items():
            out.setdefault(unit, {})[action] = total
        return out

    # -- the invariant ---------------------------------------------------
    def reconcile(
        self,
        expected_total: float,
        *,
        rel_tol: float = 1e-9,
        abs_tol: float = 1e-9,
    ) -> float:
        """Assert the ledger sums to ``expected_total``; return the error.

        Raises :class:`LedgerReconciliationError` when the absolute gap
        exceeds ``abs_tol + rel_tol * |expected_total|``.
        """
        got = self.total()
        err = abs(got - expected_total)
        if err > abs_tol + rel_tol * abs(expected_total):
            raise LedgerReconciliationError(
                f"ledger total {got!r} does not reconcile with reported "
                f"total {expected_total!r} (error {err:g}); per-action "
                f"totals: {self.by_action()}"
            )
        return err

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready summary: entry count, grand total, per-action and
        per-unit totals (unit keys rendered as ``"d1+d2"``)."""
        return {
            "entries": len(self),
            "total": self.total(),
            "actions": self.by_action(),
            "units": {
                "+".join(str(d) for d in unit): total
                for unit, total in sorted(self.by_unit().items())
            },
        }
