"""Test-side oracles: independent solvers the library is certified against.

``ilp_optimal_cost`` certifies the optimal DP
(:mod:`repro.cache.optimal_dp`) through an entirely different solver --
an integer linear program over the DP's keep/drop/backbone structure --
which scales to hundreds of requests via ``scipy.optimize.milp``
(HiGHS), where the exhaustive oracle (:mod:`repro.cache.brute_force`)
stops at about 12:

* variables: ``k_i ∈ {0,1}`` per event with a same-server successor
  (keep the copy until that successor), ``b_g ∈ {0,1}`` per inter-event
  gap (pay a backbone copy);
* objective: ``Σ_i [k_i · μΔ_i + (1 − k_i) · λ] + Σ_g b_g · μ·gap_g``
  plus the fixed first-on-server transfers;
* constraints: every gap is covered --
  ``b_g + Σ_{i : [t_i, t_next(i)] ⊇ gap_g} k_i ≥ 1``.

In fact the LP relaxation already suffices: the constraint matrix is an
interval-covering system (each ``k_i`` covers a contiguous run of gaps),
which is totally unimodular, so HiGHS returns integral optima -- but we
request integrality explicitly for clarity.

The decision-space *completeness* argument (why an optimal schedule has
this form) lives in ``docs/algorithms.md``; the ILP is deliberately a
transliteration of that argument rather than of the DP's code, so the
two can disagree if either is wrong.  ``tests/cache/test_ilp.py`` pins
them together on random instances up to ``n = 200``.

scipy is a test dependency only (the ``test`` extra): the oracle
imports it on first use, so importing this module never needs it.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.cache.model import CostModel, RequestSequence, SingleItemView
from repro.cache.optimal_dp import _events

__all__ = ["ilp_optimal_cost"]


def ilp_optimal_cost(
    view: "SingleItemView | RequestSequence",
    model: CostModel,
) -> float:
    """Exact single-item optimum via the keep/backbone covering ILP."""
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    _servers, times, nxt, first_copies = _events(view)
    n = len(times) - 1
    if n == 0:
        return 0.0
    mu, lam = model.mu, model.lam
    base = lam * len(first_copies)

    # decision variables: one k_i per event with a successor, one b_g per gap
    keep_events: List[int] = [i for i in range(n + 1) if nxt[i] >= 0]
    n_keep = len(keep_events)
    n_gaps = n  # gaps (t_0, t_1) .. (t_{n-1}, t_n)

    # objective: keep_i costs mu*delta_i - lam (relative to paying lam),
    # so the constant Σ lam is added back at the end; backbone b_g costs
    # mu * gap_g
    c = np.empty(n_keep + n_gaps)
    for col, i in enumerate(keep_events):
        j = nxt[i]
        c[col] = mu * (times[j] - times[i]) - lam
    for g in range(n_gaps):
        c[n_keep + g] = mu * (times[g + 1] - times[g])
    constant = base + lam * n_keep

    # coverage: for each gap g (between events g and g+1), the keeps whose
    # interval [t_i, t_{next(i)}] spans it are those with i <= g < next(i)
    rows: List[int] = []
    cols: List[int] = []
    for col, i in enumerate(keep_events):
        for g in range(i, nxt[i]):
            rows.append(g)
            cols.append(col)
    for g in range(n_gaps):
        rows.append(g)
        cols.append(n_keep + g)
    A = sparse.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(n_gaps, n_keep + n_gaps)
    )

    res = milp(
        c=c,
        constraints=LinearConstraint(A, lb=np.ones(n_gaps), ub=np.inf),
        bounds=Bounds(0.0, 1.0),
        integrality=np.ones(n_keep + n_gaps),
    )
    if not res.success:  # pragma: no cover - HiGHS is exact on these LPs
        raise RuntimeError(f"ILP solver failed: {res.message}")
    return float(res.fun + constant)
