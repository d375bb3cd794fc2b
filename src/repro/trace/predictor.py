"""Request prediction: quantifying the paper's off-line premise.

The paper's off-line formulation rests on the observation that "93% of
human behavior is predictable" [5] -- the request trajectory is assumed
known in advance, with prediction declared out of scope.  This module
makes that premise testable:

* :class:`MarkovZonePredictor` -- an order-1 Markov next-zone model per
  item/taxi; its top-1 accuracy on a held-out suffix of the synthetic
  trace gives a realistic misprediction rate for the robustness study;
* :func:`perturb_sequence` -- a controlled corruption of a trajectory
  (server mispredictions with probability ``error_rate`` and bounded
  time jitter), the model of an imperfect predictor feeding DP_Greedy.

:mod:`repro.experiments.robustness` plans DP_Greedy on the perturbed
trajectory and serves the true one, measuring how prediction error
propagates into packing decisions and cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cache.model import Request, RequestSequence

__all__ = ["MarkovZonePredictor", "perturb_sequence"]


@dataclass
class MarkovZonePredictor:
    """Order-1 Markov model over zone transitions, one chain per item.

    ``fit`` counts ``zone -> next zone`` transitions along each item's
    request subsequence; ``predict`` returns the most likely next zone
    (falling back to the globally most common zone when a state is
    unseen); ``accuracy`` evaluates top-1 next-zone accuracy.
    """

    num_zones: int
    _transitions: Dict[int, np.ndarray] = field(default_factory=dict, repr=False)
    _global_counts: Optional[np.ndarray] = field(default=None, repr=False)

    def fit(self, seq: RequestSequence) -> "MarkovZonePredictor":
        self._global_counts = np.bincount(seq.servers_array, minlength=self.num_zones)
        for d in seq.items:
            zones = np.asarray(seq.item_view(d).servers)
            if len(zones) > 1:
                mat = self._transitions.setdefault(
                    d, np.zeros((self.num_zones, self.num_zones), np.int64)
                )
                np.add.at(mat, (zones[:-1], zones[1:]), 1)
        return self

    def predict(self, item: int, current_zone: int) -> int:
        """Most likely next zone for ``item`` after ``current_zone``."""
        if self._global_counts is None:
            raise RuntimeError("predictor is not fitted")
        mat = self._transitions.get(item)
        if mat is not None and mat[current_zone].sum() > 0:
            return int(mat[current_zone].argmax())
        return int(self._global_counts.argmax())

    def accuracy(self, seq: RequestSequence) -> float:
        """Top-1 next-zone accuracy over ``seq`` (per item-transition)."""
        per_item_last: Dict[int, int] = {}
        hits = 0
        total = 0
        for r in seq:
            for d in r.items:
                prev = per_item_last.get(d)
                if prev is not None:
                    total += 1
                    if self.predict(d, prev) == r.server:
                        hits += 1
                per_item_last[d] = r.server
        return hits / total if total else 0.0


def perturb_sequence(
    seq: RequestSequence,
    *,
    error_rate: float,
    seed: int = 0,
    time_jitter: float = 0.0,
    item_miss_rate: float = 0.0,
) -> RequestSequence:
    """An imperfect prediction of ``seq``.

    Three error channels, each controlled independently:

    * spatial -- each request's server is replaced by a uniformly random
      *other* server with probability ``error_rate``;
    * temporal -- times are jittered by up to ``time_jitter`` while
      preserving the order;
    * co-occurrence under-observation -- with probability
      ``item_miss_rate`` a multi-item request loses one random item (the
      predictor failed to foresee that the items would be accessed
      together).  This is the channel that attacks Phase 1: it deflates
      the Jaccard statistics the packing decision rests on.
    """
    if not 0 <= error_rate <= 1:
        raise ValueError(f"error_rate must be in [0, 1], got {error_rate}")
    if not 0 <= item_miss_rate <= 1:
        raise ValueError(f"item_miss_rate must be in [0, 1], got {item_miss_rate}")
    if time_jitter < 0:
        raise ValueError("time_jitter must be non-negative")
    rng = np.random.default_rng(seed)

    out: List[Request] = []
    prev_t = 0.0
    for i, r in enumerate(seq):
        server = r.server
        if seq.num_servers > 1 and rng.random() < error_rate:
            server = int(rng.integers(0, seq.num_servers - 1))
            if server >= r.server:
                server += 1  # uniform over the *other* servers
        items = r.items
        if len(items) > 1 and rng.random() < item_miss_rate:
            drop = sorted(items)[int(rng.integers(0, len(items)))]
            items = items - {drop}
        t = r.time
        if time_jitter > 0:
            t = r.time + float(rng.uniform(-time_jitter, time_jitter))
        t = max(t, prev_t + 1e-9, 1e-9)
        out.append(Request(server=server, time=t, items=items))
        prev_t = t
    return RequestSequence(tuple(out), seq.num_servers, seq.origin)
