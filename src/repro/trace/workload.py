"""Direct workload generators for controlled experiments.

The figure-level experiments need request sequences with precisely
controlled statistics rather than emergent ones:

* :func:`correlated_pair_sequence` -- a two-item sequence whose Jaccard
  similarity hits a requested target exactly (up to integer rounding).
  Used by the Fig. 11/12/13 sweeps, where ``ave_cost`` is studied as a
  function of the pair's similarity.
* :func:`zipf_item_workload` -- a ``k``-item sequence with Zipf-skewed
  item popularity and a configurable co-occurrence kernel; a general
  stress workload for the multi-item path.

All generators return :class:`~repro.cache.model.RequestSequence` objects
with strictly increasing positive times and are deterministic per seed.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..cache.model import RequestSequence

__all__ = [
    "correlated_pair_sequence",
    "zipf_item_workload",
    "diurnal_workload",
    "random_single_item_view",
]


def _strict_times(rng: np.random.Generator, n: int, horizon: float) -> np.ndarray:
    """``n`` strictly increasing times in ``(0, horizon]``."""
    if n == 0:
        return np.empty(0)
    ts = np.sort(rng.uniform(0.0, horizon, size=n))
    # spread exact collisions and push off zero
    eps = horizon * 1e-9 + 1e-12
    ts = ts + eps * np.arange(1, n + 1)
    return ts


def _partnered_rows(servers, times, primaries, co, num_items: int):
    """``(server, time, items)`` rows whose items are the primary, plus
    its partner ``primary ^ 1`` where ``co`` draws one that exists."""
    partner = primaries ^ 1
    paired = (co & (partner < num_items)).tolist()
    items = [
        (p, q) if both else (p,)
        for p, q, both in zip(primaries.tolist(), partner.tolist(), paired)
    ]
    return zip(servers.tolist(), times.tolist(), items)


def correlated_pair_sequence(
    n_requests: int,
    num_servers: int,
    jaccard: float,
    *,
    seed: int = 0,
    horizon: float = 100.0,
    items: Tuple[int, int] = (1, 2),
    origin: int = 0,
    hotspot_skew: float = 0.0,
) -> RequestSequence:
    """A two-item sequence with Jaccard similarity ``~= jaccard``.

    With ``n`` requests each touching at least one of the two items and
    ``c`` co-occurrence requests, ``J = c / n`` (since
    ``|d_1| + |d_2| - c = n``); the generator therefore uses
    ``c = round(jaccard * n)`` co-occurrence requests and splits the
    remaining ``n - c`` single-item requests evenly.

    ``hotspot_skew`` in ``[0, 1)`` concentrates requests on low-index
    servers (0 = uniform), emulating the downtown bias of the real trace.
    """
    if not 0 <= jaccard <= 1:
        raise ValueError(f"target jaccard must be in [0, 1], got {jaccard}")
    if n_requests < 0:
        raise ValueError("n_requests must be non-negative")
    if num_servers <= 0:
        raise ValueError("num_servers must be positive")
    d1, d2 = items
    if d1 == d2:
        raise ValueError("the two items must be distinct")

    rng = np.random.default_rng(seed)
    n = n_requests
    c = int(round(jaccard * n))
    n_single = n - c
    n1 = n_single // 2
    n2 = n_single - n1

    kinds = np.array([0] * c + [1] * n1 + [2] * n2)
    rng.shuffle(kinds)
    times = _strict_times(rng, n, horizon)
    servers = _skewed_servers(rng, n, num_servers, hotspot_skew)

    sets = ((d1, d2), (d1,), (d2,))
    rows = zip(servers.tolist(), times.tolist(), [sets[k] for k in kinds.tolist()])
    return RequestSequence(rows, num_servers=num_servers, origin=origin)


def _skewed_servers(
    rng: np.random.Generator, n: int, num_servers: int, skew: float
) -> np.ndarray:
    if not 0 <= skew < 1:
        raise ValueError("hotspot_skew must be in [0, 1)")
    if skew == 0:
        return rng.integers(0, num_servers, size=n)
    # geometric-like decay of zone popularity
    weights = (1.0 - skew) ** np.arange(num_servers)
    weights /= weights.sum()
    return rng.choice(num_servers, size=n, p=weights)


def zipf_item_workload(
    n_requests: int,
    num_servers: int,
    num_items: int,
    *,
    seed: int = 0,
    horizon: float = 100.0,
    zipf_s: float = 1.1,
    cooccurrence: float = 0.3,
    origin: int = 0,
) -> RequestSequence:
    """A ``k``-item workload with Zipf popularity and pair co-occurrence.

    Each request draws a primary item from a Zipf(``zipf_s``) popularity
    distribution over ``num_items`` items; with probability
    ``cooccurrence`` the request also carries the primary item's fixed
    partner (``i ^ 1``), producing packable pair structure on top of the
    skewed popularity.
    """
    if num_items <= 0:
        raise ValueError("num_items must be positive")
    if not 0 <= cooccurrence <= 1:
        raise ValueError("cooccurrence must be in [0, 1]")
    rng = np.random.default_rng(seed)

    ranks = np.arange(1, num_items + 1, dtype=float)
    weights = ranks ** (-zipf_s)
    weights /= weights.sum()

    primaries = rng.choice(num_items, size=n_requests, p=weights)
    co = rng.random(n_requests) < cooccurrence
    times = _strict_times(rng, n_requests, horizon)
    servers = rng.integers(0, num_servers, size=n_requests)

    rows = _partnered_rows(servers, times, primaries, co, num_items)
    return RequestSequence(rows, num_servers=num_servers, origin=origin)


def diurnal_workload(
    n_requests: int,
    num_servers: int,
    num_items: int,
    *,
    seed: int = 0,
    days: float = 3.0,
    day_length: float = 24.0,
    peak_sharpness: float = 2.0,
    cooccurrence: float = 0.3,
    commute_split: float = 0.5,
    origin: int = 0,
) -> RequestSequence:
    """A day/night mobile workload (urban-traffic realism).

    Request *times* follow a diurnal intensity (thinned from a sinusoidal
    rate peaking mid-day; ``peak_sharpness`` exaggerates the peak), and
    request *locations* oscillate between a residential zone block (low
    server indices, night) and a business block (high indices, day) --
    the commute pattern that makes mobile caching spatially predictable.
    Items follow the same Zipf-plus-partner scheme as
    :func:`zipf_item_workload`.
    """
    if n_requests < 0:
        raise ValueError("n_requests must be non-negative")
    if num_items <= 0 or num_servers <= 0:
        raise ValueError("num_items and num_servers must be positive")
    if days <= 0 or day_length <= 0:
        raise ValueError("days and day_length must be positive")
    if not 0 <= cooccurrence <= 1:
        raise ValueError("cooccurrence must be in [0, 1]")
    if not 0 < commute_split < 1:
        raise ValueError("commute_split must be in (0, 1)")
    rng = np.random.default_rng(seed)
    horizon = days * day_length

    # thinning: accept uniform candidate times against the diurnal rate
    times: list = []
    while len(times) < n_requests:
        cand = rng.uniform(0.0, horizon, size=max(64, n_requests))
        phase = 2 * np.pi * (cand % day_length) / day_length
        # rate in (0, 1]: peaks at midday (phase pi), dips at midnight
        rate = ((1 - np.cos(phase)) / 2.0) ** peak_sharpness
        keep = cand[rng.random(len(cand)) < np.maximum(rate, 0.02)]
        times.extend(keep.tolist())
    times = np.sort(np.asarray(times[:n_requests]))
    eps = horizon * 1e-9 + 1e-12
    times = times + eps * np.arange(1, n_requests + 1)

    split = max(1, int(num_servers * commute_split))
    is_daytime = (times % day_length) / day_length
    business = (is_daytime > 0.25) & (is_daytime < 0.75)
    servers = np.where(
        business,
        rng.integers(split, num_servers, size=n_requests)
        if split < num_servers
        else rng.integers(0, num_servers, size=n_requests),
        rng.integers(0, split, size=n_requests),
    )

    ranks = np.arange(1, num_items + 1, dtype=float)
    weights = ranks ** (-1.1)
    weights /= weights.sum()
    primaries = rng.choice(num_items, size=n_requests, p=weights)
    co = rng.random(n_requests) < cooccurrence

    rows = _partnered_rows(servers, times, primaries, co, num_items)
    return RequestSequence(rows, num_servers=num_servers, origin=origin)


def random_single_item_view(
    n_requests: int,
    num_servers: int,
    *,
    seed: int = 0,
    horizon: float = 100.0,
    origin: int = 0,
):
    """A bare random single-item trajectory (testing/benchmark helper)."""
    rng = np.random.default_rng(seed)
    times = _strict_times(rng, n_requests, horizon)
    servers = rng.integers(0, num_servers, size=n_requests)
    from ..cache.model import SingleItemView

    return SingleItemView(
        servers=tuple(int(s) for s in servers),
        times=tuple(float(t) for t in times),
        num_servers=num_servers,
        origin=origin,
    )
