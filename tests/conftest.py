"""Shared fixtures and hypothesis strategies for the test-suite."""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.cache.model import CostModel, Request, RequestSequence, SingleItemView
from repro.trace.store import TraceStore, write_store


@pytest.fixture
def unit_model() -> CostModel:
    """The running example's cost model: mu = lam = 1."""
    return CostModel(mu=1.0, lam=1.0)


@pytest.fixture
def paper_model() -> CostModel:
    """The Fig. 12/13 scale: mu + lam = 6 at rho = 1."""
    return CostModel(mu=3.0, lam=3.0)


@contextmanager
def stored(seq: RequestSequence):
    """``seq`` written to a temporary trace store and opened off disk
    (usable inside hypothesis examples, unlike ``tmp_path``)."""
    with tempfile.TemporaryDirectory() as tmp:
        yield TraceStore.open(write_store(seq, Path(tmp) / "store"))


def tamper(seq: RequestSequence, idx: int, **fields) -> RequestSequence:
    """``seq`` with request ``idx``'s ``server``, ``time`` or ``items``
    overwritten in a copy of its request-major columns: the corrupt state
    a deserialised payload can arrive in, which the constructor refuses
    and :meth:`~RequestSequence.validate` must catch."""
    cols = seq.columns
    servers, times = cols.servers.copy(), cols.times.copy()
    offsets, ids = cols.item_offsets.copy(), cols.item_ids
    if "server" in fields:
        servers[idx] = fields["server"]
    if "time" in fields:
        times[idx] = fields["time"]
    if "items" in fields:
        row = np.array(sorted(fields["items"]), dtype=ids.dtype)
        lo, hi = offsets[idx], offsets[idx + 1]
        ids = np.concatenate([ids[:lo], row, ids[hi:]])
        offsets[idx + 1 :] += len(row) - (hi - lo)
    tampered = cols._replace(
        servers=servers, times=times, item_offsets=offsets, item_ids=ids
    )
    object.__setattr__(seq, "columns", tampered)
    return seq


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

def cost_models() -> st.SearchStrategy[CostModel]:
    rates = st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0])
    return st.builds(CostModel, mu=rates, lam=rates)


@st.composite
def single_item_views(
    draw,
    max_requests: int = 8,
    max_servers: int = 4,
    min_requests: int = 0,
) -> SingleItemView:
    """Random small single-item trajectories (brute-force-checkable)."""
    m = draw(st.integers(1, max_servers))
    n = draw(st.integers(min_requests, max_requests))
    # strictly increasing positive times from positive gaps
    gaps = draw(
        st.lists(
            st.floats(0.05, 5.0, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    times = []
    t = 0.0
    for g in gaps:
        t += g
        times.append(round(t, 6))
    servers = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    origin = draw(st.integers(0, m - 1))
    return SingleItemView(
        servers=tuple(servers), times=tuple(times), num_servers=m, origin=origin
    )


@st.composite
def multi_item_sequences(
    draw,
    max_requests: int = 16,
    max_servers: int = 4,
    max_items: int = 4,
) -> RequestSequence:
    """Random small multi-item request sequences."""
    m = draw(st.integers(1, max_servers))
    k = draw(st.integers(1, max_items))
    n = draw(st.integers(1, max_requests))
    gaps = draw(
        st.lists(st.floats(0.05, 3.0), min_size=n, max_size=n)
    )
    times = []
    t = 0.0
    for g in gaps:
        t += g
        times.append(round(t, 6))
    reqs = []
    for i in range(n):
        server = draw(st.integers(0, m - 1))
        items = draw(
            st.sets(st.integers(0, k - 1), min_size=1, max_size=min(k, 3))
        )
        reqs.append(Request(server=server, time=times[i], items=frozenset(items)))
    origin = draw(st.integers(0, m - 1))
    return RequestSequence(tuple(reqs), num_servers=m, origin=origin)
