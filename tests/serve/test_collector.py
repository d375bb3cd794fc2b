"""Tests for the bounded ingress queue and max-batch/max-wait/deadline
batch collector."""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass
from functools import partial
from typing import Optional

import pytest

from repro.serve.collector import BatchCollector


@dataclass
class Item:
    name: str
    deadline: Optional[float] = None


def run(coro):
    return asyncio.run(coro)


def stepping_clock(step: float):
    """A fake clock that advances ``step`` seconds per reading: a batch
    opened at one reading is past its ``max_wait=step`` cutoff at the
    next, so a collector never waits out the wait after its drain."""
    return partial(next, itertools.count(0.0, step))


class TestBatchCollector:
    def test_greedy_drain_of_queued_items(self):
        async def go():
            collector = BatchCollector(
                max_batch=8, max_wait=10.0, clock=stepping_clock(10.0)
            )
            for i in range(5):
                assert collector.put(Item(f"r{i}"))
            batch = await collector.collect()
            return [it.name for it in batch], len(collector)

        assert run(go()) == (["r0", "r1", "r2", "r3", "r4"], 0)

    def test_max_batch_caps_the_group(self):
        async def go():
            collector = BatchCollector(max_batch=4, max_wait=10.0)
            for i in range(10):
                collector.put(Item(f"r{i}"))
            first = await collector.collect()
            second = await collector.collect()
            return len(first), len(second), len(collector)

        assert run(go()) == (4, 4, 2)

    def test_max_wait_closes_an_underfull_batch(self):
        async def go():
            collector = BatchCollector(max_batch=64, max_wait=0.01)
            collector.put(Item("only"))
            t0 = asyncio.get_running_loop().time()
            batch = await collector.collect()
            return batch, asyncio.get_running_loop().time() - t0

        batch, took = run(go())
        assert len(batch) == 1
        assert took < 1.0  # closed by max_wait, not by more arrivals

    def test_deadline_caps_the_wait(self):
        async def go():
            import time

            loop_now = asyncio.get_running_loop().time()
            # huge max_wait, but the queued item's deadline is imminent
            collector = BatchCollector(max_batch=64, max_wait=30.0)
            collector.put(Item("tight", deadline=time.monotonic() + 0.01))
            batch = await collector.collect()
            took = asyncio.get_running_loop().time() - loop_now
            return len(batch), took

        n, took = run(go())
        assert n == 1
        assert took < 5.0  # nowhere near max_wait=30

    def test_none_is_the_drain_sentinel(self):
        async def go():
            collector = BatchCollector(
                max_batch=8, max_wait=10.0, clock=stepping_clock(10.0)
            )
            collector.put(Item("a"))
            collector.put(None)
            collector.put(Item("b"))
            first = await collector.collect()
            second = await collector.collect()
            return [it.name for it in first], [it.name for it in second]

        assert run(go()) == (["a"], ["b"])

    def test_lone_sentinel_yields_empty_batch(self):
        async def go():
            collector = BatchCollector()
            collector.put(None)
            return await collector.collect()

        assert run(go()) == []

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BatchCollector(max_batch=0)
        with pytest.raises(ValueError):
            BatchCollector(max_wait=-1.0)
        with pytest.raises(ValueError):
            BatchCollector(limit=0)

    def test_full_queue_refuses_without_queueing(self):
        async def go():
            collector = BatchCollector(limit=2, max_wait=0.0)
            accepted = [collector.put(Item(f"r{i}")) for i in range(3)]
            depth = len(collector)
            # the sentinel counts against the bound too
            sentinel = collector.put(None)
            batch = await collector.collect()
            return accepted, depth, sentinel, [it.name for it in batch]

        assert run(go()) == ([True, True, False], 2, False, ["r0", "r1"])

    def test_put_wakes_an_idle_collect(self):
        async def go():
            collector = BatchCollector(max_batch=8, max_wait=0.0)
            task = asyncio.ensure_future(collector.collect())
            await asyncio.sleep(0)
            assert not task.done()  # idle: awaits the first request
            collector.put(Item("late"))
            batch = await asyncio.wait_for(task, 5.0)
            return [it.name for it in batch]

        assert run(go()) == ["late"]

    def test_arrival_within_max_wait_joins_the_open_batch(self):
        async def go():
            collector = BatchCollector(max_batch=2, max_wait=30.0)
            collector.put(Item("first"))
            task = asyncio.ensure_future(collector.collect())
            await asyncio.sleep(0)
            assert not task.done()  # lingering for a second request
            collector.put(Item("second"))
            batch = await asyncio.wait_for(task, 5.0)
            return [it.name for it in batch]

        # full at two: closed by the arrival, not by the 30 s wait
        assert run(go()) == ["first", "second"]

    def test_take_all_empties_the_queue_in_order(self):
        collector = BatchCollector()
        for item in (Item("a"), None, Item("b")):
            collector.put(item)
        taken = collector.take_all()
        assert [getattr(it, "name", None) for it in taken] == ["a", None, "b"]
        assert len(collector) == 0
