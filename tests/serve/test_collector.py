"""Tests for the max-batch/max-wait/deadline batch collector."""

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
            queue: asyncio.Queue = asyncio.Queue()
            for i in range(5):
                queue.put_nowait(Item(f"r{i}"))
            collector = BatchCollector(
                queue, max_batch=8, max_wait=10.0, clock=stepping_clock(10.0)
            )
            batch = await collector.collect()
            return [it.name for it in batch]

        assert run(go()) == ["r0", "r1", "r2", "r3", "r4"]

    def test_max_batch_caps_the_group(self):
        async def go():
            queue: asyncio.Queue = asyncio.Queue()
            for i in range(10):
                queue.put_nowait(Item(f"r{i}"))
            collector = BatchCollector(queue, max_batch=4, max_wait=10.0)
            first = await collector.collect()
            second = await collector.collect()
            return len(first), len(second)

        assert run(go()) == (4, 4)

    def test_max_wait_closes_an_underfull_batch(self):
        async def go():
            queue: asyncio.Queue = asyncio.Queue()
            queue.put_nowait(Item("only"))
            collector = BatchCollector(queue, max_batch=64, max_wait=0.01)
            t0 = asyncio.get_running_loop().time()
            batch = await collector.collect()
            return batch, asyncio.get_running_loop().time() - t0

        batch, took = run(go())
        assert len(batch) == 1
        assert took < 1.0  # closed by max_wait, not by more arrivals

    def test_deadline_caps_the_wait(self):
        async def go():
            queue: asyncio.Queue = asyncio.Queue()
            loop_now = asyncio.get_running_loop().time()
            # huge max_wait, but the queued item's deadline is imminent
            import time

            queue.put_nowait(Item("tight", deadline=time.monotonic() + 0.01))
            collector = BatchCollector(queue, max_batch=64, max_wait=30.0)
            t0 = loop_now
            batch = await collector.collect()
            took = asyncio.get_running_loop().time() - t0
            return len(batch), took

        n, took = run(go())
        assert n == 1
        assert took < 5.0  # nowhere near max_wait=30

    def test_none_is_the_drain_sentinel(self):
        async def go():
            queue: asyncio.Queue = asyncio.Queue()
            queue.put_nowait(Item("a"))
            queue.put_nowait(None)
            queue.put_nowait(Item("b"))
            collector = BatchCollector(
                queue, max_batch=8, max_wait=10.0, clock=stepping_clock(10.0)
            )
            first = await collector.collect()
            second = await collector.collect()
            return [it.name for it in first], [it.name for it in second]

        assert run(go()) == (["a"], ["b"])

    def test_lone_sentinel_yields_empty_batch(self):
        async def go():
            queue: asyncio.Queue = asyncio.Queue()
            queue.put_nowait(None)
            collector = BatchCollector(queue)
            return await collector.collect()

        assert run(go()) == []

    def test_rejects_bad_parameters(self):
        queue: asyncio.Queue = asyncio.Queue()
        with pytest.raises(ValueError):
            BatchCollector(queue, max_batch=0)
        with pytest.raises(ValueError):
            BatchCollector(queue, max_wait=-1.0)
