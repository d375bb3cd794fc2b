"""Batch collector: the engine's ingress queue, grouped into batches.

The serving engine answers requests in *batches*: one synchronous
:meth:`~repro.core.online_dpg.OnlineDPGreedyState.step` sweep per
batch amortises the event-loop overhead over many requests and gives
the state a natural atomicity boundary.  The collector owns the
ingress queue -- a :class:`collections.deque` bounded by ``limit``,
and one wake-up future its consumer sleeps on while the queue is
empty -- and implements the standard max-batch-size + max-wait
grouping over it:

* the first request is awaited unconditionally (an idle service burns
  no CPU);
* once a batch is open, further requests are taken greedily while
  queued, and otherwise awaited until ``max_wait`` seconds have passed
  since the batch opened or the batch is full;
* per-request deadline budgets shorten the wait -- a batch never idles
  past the earliest deadline of the requests it already holds, so a
  tight-deadline request is not expired by the collector's own
  grouping delay.

``None`` items are drain sentinels: they terminate collection
immediately so a shutdown never waits out ``max_wait``.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Callable, List, Optional

__all__ = ["BatchCollector"]


def _wake(waiter: "asyncio.Future", arrived: bool) -> None:
    if not waiter.done():
        waiter.set_result(arrived)


class BatchCollector:
    """A bounded ingress queue with max-batch-size + max-wait grouping.

    ``put`` queues an item and wakes a waiting ``collect``; it refuses
    (returns ``False``) once ``limit`` items are queued (``None``: no
    bound).  One consumer calls ``collect``.  Items may expose a
    ``deadline`` attribute (absolute, on the injected monotonic clock);
    the earliest deadline in the open batch caps the grouping wait.
    The collector never drops or reorders items -- expiry is the
    engine's decision, made just before the batch executes.
    """

    def __init__(
        self,
        *,
        limit: Optional[int] = None,
        max_batch: int = 64,
        max_wait: float = 0.005,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if limit is not None and limit < 1:
            raise ValueError("limit must be at least 1 (or None)")
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_wait < 0:
            raise ValueError("max_wait must be non-negative")
        self.limit = limit
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.clock = clock
        self.batches = 0
        self._items: deque = deque()
        self._waiter: Optional[asyncio.Future] = None

    def __len__(self) -> int:
        """Items queued, drain sentinels included."""
        return len(self._items)

    def put(self, item: object) -> bool:
        """Queue ``item`` (``None`` is the drain sentinel); ``False``,
        with nothing queued, when the queue already holds ``limit``."""
        items = self._items
        if self.limit is not None and len(items) >= self.limit:
            return False
        items.append(item)
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(True)
        return True

    def take_all(self) -> List[object]:
        """Empty the queue; returns what it held, in order."""
        items = list(self._items)
        self._items.clear()
        return items

    async def _arrival(self, timeout: Optional[float] = None) -> bool:
        """Sleep until ``put`` queues an item (``True``) or ``timeout``
        seconds pass (``False``)."""
        loop = asyncio.get_running_loop()
        waiter = self._waiter = loop.create_future()
        timer = None if timeout is None else loop.call_later(timeout, _wake, waiter, False)
        try:
            return await waiter
        finally:
            self._waiter = None
            if timer is not None:
                timer.cancel()

    async def collect(self) -> List[object]:
        """One batch: ``[item, ...]``, ending on a ``None`` sentinel.

        The sentinel itself is not returned; an empty list means the
        queue yielded only the sentinel (drain with nothing queued).
        """
        items = self._items
        while not items:
            await self._arrival()
        first = items.popleft()
        if first is None:
            return []
        batch: List[object] = [first]
        cutoff = self.clock() + self.max_wait
        deadline = getattr(first, "deadline", None)
        if deadline is not None:
            cutoff = min(cutoff, deadline)
        while len(batch) < self.max_batch:
            if not items:
                # nothing queued: wait for an arrival until the cutoff
                remaining = cutoff - self.clock()
                if remaining <= 0 or not await self._arrival(remaining):
                    break
            item = items.popleft()
            if item is None:
                break
            batch.append(item)
            deadline = getattr(item, "deadline", None)
            if deadline is not None:
                cutoff = min(cutoff, deadline)
        self.batches += 1
        return batch
