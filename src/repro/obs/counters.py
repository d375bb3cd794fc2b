"""A flat registry absorbing counters from every subsystem.

PR 1 left the engine's :class:`~repro.engine.parallel.EngineStats` and
the :class:`~repro.engine.memo.SolverMemo` hit/miss counters with no
unified sink: the CLI printed one, harness params carried the other.
:class:`CounterRegistry` is that sink -- a namespaced ``name -> value``
map that any dataclass of counters or plain stats dict can be absorbed
into, and that serialises straight into the metrics snapshot.

The registry is duck-typed on purpose: it never imports the engine (the
engine imports :mod:`repro.core`, which imports this package, so a
direct import would be circular).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping, Union

__all__ = ["CounterRegistry"]

Value = Union[int, float, str]


class CounterRegistry:
    """Flat, namespaced counter map (``"engine.memo_hits" -> 12``)."""

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values: Dict[str, Value] = {}

    def set(self, name: str, value: Value) -> None:
        self._values[name] = value

    def add(self, name: str, delta: Union[int, float] = 1) -> None:
        current = self._values.get(name, 0)
        if not isinstance(current, (int, float)):
            raise TypeError(f"counter {name!r} holds non-numeric {current!r}")
        self._values[name] = current + delta

    def get(self, name: str, default: Value = 0) -> Value:
        return self._values.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __len__(self) -> int:
        return len(self._values)

    def absorb(self, values: Mapping[str, Value], prefix: str = "") -> None:
        """Merge a stats mapping, optionally namespaced by ``prefix``."""
        for key, value in values.items():
            self._values[f"{prefix}{key}"] = value

    def absorb_stats(self, stats: object, prefix: str) -> None:
        """Merge a counters dataclass (e.g. ``EngineStats``) field by field.

        Non-field read-only derived properties are not picked up by
        ``dataclasses.asdict``; callers add those explicitly when wanted.
        """
        if not dataclasses.is_dataclass(stats):
            raise TypeError(f"expected a dataclass of counters, got {stats!r}")
        self.absorb(dataclasses.asdict(stats), prefix=prefix)

    def numeric_items(self) -> Dict[str, Union[int, float]]:
        """Only the numeric counters, sorted by name.

        The metrics v3 aggregate and the Prometheus exporter sum
        counters across runs; string-valued entries (e.g. the
        ``engine.pool`` label) are skipped -- summing labels is
        meaningless.  Booleans pass through as 0/1.
        """
        return {
            name: value
            for name, value in sorted(self._values.items())
            if isinstance(value, (int, float)) and not isinstance(value, str)
        }

    def snapshot(self) -> Dict[str, Value]:
        """JSON-ready copy, sorted by name."""
        return dict(sorted(self._values.items()))
