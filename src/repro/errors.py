"""Structured error taxonomy of the library.

Every failure the resilience layer (:mod:`repro.engine.resilience`) or
the trace loaders (:mod:`repro.trace.io`) raise on purpose derives from
:class:`ReproError`, so callers can catch the whole
family with one ``except`` clause while tests and logs still see the
precise failure kind.  Each subclass carries enough context to act on --
the serving-unit label and how many attempts were burned -- instead of
a bare traceback from deep inside a DP recurrence.  A broken process
pool raises nothing: the dispatcher always falls back to its serial
rung.

The hierarchy::

    ReproError
    ├── UnitSolveError      one serving unit kept failing after retries
    │   └── (ChaosError is the usual *cause* under fault injection;
    │        see repro.engine.chaos)
    ├── UnitTimeoutError    one serving unit exceeded its per-unit timeout
    ├── TraceRowError       a trace file line the CSV loaders refuse
    │                       (also a ValueError)
    └── RequestRowError     a request a sequence refuses, by its index
                            (also a ValueError)
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ReproError",
    "RequestRowError",
    "TraceRowError",
    "UnitSolveError",
    "UnitTimeoutError",
]


class ReproError(Exception):
    """Base class of every structured error raised by this library."""


class TraceRowError(ReproError, ValueError):
    """A trace file line the CSV loaders refuse: a dirty row in raise
    mode, a wrong header, or a bad or misplaced metadata line.

    Attributes
    ----------
    line:
        The 1-based line number (:mod:`csv`'s ``line_num``: the last
        physical line of the record).
    message:
        What is wrong with that line; ``str()`` prefixes the line.
    """

    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")

    def __reduce__(self):
        return type(self), (self.line, self.message)


class RequestRowError(ReproError, ValueError):
    """A request a :class:`~repro.cache.model.RequestSequence` (or a DP
    solver's trajectory audit) refuses: ``index``, ``server`` and
    ``time`` as given (``None`` for a row that is no ``(server, time,
    items)``), and ``message``, the first rule it breaks."""

    def __init__(self, index: int, server, time, message: str):
        self.index, self.server, self.time, self.message = index, server, time, message
        where = "" if server is None and time is None else f" (server {server}, t={time!r})"
        super().__init__(f"request[{index}]{where}: {message}")

    def __reduce__(self):
        return type(self), (self.index, self.server, self.time, self.message)


class UnitSolveError(ReproError):
    """A serving unit's solve failed on every allowed attempt.

    Attributes
    ----------
    unit:
        Human-readable unit label (``"pkg(1,2)"`` / ``"item(7)"``).
    attempts:
        Total attempts burned (first try + retries).
    """

    def __init__(self, unit: str, attempts: int, cause: Optional[BaseException] = None):
        self.unit = unit
        self.attempts = attempts
        detail = f": {cause!r}" if cause is not None else ""
        super().__init__(
            f"serving unit {unit} failed after {attempts} attempt(s){detail}"
        )
        if cause is not None:
            self.__cause__ = cause


class UnitTimeoutError(ReproError):
    """A serving unit's solve exceeded the per-unit timeout on every
    allowed attempt.

    Attributes
    ----------
    unit:
        Human-readable unit label.
    timeout:
        The per-unit timeout in seconds.
    attempts:
        Total attempts burned (first try + retries).
    """

    def __init__(self, unit: str, timeout: float, attempts: int):
        self.unit = unit
        self.timeout = timeout
        self.attempts = attempts
        super().__init__(
            f"serving unit {unit} timed out after {timeout:g}s "
            f"on each of {attempts} attempt(s)"
        )

