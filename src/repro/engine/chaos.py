"""Deterministic fault injection for the resilient execution engine.

Production caching pipelines must survive crashed workers, hung solves,
and corrupted partial results; a fault-tolerance layer that is never
exercised is a fault-tolerance layer that does not work.  This module
injects those failures *deterministically* so the resilience machinery
of :mod:`repro.engine.resilience` can be proven under test:

* a :class:`FaultPlan` assigns each serving unit a fault kind (or none)
  from a seeded hash of the unit label -- the same unit draws the same
  fault on the serial rung and the process pool, in every process, and
  on every re-run;
* faults fire only on a unit's first ``attempts`` tries (default 1), so
  a retrying dispatcher converges to the exact no-chaos result;
* the plan is a tiny frozen dataclass, safe to pickle into pool workers.

Fault kinds
-----------
``crash``
    The unit solve raises :class:`ChaosError` (a transient unit failure).
``kill``
    Inside a real process-pool worker the whole process dies via
    ``os._exit`` -- the parent observes ``BrokenProcessPool`` and must
    degrade to the serial rung.  In the parent process it downgrades to
    a ``crash`` (killing the host would take the test runner with it).
``delay``
    The solve sleeps ``delay_seconds`` before running, long enough to
    trip a per-unit timeout.
``corrupt``
    The solve completes but its report's cost is replaced with NaN; the
    dispatcher's finite-cost audit must catch and retry it.

Enabling chaos
--------------
Pass a plan explicitly (``ResilienceConfig(chaos=FaultPlan(...))``) or
set the ``REPRO_CHAOS`` env knob, e.g.::

    REPRO_CHAOS="seed=7,crash=0.2,delay=0.1,delay_seconds=0.02"

The env knob is only consulted by a dispatch config that leaves
``chaos=None`` -- an explicit ``ResilienceConfig``, or the sharded
driver's default; solves that pass no ``resilience=`` never inject.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import math
import os
import time
from dataclasses import dataclass
from typing import Optional

from ..errors import ReproError

log = logging.getLogger(__name__)

__all__ = ["CHAOS_ENV", "ChaosError", "FaultPlan", "chaos_from_env"]

#: Environment variable holding a ``key=value,key=value`` fault spec.
CHAOS_ENV = "REPRO_CHAOS"

#: Injection order: the unit's uniform draw is matched against the
#: cumulative fractions in this order.
_FAULT_KINDS = ("crash", "kill", "delay", "corrupt")


class ChaosError(ReproError):
    """An injected (synthetic) unit-solve failure."""

    def __init__(self, unit: str, attempt: int, kind: str = "crash"):
        self.unit = unit
        self.attempt = attempt
        self.kind = kind
        super().__init__(
            f"chaos: injected {kind} in unit {unit} (attempt {attempt})"
        )

    def __reduce__(self):
        # exceptions unpickle as cls(*args); ours takes (unit, attempt,
        # kind), not the formatted message, so spell the fields out --
        # process-pool workers ship these back to the parent.
        return (ChaosError, (self.unit, self.attempt, self.kind))


@dataclass(frozen=True)
class FaultPlan:
    """Seeded assignment of faults to serving units.

    Parameters
    ----------
    seed:
        Determinism anchor; two plans with equal fields make identical
        decisions everywhere.
    crash / kill / delay / corrupt:
        Fraction of units (in ``[0, 1]``, summing to at most 1) drawing
        each fault kind.  A unit draws at most one kind, fixed by its
        label's hash -- independent of pool backend or dispatch order.
    delay_seconds:
        Sleep injected into ``delay``-faulted solves.
    attempts:
        Number of leading attempts per unit that fault (default 1: the
        first try fails, the first retry succeeds).  ``attempts`` large
        enough makes a unit fail forever -- the knob for exercising
        ``on_unit_error`` policies.
    """

    seed: int = 0
    crash: float = 0.0
    kill: float = 0.0
    delay: float = 0.0
    corrupt: float = 0.0
    delay_seconds: float = 0.05
    attempts: int = 1

    def __post_init__(self) -> None:
        total = 0.0
        for kind in _FAULT_KINDS:
            frac = getattr(self, kind)
            if not 0.0 <= frac <= 1.0:
                raise ValueError(f"fault fraction {kind}={frac} outside [0, 1]")
            total += frac
        if total > 1.0 + 1e-12:
            raise ValueError(f"fault fractions sum to {total} > 1")
        if self.delay_seconds < 0:
            raise ValueError("delay_seconds must be non-negative")
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")

    # -- decisions -------------------------------------------------------
    def draw(self, unit: str) -> float:
        """The unit's uniform draw in ``[0, 1)`` (seeded, label-stable)."""
        h = hashlib.blake2b(
            f"{self.seed}\x1f{unit}".encode(), digest_size=8
        ).digest()
        return int.from_bytes(h, "little") / 2.0**64

    def fault_for(self, unit: str, attempt: int) -> Optional[str]:
        """The fault kind hitting ``unit`` on ``attempt`` (1-based), or
        ``None``.  Attempts beyond :attr:`attempts` never fault."""
        if attempt > self.attempts:
            return None
        u = self.draw(unit)
        edge = 0.0
        for kind in _FAULT_KINDS:
            edge += getattr(self, kind)
            if u < edge:
                return kind
        return None

    # -- injection (runs inside the solve, any backend) ------------------
    def before_solve(self, unit: str, attempt: int, *, in_subprocess: bool) -> bool:
        """Fire any pre-solve fault for ``(unit, attempt)``.

        Raises :class:`ChaosError` (``crash``, and ``kill`` outside a
        real subprocess), kills the process (``kill`` in a subprocess),
        or sleeps (``delay``).  Returns ``True`` when the completed
        result must be corrupted afterwards.
        """
        kind = self.fault_for(unit, attempt)
        if kind is None:
            return False
        log.warning(
            "chaos: injecting %s [unit=%s attempt=%d subprocess=%s]",
            kind, unit, attempt, in_subprocess,
        )
        if kind == "kill" and in_subprocess:
            os._exit(17)
        if kind in ("crash", "kill"):
            raise ChaosError(unit, attempt, kind)
        if kind == "delay":
            time.sleep(self.delay_seconds)
            return False
        return True  # corrupt

    @staticmethod
    def corrupt_report(report):
        """Return ``report`` with its DP cost replaced by NaN (the
        signature of a corrupted unit result)."""
        return dataclasses.replace(report, package_cost=math.nan)


def chaos_from_env(env: Optional[str] = None) -> Optional[FaultPlan]:
    """Parse the ``REPRO_CHAOS`` knob into a :class:`FaultPlan`.

    ``env`` overrides the environment (tests); an unset/empty knob means
    no chaos.  The spec is ``key=value`` pairs joined by commas, with
    keys matching the :class:`FaultPlan` fields::

        REPRO_CHAOS="seed=7,crash=0.2,attempts=1"

    Unknown keys and malformed values raise ``ValueError`` -- a chaos
    run that silently injects nothing would defeat its purpose.
    """
    spec = os.environ.get(CHAOS_ENV, "") if env is None else env
    spec = spec.strip()
    if not spec:
        return None
    fields = {f.name: f.type for f in dataclasses.fields(FaultPlan)}
    kwargs = {}
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise ValueError(f"malformed {CHAOS_ENV} token {token!r}")
        key, value = (part.strip() for part in token.split("=", 1))
        if key not in fields:
            raise ValueError(
                f"unknown {CHAOS_ENV} key {key!r}; known: {sorted(fields)}"
            )
        caster = int if key in ("seed", "attempts") else float
        try:
            kwargs[key] = caster(value)
        except ValueError as exc:
            raise ValueError(
                f"bad {CHAOS_ENV} value for {key}: {value!r}"
            ) from exc
    return FaultPlan(**kwargs)
