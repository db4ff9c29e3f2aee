"""Deterministic fault injection for the resilient experiment harness.

The bit-identity guarantee this repo inherits from the PRAM literature —
deterministic results under any scheduler — must extend to *arbitrary fault
schedules*: a sweep that survives crashes has to return the same bits as
one that never saw them.  Proving that needs a way to *cause* the crashes
deterministically.  This module is that mechanism: a :class:`FaultPlan` is
a list of :class:`Fault` directives addressed by ``(unit, attempt, stage)``
coordinates, serialized into the ``OSP_FAULT_PLAN`` environment variable so
it crosses the process boundary into pool workers (exactly like
``OSP_STORE`` does for the solution store).

Four actions cover the failure modes the supervised pool
(:mod:`repro.experiments.resilience`) must survive:

* ``"kill"`` — SIGKILL the executing process mid-unit.  Fires **only in
  pool worker processes** (detected via ``multiprocessing.parent_process``);
  in the supervising process it is a no-op, so a degraded in-process retry
  survives a kill-every-attempt plan by construction.
* ``"raise"`` — raise a transient :class:`FaultInjected` at the addressed
  attempt (omit ``attempt`` for a poison unit that fails every try).
* ``"sleep"`` — sleep ``seconds``, to push a unit past the policy timeout.
* ``"garble-store"`` — flip bytes inside the solution-store file between
  units, exercising the store's checksum/quarantine path under load.

The hook, :func:`maybe_inject`, is called by the resilient map around every
unit attempt and is a no-op (one ``os.environ`` read) when no plan is
installed — production sweeps pay nothing for the machinery.

>>> plan = FaultPlan((Fault(action="raise", unit=0, attempt=1),))
>>> FaultPlan.from_json(plan.to_json()) == plan
True
>>> FaultPlan.seeded(seed=7, num_units=10) == FaultPlan.seeded(seed=7, num_units=10)
True
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time
from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple

from repro.experiments.parallel import stable_seed

__all__ = [
    "FAULT_PLAN_ENV_VAR",
    "Fault",
    "FaultInjected",
    "FaultPlan",
    "active_plan",
    "maybe_inject",
]

#: Environment variable carrying the JSON-serialized plan.  Set in the
#: parent process, inherited by pool workers on fork/spawn.
FAULT_PLAN_ENV_VAR = "OSP_FAULT_PLAN"


class FaultInjected(RuntimeError):
    """The transient exception raised by a ``"raise"`` fault.

    Deliberately *not* an :class:`~repro.exceptions.OspError`: an injected
    fault models an arbitrary environmental failure (OOM, a dropped
    connection), not a library error.

    >>> issubclass(FaultInjected, RuntimeError)
    True
    """


@dataclass(frozen=True)
class Fault:
    """One fault directive, addressed by ``(unit, attempt, stage)``.

    ``unit`` / ``attempt`` of ``None`` match every unit / every attempt.
    ``stage`` is ``"start"`` (before the unit body runs — before any store
    write-back) or ``"end"`` (after the unit body returned — after its
    write-back), letting crash tests hit both sides of the persistence
    boundary.  ``seconds`` parameterizes ``"sleep"``; ``path`` overrides the
    ``"garble-store"`` target (default: the ``OSP_STORE`` file).

    >>> Fault(action="kill", unit=2).matches(unit=2, attempt=5, stage="start")
    True
    >>> Fault(action="kill", unit=2, attempt=1).matches(2, 2, "start")
    False
    """

    action: str
    unit: Optional[int] = None
    attempt: Optional[int] = None
    stage: str = "start"
    seconds: float = 0.0
    path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.action not in ("kill", "raise", "sleep", "garble-store"):
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.stage not in ("start", "end"):
            raise ValueError(f"unknown fault stage {self.stage!r}")

    def matches(self, unit: int, attempt: int, stage: str) -> bool:
        """Whether this fault fires at the given coordinates."""
        return (
            (self.unit is None or self.unit == unit)
            and (self.attempt is None or self.attempt == attempt)
            and self.stage == stage
        )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of fault directives, serializable through one env var.

    >>> plan = FaultPlan((Fault(action="sleep", unit=1, seconds=2.0),))
    >>> [fault.action for fault in plan.matching(1, 1, "start")]
    ['sleep']
    >>> plan.matching(0, 1, "start")
    []
    """

    faults: Tuple[Fault, ...] = ()

    def matching(self, unit: int, attempt: int, stage: str) -> List[Fault]:
        """The faults that fire at ``(unit, attempt, stage)``, in plan order."""
        return [fault for fault in self.faults if fault.matches(unit, attempt, stage)]

    def to_json(self) -> str:
        """The plan as the JSON document ``OSP_FAULT_PLAN`` carries."""
        return json.dumps(
            {"faults": [asdict(fault) for fault in self.faults]}, sort_keys=True
        )

    @classmethod
    def from_json(cls, raw: str) -> "FaultPlan":
        """Parse a :meth:`to_json` document (unknown keys are rejected)."""
        document = json.loads(raw)
        return cls(
            faults=tuple(Fault(**entry) for entry in document.get("faults", ()))
        )

    @classmethod
    def seeded(
        cls,
        seed: int,
        num_units: int,
        kills: int = 1,
        transients: int = 1,
        sleeps: int = 0,
        sleep_seconds: float = 5.0,
    ) -> "FaultPlan":
        """A deterministic plan with victims drawn via ``stable_seed``.

        The chaos CI job uses this: the same ``(seed, num_units)`` always
        injures the same units at the same attempts, on every platform and
        ``PYTHONHASHSEED``, so a failing fault schedule is reproducible by
        number alone.

        >>> plan = FaultPlan.seeded(seed=0, num_units=8, kills=1, transients=2)
        >>> sorted(fault.action for fault in plan.faults)
        ['kill', 'raise', 'raise']
        """
        if num_units < 1:
            raise ValueError(f"num_units must be >= 1, got {num_units}")
        faults: List[Fault] = []
        for index in range(kills):
            victim = stable_seed("fault-kill", seed, index) % num_units
            faults.append(Fault(action="kill", unit=victim, attempt=1))
        for index in range(transients):
            victim = stable_seed("fault-raise", seed, index) % num_units
            faults.append(Fault(action="raise", unit=victim, attempt=1))
        for index in range(sleeps):
            victim = stable_seed("fault-sleep", seed, index) % num_units
            faults.append(
                Fault(action="sleep", unit=victim, attempt=1, seconds=sleep_seconds)
            )
        return cls(faults=tuple(faults))

    def install(self) -> None:
        """Publish the plan via ``OSP_FAULT_PLAN`` for this process tree."""
        os.environ[FAULT_PLAN_ENV_VAR] = self.to_json()

    @staticmethod
    def uninstall() -> None:
        """Remove any installed plan (no-op when none is set)."""
        os.environ.pop(FAULT_PLAN_ENV_VAR, None)


#: Parse cache: the env string is read on every hook call, but the JSON is
#: only re-parsed when its value changes.
_PARSED: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)


def active_plan() -> Optional[FaultPlan]:
    """The installed :class:`FaultPlan`, or ``None`` (the hot no-plan path).

    A malformed ``OSP_FAULT_PLAN`` raises immediately rather than silently
    disabling injection — a chaos test with a typo must fail loudly, not
    pass vacuously.

    >>> FaultPlan.uninstall()
    >>> active_plan() is None
    True
    """
    global _PARSED
    raw = os.environ.get(FAULT_PLAN_ENV_VAR)
    if not raw:
        return None
    cached_raw, cached_plan = _PARSED
    if raw != cached_raw:
        _PARSED = (raw, FaultPlan.from_json(raw))
    return _PARSED[1]


def _in_worker_process() -> bool:
    """Whether this process is a multiprocessing child (a pool worker)."""
    return multiprocessing.parent_process() is not None


def _garble_file(path: str) -> None:
    """Flip a run of bytes near the end of ``path`` (payload, not header).

    Targets the tail because SQLite keeps its header and schema pages at
    the front — garbling there quarantines the whole file, while the tail
    holds row payloads whose corruption exercises the per-row checksum
    path.  Both outcomes are survivable; the tests want the finer one more
    often.  A missing file is a no-op (store-off runs).
    """
    try:
        size = os.path.getsize(path)
    except OSError:
        return
    if size == 0:
        return
    offset = max(0, size - 512)
    length = min(64, size - offset)
    with open(path, "r+b") as handle:
        handle.seek(offset)
        chunk = handle.read(length)
        handle.seek(offset)
        handle.write(bytes(byte ^ 0xFF for byte in chunk))


def _fire(fault: Fault, unit: int, attempt: int) -> None:
    if fault.action == "kill":
        if _in_worker_process():
            os.kill(os.getpid(), signal.SIGKILL)
        return  # in the supervising process a kill is a no-op by design
    if fault.action == "raise":
        raise FaultInjected(
            f"injected transient failure (unit {unit}, attempt {attempt})"
        )
    if fault.action == "sleep":
        time.sleep(fault.seconds)
        return
    if fault.action == "garble-store":
        target = fault.path or os.environ.get("OSP_STORE")
        if target:
            _garble_file(target)


def maybe_inject(unit: int, attempt: int, stage: str = "start") -> None:
    """Fire every installed fault addressed to ``(unit, attempt, stage)``.

    Called by :func:`repro.experiments.resilience.map_resilient` around each
    *supervised* unit attempt (a ``RetryPolicy`` was given), in whichever
    process executes it.  Fail-fast maps (``policy=None``) never call it, so
    a nested fail-fast map inside a faulted unit cannot re-fire the parent's
    ``(unit, attempt)`` coordinates.  With no plan installed this is a
    single environment read.

    >>> FaultPlan.uninstall()
    >>> maybe_inject(0, 1)          # no plan: nothing happens
    """
    plan = active_plan()
    if plan is None:
        return
    for fault in plan.matching(unit, attempt, stage):
        _fire(fault, unit, attempt)
