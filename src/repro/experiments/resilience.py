"""Execution of independent work units: the package's one executor.

Every fan-out in the package — trial chunks, suite members, sweep units,
battles — goes through :func:`map_resilient`, which keeps the two
properties that matter — **submission-order results** and **bit-identical
values** — at any worker count.  What happens when a unit fails is the
caller's ``policy``:

* ``policy=None`` is **fail-fast**: one attempt per unit, and the first
  failure re-raises its original exception (``BrokenProcessPool`` included)
  in the caller, from pool workers as from the in-process map.  No
  fault-injection hooks run.
* A :class:`RetryPolicy` makes the map **supervised**.

Under a policy the map survives arbitrary fault schedules:

* **Worker crashes** (``BrokenProcessPool``): the pool is rebuilt and only
  the *lost in-flight* units are requeued; completed results are kept.
  Because the crashed worker cannot be identified among its siblings, every
  unit that was in flight at the moment of collapse is charged one
  ``worker-crash`` attempt — a safe upper bound on work, never on results.
* **Transient per-unit failures**: an attempt that raises is retried up to
  :attr:`RetryPolicy.max_attempts` times with exponential backoff.  The
  backoff jitter is derived via
  :func:`~repro.experiments.parallel.stable_seed` — never ``random.random()``
  or the wall clock — so a retried schedule is itself deterministic and can
  never perturb results (units are pure functions of their inputs; retrying
  one recomputes the identical value).
* **Hung units**: a per-unit wall-clock timeout (pool mode only — an
  in-process unit cannot be preempted).  The deadline is measured from
  submission; in-flight work is capped at the pool size so submission and
  execution start coincide.  On expiry the pool is killed and rebuilt, the
  timed-out unit is charged a ``timeout`` attempt, and its innocent
  in-flight siblings are requeued *without* an attempt charge.
* **Poison units**: a unit that fails ``max_attempts`` times is quarantined
  into a structured :class:`FailureReport` instead of aborting the map —
  the healthy units complete and the caller decides what a partial result
  means (the sweep harness completes with the healthy rows; the runner CLI
  exits nonzero with a JSON failure summary).
* **Repeated pool collapse**: after :attr:`RetryPolicy.max_pool_rebuilds`
  rebuilds the map degrades gracefully to in-process execution for the
  remaining units — slower, but immune to pool pathology.

Fault injection for the chaos tests lives in
:mod:`repro.experiments.faults`; every supervised attempt routes through
:func:`~repro.experiments.faults.maybe_inject`, which is a no-op unless the
``OSP_FAULT_PLAN`` environment variable carries a plan (the env var is what
crosses the process boundary into pool workers).  Fail-fast maps skip the
hooks, so a nested fail-fast map inside a supervised unit never re-fires
its parent's ``(unit, attempt)`` faults.

>>> policy = RetryPolicy(max_attempts=2, backoff_base=0.0)
>>> outcome = map_resilient(len, ["a", "bb", "ccc"], policy=policy)
>>> outcome.results
[1, 2, 3]
>>> outcome.ok
True
"""

from __future__ import annotations

import math
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.exceptions import MeasurementFailedError
from repro.experiments import faults
from repro.experiments.parallel import resolve_workers, stable_seed

__all__ = [
    "RetryPolicy",
    "AttemptFailure",
    "FailureReport",
    "ResilientMapResult",
    "map_resilient",
    "policy_from_options",
]

T = TypeVar("T")
R = TypeVar("R")

#: Supervisor tick: the longest the event loop blocks before re-checking
#: per-unit deadlines and backoff release times.
_TICK_SECONDS = 0.25


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervised pool retries, times out and degrades.

    ``max_attempts`` bounds the tries per unit (1 = no retry).  ``timeout``
    is the per-unit wall-clock budget in seconds (``None`` disables it;
    enforced in pool mode only).  The backoff before attempt ``n`` is
    ``backoff_base * 2**(n - 2)`` capped at ``backoff_cap``, scaled by a
    deterministic jitter in ``[0.5, 1.0)`` derived from
    :func:`~repro.experiments.parallel.stable_seed` — retries never consult
    the wall clock or a global RNG, so a faulted schedule stays a pure
    function of ``(jitter_seed, unit, attempt)``.  After
    ``max_pool_rebuilds`` pool collapses the remaining units run in-process.

    >>> policy = RetryPolicy(max_attempts=3)
    >>> policy.backoff_seconds(unit_index=4, attempt=2) == \\
    ...     policy.backoff_seconds(unit_index=4, attempt=2)
    True
    >>> 0.0 <= policy.backoff_seconds(0, 2) < policy.backoff_cap
    True
    """

    max_attempts: int = 3
    timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    jitter_seed: int = 0
    max_pool_rebuilds: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff_base and backoff_cap must be non-negative")
        if self.max_pool_rebuilds < 0:
            raise ValueError(
                f"max_pool_rebuilds must be >= 0, got {self.max_pool_rebuilds}"
            )

    def backoff_seconds(self, unit_index: int, attempt: int) -> float:
        """The deterministic pause before running ``attempt`` of one unit.

        ``attempt`` counts from 1; the first attempt never waits.
        """
        if attempt <= 1 or self.backoff_base == 0.0:
            return 0.0
        base = min(self.backoff_cap, self.backoff_base * (2.0 ** (attempt - 2)))
        jitter = (
            stable_seed("retry-jitter", self.jitter_seed, unit_index, attempt) % 1024
        ) / 1024.0
        return base * (0.5 + 0.5 * jitter)


def policy_from_options(
    max_attempts: Optional[int], timeout: Optional[float]
) -> Optional[RetryPolicy]:
    """The policy the CLIs' ``--max-attempts`` / ``--unit-timeout`` ask for.

    ``None`` (fail-fast) when both are omitted; otherwise a supervised
    policy with ``max_attempts`` defaulting to 3.

    >>> policy_from_options(None, None) is None
    True
    >>> policy_from_options(None, 30.0).max_attempts
    3
    """
    if max_attempts is None and timeout is None:
        return None
    return RetryPolicy(max_attempts=max_attempts or 3, timeout=timeout)


#: The pool loop's settings under ``policy=None``: one attempt, no timeout.
#: Fail-fast maps re-raise before the attempt budget or the rebuild budget
#: is ever consulted.
_FAIL_FAST = RetryPolicy(max_attempts=1)


@dataclass(frozen=True)
class AttemptFailure:
    """One failed attempt of one unit: what went wrong, on which try.

    ``kind`` is ``"exception"`` (the unit raised), ``"timeout"`` (the unit
    exceeded the policy's wall-clock budget) or ``"worker-crash"`` (the unit
    was in flight when its process pool collapsed).
    """

    attempt: int
    kind: str
    error: str

    def as_dict(self) -> Dict[str, object]:
        return {"attempt": self.attempt, "kind": self.kind, "error": self.error}


@dataclass(frozen=True)
class FailureReport:
    """A quarantined unit: every attempt failed, here is the evidence.

    >>> report = FailureReport(index=3, label="n=40[instance 1]", attempts=(
    ...     AttemptFailure(1, "exception", "ValueError('boom')"),))
    >>> report.as_dict()["label"]
    'n=40[instance 1]'
    """

    index: int
    label: str
    attempts: Tuple[AttemptFailure, ...]

    def as_dict(self) -> Dict[str, object]:
        """A JSON-serializable rendering (the runner's failure summary)."""
        return {
            "index": self.index,
            "label": self.label,
            "attempts": [attempt.as_dict() for attempt in self.attempts],
        }


@dataclass
class ResilientMapResult:
    """Everything :func:`map_resilient` observed, aligned with the items.

    ``results[i]`` is the value of item ``i``, or ``None`` when the unit was
    quarantined (its :class:`FailureReport` is in ``failures``).  ``ok`` is
    the no-failures predicate; ``pool_rebuilds``/``degraded``/``retries``
    describe the fault schedule the map survived.
    """

    results: List[Optional[object]]
    failures: List[FailureReport] = field(default_factory=list)
    pool_rebuilds: int = 0
    degraded: bool = False
    retries: int = 0

    @property
    def ok(self) -> bool:
        """Whether every unit produced a result."""
        return not self.failures

    def complete(self, what: str) -> List[object]:
        """Every result, or :class:`~repro.exceptions.MeasurementFailedError`.

        For callers whose output is complete or failed, never partial — a
        benefit sequence, a suite, a sweep's unit list: any quarantined unit
        raises with a message counting the failed ``what`` units by label, and
        carries their reports.

        >>> map_resilient(abs, [-1, 2]).complete("demo unit")
        [1, 2]
        """
        if self.failures:
            raise MeasurementFailedError(
                f"{len(self.failures)} {what}(s) failed after retries: "
                + ", ".join(report.label for report in self.failures),
                failures=self.failures,
            )
        return list(self.results)


def _call_unit(function: Callable[[T], R], index: int, attempt: int, item: T) -> R:
    """Run one supervised attempt of one unit, with fault-injection hooks.

    Top-level (not a closure) so process-pool workers can unpickle it.  The
    hooks are no-ops unless ``OSP_FAULT_PLAN`` is set — the chaos tests use
    them to kill this very process, raise transient errors, sleep past the
    timeout or garble store bytes, at deterministic ``(unit, attempt)``
    coordinates.
    """
    faults.maybe_inject(index, attempt, stage="start")
    result = function(item)
    faults.maybe_inject(index, attempt, stage="end")
    return result


class _UnitState:
    """Supervisor-side bookkeeping for one unit."""

    __slots__ = ("index", "attempts", "failures")

    def __init__(self, index: int) -> None:
        self.index = index
        self.attempts = 0  # failed attempts charged so far
        self.failures: List[AttemptFailure] = []


def _run_in_process(
    function: Callable[[T], R],
    items: Sequence[T],
    pending: Sequence[Tuple[int, int]],
    states: Dict[int, _UnitState],
    labels: Sequence[str],
    policy: RetryPolicy,
    outcome: ResilientMapResult,
) -> None:
    """Serial retry loop for ``pending`` ``(index, attempt)`` units.

    Used for supervised ``workers=1`` maps and as the degraded fallback
    after repeated pool collapse.  No timeout is enforced — an in-process
    unit cannot be preempted — but retries and quarantine behave exactly as
    in pool mode.
    """
    for index, attempt in pending:
        state = states[index]
        while True:
            delay = policy.backoff_seconds(index, attempt)
            if delay > 0.0:
                time.sleep(delay)
            try:
                outcome.results[index] = _call_unit(
                    function, index, attempt, items[index]
                )
                break
            except Exception as exc:  # noqa: BLE001 — every failure is recorded
                state.attempts += 1
                state.failures.append(
                    AttemptFailure(attempt=attempt, kind="exception", error=repr(exc))
                )
                if state.attempts >= policy.max_attempts:
                    outcome.failures.append(
                        FailureReport(
                            index=index,
                            label=labels[index],
                            attempts=tuple(state.failures),
                        )
                    )
                    break
                outcome.retries += 1
                attempt = state.attempts + 1


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a (possibly stuck or broken) pool down without waiting on it.

    ``shutdown(wait=False)`` alone would leave a hung worker running
    forever; the worker processes are terminated explicitly (SIGTERM, then
    SIGKILL for survivors).  Touching ``_processes`` is deliberate — the
    executor API offers no other way to reap a stuck child — and guarded,
    so a stdlib that renames the attribute degrades to a plain shutdown.
    """
    processes_map = getattr(pool, "_processes", None)
    processes = list(processes_map.values()) if isinstance(processes_map, dict) else []
    for process in processes:
        try:
            process.terminate()
        except Exception:  # already dead / already reaped
            pass
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        process.join(timeout=1.0)
        if process.is_alive():
            try:
                process.kill()
            except Exception:
                pass
            process.join(timeout=1.0)


def map_resilient(
    function: Callable[[T], R],
    items: Sequence[T],
    workers: "int | str" = 1,
    policy: Optional[RetryPolicy] = None,
    labels: Optional[Sequence[str]] = None,
) -> ResilientMapResult:
    """Apply ``function`` to every item, returning results in item order.

    ``workers=1`` (or a single item) runs in-process — no pool, no
    pickling; otherwise the items fan out over a process pool, so
    ``function`` and the items must be picklable.  Either way
    ``outcome.results`` is aligned with ``items`` and bit-identical to a
    serial run.

    ``policy=None`` is fail-fast: each unit runs once, and the first
    failure re-raises its original exception (a crashed pool worker
    surfaces as ``BrokenProcessPool``).  With a :class:`RetryPolicy`,
    worker crashes, transient exceptions and hung units are survived per
    the policy instead — retries recompute pure functions, and the
    deterministic backoff jitter never touches a global RNG — and units
    that exhaust their attempts are quarantined into
    :class:`FailureReport` records while everything else completes.

    ``labels`` (optional, aligned with ``items``) names units in failure
    reports; it defaults to ``unit[i]``.

    >>> outcome = map_resilient(abs, [-2, 3], workers=1)
    >>> (outcome.results, outcome.ok, outcome.pool_rebuilds)
    ([2, 3], True, 0)
    >>> map_resilient(int, ["1", "x"])
    Traceback (most recent call last):
    ...
    ValueError: invalid literal for int() with base 10: 'x'
    """
    fail_fast = policy is None
    policy = policy or _FAIL_FAST
    workers = resolve_workers(workers)
    items = list(items)
    if labels is None:
        labels = [f"unit[{index}]" for index in range(len(items))]
    else:
        labels = [str(label) for label in labels]
        if len(labels) != len(items):
            raise ValueError(
                f"labels must align with items: {len(labels)} != {len(items)}"
            )

    outcome = ResilientMapResult(results=[None] * len(items))
    states = {index: _UnitState(index) for index in range(len(items))}

    if workers == 1 or len(items) <= 1:
        if fail_fast:
            outcome.results = [function(item) for item in items]
        else:
            _run_in_process(
                function,
                items,
                [(index, 1) for index in range(len(items))],
                states,
                labels,
                policy,
                outcome,
            )
        return outcome

    pool_size = min(workers, len(items))
    # (index, attempt, ready_at): ready_at is a time.monotonic() release
    # time implementing backoff without blocking the supervisor.
    pending = deque((index, 1, 0.0) for index in range(len(items)))
    in_flight: Dict[object, Tuple[int, int, float]] = {}
    pool: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(max_workers=pool_size)
    outstanding = len(items)

    def _charge(index: int, attempt: int, kind: str, error: str, now: float) -> bool:
        """Record a failed attempt; requeue or quarantine.  True if requeued."""
        nonlocal outstanding
        state = states[index]
        state.attempts += 1
        state.failures.append(AttemptFailure(attempt=attempt, kind=kind, error=error))
        if state.attempts >= policy.max_attempts:
            outcome.failures.append(
                FailureReport(
                    index=index, label=labels[index], attempts=tuple(state.failures)
                )
            )
            outstanding -= 1
            return False
        outcome.retries += 1
        next_attempt = state.attempts + 1
        pending.append(
            (index, next_attempt, now + policy.backoff_seconds(index, next_attempt))
        )
        return True

    try:
        while outstanding > 0:
            # Degrade: repeated pool collapse means pooling itself is the
            # hazard; finish the remaining units serially in this process.
            if pool is None:
                outcome.degraded = True
                remaining = sorted(
                    ((index, attempt) for index, attempt, _ready in pending),
                    key=lambda entry: entry[0],
                )
                pending.clear()
                _run_in_process(
                    function, items, remaining, states, labels, policy, outcome
                )
                return outcome

            now = time.monotonic()
            # Submit ready work, capping in-flight at the pool size so a
            # submitted unit starts (approximately) immediately — that is
            # what lets the timeout deadline be measured from submission.
            for _ in range(len(pending)):
                if len(in_flight) >= pool_size:
                    break
                index, attempt, ready_at = pending[0]
                if ready_at > now:
                    pending.rotate(-1)
                    continue
                pending.popleft()
                if fail_fast:
                    future = pool.submit(function, items[index])
                else:
                    future = pool.submit(
                        _call_unit, function, index, attempt, items[index]
                    )
                deadline = (
                    now + policy.timeout if policy.timeout is not None else math.inf
                )
                in_flight[future] = (index, attempt, deadline)

            if not in_flight:
                # Everything runnable is in a backoff window; sleep to the
                # earliest release.
                next_ready = min(ready for _i, _a, ready in pending)
                time.sleep(min(_TICK_SECONDS, max(0.0, next_ready - now)) or 0.001)
                continue

            nearest_deadline = min(deadline for _i, _a, deadline in in_flight.values())
            tick = _TICK_SECONDS
            if math.isfinite(nearest_deadline):
                tick = min(tick, max(0.01, nearest_deadline - now))
            done, _running = wait(
                set(in_flight), timeout=tick, return_when=FIRST_COMPLETED
            )

            pool_broken = False
            now = time.monotonic()
            for future in done:
                index, attempt, _deadline = in_flight.pop(future)
                try:
                    outcome.results[index] = future.result()
                    outstanding -= 1
                except Exception as exc:  # noqa: BLE001 — recorded + retried
                    if fail_fast:
                        raise
                    crashed = isinstance(exc, BrokenProcessPool)
                    pool_broken = pool_broken or crashed
                    kind = "worker-crash" if crashed else "exception"
                    _charge(index, attempt, kind, repr(exc), now)

            # Timeouts: a unit past its deadline is charged a failed attempt
            # and its (stuck) pool is recycled below.
            timed_out = [
                future
                for future, (_i, _a, deadline) in in_flight.items()
                if deadline <= now
            ]
            for future in timed_out:
                index, attempt, deadline = in_flight.pop(future)
                pool_broken = True
                _charge(
                    index,
                    attempt,
                    "timeout",
                    f"unit exceeded the {policy.timeout}s wall-clock budget",
                    now,
                )

            if pool_broken:
                # The surviving in-flight units were *lost*, not failed:
                # requeue them at the same attempt, with no charge.
                for future, (index, attempt, _deadline) in in_flight.items():
                    pending.append((index, attempt, now))
                in_flight.clear()
                _terminate_pool(pool)
                outcome.pool_rebuilds += 1
                if outcome.pool_rebuilds > policy.max_pool_rebuilds:
                    pool = None
                else:
                    pool = ProcessPoolExecutor(max_workers=pool_size)
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
    return outcome
