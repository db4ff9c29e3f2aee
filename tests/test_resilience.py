"""Tests for the package's one executor (``map_resilient``).

The contract: supervision is a *wall-clock* knob, never a numerics knob.
``map_resilient`` must return exactly what a serial list comprehension
returns when nothing fails; without a policy it is fail-fast (one attempt,
the original exception, no fault hooks); under crashes, transient exceptions and timeouts it must
still return the identical values for every unit that completes; and the
retry schedule itself must be deterministic (stable-seed jitter, no global
RNG, no wall-clock-derived seeds).
"""

import pytest

from repro.experiments.parallel import resolve_workers, workers_from_env
from repro.experiments.resilience import (
    AttemptFailure,
    FailureReport,
    RetryPolicy,
    map_resilient,
)
from repro.experiments import faults


def _square(value):
    """Top-level so process-pool workers can unpickle it."""
    return value * value


def _boom(value):
    raise ValueError(f"boom({value})")


@pytest.fixture(autouse=True)
def _no_leftover_fault_plan():
    """Every test starts and ends without an installed fault plan."""
    faults.FaultPlan.uninstall()
    yield
    faults.FaultPlan.uninstall()


class TestRetryPolicy:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_pool_rebuilds=-1)

    def test_first_attempt_never_waits(self):
        assert RetryPolicy().backoff_seconds(0, 1) == 0.0

    def test_backoff_is_deterministic(self):
        a = RetryPolicy(jitter_seed=7)
        b = RetryPolicy(jitter_seed=7)
        for unit in range(5):
            for attempt in (2, 3, 4):
                assert a.backoff_seconds(unit, attempt) == b.backoff_seconds(
                    unit, attempt
                )

    def test_backoff_varies_with_jitter_seed(self):
        values_a = [RetryPolicy(jitter_seed=0).backoff_seconds(u, 2) for u in range(8)]
        values_b = [RetryPolicy(jitter_seed=1).backoff_seconds(u, 2) for u in range(8)]
        assert values_a != values_b

    def test_backoff_grows_then_caps(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.3, jitter_seed=0)
        # Jitter scales the capped base into [base/2, base); the cap is the hard roof.
        assert policy.backoff_seconds(0, 9) < 0.3
        assert policy.backoff_seconds(0, 9) >= 0.15

    def test_zero_base_disables_backoff(self):
        policy = RetryPolicy(backoff_base=0.0)
        assert policy.backoff_seconds(3, 5) == 0.0


class TestWorkersAuto:
    def test_resolve_workers_auto_is_positive(self):
        assert resolve_workers("auto") >= 1

    def test_resolve_workers_rejects_garbage(self):
        for bad in ("many", 0, -2, 1.5, True):
            with pytest.raises(ValueError):
                resolve_workers(bad)

    def test_workers_from_env_accepts_auto(self, monkeypatch):
        monkeypatch.setenv("OSP_BENCH_WORKERS", "auto")
        assert workers_from_env() == resolve_workers("auto")

    def test_workers_from_env_accepts_int(self, monkeypatch):
        monkeypatch.setenv("OSP_BENCH_WORKERS", "3")
        assert workers_from_env() == 3


class TestMapResilientFaultFree:
    @pytest.mark.parametrize("workers", (1, 2, "auto"))
    def test_matches_map_ordered(self, workers):
        items = list(range(7))
        outcome = map_resilient(_square, items, workers=workers)
        assert outcome.results == [_square(item) for item in items]
        assert outcome.ok
        assert outcome.failures == []
        assert outcome.pool_rebuilds == 0
        assert not outcome.degraded
        assert outcome.retries == 0

    def test_empty_items(self):
        outcome = map_resilient(_square, [], workers=4)
        assert outcome.results == []
        assert outcome.ok

    def test_labels_must_align(self):
        with pytest.raises(ValueError):
            map_resilient(_square, [1, 2], labels=["only-one"])


class TestMapResilientFailFast:
    """``policy=None``: one attempt, the original exception, no fault hooks."""

    @pytest.mark.parametrize("workers", (1, 2))
    def test_original_exception_propagates(self, workers):
        with pytest.raises(ValueError, match=r"^boom\([12]\)$"):
            map_resilient(_boom, [1, 2], workers=workers)

    def test_in_process_runs_each_unit_once(self):
        calls = []

        def record(value):
            calls.append(value)
            if value == 2:
                raise ValueError("second unit fails")
            return value

        assert map_resilient(record, [3, 1], workers=1).results == [3, 1]
        assert calls == [3, 1]
        calls.clear()
        with pytest.raises(ValueError, match="second unit fails"):
            map_resilient(record, [1, 2, 3], workers=1)
        assert calls == [1, 2]

    @pytest.mark.parametrize(
        "action, workers", (("raise", 1), ("raise", 2), ("kill", 2))
    )
    def test_fault_plan_does_not_fire(self, action, workers):
        faults.FaultPlan((faults.Fault(action=action, unit=0),)).install()
        outcome = map_resilient(_square, [1, 2, 3], workers=workers)
        assert outcome.results == [1, 4, 9]
        assert outcome.ok
        assert outcome.retries == 0

    def test_fabric_work_stays_supervised(self, tmp_path):
        from repro.experiments.fabric import SweepSpec, plan_manifest, work

        spec = SweepSpec(
            name="tiny",
            num_sets=14,
            element_counts=(30,),
            set_size_range=(2, 3),
            weight_range=(1.0, 5.0),
            instances_per_point=1,
            trials_per_instance=2,
            seed=5,
            algorithms=("greedy-weight",),
        )
        faults.FaultPlan((faults.Fault(action="raise", unit=0),)).install()
        report = work(
            plan_manifest(spec),
            str(tmp_path / "shard.sqlite"),
            coordination_path=str(tmp_path / "coord.sqlite"),
            policy=None,
        )
        assert report.computed == 0
        assert len(report.failures) == 1
        attempts = report.failures[0].attempts
        assert len(attempts) == RetryPolicy().max_attempts
        assert all(entry.kind == "exception" for entry in attempts)


class TestMapResilientRetries:
    def test_transient_failure_is_retried_in_process(self):
        faults.FaultPlan((faults.Fault(action="raise", unit=1, attempt=1),)).install()
        outcome = map_resilient(
            _square, [1, 2, 3], workers=1, policy=RetryPolicy(backoff_base=0.0)
        )
        assert outcome.results == [1, 4, 9]
        assert outcome.retries == 1
        assert outcome.ok

    def test_transient_failure_is_retried_in_pool(self):
        faults.FaultPlan((faults.Fault(action="raise", unit=0, attempt=1),)).install()
        outcome = map_resilient(
            _square, [1, 2, 3], workers=2, policy=RetryPolicy(backoff_base=0.0)
        )
        assert outcome.results == [1, 4, 9]
        assert outcome.retries == 1
        assert outcome.ok

    @pytest.mark.parametrize("workers", (1, 2))
    def test_poison_unit_is_quarantined(self, workers):
        faults.FaultPlan((faults.Fault(action="raise", unit=2),)).install()
        outcome = map_resilient(
            _square,
            [1, 2, 3, 4],
            workers=workers,
            policy=RetryPolicy(max_attempts=3, backoff_base=0.0),
            labels=["a", "b", "c", "d"],
        )
        assert outcome.results == [1, 4, None, 16]
        assert not outcome.ok
        assert len(outcome.failures) == 1
        report = outcome.failures[0]
        assert report.index == 2
        assert report.label == "c"
        assert len(report.attempts) == 3
        assert all(entry.kind == "exception" for entry in report.attempts)
        assert "FaultInjected" in report.attempts[0].error

    def test_every_unit_failing_does_not_hang(self):
        outcome = map_resilient(
            _boom,
            [1, 2],
            workers=2,
            policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
        )
        assert outcome.results == [None, None]
        assert len(outcome.failures) == 2

    def test_failure_report_round_trips_to_json(self):
        report = FailureReport(
            index=0,
            label="demo",
            attempts=(AttemptFailure(1, "timeout", "budget exceeded"),),
        )
        rendered = report.as_dict()
        assert rendered["label"] == "demo"
        assert rendered["attempts"][0]["kind"] == "timeout"


class TestMapResilientCrashes:
    def test_worker_kill_is_survived(self):
        faults.FaultPlan((faults.Fault(action="kill", unit=1, attempt=1),)).install()
        outcome = map_resilient(
            _square,
            list(range(5)),
            workers=2,
            policy=RetryPolicy(backoff_base=0.0),
        )
        assert outcome.results == [0, 1, 4, 9, 16]
        assert outcome.pool_rebuilds >= 1
        assert outcome.ok

    def test_repeated_collapse_degrades_to_in_process(self):
        # Kill unit 0 on *every* attempt: each pool incarnation dies, and the
        # map must fall back to in-process execution, where the kill fault is
        # a no-op by design (the supervising process must not shoot itself).
        faults.FaultPlan((faults.Fault(action="kill", unit=0),)).install()
        outcome = map_resilient(
            _square,
            list(range(4)),
            workers=2,
            policy=RetryPolicy(
                max_attempts=10, backoff_base=0.0, max_pool_rebuilds=1
            ),
        )
        assert outcome.results == [0, 1, 4, 9]
        assert outcome.degraded
        assert outcome.pool_rebuilds == 2
        assert outcome.ok

    def test_timeout_charges_only_the_stuck_unit(self):
        faults.FaultPlan(
            (faults.Fault(action="sleep", unit=1, attempt=1, seconds=30.0),)
        ).install()
        outcome = map_resilient(
            _square,
            [1, 2, 3],
            workers=2,
            policy=RetryPolicy(backoff_base=0.0, timeout=1.0),
        )
        assert outcome.results == [1, 4, 9]
        assert outcome.ok
        # The sleeping unit was charged exactly one timeout attempt, retried
        # (attempt 2 has no matching fault) and completed.
        assert outcome.retries == 1
        assert outcome.pool_rebuilds >= 1

    def test_timeout_exhaustion_quarantines(self):
        faults.FaultPlan(
            (faults.Fault(action="sleep", unit=0, seconds=30.0),)
        ).install()
        outcome = map_resilient(
            _square,
            [1, 2],
            workers=2,
            policy=RetryPolicy(max_attempts=2, backoff_base=0.0, timeout=0.8),
        )
        assert outcome.results == [None, 4]
        assert len(outcome.failures) == 1
        assert all(
            entry.kind == "timeout" for entry in outcome.failures[0].attempts
        )
