"""Tests for the battle harness (:mod:`repro.battles`).

Four contracts under test:

1. **Ratio semantics** — degenerate (zero/starved) rounds yield explicit
   neutral/inf ratios, never ``ZeroDivisionError``, both in
   :func:`repro.battles.battle_ratio` and in the Theorem 3 adversary's
   :class:`~repro.lowerbounds.deterministic_adversary.AdversaryResult`.
2. **Determinism** — battle outcomes are bit-identical across
   workers ∈ {1, 2, 4} and with the store off, cold or warm.
3. **Frontier regression check** — the golden fixture matches a fresh smoke
   match, and an artificially degraded algorithm (a randPr subclass with an
   inverted priority rule, same reported name) demonstrably trips it.
4. **Store plumbing** — battle rounds land in the ``frontiers`` table under
   content-addressed keys; uncacheable parties bypass the store.
"""

import os

import pytest

from repro.algorithms import (
    FirstListedAlgorithm,
    GreedyWeightAlgorithm,
    RandPrAlgorithm,
)
from repro.battles import (
    Battle,
    BattleRound,
    DeterministicAdversaryEscalator,
    Frontier,
    GadgetEscalator,
    GOLDEN_FRONTIERS_PATH,
    Lemma9Escalator,
    battle_key,
    battle_ratio,
    check_frontiers,
    compare_frontiers,
    load_frontiers,
    round_seed,
    run_match,
    run_smoke_match,
    save_frontiers,
    smoke_escalators,
    SMOKE_SEED,
    SMOKE_TRIALS,
)
from repro.engine import clear_compile_cache
from repro.exceptions import FrontierRegressionError
from repro.experiments.opt_cache import default_opt_cache
from repro.experiments.store import STORE_ENV_VAR, store_for_path
from repro.lowerbounds import AdversaryResult, run_deterministic_adversary


@pytest.fixture(autouse=True)
def _isolate_default_cache(monkeypatch):
    """Keep the process-wide default cache free of test store attachments."""
    monkeypatch.delenv(STORE_ENV_VAR, raising=False)
    cache = default_opt_cache()
    cache.clear()
    cache.store = None
    clear_compile_cache()
    yield
    cache = default_opt_cache()
    cache.clear()
    cache.store = None


# ---------------------------------------------------------------------------
# 1. Ratio semantics (satellite: zero/degenerate OPT benefit).
# ---------------------------------------------------------------------------


class TestRatioSemantics:
    def test_battle_ratio_plain(self):
        assert battle_ratio(8.0, 2.0) == 4.0

    def test_battle_ratio_degenerate_opt_is_neutral(self):
        # 0/0 and 0/positive: a worthless OPT certificate says nothing about
        # the algorithm -- neutral 1.0, never 0 and never an exception.
        assert battle_ratio(0.0, 0.0) == 1.0
        assert battle_ratio(0.0, 5.0) == 1.0
        assert battle_ratio(-1.0, 5.0) == 1.0

    def test_battle_ratio_starved_algorithm_is_inf(self):
        assert battle_ratio(3.0, 0.0) == float("inf")
        assert battle_ratio(3.0, -1.0) == float("inf")

    def test_adversary_result_degenerate_no_zero_division(self):
        # Regression: AdversaryResult.ratio used to raise ZeroDivisionError
        # on an empty OPT certificate.
        degenerate = AdversaryResult(
            instance=None,
            algorithm_name="x",
            sigma=2,
            k=2,
            algorithm_completed=frozenset(),
            opt_solution=frozenset(),
        )
        assert degenerate.ratio == 1.0

    def test_adversary_result_starved_is_inf(self):
        starved = AdversaryResult(
            instance=None,
            algorithm_name="x",
            sigma=2,
            k=2,
            algorithm_completed=frozenset(),
            opt_solution=frozenset({"S0"}),
        )
        assert starved.ratio == float("inf")

    def test_adversary_result_normal_ratio_unchanged(self):
        result = run_deterministic_adversary(GreedyWeightAlgorithm(), sigma=2, k=2)
        assert result.ratio == result.opt_benefit / result.algorithm_benefit


# ---------------------------------------------------------------------------
# 2. Differential determinism: workers x store state.
# ---------------------------------------------------------------------------


class TestMatchDeterminism:
    def test_bit_identical_across_workers_and_store_states(self, tmp_path):
        # The full contract in one sweep: the baseline (workers=1, store off)
        # must be reproduced bit-for-bit at every worker count, by a cold
        # store run (computing + persisting) and by a warm store run
        # (answering from disk).
        baseline = run_smoke_match(workers=1, store=False)
        for workers in (2, 4):
            assert run_smoke_match(workers=workers, store=False) == baseline

        path = str(tmp_path / "battles.sqlite")
        cold = run_smoke_match(workers=2, store=path)
        assert cold == baseline
        store = store_for_path(path)
        assert store.stats()["frontier_entries"] > 0

        warm = run_smoke_match(workers=1, store=path)
        assert warm == baseline
        # The warm run answered every cacheable round from the store.
        assert store_for_path(path).stats()["frontier_hits"] > 0

    def test_round_seed_shared_across_algorithms(self):
        # Paired comparison: the round seed is a function of the escalator
        # and level only, so every algorithm faces the same draw.
        assert round_seed(7, "lemma9", 0) == round_seed(7, "lemma9", 0)
        assert round_seed(7, "lemma9", 0) != round_seed(7, "lemma9", 1)
        assert round_seed(7, "lemma9", 0) != round_seed(8, "lemma9", 0)

    def test_grid_order_is_algorithm_major(self):
        result = run_smoke_match(max_rounds=1)
        cells = [(b.algorithm_name, b.escalator_name) for b in result.battles]
        escalator_names = [e.name for e in smoke_escalators()]
        assert cells == [
            (algorithm, escalator)
            for algorithm in ("randPr", "greedy-weight")
            for escalator in escalator_names
        ]


# ---------------------------------------------------------------------------
# 3. Battle/escalator behaviour.
# ---------------------------------------------------------------------------


class TestBattleBehaviour:
    def test_adversary_escalator_declines_randomized(self):
        result = Battle(
            RandPrAlgorithm(), DeterministicAdversaryEscalator(), store=False
        ).run()
        assert result.stop_reason == "not-applicable"
        assert result.rounds == ()

    def test_adversary_escalator_walks_full_ladder(self):
        # The Theorem 3 adversary crosses its bound at every rung by
        # construction; stop_when_crossed is off so the ladder completes.
        escalator = DeterministicAdversaryEscalator(params=((2, 2), (2, 3)))
        result = Battle(FirstListedAlgorithm(), escalator, store=False).run()
        assert result.stop_reason == "levels-exhausted"
        assert len(result.rounds) == 2
        assert all(r.crossed for r in result.rounds)
        assert all(r.ratio >= r.bound for r in result.rounds)

    def test_lemma9_battle_stops_at_crossing(self):
        escalator = Lemma9Escalator(ells=(2, 3))
        result = Battle(
            GreedyWeightAlgorithm(), escalator, trials=4, seed=0, store=False
        ).run()
        assert result.stop_reason in ("bound-crossed", "levels-exhausted")
        if result.stop_reason == "bound-crossed":
            assert result.rounds[-1].crossed
            # Nothing after the crossing round was played.
            assert all(not r.crossed for r in result.rounds[:-1])

    def test_max_rounds_caps_the_ladder(self):
        escalator = GadgetEscalator(orders=((2, 2), (2, 3), (3, 4)))
        result = Battle(
            GreedyWeightAlgorithm(), escalator, max_rounds=1, store=False
        ).run()
        assert len(result.rounds) == 1

    def test_gadget_opt_certificate_is_one(self):
        # Lemma 8: all sets of a full gadget pairwise intersect.
        escalator = GadgetEscalator(orders=((2, 3),))
        result = Battle(
            GreedyWeightAlgorithm(), escalator, trials=4, store=False
        ).run()
        assert result.rounds[0].opt_value == 1.0
        assert result.rounds[0].opt_method == "lemma8"

    def test_frontier_worst_ratio_per_size(self):
        rounds = [
            BattleRound(0, "a", 4, 1, 2.0, 2.0, "exact", 1.0, 9.0, "c6"),
            BattleRound(1, "b", 4, 1, 1.0, 2.0, "exact", 2.0, 9.0, "c6"),
            BattleRound(2, "c", 8, 1, 1.0, 3.0, "exact", 3.0, 9.0, "c6"),
        ]
        frontier = Frontier.from_rounds("alg", "esc", rounds, "levels-exhausted")
        assert [(p.num_sets, p.ratio) for p in frontier.points] == [
            (4, 2.0),
            (8, 3.0),
        ]

    def test_frontier_json_round_trip(self):
        frontier = run_smoke_match(max_rounds=1).frontiers[0]
        assert Frontier.from_dict(frontier.as_dict()) == frontier


# ---------------------------------------------------------------------------
# 4. Store plumbing.
# ---------------------------------------------------------------------------


class TestFrontierStore:
    def test_rounds_persisted_under_battle_key(self, tmp_path):
        path = str(tmp_path / "battles.sqlite")
        algorithm = GreedyWeightAlgorithm()
        escalator = GadgetEscalator(orders=((2, 2),))
        Battle(algorithm, escalator, trials=4, seed=3, store=path).run()
        key = battle_key(algorithm, escalator, 0, 3, 4, "auto")
        stored = store_for_path(path).get_frontier(key)
        assert isinstance(stored, BattleRound)
        assert stored.opt_value == 1.0

    def test_uncacheable_algorithm_bypasses_store(self, tmp_path):
        class OpaqueAlgorithm(GreedyWeightAlgorithm):
            cache_identity = None  # no stable identity: uncacheable

        path = str(tmp_path / "battles.sqlite")
        escalator = GadgetEscalator(orders=((2, 2),))
        assert battle_key(OpaqueAlgorithm(), escalator, 0, 0, 4, "auto") is None
        Battle(OpaqueAlgorithm(), escalator, trials=4, store=path).run()
        stats = store_for_path(path).stats()
        assert stats["frontier_entries"] == 0

    def test_key_distinguishes_every_parameter(self):
        algorithm = RandPrAlgorithm()
        escalator = GadgetEscalator(orders=((2, 2), (2, 3)))
        base = battle_key(algorithm, escalator, 0, 0, 8, "auto")
        assert base != battle_key(algorithm, escalator, 1, 0, 8, "auto")
        assert base != battle_key(algorithm, escalator, 0, 1, 8, "auto")
        assert base != battle_key(algorithm, escalator, 0, 0, 9, "auto")
        assert base != battle_key(algorithm, escalator, 0, 0, 8, "exact")
        other = GadgetEscalator(orders=((2, 2),))
        assert base != battle_key(algorithm, other, 0, 0, 8, "auto")


# ---------------------------------------------------------------------------
# 5. Golden fixture and the regression tripwire.
# ---------------------------------------------------------------------------


class DegradedRandPr(RandPrAlgorithm):
    """randPr with the priority rule inverted: assigns to the *lowest*
    priority parents.  Reports the same name, so it lands in the same golden
    cell -- the regression check must notice the behaviour change on its own.
    (Being a subclass, the engine's exact-type dispatch refuses to vectorize
    it and it runs through the reference simulator.)
    """

    def decide(self, arrival):
        ranked = sorted(
            arrival.parents,
            key=lambda set_id: (self._priorities.get(set_id, 0.0), repr(set_id)),
        )
        return frozenset(ranked[: arrival.capacity])


class TestGoldenFrontiers:
    def test_committed_fixture_matches_fresh_smoke_match(self):
        fresh = run_smoke_match(workers=1, store=False).frontiers
        golden = load_frontiers(GOLDEN_FRONTIERS_PATH)
        assert compare_frontiers(fresh, golden) == []

    def test_degraded_algorithm_trips_the_check(self):
        # The tripwire demonstration the harness exists for: swap in a
        # degraded randPr (same name) and the fixture must flag it.
        degraded = run_match(
            [DegradedRandPr()],
            [Lemma9Escalator(ells=(2, 3))],
            trials=SMOKE_TRIALS,
            seed=SMOKE_SEED,
            store=False,
        ).frontiers
        golden = [
            f
            for f in load_frontiers(GOLDEN_FRONTIERS_PATH)
            if f.algorithm_name == "randPr" and f.escalator_name == "lemma9"
        ]
        assert golden, "fixture must contain the randPr/lemma9 cell"
        regressions = compare_frontiers(degraded, golden)
        assert regressions, "an inverted priority rule must regress the frontier"
        with pytest.raises(FrontierRegressionError):
            check_frontiers(degraded, golden)

    def test_improvements_do_not_trip(self):
        golden = load_frontiers(GOLDEN_FRONTIERS_PATH)
        improved = [
            Frontier(
                algorithm_name=f.algorithm_name,
                escalator_name=f.escalator_name,
                points=tuple(
                    type(p)(
                        level=p.level,
                        label=p.label,
                        num_sets=p.num_sets,
                        ratio=p.ratio * 0.5,  # strictly better everywhere
                        bound=p.bound,
                    )
                    for p in f.points
                ),
                stop_reason=f.stop_reason,
            )
            for f in golden
        ]
        assert compare_frontiers(improved, golden) == []

    def test_missing_battle_and_shrunk_frontier_are_regressions(self):
        golden = load_frontiers(GOLDEN_FRONTIERS_PATH)
        assert compare_frontiers([], golden)  # every battle missing
        shrunk = [
            Frontier(
                algorithm_name=f.algorithm_name,
                escalator_name=f.escalator_name,
                points=f.points[:-1],
                stop_reason=f.stop_reason,
            )
            for f in golden
        ]
        assert any("no longer reaches" in line for line in compare_frontiers(shrunk, golden))

    def test_save_load_round_trip(self, tmp_path):
        frontiers = run_smoke_match(max_rounds=1, store=False).frontiers
        fixture = str(tmp_path / "golden.json")
        save_frontiers(frontiers, fixture, config={"smoke": True})
        assert load_frontiers(fixture) == list(frontiers)


class TestCli:
    def test_smoke_cli_writes_store_and_passes_golden(self, tmp_path, capsys):
        from repro.battles.__main__ import main

        path = str(tmp_path / "battles.sqlite")
        code = main(["--smoke", "--store", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "frontier check passed" in out
        assert store_for_path(path).stats()["frontier_entries"] > 0

    def test_cli_accepts_workers_auto(self, capsys):
        from repro.battles.__main__ import main

        code = main(["--smoke", "--max-rounds", "1", "--store", "off",
                     "--check-golden", "off", "--workers", "auto"])
        assert code == 0
        assert "battle match" in capsys.readouterr().out

    def test_cli_rejects_garbage_workers(self, capsys):
        from repro.battles.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--smoke", "--workers", "lots"])
        assert excinfo.value.code == 2
        assert "'auto'" in capsys.readouterr().err

    def test_cli_exits_nonzero_on_regression(self, tmp_path, capsys, monkeypatch):
        from repro.battles import __main__ as cli

        # Degrade randPr behind the CLI's back: the smoke match now produces
        # a worse frontier for the same golden cell.
        monkeypatch.setattr(
            "repro.battles.match.RandPrAlgorithm", DegradedRandPr
        )
        code = cli.main(["--smoke", "--store", "off"])
        captured = capsys.readouterr()
        assert code == 1
        assert "FRONTIER REGRESSIONS" in captured.err
