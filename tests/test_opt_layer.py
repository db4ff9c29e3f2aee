"""The OPT layer computes only what rows consume, under keys that name its LP backend.

Two contracts of :func:`repro.experiments.competitive_ratio.estimate_opt`:

* Above the exact-solver limit (``auto``) and for ``method="lp"`` the value
  is the LP bound and the only other output is ``lower_bound``, filled from
  the greedy-by-weight packing — no local search runs.  ``local-search``
  stays the one method that calls it.
* The LP bound depends on the environment: HiGHS when SciPy imports, the
  weaker dual-feasible bound otherwise.  Every key over an OPT value — the
  OPT cache key, ``unit_key``, ``battle_key`` and so the fabric manifest's
  unit keys — names the backend, so values from the two never alias and a
  manifest planned under one backend is refused under the other.
"""

import random

import pytest

from repro.algorithms import RandPrAlgorithm
from repro.battles import battle_key
from repro.battles.escalators import GadgetEscalator
from repro.core import OnlineInstance
from repro.experiments import FABRIC_SPECS, FabricError, plan_manifest, work
from repro.experiments import competitive_ratio
from repro.experiments.competitive_ratio import EXACT_SOLVER_SET_LIMIT, estimate_opt
from repro.experiments.opt_cache import OptCache
from repro.experiments.store import unit_key
from repro.offline import (
    dual_feasible_bound,
    greedy_offline_packing,
    local_search_packing,
    lp_backend,
    lp_relaxation_bound,
)
from repro.offline import lp as lp_module
from repro.workloads import random_online_instance


@pytest.fixture
def large_instance() -> OnlineInstance:
    """An instance just above the exact-solver limit: ``auto`` takes the LP path."""
    return random_online_instance(
        EXACT_SOLVER_SET_LIMIT + 20, 120, (2, 4), random.Random(7)
    )


@pytest.fixture
def no_local_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the LP path must not run the local search")

    monkeypatch.setattr(competitive_ratio, "local_search_packing", refuse)


class TestLpPathRunsNoLocalSearch:
    @pytest.mark.parametrize("method", ["auto", "lp"])
    def test_lower_bound_is_the_greedy_packing(
        self, method, large_instance, no_local_search
    ):
        system = large_instance.system
        estimate = estimate_opt(system, method)
        assert not estimate.is_exact
        assert estimate.value == lp_relaxation_bound(system).value
        assert estimate.lower_bound == greedy_offline_packing(system).weight
        assert estimate.lower_bound <= estimate.value

    def test_local_search_method_still_runs_it(self, large_instance, monkeypatch):
        calls = []

        def spy(system):
            calls.append(system)
            return local_search_packing(system)

        monkeypatch.setattr(competitive_ratio, "local_search_packing", spy)
        system = large_instance.system
        estimate = estimate_opt(system, "local-search")
        assert calls == [system]
        assert estimate.value == local_search_packing(system).weight
        assert estimate.lower_bound == estimate.value


def _keys(instance):
    """Every key over an OPT value, computed under the current LP backend."""
    algorithms = [RandPrAlgorithm()]
    return {
        "opt": OptCache().key(instance.system, "auto", EXACT_SOLVER_SET_LIMIT),
        "unit": unit_key(instance, 5, algorithms, 10, "auto", EXACT_SOLVER_SET_LIMIT),
        "battle": battle_key(RandPrAlgorithm(), GadgetEscalator(), 0, 0, 8, "auto"),
        "manifest": [
            entry["key"] for entry in plan_manifest(FABRIC_SPECS["smoke"])["units"]
        ],
    }


class TestLpBackendKeys:
    def test_backend_names_the_bound_a_solve_returns(self, large_instance, monkeypatch):
        system = large_instance.system
        assert lp_backend() == lp_relaxation_bound(system).method
        monkeypatch.setattr(lp_module, "_HAVE_SCIPY", False)
        assert lp_backend() == "dual-feasible"
        assert lp_relaxation_bound(system).method == "dual-feasible"

    def test_every_key_differs_between_backends(self, large_instance, monkeypatch):
        pytest.importorskip("scipy")
        assert lp_backend() == "scipy-highs"
        highs = _keys(large_instance)
        monkeypatch.setattr(lp_module, "_HAVE_SCIPY", False)
        dual = _keys(large_instance)
        assert dual["opt"] != highs["opt"]
        assert dual["unit"] != highs["unit"]
        assert dual["battle"] != highs["battle"]
        assert len(dual["manifest"]) == len(highs["manifest"])
        assert not set(dual["manifest"]) & set(highs["manifest"])

    def test_cached_estimate_is_not_reused_across_backends(
        self, large_instance, monkeypatch
    ):
        pytest.importorskip("scipy")
        system = large_instance.system
        cache = OptCache()
        highs = estimate_opt(system, "auto", cache=cache)
        monkeypatch.setattr(lp_module, "_HAVE_SCIPY", False)
        dual = estimate_opt(system, "auto", cache=cache)
        assert cache.misses == 2 and cache.hits == 0
        assert (highs.method, dual.method) == ("scipy-highs", "dual-feasible")
        assert dual.value == dual_feasible_bound(system).value

    def test_fabric_work_refuses_manifest_planned_under_other_backend(
        self, tmp_path, monkeypatch
    ):
        pytest.importorskip("scipy")
        manifest = plan_manifest(FABRIC_SPECS["smoke"])
        monkeypatch.setattr(lp_module, "_HAVE_SCIPY", False)
        with pytest.raises(FabricError, match="drift"):
            work(
                manifest,
                str(tmp_path / "shard.sqlite"),
                coordination_path=str(tmp_path / "coord.sqlite"),
            )
