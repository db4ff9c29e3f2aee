"""The benchmark's workloads: set-up, measured operation and correctness gates.

Every workload draws its inputs from the benchmark seed and hands the program
only those inputs.  A workload provides

* ``setup(seed)`` — untraced set-up, returning its own duration;
* ``op(index, record)`` — one measured operation, timed around the program
  calls only; it passes the time of each piece of it (one program call, or a
  few in a row) to ``record(name, seconds)``, which runs the host-speed
  calibration before the next piece starts (see ``calibration.py``);
* ``final_checks()`` — the gates that need the whole run;
* ``round(tracer, seed, index)`` — set-up plus one operation with a span
  around every call into a program layer (a :class:`NullTracer` runs the
  same code untraced, which is what the tracing overhead is measured
  against);
* ``round_extras(index, info)`` — work a traced run adds after each round,
  such as the parallel sweep pass whose wall time the pool metrics need.

Spans are recorded here, around calls into the program; nothing inside
``src/`` is instrumented.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import pickle
import random
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms import RandPrAlgorithm, UniformRandomAlgorithm
from repro.core.simulation import simulate_many
from repro.engine import (
    DEFAULT_WINDOW_SLOTS,
    clear_compile_cache,
    clear_uniform_cache,
    compile_trace,
    compiled_for,
    fast_compiled_for,
    simulate_batch,
    simulate_fast,
    simulate_trace_batch,
)
from repro.experiments import FABRIC_SPECS, default_opt_cache, plan_manifest, run_sweep
from repro.experiments.opt_cache import OptCache
from repro.experiments.store import SolutionStore, store_for_path
from repro.network.traffic import AdversarialBurstGenerator
from repro.testing import intervals_overlap, ks_two_sample, mean_confidence_interval
from repro.workloads import random_online_instance

from calibration import ignore

_rng = importlib.import_module("repro.engine.rng")
_batch = importlib.import_module("repro.engine.batch")
_fast = importlib.import_module("repro.engine.fast")
_orchestrator = importlib.import_module("repro.experiments.orchestrator")
_ratio = importlib.import_module("repro.experiments.competitive_ratio")
_fabric = importlib.import_module("repro.experiments.fabric")
_workloads = importlib.import_module("repro.workloads")

#: The program functions wrapped in spans while an operation runs: the
#: MT19937 bridge's uniform producers, the ``R_w`` transform, the priority
#: matrix of the static-priority kinds, and the fast engine's PCG64 draws.
RNG_TARGETS = (
    (_rng, "uniform_matrix", "rng.draws"),
    (_rng.UniformStreams, "next", "rng.draws"),
    (_rng, "exact_pow", "rng.pow"),
)
PRIORITY_TARGET = (_batch, "priority_matrix", "batch.priority")
FAST_TARGET = (_fast, "fast_uniforms", "fast.uniforms")

#: The layers a sweep calls, wrapped where the program looks them up:
#: ``plan_manifest`` and ``run_sweep`` draw instances through
#: ``repro.workloads`` and key units in the fabric and orchestrator modules;
#: the orchestrator executes each unit (the ``unit`` span), reaches OPT,
#: statistics, bounds and ``measure_ratio`` through its module globals; OPT
#: runs the LP and local search through the competitive-ratio module; the
#: store is reached through its methods; the batch engine compiles through
#: ``compiled_for``.
SWEEP_TARGETS = (
    (_workloads, "random_online_instance", "workloads.generate"),
    (_fabric, "unit_key", "store.key"),
    (_orchestrator, "unit_key", "store.key"),
    (OptCache, "key", "store.key"),
    (SolutionStore, "get_unit", "store.get"),
    (SolutionStore, "get_opt", "store.get"),
    (SolutionStore, "put_unit", "store.put"),
    (SolutionStore, "put_opt", "store.put"),
    (_orchestrator, "_execute_unit", "unit"),
    (_ratio, "lp_relaxation_bound", "opt.lp"),
    (_ratio, "local_search_packing", "opt.local_search"),
    (_orchestrator, "compute_statistics", "analysis.stats"),
    (_orchestrator, "bound_report", "analysis.stats"),
    (_batch, "compiled_for", "compile.instance"),
    (_orchestrator, "measure_ratio",
     lambda instance, algorithm, *args, **kwargs: f"batch.{algorithm.name}"),
)

#: Seeds of the standard sweep spec run per operation, derived from the
#: benchmark seed ``s`` as ``s``, ``s + SWEEP_SEED_STRIDE``, ...: the first is
#: the benchmark seed itself, and nearby benchmark seeds share no spec.
SWEEP_SEEDS = 3
SWEEP_SEED_STRIDE = 1_000_003

#: The standard Monte-Carlo instance: 200 sets over 400 elements.
MC_SHAPE = dict(num_sets=200, num_elements=400, set_size_range=(2, 5),
                weight_range=(1.0, 6.0))
#: Instances drawn per run; one operation runs a batch of each engine on each.
MC_INSTANCES = 4
#: Trials per batch of each Monte-Carlo engine: ``simulate_batch`` with the
#: two exact algorithms, and ``simulate_fast`` with randPr.
MC_TRIALS = {"randPr": 5_000, "uniform-random": 2_000, "fast": 5_000}
#: The throughput each engine's batches are printed as.
MC_RATES = {"randPr": "randpr_trials_per_s", "uniform-random": "uniform_random_trials_per_s",
            "fast": "fast_trials_per_s"}
#: Trials of the warm-up batch that set-up runs.
WARMUP_TRIALS = 64
#: Leading trials of every exact batch compared with ``simulate_many``.
REFERENCE_TRIALS = 2
#: The fast engine's KS / CI probe, as in the fast-engine equivalence suite.
PROBE_TRIALS = 4000
KS_PVALUE_FLOOR = 1e-4
CI_CONFIDENCE = 0.999

#: The E19 adversarial-burst trace: 3125 waves of 8 frames x 4 packets
#: (100k packets), zero-padded identifiers so the pool stays bounded.
BURST = dict(burst_size=8, packets_per_frame=4, gap_slots=1, id_pad=8)
BURST_WAVES = 3125
ROUTER_TRIALS = 200
#: The shorter trace on which streaming is compared with the per-packet loop.
PROBE_WAVES = 40
PROBE_WINDOWS = (1, 7, None)


class NullTracer:
    """The tracer interface with every span and patch a no-op."""

    def span(self, name):
        return nullcontext()

    def wrapped(self, function, name):
        return function

    def patched(self, targets):
        return nullcontext()


@dataclasses.dataclass
class OpResult:
    seconds: float
    work: int
    failures: List[str]
    #: Further rates the operation measured, printed but not reported.
    rates: Dict[str, float] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class RoundInfo:
    """What a traced round counts besides its spans."""

    store_gets: int = 0
    store_hits: int = 0
    windows: int = 0
    peak_pooled_rows: int = 0
    failures: List[str] = dataclasses.field(default_factory=list)


def same_bits(first, second) -> bool:
    """Bit-identity of two results: equal pickles (floats are pickled exactly)."""
    return pickle.dumps(first, protocol=4) == pickle.dumps(second, protocol=4)


def fresh_caches() -> None:
    """Empty the in-process OPT, compile and draw caches (a cold process)."""
    cache = default_opt_cache()
    cache.clear()
    cache.store = None
    clear_compile_cache()
    clear_uniform_cache()


def remove_store(path: str) -> None:
    for suffix in ("", "-journal", "-wal", "-shm"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)


@contextmanager
def open_store(path: str):
    store = SolutionStore(path)
    try:
        yield store
    finally:
        store.close()


class Workload:
    #: How many CPUs an operation keeps busy; the calibration runs on each.
    cpus = 1

    def final_checks(self) -> List[Tuple[str, bool]]:
        return []

    def round_extras(self, index: int, info: RoundInfo) -> Optional[float]:
        """Work after a traced round; returns the pool pass wall time, if any."""
        return None

    def close(self) -> None:
        pass


class Sweep(Workload):
    """The standard fabric sweep through ``run_sweep`` with a store.

    Set-up plans the standard spec on :data:`SWEEP_SEEDS` seeds derived from
    the benchmark seed.  One operation runs, for each of them, a cold pass,
    with a fresh store file and empty in-process caches so that OPT, the
    engines and the store writes all run, followed by a warm pass that the
    store answers.  Throughput differs by about a tenth from one seed's
    instances to the next, and one seed per run would make the figure depend
    on which instances it draws.  ``work_per_s`` is the cold passes; the warm
    passes are printed beside it.  A warm pass is mostly pool start-up, whose
    time moved by a third between runs on a shared host, too much for a
    gated metric of its own.

    A traced round runs the same passes through the program's serial path,
    ``run_sweep(workers=1)``, with spans wrapped around the program's own
    lookups of every layer it calls (:data:`SWEEP_TARGETS`).
    """

    def __init__(self, work_dir: str, workers: int) -> None:
        self.work_dir = work_dir
        self.workers = self.cpus = workers
        #: Per spec: the first cold pass's rows, and the store it wrote.
        self.reference_rows: Dict[int, object] = {}
        self.reference_stores: Dict[int, str] = {}
        self.traced_stores: List[str] = []

    def path(self, label: str) -> str:
        return os.path.join(self.work_dir, f"sweep-{label}.sqlite")

    def _run_sweep(self, spec, store: str, workers: int):
        return run_sweep(
            spec.name,
            spec.points(),
            self.algorithms,
            instances_per_point=spec.instances_per_point,
            trials_per_instance=spec.trials_per_instance,
            seed=spec.seed,
            opt_method=spec.opt_method,
            engine=spec.engine,
            workers=workers,
            store=store,
        )

    def _plan(self, seed: int) -> None:
        """plan_manifest: draw every unit of each seed's sweep and key it."""
        self.specs = [dataclasses.replace(FABRIC_SPECS["standard"],
                                          seed=seed + number * SWEEP_SEED_STRIDE)
                      for number in range(SWEEP_SEEDS)]
        self.algorithms = self.specs[0].algorithm_instances()
        self.keys = [[entry["key"] for entry in plan_manifest(spec)["units"]]
                     for spec in self.specs]

    def setup(self, seed: int) -> float:
        fresh_caches()
        start = time.perf_counter()
        self._plan(seed)
        return time.perf_counter() - start

    def _passes(self, label: str, record=ignore) -> Tuple[float, float, List[str], List[str]]:
        """A cold and a warm pass of every spec, each on a fresh store.

        Returns the cold and the warm passes' total times, the failures and
        the store paths.
        """
        cold_total, warm_total, failures, paths = 0.0, 0.0, [], []
        for number, spec in enumerate(self.specs):
            path = self.path(f"{label}-{number}")
            paths.append(path)
            remove_store(path)
            fresh_caches()
            start = time.perf_counter()
            cold = self._run_sweep(spec, path, self.workers)
            cold_seconds = time.perf_counter() - start
            record(f"cold/{number}", cold_seconds)
            fresh_caches()
            start = time.perf_counter()
            warm = self._run_sweep(spec, path, self.workers)
            warm_total += time.perf_counter() - start
            cold_total += cold_seconds
            if not same_bits(warm.rows, cold.rows):
                failures.append(f"warm rows differ from cold rows (spec {number})")
            if number not in self.reference_rows:
                self.reference_rows[number], self.reference_stores[number] = cold.rows, path
            elif not same_bits(cold.rows, self.reference_rows[number]):
                failures.append(f"cold rows differ from the first pass (spec {number})")
        return cold_total, warm_total, failures, paths

    def _remove_unless_reference(self, paths: List[str]) -> None:
        for path in paths:
            if path not in self.reference_stores.values():
                remove_store(path)

    def op(self, index: int, record) -> OpResult:
        cold, warm, failures, paths = self._passes(f"op-{index}", record)
        self._remove_unless_reference(paths)
        units = sum(len(keys) for keys in self.keys)
        return OpResult(cold, units, failures, {"warm_units_per_s": units / warm})

    def _stored_units(self, path: str, number: int) -> List[object]:
        with open_store(path) as store:
            return [store.get_unit(key) for key in self.keys[number]]

    def final_checks(self) -> List[Tuple[str, bool]]:
        units = [unit for number, path in self.reference_stores.items()
                 for unit in self._stored_units(path, number)]
        return [
            ("every unit stored", all(unit is not None for unit in units)),
            ("every mean benefit <= its OPT", all(
                m.mean_benefit <= m.opt.value
                for unit in units if unit is not None
                for m in unit.measurements
            )),
        ]

    def round(self, tracer, seed: int, index: int) -> RoundInfo:
        info = RoundInfo()
        for path in self.traced_stores:
            remove_store(path)
        fresh_caches()
        self.traced_rows = {}
        with tracer.patched(SWEEP_TARGETS + RNG_TARGETS + (PRIORITY_TARGET,)):
            with tracer.span("setup"):
                self._plan(seed)
            self.traced_stores = [self.path(f"round-{index}-{type(tracer).__name__}-{number}")
                                  for number in range(len(self.specs))]
            for label in ("op", "warm"):
                self.traced_rows[label] = []
                with tracer.span(label):
                    for spec, path in zip(self.specs, self.traced_stores):
                        if label == "op":
                            remove_store(path)
                        fresh_caches()
                        self.traced_rows[label].append(self._run_sweep(spec, path, 1).rows)
                        # The pass opened the store through the program's
                        # registry; its counters say how many lookups the
                        # store answered.
                        store = store_for_path(path)
                        info.store_gets += (store.unit_hits + store.unit_misses
                                            + store.opt_hits + store.opt_misses)
                        info.store_hits += store.unit_hits + store.opt_hits
                        store.close()
        return info

    def round_extras(self, index: int, info: RoundInfo) -> Optional[float]:
        """Run the program's parallel passes and compare the traced run with them."""
        wall, _, failures, paths = self._passes(f"pool-{index}")
        info.failures += failures
        for label, passes in self.traced_rows.items():
            for number, rows in enumerate(passes):
                if not same_bits(rows, self.reference_rows[number]):
                    info.failures.append(
                        f"traced {label} rows differ from the untraced rows (spec {number})")
        for number, (traced_path, path) in enumerate(zip(self.traced_stores, paths)):
            traced = self._stored_units(traced_path, number)
            if not same_bits(traced, self._stored_units(path, number)):
                info.failures.append(
                    f"traced unit results differ from the parallel pass's (spec {number})")
            if any(unit is None for unit in traced):
                info.failures.append(f"the traced run did not store every unit (spec {number})")
            elif any(m.mean_benefit > m.opt.value
                     for unit in traced for m in unit.measurements):
                info.failures.append(f"a mean benefit exceeds its OPT (spec {number})")
        self._remove_unless_reference(paths)
        return wall

    def close(self) -> None:
        for path in list(self.reference_stores.values()) + self.traced_stores:
            remove_store(path)


class MonteCarlo(Workload):
    """Repeated Monte-Carlo batches on standard 200-set instances.

    Set-up draws ``MC_INSTANCES`` instances from the seed.  An operation runs
    one batch of every engine in :data:`MC_TRIALS` on each instance:
    ``simulate_batch`` with randPr and with uniform-random, and
    ``simulate_fast`` with randPr.  Throughput differs by about a tenth from
    one instance to the next, and one instance per run would make the figure
    depend on which instance a seed happens to draw.  Every batch uses fresh
    trial seeds and starts with an empty draw cache, so priority draws are
    part of each measured batch, as for a user who asks for a new estimate.
    """

    def __init__(self) -> None:
        self.first_fast_batch = None

    @staticmethod
    def _simulate(tracer, engine: str, instance, trials: int, seed: int):
        """One batch, in a span named after the engine layer that runs it."""
        if engine == "fast":
            with tracer.patched((FAST_TARGET,)), tracer.span("fast.sim"):
                return simulate_fast(instance, "randPr", trials=trials, seed=seed)
        with tracer.patched(RNG_TARGETS + (PRIORITY_TARGET,)), tracer.span(f"batch.{engine}"):
            return simulate_batch(instance, engine, trials=trials, seed=seed)

    def _setup(self, tracer, seed: int) -> None:
        draw = random.Random(seed)
        self.instances = []
        for number in range(MC_INSTANCES):
            with tracer.span("workloads.generate"):
                instance = random_online_instance(
                    MC_SHAPE["num_sets"], MC_SHAPE["num_elements"],
                    MC_SHAPE["set_size_range"], draw,
                    weight_range=MC_SHAPE["weight_range"], name=f"mc-{seed}-{number}",
                )
            with tracer.span("compile.instance"):
                compiled_for(instance)
            with tracer.span("compile.fast"):
                fast_compiled_for(instance)
            for engine in MC_TRIALS:
                self._simulate(tracer, engine, instance, WARMUP_TRIALS, seed)
            self.instances.append(instance)
        self.seed = seed

    def setup(self, seed: int) -> float:
        fresh_caches()
        start = time.perf_counter()
        self._setup(NullTracer(), seed)
        return time.perf_counter() - start

    def op_seeds(self, index: int, engine: str) -> List[int]:
        # Disjoint trial seeds per batch, all distinct from the warm-up's.
        trials = MC_TRIALS[engine]
        first = self.seed + (index * MC_INSTANCES + 1) * trials
        return [first + number * trials for number in range(MC_INSTANCES)]

    def op(self, index: int, record) -> OpResult:
        failures, seconds, rates, work = [], 0.0, {}, 0
        # One instance per operation, in turn, against the reference loop.
        checked = index % MC_INSTANCES
        for engine, trials in MC_TRIALS.items():
            clear_uniform_cache()
            seeds = self.op_seeds(index, engine)
            results, elapsed = [], 0.0
            for number, (instance, seed) in enumerate(zip(self.instances, seeds)):
                start = time.perf_counter()
                results.append(self._simulate(NullTracer(), engine, instance, trials, seed))
                batch = time.perf_counter() - start
                record(f"{engine}/{number}", batch)
                elapsed += batch
            seconds += elapsed
            work += MC_INSTANCES * trials
            rates[MC_RATES[engine]] = MC_INSTANCES * trials / elapsed
            if engine == "fast":
                for instance, result in zip(self.instances, results):
                    failures += self._check_packing(instance, result)
                if self.first_fast_batch is None:
                    self.first_fast_batch = (self.instances[0], seeds[0], results[0].benefits)
            else:
                failures += self._check_reference(
                    engine, self.instances[checked], results[checked], seeds[checked])
        return OpResult(seconds, work, failures, rates)

    @staticmethod
    def _check_reference(engine: str, instance, result, seed: int) -> List[str]:
        """The leading trials equal ``simulate_many`` trial by trial."""
        algorithm = UniformRandomAlgorithm() if engine == "uniform-random" else RandPrAlgorithm()
        reference = simulate_many(instance, algorithm, trials=REFERENCE_TRIALS, seed=seed)
        return [
            f"{engine} trial {trial} of seed {seed} differs from simulate_many"
            for trial, run in enumerate(reference)
            if result.completed_sets(trial) != run.completed_sets
            or float(result.benefits[trial]) != run.benefit
        ]

    @staticmethod
    def _check_packing(instance, result) -> List[str]:
        """Every trial's completed sets respect every element's capacity."""
        compiled = compiled_for(instance)
        indptr = compiled.step_indptr
        per_incidence = result.completed[:, compiled.step_parents].astype(np.int32)
        load = np.add.reduceat(per_incidence, indptr[:-1], axis=1)
        empty = indptr[:-1] == indptr[1:]
        over = (load > compiled.step_capacities) & ~empty
        return ["a fast trial over-packs an element"] if over.any() else []

    def final_checks(self) -> List[Tuple[str, bool]]:
        """The fast engine's KS / CI probe against the exact engine."""
        if self.first_fast_batch is None:
            return []
        instance, seed, fast_benefits = self.first_fast_batch
        exact = simulate_batch(instance, "randPr", trials=PROBE_TRIALS, seed=seed)
        ks = ks_two_sample(fast_benefits, exact.benefits)
        overlap = intervals_overlap(
            mean_confidence_interval(fast_benefits, confidence=CI_CONFIDENCE),
            mean_confidence_interval(exact.benefits, confidence=CI_CONFIDENCE),
        )
        return [("fast vs exact KS test", not ks.rejects(KS_PVALUE_FLOOR)),
                ("fast vs exact mean CI overlap", overlap)]

    def round(self, tracer, seed: int, index: int) -> RoundInfo:
        fresh_caches()
        with tracer.span("setup"):
            self._setup(tracer, seed)
        with tracer.span("op"):
            for engine, trials in MC_TRIALS.items():
                clear_uniform_cache()
                batches = list(zip(self.instances, self.op_seeds(index, engine)))
                for instance, op_seed in batches:
                    self._simulate(tracer, engine, instance, trials, op_seed)
                if engine != "randPr":
                    continue
                # The same batches again with their draw tables cached: their
                # self time without the priority matrix is the static replay.
                for instance, op_seed in batches:
                    with tracer.patched((PRIORITY_TARGET,)), tracer.span("batch.static_replay"):
                        simulate_batch(instance, "randPr", trials=trials, seed=op_seed)
        return RoundInfo()


class RouterBurst(Workload):
    """Streaming replay of the E19 adversarial-burst trace, compile included."""

    def _setup(self, tracer, seed: int) -> None:
        with tracer.span("workloads.generate"):
            self.trace = AdversarialBurstGenerator(**BURST).generate(num_waves=BURST_WAVES)
        self.seed = seed

    def setup(self, seed: int) -> float:
        start = time.perf_counter()
        self._setup(NullTracer(), seed)
        return time.perf_counter() - start

    def op_seed(self, index: int) -> int:
        return self.seed + index * ROUTER_TRIALS

    def _replay(self, tracer, seed: int, stats: dict, record=ignore):
        """Compile and replay the trace; returns both and the time they took."""
        start = time.perf_counter()
        with tracer.span("compile.trace"):
            compiled = compile_trace(self.trace)
        compile_seconds = time.perf_counter() - start
        record("compile", compile_seconds)
        start = time.perf_counter()
        with tracer.span("streaming.sim"):
            result = simulate_trace_batch(compiled, "randPr", trials=ROUTER_TRIALS,
                                          seed=seed, stats=stats)
        replay_seconds = time.perf_counter() - start
        record("replay", replay_seconds)
        return compiled, result, compile_seconds + replay_seconds

    def op(self, index: int, record) -> OpResult:
        stats: Dict[str, int] = {}
        compiled, result, seconds = self._replay(NullTracer(), self.op_seed(index), stats, record)
        failures = []
        if stats["peak_pooled_rows"] != compiled.peak_active_frames(DEFAULT_WINDOW_SLOTS):
            failures.append("pool high-water differs from the memory model")
        if not np.isfinite(result.benefits).all() or (result.benefits < 0).any():
            failures.append("a benefit is negative or not finite")
        return OpResult(seconds, compiled.num_packets * ROUTER_TRIALS, failures)

    def final_checks(self) -> List[Tuple[str, bool]]:
        """Streaming equals the per-packet reference on a shorter trace."""
        trace = AdversarialBurstGenerator(**BURST).generate(num_waves=PROBE_WAVES)
        reference = simulate_many(trace.to_instance(), RandPrAlgorithm(),
                                  trials=REFERENCE_TRIALS, seed=self.seed)
        checks = []
        for window in PROBE_WINDOWS:
            streamed = simulate_trace_batch(trace, "randPr", trials=REFERENCE_TRIALS,
                                            seed=self.seed, window_slots=window)
            checks.append((
                f"streaming == per-packet reference (window {window})",
                all(
                    streamed.completed_sets(trial) == run.completed_sets
                    and float(streamed.benefits[trial]) == run.benefit
                    for trial, run in enumerate(reference)
                ),
            ))
        return checks

    def round(self, tracer, seed: int, index: int) -> RoundInfo:
        with tracer.span("setup"):
            self._setup(tracer, seed)
        stats: Dict[str, int] = {}
        with tracer.span("op"), tracer.patched(RNG_TARGETS):
            self._replay(tracer, self.op_seed(index), stats)
        return RoundInfo(windows=stats["windows"], peak_pooled_rows=stats["peak_pooled_rows"])


def make_workload(name: str, work_dir: str, workers: int) -> Workload:
    factories = {
        "sweep-200": lambda: Sweep(work_dir, workers),
        "mc-200": MonteCarlo,
        "router-burst": RouterBurst,
    }
    return factories[name]()

