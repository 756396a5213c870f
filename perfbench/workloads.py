"""The benchmark's four workloads and the checks on their outputs.

Each workload turns the run's seed into scenario configurations
(:meth:`Workload.scenarios`) and runs one *pass* over them
(:meth:`Workload.run_pass`): build, simulate, collect and check every
scenario, timing each step.  A pass is the benchmark's unit of repetition;
every run attempts whole passes only, so the share of failed operations is
the same in every run.

The program is driven only through public entry points:
``build_intel_lab_dataset``, ``build_deployment``, ``schedule_workload``,
``Simulator.run``, ``collect_result`` and, for the sweep, ``run_scenarios``
with a ``ResultStore``.  Answers are checked against :mod:`oracles`, which
shares no code with ``repro.core``.
"""

from __future__ import annotations

import gc
import math
import os
import shutil
import tempfile
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Sequence, Tuple

import oracles
from repro.core.config import Algorithm, DetectionConfig
from repro.core.errors import ExperimentError
from repro.datasets import loader
from repro.datasets.layout import DEFAULT_NODE_COUNT, DEFAULT_TERRAIN_SIZE
from repro.experiments.common import ExperimentProfile
from repro.orchestrator import executor
from repro.orchestrator.registry import get_family
from repro.orchestrator.store import ResultStore
from repro.wsn import deployment as deployment_module
from repro.wsn import runner
from repro.wsn.faults import FaultPlan
from repro.wsn.scenario import ScenarioConfig

import repro.experiments.sweeps  # noqa: F401  (registers the sweep families)

__all__ = ["WORKLOADS", "Pass", "Workload", "DEFAULT_SEED", "HELD_BACK_SEED"]

#: Seed of a run when ``--seed`` is not given.
DEFAULT_SEED = 1
#: Seed kept out of tuning; a claimed gain is confirmed on it afterwards.
HELD_BACK_SEED = 9001

#: Pool size of the sweep workload: at most one worker per core.
SWEEP_WORKERS = max(1, min(2, os.cpu_count() or 1))


def paper_density_terrain(nodes: int) -> float:
    """Terrain side that keeps the paper's 53 sensors per 50 m x 50 m."""
    return DEFAULT_TERRAIN_SIZE * math.sqrt(nodes / DEFAULT_NODE_COUNT)


Point = Tuple[Tuple[float, ...], int, int]


def rest(point) -> Point:
    return (tuple(point.values), point.origin, point.epoch)


def final_window(dataset, scenario: ScenarioConfig) -> set:
    """Every sensor's last ``w`` samples, read straight off the streams."""
    end = scenario.rounds
    start = max(0, end - scenario.detection.window_length)
    return {
        rest(point)
        for stream in dataset.streams.values()
        for point in stream[start:end]
    }


@dataclass
class Pass:
    """What one pass measured and found."""

    wall_s: float
    sim_s: float
    events: int
    ops: int
    #: Operations that raised or whose checks reported a problem.
    failed: int = 0
    #: Host seconds of each input build (untraced passes only).
    setup_s: List[float] = field(default_factory=list)
    #: Wrong outputs found by the checks; any of them makes the run incorrect.
    problems: List[str] = field(default_factory=list)
    #: Exceptions that ended an operation.
    errors: List[str] = field(default_factory=list)
    #: Deterministic work counts; equal seeds must give equal counts.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Layer measurements made outside the tracer (the sweep's pool tiers).
    tiers: Dict[str, float] = field(default_factory=dict)
    #: Span summaries recorded in pool workers, merged into the trace.
    worker_layers: List[tuple] = field(default_factory=list)
    #: This process's span summary and fixpoint repeats (traced passes).
    trace: tuple = ()
    #: Wall time of the same operations run untraced (traced passes).
    untraced_wall_s: float = 0.0

    def absorb_twin(self, twin: "Pass") -> None:
        """Count an untraced twin's operations and findings in this pass."""
        self.untraced_wall_s += twin.wall_s
        self.ops += twin.ops
        self.failed += twin.failed
        self.problems += twin.problems
        self.errors += twin.errors


def work_counts(results: Sequence) -> Dict[str, float]:
    """Deterministic work of a set of results, summed over scenarios."""
    counts: Counter = Counter()
    for result in results:
        counts["events_executed"] += result.events_executed
        for name, value in result.channel.as_dict().items():
            counts[f"channel.{name}"] += value
        for stats in result.protocol_stats.values():
            for name, value in stats.items():
                counts[f"detector.{name}"] += value
        for stats in result.fault_stats.values():
            counts["faults.samples_taken"] += stats["samples_taken"]
            counts["faults.samples_skipped"] += stats["samples_skipped"]
        counts["energy.mj_per_node_round"] += (
            result.energy.average_per_node_per_round() * 1000.0 / len(results)
        )
    return dict(counts)


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def check_exact(label: str, estimates: Dict[int, Iterable[Point]], window: set,
                detection: DetectionConfig) -> List[str]:
    """Every node's estimate is the oracle's top-n over the final window."""
    expected = set(oracles.top_n(window, detection.ranking, detection.n_outliers,
                                 detection.k))
    problems = []
    for node, estimate in sorted(estimates.items()):
        got = set(estimate)
        if got != expected and not oracles.same_top_n(
            got, window, detection.ranking, detection.n_outliers, detection.k
        ):
            problems.append(f"{label}: node {node} estimate differs from the oracle top-n")
    return problems


def check_semi_global(label: str, estimates: Dict[int, Iterable[Point]], window: set,
                      dataset, scenario: ScenarioConfig) -> List[str]:
    """Every estimate has n points, all from sensors within epsilon hops
    (oracle BFS over the unit-disk graph) and all inside the final window."""
    adjacency = oracles.unit_disk_adjacency(dataset.positions, scenario.transmission_range)
    n = scenario.detection.n_outliers
    epsilon = scenario.detection.hop_diameter
    problems = []
    for node, estimate in sorted(estimates.items()):
        points = set(estimate)
        hops = oracles.hop_counts(adjacency, node)
        if len(points) != n:
            problems.append(f"{label}: node {node} holds {len(points)} outliers, not {n}")
        if any(hops.get(origin, math.inf) > epsilon for _, origin, _ in points):
            problems.append(f"{label}: node {node} reports a sensor beyond {epsilon} hops")
        if not points <= window:
            problems.append(f"{label}: node {node} reports a point outside the final window")
    return problems


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """One workload; ``BENCHMARK.json`` says why each was chosen."""

    name = ""
    #: Extra input builds timed before each scenario, outside ``wall_s``.
    #: The host's speed drifts over seconds, so ``setup_s`` samples are
    #: spread over the whole run instead of taken in one burst.
    setup_builds = 0

    def scenarios(self, seed: int) -> List[ScenarioConfig]:
        raise NotImplementedError

    def setup(self, scenario: ScenarioConfig):
        """Everything before the first simulated event: dataset,
        deployment (topology, nodes, apps) and the event schedule."""
        dataset = loader.build_intel_lab_dataset(scenario.dataset_config())
        deployment = deployment_module.build_deployment(scenario, dataset)
        runner.schedule_workload(deployment)
        return deployment

    def run_pass(self, scenarios: Sequence[ScenarioConfig], probe=None) -> Pass:
        raise NotImplementedError

    def time_setup(self, scenario: ScenarioConfig, measured: Pass) -> None:
        """Extra timed builds; a build that raises is left to the
        operation on the same scenario to count as failed."""
        for _ in range(self.setup_builds):
            gc.collect()
            started = time.perf_counter()
            try:
                self.setup(scenario)
            except Exception:
                return
            measured.setup_s.append(time.perf_counter() - started)


class SimulationWorkload(Workload):
    """Scenarios run one after another in this process."""

    #: Scenarios a pass runs, with seeds ``per_pass * seed`` upwards.  Host
    #: time varies by 3-6% from one seed's data to the next; a pass over
    #: several seeds keeps most of that out of the run-to-run spread.
    per_pass = 1

    def scenarios(self, seed: int) -> List[ScenarioConfig]:
        return [self.scenario(self.per_pass * seed + offset) for offset in range(self.per_pass)]

    def scenario(self, seed: int) -> ScenarioConfig:
        raise NotImplementedError

    def check(self, deployment, scenario: ScenarioConfig) -> List[str]:
        raise NotImplementedError

    def run_pass(self, scenarios: Sequence[ScenarioConfig], probe=None) -> Pass:
        measured = Pass(wall_s=0.0, sim_s=0.0, events=0, ops=0)
        results = []
        for scenario in scenarios:
            if probe is None:
                self.time_setup(scenario, measured)
            else:
                # The untraced twin runs right before the traced scenario,
                # so the host's drift in speed barely enters the overhead.
                with probe.paused():
                    twin = Pass(wall_s=0.0, sim_s=0.0, events=0, ops=0)
                    self.run_scenario(scenario, twin)
                measured.absorb_twin(twin)
                probe.new_scenario()
            result = self.run_scenario(scenario, measured)
            if result is not None:
                results.append(result)
        measured.counts = work_counts(results)
        return measured

    def run_scenario(self, scenario: ScenarioConfig, measured: Pass):
        """One operation: build, simulate, collect and check ``scenario``.

        Returns the result, or ``None`` when the operation raised."""
        gc.collect()
        measured.ops += 1
        started = time.perf_counter()
        try:
            deployment = self.setup(scenario)
            simulating = time.perf_counter()
            deployment.simulator.run()
            simulated = time.perf_counter()
            result = runner.collect_result(deployment)
            problems = self.check(deployment, scenario)
        except Exception as error:
            measured.wall_s += time.perf_counter() - started
            measured.failed += 1
            measured.errors.append(f"{self.name} seed {scenario.seed}: "
                                   f"{type(error).__name__}: {error}")
            return None
        measured.wall_s += time.perf_counter() - started
        measured.setup_s.append(simulating - started)
        measured.sim_s += simulated - simulating
        measured.events += result.events_executed
        if problems:
            measured.failed += 1
            measured.problems += problems
        return result


def _detection(algorithm: str, ranking: str, window: int, epsilon: int = 1) -> DetectionConfig:
    return DetectionConfig(algorithm=algorithm, ranking=ranking, n_outliers=4, k=4,
                           window_length=window, hop_diameter=epsilon)


class GlobalNN(SimulationWorkload):
    name = "global-nn"
    nodes, rounds, window = 24, 4, 3
    per_pass = 5
    setup_builds = 2

    def scenario(self, seed: int) -> ScenarioConfig:
        return ScenarioConfig(
            detection=_detection(Algorithm.GLOBAL, "nn", self.window),
            node_count=self.nodes, rounds=self.rounds,
            terrain_size=paper_density_terrain(self.nodes), seed=seed,
        )

    def check(self, deployment, scenario: ScenarioConfig) -> List[str]:
        estimates = {node: [rest(p) for p in app.estimate()]
                     for node, app in deployment.apps.items()}
        return check_exact(self.name, estimates, final_window(deployment.dataset, scenario),
                           scenario.detection)


class CentralizedAODV(GlobalNN):
    name = "centralized-aodv"
    nodes, rounds, window = 160, 5, 5
    per_pass = 2
    setup_builds = 4

    def scenario(self, seed: int) -> ScenarioConfig:
        return ScenarioConfig(
            detection=_detection(Algorithm.CENTRALIZED, "nn", self.window),
            node_count=self.nodes, rounds=self.rounds,
            terrain_size=paper_density_terrain(self.nodes), seed=seed,
        )


class SemiGlobalKNN(SimulationWorkload):
    name = "semiglobal-knn-256"
    nodes, rounds, window, epsilon = 256, 2, 1, 2
    per_pass = 1
    setup_builds = 8

    def scenario(self, seed: int) -> ScenarioConfig:
        return ScenarioConfig(
            detection=_detection(Algorithm.SEMI_GLOBAL, "knn", self.window, self.epsilon),
            node_count=self.nodes, rounds=self.rounds,
            terrain_size=paper_density_terrain(self.nodes), seed=seed,
        )

    def check(self, deployment, scenario: ScenarioConfig) -> List[str]:
        estimates = {node: [rest(p) for p in app.estimate()]
                     for node, app in deployment.apps.items()}
        return check_semi_global(self.name, estimates,
                                 final_window(deployment.dataset, scenario),
                                 deployment.dataset, scenario)


class ChurnSweep(Workload):
    name = "churn-sweep"
    nodes, rounds, repetitions = 16, 8, 3
    setup_builds = 1

    def scenarios(self, seed: int) -> List[ScenarioConfig]:
        profile = ExperimentProfile(
            name="perfbench-churn", node_count=self.nodes, rounds=self.rounds,
            repetitions=self.repetitions, window_sizes=(), outlier_counts=(),
            hop_diameters=(),
        )
        grid = get_family("fault-churn").build(profile)
        seeds = self._churn_seeds(grid, seed)
        return [replace(scenario, seed=seeds[scenario.seed]) for scenario in grid]

    def _churn_seeds(self, grid: Sequence[ScenarioConfig], seed: int) -> List[int]:
        """Scenario seeds, from ``10 * seed`` upwards, under which at least
        one node crashes in the light level; the heavy level draws the same
        crash streams with a higher probability, so it crashes too.  A seed
        whose churn cells lose no node would test no churn."""
        light = min((s for s in grid if s.faults.crash_probability > 0),
                    key=lambda s: s.faults.crash_probability)
        seeds, candidate = [], 10 * seed
        while len(seeds) < self.repetitions:
            plan = FaultPlan.from_scenario(light.with_seed(candidate))
            if plan.any_downtime:
                seeds.append(candidate)
            candidate += 1
        return seeds

    def run_pass(self, scenarios: Sequence[ScenarioConfig], probe=None) -> Pass:
        measured = Pass(wall_s=0.0, sim_s=0.0, events=0, ops=0)
        if probe is None:
            for scenario in scenarios:
                self.time_setup(scenario, measured)
        else:
            with probe.paused():
                measured.absorb_twin(self.run_pass(scenarios))
        gc.collect()
        executor.clear_memory()
        root = tempfile.mkdtemp(prefix="store-", dir=scratch_dir())
        store = ResultStore(root)
        try:
            self._resolve(scenarios, store, measured, probe)
        finally:
            executor.clear_memory()
            shutil.rmtree(root, ignore_errors=True)
        return measured

    def _resolve(self, scenarios, store, measured: Pass, probe) -> None:
        """Two operations per scenario: its cold resolution (computed into
        the fresh store, then checked) and its warm one (read back from
        the store, compared with the cold result)."""
        tiers: Dict[ScenarioConfig, str] = {}

        def progress(event, scenario, *_):
            tiers[scenario] = event

        measured.ops += 2 * len(scenarios)
        started = time.perf_counter()
        try:
            cold = executor.run_scenarios(scenarios, workers=SWEEP_WORKERS,
                                          store=store, progress=progress)
        except Exception as error:
            measured.wall_s = time.perf_counter() - started
            measured.failed += 2 * len(scenarios)
            measured.errors.append(f"{self.name}: cold pass raised "
                                   f"{type(error).__name__}: {error}")
            return
        cold_s = time.perf_counter() - started
        if probe is not None:
            measured.worker_layers = probe.take_worker_layers(cold)
        cold_bad = set()
        if store.poison_entries():
            measured.problems.append(
                f"{self.name}: {len(store.poison_entries())} scenario(s) poisoned")
            cold_bad.update(range(len(scenarios)))
        # The oracle's own dataset builds stay out of the trace.
        with nullcontext() if probe is None else probe.paused():
            for index, (scenario, result) in enumerate(zip(scenarios, cold)):
                label = f"{self.name} {scenario.label()} seed {scenario.seed}"
                problems = [] if tiers.get(scenario) == "computed" else [
                    f"{label}: cold pass on a fresh store resolved it from "
                    f"{tiers.get(scenario)!r}"]
                try:
                    problems += self._check(label, scenario, result)
                except Exception as error:
                    measured.errors.append(f"{label}: check raised "
                                           f"{type(error).__name__}: {error}")
                    cold_bad.add(index)
                if problems:
                    measured.problems += problems
                    cold_bad.add(index)
        measured.failed += len(cold_bad)

        executor.clear_memory()
        tiers.clear()
        warm_started = time.perf_counter()
        try:
            warm = executor.run_scenarios(scenarios, workers=SWEEP_WORKERS, store=store,
                                          progress=progress)
        except Exception as error:
            warm = None
            measured.failed += len(scenarios)
            measured.errors.append(f"{self.name}: warm pass raised "
                                   f"{type(error).__name__}: {error}")
        warm_s = time.perf_counter() - warm_started
        for scenario, cold_result, warm_result in zip(scenarios, cold, warm or ()):
            label = f"{self.name} {scenario.label()} seed {scenario.seed}"
            if tiers.get(scenario) != "store":
                measured.problems.append(
                    f"{label}: warm pass resolved it from {tiers.get(scenario)!r}, "
                    "not from the store")
                measured.failed += 1
            elif warm_result.canonical_json() != cold_result.canonical_json():
                measured.problems.append(f"{label}: warm result differs from the cold one")
                measured.failed += 1

        measured.wall_s = time.perf_counter() - started
        measured.sim_s = cold_s
        measured.events = sum(result.events_executed for result in cold)
        measured.counts = work_counts(cold)
        busy = sum(result.wallclock_seconds for result in cold)
        measured.tiers = {
            "orchestrator.executor.cold_s": cold_s,
            "orchestrator.executor.warm_s": warm_s,
            "orchestrator.executor.worker_busy_share": busy / (SWEEP_WORKERS * cold_s),
        }

    def _check(self, label: str, scenario: ScenarioConfig, result) -> List[str]:
        if scenario.faults.churn_enabled:
            skipped = sum(s["samples_skipped"] for s in result.fault_stats.values())
            return [] if skipped else [f"{label}: churn cell skipped no samples"]
        dataset = loader.build_intel_lab_dataset(scenario.dataset_config())
        window = final_window(dataset, scenario)
        if scenario.algorithm == Algorithm.GLOBAL:
            return check_exact(label, result.estimates, window, scenario.detection)
        return check_semi_global(label, result.estimates, window, dataset, scenario)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (GlobalNN(), SemiGlobalKNN(), CentralizedAODV(), ChurnSweep())
}


def scratch_dir() -> str:
    """Directory for the run's throwaway files, at the checkout root."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        ".perfbench_out")
    os.makedirs(path, exist_ok=True)
    return path
