"""Which program entry points the traced run wraps, and how its spans
become the per-layer metrics.

Every wrapped callable is public; spans inside the program are left for a
later change.  Layers are named after the modules they live in.  Each
``busy_s`` is a self time: span durations minus the time of the spans they
called, so layers never count the same second twice.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence

from repro.baselines.centralized import CentralizedAggregator
from repro.core import global_detector, semiglobal_detector
from repro.core.global_detector import GlobalOutlierDetector
from repro.core.index import NeighborhoodIndex
from repro.core.interfaces import OutlierDetector
from repro.core.semiglobal_detector import SemiGlobalOutlierDetector
from repro.datasets import loader
from repro.network.channel import WirelessChannel
from repro.network.topology import Topology
from repro.orchestrator import executor
from repro.orchestrator.store import ResultStore
from repro.routing.aodv import AodvAgent
from repro.simulator.engine import Simulator
from repro.wsn import deployment as deployment_module
from repro.wsn import runner
from repro.wsn.faults import FaultRuntime

from tracing import Tracer

__all__ = ["Probe", "layer_metrics", "merge_layers"]

#: ``(owner, attribute, span name)`` of every plain wrapped entry point.
#: A function imported by name into another module is wrapped there too,
#: since callers look it up in their own namespace.
SPANS = (
    (loader, "build_intel_lab_dataset", "datasets.build"),
    (runner, "build_intel_lab_dataset", "datasets.build"),
    (Topology, "from_positions", "network.topology.build"),
    (deployment_module, "build_deployment", "wsn.deployment.build"),
    (runner, "build_deployment", "wsn.deployment.build"),
    (runner, "schedule_workload", "wsn.runner.schedule"),
    (Simulator, "run", "simulator.engine"),
    (NeighborhoodIndex, "apply_batch", "core.index.apply_batch"),
    (WirelessChannel, "transmit", "network.channel"),
    (AodvAgent, "send_data", "routing.aodv"),
    (AodvAgent, "handle_packet", "routing.aodv"),
    (CentralizedAggregator, "update_window", "baselines.centralized"),
    (CentralizedAggregator, "forget", "baselines.centralized"),
    (CentralizedAggregator, "compute_outliers", "baselines.centralized"),
    (FaultRuntime, "schedule", "wsn.faults"),
    (FaultRuntime, "sample_or_skip", "wsn.faults"),
    (FaultRuntime, "power_down", "wsn.faults"),
    (FaultRuntime, "power_up", "wsn.faults"),
    (runner, "final_references", "core.reference"),
    (runner, "collect_result", "wsn.runner.collect"),
    (ResultStore, "put", "orchestrator.store.put"),
    (ResultStore, "get", "orchestrator.store.get"),
    (executor, "run_scenarios", "orchestrator.executor"),
)

DETECTOR_ENTRIES = (
    (GlobalOutlierDetector, "update_local_data"),
    (GlobalOutlierDetector, "neighborhood_changed"),
    (SemiGlobalOutlierDetector, "update_local_data"),
    (SemiGlobalOutlierDetector, "neighborhood_changed"),
    (OutlierDetector, "receive"),
)

SUFFICIENT_CALLERS = (global_detector, semiglobal_detector)


class Probe:
    """The traced run's instrumentation: spans plus the fixpoint repeat
    counter, in this process and in forked pool workers."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.node = -1
        self.seen: set = set()
        self.repeats = 0

    def install(self) -> None:
        tracer = self.tracer
        for owner, attr, name in SPANS:
            tracer.wrap(owner, attr, name)
        for owner, attr in DETECTOR_ENTRIES:
            tracer.wrap(owner, attr, "core.detector", on_call=self._enter_detector)
        for module in SUFFICIENT_CALLERS:
            tracer.wrap(module, "compute_sufficient_set", "core.sufficient",
                        on_call=self._sufficient_inputs)
        # Pool workers are forked, so they inherit the wrappers; this
        # replacement sends each worker's span summary back with its result.
        self._run_worker = executor.run_scenario_worker
        tracer.replace(executor, "run_scenario_worker", self._traced_worker)
        tracer.start()

    def uninstall(self) -> None:
        self.tracer.stop()
        self.tracer.uninstall()

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Run a block with every wrapper removed."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def begin_pass(self) -> None:
        """Drop the spans and repeat count of the previous pass."""
        self.tracer.clear()
        self.seen.clear()
        self.repeats = 0

    def new_scenario(self) -> None:
        """Forget fixpoint inputs: a repeat is counted within one scenario."""
        self.seen.clear()

    # ------------------------------------------------------------------
    def _enter_detector(self, detector, *args, **kwargs) -> None:
        self.node = detector.sensor_id

    def _sufficient_inputs(self, query, holdings, known_shared, *args, **kwargs) -> None:
        key = hash((self.node, frozenset(holdings), frozenset(known_shared)))
        if key in self.seen:
            self.repeats += 1
        else:
            self.seen.add(key)

    def _traced_worker(self, scenario, *args, **kwargs):
        self.begin_pass()
        result = self._run_worker(scenario, *args, **kwargs)
        result.perfbench_layers = (self.tracer.layers(), self.repeats)
        return result

    def take_worker_layers(self, results: Sequence) -> List[tuple]:
        """Detach the span summaries pool workers attached to ``results``."""
        return [vars(result).pop("perfbench_layers") for result in results
                if "perfbench_layers" in vars(result)]


def merge_layers(parent: Dict[str, dict], workers: Sequence[tuple]) -> Dict[str, dict]:
    """Sum the per-name span summaries of this process and its workers."""
    merged = {name: dict(values) for name, values in parent.items()}
    for layers, _ in workers:
        for name, values in layers.items():
            into = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in values.items():
                into[key] += value
    return merged


def layer_metrics(layers: Dict[str, dict], counts: Dict[str, float],
                  tiers: Dict[str, float], repeats: int) -> Dict[str, float]:
    """Every per-layer metric of one traced pass (0 where a layer idles)."""

    def busy(name: str) -> float:
        return layers.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return layers.get(name, {}).get("calls", 0)

    def count(name: str) -> float:
        return counts.get(name, 0)

    fixpoints = calls("core.sufficient")
    metrics = {
        "core.sufficient.busy_s": busy("core.sufficient"),
        "core.sufficient.calls": fixpoints,
        "core.sufficient.repeat_share": repeats / fixpoints if fixpoints else 0.0,
        "core.detector.busy_s": busy("core.detector"),
        "core.detector.calls": calls("core.detector"),
        "core.index.apply_batch_s": busy("core.index.apply_batch"),
        "core.index.apply_batch_calls": calls("core.index.apply_batch"),
        "simulator.engine.run_s": layers.get("simulator.engine", {}).get("total_s", 0.0),
        "simulator.engine.self_s": busy("simulator.engine"),
        "simulator.engine.events": count("events_executed"),
        "network.channel.busy_s": busy("network.channel"),
        "network.channel.transmissions": count("channel.transmissions"),
        "network.channel.deliveries": count("channel.deliveries"),
        "network.channel.losses": count("channel.losses"),
        "network.channel.bytes": count("channel.bytes_transmitted"),
        "routing.aodv.busy_s": busy("routing.aodv"),
        "routing.aodv.calls": calls("routing.aodv"),
        "baselines.centralized.busy_s": busy("baselines.centralized"),
        "datasets.build_s": busy("datasets.build"),
        "network.topology.build_s": busy("network.topology.build"),
        "wsn.deployment.build_s": busy("wsn.deployment.build"),
        "wsn.runner.schedule_s": busy("wsn.runner.schedule"),
        "core.reference.s": busy("core.reference"),
        "wsn.runner.collect_s": busy("wsn.runner.collect"),
        "wsn.faults.busy_s": busy("wsn.faults"),
        "wsn.faults.skipped_samples": count("faults.samples_skipped"),
        "wsn.faults.samples_taken": count("faults.samples_taken"),
        "orchestrator.executor.cold_s": tiers.get("orchestrator.executor.cold_s", 0.0),
        "orchestrator.executor.warm_s": tiers.get("orchestrator.executor.warm_s", 0.0),
        "orchestrator.executor.worker_busy_share":
            tiers.get("orchestrator.executor.worker_busy_share", 0.0),
        "orchestrator.store.put_s": busy("orchestrator.store.put"),
        "orchestrator.store.puts": calls("orchestrator.store.put"),
        "orchestrator.store.get_s": busy("orchestrator.store.get"),
        "orchestrator.store.gets": calls("orchestrator.store.get"),
        "network.energy.mj_per_node_round": count("energy.mj_per_node_round"),
    }
    for name in ("events_processed", "messages_built", "messages_received", "points_sent",
                 "points_received", "points_ignored", "local_points_added", "points_evicted"):
        metrics[f"core.detector.{name}"] = count(f"detector.{name}")
    return metrics
