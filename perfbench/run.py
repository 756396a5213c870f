"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload global-nn --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
A run repeats whole passes over the workload for ``--seconds`` and reports
medians over the passes; ``setup_s`` is the median of every input build
timed in them.  A pass is not started unless it is expected to end in time
(the first always is), so a run lasts about ``--seconds``.  With
``--trace 1`` every operation runs twice, untraced and then traced, and the
run reports the per-layer metrics instead of the end-to-end ones; the
difference of the two is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units come from ``BENCHMARK.json``.  Progress and problems go to standard
error.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: List[str], default_seed: int, default_seconds: float) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=default_seed)
    parser.add_argument("--seconds", type=float, default=default_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_passes(workload, scenarios, until: float, probe=None) -> list:
    """Whole passes while another one is expected to end by ``until``
    (at least one)."""
    passes = []
    while True:
        started = time.perf_counter()
        if probe is None:
            passes.append(workload.run_pass(scenarios))
        else:
            probe.begin_pass()
            measured = workload.run_pass(scenarios, probe)
            measured.trace = (probe.tracer.layers(), probe.repeats)
            passes.append(measured)
        now = time.perf_counter()
        if now + (now - started) > until:
            return passes


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the peak of its largest
    reaped child, in MiB (``ru_maxrss`` is in KiB on Linux).

    Only ``churn-sweep`` has children (its pool workers).  A forked
    worker's peak includes the pages it shares with this process, so those
    count twice, and of two workers alive at once only the larger counts:
    the figure is neither the process group's true peak nor this
    process's alone, but it grows when either side grows."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def print_shares(layers: dict) -> None:
    """Self time of every span name in a traced pass, as a share of the
    pass's host time (all self times, pool workers included)."""
    total = sum(values["self_s"] for values in layers.values())
    print("perfbench: layer                     self_s    share   calls", file=sys.stderr)
    for name, values in sorted(layers.items(), key=lambda item: -item[1]["self_s"]):
        print(f"perfbench: {name:24s} {values['self_s']:8.3f} {values['self_s'] / total:7.1%} "
              f"{values['calls']:7d}", file=sys.stderr)


def determinism_problems(name: str, passes) -> List[str]:
    """Every pass ran the same inputs, so its work counts must be equal
    (a pass whose operations failed has none)."""
    counted = [measured for measured in passes if measured.counts]
    if not counted:
        return []
    first = counted[0].counts
    return [
        f"{name}: determinism fault: pass {number} counted {differing} "
        f"where pass 0 counted {[first.get(key) for key in differing]}"
        for number, measured in enumerate(counted[1:], start=1)
        if (differing := sorted(k for k in set(first) | set(measured.counts)
                                if first.get(k) != measured.counts.get(k)))
    ]


def main(argv: List[str]) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from the root of a checkout holding src/repro and "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))

    from instrument import Probe, layer_metrics, merge_layers
    from workloads import DEFAULT_SEED, WORKLOADS, scratch_dir

    args = parse_args(argv, DEFAULT_SEED, spec["run_seconds"])
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    scenarios = workload.scenarios(args.seed)

    started = time.perf_counter()
    deadline = started + args.seconds
    if args.trace:
        probe = Probe()
        probe.install()
        try:
            passes = run_passes(workload, scenarios, deadline, probe)
        finally:
            probe.uninstall()
        probe.tracer.write(Path(scratch_dir()) / f"spans-{workload.name}.tsv")
    else:
        passes = run_passes(workload, scenarios, deadline)

    counts_path = Path(scratch_dir()) / f"counts-{workload.name}-{args.seed}.json"
    counts_path.write_text(json.dumps(passes[0].counts, sort_keys=True))
    problems = [problem for measured in passes for problem in measured.problems]
    problems += determinism_problems(workload.name, passes)
    for problem in problems + [error for measured in passes for error in measured.errors]:
        print(f"perfbench: {problem}", file=sys.stderr)
    if not any(measured.counts for measured in passes):
        print("perfbench: no operation succeeded, so nothing was measured", file=sys.stderr)
        return 1

    if args.trace:
        per_pass = []
        for measured in passes:
            layers, repeats = measured.trace
            layers = merge_layers(layers, measured.worker_layers)
            repeats += sum(worker_repeats for _, worker_repeats in measured.worker_layers)
            per_pass.append(layer_metrics(layers, measured.counts, measured.tiers, repeats))
        print_shares(layers)
        values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        values["trace.overhead_s"] = statistics.median(
            p.wall_s - p.untraced_wall_s for p in passes)
        listed = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "setup_s": statistics.median(t for p in passes for t in p.setup_s),
            "events_per_s": statistics.median(
                [p.events / p.sim_s for p in passes if p.sim_s] or [0.0]),
            "peak_rss_mb": peak_rss_mb(),
        }
        listed = spec["end_to_end"]

    units = {metric["name"]: metric["unit"] for metric in listed}
    if set(values) != set(units):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 3
    print(f"perfbench: {workload.name} seed {args.seed}: {len(passes)} passes in "
          f"{time.perf_counter() - started:.1f} s", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p.ops for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
