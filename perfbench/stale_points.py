"""Show live nodes holding points older than the sliding window after churn.

    python3 perfbench/stale_points.py [--seed 1]

Runs the heavy-churn Global-NN cell of the fault-churn grid at the quick
profile (16 sensors, 15 rounds, window 10) and
lists, for every node that is up when the run ends, the ``(origin, epoch)``
of each point it holds although the point's epoch lies before the final
window.  A correct detector evicts those points; a non-empty list is the
fault described in ``perfbench/README.md``.  This is why the churn-sweep
workload checks only properties that survive it.  Exits 1 when stale points
are found.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core.config import Algorithm  # noqa: E402
from repro.datasets import loader  # noqa: E402
from repro.experiments.common import QUICK_PROFILE  # noqa: E402
from repro.experiments.sweeps import CHURN_LEVELS, fault_churn_scenarios  # noqa: E402
from repro.wsn import deployment as deployment_module  # noqa: E402
from repro.wsn import runner  # noqa: E402


def stale_holdings(seed: int) -> dict:
    heavy = dict(CHURN_LEVELS)["heavy"]
    grid = fault_churn_scenarios(replace(QUICK_PROFILE, repetitions=seed + 1))
    scenario = next(s for s in grid if s.faults == heavy and s.seed == seed
                    and s.algorithm == Algorithm.GLOBAL)
    rounds, window = scenario.rounds, scenario.detection.window_length
    dataset = loader.build_intel_lab_dataset(scenario.dataset_config())
    deployment = deployment_module.build_deployment(scenario, dataset)
    runner.schedule_workload(deployment)
    deployment.simulator.run()
    first_kept = dataset.first_epoch + rounds - window
    return {
        node: sorted((p.origin, p.epoch) for p in detector.holdings if p.epoch < first_kept)
        for node, detector in sorted(deployment.detectors.items())
        if deployment.nodes[node].up
    }


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    stale = {node: points for node, points in
             stale_holdings(args.seed).items() if points}
    for node, points in stale.items():
        print(f"node {node} (up) holds expired points (origin, epoch): {points}")
    if not stale:
        print("no live node holds an expired point")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
