"""Run two sets of benchmark runs of the same code and report whether they agree.

    python3 perfbench/compare.py                  # every workload, 10 seeds a set
    python3 perfbench/compare.py --runs 5 --workload global-nn

Each set runs every chosen workload once per seed (seeds 1 upwards),
alternating which set goes first.  For each workload and
end-to-end metric the report gives both sets' medians and their spread --
the distance between the first and third quartile as a share of the median
-- and checks what ``BENCHMARK.json`` promises:

* each set's spread is within the metric's bound;
* the second set's median is not worse than the first's by more than the
  bound;
* both sets fail the same share of operations, and every run is correct;
* the deterministic work counts of a seed are identical in both sets.

Exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent


def spread(values: List[float]) -> float:
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    counts = ROOT / ".perfbench_out" / f"counts-{workload}-{seed}.json"
    result["counts"] = json.loads(counts.read_text())
    return result


def main(argv: List[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workload or names:
        sets: List[List[dict]] = [[], []]
        for seed in range(1, args.runs + 1):
            for which in (0, 1) if seed % 2 else (1, 0):
                sets[which].append(run_once(workload, seed, spec["run_seconds"]))
                print(f"  {workload} seed {seed} set {which + 1}: " + ", ".join(
                    f"{name}={metric['value']:.4g}"
                    for name, metric in sets[which][-1]["metrics"].items()), file=sys.stderr)
        ok &= report(workload, sets, spec["end_to_end"])
    print("agree" if ok else "DISAGREE")
    return 0 if ok else 1


def report(workload: str, sets: List[List[dict]], metrics: List[dict]) -> bool:
    ok = True
    print(f"\n{workload} ({len(sets[0])} runs a set)")
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        values = [[run["metrics"][name]["value"] for run in runs] for runs in sets]
        medians = [statistics.median(v) for v in values]
        spreads = [spread(v) for v in values]
        line = (f"  {name:14s} median {' / '.join(f'{m:.5g}' for m in medians)}"
                f"  spread {' / '.join(f'{s:.3f}' for s in spreads)}  bound {bound}")
        if max(spreads) > bound:
            line += "  SPREAD OVER BOUND"
            ok = False
        if worse_by(*medians, metric["better"]) > bound:
            line += "  SECOND SET WORSE THAN BOUND"
            ok = False
        print(line)
    shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
    correct = all(run["correct"] for runs in sets for run in runs)
    counts_equal = all(first["counts"] == second["counts"] for first, second in zip(*sets))
    print(f"  failed share {' / '.join(f'{s:.4f}' for s in shares)}; all correct: {correct}; "
          f"work counts equal across sets: {counts_equal}")
    return ok and correct and counts_equal and len(set(shares)) == 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
