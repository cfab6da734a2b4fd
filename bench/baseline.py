"""Run the benchmark over several seeds and record the baseline.

    python3 bench/baseline.py [--seeds 1-10] [--workloads a,b]
        [--out bench/baseline.json]

Runs ``bench/run.py`` once per workload and seed with the command and run
length of ``BENCHMARK.json``, then once more per workload with tracing on
and the first seed.  For each end-to-end metric it reports the median and
the spread, the distance between the first and third quartiles as a share
of the median, and marks a spread of more than a third of the metric's
bound.  Writes the medians, spreads, every value, the traced per-layer
metrics and what each layer should move, with the Python version, git
commit, ``nproc`` and seeds.
Exits 1 if any run failed a check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)
from run import LAYERS  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["exit"] = proc.returncode
    return result


def _spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--workloads", default=None, help="comma separated")
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seeds = _seeds(args.seeds)

    ok = True
    doc = {
        "python": platform.python_version(),
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "trace_seed": seeds[0],
        "layers_move": {name: moves for name, (moves, _) in LAYERS.items()},
        "workloads": {},
    }
    for workload in names:
        runs = [_run(spec, workload, seed, 0) for seed in seeds]
        traced = _run(spec, workload, seeds[0], 1)
        ok = ok and all(r["correct"] and r["exit"] == 0
                        for r in runs + [traced])
        row = {"attempted": sum(r["attempted"] for r in runs),
               "failed": sum(r["failed"] for r in runs),
               "end_to_end": {}}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            median, spread = _spread(values)
            steady = metric == "setup_s" or spread < bound / 3
            print(f"{workload:<9} {metric:<15} median {median:12.6f} "
                  f"spread {spread:7.4f} bound {bound:5.2f}"
                  f"{'' if steady else '  NOT STEADY'}")
            row["end_to_end"][metric] = {
                "median": median, "spread": spread, "values": values,
                "unit": runs[0]["metrics"][metric]["unit"]}
        row["per_layer"] = traced["metrics"]
        doc["workloads"][workload] = row
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
