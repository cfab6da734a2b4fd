"""Benchmark of the polygonspaces pipeline.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
        [--trace 0|1] [--quick]

Runs passes of a workload one after another, each in a fresh interpreter,
until ``--seconds`` have gone by and at least ``MIN_PASSES`` passes are done.
Every item's output is checked against an independent expectation; its
output digest and the pass's size counters must repeat in every pass.

With ``--trace 0`` the end-to-end metrics are reported: set-up time, the
median pass time, the median slowest item and the peak resident set.
Times are corrected for the host's speed, which on a shared host swings by
half within seconds: each time is multiplied by ``REFERENCE_NOMINAL_S`` over
the time of a fixed reference loop sampled during it in the same process
(see ``one_pass.py``).  They read as seconds on a host that runs the
reference loop in ``REFERENCE_NOMINAL_S``.  The reference loop uses no
package code, so a change to the package moves them by its own factor.
With ``--trace 1`` traced and untraced passes alternate and the per-layer
metrics are reported, with the tracing overhead and the share of the pass
that top-level spans cover.  Without ``--workload`` every workload runs.

Prints each metric with its unit, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 1 if
any check failed and 2 if the package sources are missing.  A report of
every pass goes to ``bench/out/``, and traced passes write their spans
there as JSONL.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("surfaces", "models", "spheres", "shadow")
MIN_PASSES = 2
SETUP_SAMPLES = 5
# About the reference loop's time on a quiet 2-vCPU x86-64 host.
REFERENCE_NOMINAL_S = 0.002
# A workload's run stops and fails past this, so that it ends within 180 s.
RUN_LIMIT_S = 170

# Per-layer metrics: span name -> (the end-to-end metrics and workloads the
# layer should move, ((metric suffix, unit, source), ...)).  A source is an
# aggregate of the traced passes, or "a/b" for a ratio of two of them.
LAYERS = {
    "cli.main": ("wall_s on surfaces", (
        ("calls", "count", "calls"), ("self_s", "s", "self_s"),
        ("nonzero_exits", "count", "nonzero_exits"))),
    "genetics.realize": ("wall_s on shadow", (
        ("calls", "count", "calls"), ("busy_s", "s", "busy_s"),
        ("realized_ratio", "ratio", "realized/calls"))),
    "genetics.saturated_chain": ("wall_s on shadow", (
        ("busy_s", "s", "busy_s"), ("codes_out", "count", "codes_out"))),
    "coxeter.coxeter_complex": ("wall_s, slowest_item_s on spheres", (
        ("busy_s", "s", "busy_s"), ("cells_out", "count", "cells_out"))),
    "coxeter.seal": ("wall_s, slowest_item_s on spheres", (
        ("busy_s", "s", "busy_s"),)),
    "coxeter.projective_quotient": ("wall_s, slowest_item_s on spheres", (
        ("busy_s", "s", "busy_s"), ("cells_out", "count", "cells_out"))),
    "surgery.run_chain": ("wall_s on surfaces", (
        ("self_s", "s", "self_s"),)),
    "surgery.locate_sphere": ("wall_s on surfaces", (
        ("busy_s", "s", "busy_s"),)),
    "surgery.surgery_2d": ("wall_s on surfaces", (
        ("busy_s", "s", "busy_s"), ("cells_out", "count", "cells_out"))),
    "surgery.run_model": ("wall_s on models", (
        ("busy_s", "s", "busy_s"), ("built_ratio", "ratio", "built/calls"),
        ("simplices_out", "count", "simplices_out"))),
    "homology.homology": (
        "wall_s, slowest_item_s, peak_rss_mb on models; wall_s on surfaces", (
            ("calls", "count", "calls"), ("busy_s", "s", "busy_s"),
            ("self_s", "s", "self_s"))),
    "homology.barycentric": (
        "wall_s, slowest_item_s, peak_rss_mb on models; wall_s on surfaces", (
            ("busy_s", "s", "busy_s"),
            ("simplices_out", "count", "simplices_out"))),
    "homology.identify_small": (
        "wall_s, slowest_item_s, peak_rss_mb on models; wall_s on surfaces", (
            ("busy_s", "s", "busy_s"),)),
    "posets.intersection_poset": ("wall_s on shadow", (
        ("busy_s", "s", "busy_s"), ("elements_out", "count", "elements_out"))),
    "posets.comb_surgery": ("wall_s on shadow", (
        ("busy_s", "s", "busy_s"),)),
    "posets.poset_isomorphic": ("wall_s on shadow", (
        ("busy_s", "s", "busy_s"), ("found_ratio", "ratio", "found/calls"))),
}


def _pass(workload: str, seed: int, mode: str, traced: bool, quick: bool,
          deadline: float, spans_path: str | None = None) -> dict | None:
    """Run one pass (or one set-up) in a fresh interpreter; None if it
    crashed, ran past ``deadline`` or printed no record."""
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"), workload,
           str(seed), mode, str(int(traced))]
    cmd += ["--quick"] if quick else []
    cmd += ["--spans", spans_path] if spans_path else []
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - spawned, 0.1))
    except subprocess.TimeoutExpired:
        print(f"{workload}: pass timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"{workload}: pass exited {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
        return None
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = _corrected(record.pop("first_item") - spawned,
                                   record["setup_reference_s"])
    return record


class Tally:
    """Items attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, why: str) -> None:
        self.failures.append(why)


def _check_passes(passes: list[dict], tally: Tally) -> None:
    """Count failed items and items whose output digest differs from the
    first pass; each pass also counts one check that its item list and
    size counters equal the first pass's."""
    first = passes[0]
    for k, record in enumerate(passes):
        tally.attempted += len(record["items"]) + 1
        for item, ref in zip(record["items"], first["items"]):
            if item["problems"]:
                tally.fail(f"pass {k} {item['name']}: {item['problems']}")
            elif item["digest"] != ref["digest"]:
                tally.fail(f"pass {k} {item['name']}: output differs")
        if (len(record["items"]) != len(first["items"])
                or record["counters"] != first["counters"]):
            tally.fail(f"pass {k}: {len(record['items'])} items, counters "
                       f"{record['counters']} != {first['counters']}")


def _layer_counts(traced: list[dict], tally: Tally) -> None:
    """Traced size counters must repeat too: everything but the times."""
    def counts(record):
        return {name: {k: v for k, v in row.items() if not k.endswith("_s")}
                for name, row in record["layers"].items()}

    for k, record in enumerate(traced[1:], 1):
        if counts(record) != counts(traced[0]):
            tally.fail(f"traced pass {k}: layer counters differ")


def _corrected(seconds: float, reference_s: float) -> float:
    """``seconds`` at the host speed where the reference loop takes
    ``REFERENCE_NOMINAL_S``."""
    return seconds * REFERENCE_NOMINAL_S / reference_s


def _item_s(item: dict) -> float:
    return _corrected(item["seconds"], item["reference_s"])


def _wall(record: dict) -> float:
    """Uncorrected time of the pass's items, sampling included, as the
    spans see it."""
    return sum(item["seconds"] + item["paused_s"] for item in record["items"])


def _pass_s(record: dict) -> float:
    return sum(map(_item_s, record["items"]))


def _layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    metrics = {}
    for name, (_, rows) in LAYERS.items():
        for suffix, unit, source in rows:
            values = []
            for record in traced:
                row = record["layers"].get(name, {})
                if "/" in source:
                    num, den = source.split("/")
                    values.append(row.get(num, 0) / row[den] if row else 0.0)
                else:
                    values.append(row.get(source, 0))
            metrics[f"{name}.{suffix}"] = (statistics.median(values), unit)
    metrics["trace.overhead_s"] = (
        statistics.median(map(_pass_s, traced))
        - statistics.median(map(_pass_s, untraced)), "s")
    metrics["trace.coverage_ratio"] = (
        statistics.median(r["top_level_s"] / _wall(r) for r in traced),
        "ratio")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool) -> tuple[dict, Tally]:
    """Measure one workload; returns (metric -> (value, unit), tally)."""
    os.makedirs(OUT, exist_ok=True)
    tally = Tally()
    stem = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}")
    deadline = time.monotonic() + RUN_LIMIT_S
    # Warm-up set-up, not measured: writes bytecode caches and loads files.
    _pass(workload, seed, "setup", False, quick, deadline)
    passes: list[tuple[bool, dict | None]] = []
    started = time.monotonic()
    while (time.monotonic() - started < seconds
           or len(passes) < MIN_PASSES) and time.monotonic() < deadline:
        traced = trace and len(passes) % 2 == 0
        spans_path = f"{stem}-pass{len(passes)}.jsonl" if traced else None
        passes.append((traced, _pass(workload, seed, "pass", traced, quick,
                                     deadline, spans_path)))
    done = [(traced, r) for traced, r in passes if r is not None]
    for _ in range(len(passes) - len(done)):
        tally.attempted += 1
        tally.fail("a pass crashed or ran out of time")
    if len(passes) < MIN_PASSES:
        tally.attempted += 1
        tally.fail(f"only {len(passes)} passes within {RUN_LIMIT_S} s")
    setups = [r["setup_s"] for traced, r in done if not traced]
    while not trace and len(setups) < SETUP_SAMPLES:
        record = _pass(workload, seed, "setup", False, quick, deadline)
        if record is None:
            tally.attempted += 1
            tally.fail("a set-up crashed")
            break
        setups.append(record["setup_s"])

    metrics: dict = {}
    traced_runs = [r for traced, r in done if traced]
    plain_runs = [r for traced, r in done if not traced]
    if done:
        _check_passes([r for _, r in done], tally)
    if traced_runs and plain_runs:
        _layer_counts(traced_runs, tally)
        metrics = _layer_metrics(traced_runs, plain_runs)
    elif plain_runs and not trace:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(map(_pass_s, plain_runs)), "s"),
            "slowest_item_s": (statistics.median(
                max(map(_item_s, r["items"])) for r in plain_runs), "s"),
            "peak_rss_mb": (statistics.median(
                r["peak_rss_mb"] for r in plain_runs), "MB"),
        }
    with open(f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "trace": trace,
                   "passes": [dict(r, traced=t) for t, r in done],
                   "failures": tally.failures}, handle, indent=1)
    return metrics, tally


def _result_line(metrics: dict, tally: Tally) -> str:
    return json.dumps({
        "correct": not tally.failures,
        "attempted": max(tally.attempted, 1),
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one cheap item per pass, for the self-check")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "polygonspaces",
                                       "__init__.py")):
        print(f"no package sources under {ROOT}/src", file=sys.stderr)
        return 2

    ok = True
    for workload in [args.workload] if args.workload else WORKLOADS:
        metrics, tally = run_workload(workload, args.seed, args.seconds,
                                      bool(args.trace), args.quick)
        failed_ratio = len(tally.failures) / max(tally.attempted, 1)
        print(f"{workload} seed={args.seed} trace={args.trace}: "
              f"{tally.attempted} items attempted, "
              f"{len(tally.failures)} failed")
        for why in tally.failures[:20]:
            print(f"  FAILED {why}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<44} {value:14.6f} {unit}")
        print(f"  {'failed_ratio':<44} {failed_ratio:14.6f} ratio")
        print(_result_line(metrics, tally))
        ok = ok and not tally.failures
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
