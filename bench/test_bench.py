"""Self-check of the benchmark on one quick item per workload.

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import subprocess
import sys

import pytest

import one_pass
import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _quick_items(workload):
    items = [i for i in workloads.build(workload, 1)
             if i.name == workloads.QUICK[workload]]
    assert len(items) == 1
    return items


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--quick",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    results = [json.loads(line) for line in lines if line.startswith("{")]
    spec = _spec()
    assert len(results) == len(spec["workloads"])
    expected = {m["name"]: m["unit"] for m in spec[section]}
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines), name
    assert json.loads(lines[-1]) == results[-1]


CORRUPTIONS = {
    "surfaces": ("SURFACE_NAMES", ("<15>", False), "S^2"),
    "models": ("MODEL_F_VECTORS", "<14>", [20, 21]),
    "spheres": ("SPHERE_NAMES", 4, ("S^2", "RP^2")),
    "shadow": ("REALIZABLE", 6, ("<6>",)),
}


@pytest.mark.parametrize("workload", sorted(CORRUPTIONS))
def test_quick_item_passes_and_a_corrupted_expectation_fails(
        workload, monkeypatch):
    record = one_pass.run_items(_quick_items(workload))
    tally = run.Tally()
    run._check_passes([record, record], tally)
    assert tally.attempted == 4 and not tally.failures

    table, key, wrong = CORRUPTIONS[workload]
    monkeypatch.setitem(getattr(workloads, table), key, wrong)
    corrupted = one_pass.run_items(_quick_items(workload))
    assert corrupted["items"][0]["problems"]
    tally = run.Tally()
    run._check_passes([corrupted], tally)
    assert len(tally.failures) == 1


def test_output_that_changes_between_passes_fails():
    record = one_pass.run_items(_quick_items("surfaces"))
    changed = json.loads(json.dumps(record))
    changed["items"][0]["digest"] = "0" * 16
    tally = run.Tally()
    run._check_passes([record, changed], tally)
    assert len(tally.failures) == 1


def test_traced_pass_counts_the_layers_it_touches():
    recorder = one_pass.spans.Recorder()
    record = one_pass.run_items(_quick_items("surfaces"), recorder)
    assert not hasattr(workloads.cli.main, "__wrapped__")
    layers = record["layers"]
    assert layers["cli.main"]["calls"] == 1
    assert layers["surgery.surgery_2d"]["cells_out"] > 0
    assert layers["homology.homology"]["calls"] == 2
    for row in layers.values():
        assert 0 <= row["self_s"] <= row["busy_s"] + 1e-9
    assert 0 < record["top_level_s"] <= run._wall(record)


def test_item_time_leaves_out_sampling_and_uses_nearby_samples():
    speed = one_pass.HostSpeed()
    speed.samples = [(0.0, 0.002), (1.0, 1.004), (1.5, 1.503), (3.0, 3.008)]
    paused, reference = speed.during(0.9, 2.0)
    assert paused == pytest.approx(0.007)
    assert reference == pytest.approx(0.0035)
    record = one_pass.run_items(_quick_items("spheres"))
    item = record["items"][0]
    assert item["seconds"] > 0 and item["reference_s"] > 0
    assert run._item_s(item) == pytest.approx(
        item["seconds"] * run.REFERENCE_NOMINAL_S / item["reference_s"])
