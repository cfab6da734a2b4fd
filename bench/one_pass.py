"""One pass of one workload in a fresh interpreter.

    python3 bench/one_pass.py WORKLOAD SEED {pass,setup} {0,1} [--quick]
        [--spans FILE]

Sets up (imports, the item list, expected values), then times each item
alone and checks its output after the timer stops.  With mode ``setup`` it
stops where the first item would start.

While items run, a timer signal samples the host's speed every
``SAMPLE_EVERY_S``: it times a fixed pure-Python loop that uses no package
code.  An item's time leaves the sampling out, and its record carries the
median reference time of the samples taken during it and of the last one
before and the first one after it, so that ``run.py`` can correct the item's
time for a shared host that speeds up and slows down within seconds.

With tracing on, spans around the package's public functions are recorded
and written to ``--spans`` as JSONL; they include the sampling.  Prints one
JSON object with the item records, the size counters, the peak resident set
and, when traced, the per-layer aggregates.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import spans  # noqa: E402
import workloads  # noqa: E402

REFERENCE_SIZE = 800
SAMPLE_EVERY_S = 0.05
SETUP_REFERENCE_SAMPLES = 5


def reference_s() -> float:
    """Time of one run of the reference loop, about 2 ms on a 2-vCPU x86-64
    host.  It mixes what the package spends its time on: tuples and
    frozensets hashed into dicts, sorting, and integer row operations."""
    start = time.perf_counter()
    n = REFERENCE_SIZE
    cells = [frozenset((i % 97, i * 5 % 89, i * 11 % 83)) for i in range(n)]
    index = {cell: k for k, cell in enumerate(cells)}
    faces: dict[tuple[int, int], int] = {}
    for cell in cells:
        for a in cell:
            key = (a, index[cell] % 13)
            faces[key] = faces.get(key, 0) + 1
    sorted(faces.items())
    rows = [[(i * j + 1) % 7 for j in range(12)] for i in range(12)]
    for r in range(12):
        for q in range(r + 1, 12):
            f = rows[q][r]
            rows[q] = [(a - f * b) % 65521 for a, b in zip(rows[q], rows[r])]
    return time.perf_counter() - start


class HostSpeed:
    """The (start, end) of every run of the reference loop in a pass."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def _sample(self, *_signal) -> None:
        start = time.perf_counter()
        self.samples.append((start, start + reference_s()))

    @contextlib.contextmanager
    def sampling(self):
        """Sample before, after and every ``SAMPLE_EVERY_S`` inside."""
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._sample()

    def during(self, start: float, end: float) -> tuple[float, float]:
        """Seconds of ``start..end`` spent sampling, and the median
        reference time of the samples inside it and the nearest one on
        each side."""
        lo = bisect.bisect_left(self.samples, (start,))
        hi = bisect.bisect_right(self.samples, (end,))
        inside = self.samples[lo:hi]
        paused = sum(min(b, end) - a for a, b in inside)
        near = self.samples[max(lo - 1, 0):hi + 1]
        return paused, statistics.median(b - a for a, b in near)


def run_items(items: list[workloads.Item], recorder=None) -> dict:
    """Time every item, then check it; returns the pass record."""
    with (spans.installed(recorder) if recorder is not None
          else contextlib.nullcontext()):
        out = _timed_and_checked(items)
    if recorder is not None:
        out["layers"] = spans.aggregate(recorder.spans)
        out["top_level_s"] = recorder.top_level_seconds()
    return out


def _timed_and_checked(items: list[workloads.Item]) -> dict:
    records = []
    counters: dict[str, int] = {}
    intervals = []
    speed = HostSpeed()
    with speed.sampling():
        for item in items:
            start = time.perf_counter()
            try:
                result = item.run()
            except Exception as exc:  # an item that raises is a failed item
                end = time.perf_counter()
                problems, found = [traceback.format_exc()], {}
                text = repr(exc)
            else:
                end = time.perf_counter()
                try:
                    problems, found, text = item.check(result)
                except Exception:  # so is output that cannot be read
                    problems, found, text = [traceback.format_exc()], {}, ""
                del result
            intervals.append((start, end))
            for key, value in found.items():
                counters[key] = counters.get(key, 0) + value
            records.append({
                "name": item.name,
                "problems": problems,
                "digest": hashlib.sha256(text.encode()).hexdigest()[:16],
            })
    for record, (start, end) in zip(records, intervals):
        paused, reference = speed.during(start, end)
        record.update(seconds=end - start - paused, paused_s=paused,
                      reference_s=reference)
    return {"items": records, "counters": counters}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("mode", choices=("pass", "setup"))
    parser.add_argument("trace", type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="only the workload's one quick item")
    parser.add_argument("--spans", default=None, help="JSONL span file")
    args = parser.parse_args(argv)
    imported = os.path.abspath(workloads.cli.__file__)
    if not imported.startswith(SRC + os.sep):
        sys.exit(f"polygonspaces imported from {imported}, not from {SRC}")

    items = workloads.build(args.workload, args.seed)
    if args.quick:
        quick = workloads.QUICK[args.workload]
        items = [i for i in items if i.name == quick]
        if len(items) != 1:
            sys.exit(f"no quick item {quick!r}")
    first_item = time.monotonic()
    out = {"first_item": first_item, "setup_reference_s": statistics.median(
        reference_s() for _ in range(SETUP_REFERENCE_SAMPLES))}
    if args.mode == "pass":
        recorder = spans.Recorder() if args.trace else None
        out.update(run_items(items, recorder))
        if recorder is not None and args.spans:
            recorder.write_jsonl(args.spans)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_mb"] = peak_kib / 1024
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
