"""Spans around the package's public functions, recorded from outside.

``installed`` replaces each traced function wherever a module of the package
holds it as an attribute, so calls made through names that ``cli`` and
``surgery`` import are caught too.  ``RegularCellComplex.seal`` is wrapped
on the class.  Spans stay in memory until ``write_jsonl``; ``aggregate``
turns them into per-layer calls, busy time, self time and size counters.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

PACKAGE = "polygonspaces"
MODULES = ("cli", "coxeter", "genetics", "homology", "posets", "surgery")


# Size counters taken from each traced function's return value: counter
# name -> function of the result.  ``calls`` is always counted.
COUNTERS = {
    "cli.main": {"nonzero_exits": lambda rc: int(rc != 0)},
    "genetics.realize": {"realized": lambda v: int(v is not None)},
    "genetics.saturated_chain": {"codes_out": lambda ch: len(ch.codes)},
    "coxeter.coxeter_complex": {"cells_out": len},
    "coxeter.seal": {},
    "coxeter.projective_quotient": {"cells_out": lambda res: len(res[0])},
    "surgery.run_chain": {},
    "surgery.locate_sphere": {},
    "surgery.surgery_2d": {"cells_out": len},
    "surgery.run_model": {
        "built": lambda res: 1,
        "simplices_out": lambda res: len(res.complex),
    },
    "homology.homology": {},
    "homology.barycentric": {"simplices_out": len},
    "homology.identify_small": {},
    "posets.intersection_poset": {"elements_out": len},
    "posets.comb_surgery": {},
    "posets.poset_isomorphic": {"found": lambda iso: int(iso is not None)},
}


class Recorder:
    """Spans of one process: id, name, parent id, start, end, counters."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, name: str, counters: dict, fn, args, kwargs):
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span["end"] = time.perf_counter()
            span["error"] = type(exc).__name__
            raise
        finally:
            self._stack.pop()
        span["end"] = time.perf_counter()
        span["counters"] = {k: f(result) for k, f in counters.items()}
        return result

    def top_level_seconds(self) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["parent"] is None)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Route every traced function of the package through ``recorder``
    inside the block, and put the originals back after it."""
    modules = {name: importlib.import_module(f"{PACKAGE}.{name}")
               for name in MODULES}
    holders = [importlib.import_module(PACKAGE), *modules.values()]
    undo = []
    for span_name, counters in COUNTERS.items():
        module_name, attr = span_name.split(".")
        if attr == "seal":
            cls = modules["coxeter"].RegularCellComplex
            undo.append((cls, "seal", cls.seal))
            cls.seal = _wrap(recorder, span_name, counters, cls.seal)
            continue
        original = getattr(modules[module_name], attr)
        wrapper = _wrap(recorder, span_name, counters, original)
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    undo.append((holder, key, original))
                    setattr(holder, key, wrapper)
    try:
        yield recorder
    finally:
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)


def _wrap(recorder: Recorder, name: str, counters: dict, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, counters, fn, args, kwargs)

    return wrapper


def aggregate(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, busy seconds (time inside at least one span of
    that name), self seconds (duration minus child spans), counter sums."""
    by_id = {s["id"]: s for s in spans}
    child_time = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s["name"], {"calls": 0, "busy_s": 0.0,
                                         "self_s": 0.0})
        duration = s["end"] - s["start"]
        row["calls"] += 1
        row["self_s"] += duration - child_time[s["id"]]
        parent = s["parent"]
        while parent is not None and by_id[parent]["name"] != s["name"]:
            parent = by_id[parent]["parent"]
        if parent is None:
            row["busy_s"] += duration
        for key, value in s.get("counters", {}).items():
            row[key] = row.get(key, 0) + value
    return out
