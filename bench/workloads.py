"""The benchmark's four workloads: their items and independent expectations.

An item is one timed call into the package.  ``run`` does the work and
nothing else; ``check`` runs after the timer stops and returns the list of
problems, the item's size counters and the text whose digest must repeat
from pass to pass (a CLI item's exit code, stdout and stderr).

Every call goes through a module object looked up at call time, so the
wrappers that ``spans.install`` puts on the modules see it.

Why these workloads:

- ``surfaces``: the main user command, ``run`` on every realizable m = 5
  code in both modes, plain and projective.  Many small cell complexes
  with torsion; exercises ``surgery_2d`` and homology on cell input.
- ``models``: ``run --mode model`` on every realizable code with m in
  {3, 4, 6}.  The one place homology meets a huge simplicial complex
  (``<16>``: 293,896 simplices); 18 of the 23 codes are refused with exit 2.
- ``spheres``: Coxeter complexes and their projective quotients for
  n = 4..7 with the ``seal()`` audits, plus homology and names for n <= 5.
  Construction dominates here and nowhere else.
- ``shadow``: ``realize`` and the poset layer; no complex is built, so it
  is the bypass for every complex or homology change.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import math
import random
from typing import Any, Callable, NamedTuple

cli = importlib.import_module("polygonspaces.cli")
coxeter = importlib.import_module("polygonspaces.coxeter")
genetics = importlib.import_module("polygonspaces.genetics")
homology = importlib.import_module("polygonspaces.homology")
posets = importlib.import_module("polygonspaces.posets")
surgery = importlib.import_module("polygonspaces.surgery")

WORKLOADS = ("surfaces", "models", "spheres", "shadow")

# Realizable codes by edge count.  The counts 1, 2, 6, 20 are the numbers of
# non-empty chambers that Hausmann & Rodriguez tabulate for m = 3..6.
REALIZABLE = {
    3: ("<3>",),
    4: ("<4>", "<14>"),
    5: ("<5>", "<15>", "<25>", "<35>", "<45>", "<125>"),
    6: ("<6>", "<16>", "<26>", "<36>", "<126,36>", "<46>", "<126,46>",
        "<136,46>", "<236,46>", "<56>", "<126,56>", "<136,56>", "<146,56>",
        "<236,56>", "<126>", "<136>", "<146>", "<156>", "<236>", "<1236>"),
}

# Surface names pinned by code and projectivity; the same in both modes.
SURFACE_NAMES = {
    ("<15>", False): "T^2",
    ("<25>", False): "T_2",
    ("<125>", False): "T^2 ⊔ T^2",
    ("<125>", True): "T^2",
    ("<45>", False): "T_4",
    ("<45>", True): "N_5",
}

# run_model builds only chains whose sphere neighbourhoods are disjoint;
# every other realizable code of m in {3, 4, 6} is refused with exit 2.
MODEL_BUILT = {"<3>", "<4>", "<14>", "<6>", "<16>"}
MODEL_F_VECTORS = {"<16>": [12164, 79556, 134784, 67392]}

# Names of the Coxeter sphere and its quotient where homology is computed.
SPHERE_NAMES = {4: ("S^2", "N_1"), 5: ("complex(chi=0)", "complex(chi=0)")}
SPHERE_HOMOLOGY_MAX = 5

# Length vectors drawn for shadow: (edge count, how many, whether realize
# runs on every code of the saturated chain or only on the drawn code).
# Whole chains of 8 and 9 edges cost 0.5 to 6 s each and would make the
# pass time depend on the seed.
SHADOW_DRAWS = ((7, 4, True), (8, 3, False), (9, 3, False))


class Item(NamedTuple):
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[list[str], dict[str, int], str]]


def build(workload: str, seed: int) -> list[Item]:
    """The workload's items in the order the seed gives them."""
    rng = random.Random(seed)
    items = {
        "surfaces": _surfaces,
        "models": _models,
        "spheres": _spheres,
        "shadow": _shadow,
    }[workload](rng)
    rng.shuffle(items)
    return items


QUICK = {
    "surfaces": "run <15> attach",
    "models": "run <14> model",
    "spheres": "coxeter 4",
    "shadow": "realize <16> m=6",
}


# -- CLI items --------------------------------------------------------------


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _cli_text(result: tuple[int, str, str]) -> str:
    rc, out, err = result
    return f"exit {rc}\n{out}\n-- stderr --\n{err}"


def _surfaces(rng: random.Random) -> list[Item]:
    items = []
    for name in REALIZABLE[5]:
        code = genetics.parse_code(name)
        betti = list(homology.betti_oracle(code))
        for mode in ("attach", "collapse"):
            for projective in (False, True):
                argv = ["run", name, "--mode", mode]
                argv += ["--projective"] if projective else []
                items.append(Item(
                    f"run {name} {mode}" + (" projective" if projective else ""),
                    functools.partial(_cli, argv),
                    functools.partial(
                        _check_surface, betti if not projective else None,
                        SURFACE_NAMES.get((name, projective))),
                ))
    return items


def _check_surface(betti, name, result):
    rc, out, err = result
    problems = []
    if rc != 0 or err:
        return [f"exit {rc}: {err.strip()}"], {}, _cli_text(result)
    report = json.loads(out)
    final = report["final"]
    if betti is not None and final["betti"] != betti:
        problems.append(f"betti {final['betti']} != oracle {betti}")
    if name is not None and final["identification"] != name:
        problems.append(f"name {final['identification']!r} != {name!r}")
    cells = sum(report["start"]["f_vector"])
    cells += sum(sum(step["f_after"]) for step in report["steps"])
    return problems, {"cells_out": cells}, _cli_text(result)


def _models(rng: random.Random) -> list[Item]:
    items = []
    for m in (3, 4, 6):
        for name in REALIZABLE[m]:
            betti = list(homology.betti_oracle(genetics.parse_code(name)))
            items.append(Item(
                f"run {name} model",
                functools.partial(_cli, ["run", name, "--mode", "model"]),
                functools.partial(_check_model, name, betti),
            ))
    return items


def _check_model(name, betti, result):
    rc, out, err = result
    text = _cli_text(result)
    if name not in MODEL_BUILT:
        if rc != 2 or out or "CHAIN_INTERFERENCE" not in err:
            return [f"expected a refusal, got exit {rc}"], {}, text
        return [], {"refused": 1}, text
    if rc != 0 or err:
        return [f"exit {rc}: {err.strip()}"], {}, text
    final = json.loads(out)["final"]
    problems = []
    if final["betti"] != betti:
        problems.append(f"betti {final['betti']} != oracle {betti}")
    if any(final["torsion"]):
        problems.append(f"torsion {final['torsion']}")
    pinned = MODEL_F_VECTORS.get(name)
    if pinned is not None and final["f_vector"] != pinned:
        problems.append(f"f-vector {final['f_vector']} != {pinned}")
    return problems, {"simplices_out": sum(final["f_vector"])}, text


# -- spheres ----------------------------------------------------------------


def _coxeter_f_vector(n: int) -> list[int]:
    """Cells of dimension d are ordered partitions of n into d + 2 blocks:
    (d + 2)! S(n, d + 2), with S the Stirling numbers of the second kind."""
    def stirling(n: int, k: int) -> int:
        return sum((-1) ** j * math.comb(k, j) * (k - j) ** n
                   for j in range(k + 1)) // math.factorial(k)

    return [math.factorial(k) * stirling(n, k) for k in range(2, n + 1)]


def _projective_space_homology(d: int) -> tuple[list[int], list[list[int]]]:
    """Betti numbers and torsion of RP^d: Z/2 in each odd degree below d."""
    betti = [1] + [0] * (d - 1) + [d % 2]
    torsion = [[2] if k % 2 and k < d else [] for k in range(d + 1)]
    return betti, torsion


def _spheres(rng: random.Random) -> list[Item]:
    items = []
    for n in range(4, 8):
        d = n - 2
        expect = {
            "f_sphere": _coxeter_f_vector(n),
            "f_quotient": [f // 2 for f in _coxeter_f_vector(n)],
        }
        if n <= SPHERE_HOMOLOGY_MAX:
            expect["betti_sphere"] = [1] + [0] * (d - 1) + [1]
            expect["torsion_sphere"] = [[] for _ in range(d + 1)]
            (expect["betti_quotient"],
             expect["torsion_quotient"]) = _projective_space_homology(d)
            expect["names"] = list(SPHERE_NAMES[n])
        items.append(Item(
            f"coxeter {n}",
            functools.partial(_sphere, n),
            functools.partial(_check_sphere, expect),
        ))
    return items


def _sphere(n: int) -> dict:
    sphere = coxeter.coxeter_complex(range(1, n + 1))
    quotient, _ = coxeter.projective_quotient(sphere)
    out = {"sphere": sphere, "quotient": quotient}
    if n <= SPHERE_HOMOLOGY_MAX:
        out["reports"] = (homology.homology(sphere),
                          homology.homology(quotient))
        out["names"] = [homology.identify_small(sphere),
                        homology.identify_small(quotient)]
    return out


def _check_sphere(expect, result):
    got = {
        "f_sphere": list(result["sphere"].f_vector()),
        "f_quotient": list(result["quotient"].f_vector()),
    }
    if "reports" in result:
        for key, rep in zip(("sphere", "quotient"), result["reports"]):
            got[f"betti_{key}"] = list(rep.betti)
            got[f"torsion_{key}"] = [list(t) for t in rep.torsion]
        got["names"] = result["names"]
    problems = [f"{key} {got.get(key)} != {value}"
                for key, value in expect.items() if got.get(key) != value]
    cells = sum(got["f_sphere"]) + sum(got["f_quotient"])
    return problems, {"cells_out": cells}, json.dumps(got, sort_keys=True)


# -- shadow -----------------------------------------------------------------


def _draw_lengths(rng: random.Random, m: int) -> list[int]:
    """Integer lengths with an odd perimeter, so no subset is exactly half
    of it and the vector is generic."""
    while True:
        lengths = [rng.randint(1, 3 * m) for _ in range(m)]
        if sum(lengths) % 2:
            return lengths


def _shadow(rng: random.Random) -> list[Item]:
    items = []
    for m in (3, 4, 5, 6):
        realizable = set(REALIZABLE[m])
        for code in genetics.enumerate_codes(m):
            if code.is_empty_space():
                continue
            items.append(_realize_item(code, str(code) in realizable))
    for m, count, whole_chain in SHADOW_DRAWS:
        for _ in range(count):
            lengths = _draw_lengths(rng, m)
            code = genetics.genetic_code(lengths)
            codes = genetics.saturated_chain(code).codes
            items.append(Item(
                f"chain {lengths}",
                functools.partial(_chain, lengths),
                functools.partial(_check_chain, [str(c) for c in codes]),
            ))
            for c in codes if whole_chain else codes[-1:]:
                items.append(_realize_item(c, True if c == code else None))
    for name in REALIZABLE[6]:
        chain = genetics.saturated_chain(genetics.parse_code(name))
        steps = zip(chain.codes, chain.codes[1:], chain.added_sets)
        for k, (lo, hi, added) in enumerate(steps, 1):
            items.append(Item(
                f"step {k} of {name}",
                functools.partial(_poset_step, lo, hi, frozenset(added)),
                _check_step,
            ))
    return items


def _realize_item(code, realizable) -> Item:
    """``realizable`` is the expected answer, or None where it is unknown."""
    return Item(
        f"realize {code} m={code.edge_count}",
        functools.partial(_realize, code),
        functools.partial(_check_realize, code, realizable),
    )


def _realize(code):
    return genetics.realize(code)


def _check_realize(code, realizable, vector):
    problems = []
    if realizable is not None and (vector is not None) != realizable:
        problems.append(f"realizable {vector is not None} != {realizable}")
    if vector is not None and genetics.genetic_code(vector) != code:
        problems.append(f"lengths {vector} do not give {code}")
    counters = {"realize_calls": 1, "realized": int(vector is not None)}
    return problems, counters, str(vector)


def _chain(lengths):
    return genetics.saturated_chain(genetics.genetic_code(lengths))


def _check_chain(expected, chain):
    got = [str(c) for c in chain.codes]
    problems = [] if got == expected else [f"chain {got} != {expected}"]
    return problems, {"chain_codes": len(got)}, " ".join(got)


def _poset_step(lo, hi, added):
    before = posets.intersection_poset(lo)
    surgered = posets.comb_surgery(before, surgery.step_locus(lo, added))
    after = posets.intersection_poset(hi)
    found = posets.poset_isomorphic(surgered, after) is not None
    return len(before), len(surgered), len(after), found


def _check_step(result):
    *sizes, found = result
    problems = [] if found else ["surgered poset is not isomorphic"]
    return problems, {"poset_elements": sum(sizes)}, str(result)
