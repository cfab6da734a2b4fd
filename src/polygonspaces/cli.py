"""Batch command line front end.

Every verb validates its arguments, computes, and prints one deterministic
report on standard output: JSON for structured results, DOT for poset
drawings, plain text for length vectors and figure tables.  Identical
invocations produce byte-identical output.  Exit status is 0 on success,
2 for bad input (including non-generic lengths, with the offending subset
in the message), and 3 when an internal audit fails.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Optional

from .coxeter import RegularCellComplex, euler
from .errors import (
    USER_ERRORS,
    InvalidCodeError,
    PolygonSpacesError,
    TooLargeError,
)
from .genetics import (
    GeneticCode,
    _ascii_digits,
    _is_int,
    genetic_code,
    parse_code,
    saturated_chain,
    surgery_signature,
)
from .homology import (
    MAX_SIMPLICES,
    SimplicialComplex,
    homology,
    identify_small,
)
from .posets import (
    Barred,
    Interval,
    canonical_partition,
    comb_surgery,
    intersection_poset,
    partition_str,
)
from .surgery import run_chain, run_model


def _print(text: str) -> None:
    sys.stdout.write(text + "\n")


def _emit_json(payload) -> None:
    _print(json.dumps(payload, indent=2, sort_keys=False))


# Fraction expands a decimal exponent in full, so a length like 1e9999999
# costs seconds; exponents past Python's own int-string limit are refused.
_MAX_EXPONENT = sys.int_info.default_max_str_digits


def _parse_lengths(raw: list[str]) -> list[Fraction]:
    if len(raw) < 3:
        raise InvalidCodeError("a polygon needs at least 3 edges")
    out = []
    for k, item in enumerate(raw, 1):
        # Fraction also reads other Unicode digits and underscores
        if not item.isascii() or "_" in item:
            raise InvalidCodeError(f"not a rational length: {item!r}")
        _, e, exponent = item.lower().partition("e")
        digits = exponent.strip().lstrip("+-").lstrip("0")
        if e and digits.isdecimal() and (
            len(digits) > len(str(_MAX_EXPONENT))
            or int(digits) > _MAX_EXPONENT
        ):
            raise InvalidCodeError(
                f"length {k} has a decimal exponent past {_MAX_EXPONENT}"
            )
        try:
            out.append(Fraction(item))
        except (ValueError, ZeroDivisionError):
            raise InvalidCodeError(f"not a rational length: {item!r}")
    return out


def _is_list_of(value, check) -> bool:
    return isinstance(value, list) and all(check(x) for x in value)


def _code_payload(code: GeneticCode) -> dict:
    return {
        "m": code.edge_count,
        "genes": [sorted(g) for g in sorted(code.genes, key=sorted)],
    }


def _report_payload(complex_) -> dict:
    """Homology and name of a complex, as the JSON reports print them."""
    rep = homology(complex_)
    return {
        "betti": list(rep.betti),
        "torsion": [list(t) for t in rep.torsion],
        "components": rep.components,
        "orientable": rep.orientable,
        "identification": identify_small(complex_),
    }


def _final_payload(complex_) -> dict:
    """A run's last complex: face counts, Euler characteristic, homology."""
    return {
        "f_vector": list(complex_.f_vector()),
        "euler_characteristic": complex_.euler_characteristic(),
        **_report_payload(complex_),
    }


# -- gencode --------------------------------------------------------------


def _cmd_gencode(args: argparse.Namespace) -> int:
    code = genetic_code(_parse_lengths(args.lengths))
    _emit_json(_code_payload(code))
    return 0


# -- chain ----------------------------------------------------------------


def _cmd_chain(args: argparse.Namespace) -> int:
    code = parse_code(args.code, args.m)
    chain = saturated_chain(code)
    _emit_json(
        {
            "codes": [str(c) for c in chain.codes],
            "added": [sorted(g) for g in chain.added_sets],
            "signature": list(surgery_signature(chain)),
        }
    )
    return 0


# -- run ------------------------------------------------------------------


def _dump_dir(path: str) -> None:
    """Make the ``--dump-cells`` directory, before anything is built."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise InvalidCodeError(f"cannot make dump directory {path}: {exc}")


def _write_dump(payload: dict, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    except OSError as exc:
        raise InvalidCodeError(f"cannot write dump {path}: {exc}")


def _dump_cells(complex_: RegularCellComplex, path: str) -> None:
    order = sorted(complex_.cells)
    index = {ident: k for k, ident in enumerate(order)}
    cells = [
        {
            "dim": complex_.cells[i].dim,
            "facets": sorted(index[f] for f in complex_.cells[i].facets),
        }
        for i in order
    ]
    _write_dump({"kind": "cells", "cells": cells}, path)


def _dump_simplicial(complex_: SimplicialComplex, path: str) -> None:
    vertices = sorted(complex_.vertices, key=repr)
    index = {v: k for k, v in enumerate(vertices)}
    maximal = sorted(
        sorted(index[v] for v in face) for face in complex_.maximal_faces()
    )
    _write_dump({"kind": "simplicial", "maximal": maximal}, path)


def _figure_row(tag: str, f_vector: tuple[int, ...]) -> str:
    f_text = " ".join(str(n) for n in f_vector)
    return f"{tag:<12} f = {f_text:<16} chi = {euler(f_vector)}"


def _cmd_run(args: argparse.Namespace) -> int:
    code = parse_code(args.code, args.m)
    if args.mode == "model" and args.projective:
        raise InvalidCodeError(
            "--projective only applies to the surface modes"
        )
    if args.dump_cells:
        _dump_dir(args.dump_cells)
    if args.mode == "model":
        return _run_model(code, args)
    # held until the chain ends, so that a failing run prints nothing
    lines, steps = [], []
    chain = run_chain(code, mode=args.mode, projective=args.projective)
    for k, (step, complex_) in enumerate(chain):
        if args.dump_cells:
            _dump_cells(
                complex_, os.path.join(args.dump_cells, f"step-{k:02d}.json")
            )
        if step is None:
            start = complex_.f_vector()
            lines.append(_figure_row("start", start))
        elif args.figures:
            cut = "".join(str(e) for e in step.added)
            lines.append(_figure_row(f"cut {cut}", complex_.f_vector()))
        else:
            rep = homology(complex_)
            steps.append(
                {
                    "code": step.code,
                    "added": list(step.added),
                    "index": step.index,
                    "sphere_size": len(step.sphere),
                    "f_after": list(complex_.f_vector()),
                    "betti": list(rep.betti),
                    "torsion": [list(t) for t in rep.torsion],
                }
            )
    if args.figures:
        lines.append(f"{'space':<12} {identify_small(complex_)}")
        _print("\n".join(lines))
        return 0
    _emit_json(
        {
            "code": str(code),
            "mode": args.mode,
            "projective": args.projective,
            "start": {"f_vector": list(start)},
            "steps": steps,
            "final": _final_payload(complex_),
        }
    )
    return 0


def _run_model(code: GeneticCode, args: argparse.Namespace) -> int:
    result = run_model(code)
    if args.dump_cells:
        _dump_simplicial(
            result.complex, os.path.join(args.dump_cells, "model.json")
        )
    if args.figures:
        _print(_figure_row("model", result.complex.f_vector()))
        _print(f"{'space':<12} {identify_small(result.complex)}")
        return 0
    _emit_json(
        {
            "code": str(code),
            "mode": "model",
            "steps": [
                {
                    "added": list(step.added),
                    "units": list(step.units),
                    "sphere_size": len(step.sphere),
                }
                for step in result.steps
            ],
            "final": _final_payload(result.complex),
        }
    )
    return 0


# -- poset ----------------------------------------------------------------


def _parse_locus(text: str, edge_count: int):
    """A surgery locus: groups of the digits 0-9 separated by commas, one
    block per group and one edge per digit, which names every locus of an
    intersection poset (those stop at 8 edges); edges not named become
    singletons.  An empty locus or block, or an edge named twice or
    outside 1..m, is refused."""
    text = text.strip()
    groups = text.split(",")
    if not all(_ascii_digits(g) for g in groups if g):
        raise InvalidCodeError(
            f"locus {text!r} is not comma-separated digit groups"
        )
    blocks = [tuple(map(int, group)) for group in groups]
    if not blocks or not all(blocks):
        raise InvalidCodeError(
            f"locus {text!r} is empty or has an empty block"
        )
    edges = range(1, edge_count + 1)
    named = {e for b in blocks for e in b}
    if len(named) != sum(map(len, blocks)) or not named.issubset(edges):
        raise InvalidCodeError(
            f"locus {text!r} names an edge twice or outside 1..{edge_count}"
        )
    blocks += [(e,) for e in edges if e not in named]
    return canonical_partition(blocks)


def _element_str(element) -> str:
    if isinstance(element, Barred):
        return f"bar({partition_str(element.partition)})"
    if isinstance(element, Interval):
        base = _element_str(element.base)
        return f"[{base} : {_element_str(element.locus)}]"
    return partition_str(element)


def _cmd_poset(args: argparse.Namespace) -> int:
    code = parse_code(args.code, args.m)
    locus = None
    if args.surgery is not None:
        locus = _parse_locus(args.surgery, code.edge_count)
    poset = intersection_poset(code, barred=args.bar)
    if locus is not None:
        poset = comb_surgery(poset, locus)
    names = {e: _element_str(e) for e in poset}
    order = sorted(poset, key=lambda e: names[e])
    if args.format == "json":
        index = {e: k for k, e in enumerate(order)}
        _emit_json(
            {
                "elements": [names[e] for e in order],
                "covers": [
                    [index[a], index[b]] for a, b in poset.covers()
                ],
            }
        )
        return 0
    lines = ["digraph poset {", "  rankdir=BT;"]
    lines += [f'  "{names[e]}";' for e in order]
    covers = sorted((names[a], names[b]) for a, b in poset.covers())
    lines += [f'  "{a}" -> "{b}";' for a, b in covers]
    lines.append("}")
    _print("\n".join(lines))
    return 0


# -- homology -------------------------------------------------------------


def _valid_cell(cell) -> bool:
    return (
        isinstance(cell, dict)
        and _is_int(cell.get("dim"))
        and cell["dim"] >= 0
        and _is_list_of(cell.get("facets"), _is_int)
    )


def _load_dump(path: str):
    """Read a dump written by ``run --dump-cells``.  A file that breaks the
    schema is bad input; a well-formed complex that fails an audit is an
    audit failure."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        raise InvalidCodeError(f"cannot read complex dump {path}: {exc}")
    if not isinstance(data, dict) or "kind" not in data:
        raise InvalidCodeError(f"{path} is not a complex dump")
    if data["kind"] == "simplicial":
        faces = data.get("maximal")
        if not _is_list_of(faces, lambda f: _is_list_of(f, _is_int)):
            raise InvalidCodeError(
                f"{path}: 'maximal' must list faces of integer vertices"
            )
        return SimplicialComplex([tuple(face) for face in faces])
    if data["kind"] == "cells":
        if not _is_list_of(data.get("cells"), _valid_cell):
            raise InvalidCodeError(
                f"{path}: 'cells' must list cells with an integer 'dim' "
                "of at least 0 and a list of integer 'facets'"
            )
        count = len(data["cells"])
        if count > MAX_SIMPLICES:
            raise TooLargeError(
                f"{path}: {count} cells pass the cap of {MAX_SIMPLICES}"
            )
        for k, cell in enumerate(data["cells"]):
            for f in cell["facets"]:
                if not 0 <= f < count:
                    raise InvalidCodeError(
                        f"{path}: facet {f} of cell {k} is not one of the "
                        f"dump's cells 0..{count - 1}"
                    )
        # by dimension, so that facets come first in any dump order
        cells = sorted(enumerate(data["cells"]), key=lambda kc: kc[1]["dim"])
        out = RegularCellComplex()
        for k, cell in cells:
            out.add_cell(cell["dim"], ("c", k), tuple(cell["facets"]), ident=k)
        out.seal()
        return out
    raise InvalidCodeError(f"unknown dump kind {data['kind']!r}")


def _cmd_homology(args: argparse.Namespace) -> int:
    _emit_json(_report_payload(_load_dump(args.file)))
    return 0


# -- realize --------------------------------------------------------------


def _cmd_realize(args: argparse.Namespace) -> int:
    from .genetics import realize

    vector = realize(parse_code(args.code, args.m))
    if vector is None:
        _print("UNREALIZABLE")
    else:
        _print(" ".join(str(v) for v in vector.values))
    return 0


# -- entry point ----------------------------------------------------------


def _edge_count(text: str) -> int:
    # the digits 0-9 only, as in a code; int() reads more
    if not _ascii_digits(text):
        raise argparse.ArgumentTypeError(f"not a decimal edge count: {text!r}")
    return int(text)


def _add_code_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "code",
        help='genetic code, e.g. "<25>" or "<[2,4,6,9]>" for edges past 9',
    )
    parser.add_argument(
        "--m",
        type=_edge_count,
        default=None,
        help="number of edges (default: largest edge mentioned)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="polygonspaces",
        description="Planar polygon moduli spaces as explicit cell complexes.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gencode", help="genetic code of a length vector")
    p.add_argument("lengths", nargs="+", help="edge lengths, e.g. 1 1 1 1 3")
    p.set_defaults(func=_cmd_gencode)

    p = sub.add_parser("chain", help="saturated chain down to the minimal code")
    _add_code_argument(p)
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("run", help="build the space by iterated surgery")
    _add_code_argument(p)
    p.add_argument(
        "--mode",
        choices=("attach", "collapse", "model"),
        default="attach",
        help="surgery realization (default: attach)",
    )
    p.add_argument(
        "--projective",
        action="store_true",
        help="work on the quotient by the reversal involution",
    )
    p.add_argument(
        "--dump-cells",
        metavar="DIR",
        default=None,
        help="write every intermediate complex as JSON into DIR",
    )
    p.add_argument(
        "--figures",
        action="store_true",
        help="print an f-vector table instead of JSON",
    )
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("poset", help="intersection poset of a genetic code")
    _add_code_argument(p)
    p.add_argument(
        "--bar",
        action="store_true",
        help="double the partitions with disconnected quotients",
    )
    p.add_argument(
        "--surgery",
        metavar="BLOCKS",
        default=None,
        help='combinatorial surgery at this locus: comma-separated digit '
        'groups, one block each, e.g. "345" or "12,34"',
    )
    p.add_argument(
        "--format",
        choices=("dot", "json"),
        default="dot",
        help="output format (default: dot)",
    )
    p.set_defaults(func=_cmd_poset)

    p = sub.add_parser("homology", help="homology of a dumped complex")
    p.add_argument("file", help="JSON file written by run --dump-cells")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("realize", help="integer lengths realizing a code")
    _add_code_argument(p)
    p.set_defaults(func=_cmd_realize)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except USER_ERRORS as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except PolygonSpacesError as exc:
        print(f"audit failure [{exc.code}]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
