"""Command line front end: verbs, exit codes, deterministic output."""

import json
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polygonspaces.cli import main
from polygonspaces.coxeter import (
    RegularCellComplex,
    coxeter_complex,
    projective_quotient,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# -- gencode --------------------------------------------------------------


def test_gencode_anchor_only(capsys) -> None:
    payload = run_json(capsys, "gencode", "1", "1", "1", "1", "3")
    assert payload == {"m": 5, "genes": [[5]]}


def test_gencode_two_gene_vector(capsys) -> None:
    payload = run_json(capsys, "gencode", "1", "2", "3", "3", "4")
    assert payload == {"m": 5, "genes": [[2, 5]]}


def test_gencode_fractions(capsys) -> None:
    payload = run_json(capsys, "gencode", "1/2", "1/2", "1/2", "1/2", "3/2")
    assert payload == {"m": 5, "genes": [[5]]}
    plain = run_json(capsys, "gencode", "1000", "5/2", "1/2", "1", "1")
    assert run_json(capsys, "gencode", "1e3", "25e-1", "1/2", "1", "1") == (
        plain
    )
    assert run_json(capsys, "gencode", "1e4300", "1", "1")["m"] == 3


def test_gencode_needs_three_edges(capsys) -> None:
    code, _, err = run_cli(capsys, "gencode", "1", "1")
    assert code == 2
    assert "3 edges" in err


def test_gencode_rejects_half_perimeter_subset(capsys) -> None:
    code, _, err = run_cli(capsys, "gencode", "1", "1", "2")
    assert code == 2
    assert "NON_GENERIC" in err
    assert "(1, 2)" in err


def test_gencode_rejects_junk_lengths(capsys) -> None:
    code, _, err = run_cli(capsys, "gencode", "1", "1", "banana")
    assert code == 2
    assert "banana" in err


@pytest.mark.parametrize(
    "length", ["1e9999999", "1e-9999999", "1E+4301", "2.5e" + "9" * 5000]
)
def test_gencode_rejects_huge_exponents(capsys, length) -> None:
    # refused before Fraction would expand 10**exponent in full
    code, _, err = run_cli(capsys, "gencode", length, "1", "1")
    assert code == 2
    assert "exponent" in err


# -- chain ----------------------------------------------------------------


def test_chain_thirteen_codes(capsys) -> None:
    payload = run_json(capsys, "chain", "<256>")
    assert len(payload["codes"]) == 13
    assert payload["codes"][0] == "<6>"
    assert payload["codes"][-1] == "<256>"
    assert payload["signature"] == [0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1]
    assert payload["added"][0] == [1, 6]


def test_chain_explicit_edge_count(capsys) -> None:
    payload = run_json(capsys, "chain", "<15>", "--m", "5")
    assert payload["codes"] == ["<5>", "<15>"]
    assert payload["signature"] == [0]


# -- run ------------------------------------------------------------------


def test_run_two_tori_trace(capsys) -> None:
    payload = run_json(capsys, "run", "<125>", "--mode", "collapse")
    assert payload["mode"] == "collapse"
    assert payload["start"]["f_vector"] == [14, 36, 24]
    assert [s["betti"] for s in payload["steps"]] == [
        [1, 2, 1],
        [1, 4, 1],
        [2, 4, 2],
    ]
    assert payload["final"]["components"] == 2
    assert payload["final"]["identification"] == "T^2 ⊔ T^2"
    assert payload["final"]["orientable"] is True


def test_run_projective_torus(capsys) -> None:
    payload = run_json(
        capsys, "run", "<125>", "--mode", "collapse", "--projective"
    )
    assert payload["final"]["identification"] == "T^2"
    assert payload["final"]["betti"] == [1, 2, 1]


def test_run_figures_table(capsys) -> None:
    code, out, _ = run_cli(
        capsys, "run", "<45>", "--figures", "--mode", "collapse",
        "--projective",
    )
    assert code == 0
    assert out.splitlines() == [
        "start        f = 7 18 12          chi = 1",
        "cut 15       f = 9 21 12          chi = 0",
        "cut 25       f = 11 24 12         chi = -1",
        "cut 35       f = 13 27 12         chi = -2",
        "cut 45       f = 15 30 12         chi = -3",
        "space        N_5",
    ]


def test_run_model_mode(capsys) -> None:
    payload = run_json(capsys, "run", "<14>", "--mode", "model")
    assert payload["mode"] == "model"
    assert payload["steps"] == [
        {"added": [1, 4], "units": [2, 3], "sphere_size": 2}
    ]
    assert payload["final"]["identification"] == "2 circles"


def test_run_model_interference(capsys) -> None:
    code, _, err = run_cli(capsys, "run", "<125>", "--mode", "model")
    assert code == 2
    assert "CHAIN_INTERFERENCE" in err


def test_run_model_rejects_projective(capsys) -> None:
    code, _, err = run_cli(
        capsys, "run", "<14>", "--mode", "model", "--projective"
    )
    assert code == 2


def test_run_wrong_dimension(capsys) -> None:
    code, _, err = run_cli(capsys, "run", "<4>")
    assert code == 2
    assert "NOT_2D" in err


def test_run_collapse_refuses_nine_edges_before_building(
    capsys, monkeypatch
) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("a cell was built")

    monkeypatch.setattr(RegularCellComplex, "add_cell", refuse)
    code, out, err = run_cli(capsys, "run", "<19>", "--mode", "collapse")
    assert code == 2
    assert out == ""
    assert err.startswith("error [GROUND_SET_TOO_LARGE]")
    assert "Traceback" not in err


# -- dumps and homology ---------------------------------------------------


def test_dump_then_homology(capsys, tmp_path) -> None:
    out_dir = tmp_path / "cells"
    code, _, _ = run_cli(
        capsys, "run", "<15>", "--mode", "collapse",
        "--dump-cells", str(out_dir),
    )
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["step-00.json", "step-01.json"]
    start = run_json(capsys, "homology", str(out_dir / "step-00.json"))
    assert start["identification"] == "S^2"
    torus = run_json(capsys, "homology", str(out_dir / "step-01.json"))
    assert torus == {
        "betti": [1, 2, 1],
        "torsion": [[], [], []],
        "components": 1,
        "orientable": True,
        "identification": "T^2",
    }


def test_dump_model_then_homology(capsys, tmp_path) -> None:
    out_dir = tmp_path / "model"
    code, _, _ = run_cli(
        capsys, "run", "<14>", "--mode", "model",
        "--dump-cells", str(out_dir),
    )
    assert code == 0
    payload = run_json(capsys, "homology", str(out_dir / "model.json"))
    assert payload["betti"] == [2, 2]
    assert payload["identification"] == "2 circles"


def test_homology_refuses_a_face_past_the_cap_at_once(
    capsys, tmp_path
) -> None:
    # its closure would hold 2^40 - 1 faces
    dump = tmp_path / "wide.json"
    dump.write_text(
        json.dumps({"kind": "simplicial", "maximal": [list(range(40))]})
    )
    code, out, err = run_cli(capsys, "homology", str(dump))
    assert code == 2
    assert out == ""
    assert err.startswith("error [TOO_LARGE]")


@pytest.mark.parametrize(
    "name, mode, written",
    [("<15>", "collapse", "step-00.json"), ("<14>", "model", "model.json")],
)
def test_run_refuses_an_unwritable_dump_path(
    capsys, monkeypatch, tmp_path, name, mode, written
) -> None:
    blocker = tmp_path / "file"
    blocker.write_text("")
    # a dump file name taken by a directory fails at the write
    taken = tmp_path / "taken"
    (taken / written).mkdir(parents=True)
    for target in (blocker, blocker / "sub", taken):
        code, out, err = run_cli(
            capsys, "run", name, "--mode", mode, "--dump-cells", str(target)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error [INVALID_CODE]")
        assert "Traceback" not in err

    # a directory that cannot be made is refused before anything is built
    def refuse(*args, **kwargs):
        raise AssertionError("a complex was built")

    monkeypatch.setattr("polygonspaces.cli.run_chain", refuse)
    monkeypatch.setattr("polygonspaces.cli.run_model", refuse)
    code, _, err = run_cli(
        capsys, "run", name, "--mode", mode, "--dump-cells", str(blocker)
    )
    assert code == 2
    assert "cannot make dump directory" in err


def test_homology_missing_file(capsys, tmp_path) -> None:
    code, _, err = run_cli(capsys, "homology", str(tmp_path / "nope.json"))
    assert code == 2


@pytest.mark.parametrize(
    "dump",
    [
        pytest.param({"kind": "simplicial"}, id="no-maximal"),
        pytest.param(
            {"kind": "simplicial", "maximal": [[0, 1], ["a", 2]]},
            id="mixed-vertex-types",
        ),
        pytest.param(
            {"kind": "simplicial", "maximal": [[0, [1]]]}, id="list-vertex"
        ),
        pytest.param({"kind": "cells"}, id="no-cells"),
        pytest.param(
            {"kind": "cells", "cells": [{"dim": 0}]}, id="no-facets"
        ),
        pytest.param(
            {"kind": "cells", "cells": [{"dim": "0", "facets": []}]},
            id="string-dim",
        ),
        pytest.param(
            {"kind": "cells", "cells": [{"dim": -1, "facets": []}]},
            id="negative-dim",
        ),
    ],
)
def test_homology_malformed_dump(capsys, tmp_path, dump) -> None:
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dump))
    code, _, err = run_cli(capsys, "homology", str(bad))
    assert code == 2
    assert "INVALID_CODE" in err


def test_homology_bad_complex_is_an_audit_failure(capsys, tmp_path) -> None:
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "kind": "cells",
                "cells": [{"dim": 0, "facets": []}, {"dim": 1, "facets": [0]}],
            }
        )
    )
    code, _, err = run_cli(capsys, "homology", str(bad))
    assert code == 3
    assert "AUDIT" in err


def test_homology_non_regular_dump_is_an_audit_failure(capsys, tmp_path) -> None:
    # the 2-cells of RP^2 plus one 3-cell bounded by all of them: the
    # diamond audit passes, but the 3-cell's boundary is not a sphere
    rp2, _ = projective_quotient(coxeter_complex(range(1, 5)))
    order = sorted(rp2.cells, key=lambda i: (rp2.cells[i].dim, i))
    index = {ident: k for k, ident in enumerate(order)}
    cells = [
        {"dim": rp2.cells[i].dim,
         "facets": sorted(index[f] for f in rp2.cells[i].facets)}
        for i in order
    ]
    cells.append(
        {"dim": 3, "facets": [k for k, c in enumerate(cells) if c["dim"] == 2]}
    )
    bad = tmp_path / "cone.json"
    bad.write_text(json.dumps({"kind": "cells", "cells": cells}))
    code, out, err = run_cli(capsys, "homology", str(bad))
    assert code == 3
    assert out == ""
    assert err.startswith("audit failure [AUDIT]")
    assert "Traceback" not in err


def test_homology_refuses_a_cell_bounded_by_a_torus(capsys) -> None:
    # the collapse torus of <15> plus one 3-cell on all its faces
    dump = pathlib.Path(__file__).parent / "fixtures" / "torus_ball.json"
    code, out, err = run_cli(capsys, "homology", str(dump))
    assert code == 3
    assert out == ""
    assert err.startswith("audit failure [AUDIT]")
    assert "V - E + F = 0" in err


# -- poset ----------------------------------------------------------------


def test_poset_dot_output(capsys) -> None:
    code, out, _ = run_cli(capsys, "poset", "<15>")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "digraph poset {"
    assert lines[-1] == "}"
    assert '  "1|2|3|4|5";' in lines


def test_poset_surgery_size(capsys) -> None:
    payload = run_json(
        capsys, "poset", "<26>", "--surgery", "345", "--format", "json"
    )
    assert len(payload["elements"]) == 77
    plain = run_json(capsys, "poset", "<126>", "--format", "json")
    assert len(plain["elements"]) == 77


def test_poset_barred_size(capsys) -> None:
    payload = run_json(capsys, "poset", "<26>", "--bar", "--format", "json")
    assert len(payload["elements"]) == 116
    barred = [e for e in payload["elements"] if e.startswith("bar(")]
    assert len(barred) == 39


def test_poset_refuses_an_unrealizable_code(capsys) -> None:
    code, out, err = run_cli(capsys, "poset", "<246>")
    assert code == 2
    assert out == ""
    assert "INVALID_CODE" in err


@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_poset_json_locus_reads_as_digit_groups(capsys, fmt) -> None:
    digits = run_cli(
        capsys, "poset", "<26>", "--surgery", "345", "--format", fmt
    )
    listed = run_cli(
        capsys, "poset", "<26>", "--surgery", "[[3,4,5]]", "--format", fmt
    )
    assert digits[0] == 0
    assert listed == digits


@pytest.mark.parametrize(
    "locus, error",
    [
        pytest.param("12345", "NOT_APPLICABLE", id="12345"),
        pytest.param("[1,2", "INVALID_CODE", id="unclosed-json"),
        pytest.param("1x,2", "INVALID_CODE", id="non-digit"),
        pytest.param('[["a"]]', "INVALID_CODE", id="string-element"),
    ],
)
def test_poset_bad_locus(capsys, locus, error) -> None:
    code, _, err = run_cli(capsys, "poset", "<26>", "--surgery", locus)
    assert code == 2
    assert error in err


# -- realize ---------------------------------------------------------------


def test_realize_unrealizable(capsys) -> None:
    code, out, _ = run_cli(capsys, "realize", "<2469>")
    assert code == 0
    assert out == "UNREALIZABLE\n"


def test_realize_equilateralish(capsys) -> None:
    code, out, _ = run_cli(capsys, "realize", "<45>")
    assert code == 0
    assert out == "1 1 1 1 1\n"


def test_realize_round_trip(capsys) -> None:
    code, out, _ = run_cli(capsys, "realize", "<125>")
    assert code == 0
    payload = run_json(capsys, "gencode", *out.split())
    assert payload == {"m": 5, "genes": [[1, 2, 5]]}


# -- plumbing ---------------------------------------------------------------


def test_unknown_verb_is_usage_error(capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_byte_identical_reruns(capsys) -> None:
    first = run_cli(capsys, "run", "<25>", "--mode", "attach")
    second = run_cli(capsys, "run", "<25>", "--mode", "attach")
    assert first == second
    third = run_cli(capsys, "poset", "<26>", "--surgery", "345")
    fourth = run_cli(capsys, "poset", "<26>", "--surgery", "345")
    assert third == fourth


# -- fuzzing the input parsers ----------------------------------------------

FUZZ = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def exit_status(capsys, argv) -> int:
    """Run the CLI; argparse usage errors exit 2 through SystemExit.
    Any other exception escapes and fails the test."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    capsys.readouterr()
    return code


tokens = st.one_of(
    st.integers(-3, 30).map(str),
    st.text(alphabet="0123456789/.-e", max_size=6),
    st.text(max_size=4),
)


@FUZZ
@given(lengths=st.lists(tokens, max_size=9))
def test_fuzz_gencode_lengths(capsys, lengths) -> None:
    assert exit_status(capsys, ["gencode", "--", *lengths]) in (0, 2, 3)


@FUZZ
@given(
    locus=st.one_of(
        st.text(alphabet="0123456789,[]\" a", max_size=10),
        st.text(max_size=6),
    )
)
def test_fuzz_poset_surgery_locus(capsys, locus) -> None:
    argv = ["poset", "<26>", f"--surgery={locus}"]
    assert exit_status(capsys, argv) in (0, 2, 3)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["kind", "maximal", "cells", "dim", "facets"]),
        inner,
        max_size=3,
    ),
    max_leaves=12,
)
vertices = st.integers(0, 6) | st.text(alphabet="abc", max_size=1)
simplicial_dumps = st.fixed_dictionaries(
    {"kind": st.just("simplicial")},
    optional={"maximal": st.lists(st.lists(vertices, max_size=4), max_size=6)},
)
cell_dumps = st.fixed_dictionaries(
    {"kind": st.just("cells")},
    optional={
        "cells": st.lists(
            st.fixed_dictionaries(
                {},
                optional={
                    "dim": st.integers(-1, 2) | json_values,
                    "facets": st.lists(st.integers(-1, 6), max_size=3)
                    | json_values,
                },
            ),
            max_size=7,
        )
    },
)


@FUZZ
@given(dump=st.one_of(simplicial_dumps, cell_dumps, json_values))
def test_fuzz_homology_dump(capsys, tmp_path, dump) -> None:
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(dump))
    assert exit_status(capsys, ["homology", str(path)]) in (0, 2, 3)
