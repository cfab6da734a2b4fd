"""Cell complex layer: audits, Coxeter spheres, quotients."""

import functools
import gc
import itertools
import time

import pytest

from polygonspaces.coxeter import (
    Cell,
    RegularCellComplex,
    cells_by_dimension,
    coxeter_complex,
    projective_quotient,
    reversal,
)
from polygonspaces.errors import (
    AuditError,
    FixedCellError,
    GroundSetTooLargeError,
    NotApplicableError,
)
from polygonspaces.genetics import parse_code
from polygonspaces.surgery import run_chain


@functools.cache
def ca(n: int) -> RegularCellComplex:
    return coxeter_complex(range(1, n + 1))


def fs(*items) -> frozenset:
    return frozenset(items)


def stirling2(n: int, k: int) -> int:
    table = [[0] * (k + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, min(i, k) + 1):
            table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
    return table[n][k]


def factorial(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


# -- Coxeter complexes -------------------------------------------------


def test_circle_complex() -> None:
    k = ca(3)
    assert k.f_vector() == (6, 6)
    assert k.euler_characteristic() == 0
    assert k.dim == 1
    edge = k._labels[("osp", (fs(1, 2), fs(3)))]
    rev = k._labels[("osp", (fs(3), fs(1, 2)))]
    assert k.involution[edge] == rev


def test_sphere_f_vectors() -> None:
    assert ca(4).f_vector() == (14, 36, 24)
    assert ca(4).euler_characteristic() == 2
    assert ca(5).f_vector() == (30, 150, 240, 120)
    assert len(ca(5)) == 540


@pytest.mark.parametrize("n", range(2, 7))
def test_cell_counts_by_block_number(n: int) -> None:
    counts: dict[int, int] = {}
    for cell in ca(n):
        k = len(cell.label[1])
        counts[k] = counts.get(k, 0) + 1
    for k in range(2, n + 1):
        assert counts[k] == factorial(k) * stirling2(n, k)
    assert counts[n] == factorial(n)


@pytest.mark.parametrize("n", range(2, 8))
def test_euler_characteristic_of_spheres(n: int) -> None:
    assert ca(n).euler_characteristic() == 1 + (-1) ** n


def test_ground_set_caps() -> None:
    with pytest.raises(GroundSetTooLargeError):
        coxeter_complex([1])
    with pytest.raises(GroundSetTooLargeError):
        coxeter_complex(range(8))
    with pytest.raises(NotApplicableError):
        coxeter_complex((1, 1, 2))


def test_involution_is_free_reversal() -> None:
    k = ca(4)
    for cell in k:
        partner = k.cells[k.involution[cell.ident]]
        assert partner.ident != cell.ident
        assert k.involution[partner.ident] == cell.ident
        assert partner.label == ("osp", reversal(cell.label[1]))


def test_closure_sizes() -> None:
    k = ca(4)
    for cell in k:
        blocks = len(cell.label[1])
        assert len(k.faces_of(cell.ident)) == 2 ** (blocks - 1) - 1
    top = k._labels[("osp", (fs(1), fs(2), fs(3), fs(4)))]
    disk = k.materialize([top])
    assert disk.f_vector() == (3, 3, 1)
    assert set(disk.cells) <= set(k.cells)
    assert disk.involution == {}


# -- the bitmask build against a frozenset-keyed reference ---------------


def reference_set_partitions(ground: tuple, k: int):
    """Partitions of ``ground`` into ``k`` frozenset blocks: ``ground[0]``
    alone, then ``ground[0]`` joined to each block of the rest in turn."""
    if k == 1:
        yield (frozenset(ground),)
        return
    if len(ground) == k:
        yield tuple(frozenset({e}) for e in ground)
        return
    if len(ground) < k:
        return
    first, rest = ground[0], ground[1:]
    for sub in reference_set_partitions(rest, k - 1):
        yield (frozenset({first}),) + sub
    for sub in reference_set_partitions(rest, k):
        for i in range(len(sub)):
            yield sub[:i] + (sub[i] | {first},) + sub[i + 1 :]


def reference_ordered_partitions(ground: tuple, k: int):
    for blocks in reference_set_partitions(ground, k):
        yield from itertools.permutations(blocks)


def reference_coxeter(ground) -> RegularCellComplex:
    """The Coxeter sphere keyed by tuples of frozensets, each partition's
    blocks built for it alone."""
    items = tuple(sorted(ground))
    complex_ = RegularCellComplex()
    ids: dict[tuple, int] = {}
    for k in range(2, len(items) + 1):
        for blocks in reference_ordered_partitions(items, k):
            facets = tuple(
                ids[blocks[:i] + (blocks[i] | blocks[i + 1],) + blocks[i + 2 :]]
                for i in range(k - 1 if k > 2 else 0)
            )
            ids[blocks] = complex_.add_cell(
                k - 2, ("osp", blocks), facets, pattern=blocks
            )
    for blocks, ident in ids.items():
        complex_.pair(ident, ids[reversal(blocks)])
    return complex_.seal()


def assert_build_matches_reference(n: int) -> None:
    """Equal cells in the same order and an equal involution, for the
    sphere on ``1..n`` against the frozenset-keyed one, and for its
    projective quotient against the quotient built by a key-tuple sort."""
    ground = range(1, n + 1)
    got, ref = coxeter_complex(ground), reference_coxeter(ground)
    assert list(got) == list(ref)
    assert got.involution == ref.involution
    (q_got, map_got), (q_ref, map_ref) = (
        projective_quotient(got), reference_quotient(ref)
    )
    assert list(q_got) == list(q_ref)
    assert map_got == map_ref


def construction_seconds(n: int) -> dict[str, tuple[float, float]]:
    """The seconds that the package and the reference take to build the
    sphere on ``1..n`` and its quotient.  Each side runs alone after a
    collection, so neither pays the collector for the other's cells."""
    seconds = {}
    for side, build, quotient in (
        ("package", coxeter_complex, projective_quotient),
        ("reference", reference_coxeter, reference_quotient),
    ):
        gc.collect()
        tick = time.perf_counter()
        sphere = build(range(1, n + 1))
        mid = time.perf_counter()
        quotient(sphere)
        seconds[side] = (mid - tick, time.perf_counter() - mid)
        del sphere
    return seconds


@pytest.mark.parametrize("n", range(2, 7))
def test_bitmask_build_matches_the_frozenset_reference(n: int) -> None:
    # n = 7 takes seconds; CI runs it as a step of its own
    assert_build_matches_reference(n)


# -- projective quotients ----------------------------------------------


def test_projective_quotient_f_vectors() -> None:
    q2, _ = projective_quotient(ca(3))
    assert q2.f_vector() == (3, 3)
    q3, _ = projective_quotient(ca(4))
    assert q3.f_vector() == (7, 18, 12)
    assert q3.euler_characteristic() == 1
    q4, _ = projective_quotient(ca(5))
    assert q4.f_vector() == (15, 75, 120, 60)
    assert q4.euler_characteristic() == 0
    # what the audited involution guarantees: one quotient cell per pair
    for n in range(3, 7):
        sphere = ca(n)
        quotient, mapping = projective_quotient(sphere)
        assert quotient.sealed
        assert tuple(2 * x for x in quotient.f_vector()) == sphere.f_vector()
        assert set(mapping) == set(sphere.cells)
        assert set(mapping.values()) == set(quotient.cells)
        for old, new in mapping.items():
            assert mapping[sphere.involution[old]] == new
            assert sphere.cells[old].dim == quotient.cells[new].dim


def test_projective_quotient_requires_involution() -> None:
    # an interval: its end swap fixes the midpoint, so it declares none
    segment = RegularCellComplex()
    a = segment.add_cell(0, ("v", "a"))
    b = segment.add_cell(0, ("v", "b"))
    segment.add_cell(1, ("e", "ab"), (a, b))
    with pytest.raises(NotApplicableError):
        projective_quotient(segment.seal())


def test_quotient_regularity_guard() -> None:
    bigon = RegularCellComplex()
    a = bigon.add_cell(0, ("v", "a"))
    b = bigon.add_cell(0, ("v", "b"))
    e1 = bigon.add_cell(1, ("e", 1), (a, b))
    e2 = bigon.add_cell(1, ("e", 2), (a, b))
    bigon.pair(a, b)
    bigon.pair(e1, e2)
    bigon.seal()
    # each edge would have one end twice: add_cell refuses it
    with pytest.raises(AuditError, match="repeats a facet"):
        projective_quotient(bigon)


def test_projective_quotient_refuses_an_unsealed_complex() -> None:
    k = RegularCellComplex()
    a = k.add_cell(0, ("v", "a"))
    b = k.add_cell(0, ("v", "b"))
    c = k.add_cell(0, ("v", "c"))
    k.pair(a, b)
    with pytest.raises(AuditError, match="sealed"):
        projective_quotient(k)
    # pair() refuses a fixed cell, so plant one in the involution itself:
    # seal() refuses it, so no quotient is ever taken of it
    k.involution[c] = c
    with pytest.raises(FixedCellError):
        k.seal()
    assert not k.sealed
    with pytest.raises(AuditError, match="sealed"):
        projective_quotient(k)


def test_pairing_rejects_fixed_cell() -> None:
    k = RegularCellComplex()
    a = k.add_cell(0, ("v", "a"))
    with pytest.raises(FixedCellError):
        k.pair(a, a)


def reference_quotient(complex_: RegularCellComplex):
    """The projective quotient built in (dimension, identity) order by a
    sort on key tuples."""
    out = RegularCellComplex()
    mapping: dict[int, int] = {}
    for c in sorted(complex_.cells.values(), key=lambda c: (c.dim, c.ident)):
        partner = complex_.involution[c.ident]
        if partner < c.ident:
            mapping[c.ident] = mapping[partner]
            continue
        mapping[c.ident] = out.add_cell(
            c.dim, ("orbit", c.label), [mapping[f] for f in c.facets],
            c.pattern,
        )
    return out.seal(), mapping


def test_quotient_of_cells_out_of_dimension_order() -> None:
    # the first collapse step of <125> adds its new cells after the kept
    # ones, so neither its identities nor its dict run in dimension order
    _, (_, step) = itertools.islice(
        run_chain(parse_code("<125>"), mode="collapse"), 2
    )
    dims = [step.cells[i].dim for i in sorted(step.cells)]
    assert dims != sorted(dims)
    assert list(step.cells) != sorted(step.cells)
    assert [c for cells in cells_by_dimension(step.cells) for c in cells] == (
        sorted(step, key=lambda c: (c.dim, c.ident))
    )
    assert cells_by_dimension({}) == []
    (got, got_map), (ref, ref_map) = (
        projective_quotient(step), reference_quotient(step)
    )
    assert list(got) == list(ref)
    assert list(got_map.items()) == list(ref_map.items())
    assert got.f_vector() == tuple(f // 2 for f in step.f_vector())


# -- audits -------------------------------------------------------------


# each refusal of add_cell and the message that names it; the complex
# holds the vertices a, a + 1 and a + 2
REFUSED_CELLS = {
    "duplicate label": (
        "duplicate label", lambda k, a: k.add_cell(0, ("v", "a"))
    ),
    "duplicate identity": (
        "duplicate cell identity",
        lambda k, a: k.add_cell(0, ("v", "b"), ident=a),
    ),
    "vertex with facets": (
        "a vertex has no facets",
        lambda k, a: k.add_cell(0, ("v", "b"), (a,)),
    ),
    "one facet": (
        "needs >= 2 facets",
        lambda k, a: k.add_cell(1, ("e", 1), (a,), ident=9),
    ),
    "repeated facet": (
        "repeats a facet", lambda k, a: k.add_cell(1, ("e", 1), (a, a))
    ),
    "missing facet": (
        "does not exist",
        lambda k, a: k.add_cell(1, ("e", 1), (a, 7), ident=9),
    ),
    "wrong dimension": (
        "has wrong dimension",
        lambda k, a: k.add_cell(2, ("f", 1), (a, a + 1)),
    ),
    "three-ended edge": (
        "lacks two distinct ends",
        lambda k, a: k.add_cell(1, ("e", 1), (a, a + 1, a + 2)),
    ),
}


@pytest.mark.parametrize(
    "match, refuse", list(REFUSED_CELLS.values()), ids=list(REFUSED_CELLS)
)
def test_refused_cell_leaves_the_complex_unchanged(match, refuse) -> None:
    k = RegularCellComplex()
    a = k.add_cell(0, ("v", "a"))
    k.add_cell(0, ("v", "c"))
    k.add_cell(0, ("v", "e"))
    before = dict(k.cells)
    with pytest.raises(AuditError, match=match):
        refuse(k, a)
    assert k.cells == before
    assert k._labels[("v", "a")] == a
    for label in (("v", "b"), ("e", 1), ("f", 1)):
        assert label not in k._labels
    assert k.add_cell(0, ("v", "d")) == a + 3


# the details of each refusal in REFUSED_CELLS, past the stage, the label
# and the identity the cell would have had; a is the first vertex
REFUSAL_DETAILS = {
    "duplicate label": lambda a: (("v", "a"), 3, {"other": a}),
    "duplicate identity": lambda a: (("v", "b"), a, {}),
    "vertex with facets": lambda a: (("v", "b"), 3, {"facets": (a,)}),
    "one facet": lambda a: (("e", 1), 9, {"facets": (a,)}),
    "repeated facet": lambda a: (("e", 1), 3, {"facets": (a,)}),
    "missing facet": lambda a: (("e", 1), 9, {"facets": (7,)}),
    "wrong dimension": lambda a: (("f", 1), 3, {"facets": (a,)}),
    "three-ended edge": lambda a: (
        ("e", 1), 3, {"facets": (a, a + 1, a + 2)}
    ),
}


@pytest.mark.parametrize("name", list(REFUSED_CELLS))
def test_refused_cell_names_its_stage_label_and_ids(name: str) -> None:
    k = RegularCellComplex()
    a = k.add_cell(0, ("v", "a"))
    k.add_cell(0, ("v", "c"))
    k.add_cell(0, ("v", "e"))
    _, refuse = REFUSED_CELLS[name]
    label, ident, at = REFUSAL_DETAILS[name](a)
    with pytest.raises(AuditError) as raised:
        refuse(k, a)
    assert raised.value.details == {
        "stage": "add_cell", "label": label, "cell": ident, **at
    }


def test_add_cell_refuses_a_negative_dimension() -> None:
    k = RegularCellComplex()
    v = k.add_cell(0, ("v", 0))
    refused = refused_cell(k, -1, ("neg",), ())
    assert str(refused) == "cell ('neg',) has negative dimension -1"
    assert refused.details == {
        "stage": "add_cell", "label": ("neg",), "cell": v + 1
    }
    # only the vertex that refused_cell adds after the refusal is new
    assert k.f_vector() == (2,)
    assert k.dim == 0


def test_a_sealed_complex_refuses_a_cell_with_details() -> None:
    k = RegularCellComplex()
    k.add_cell(0, ("v", "a"))
    k.seal()
    with pytest.raises(AuditError, match="complex is sealed") as raised:
        k.add_cell(0, ("v", "late"), ident=5)
    assert raised.value.details == {
        "stage": "add_cell", "label": ("v", "late"), "cell": 5
    }


@pytest.mark.parametrize(
    "build, error, match",
    [
        pytest.param(
            lambda: coxeter_complex(range(1, 4)).pair(0, 1), AuditError,
            "complex is sealed", id="pair-after-seal",
        ),
    ],
)
def test_coxeter_refusals(build, error, match) -> None:
    with pytest.raises(error, match=match):
        build()


def test_seal_of_a_sealed_complex_audits_nothing_again(monkeypatch) -> None:
    k = ca(4)

    def refuse(self):
        raise AssertionError("the involution was audited again")

    monkeypatch.setattr(RegularCellComplex, "_audit_involution", refuse)
    assert k.seal() is k


def test_faces_of_an_unsealed_complex_stay_right_as_it_grows() -> None:
    # a closure is memoised before the seal: a cell's facets never change
    k = RegularCellComplex()
    a, b, c = (k.add_cell(0, ("v", v)) for v in "abc")
    ab = k.add_cell(1, ("e", "ab"), (a, b))
    assert k.faces_of(ab) == {a, b, ab}
    bc = k.add_cell(1, ("e", "bc"), (b, c))
    ca_ = k.add_cell(1, ("e", "ca"), (c, a))
    top = k.add_cell(2, ("f", "abc"), (ab, bc, ca_))
    assert k.faces_of(ab) == {a, b, ab}
    assert k.faces_of(top) == {a, b, c, ab, bc, ca_, top}
    assert k.faces_of(top) is k.faces_of(top)


def test_edge_needs_two_distinct_ends() -> None:
    k = RegularCellComplex()
    a = k.add_cell(0, ("v", "a"))
    with pytest.raises(AuditError):
        k.add_cell(1, ("e", 1), (a, a))


def refused_cell(k, dim: int, label: tuple, facets) -> AuditError:
    """Require ``add_cell`` to refuse a cell and leave ``k`` unchanged: the
    same cells, no cell under ``label``, and the next automatic identity
    where it was.  Returns the refusal."""
    before = dict(k.cells)
    with pytest.raises(AuditError) as raised:
        k.add_cell(dim, label, facets)
    assert k.cells == before
    assert label not in k._labels
    assert k.add_cell(0, ("v", "next")) == max(before) + 1
    return raised.value


def refused_cell_message(k, dim: int, label: tuple, facets) -> str:
    """The message of ``refused_cell``."""
    return str(refused_cell(k, dim, label, facets))


def test_add_cell_refuses_the_theta_two_cell() -> None:
    # one 2-cell on three edges between the same two vertices: each
    # vertex lies on three of its facets, not two
    k = RegularCellComplex()
    a = k.add_cell(0, ("v", "a"))
    b = k.add_cell(0, ("v", "b"))
    edges = [k.add_cell(1, ("e", i), (a, b)) for i in range(3)]
    refused = refused_cell(k, 2, ("f", "theta"), edges)
    assert str(refused) == (
        "diamond property fails at ('f', 'theta'): {0: 3, 1: 3}"
    )
    assert refused.details == {
        "stage": "add_cell", "label": ("f", "theta"), "cell": 5,
        "faces": {a: 3, b: 3},
    }


def test_two_cell_boundary_must_close() -> None:
    k = RegularCellComplex()
    a = k.add_cell(0, ("v", "a"))
    b = k.add_cell(0, ("v", "b"))
    c = k.add_cell(0, ("v", "c"))
    ab = k.add_cell(1, ("e", "ab"), (a, b))
    bc = k.add_cell(1, ("e", "bc"), (b, c))
    assert refused_cell_message(k, 2, ("f", 1), (ab, bc)) == (
        "diamond property fails at ('f', 1): {0: 1, 2: 1}"
    )


# 2-cells on vertices 0, 1, 2 and the edges named by their ends: the
# faces reached other than twice, in the order the facets first reach
# them, not in sorted order; a vertex reached once, three times, both, or
# in two pairs
BROKEN_DIAMONDS = {
    "open path from its far end": ([(1, 2), (0, 1)], "{2: 1, 0: 1}"),
    "spur": ([(0, 2), (0, 1), (0, 1)], "{0: 3, 2: 1}"),
    "four edges": ([(0, 1)] * 4, "{0: 4, 1: 4}"),
}


@pytest.mark.parametrize(
    "ends, bad", list(BROKEN_DIAMONDS.values()), ids=list(BROKEN_DIAMONDS)
)
def test_diamond_failure_names_each_face_and_its_count(ends, bad) -> None:
    k = RegularCellComplex()
    vs = [k.add_cell(0, ("v", i)) for i in range(3)]
    edges = [
        k.add_cell(1, ("e", t), (vs[i], vs[j]))
        for t, (i, j) in enumerate(ends)
    ]
    assert refused_cell_message(k, 2, ("f", 1), edges) == (
        f"diamond property fails at ('f', 1): {bad}"
    )


def test_diamond_property_of_a_three_cell() -> None:
    # a square and a triangle on two of its edges bound no 3-cell: the
    # square's other edges and the triangle's third lie on one facet each;
    # two squares on the same four edges do
    k = RegularCellComplex()
    vs = [k.add_cell(0, ("v", i)) for i in range(4)]
    edges = [
        k.add_cell(1, ("e", i), (vs[i], vs[(i + 1) % 4])) for i in range(4)
    ]
    square = k.add_cell(2, ("f", "square"), edges)
    pillow = k.add_cell(2, ("f", "pillow"), edges[::-1])
    chord = k.add_cell(1, ("e", "chord"), (vs[2], vs[0]))
    triangle = k.add_cell(2, ("f", "triangle"), edges[:2] + [chord])
    k.add_cell(3, ("b", "ball"), (square, pillow))
    refused = refused_cell(k, 3, ("b", "broken"), (square, triangle))
    bad = {edges[2]: 1, edges[3]: 1, chord: 1}
    assert str(refused) == (
        f"diamond property fails at ('b', 'broken'): {bad}"
    )
    assert refused.details == {
        "stage": "add_cell", "label": ("b", "broken"), "cell": 13,
        "faces": bad,
    }


def test_bigon_two_cell_seals() -> None:
    k = RegularCellComplex()
    a = k.add_cell(0, ("v", "a"))
    b = k.add_cell(0, ("v", "b"))
    edges = [k.add_cell(1, ("e", i), (a, b)) for i in range(2)]
    k.add_cell(2, ("f", "bigon"), edges)
    assert k.seal().f_vector() == (2, 2, 1)


def test_two_cell_boundary_must_be_one_cycle() -> None:
    k = RegularCellComplex()
    vs = [k.add_cell(0, ("v", i)) for i in range(6)]
    tri1 = [
        k.add_cell(1, ("e", (i, j)), (vs[i], vs[j]))
        for i, j in [(0, 1), (1, 2), (2, 0)]
    ]
    tri2 = [
        k.add_cell(1, ("e", (i, j)), (vs[i], vs[j]))
        for i, j in [(3, 4), (4, 5), (5, 3)]
    ]
    refused = refused_cell(k, 2, ("f", 1), tri1 + tri2)
    assert str(refused) == "boundary of ('f', 1) is not a single cycle"
    assert refused.details == {
        "stage": "add_cell", "label": ("f", 1), "cell": 12,
        "facets": tuple(tri1 + tri2),
    }


def test_involution_audit_requires_totality() -> None:
    k = RegularCellComplex()
    a = k.add_cell(0, ("v", "a"))
    b = k.add_cell(0, ("v", "b"))
    c = k.add_cell(0, ("v", "c"))
    k.pair(a, b)
    with pytest.raises(AuditError) as raised:
        k.seal()
    assert raised.value.details == {
        "stage": "seal", "label": ("v", "c"), "cell": c, "cells": (c,)
    }


def test_involution_audit_refuses_a_partner_that_is_no_cell() -> None:
    k = RegularCellComplex()
    a = k.add_cell(0, ("v", "a"))
    b = k.add_cell(0, ("v", "b"))
    k.involution.update({a: b + 1, b: a})
    with pytest.raises(AuditError, match="not an involution") as raised:
        k.seal()
    assert raised.value.details == {
        "stage": "seal", "label": ("v", "a"), "cell": a, "partner": b + 1
    }


def test_involution_audit_names_a_fixed_cell() -> None:
    k = RegularCellComplex()
    a = k.add_cell(0, ("v", "a"))
    k.involution[a] = a
    with pytest.raises(FixedCellError, match="fixes cell") as raised:
        k.seal()
    assert raised.value.details == {
        "stage": "seal", "label": ("v", "a"), "cell": a, "partner": a
    }


def test_involution_audit_names_a_change_of_dimension() -> None:
    k = RegularCellComplex()
    a = k.add_cell(0, ("v", "a"))
    b = k.add_cell(0, ("v", "b"))
    e = k.add_cell(1, ("e", 1), (a, b))
    c = k.add_cell(0, ("v", "c"))
    k.pair(a, b)
    k.pair(e, c)
    with pytest.raises(AuditError, match="changes dimension") as raised:
        k.seal()
    assert raised.value.details == {
        "stage": "seal", "label": ("e", 1), "cell": e, "partner": c
    }


def assert_facet_fault_names_the_cell_met_first(lower_first: bool) -> None:
    k = RegularCellComplex()
    a = k.add_cell(0, ("v", "a"))
    b = k.add_cell(0, ("v", "b"))
    c = k.add_cell(0, ("v", "c"))
    d = k.add_cell(0, ("v", "d"))
    e1 = k.add_cell(1, ("e", 1), (a, b))
    e2 = k.add_cell(1, ("e", 2), (b, c))
    k.pair(a, c)
    k.pair(b, d)
    first, second = (e1, e2) if lower_first else (e2, e1)
    k.pair(first, second)
    with pytest.raises(AuditError) as raised:
        k.seal()
    assert str(raised.value) == (
        f"involution of {k.cells[first].label!r} does not respect facets"
    )
    # the partners of e1's ends are c and d and those of e2's are d and a,
    # so either way round the two facet sets differ in b and d
    assert raised.value.details == {
        "stage": "seal", "label": k.cells[first].label, "cell": first,
        "partner": k.involution[first], "facets": (b, d),
    }


def test_involution_audit_checks_facets() -> None:
    assert_facet_fault_names_the_cell_met_first(lower_first=True)


def test_involution_audit_checks_facets_from_the_higher_cell() -> None:
    # the facet test runs once per pair, at the member the involution
    # meets first, even when that one has the higher identity
    assert_facet_fault_names_the_cell_met_first(lower_first=False)


def test_add_cell_validations() -> None:
    k = RegularCellComplex()
    a = k.add_cell(0, ("v", "a"))
    with pytest.raises(AuditError):
        k.add_cell(0, ("v", "b"), ident=a)
    with pytest.raises(AuditError):
        k.add_cell(0, ("v", "a"))
    with pytest.raises(AuditError):
        k.add_cell(0, ("v", "c"), facets=(a,))
    b = k.add_cell(0, ("v", "b"))
    e = k.add_cell(1, ("e", 1), (a, b))
    with pytest.raises(AuditError):
        k.add_cell(1, ("e", 2), (a, e))
    k.seal()
    with pytest.raises(AuditError):
        k.add_cell(0, ("v", "late"))


# -- the cofacet map --------------------------------------------------------


def cofacet_sets(k: RegularCellComplex) -> dict[int, set[int]]:
    """The cofacet map that ``k`` holds, each entry as a set."""
    return {i: set(up) for i, up in k.cofacets().items()}


def cofacet_relation(k: RegularCellComplex) -> dict[int, set[int]]:
    """The cells that each cell of ``k`` is a facet of, read off the
    facets of every cell."""
    return {i: {c.ident for c in k if i in c.facets} for i in k.cells}


def test_add_cell_keeps_a_built_cofacet_map() -> None:
    k = RegularCellComplex()
    a = k.add_cell(0, ("v", "a"))
    b = k.add_cell(0, ("v", "b"))
    held = k.cofacets()
    assert dict(held) == {a: (), b: ()}
    e = k.add_cell(1, ("e", "ab"), (a, b))
    # a view read before the edge sees it too: there is one map
    assert dict(held) == dict(k.cofacets()) == {a: (e,), b: (e,), e: ()}


def test_refused_cell_leaves_a_built_cofacet_map_unchanged() -> None:
    k = RegularCellComplex()
    a = k.add_cell(0, ("v", "a"))
    b = k.add_cell(0, ("v", "b"))
    e = k.add_cell(1, ("e", "ab"), (a, b))
    before = dict(k.cofacets())
    # the first facet is a good one, the second has the wrong dimension
    with pytest.raises(AuditError, match="wrong dimension"):
        k.add_cell(1, ("e", "bad"), (a, e))
    assert dict(k.cofacets()) == before


# -- deriving a complex for a surgery ------------------------------------


def test_derive_refuses_a_drop_set_not_closed_upward() -> None:
    k = coxeter_complex(range(1, 4))  # a hexagon
    v = next(c.ident for c in k if c.dim == 0)
    edge = k.cofacets()[v][0]
    # {v} also separates v from its partner; the closure refusal comes first
    assert k.involution[v] != v
    with pytest.raises(AuditError, match=(
        f"dropping cell {v} leaves cell {edge} without that facet"
    )):
        k.derive({v})
    with pytest.raises(AuditError, match="does not exist"):
        k.derive({k._next})
    with pytest.raises(AuditError, match="takes a sealed"):
        RegularCellComplex().derive(())


def vertex_stars(k: RegularCellComplex, *vertices: int) -> set[int]:
    """The cells whose closure holds one of the given vertices."""
    return {
        c.ident for c in k if any(v in k.faces_of(c.ident) for v in vertices)
    }


def derived_without_a_vertex_pair(k: RegularCellComplex):
    """A first vertex of ``k``, the stars of it and of its partner (a drop
    set closed upward and under the involution), and ``k`` derived less
    them."""
    v = next(c.ident for c in k if c.dim == 0)
    drop = vertex_stars(k, v, k.involution[v])
    return v, drop, k.derive(drop)


def readd(out: RegularCellComplex, k: RegularCellComplex, idents) -> None:
    """Add the cells of ``k`` with the given identities to ``out`` again,
    in dimension order, through ``add_cell``."""
    for i in sorted(idents, key=lambda i: (k.cells[i].dim, i)):
        c = k.cells[i]
        out.add_cell(c.dim, c.label, c.facets, c.pattern, ident=c.ident)


def test_derive_keeps_the_cells_and_hands_on_the_cofacets() -> None:
    k = coxeter_complex(range(1, 5))
    cofacets = cofacet_sets(k)
    assert cofacets == cofacet_relation(k)
    held = k.cofacets()
    with pytest.raises(TypeError):
        held[0] = ()  # type: ignore[index]
    v, star, out = derived_without_a_vertex_pair(k)
    # the complex derived from keeps its map, and so does a view held before
    assert {i: set(up) for i, up in held.items()} == cofacets
    assert not out.sealed
    assert cofacet_sets(out) == cofacet_relation(out)
    assert out.involution == {
        i: j for i, j in k.involution.items() if i not in star
    }
    assert out.cells == {i: c for i, c in k.cells.items() if i not in star}
    assert all(out.cells[i] is k.cells[i] for i in out.cells)
    # the dropped cells come back through add_cell and pair(), and the map
    # takes them
    readd(out, k, star)
    for i in star:
        out.pair(i, k.involution[i])
    assert cofacet_sets(out) == cofacet_relation(out)
    assert out._next == k._next
    assert {i: set(up) for i, up in out.seal().cofacets().items()} == cofacets
    assert {i: set(up) for i, up in k.cofacets().items()} == cofacets
    assert out.involution == k.involution


def test_derive_refuses_a_drop_set_that_separates_a_pair() -> None:
    k = coxeter_complex(range(1, 5))
    v = next(c.ident for c in k if c.dim == 0)
    star = vertex_stars(k, v)
    with pytest.raises(AuditError) as raised:
        k.derive(star)
    partners = {k.involution[i] for i in star}
    assert str(raised.value) in {
        f"involution moves kept cell {c} off the kept set" for c in partners
    }
    # a partner that is no cell is an audit failure too, not a KeyError
    bad = coxeter_complex(range(1, 5))
    bad.involution[v] = bad._next
    with pytest.raises(AuditError, match="off the kept set"):
        bad.derive(vertex_stars(bad, v))


def test_pair_refuses_to_re_pair_a_carried_cell() -> None:
    k = coxeter_complex(range(1, 5))
    v, drop, out = derived_without_a_vertex_pair(k)
    kept = [c.ident for c in k if c.dim == 0 and c.ident not in drop]
    a = kept[0]
    b = next(i for i in kept if i not in (a, k.involution[a]))
    before = dict(out.involution)
    with pytest.raises(AuditError, match=f"cell {a} or {b} already has"):
        out.pair(a, b)
    with pytest.raises(AuditError, match="already has another partner"):
        out.pair(b, a)
    # nor may a carried cell take a dropped cell added back, nor the reverse
    readd(out, k, drop)
    with pytest.raises(AuditError, match="already has another partner"):
        out.pair(v, a)
    with pytest.raises(AuditError, match="already has another partner"):
        out.pair(a, v)
    # pairing a cell again with its own partner changes nothing
    out.pair(a, k.involution[a])
    assert out.involution == before
    assert list(out.involution) == list(before)


def test_seal_audits_a_pair_made_after_derive() -> None:
    k = coxeter_complex(range(1, 5))
    v, drop, out = derived_without_a_vertex_pair(k)
    readd(out, k, drop)
    # two edges at v swap their partners, so neither maps its ends onto
    # its new partner's
    e1, e2 = sorted(k.cofacets()[v])[:2]
    partner = {i: k.involution[i] for i in drop}
    p1, p2 = partner[e1], partner[e2]
    partner.update({e1: p2, p2: e1, e2: p1, p1: e2})
    for i in sorted(drop, key=lambda i: (k.cells[i].dim, i)):
        out.pair(i, partner[i])
    first = min((e1, e2, p1, p2), key=lambda i: (k.cells[i].dim, i))
    with pytest.raises(AuditError) as raised:
        out.seal()
    assert str(raised.value) == (
        f"involution of {k.cells[first].label!r} does not respect facets"
    )
    assert raised.value.details["stage"] == "seal"
    assert raised.value.details["cell"] == first
    assert raised.value.details["partner"] == partner[first]
    assert not out.sealed


# -- cells ----------------------------------------------------------------


def test_cell_is_frozen() -> None:
    cell = Cell(0, 0, ("v", "a"), ())
    with pytest.raises(AttributeError):
        cell.dim = 1  # type: ignore[misc]
    assert not hasattr(cell, "__dict__")
