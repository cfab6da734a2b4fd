"""Surgery pipeline: interface spheres, cut-and-cap runs, homotopy models."""

import functools
import importlib
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polygonspaces.coxeter import (
    RegularCellComplex,
    coxeter_complex,
    projective_quotient,
)
from polygonspaces.errors import (
    AuditError,
    ChainInterferenceError,
    Not2DError,
    NotApplicableError,
    SphereNotEmbeddedError,
    SphereRelocationFailedError,
    TooLargeError,
)
from polygonspaces.genetics import (
    GeneticCode,
    enumerate_codes,
    parse_code,
    realize,
    saturated_chain,
)
from polygonspaces.homology import (
    SimplicialComplex,
    _chain_simplices,
    betti_oracle,
    homology,
    identify_small,
    proper_faces,
)
from polygonspaces.posets import (
    canonical_partition,
    comb_surgery,
    intersection_poset,
    minimal_building_set,
    poset_isomorphic,
)
from polygonspaces.surgery import (
    adjacent_cells,
    locate_sphere,
    restrict_pattern,
    run_chain,
    run_model,
    sphere_cells,
    step_locus,
    surgery_2d,
)
from test_posets import face_poset


@functools.cache
def chain_run(name: str, mode: str, projective: bool = False):
    return run_chain(parse_code(name), mode=mode, projective=projective)


@functools.cache
def model_run(name: str):
    return run_model(parse_code(name))


def fs(*items) -> frozenset:
    return frozenset(items)


# -- f-vector ladders ---------------------------------------------------

# one row per (code, projective, mode): the f-vector before every step
# plus the final one.  Attach grows the complex, collapse keeps the face
# count flat until a circle step crushes it back down.
LADDERS = {
    ("<15>", 0, "attach"): [(14, 36, 24), (24, 54, 30)],
    ("<15>", 0, "collapse"): [(14, 36, 24), (18, 42, 24)],
    ("<15>", 1, "attach"): [(7, 18, 12), (12, 27, 15)],
    ("<15>", 1, "collapse"): [(7, 18, 12), (9, 21, 12)],
    ("<45>", 0, "attach"): [
        (14, 36, 24),
        (24, 54, 30),
        (34, 72, 36),
        (44, 90, 42),
        (54, 108, 48),
    ],
    ("<45>", 0, "collapse"): [
        (14, 36, 24),
        (18, 42, 24),
        (22, 48, 24),
        (26, 54, 24),
        (30, 60, 24),
    ],
    ("<45>", 1, "attach"): [
        (7, 18, 12),
        (12, 27, 15),
        (17, 36, 18),
        (22, 45, 21),
        (27, 54, 24),
    ],
    ("<45>", 1, "collapse"): [
        (7, 18, 12),
        (9, 21, 12),
        (11, 24, 12),
        (13, 27, 12),
        (15, 30, 12),
    ],
    ("<125>", 0, "attach"): [
        (14, 36, 24),
        (24, 54, 30),
        (34, 72, 36),
        (44, 82, 38),
    ],
    ("<125>", 0, "collapse"): [
        (14, 36, 24),
        (18, 42, 24),
        (22, 48, 24),
        (18, 42, 24),
    ],
    ("<125>", 1, "attach"): [
        (7, 18, 12),
        (12, 27, 15),
        (17, 36, 18),
        (22, 41, 19),
    ],
    ("<125>", 1, "collapse"): [
        (7, 18, 12),
        (9, 21, 12),
        (11, 24, 12),
        (9, 21, 12),
    ],
}


@pytest.mark.parametrize("key", sorted(LADDERS))
def test_f_vector_ladder(key) -> None:
    name, projective, mode = key
    tr = chain_run(name, mode, bool(projective))
    got = [k.f_vector() for k in tr.complexes]
    assert got == LADDERS[key]
    assert [s.f_after for s in tr.steps] == got[1:]
    assert tr.mode == mode
    assert tr.projective is bool(projective)


def test_step_records() -> None:
    tr = chain_run("<125>", "collapse")
    assert [s.code for s in tr.steps] == ["<15>", "<25>", "<125>"]
    assert [s.added for s in tr.steps] == [(1, 5), (2, 5), (1, 2, 5)]
    assert [s.index for s in tr.steps] == [0, 0, 1]
    assert [len(s.sphere) for s in tr.steps] == [2, 2, 12]
    for after, step in zip(tr.complexes[1:], tr.steps):
        assert step.f_after == after.f_vector()


# -- surface identification --------------------------------------------

NAMES = {
    ("<15>", 0): "T^2",
    ("<25>", 0): "T_2",
    ("<35>", 0): "T_3",
    ("<45>", 0): "T_4",
    ("<125>", 0): "T^2 ⊔ T^2",
    ("<15>", 1): "N_2",
    ("<25>", 1): "N_3",
    ("<35>", 1): "N_4",
    ("<45>", 1): "N_5",
    ("<125>", 1): "T^2",
}


@pytest.mark.parametrize("key", sorted(NAMES))
@pytest.mark.parametrize("mode", ["attach", "collapse"])
def test_surface_names(key, mode: str) -> None:
    name, projective = key
    tr = chain_run(name, mode, bool(projective))
    assert identify_small(tr.final) == NAMES[key]


def test_empty_chain_is_the_start_sphere() -> None:
    tr = chain_run("<5>", "attach")
    assert tr.steps == ()
    assert tr.final.f_vector() == (14, 36, 24)
    assert identify_small(tr.final) == "S^2"


# -- oracle agreement ---------------------------------------------------

STEPPED = ["<5>", "<15>", "<25>", "<35>", "<45>", "<125>"]


@pytest.mark.parametrize("name", STEPPED)
@pytest.mark.parametrize("mode", ["attach", "collapse"])
def test_oracle_agreement(name: str, mode: str) -> None:
    tr = chain_run(name, mode)
    rep = homology(tr.final)
    assert rep.betti == betti_oracle(parse_code(name))
    assert not rep.has_torsion()


@pytest.mark.parametrize("name", STEPPED)
def test_modes_build_the_same_space(name: str) -> None:
    a = homology(chain_run(name, "attach").final)
    b = homology(chain_run(name, "collapse").final)
    assert a.betti == b.betti
    assert a.torsion == b.torsion
    assert a.components == b.components


@pytest.mark.parametrize("name", ["<15>", "<25>", "<35>", "<45>"])
@pytest.mark.parametrize("mode", ["attach", "collapse"])
def test_projective_runs_are_nonorientable(name: str, mode: str) -> None:
    rep = homology(chain_run(name, mode, True).final)
    h1 = betti_oracle(parse_code(name))[1]
    assert rep.betti == (1, h1 // 2, 0)
    assert rep.torsion[1] == (2,)
    assert rep.orientable is False


def test_projective_two_torus_code_gives_one_torus() -> None:
    rep = homology(chain_run("<125>", "collapse", True).final)
    assert rep.betti == (1, 2, 1)
    assert not rep.has_torsion()
    assert rep.orientable is True


# -- equivariance --------------------------------------------------------

EQUIVARIANT = [
    (name, mode)
    for name in ("<15>", "<45>", "<125>")
    for mode in ("attach", "collapse")
]


@pytest.mark.parametrize("name,mode", EQUIVARIANT)
def test_involution_survives_surgery(name: str, mode: str) -> None:
    tr = chain_run(name, mode)
    for k in tr.complexes:
        assert set(k.involution) == set(k.cells)
        for ident, partner in k.involution.items():
            assert partner != ident
            assert k.involution[partner] == ident


@pytest.mark.parametrize("name,mode", EQUIVARIANT)
def test_quotient_commutes_with_surgery(name: str, mode: str) -> None:
    folded, _ = projective_quotient(chain_run(name, mode).final)
    direct = chain_run(name, mode, True).final
    assert folded.f_vector() == direct.f_vector()
    a, b = homology(folded), homology(direct)
    assert (a.betti, a.torsion) == (b.betti, b.torsion)


# -- cell shapes ---------------------------------------------------------


def boundary_lengths(complex_) -> dict[int, int]:
    counts: dict[int, int] = {}
    for cell in complex_:
        if cell.dim == 2:
            n = len(cell.facets)
            counts[n] = counts.get(n, 0) + 1
    return counts


def test_attach_tube_shapes() -> None:
    tr = chain_run("<15>", "attach")
    assert boundary_lengths(tr.final) == {3: 12, 4: 18}


def test_projective_pentagon_complex() -> None:
    k = chain_run("<45>", "collapse", True).final
    assert boundary_lengths(k) == {5: 12}


def test_collapse_keeps_face_count() -> None:
    tr = chain_run("<45>", "collapse")
    assert [s.f_after[2] for s in tr.steps] == [24, 24, 24, 24]


# -- collapse in every dimension -----------------------------------------

TRACES = [
    (name, mode, projective)
    for name in STEPPED
    for mode in ("attach", "collapse")
    for projective in (False, True)
]


@pytest.mark.parametrize("name,mode,projective", TRACES)
def test_adjacent_cells_match_the_closure_definition(
    name: str, mode: str, projective: bool
) -> None:
    tr = chain_run(name, mode, projective)
    for k, step in zip(tr.complexes, tr.steps):
        sphere = frozenset(step.sphere)
        closure = frozenset(
            c.ident
            for c in k
            if c.ident not in sphere and k.faces_of(c.ident) & sphere
        )
        assert adjacent_cells(k, sphere) == closure


def set_partitions(items: list):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [frozenset({first})] + part
        for i in range(len(part)):
            yield part[:i] + [part[i] | {first}] + part[i + 1 :]


def panina_complex(code: GeneticCode):
    """Panina's complex of a code, with shortness read off lengths that
    realize it: a cell per cyclically ordered partition of the edges into
    at least 3 short blocks, the anchor's block first; its facets merge
    two cyclically adjacent blocks into a short one; reversal of the
    other blocks is the involution."""
    lengths = realize(code).values
    m = len(lengths)
    half = sum(lengths) / 2

    def short(block) -> bool:
        return sum(lengths[e - 1] for e in block) < half

    def anchored(blocks) -> tuple:
        first = next(i for i, b in enumerate(blocks) if m in b)
        return tuple(blocks[first:] + blocks[:first])

    cells = []
    for part in set_partitions(list(range(1, m + 1))):
        if len(part) >= 3 and all(map(short, part)):
            anchor = next(b for b in part if m in b)
            rest = [b for b in part if b is not anchor]
            cells += [(anchor,) + p for p in itertools.permutations(rest)]
    k = RegularCellComplex()
    ids = {}
    for cell in sorted(cells, key=len):
        n = len(cell)
        facets = []
        for i in range(n):
            j = (i + 1) % n
            if short(cell[i] | cell[j]):
                merged = [cell[i] | cell[j] if t == i else b
                          for t, b in enumerate(cell) if t != j]
                facets.append(ids[anchored(merged)])
        ids[cell] = k.add_cell(n - 3, ("panina", cell), facets)
    for cell, ident in ids.items():
        k.pair(ident, ids[cell[:1] + cell[:0:-1]])
    return k.seal()


@functools.cache
def panina_poset(name: str, projective: bool):
    k = panina_complex(parse_code(name))
    return face_poset(projective_quotient(k)[0] if projective else k)


@pytest.mark.parametrize("name", STEPPED)
@pytest.mark.parametrize("projective", [False, True])
def test_collapse_steps_are_panina_complexes(
    name: str, projective: bool
) -> None:
    tr = chain_run(name, "collapse", projective)
    for k, code in zip(tr.complexes, ["<5>"] + [s.code for s in tr.steps]):
        assert k.sealed
        iso = poset_isomorphic(face_poset(k), panina_poset(code, projective))
        assert iso is not None, code


REALIZABLE_6 = [
    str(code)
    for code in enumerate_codes(6)
    if not code.is_empty_space() and realize(code) is not None
]


def test_collapse_builds_every_six_edge_code() -> None:
    assert len(REALIZABLE_6) == 20
    for name in REALIZABLE_6:
        tr = chain_run(name, "collapse")
        assert all(k.sealed for k in tr.complexes)
        rep = homology(tr.final)
        assert rep.betti == betti_oracle(parse_code(name)), name
        assert not rep.has_torsion()


@pytest.mark.parametrize("name", REALIZABLE_6)
def test_six_edge_finals_are_panina_complexes(name: str) -> None:
    plain = face_poset(chain_run(name, "collapse").final)
    assert poset_isomorphic(plain, panina_poset(name, False)) is not None
    folded = chain_run(name, "collapse", True)
    assert all(k.sealed for k in folded.complexes)
    quotient = projective_quotient(chain_run(name, "collapse").final)[0]
    final = face_poset(folded.final)
    assert poset_isomorphic(final, face_poset(quotient)) is not None
    assert poset_isomorphic(final, panina_poset(name, True)) is not None


# -- sphere relocation ---------------------------------------------------


def blocks_name(pattern) -> str:
    return " ".join("".join(map(str, sorted(b))) for b in pattern)


def test_relocated_circle_runs_through_scar_tissue() -> None:
    # third collapse step of <125>: the interface circle for units {3,4}
    # crosses vertices made by both earlier steps.
    tr = chain_run("<125>", "collapse")
    k = tr.complexes[2]
    sphere = [k.cells[i] for i in tr.steps[2].sphere]
    vertices = {c.ident: blocks_name(c.pattern) for c in sphere if c.dim == 0}
    assert sorted(vertices.values()) == [
        "1 34", "12 34", "2 34", "34 1", "34 12", "34 2",
    ]
    start = {c.pattern for c in tr.complexes[0]}
    scars = {blocks_name(c.pattern) for c in sphere if c.pattern not in start}
    assert scars == {"1 34", "34 1", "2 34", "34 2"}
    edges = {
        blocks_name(c.pattern): {vertices[v] for v in c.facets}
        for c in sphere
        if c.dim == 1
    }
    assert edges == {
        "1 2 34": {"12 34", "2 34"},
        "2 1 34": {"12 34", "1 34"},
        "1 34 2": {"1 34", "34 2"},
        "2 34 1": {"2 34", "34 1"},
        "34 1 2": {"34 12", "34 1"},
        "34 2 1": {"34 12", "34 2"},
    }
    # one hexagon
    walk = ["12 34", "2 34", "34 1", "34 12", "34 2", "1 34", "12 34"]
    assert {frozenset(pair) for pair in zip(walk, walk[1:])} == {
        frozenset(ends) for ends in edges.values()
    }


def test_sphere_cells_predicate() -> None:
    k = coxeter_complex(range(1, 5))
    ids = sphere_cells(k, fs(2, 3, 4))
    cells = [k.cells[i] for i in ids]
    assert [c.dim for c in cells] == [0, 0]
    assert {c.pattern for c in cells} == {
        (fs(1), fs(2, 3, 4)),
        (fs(2, 3, 4), fs(1)),
    }


@pytest.mark.parametrize("n,size", [(5, 2), (6, 2), (6, 3)])
def test_locate_sphere_accepts_projective_spaces(n: int, size: int) -> None:
    # the cells keeping `size` units together form an (n - size - 1)-sphere,
    # and in the quotient by reversal a real projective space
    folded, _ = projective_quotient(coxeter_complex(range(1, n + 1)))
    units = frozenset(range(1, size + 1))
    rep = homology(folded.materialize(locate_sphere(folded, units, True)))
    index = n - size - 1
    assert rep.betti == (1,) + (0,) * (index - 1) + (index % 2,)
    assert rep.torsion[1:index] == tuple(
        (2,) if k % 2 else () for k in range(1, index)
    )
    with pytest.raises(SphereRelocationFailedError):
        locate_sphere(folded, units)


def test_locate_sphere_missing_stratum() -> None:
    k = coxeter_complex(range(1, 5))
    with pytest.raises(SphereRelocationFailedError):
        locate_sphere(k, fs(1, 2, 3, 4))


def patterned_graph(sphere_edges: list, other_edges: list):
    """A graph whose cells on ``sphere_edges`` keep units 1 and 2 in one
    block; the other edges, and their vertices off the sphere, split them."""
    together, apart = (fs(1, 2), fs(3)), (fs(1), fs(2, 3))
    on = {v for e in sphere_edges for v in e}
    k = RegularCellComplex()
    ids = {
        v: k.add_cell(0, ("v", v), pattern=together if v in on else apart)
        for v in sorted({v for e in sphere_edges + other_edges for v in e})
    }
    for edges, pattern in ((sphere_edges, together), (other_edges, apart)):
        for e in edges:
            k.add_cell(1, ("e", e), [ids[v] for v in e], pattern=pattern)
    return k.seal()


TRIANGLE = [(0, 1), (1, 2), (2, 0)]


def test_locate_sphere_accepts_a_plain_cycle() -> None:
    k = patterned_graph(TRIANGLE, [(0, 9)])
    sphere = locate_sphere(k, fs(1, 2))
    assert sorted(k.cells[i].label for i in sphere) == sorted(
        [("v", v) for v in range(3)] + [("e", e) for e in TRIANGLE]
    )


@pytest.mark.parametrize(
    "sphere_edges,other_edges",
    [
        (TRIANGLE + [(0, 3), (3, 4), (4, 0)], [(1, 9)]),  # figure-eight
        (TRIANGLE + [(3, 4), (4, 5), (5, 3)], [(0, 9)]),  # two circles
        (TRIANGLE + [(0, 3)], [(3, 9)]),  # a circle with a tail
    ],
)
def test_locate_sphere_rejects_graphs_that_are_no_circle(
    sphere_edges, other_edges
) -> None:
    k = patterned_graph(sphere_edges, other_edges)
    with pytest.raises(SphereRelocationFailedError):
        locate_sphere(k, fs(1, 2))


# -- guard rails ---------------------------------------------------------


def test_chain_needs_five_edges() -> None:
    # attach is surface surgery; collapse runs at these edge counts
    for name in ("<4>", "<6>"):
        with pytest.raises(Not2DError):
            run_chain(parse_code(name), mode="attach")
        final = run_chain(parse_code(name), mode="collapse").final
        assert homology(final).betti == betti_oracle(parse_code(name))


def test_chain_rejects_empty_space() -> None:
    with pytest.raises(NotApplicableError):
        run_chain(GeneticCode(5, []))


def test_unknown_mode() -> None:
    with pytest.raises(NotApplicableError):
        run_chain(parse_code("<15>"), mode="sideways")


def test_surgery_needs_a_surface() -> None:
    k = coxeter_complex(range(1, 6))
    with pytest.raises(Not2DError):
        surgery_2d(k, (0,), fs(2, 3, 4, 5))


def test_open_complex_fails_the_closed_audit() -> None:
    k = coxeter_complex(range(1, 5))
    top = next(c.ident for c in k if c.dim == 2)
    disk = k.materialize(k.faces_of(top) | {top})
    with pytest.raises(AuditError):
        surgery_2d(disk, tuple(sphere_cells(disk, fs(3, 4))), fs(3, 4))


def polyhedron(faces: list, pattern=lambda corners: ()):
    """The closed surface whose faces are the given cycles of corners,
    with its vertex ids; ``pattern`` gives each edge and face its pattern
    from the corners it spans."""
    k = RegularCellComplex()
    ids = {v: k.add_cell(0, ("v", v)) for v in sorted(set().union(*faces))}
    edges: dict = {}
    for face in faces:
        sides = [tuple(sorted(p)) for p in zip(face, face[1:] + face[:1])]
        for e in sides:
            if e not in edges:
                edges[e] = k.add_cell(
                    1, ("e", e), [ids[v] for v in e], pattern(e)
                )
        k.add_cell(2, ("f", face), [edges[e] for e in sides], pattern(face))
    return k.seal(), ids


# corners are coordinate strings; each face keeps one coordinate fixed
CUBE = [
    ("000", "100", "110", "010"),
    ("001", "101", "111", "011"),
    ("000", "100", "101", "001"),
    ("010", "110", "111", "011"),
    ("000", "010", "011", "001"),
    ("100", "110", "111", "101"),
]


def axis_pattern(corners) -> tuple:
    """The coordinates a cell moves along, one block each, then the fixed
    ones: the two cells of each axis at opposite corners share a pattern."""
    moving = [len({v[i] for v in corners}) > 1 for i in range(3)]
    fixed = fs(*(i + 1 for i in range(3) if not moving[i]))
    return tuple(fs(i + 1) for i in range(3) if moving[i]) + (fixed,)


def test_point_sphere_on_one_face_twice_is_not_embedded() -> None:
    k, ids = polyhedron(CUBE, axis_pattern)
    with pytest.raises(SphereNotEmbeddedError):
        surgery_2d(k, (ids["000"], ids["110"]), fs(1, 2, 3))


def test_point_sphere_joined_by_an_edge_is_not_embedded() -> None:
    k, ids = polyhedron([tuple(f) for f in ("abc", "abd", "acd", "bcd")])
    with pytest.raises(SphereNotEmbeddedError):
        surgery_2d(k, (ids["a"], ids["b"]), fs(1, 2, 3))


def test_point_surgery_pairs_the_antipodal_corners() -> None:
    k, ids = polyhedron(CUBE, axis_pattern)
    out = surgery_2d(k, (ids["000"], ids["111"]), fs(1, 2, 3))
    assert identify_small(out) == "T^2"


def test_point_surgery_refuses_an_unpartnered_pattern() -> None:
    # the x edge into corner 111 has a pattern that no edge at 000 has
    odd = {("011", "111"): (fs(1, 2, 3),)}
    k, ids = polyhedron(CUBE, lambda c: odd.get(c) or axis_pattern(c))
    with pytest.raises(AuditError):
        surgery_2d(k, (ids["000"], ids["111"]), fs(1, 2, 3))


def point_surgery_input():
    """The 2-sphere Coxeter({1..4}), its reversal involution, and the
    point sphere of the first step of ``<15>``."""
    k = coxeter_complex(range(1, 5))
    units = fs(2, 3, 4)
    return k, locate_sphere(k, units), units


def swap_partners(involution: dict, a: int, b: int) -> None:
    """Pair ``a`` with ``b``, and their old partners with each other."""
    pa, pb = involution[a], involution[b]
    involution.update({a: b, b: a, pa: pb, pb: pa})


def test_attach_refuses_a_kept_cell_paired_into_the_star() -> None:
    k, sphere, units = point_surgery_input()
    star = adjacent_cells(k, frozenset(sphere))
    edges = [c.ident for c in k if c.dim == 1]
    cut = next(e for e in edges if e in star)
    kept = next(e for e in edges if e not in star and e not in sphere)
    swap_partners(k.involution, cut, kept)
    with pytest.raises(AuditError, match="off the kept set"):
        surgery_2d(k, sphere, units)


def test_attach_refuses_facet_images_that_match_no_cell() -> None:
    # two adjacent edges swap partners: every node still has an image
    # node, but a truncated edge now goes to the node of one edge from
    # the far end of another, and no new edge has those ends
    k, sphere, units = point_surgery_input()
    inv = k.involution
    star = adjacent_cells(k, frozenset(sphere))
    edges = sorted(c.ident for c in k if c.dim == 1 and c.ident in star)
    far = {e: set(k.cells[e].facets) - set(sphere) for e in edges}
    a = edges[0]
    b = next(e for e in edges if e not in (a, inv[a]) and far[e] != far[a])
    swap_partners(inv, a, inv[b])
    with pytest.raises(AuditError, match="to no new cell"):
        surgery_2d(k, sphere, units)


# -- step loci and poset shadows -----------------------------------------


def test_step_locus_partition() -> None:
    code = parse_code("<5>")
    assert step_locus(code, {1, 5}) == canonical_partition(
        [(1,), (5,), (2, 3, 4)]
    )
    assert step_locus(parse_code("<15>"), {2, 5}) == canonical_partition(
        [(2,), (5,), (1, 3, 4)]
    )
    assert step_locus(parse_code("<25>"), {1, 2, 5}) == canonical_partition(
        [(1,), (2,), (5,), (3, 4)]
    )


def test_step_loci_lie_in_the_minimal_building_set() -> None:
    # each step cuts along a sub-collection of the minimal building set:
    # the partition whose one non-singleton block is the step's units
    steps = 0
    for m in range(3, 8):
        building = set(minimal_building_set(m))
        for code in enumerate_codes(m):
            if code.is_empty_space() or realize(code) is None:
                continue
            chain = saturated_chain(code)
            for before, added in zip(chain.codes, chain.added_sets):
                locus = step_locus(before, frozenset(added))
                assert locus in building
                units = frozenset(range(1, m)) - frozenset(added)
                wide = [b for b in locus if len(b) > 1]
                assert wide == [tuple(sorted(units))]
                steps += 1
    assert steps == 1 + 13 + 103 + 1652


# <56> and <236,56> hold the shadow benchmark's slowest isomorphism steps
@pytest.mark.parametrize(
    "name", ["<45>", "<125>", "<126>", "<56>", "<236,56>"]
)
def test_poset_shadow_of_each_step(name: str) -> None:
    # cutting the big complex along a stratum shows up in the intersection
    # poset as combinatorial surgery at that stratum's partition.
    chain = saturated_chain(parse_code(name))
    for before, after, added in zip(
        chain.codes, chain.codes[1:], chain.added_sets
    ):
        locus = step_locus(before, added)
        shadow = comb_surgery(intersection_poset(before), locus)
        target = intersection_poset(after)
        assert len(shadow) == len(target)
        iso = poset_isomorphic(shadow, target)
        assert iso is not None
        assert sorted(target.index[b] for b in iso.values()) == list(
            range(len(target))
        )
        for a in shadow:
            for b in shadow:
                assert shadow.leq(a, b) == target.leq(iso[a], iso[b])


# -- homotopy models ------------------------------------------------------


def test_model_points() -> None:
    res = model_run("<3>")
    assert res.steps == ()
    assert identify_small(res.complex) == "2 points"


def test_model_single_circle() -> None:
    res = model_run("<4>")
    assert homology(res.complex).betti == (1, 1)
    assert identify_small(res.complex) == "1 circle"


def test_model_two_circles() -> None:
    res = model_run("<14>")
    assert len(res.steps) == 1
    assert res.steps[0].units == (2, 3)
    rep = homology(res.complex)
    assert rep.betti == (2, 2)
    assert identify_small(res.complex) == "2 circles"


def test_model_matches_exact_surfaces() -> None:
    for name in ("<5>", "<15>"):
        rep = homology(model_run(name).complex)
        exact = homology(chain_run(name, "collapse").final)
        assert rep.betti == exact.betti
        assert rep.torsion == exact.torsion


def test_model_interference(monkeypatch) -> None:
    # every code past <1m> has a second chain step, refused once the first
    # sphere is located, the second never; the two builds are stubbed out
    smod = importlib.import_module("polygonspaces.surgery")
    monkeypatch.setattr(smod, "barycentric", lambda complex_: None)
    monkeypatch.setattr(smod, "_build_model", lambda *args: None)
    located = []

    def spy(*args, **kwargs):
        located.append(args[1])
        return locate_sphere(*args, **kwargs)

    monkeypatch.setattr(smod, "locate_sphere", spy)
    outcome: dict[str, list[str]] = {}
    for m in range(3, 7):
        for code in enumerate_codes(m):
            if code.is_empty_space():
                continue
            located.clear()
            try:
                run_model(code)
                kind = "built"
            except (ChainInterferenceError, NotApplicableError) as exc:
                kind = type(exc).__name__
            assert len(located) <= 1, str(code)
            outcome.setdefault(kind, []).append(str(code))
    assert sorted(outcome["built"]) == sorted(
        ["<3>", "<4>", "<14>", "<5>", "<15>", "<6>", "<16>"]
    )
    assert sorted(outcome["NotApplicableError"]) == ["<123>", "<13>", "<23>"]
    assert len(outcome["ChainInterferenceError"]) == 147
    assert {"<45>", "<125>", "<26>", "<126>"} <= set(
        outcome["ChainInterferenceError"]
    )


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_any_two_sphere_neighborhoods_meet(n: int) -> None:
    # why run_model stops at one surgery: a cell lies in the sphere of U or
    # next to it exactly when its first or last block misses U, and some
    # cell does so for any two nonempty proper unit sets
    complex_ = coxeter_complex(range(1, n + 1))
    stars = []
    for r in range(1, n):
        for block in itertools.combinations(range(1, n + 1), r):
            units = frozenset(block)
            sphere = frozenset(sphere_cells(complex_, units))
            star = sphere | adjacent_cells(complex_, sphere)
            assert star == {
                c.ident
                for c in complex_
                if not (units & c.pattern[0] and units & c.pattern[-1])
            }
            stars.append(star)
    assert all(a & b for a, b in itertools.combinations(stars, 2))


def test_model_three_sphere() -> None:
    res = model_run("<6>")
    assert res.steps == ()
    rep = homology(res.complex)
    assert rep.betti == betti_oracle(parse_code("<6>")) == (1, 0, 0, 1)
    assert not rep.has_torsion()


def reference_model(complex_, steps) -> SimplicialComplex:
    """The model built the long way: subdivide the whole complex, cut the
    bulk back out as the full subcomplex on the cells off the sphere, and
    read the frontier off the tails of the maximal flags that meet it."""

    def strict_faces(ident):
        return sorted(complex_.faces_of(ident) - {ident})

    ambient = SimplicialComplex(
        _chain_simplices(sorted(complex_.cells), strict_faces)
    )
    if not steps:
        return ambient
    (step,) = steps
    units, sphere = frozenset(step.units), frozenset(step.sphere)
    far = {v for v in ambient.vertices if v not in sphere}
    bulk = [
        f for fs in ambient.faces_by_dim.values() for f in fs if far >= set(f)
    ]
    frontier = set()
    for flag in ambient.maximal_faces():
        rest = tuple(v for v in flag if v in far)
        if rest and sphere & set(flag):
            frontier.add(rest)

    simplices = [
        tuple(("c", f) for f in ch)
        for ch in _chain_simplices(bulk, proper_faces)
    ]
    link = coxeter_complex(units)
    front = SimplicialComplex(frontier)
    gmap = {}
    for v in front.vertices:
        assert complex_.faces_of(v) & sphere, "frontier misses its sphere"
        blocks = restrict_pattern(complex_.cells[v].pattern, units)
        gmap[v] = link.by_label(("osp", blocks))
    link_chains = _chain_simplices(
        sorted(link.cells), lambda c: sorted(link.faces_of(c) - {c})
    )
    link_chain_set = set(link_chains)

    def strict_below(el):
        kind, payload = el
        if kind == "b":
            return [("b", sub) for sub in proper_faces(payload)]
        below = [("c", sub) for sub in proper_faces(payload)]
        image = tuple(sorted({gmap[v] for v in payload}))
        for sub in proper_faces(image) + [image]:
            if sub in link_chain_set:
                below.append(("b", sub))
        return below

    elements = [("c", f) for fs in front.faces_by_dim.values() for f in fs]
    elements += [("b", ch) for ch in link_chains]
    simplices.extend(_chain_simplices(elements, strict_below))
    return SimplicialComplex(simplices)


@pytest.mark.parametrize("name", ["<14>", "<5>", "<15>", "<6>"])
def test_model_matches_the_ambient_subdivision_reference(name) -> None:
    code = parse_code(name)
    result = model_run(name)
    complex_ = coxeter_complex(range(1, code.edge_count))
    reference = reference_model(complex_, result.steps)
    assert result.complex.faces_by_dim == reference.faces_by_dim


def test_model_builds_without_the_ambient_subdivision(monkeypatch) -> None:
    smod = importlib.import_module("polygonspaces.surgery")
    counted = []
    real = smod._chain_counter

    def refuse(*args):
        raise AssertionError("the whole complex was subdivided")

    def spy(elements, strict_faces, spent=0):
        count, build = real(elements, strict_faces, spent)
        counted.append(count)
        return count, build

    monkeypatch.setattr(smod, "barycentric", refuse)
    monkeypatch.setattr(smod, "_chain_counter", spy)
    assert run_model(parse_code("<15>")).complex.f_vector() == (
        408, 1224, 816,
    )
    counted.clear()
    model = run_model(parse_code("<16>")).complex
    assert model.f_vector() == (12164, 79556, 134784, 67392)
    # the parts are disjoint, so the cap counts each simplex once
    assert sum(counted) == len(model)


# 100,000 lies below the second subdivision of the <16> bulk alone, and
# 293,895 is one below the whole model's 293,896 simplices
@pytest.mark.parametrize("cap", [100_000, 293_895])
def test_model_cap_trips_before_the_second_subdivision(
    monkeypatch, cap
) -> None:
    hmod = importlib.import_module("polygonspaces.homology")
    smod = importlib.import_module("polygonspaces.surgery")
    monkeypatch.setattr(hmod, "MAX_SIMPLICES", cap)
    counted, built = [], []
    real = hmod._chain_counter

    def spy(elements, strict_faces, spent=0):
        count, build = real(elements, strict_faces, spent)
        counted.append(count)

        def spied_build():
            built.append(count)
            return build()

        return count, spied_build

    monkeypatch.setattr(smod, "_chain_counter", spy)
    with pytest.raises(TooLargeError, match="subdivision passes"):
        run_model(parse_code("<16>"))
    assert built == []
    assert sum(counted) <= cap


# -- pattern utilities ----------------------------------------------------

blocks = st.lists(
    st.frozensets(st.integers(1, 6), min_size=1), min_size=1, max_size=4
)


@given(blocks, st.frozensets(st.integers(1, 6)))
def test_restrict_pattern_drops_empty_blocks(pattern, units) -> None:
    out = restrict_pattern(tuple(pattern), units)
    assert all(b and b <= units for b in out)
    assert restrict_pattern(out, units) == out


@given(blocks, st.frozensets(st.integers(1, 6)))
def test_restrict_pattern_commutes_with_reversal(pattern, units) -> None:
    out = restrict_pattern(tuple(reversed(pattern)), units)
    assert out == tuple(reversed(restrict_pattern(tuple(pattern), units)))
