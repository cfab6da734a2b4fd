"""Homology engine: surfaces with known groups, and sympy's Smith normal
form of the boundary matrices as an independent oracle."""

import functools
import gc
import importlib
import itertools
import json
import pathlib
import random
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polygonspaces.coxeter import (
    RegularCellComplex,
    connected_components,
    coxeter_complex,
    projective_quotient,
)
from polygonspaces.errors import AuditError, NotApplicableError, TooLargeError
from polygonspaces.genetics import parse_code
from polygonspaces.homology import (
    HomologyReport,
    SimplicialComplex,
    _chain_complex,
    _chain_simplices,
    _dense_snf,
    _sparse_reduce,
    _survey,
    _vertex_components,
    barycentric,
    betti_oracle,
    homology,
    identify_small,
    proper_faces,
)
from polygonspaces.surgery import locate_sphere, run_chain, run_model


@functools.cache
def ca(n: int):
    return coxeter_complex(range(1, n + 1))


@pytest.fixture(autouse=True)
def fresh_surveys():
    """Empty the survey memo before each test, so that a complex shared
    through ``ca`` is surveyed again and no test reads another's survey."""
    importlib.import_module("polygonspaces.homology")._SURVEYS.clear()


def grid_surface(n: int, flip: bool, tag: str = "v") -> list[tuple]:
    """Triangulated torus (flip=False) or Klein bottle (flip=True)."""

    def v(i: int, j: int) -> tuple:
        j %= n
        if i >= n:
            i -= n
            if flip:
                j = (n - j) % n
        return (tag, i, j)

    faces = []
    for i in range(n):
        for j in range(n):
            a, b = v(i, j), v(i + 1, j)
            c, d = v(i, j + 1), v(i + 1, j + 1)
            faces.append((a, b, d))
            faces.append((a, d, c))
    return faces


def sphere_faces() -> list[tuple]:
    return [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


RP2_FACES = [
    (1, 2, 3),
    (1, 2, 4),
    (1, 3, 5),
    (1, 4, 6),
    (1, 5, 6),
    (2, 3, 6),
    (2, 4, 5),
    (2, 5, 6),
    (3, 4, 5),
    (3, 4, 6),
]


def genus2_faces() -> list[tuple]:
    """The double of a one-hole torus: two grid tori glued along the
    boundary of one removed triangle."""
    a_faces = grid_surface(3, False, "a")
    b_faces = grid_surface(3, False, "b")
    removed_a = a_faces.pop(0)
    removed_b = b_faces.pop(0)
    rename = dict(zip(removed_b, removed_a))
    return a_faces + [
        tuple(rename.get(v, v) for v in f) for f in b_faces
    ]


# -- named spaces --------------------------------------------------------


def test_sphere() -> None:
    rep = homology(SimplicialComplex(sphere_faces()))
    assert rep.betti == (1, 0, 1)
    assert rep.torsion == ((), (), ())
    assert rep.components == 1
    assert rep.orientable is True


def test_solid_simplex_is_trivial() -> None:
    rep = homology(SimplicialComplex([(0, 1, 2, 3)]))
    assert rep.betti == (1, 0, 0, 0)
    assert rep.orientable is None


def test_torus() -> None:
    rep = homology(SimplicialComplex(grid_surface(3, False)))
    assert rep.betti == (1, 2, 1)
    assert not rep.has_torsion()
    assert rep.orientable is True


def test_klein_bottle() -> None:
    rep = homology(SimplicialComplex(grid_surface(4, True)))
    assert rep.betti == (1, 1, 0)
    assert rep.torsion == ((), (2,), ())
    assert rep.orientable is False


def test_projective_plane() -> None:
    sc = SimplicialComplex(RP2_FACES)
    assert sc.f_vector() == (6, 15, 10)
    rep = homology(sc)
    assert rep.betti == (1, 0, 0)
    assert rep.torsion == ((), (2,), ())
    assert rep.orientable is False
    assert str(rep) == "H0=Z H1=Z/2 H2=0"


def test_genus_two() -> None:
    sc = SimplicialComplex(genus2_faces())
    assert sc.euler_characteristic() == -2
    rep = homology(sc)
    assert rep.betti == (1, 4, 1)
    assert not rep.has_torsion()
    assert rep.orientable is True


def test_two_tori() -> None:
    faces = grid_surface(3, False, "a") + grid_surface(3, False, "b")
    rep = homology(SimplicialComplex(faces))
    assert rep.betti == (2, 4, 2)
    assert rep.components == 2
    assert rep.orientable is True


def test_circle_and_wedge() -> None:
    rep = homology(SimplicialComplex([(0, 1), (1, 2), (0, 2)]))
    assert rep.betti == (1, 1)
    wedge = SimplicialComplex(
        [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)]
    )
    assert homology(wedge).betti == (1, 2)


def test_empty_complex_rejected() -> None:
    with pytest.raises(NotApplicableError):
        homology(SimplicialComplex([]))


# -- sympy oracle ----------------------------------------------------------


def sympy_homology(sc: SimplicialComplex) -> tuple[tuple, tuple]:
    """Betti numbers and torsion from sympy's Smith normal form of the
    boundary matrices, with sign (-1)^i on the face that drops vertex i."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    invariants = {}
    for k in range(1, sc.dim + 1):
        row = {f: r for r, f in enumerate(sc.faces(k - 1))}
        mat = [[0] * len(sc.faces(k)) for _ in row]
        for c, g in enumerate(sc.faces(k)):
            for i in range(len(g)):
                mat[row[g[:i] + g[i + 1 :]]][c] = (-1) ** i
        snf = smith_normal_form(Matrix(mat), domain=ZZ)
        invariants[k] = [
            abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i]
        ]
    betti = tuple(
        len(sc.faces(k))
        - len(invariants.get(k, ()))
        - len(invariants.get(k + 1, ()))
        for k in range(sc.dim + 1)
    )
    torsion = tuple(
        tuple(t for t in invariants.get(k + 1, ()) if t > 1)
        for k in range(sc.dim + 1)
    )
    return betti, torsion


MOBIUS_FACES = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1)]

SYMPY_FIXTURES = {
    "sphere": (sphere_faces(), True),
    "torus": (grid_surface(3, False), True),
    "rp2": (RP2_FACES, False),
    "genus2": (genus2_faces(), True),
    # free faces: a boundary, or a face outside every top simplex
    "simplex": ([(0, 1, 2, 3)], None),
    "mobius": (MOBIUS_FACES, None),
    "whisker": (grid_surface(3, False) + [(("v", 0, 0), ("w", 0, 0))], None),
}


@pytest.mark.parametrize(
    "faces,orientable",
    list(SYMPY_FIXTURES.values()),
    ids=list(SYMPY_FIXTURES),
)
def test_homology_matches_sympy_smith_form(faces, orientable) -> None:
    sc = SimplicialComplex(faces)
    rep = homology(sc)
    assert (rep.betti, rep.torsion) == sympy_homology(sc)
    assert rep.orientable is orientable


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.sets(st.integers(0, 6), min_size=1, max_size=7),
        min_size=1,
        max_size=10,
    )
)
@example(RP2_FACES)  # 6 vertices, Z/2 in degree one
def test_random_complexes_match_sympy_smith_form(faces) -> None:
    sc = SimplicialComplex(faces)
    rep = homology(sc)
    assert (rep.betti, rep.torsion) == sympy_homology(sc)


def subdivide(sc: SimplicialComplex) -> SimplicialComplex:
    """Barycentric subdivision: one vertex per face of ``sc``."""
    faces = [f for fs in sc.faces_by_dim.values() for f in fs]
    return SimplicialComplex(_chain_simplices(faces, proper_faces))


def test_subdivision_invariance() -> None:
    torus = SimplicialComplex(grid_surface(3, False))
    once = subdivide(torus)
    assert homology(once).betti == (1, 2, 1)
    rp2 = SimplicialComplex(RP2_FACES)
    assert homology(subdivide(rp2)).torsion == ((), (2,), ())


def sparse_draw(rng: random.Random) -> list[list[int]]:
    """A random sparse integer matrix that runs every phase of
    ``_sparse_reduce``: long rows that carry single-entry unit columns (the
    queue), a mostly-unit body (the row heap), and rows of even entries
    that unit pivots cannot clear (the dense routine)."""
    nr, nc = rng.randint(10, 20), rng.randint(10, 20)
    mat = [
        [rng.choice((-1, 1, 1, -2, 3)) if rng.random() < 0.25 else 0
         for _ in range(nc)]
        for _ in range(nr)
    ]
    mat += [
        [rng.choice((-2, 2, 4, 6)) if rng.random() < 0.5 else 0
         for _ in range(nc)]
        for _ in range(3)
    ]
    for r in rng.sample(range(nr), 3):
        mat[r] = [v or rng.choice((-1, 1)) for v in mat[r]]
        for _ in range(rng.randint(1, 3)):
            for i, row in enumerate(mat):
                row.append(rng.choice((-1, 1)) if i == r else 0)
    return mat


def test_smith_normal_form_against_sympy(monkeypatch) -> None:
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    mod = importlib.import_module("polygonspaces.homology")
    dense_shapes = []

    def dense_snf(matrix):
        dense_shapes.append((len(matrix), len(matrix[0])))
        return _dense_snf(matrix)

    monkeypatch.setattr(mod, "_dense_snf", dense_snf)
    rng = random.Random(7)
    draws = []
    for _ in range(25):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        draws.append([
            [rng.randint(-4, 4) if rng.random() < 0.7 else 0 for _ in range(nc)]
            for _ in range(nr)
        ])
    draws += [sparse_draw(rng) for _ in range(15)]
    for mat in draws:
        nr, nc = len(mat), len(mat[0])
        columns = [
            {r: row[c] for r, row in enumerate(mat) if row[c]}
            for c in range(nc)
        ]
        rank, factors, _ = _sparse_reduce(columns)
        ref = smith_normal_form(Matrix(mat), domain=ZZ)
        ref_diag = sorted(
            abs(ref[i, i])
            for i in range(min(nr, nc))
            if ref[i, i] != 0
        )
        assert sorted(factors) == ref_diag
        assert rank == len(ref_diag)
    assert any(rows > 1 and cols > 1 for rows, cols in dense_shapes)


def test_dense_snf_pinned_cases() -> None:
    assert _dense_snf([[2]]) == [2]
    assert _dense_snf([[2, 4], [6, 8]]) == [2, 4]
    assert _dense_snf([[0, 0], [0, 0]]) == []
    assert _dense_snf([[1, 0], [0, 6]]) == [1, 6]
    # a residual of the sparse draws above, whose entries grew past 20,000
    # bits under floor remainders and alternating row and column passes
    residual = [
        [3, -37, 3, 10, -34, -3, 8],
        [0, 0, 0, 0, 3, 0, 0],
        [21, -112, -10, 25, -97, -8, 61],
        [4, 172, 10, -36, 176, 12, -62],
        [30, -236, -74, 28, -180, -6, 176],
        [42, -276, 2, 76, -266, -22, 136],
    ]
    assert _dense_snf(residual) == [1, 1, 1, 2, 2, 12]  # sympy's form


# -- complexes from the cell layer ----------------------------------------


def test_coxeter_homology() -> None:
    assert homology(ca(3)).betti == (1, 1)
    assert homology(ca(4)).betti == (1, 0, 1)
    rp2, _ = projective_quotient(ca(4))
    rep = homology(rp2)
    assert rep.betti == (1, 0, 0)
    assert rep.torsion == ((), (2,), ())
    rp3, _ = projective_quotient(ca(5))
    rep3 = homology(rp3)
    assert rep3.betti == (1, 0, 0, 1)
    assert rep3.torsion == ((), (2,), (), ())
    assert rep3.orientable is True


def oracle_complexes(case: str) -> list:
    """The cell complexes of one oracle case (see the parametrization)."""
    kind, _, rest = case.partition(" ")
    if kind == "coxeter":
        sphere = ca(int(rest))
        return [sphere, projective_quotient(sphere)[0]]
    if kind == "run":
        name, mode, *projective = rest.split()
        trace = run_chain(
            parse_code(name), mode=mode, projective=bool(projective)
        )
        return list(trace.complexes)
    # the spheres that locate_sphere materializes for its homology audit:
    # every pair of units on Coxeter(5), as the m = 6 models use them, and
    # one pair and one triple on Coxeter(6), as m = 7 would
    n, size = map(int, rest.split())
    ground = ca(n)
    units = itertools.combinations(range(1, n + 1), size)
    return [
        ground.materialize(locate_sphere(ground, frozenset(u)))
        for u in itertools.islice(units, None if n == 5 else 1)
    ]


ORACLE_CASES = [f"coxeter {n}" for n in range(2, 6)] + [
    f"run {name} {mode}{projective}"
    for name in ("<5>", "<15>", "<25>", "<35>", "<45>", "<125>")
    for mode in ("attach", "collapse")
    for projective in ("", " projective")
] + ["spheres 5 2", "spheres 6 2", "spheres 6 3"]


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_cellular_homology_matches_barycentric(case) -> None:
    # the barycentric subdivision of a regular complex is homeomorphic to
    # it, so its simplicial homology and names are an independent oracle
    for complex_ in oracle_complexes(case):
        subdivided = barycentric(complex_)
        assert homology(complex_) == homology(subdivided)
        assert identify_small(complex_) == identify_small(subdivided)


def compression_complexes(case: str) -> list:
    """The complexes of one compression case (see the parametrization)."""
    kind, _, rest = case.partition(" ")
    if kind == "model":
        return [run_model(parse_code(rest)).complex]
    if kind == "sympy":
        return [SimplicialComplex(SYMPY_FIXTURES[rest][0])]
    return oracle_complexes(case)


COMPRESSION_CASES = (
    [f"coxeter {n}" for n in range(2, 6)]
    + [f"run <45> {mode} projective" for mode in ("attach", "collapse")]
    + ["model <6>"]
    + [f"sympy {name}" for name in SYMPY_FIXTURES]
)


@pytest.mark.parametrize("case", COMPRESSION_CASES)
def test_compressed_reduction_matches_the_full_matrix(case) -> None:
    # leaving out the rows that the survey drops (the spanning forest for
    # ∂2, the unit pivots of the reduction one degree down above that)
    # keeps the rank and every invariant factor, torsion included
    for complex_ in compression_complexes(case):
        sizes, boundary = _chain_complex(complex_)
        survey = _survey(complex_, reduce=True)
        dropped = 0
        for k in range(1, len(sizes)):
            matrix = boundary(k)
            rank, factors, _ = _sparse_reduce(matrix)
            if k == 1:
                _, paired = _vertex_components(sizes, matrix)
                got = len(paired), [1] * len(paired)
            else:
                dropped += len(paired)
                got = _sparse_reduce(matrix, paired)
                paired = got[2]
            assert got[0] == rank == survey.ranks[k]
            assert sorted(got[1]) == sorted(factors) == sorted(
                survey.factors[k]
            )
        assert dropped or len(sizes) < 3


def forest_complexes(case: str) -> list:
    """The disconnected complexes of one forest case."""
    if case == "run <125> collapse":
        return list(run_chain(parse_code("<125>"), mode="collapse").complexes)
    if case == "circle and wedge":
        return [SimplicialComplex(
            [(0, 1), (1, 2), (0, 2)]
            + [(10, 11), (11, 12), (10, 12), (10, 13), (13, 14), (10, 14)]
        )]
    # a vertex on no edge, beside a torus and beside a circle of two edges
    lone = RegularCellComplex()
    a, b = lone.add_cell(0, ("v", "a")), lone.add_cell(0, ("v", "b"))
    lone.add_cell(1, ("e", 1), (a, b))
    lone.add_cell(1, ("e", 2), (a, b))
    lone.add_cell(0, ("v", "lone"))
    return [
        SimplicialComplex(grid_surface(3, False) + [(("lone", 0, 0),)]),
        lone.seal(),
    ]


@pytest.mark.parametrize(
    "case", ["run <125> collapse", "circle and wedge", "isolated vertex"]
)
def test_forest_rank_is_vertices_minus_components(case) -> None:
    complexes = forest_complexes(case)
    for complex_ in complexes:
        sizes, boundary = _chain_complex(complex_)
        edges = boundary(1)
        owner, forest = _vertex_components(sizes, edges)
        components = max(owner) + 1
        assert len(forest) == sizes[0] - components
        # the forest edges alone join the vertices into the same pieces
        pieces, _ = connected_components(
            range(sizes[0]), [edges[e] for e in forest]
        )
        assert len(pieces) == components
        survey = _survey(complex_, reduce=True)
        assert survey.ranks[1] == len(forest) == _sparse_reduce(edges)[0]
        assert survey.factors[1] == [1] * len(forest)
        assert homology(complex_).components == components
    # every case ends in two pieces: <125> is T^2 ⊔ T^2
    assert homology(complexes[-1]).components == 2


def count_chain_complexes(monkeypatch) -> list:
    """Record each complex whose chain complex homology builds."""
    mod = importlib.import_module("polygonspaces.homology")
    built = []
    original = mod._chain_complex

    def counted(source):
        built.append(source)
        return original(source)

    monkeypatch.setattr(mod, "_chain_complex", counted)
    return built


@pytest.mark.parametrize(
    "make",
    [
        lambda: SimplicialComplex(RP2_FACES),
        lambda: projective_quotient(ca(4))[0],
    ],
    ids=["simplicial", "sealed cells"],
)
def test_name_reuses_the_homology_survey(make, monkeypatch) -> None:
    built = count_chain_complexes(monkeypatch)
    space = make()
    rep = homology(space)
    assert identify_small(space) == "N_1"
    assert homology(space) == rep
    assert str(rep) == "H0=Z H1=Z/2 H2=0"
    assert len(built) == 1


def test_survey_without_ranks_gains_them_once(monkeypatch) -> None:
    built = count_chain_complexes(monkeypatch)
    space = SimplicialComplex(grid_surface(4, True))
    assert identify_small(space) == "N_2"
    assert str(homology(space)) == "H0=Z H1=Z+Z/2 H2=0"
    assert identify_small(space) == "N_2"
    assert str(homology(space)) == "H0=Z H1=Z+Z/2 H2=0"
    assert len(built) == 2


def test_unsealed_complex_is_surveyed_afresh() -> None:
    mod = importlib.import_module("polygonspaces.homology")
    loop = RegularCellComplex()
    a, b, c = (loop.add_cell(0, (v,)) for v in "abc")
    edges = [
        loop.add_cell(1, ("ab",), [a, b]),
        loop.add_cell(1, ("bc",), [b, c]),
        loop.add_cell(1, ("ac",), [a, c]),
    ]
    assert str(homology(loop)) == "H0=Z H1=Z"
    assert identify_small(loop) == "1 circle"
    loop.add_cell(2, ("disk",), edges)
    assert str(homology(loop)) == "H0=Z H1=0 H2=0"
    assert identify_small(loop) == "complex(chi=1)"
    assert loop not in mod._SURVEYS


def test_survey_memo_lets_go_of_a_dead_complex() -> None:
    mod = importlib.import_module("polygonspaces.homology")
    gc.collect()
    before = len(mod._SURVEYS)
    space = SimplicialComplex(sphere_faces())
    homology(space)
    assert space in mod._SURVEYS
    assert len(mod._SURVEYS) == before + 1
    alive = weakref.ref(space)
    del space
    gc.collect()
    assert alive() is None
    assert len(mod._SURVEYS) == before


def test_cell_homology_builds_no_subdivision(monkeypatch) -> None:
    mod = importlib.import_module("polygonspaces.homology")
    built = count_chain_complexes(monkeypatch)

    def refuse(*args):
        raise AssertionError("subdivision built")

    monkeypatch.setattr(mod, "barycentric", refuse)
    monkeypatch.setattr(mod, "_chain_simplices", refuse)
    assert str(homology(ca(5))) == "H0=Z H1=0 H2=0 H3=Z"
    assert identify_small(projective_quotient(ca(4))[0]) == "N_1"
    assert len(built) == 2


@pytest.mark.parametrize("n", [6, 7])
def test_large_coxeter_spheres_and_projective_spaces(n) -> None:
    # out of reach through the subdivision: Coxeter(7) passes the
    # 2,000,000-simplex cap
    d = n - 2
    sphere = coxeter_complex(range(1, n + 1))
    rep = homology(sphere)
    assert rep.betti == (1,) + (0,) * (d - 1) + (1,)
    assert not rep.has_torsion()
    assert rep.orientable is True
    quotient, _ = projective_quotient(sphere)
    rep = homology(quotient)
    assert rep.betti == (1,) + (0,) * (d - 1) + (d % 2,)
    assert rep.torsion == tuple(
        (2,) if k % 2 and k < d else () for k in range(d + 1)
    )
    assert rep.orientable is (d % 2 == 1)


def cone_on_projective_plane() -> RegularCellComplex:
    """The 2-cells of the projective Coxeter(4) complex plus one 3-cell
    whose facets are all of them.  Every edge lies on exactly two of those
    2-cells, so the diamond audit of ``seal()`` passes, but the boundary
    of the 3-cell is RP^2, not a sphere: the complex is not regular."""
    rp2, _ = projective_quotient(ca(4))
    out = RegularCellComplex()
    for cell in sorted(rp2, key=lambda c: (c.dim, c.ident)):
        out.add_cell(cell.dim, cell.label, cell.facets, ident=cell.ident)
    out.add_cell(3, ("cone", "rp2"), [c.ident for c in rp2 if c.dim == 2])
    return out.seal()


def test_non_regular_cell_fails_the_audit() -> None:
    cone = cone_on_projective_plane()
    assert cone.f_vector() == (7, 18, 12, 1)
    with pytest.raises(AuditError, match="not an oriented sphere"):
        homology(cone)
    with pytest.raises(AuditError):
        identify_small(cone)


def test_cell_bounded_by_two_spheres_fails_the_audit() -> None:
    # two copies of the 2-sphere Coxeter(4) and one 3-cell bounded by all
    # their 2-cells: every edge lies on two of them, so seal() passes
    sphere = ca(4)
    out = RegularCellComplex()
    tops = []
    for copy in range(2):
        shift = copy * len(sphere)
        for cell in sorted(sphere, key=lambda c: (c.dim, c.ident)):
            out.add_cell(
                cell.dim,
                (copy, cell.label),
                [f + shift for f in cell.facets],
                ident=cell.ident + shift,
            )
            if cell.dim == 2:
                tops.append(cell.ident + shift)
    out.add_cell(3, ("ball", "two spheres"), tops)
    with pytest.raises(AuditError, match="not connected"):
        homology(out.seal())


TORUS_BALL = pathlib.Path(__file__).parent / "fixtures" / "torus_ball.json"


def torus_ball() -> RegularCellComplex:
    """The collapse torus of ``<15>`` (f = 18, 42, 24) and one 3-cell on
    all 24 of its faces, read from a cell dump.  Every edge lies on two of
    those faces, on one connected, oriented boundary, so ``seal()`` and
    the sign spread pass; only the count V - E + F = 0 shows that the
    boundary of the 3-cell is a torus, not a sphere."""
    cells = json.loads(TORUS_BALL.read_text())["cells"]
    out = RegularCellComplex()
    for k, cell in sorted(enumerate(cells), key=lambda kc: kc[1]["dim"]):
        out.add_cell(cell["dim"], ("c", k), cell["facets"], ident=k)
    return out.seal()


def test_cell_bounded_by_a_torus_fails_the_audit() -> None:
    ball = torus_ball()
    assert ball.f_vector() == (18, 42, 24, 1)
    torus = homology(ball.materialize(c.ident for c in ball if c.dim == 2))
    assert (torus.betti, torus.orientable) == ((1, 2, 1), True)
    with pytest.raises(AuditError, match="V - E \\+ F = 0, not 2"):
        homology(ball)
    with pytest.raises(AuditError):
        identify_small(ball)


def test_face_on_three_facets_fails_the_audit_unsealed() -> None:
    # a 2-cell on three edges between the same two vertices; without
    # seal() only the homology audit sees each vertex lie on three facets
    k = RegularCellComplex()
    a = k.add_cell(0, ("v", "a"))
    b = k.add_cell(0, ("v", "b"))
    edges = [k.add_cell(1, ("e", i), (a, b)) for i in range(3)]
    k.add_cell(2, ("f", "theta"), edges)
    with pytest.raises(AuditError, match="lies on 3 facets"):
        homology(k)


def test_barycentric_sizes() -> None:
    sd = barycentric(ca(4))
    assert sd.f_vector() == (74, 216, 144)
    assert homology(sd).betti == (1, 0, 1)


# -- structure helpers -----------------------------------------------------


def test_maximal_faces_and_subcomplex() -> None:
    sc = SimplicialComplex([(0, 1, 2), (2, 3)])
    assert sc.maximal_faces() == ((2, 3), (0, 1, 2))


def test_simplex_count_cap(monkeypatch) -> None:
    # the package re-exports the homology() function under the module's
    # name, so fetch the module itself for patching
    mod = importlib.import_module("polygonspaces.homology")

    monkeypatch.setattr(mod, "MAX_SIMPLICES", 10)
    with pytest.raises(TooLargeError):
        SimplicialComplex(grid_surface(3, False))
    with pytest.raises(TooLargeError):
        barycentric(ca(4))


def test_simplex_cap_stops_the_closure_early(monkeypatch) -> None:
    mod = importlib.import_module("polygonspaces.homology")
    monkeypatch.setattr(mod, "MAX_SIMPLICES", 50)
    largest = [0]

    class CountingSet(set):
        def add(self, item) -> None:
            super().add(item)
            largest[0] = max(largest[0], len(self))

    # the largest set the closure fills is the number of faces it built
    monkeypatch.setattr(mod, "set", CountingSet, raising=False)
    # 2^6 - 1 = 63 faces: refused before any is built
    with pytest.raises(TooLargeError, match="a face of 6 vertices"):
        SimplicialComplex([range(6)])
    assert largest == [0]
    # 40 triangles of 7 faces each, every one under the cap on its own
    triangles = [(3 * k, 3 * k + 1, 3 * k + 2) for k in range(40)]
    with pytest.raises(TooLargeError, match="passes 50 simplices"):
        SimplicialComplex(triangles)
    assert largest == [51]
    # 2^5 - 1 = 31 faces fit
    assert len(SimplicialComplex([range(5)])) == 31


def test_chain_builder_stops_at_the_cap(monkeypatch) -> None:
    # the chains of a 15-element total order number 2^15 - 1 = 32,767;
    # the cap trips before the top elements are ever expanded
    mod = importlib.import_module("polygonspaces.homology")
    monkeypatch.setattr(mod, "MAX_SIMPLICES", 1000)
    expanded = []

    def below(e):
        expanded.append(e)
        return range(e)

    with pytest.raises(TooLargeError):
        _chain_simplices(range(15), below)
    assert 14 not in expanded


def test_face_with_repeated_vertex_rejected() -> None:
    with pytest.raises(AuditError):
        SimplicialComplex([(0, 0, 1)])


# -- rank oracle from genetic codes ----------------------------------------


@pytest.mark.parametrize(
    "text,m,expected",
    [
        ("<3>", 3, (2,)),
        ("<4>", 4, (1, 1)),
        ("<14>", 4, (2, 2)),
        ("<5>", 5, (1, 0, 1)),
        ("<15>", 5, (1, 2, 1)),
        ("<25>", 5, (1, 4, 1)),
        ("<35>", 5, (1, 6, 1)),
        ("<45>", 5, (1, 8, 1)),
        ("<125>", 5, (2, 4, 2)),
        ("<6>", 6, (1, 0, 0, 1)),
        ("<16>", 6, (1, 1, 1, 1)),
    ],
)
def test_betti_oracle(text: str, m: int, expected: tuple) -> None:
    assert betti_oracle(parse_code(text, m)) == expected


def test_betti_oracle_rejects_empty_space() -> None:
    with pytest.raises(NotApplicableError):
        betti_oracle(parse_code("<>", 4))


# -- naming ---------------------------------------------------------------


def test_identify_small() -> None:
    assert identify_small(SimplicialComplex(sphere_faces())) == "S^2"
    assert identify_small(SimplicialComplex(grid_surface(3, False))) == "T^2"
    assert identify_small(SimplicialComplex(grid_surface(4, True))) == "N_2"
    assert identify_small(SimplicialComplex(RP2_FACES)) == "N_1"
    assert identify_small(SimplicialComplex(genus2_faces())) == "T_2"
    two = grid_surface(3, False, "a") + grid_surface(3, False, "b")
    assert identify_small(SimplicialComplex(two)) == "T^2 ⊔ T^2"
    assert identify_small(SimplicialComplex([(0, 1), (1, 2), (0, 2)])) == (
        "1 circle"
    )
    assert identify_small(
        SimplicialComplex([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    ) == "2 circles"
    assert identify_small(SimplicialComplex([(0,), (1,)])) == "2 points"
    assert identify_small(SimplicialComplex([(0, 1, 2)])) == "complex(chi=1)"
    rp2_cell, _ = projective_quotient(ca(4))
    assert identify_small(rp2_cell) == "N_1"


def test_oracle_rank_vectors_look_like_surfaces_at_five_edges() -> None:
    # every realizable five-edge code has a surface rank vector: the middle
    # rank is even and the outer ranks agree
    for text in ["<5>", "<15>", "<25>", "<35>", "<45>", "<125>"]:
        ranks = betti_oracle(parse_code(text, 5))
        assert len(ranks) == 3
        assert ranks[0] == ranks[2]
        assert ranks[1] % 2 == 0
