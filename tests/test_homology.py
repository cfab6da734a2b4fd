"""Homology engine: surfaces with known groups, and sympy's Smith normal
form of the boundary matrices as an independent oracle."""

import functools
import gc
import heapq
import importlib
import itertools
import json
import pathlib
import random
import weakref
from collections import deque
from typing import Container

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
    _chain_counter,
    _dense_snf,
    _sparse_reduce,
    _survey,
    barycentric,
    betti_oracle,
    homology,
    identify_small,
    proper_faces,
)
from polygonspaces.surgery import locate_sphere, run_model
from test_surgery import chain_run, faces_by_dim


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
    assert not any(rep.torsion)
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
    assert not any(rep.torsion)
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
    # an empty cell complex needs no seal() to be empty
    for empty in (SimplicialComplex([]), RegularCellComplex()):
        with pytest.raises(NotApplicableError):
            homology(empty)
        assert identify_small(empty) == "empty"


# -- sympy oracle ----------------------------------------------------------


def signed_boundary(sc: SimplicialComplex, k: int) -> list[list[int]]:
    """The dense matrix of ``∂_k`` on the faces as ``sc`` gives them back,
    with sign (-1)^i on the face that drops vertex i."""
    faces = faces_by_dim(sc)
    row = {f: r for r, f in enumerate(faces.get(k - 1, ()))}
    mat = [[0] * len(faces.get(k, ())) for _ in row]
    for c, g in enumerate(faces.get(k, ())):
        for i in range(len(g)):
            mat[row[g[:i] + g[i + 1 :]]][c] = (-1) ** i
    return mat


def sympy_homology(sc: SimplicialComplex) -> tuple[tuple, tuple]:
    """Betti numbers and torsion from sympy's Smith normal form of the
    boundary matrices, with sign (-1)^i on the face that drops vertex i."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    f_vector = sc.f_vector()
    invariants = {}
    for k in range(1, len(f_vector)):
        snf = smith_normal_form(Matrix(signed_boundary(sc, k)), domain=ZZ)
        invariants[k] = [
            abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i]
        ]
    betti = tuple(
        n
        - len(invariants.get(k, ()))
        - len(invariants.get(k + 1, ()))
        for k, n in enumerate(f_vector)
    )
    torsion = tuple(
        tuple(t for t in invariants.get(k + 1, ()) if t > 1)
        for k in range(len(f_vector))
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


@pytest.mark.parametrize(
    "faces", list(SYMPY_FIXTURES.values()), ids=list(SYMPY_FIXTURES)
)
def test_boundary_columns_match_the_signed_matrix(faces) -> None:
    assert_signed_columns(SimplicialComplex(faces[0]))


def assert_signed_columns(sc: SimplicialComplex) -> None:
    """The columns that homology reads off the vertex codes are the
    ``(-1)^i`` matrices of the faces that ``sc`` gives back."""
    sizes, boundary = _chain_complex(sc)
    for k in range(1, len(sc.f_vector())):
        dense = [[0] * sizes[k] for _ in range(sizes[k - 1])]
        for c, column in enumerate(boundary(k)):
            for r, v in column.items():
                dense[r][c] = v
        assert dense == signed_boundary(sc, k)


class StackWalkComplex:
    """The closure as it was taken on the vertices themselves: a stack
    walk over the faces, each face sorted, with a set of the faces seen.
    A reference for the complex held on integer vertex codes."""

    def __init__(self, faces) -> None:
        by_dim: dict[int, set[tuple]] = {}
        stack = [tuple(sorted(f)) for f in faces]
        for f in stack:
            if len(set(f)) != len(f):
                raise AuditError(f"face {f!r} repeats a vertex")
        seen: set[tuple] = set()
        while stack:
            f = stack.pop()
            if f in seen or not f:
                continue
            seen.add(f)
            by_dim.setdefault(len(f) - 1, set()).add(f)
            if len(f) > 1:
                for i in range(len(f)):
                    stack.append(f[:i] + f[i + 1 :])
        self.faces_by_dim = {
            d: tuple(sorted(fs)) for d, fs in sorted(by_dim.items())
        }
        self.size = len(seen)

    @property
    def vertices(self) -> tuple:
        return tuple(f[0] for f in self.faces_by_dim.get(0, ()))

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(fs) for fs in self.faces_by_dim.values())

    def maximal_faces(self) -> tuple[tuple, ...]:
        out = []
        for d, fs in self.faces_by_dim.items():
            covered = {
                g[:i] + g[i + 1 :]
                for g in self.faces_by_dim.get(d + 1, ())
                for i in range(len(g))
            }
            out.extend(f for f in fs if f not in covered)
        return tuple(sorted(out, key=lambda f: (len(f), f)))


VERTEX_KINDS = {
    "ints": lambda i: 7 * i % 11,
    "strings": lambda i: f"v{i}",
    "nested": lambda i: ("c", (i % 3, i)),
}


@pytest.mark.parametrize("kind", list(VERTEX_KINDS))
@pytest.mark.parametrize("seed", range(6))
def test_coded_complex_matches_the_stack_walk(kind, seed) -> None:
    rng = random.Random(seed)
    vertex = VERTEX_KINDS[kind]
    pool = [vertex(i) for i in range(rng.randint(3, 10))]
    faces = [
        rng.sample(pool, rng.randint(1, min(5, len(pool))))
        for _ in range(rng.randint(1, 12))
    ]
    sc, ref = SimplicialComplex(faces), StackWalkComplex(faces)
    assert faces_by_dim(sc) == ref.faces_by_dim
    assert sc.vertices == ref.vertices
    assert sc.f_vector() == ref.f_vector()
    assert sc.maximal_faces() == ref.maximal_faces()
    assert len(sc) == ref.size
    assert_signed_columns(sc)
    # a vertex repeated anywhere is refused with the same message
    bad = rng.choice(faces)
    bad = bad + [rng.choice(bad)]
    rng.shuffle(bad)
    faces.insert(rng.randint(0, len(faces)), bad)
    with pytest.raises(AuditError) as coded:
        SimplicialComplex(faces)
    with pytest.raises(AuditError) as walked:
        StackWalkComplex(faces)
    assert str(coded.value) == str(walked.value)


@pytest.mark.parametrize("faces", [[], [()], [(3,), (), (1, 3)]])
def test_coded_complex_skips_empty_faces(faces) -> None:
    sc, ref = SimplicialComplex(faces), StackWalkComplex(faces)
    assert faces_by_dim(sc) == ref.faces_by_dim
    assert (sc.vertices, len(sc)) == (ref.vertices, ref.size)
    assert sc.maximal_faces() == ref.maximal_faces()


def subdivide(sc: SimplicialComplex) -> SimplicialComplex:
    """Barycentric subdivision: one vertex per face of ``sc``."""
    faces = [f for fs in faces_by_dim(sc).values() for f in fs]
    return SimplicialComplex(_chain_counter(faces, proper_faces)[1]())


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


def reference_sparse_reduce(
    columns: list[dict[int, int]], drop_rows: Container[int] = ()
) -> tuple[int, list[int], set[int]]:
    """``_sparse_reduce`` in one phase: row and column maps of every
    entry are built first, and the coreductions run in the same loop as
    the Markowitz pivots.  The two must give the same rank, factors and
    unit-pivot columns."""
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for c, column in enumerate(columns):
        for r, v in column.items():
            if v and r not in drop_rows:
                rows.setdefault(r, {})[c] = v
                cols.setdefault(c, set()).add(r)
    rank = 0
    pivots: set[int] = set()
    # A column with a single unit entry is a pivot that updates no other
    # row, so it makes no fill (a coreduction).  Such columns wait in a
    # first-in, first-out queue, seeded here and joined by every column
    # that clearing a pivot row leaves with one entry; the queue drains
    # before each pop from the row heap.  (Last-in, first-out leaves more
    # for the heap: 55,623 fill entries on Coxeter(7) against none.)  The
    # heap holds rows by length, shortest first, lazily: stale lengths are
    # re-pushed instead of decrease-keyed.  Within a row the unit entry of
    # the shortest column wins.
    single = deque(c for c, rs in cols.items() if len(rs) == 1)
    heap = [(len(row), r) for r, row in rows.items()]
    heapq.heapify(heap)
    while single or heap:
        if single:
            c0 = single.popleft()
            rs = cols.get(c0)
            if rs is None or len(rs) != 1:
                continue  # stale: the column has changed since it joined
            (r0,) = rs
            if rows[r0][c0] not in (1, -1):
                continue
        else:
            length, r0 = heapq.heappop(heap)
            row0 = rows.get(r0)
            if row0 is None:
                continue
            if len(row0) != length:
                heapq.heappush(heap, (len(row0), r0))
                continue
            c0 = None
            best = None
            for c, v in row0.items():
                if v in (1, -1):
                    size = len(cols[c])
                    if best is None or size < best:
                        best = size
                        c0 = c
            if c0 is None:
                continue  # no unit entry; the dense remainder picks it up
        prow = rows.pop(r0)
        v0 = prow[c0]
        for c in prow:
            rs = cols[c]
            rs.discard(r0)
            if len(rs) == 1:
                single.append(c)
            elif not rs:
                del cols[c]
        for r in list(cols.get(c0, ())):
            row = rows[r]
            q = row[c0] * v0  # v0 is +-1, so this is the exact quotient
            for c, v in prow.items():
                new = row.get(c, 0) - q * v
                if new:
                    if c not in row:
                        cols.setdefault(c, set()).add(r)
                    row[c] = new
                else:
                    if c in row:
                        del row[c]
                        cols[c].discard(r)
                        if not cols[c]:
                            del cols[c]
            if row:
                heapq.heappush(heap, (len(row), r))
            else:
                del rows[r]
        rank += 1
        pivots.add(c0)
    factors = [1] * rank
    if rows:
        live_rows = sorted(r for r, row in rows.items() if row)
        live_cols = sorted({c for row in rows.values() for c in row})
        ci = {c: i for i, c in enumerate(live_cols)}
        dense = [[0] * len(live_cols) for _ in live_rows]
        for i, r in enumerate(live_rows):
            for c, v in rows[r].items():
                dense[i][ci[c]] = v
        rest = _dense_snf(dense)
        rank += len(rest)
        factors.extend(rest)
    return rank, factors, pivots


def single_draw(rng: random.Random) -> list[dict[int, int]]:
    """Sparse columns with explicit zero entries and single-entry
    columns of ±1 and ±2: a single of ±2 is no pivot, and a zero entry
    is no entry, so neither may be counted as a live one."""
    nr, nc = rng.randint(4, 14), rng.randint(4, 14)
    columns = []
    for _ in range(nc):
        if rng.random() < 0.4:
            column = {rng.randrange(nr): rng.choice((-2, -1, 1, 2))}
        else:
            column = {
                r: rng.choice((-1, 1, 1, -1, 2, 0))
                for r in rng.sample(range(nr), rng.randint(1, min(nr, 4)))
            }
        for r in rng.sample(range(nr), rng.randint(0, 2)):
            column.setdefault(r, 0)
        columns.append(column)
    return columns


def assert_same_reduction(columns, drop_rows=()) -> None:
    got = _sparse_reduce(columns, drop_rows)
    assert got == reference_sparse_reduce(columns, drop_rows)


def test_sparse_reduce_matches_the_one_phase_reference() -> None:
    rng = random.Random(40)
    draws = [
        [{r: row[c] for r, row in enumerate(mat) if row[c]}
         for c in range(len(mat[0]))]
        for mat in (sparse_draw(rng) for _ in range(150))
    ]
    draws += [single_draw(rng) for _ in range(300)]
    for columns in draws:
        assert_same_reduction(columns)
        rows = sorted({r for column in columns for r in column})
        drop = set(rng.sample(rows, rng.randint(0, len(rows) // 2)))
        assert_same_reduction(columns, drop)
    # a ±2 single is skipped, so its row waits for the heap
    assert_same_reduction([{0: 2}, {0: 1, 1: 1}, {1: 1, 2: 2}])
    assert _sparse_reduce([{0: 2}, {0: 0, 1: 0}]) == (1, [2], set())


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
        return list(chain_run(name, mode, bool(projective)).complexes)
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
        survey = _survey(complex_)
        dropped = 0
        for k in range(1, len(sizes)):
            matrix = boundary(k)
            rank, factors, _ = _sparse_reduce(matrix)
            if k == 1:
                _, forest = connected_components(range(sizes[0]), matrix)
                paired = set(forest)
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


@pytest.mark.parametrize("case", COMPRESSION_CASES)
def test_sparse_reduce_matches_the_reference_on_boundaries(case) -> None:
    # each boundary matrix with the rows that the survey drops from it
    for complex_ in compression_complexes(case):
        sizes, boundary = _chain_complex(complex_)
        for k in range(1, len(sizes)):
            matrix = boundary(k)
            if k == 1:
                assert_same_reduction(matrix)
                paired = set(connected_components(range(sizes[0]), matrix)[1])
                continue
            got = _sparse_reduce(matrix, paired)
            assert got == reference_sparse_reduce(matrix, paired)
            paired = got[2]


def forest_complexes(case: str) -> list:
    """The disconnected complexes of one forest case."""
    if case == "run <125> collapse":
        return list(chain_run("<125>", "collapse").complexes)
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
        comps, forest = connected_components(range(sizes[0]), edges)
        components = len(comps)
        assert len(forest) == sizes[0] - components
        # the forest edges alone join the vertices into the same pieces
        pieces, _ = connected_components(
            range(sizes[0]), [edges[e] for e in forest]
        )
        assert len(pieces) == components
        survey = _survey(complex_)
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


def test_naming_first_builds_one_chain_complex(monkeypatch) -> None:
    built = count_chain_complexes(monkeypatch)
    space = SimplicialComplex(grid_surface(4, True))
    assert identify_small(space) == "N_2"
    assert str(homology(space)) == "H0=Z H1=Z+Z/2 H2=0"
    assert identify_small(space) == "N_2"
    assert str(homology(space)) == "H0=Z H1=Z+Z/2 H2=0"
    assert len(built) == 1


def test_naming_is_audited_against_the_elimination(monkeypatch) -> None:
    # an elimination one rank short on ∂2 leaves an RP^2 with a free top
    # class, so the name must not stand on orientation propagation alone
    mod = importlib.import_module("polygonspaces.homology")
    space = short_by_one_rank(monkeypatch)
    with pytest.raises(AuditError, match="orientation propagation"):
        identify_small(space)
    assert space not in mod._SURVEYS


@pytest.mark.parametrize("measure", [homology, identify_small])
def test_unsealed_cell_complex_is_refused(measure) -> None:
    mod = importlib.import_module("polygonspaces.homology")
    loop = unsealed_loop()
    with pytest.raises(AuditError, match="sealed cell complex"):
        measure(loop)
    assert loop not in mod._SURVEYS
    loop.seal()
    assert str(homology(loop)) == "H0=Z H1=Z"
    assert identify_small(loop) == "1 circle"


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
    monkeypatch.setattr(mod, "_chain_counter", refuse)
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
    assert not any(rep.torsion)
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
    2-cells, so the diamond audit of ``add_cell`` passes, but the boundary
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
    with pytest.raises(AuditError, match="not connected"):
        homology(two_sphere_ball())


TORUS_BALL = pathlib.Path(__file__).parent / "fixtures" / "torus_ball.json"


def torus_ball() -> RegularCellComplex:
    """The collapse torus of ``<15>`` (f = 18, 42, 24) and one 3-cell on
    all 24 of its faces, read from a cell dump.  Every edge lies on two of
    those faces, on one connected, oriented boundary, so ``add_cell`` and
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


def two_sphere_ball() -> RegularCellComplex:
    """Two copies of the 2-sphere Coxeter(4) and one 3-cell bounded by all
    their 2-cells: every edge lies on two of them, so add_cell takes it."""
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
    return out.seal()


def unsealed_loop() -> RegularCellComplex:
    loop = RegularCellComplex()
    a, b, c = (loop.add_cell(0, (v,)) for v in "abc")
    loop.add_cell(1, ("ab",), [a, b])
    loop.add_cell(1, ("bc",), [b, c])
    loop.add_cell(1, ("ac",), [a, c])
    return loop


def short_by_one_rank(monkeypatch) -> RegularCellComplex:
    """RP^2 as the projective Coxeter(4) complex, with an elimination one
    rank short on ∂2: a free top class that orientation propagation
    refutes."""
    mod = importlib.import_module("polygonspaces.homology")
    original = mod._sparse_reduce

    def short(columns, drop_rows=()):
        rank, factors, pivots = original(columns, drop_rows)
        return rank - 1, factors[:-1], pivots

    monkeypatch.setattr(mod, "_sparse_reduce", short)
    return projective_quotient(ca(4))[0]


# every refusal of homology's audits: what is refused, the message and
# the details past the stage
HOMOLOGY_REFUSALS = {
    "repeated vertex": (
        lambda mp: SimplicialComplex([(0, 1), (2, 0, 2)]),
        "face (0, 2, 2) repeats a vertex",
        {"face": (0, 2, 2), "vertex": 2},
    ),
    "sign conflict": (
        lambda mp: homology(cone_on_projective_plane()),
        "incidence signs of ('cone', 'rp2') conflict at facet 32: its "
        "boundary is not an oriented sphere",
        {"label": ("cone", "rp2"), "cell": 37, "facet": 32},
    ),
    "disconnected boundary": (
        lambda mp: homology(two_sphere_ball()),
        "the facets of ('ball', 'two spheres') fall into 2 pieces: its "
        "boundary is not connected",
        {
            "label": ("ball", "two spheres"),
            "cell": 148,
            "facets": tuple(range(50, 74)) + tuple(range(124, 148)),
            "pieces": 2,
        },
    ),
    "torus boundary": (
        lambda mp: homology(torus_ball()),
        "the boundary of ('c', 84) has V - E + F = 0, not 2: it is not a "
        "sphere",
        {
            "label": ("c", 84),
            "cell": 84,
            "facets": tuple(range(48, 72)),
            "euler": 0,
        },
    ),
    "unsealed complex": (
        lambda mp: homology(unsealed_loop()),
        "homology takes a sealed cell complex",
        {"size": 6},
    ),
    "orientation disagreement": (
        lambda mp: homology(short_by_one_rank(mp)),
        "orientation propagation and top homology disagree",
        {"dim": 2, "betti": 1, "components": 1, "twisted": (0,)},
    ),
}


@pytest.mark.parametrize("name", list(HOMOLOGY_REFUSALS))
def test_homology_refusal_names_its_stage_and_ids(name, monkeypatch) -> None:
    refuse, message, at = HOMOLOGY_REFUSALS[name]
    with pytest.raises(AuditError) as raised:
        refuse(monkeypatch)
    assert str(raised.value) == message
    assert raised.value.details == {"stage": "homology", **at}


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
    filled: list[set] = []

    class CountingSet(set):
        def add(self, item) -> None:
            super().add(item)
            self.counted()

        def update(self, *items) -> None:
            super().update(*items)
            self.counted()

        def counted(self) -> None:
            if not any(s is self for s in filled):
                filled.append(self)
            largest[0] = max(largest[0], sum(map(len, filled)))

    # the closure fills one set per dimension, by add or by update; the
    # most faces they ever hold together is the number of faces it built
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
        _chain_counter(range(15), below)
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
