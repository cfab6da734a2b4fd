"""Exact integer homology of simplicial and regular cell complexes.

Both kinds of complex come down to the same data: their cells numbered
within each dimension, and one boundary matrix per dimension with entries
+1 and -1.  A simplex gives the face that drops vertex ``i`` the sign
``(-1)^i``.  A regular cell complex is used as it is, with no subdivision:
an edge has -1 and +1 on its two ends, and a higher cell takes its
incidence numbers from the diamond property that ``seal()`` audits, by
spreading signs over its facets across the faces of codimension two.  A
cell whose facets cannot be signed that way has a boundary that is not a
sphere, and homology fails the audit rather than answer for a complex
that is not regular.

From there one pass serves both kinds: components by union-find over the
edges, Euler characteristics from the face counts, pseudo-manifold and
orientation checks by the same sign spread over the top cells across
their ridges (:func:`_spread_signs` does both), and ranks by exact
integer elimination.  Betti numbers come from ranks, torsion from
invariant factors bigger than one.  Everything is over the integers; no
floating point is involved anywhere.

``∂_1`` is never eliminated: the union-find that counts the components
also gives a spanning forest, so its rank is vertices minus components,
every invariant factor is one, and its forest edges are its unit pivots.
Each boundary matrix above goes through greedy unit pivots on the sparse
matrix, then a dense Smith normal form on whatever small residual
remains.  A column with a single unit entry is pivoted before anything
else, since clearing it changes no other row: that is the matrix form of
a coreduction (Mrozek & Batko, "Coreduction homology algorithm", 2009).
A queue holds such columns, and every pivot that leaves a column with
one entry adds it, so runs of coreductions make no fill.

The elimination compresses as it climbs (Bauer, Kerber & Reininghaus,
"Clear and compress", 2014): the reduction of the boundary matrix in
degree ``k + 1`` leaves out every row that is a unit-pivot column of the
matrix in degree ``k``, the forest edges for ``k = 1``.  Column
operations that clear those pivot rows of ``∂_k`` (for ``∂_1``, along
paths in the forest) change the basis of the ``k``-chains; the matching
row operations on ``∂_{k+1}`` are unimodular and touch only the rows of
the pivot columns, and ``∂_k ∂_{k+1} = 0`` then forces those rows to
zero.  So rank and invariant factors stay exact over the integers, since
every pivot of the sparse phase is ±1; pivots of the dense phase are not
used.  The union-find and orientation audits still read the full
matrices.

The pass is made once per complex: a simplicial complex, or a sealed
cell complex, cannot change, so :func:`homology` and
:func:`identify_small` share its survey (counts, ranks and factors, never
matrices) through a memo keyed weakly by the complex itself.

``barycentric`` builds the order complex of a cell complex's whole face
poset, and ``_order_chains`` that of any sub-poset; the simplicial surgery
model of ``surgery.run_model`` is made of such chains, and homology never
needs them.
"""

from __future__ import annotations

import heapq
import itertools
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Callable, Container, Iterable, Optional, Sequence

from .errors import AuditError, NotApplicableError, TooLargeError
from .coxeter import Cell, RegularCellComplex, connected_components, euler
from .genetics import GeneticCode

MAX_SIMPLICES = 2_000_000


# ---------------------------------------------------------------------------
# Simplicial complexes.
# ---------------------------------------------------------------------------


class SimplicialComplex:
    """A finite simplicial complex; faces are sorted tuples of vertices.

    Vertices may be any mutually sortable hashable values.  The closure of
    the given faces is taken automatically; past ``MAX_SIMPLICES`` faces it
    is refused, before any is built if one face's closure is that big.
    """

    def __init__(self, faces: Iterable[Sequence]) -> None:
        cap = MAX_SIMPLICES
        by_dim: dict[int, set[tuple]] = {}
        stack = [tuple(sorted(f)) for f in faces]
        for f in stack:
            if len(set(f)) != len(f):
                raise AuditError(f"face {f!r} repeats a vertex")
            # k vertices close to 2^k - 1 faces
            if len(f) >= (cap + 1).bit_length():
                raise TooLargeError(
                    f"a face of {len(f)} vertices passes the cap of {cap} "
                    "simplices"
                )
        seen: set[tuple] = set()
        while stack:
            f = stack.pop()
            if f in seen or not f:
                continue
            seen.add(f)
            if len(seen) > cap:
                raise TooLargeError(f"complex passes {cap} simplices, the cap")
            d = len(f) - 1
            if d not in by_dim:
                by_dim[d] = set()
            by_dim[d].add(f)
            if len(f) > 1:
                for i in range(len(f)):
                    stack.append(f[:i] + f[i + 1 :])
        self.faces_by_dim: dict[int, tuple[tuple, ...]] = {
            d: tuple(sorted(fs)) for d, fs in sorted(by_dim.items())
        }
        self._size = len(seen)

    @property
    def dim(self) -> int:
        return max(self.faces_by_dim, default=-1)

    def __len__(self) -> int:
        return self._size

    def faces(self, dim: int) -> tuple[tuple, ...]:
        return self.faces_by_dim.get(dim, ())

    @property
    def vertices(self) -> tuple:
        return tuple(f[0] for f in self.faces(0))

    def f_vector(self) -> tuple[int, ...]:
        return tuple(
            len(self.faces_by_dim.get(d, ())) for d in range(self.dim + 1)
        )

    def euler_characteristic(self) -> int:
        return euler(self.f_vector())

    def maximal_faces(self) -> tuple[tuple, ...]:
        out = []
        for d, fs in self.faces_by_dim.items():
            above = self.faces_by_dim.get(d + 1, ())
            covered = set()
            for g in above:
                for i in range(len(g)):
                    covered.add(g[:i] + g[i + 1 :])
            out.extend(f for f in fs if f not in covered)
        return tuple(sorted(out, key=lambda f: (len(f), f)))


def proper_faces(face: tuple) -> list[tuple]:
    """Every nonempty proper sub-face of a simplex, smallest first."""
    return [
        sub
        for k in range(1, len(face))
        for sub in itertools.combinations(face, k)
    ]


def _chain_counter(
    elements: Sequence, strict_faces, spent: int = 0
) -> tuple[int, Callable[[], list[tuple]]]:
    """How many nonempty chains end at ``elements`` in a poset given by a
    strict-faces map, and a function that builds them, each lowest
    element first.  Counting uses memoised ints and builds no chain; it
    raises ``TooLargeError`` once the count plus ``spent`` passes
    ``MAX_SIMPLICES``."""
    below: dict = {}
    ending: dict = {}  # element -> number of chains ending at it

    def count(e) -> int:
        if e not in ending:
            below[e] = faces = tuple(strict_faces(e))
            ending[e] = 1 + sum(count(f) for f in faces)
        return ending[e]

    total = spent
    for e in elements:
        total += count(e)
        if total > MAX_SIMPLICES:
            raise TooLargeError(
                f"subdivision passes {MAX_SIMPLICES} simplices, the cap"
            )

    def build() -> list[tuple]:
        memo: dict = {}

        def ending_at(e) -> list[tuple]:
            got = memo.get(e)
            if got is None:
                got = memo[e] = [(e,)]
                for f in below[e]:
                    got.extend(ch + (e,) for ch in ending_at(f))
            return got

        return [ch for e in elements for ch in ending_at(e)]

    return total - spent, build


def _chain_simplices(elements: Sequence, strict_faces) -> list[tuple]:
    """All nonempty chains ending at ``elements`` (see
    :func:`_chain_counter`); none is built when there are more than
    ``MAX_SIMPLICES``."""
    return _chain_counter(elements, strict_faces)[1]()


def _order_chains(
    complex_: RegularCellComplex, keep: Iterable[int]
) -> list[tuple]:
    """The simplices of the order complex of the cells in ``keep``: every
    chain of them under the face relation, lowest cell first."""
    keep = frozenset(keep)

    def strict_faces(ident: int):
        return sorted((complex_.faces_of(ident) & keep) - {ident})

    return _chain_simplices(sorted(keep), strict_faces)


def barycentric(complex_: RegularCellComplex) -> SimplicialComplex:
    """The order complex of the face poset: one vertex per cell, one
    simplex per chain of cells under the face relation."""
    return SimplicialComplex(_order_chains(complex_, complex_.cells))


# ---------------------------------------------------------------------------
# Exact integer rank and Smith normal form.
# ---------------------------------------------------------------------------


def _dense_snf(matrix: list[list[int]]) -> list[int]:
    """Invariant factors (all of them, including ones) of a small dense
    integer matrix, by the classical reduction.

    A pivot of least absolute value clears its column by row operations,
    then its row by column operations; any remainder left is smaller than
    the pivot and becomes the next pivot.  Once both are clear, an entry
    the pivot does not divide is folded into the pivot row.  Each pivot
    that does not stand is smaller than the one before, so the reduction
    ends, and remainders nearest zero keep the entries small.  The
    factors come out in divisibility order.
    """
    mat = [row[:] for row in matrix if any(row)]
    factors: list[int] = []
    while mat:
        _, r0, c0 = min(
            (abs(v), r, c)
            for r, row in enumerate(mat)
            for c, v in enumerate(row)
            if v
        )
        while True:
            prow = mat[r0]
            p = prow[c0]
            for r, row in enumerate(mat):
                if r != r0 and row[c0]:
                    q = _nearest_quotient(row[c0], p)
                    mat[r] = [a - q * b for a, b in zip(row, prow)]
            left = [r for r, row in enumerate(mat) if r != r0 and row[c0]]
            if left:
                r0 = min(left, key=lambda r: abs(mat[r][c0]))
                continue
            # column c0 is zero off the pivot, so a column operation
            # changes the pivot row alone
            for c, v in enumerate(prow):
                if c != c0:
                    prow[c] = v - _nearest_quotient(v, p) * p
            left = [c for c, v in enumerate(prow) if c != c0 and v]
            if left:
                c0 = min(left, key=lambda c: abs(prow[c]))
                continue
            culprit = next(
                (row for row in mat if any(v % p for v in row)), None
            )
            if culprit is None:
                break
            mat[r0] = [a + b for a, b in zip(prow, culprit)]
        factors.append(abs(p))
        del mat[r0]
        for row in mat:
            del row[c0]
        mat = [row for row in mat if any(row)]
    return factors


def _nearest_quotient(a: int, b: int) -> int:
    """The integer ``q`` that makes ``a - q * b`` nearest zero."""
    return (2 * a + b) // (2 * b)


def _sparse_reduce(
    columns: Boundary, drop_rows: Container[int] = ()
) -> tuple[int, list[int], set[int]]:
    """Rank, invariant factors and unit-pivot columns of a sparse integer
    matrix given by its columns, leaving out the rows in ``drop_rows``.

    Unit entries are eliminated greedily: single-entry columns first, then
    with a Markowitz-style pivot choice; the leftover submatrix goes
    through the dense routine.  The third value holds the columns of the
    unit pivots, not those of the dense phase.
    """
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


# ---------------------------------------------------------------------------
# Chain complexes: cells by dimension and signed boundary matrices.
# ---------------------------------------------------------------------------

# A boundary matrix holds one column per cell, which maps the index of
# each facet to its incidence number, +1 or -1; cells of each dimension
# are numbered from zero.
Boundary = list[dict[int, int]]


def _boundary_entries(
    lower: tuple[tuple, ...], upper: tuple[tuple, ...]
) -> Boundary:
    """The face that drops vertex ``i`` of a simplex has sign ``(-1)^i``."""
    index = {f: i for i, f in enumerate(lower)}
    return [
        {index[g[:i] + g[i + 1 :]]: (-1) ** i for i in range(len(g))}
        for g in upper
    ]


def _spread_signs(
    columns: Sequence[dict[int, int]],
) -> tuple[list[int], dict[int, int], list[int], int]:
    """Orient cells ``0 .. n - 1`` across the faces they share.

    ``columns[t]`` maps each face of cell ``t`` to its incidence number.
    The lowest cell of each piece gets +1, and the sign then spreads
    across every face ``g`` on exactly two cells ``t, u`` so that
    ``e_t [t:g] + e_u [u:g] = 0``.  Returns the sign of every cell, each
    face on some other number of cells with that number, the cells where
    the spread met a sign it did not give, and the number of pieces.
    """
    through: dict[int, list[int]] = {}
    for t, column in enumerate(columns):
        for g in column:
            through.setdefault(g, []).append(t)
    sign = [0] * len(columns)
    conflicts: list[int] = []
    pieces = 0
    for start in range(len(columns)):
        if sign[start]:
            continue
        pieces += 1
        sign[start] = 1
        stack = [start]
        while stack:
            t = stack.pop()
            for g, s in columns[t].items():
                pair = through[g]
                if len(pair) != 2:
                    continue
                a, b = pair
                u = b if a == t else a
                want = -sign[t] * s * columns[u][g]
                if not sign[u]:
                    sign[u] = want
                    stack.append(u)
                elif sign[u] != want:
                    conflicts.append(u)
    bad = {g: len(ts) for g, ts in through.items() if len(ts) != 2}
    return sign, bad, conflicts, pieces


def _facet_signs(
    cell: Cell, incidence: dict[int, dict[int, int]]
) -> dict[int, int]:
    """Incidence numbers ``[c:f]`` of a cell of dimension at least two.

    They are the signs that :func:`_spread_signs` gives the facets across
    the faces of codimension two, each of which must lie on exactly two
    facets.  That holds for every cell of a regular complex, whose
    boundary is a sphere.  A face on some other number of facets, a sign
    conflict (a non-orientable boundary), facets in more than one piece
    (a disconnected boundary) or, for a 3-cell, a boundary whose
    V - E + F is not 2 (a torus, say) fail the audit.
    """
    signs, bad, conflicts, pieces = _spread_signs(
        [incidence[f] for f in cell.facets]
    )
    if bad:
        g, k = next(iter(bad.items()))
        raise AuditError(
            f"face {g} of {cell.label!r} lies on {k} facets, not 2"
        )
    if conflicts:
        raise AuditError(
            f"incidence signs of {cell.label!r} conflict at facet "
            f"{cell.facets[conflicts[0]]}: its boundary is not an oriented "
            "sphere"
        )
    if pieces != 1:
        raise AuditError(
            f"the facets of {cell.label!r} fall into {pieces} pieces: its "
            "boundary is not connected"
        )
    if cell.dim == 3:
        edges = set().union(*(incidence[f] for f in cell.facets))
        ends = set().union(*(incidence[e] for e in edges))
        chi = len(ends) - len(edges) + len(cell.facets)
        if chi != 2:
            raise AuditError(
                f"the boundary of {cell.label!r} has V - E + F = {chi}, "
                "not 2: it is not a sphere"
            )
    return dict(zip(cell.facets, signs))


def _cellular_chains(
    complex_: RegularCellComplex,
) -> tuple[list[int], Callable[[int], Boundary]]:
    by_dim: list[list[int]] = [[] for _ in range(complex_.dim + 1)]
    for ident in sorted(complex_.cells):
        by_dim[complex_.cells[ident].dim].append(ident)
    index = {ident: i for cells in by_dim for i, ident in enumerate(cells)}
    incidence: dict[int, dict[int, int]] = {}
    for cells in by_dim:
        for ident in cells:
            cell = complex_.cells[ident]
            if cell.dim == 0:
                incidence[ident] = {}
            elif cell.dim == 1:
                if len(cell.facets) != 2:
                    raise AuditError(f"edge {cell.label!r} lacks two ends")
                start, end = cell.facets
                incidence[ident] = {start: -1, end: 1}
            else:
                incidence[ident] = _facet_signs(cell, incidence)

    def boundary(k: int) -> Boundary:
        return [
            {index[f]: s for f, s in incidence[ident].items()}
            for ident in by_dim[k]
        ]

    return [len(cells) for cells in by_dim], boundary


def _chain_complex(
    source: "SimplicialComplex | RegularCellComplex",
) -> tuple[list[int], Callable[[int], Boundary]]:
    """Cells per dimension and the boundary matrix of each dimension
    ``k >= 1``, built on demand so that a pass need not hold them all."""
    if isinstance(source, RegularCellComplex):
        return _cellular_chains(source)
    faces = source.faces_by_dim
    return list(source.f_vector()), lambda k: _boundary_entries(
        faces[k - 1], faces[k]
    )


@dataclass
class _Survey:
    """What one pass over a chain complex finds.

    ``f_vectors`` and ``manifold`` run over the connected components.
    ``manifold[i]`` is ``None`` unless component ``i`` is a closed
    pseudo-manifold of its own dimension ``d >= 1``: every cell below
    ``d`` lies on a cell one dimension up, and every ``(d - 1)``-cell on
    exactly two ``d``-cells.  Otherwise it says whether sign propagation
    of the ``d``-cells across those ridges orients the component.
    ``ranks`` and ``factors`` are ``None`` when the pass reduced nothing.
    """

    sizes: list[int]
    f_vectors: list[list[int]]
    manifold: list[Optional[bool]]
    ranks: Optional[dict[int, int]]
    factors: Optional[dict[int, list[int]]]


# Surveys of complexes that cannot change, keyed by the complex itself
# (neither kind defines equality, so the key is its identity); an entry
# goes with its complex.
_SURVEYS: "weakref.WeakKeyDictionary[object, _Survey]" = (
    weakref.WeakKeyDictionary()
)


def _surveyed(
    source: "SimplicialComplex | RegularCellComplex", reduce: bool
) -> _Survey:
    """The survey of a nonempty complex, shared by every caller while a
    simplicial or sealed cell complex lives.  A memoised survey without
    ranks is redone with them when ``reduce`` asks for them; an unsealed
    cell complex may still grow, so it is surveyed afresh each time."""
    frozen = isinstance(source, SimplicialComplex) or source.sealed
    survey = _SURVEYS.get(source) if frozen else None
    if survey is None or (reduce and survey.ranks is None):
        survey = _survey(source, reduce)
        if frozen:
            _SURVEYS[source] = survey
    return survey


def _survey(
    source: "SimplicialComplex | RegularCellComplex", reduce: bool
) -> _Survey:
    """Components, face counts and orientations of a nonempty complex,
    plus the rank and invariant factors of every boundary matrix when
    ``reduce`` is set.

    ``∂_1`` is read off the spanning forest of the union-find.  The rows
    of each boundary matrix that the unit pivots of the one below paired
    are left out of its reduction (see the module docstring).
    """
    sizes, boundary = _chain_complex(source)
    top = len(sizes) - 1
    owner: list[list[int]] = [list(range(sizes[0]))]
    lowest_bare: dict[int, int] = {}  # component -> lowest cell with no coface
    ranks: Optional[dict[int, int]] = {} if reduce else None
    factors: Optional[dict[int, list[int]]] = {} if reduce else None
    paired: Container[int] = ()  # (k-1)-cells paired by the step below
    matrix: Boundary = []
    for k in range(1, top + 1):
        matrix = boundary(k)
        if k == 1:
            owner[0], paired = _vertex_components(sizes, matrix)
            if reduce:
                ranks[1] = len(paired)
                factors[1] = [1] * len(paired)
        elif reduce:
            ranks[k], factors[k], paired = _sparse_reduce(matrix, paired)
        below = owner[k - 1]
        above = [0] * sizes[k]
        cofaced = bytearray(sizes[k - 1])
        for c, column in enumerate(matrix):
            for r in column:
                above[c] = below[r]
                cofaced[r] = 1
        owner.append(above)
        for r, hit in enumerate(cofaced):
            if not hit:
                lowest_bare.setdefault(below[r], k - 1)

    n_components = max(owner[0]) + 1
    f_vectors = [[0] * (top + 1) for _ in range(n_components)]
    for k, cells in enumerate(owner):
        for comp in cells:
            f_vectors[comp][k] += 1
    dims = []
    for f in f_vectors:
        while not f[-1]:
            f.pop()
        dims.append(len(f) - 1)
    broken = {
        comp
        for comp, d in enumerate(dims)
        if d == 0 or lowest_bare.get(comp, d) < d
    }
    twisted: set[int] = set()
    for d in sorted(set(dims) - {0}):
        # the top cells of the components of dimension d, across their ridges
        columns = [
            column if dims[owner[d][c]] == d else {}
            for c, column in enumerate(matrix if d == top else boundary(d))
        ]
        _, bad, conflicts, _ = _spread_signs(columns)
        broken.update(owner[d - 1][r] for r in bad)
        twisted.update(owner[d][c] for c in conflicts)
    manifold = [
        None if comp in broken else comp not in twisted
        for comp in range(n_components)
    ]
    return _Survey(sizes, f_vectors, manifold, ranks, factors)


def _vertex_components(
    sizes: list[int], edges: Boundary
) -> tuple[list[int], set[int]]:
    """The component of each vertex, numbered in order of first vertex, and
    the edges of a spanning forest.  Each column of ``edges`` holds the two
    ends of its edge.

    The forest edges are the unit pivots of ``∂_1``: there are vertices
    minus components of them, every invariant factor is one, and they are
    the rows that the reduction of ``∂_2`` leaves out (see the module
    docstring)."""
    owner = [0] * sizes[0]
    comps, forest = connected_components(range(sizes[0]), edges)
    for i, comp in enumerate(comps):
        for v in comp:
            owner[v] = i
    return owner, set(forest)


# ---------------------------------------------------------------------------
# The report.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomologyReport:
    """Integer homology of a complex.

    ``betti[k]`` is the free rank of the degree-``k`` group and
    ``torsion[k]`` its invariant factors bigger than one.  ``orientable``
    is meaningful only for closed pseudo-manifolds and is ``None``
    otherwise.
    """

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    components: int
    orientable: Optional[bool]

    def __str__(self) -> str:
        parts = []
        for k, b in enumerate(self.betti):
            term = [f"Z^{b}" if b > 1 else "Z"] if b else []
            term += [f"Z/{t}" for t in self.torsion[k]]
            parts.append(f"H{k}=" + ("+".join(term) if term else "0"))
        return " ".join(parts)

    def has_torsion(self) -> bool:
        return any(self.torsion)


def homology(
    source: "SimplicialComplex | RegularCellComplex",
) -> HomologyReport:
    """Exact integer homology from the chain complex of the source.

    A simplicial complex uses its simplices; a regular cell complex uses
    its cells, with incidence numbers from the diamond property, so no
    subdivision is built.  Two audits cross-check the elimination: the
    number of components from union-find must equal ``betti[0]``, and on a
    closed pseudo-manifold sign propagation of the top cells must agree
    with the top Betti number.  A cell whose facets admit no consistent
    incidence numbers, or a 3-cell whose boundary has an Euler
    characteristic other than 2, so that the complex cannot be regular,
    fails with ``AuditError`` instead of giving a wrong answer.  Cells of
    dimension 4 and up are not counted: the boundary of a 4-cell is a
    closed 3-manifold, whose Euler characteristic is 0 whatever it is, and
    a count in higher dimensions would need the cell's whole closure.
    """
    if not len(source):
        raise NotApplicableError("the empty complex has no homology")
    survey = _surveyed(source, reduce=True)
    top = len(survey.sizes) - 1
    ranks = survey.ranks
    betti = []
    torsion = []
    for k, n_k in enumerate(survey.sizes):
        betti.append(n_k - ranks.get(k, 0) - ranks.get(k + 1, 0))
        torsion.append(
            tuple(t for t in survey.factors.get(k + 1, ()) if t > 1)
        )
    n_components = len(survey.manifold)
    if betti[0] != n_components:
        raise AuditError(
            f"union-find sees {n_components} components, homology "
            f"{betti[0]}"
        )
    # a closed pseudo-manifold: every component is one, of the top dimension
    closed = None not in survey.manifold and all(
        len(f) == top + 1 for f in survey.f_vectors
    )
    orientable = None
    if closed:
        orientable = betti[top] == n_components
        if orientable != all(survey.manifold):
            raise AuditError(
                "orientation propagation and top homology disagree"
            )
    return HomologyReport(
        tuple(betti), tuple(torsion), n_components, orientable
    )


# ---------------------------------------------------------------------------
# Expected ranks straight from a genetic code.
# ---------------------------------------------------------------------------


def betti_oracle(code: GeneticCode) -> tuple[int, ...]:
    """Predicted homology ranks of the polygon space of a genetic code.

    The rank in degree ``k`` counts short anchor sets of size ``k + 1``
    plus short anchor sets of size ``m - 2 - k``, where ``m`` is the
    number of edges.
    """
    if code.is_empty_space():
        raise NotApplicableError("the space of this code is empty")
    m = code.edge_count
    sizes = [len(s) for s in code.anchor_short_sets()]
    a = [sizes.count(k + 1) for k in range(m)]
    top = m - 3
    return tuple(a[k] + a[top - k] for k in range(max(top + 1, 1)))


# ---------------------------------------------------------------------------
# Naming small spaces.
# ---------------------------------------------------------------------------


def identify_small(
    source: "SimplicialComplex | RegularCellComplex",
) -> str:
    """Name a low-dimensional space: points, circles, or a disjoint union
    of closed surfaces; anything else is reported by Euler characteristic.

    Works on the cells of the source as given, with Euler characteristics
    from the face counts of each component and orientability from sign
    propagation across ridges, the same pass that :func:`homology` makes.
    """
    if not len(source):
        return "empty"
    survey = _surveyed(source, reduce=False)
    top = len(survey.sizes) - 1
    if top == 0:
        n = survey.sizes[0]
        return f"{n} point" + ("s" if n != 1 else "")
    if top == 1:
        if None not in survey.manifold:
            n = len(survey.manifold)
            return f"{n} circle" + ("s" if n != 1 else "")
        return f"graph(chi={euler(survey.sizes)})"
    names = sorted(
        _surface_name(f, oriented)
        for f, oriented in zip(survey.f_vectors, survey.manifold)
    )
    return " ⊔ ".join(names)


def _surface_name(f_vector: list[int], oriented: Optional[bool]) -> str:
    chi = euler(f_vector)
    if len(f_vector) != 3 or oriented is None:
        return f"complex(chi={chi})"
    if oriented:
        genus = (2 - chi) // 2
        if genus == 0:
            return "S^2"
        if genus == 1:
            return "T^2"
        return f"T_{genus}"
    return f"N_{2 - chi}"
