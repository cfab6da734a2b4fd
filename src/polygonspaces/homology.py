"""Exact integer homology of simplicial and regular cell complexes.

Both kinds of complex come down to the same data: their cells numbered
within each dimension, and one boundary matrix per dimension with entries
+1 and -1, each column keyed by the positions of its facets.  A
simplex gives the face that drops vertex ``i`` the sign ``(-1)^i``.  A
simplicial complex numbers its vertices once, in their sorted order, and
holds each dimension's faces as sorted tuples of those integer codes, so
its closure and its columns come from ``itertools.combinations`` on
small int tuples; only what it hands back to callers is decoded.  A
regular cell complex is used as it is, with no subdivision, its columns
built once, dimension by dimension: an edge has -1 and +1 on its two
ends, and a higher cell spreads signs over its facets' columns across the
faces of codimension two, which ``add_cell``'s diamond audit pairs.  A
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
Each boundary matrix above is reduced in two phases.  A column with a
single unit entry is a pivot that changes no other row: that is the
matrix form of a coreduction (Mrozek & Batko, "Coreduction homology
algorithm", 2009), and it needs no arithmetic.  Nearly every pivot is
one (63,311 of the 67,392 of ``∂_2`` on the ``<16>`` model, all of them
on Coxeter(5) and Coxeter(6)), so the first phase runs them on flat data
alone: a live-entry count per column and the columns of each row.  A
first-in, first-out queue holds the single columns; each pivot deletes
its row and queues every column it leaves with one entry, so runs of
coreductions make no fill.  Only the rows left are then built into row
and column maps, for greedy unit pivots with a Markowitz-style choice
(coreductions still first) and a dense Smith normal form on whatever
small residual remains.  The second phase's row heap starts from each
row's original length, so it picks the pivots that one loop over the
whole matrix would; the tests keep that loop as a reference.

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
used.  The union-find and the orientation audit still read the full
matrices.

The pass is made once per complex, elimination and audits included: a
simplicial complex cannot change, and a cell complex is taken only once
``seal()`` has frozen it, so :func:`homology` and
:func:`identify_small` share its survey (counts, ranks, factors and the
audited report, never matrices) through a memo keyed weakly by the
complex itself.  Whichever of the two is called first reduces.

``barycentric`` builds the order complex of a cell complex's whole face
poset, and ``_order_chains`` that of any sub-poset; the simplicial surgery
model of ``surgery.run_model`` is made of such chains, and homology never
needs them.  ``_chain_lengths`` counts such chains by length without
building any, so that a subdivision can be sized first.

Every ``AuditError`` raised here names the stage ``"homology"`` in its
``details``, with the label and identity of the cell at fault, or the
face, and the ids that fail the audit; the messages do not depend on
them.
"""

from __future__ import annotations

import heapq
import weakref
from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import (
    chain,
    combinations,
    count,
    filterfalse,
    repeat,
    zip_longest,
)
from typing import Callable, Container, Iterable, Optional, Sequence

from .errors import AuditError, NotApplicableError, TooLargeError
from .coxeter import (
    Cell,
    RegularCellComplex,
    cells_by_dimension,
    connected_components,
    euler,
)
from .genetics import GeneticCode

MAX_SIMPLICES = 2_000_000


# ---------------------------------------------------------------------------
# Simplicial complexes.
# ---------------------------------------------------------------------------


class SimplicialComplex:
    """A finite simplicial complex; faces are sorted tuples of vertices.

    Vertices may be any mutually sortable hashable values.  They are sorted
    once and numbered in that order, and the complex is held on those
    codes: each dimension's faces as sorted tuples of ints, in ascending
    order.  The numbering keeps the order, so the faces sort as their
    vertices do.  ``vertices`` and ``maximal_faces()`` give the vertices
    back.

    The closure of the given faces is taken one dimension at a time, from
    the top down.  Past ``MAX_SIMPLICES`` faces it is refused: before any
    is built if one face's closure is that big, and otherwise once the
    complex holds one face past the cap.
    """

    def __init__(self, faces: Iterable[Sequence]) -> None:
        cap = MAX_SIMPLICES
        faces = [f for f in map(tuple, faces) if f]
        vertices = tuple(sorted(set(chain.from_iterable(faces))))
        at = dict(zip(vertices, count())).__getitem__
        coded = [tuple(sorted(map(at, f))) for f in faces]
        del faces, at  # the given faces may go before the closure grows
        sizes = list(map(len, coded))
        # k vertices close to 2^k - 1 faces
        limit = (cap + 1).bit_length()
        if max(sizes, default=0) >= limit or sizes != list(
            map(len, map(frozenset, coded))
        ):
            for f, n in zip(coded, sizes):
                if len(frozenset(f)) != n:
                    face = tuple(vertices[i] for i in f)
                    twice = next(a for a, b in zip(f, f[1:]) if a == b)
                    raise AuditError(
                        f"face {face!r} repeats a vertex",
                        stage="homology",
                        face=face,
                        vertex=vertices[twice],
                    )
                if n >= limit:
                    raise TooLargeError(
                        f"a face of {n} vertices passes the cap of {cap} "
                        "simplices"
                    )
        given: dict[int, list[tuple]] = {}
        for f, n in zip(coded, sizes):
            given.setdefault(n, []).append(f)
        levels: dict[int, list[tuple]] = {}
        held = 0
        above: list[tuple] = []
        for n in range(max(given, default=0), 0, -1):
            level = set()
            held = _fill(level, given.get(n, ()), 1, held)
            held = _fill(level, above, n + 1, held)
            levels[n - 1] = above = sorted(level)
        self._faces = dict(sorted(levels.items()))
        self._vertices = vertices
        self._size = held

    def __len__(self) -> int:
        return self._size

    @property
    def vertices(self) -> tuple:
        return self._vertices

    def f_vector(self) -> tuple[int, ...]:
        return tuple(map(len, self._faces.values()))

    def euler_characteristic(self) -> int:
        return euler(self.f_vector())

    def maximal_faces(self) -> tuple[tuple, ...]:
        out: list[tuple] = []
        for d, fs in self._faces.items():
            above = self._faces.get(d + 1, ())
            covered = set(
                chain.from_iterable(map(combinations, above, repeat(d + 1)))
            )
            out.extend(filterfalse(covered.__contains__, fs))
        vertex = self._vertices.__getitem__
        return tuple(tuple(map(vertex, f)) for f in out)


def _fill(level: set, items: Sequence[tuple], width: int, held: int) -> int:
    """Add to ``level`` the faces of ``width - 1`` vertices of each of
    ``items``, or the items themselves when ``width`` is one, and return
    how many faces the complex then holds, ``held`` of them before.

    A chunk of items can add at most ``width`` faces each, so chunks are
    sized to stay within ``MAX_SIMPLICES``; once fewer than ``width``
    faces are left below it, faces go in one at a time, and the one past
    the cap is refused with ``TooLargeError``.
    """
    base = held - len(level)
    done = 0
    while done < len(items) and (MAX_SIMPLICES - held) // width:
        chunk = items[done : done + (MAX_SIMPLICES - held) // width]
        done += len(chunk)
        if width > 1:
            chunk = chain.from_iterable(
                map(combinations, chunk, repeat(width - 1))
            )
        level.update(chunk)
        held = base + len(level)
    for item in items[done:]:
        for f in combinations(item, width - 1) if width > 1 else (item,):
            level.add(f)
            if base + len(level) > MAX_SIMPLICES:
                raise TooLargeError(
                    f"complex passes {MAX_SIMPLICES} simplices, the cap"
                )
    return base + len(level)


def proper_faces(face: tuple) -> list[tuple]:
    """Every nonempty proper sub-face of a simplex, smallest first."""
    return [
        sub
        for k in range(1, len(face))
        for sub in combinations(face, k)
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
    ending: dict = {}  # element -> chains ending at it, faces first
    total = spent
    for e in elements:
        total += _count_ending(e, strict_faces, below, ending)
        _check_subdivision(total)

    def build() -> list[tuple]:
        memo: dict = {}
        for e in ending:
            got = memo[e] = [(e,)]
            for f in below[e]:
                got.extend(ch + (e,) for ch in memo[f])
        return [ch for e in elements for ch in memo[e]]

    return total - spent, build


def _count_ending(e, strict_faces, below: dict, ending: dict) -> int:
    """The number of chains ending at ``e``, memoised in ``ending`` after
    those of its strict faces, which are kept in ``below``."""
    if e not in ending:
        below[e] = faces = tuple(strict_faces(e))
        ending[e] = 1 + sum(
            _count_ending(f, strict_faces, below, ending) for f in faces
        )
    return ending[e]


def _check_subdivision(total: int) -> None:
    """Refuse a subdivision of ``total`` simplices past ``MAX_SIMPLICES``."""
    if total > MAX_SIMPLICES:
        raise TooLargeError(
            f"subdivision passes {MAX_SIMPLICES} simplices, the cap"
        )


def _chain_lengths(
    complex_: RegularCellComplex, keep: Iterable[int]
) -> list[int]:
    """How many chains of the cells in ``keep`` under the face relation
    there are of each length: entry ``j`` counts the chains of ``j + 1``
    cells.  The counts are memoised per top cell, lowest dimension first;
    no chain is built."""
    keep = frozenset(keep)
    ending: dict[int, list[int]] = {}
    for ident in sorted(keep, key=lambda c: complex_.cells[c].dim):
        below = [ending[f] for f in complex_.faces_of(ident) & keep
                 if f != ident]
        ending[ident] = [1, *map(sum, zip_longest(*below, fillvalue=0))]
    return list(map(sum, zip_longest(*ending.values(), fillvalue=0)))


def _order_chains(
    complex_: RegularCellComplex, keep: Iterable[int]
) -> list[tuple]:
    """The simplices of the order complex of the cells in ``keep``: every
    chain of them under the face relation, lowest cell first.  None is
    built when there are more than ``MAX_SIMPLICES``."""
    keep = frozenset(keep)

    def strict_faces(ident: int):
        return sorted((complex_.faces_of(ident) & keep) - {ident})

    return _chain_counter(sorted(keep), strict_faces)[1]()


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

    Two phases.  The first pivots single-entry unit columns (coreductions)
    on flat data: a live-entry count per column and the columns of each
    row, from a first-in, first-out queue; such a pivot deletes its row
    and updates no other, so it needs no arithmetic.  Once the queue is
    empty, the rows left are built into row and column maps, and unit
    entries are eliminated greedily with a Markowitz-style pivot choice,
    coreductions still first; the leftover submatrix goes through the
    dense routine.  The third value holds the columns of the unit pivots,
    not those of the dense phase.
    """
    count = [0] * len(columns)
    row_cols: defaultdict[int, list[int]] = defaultdict(list)
    for c, column in enumerate(columns):
        n = 0
        for r, v in column.items():
            if v and r not in drop_rows:
                row_cols[r].append(c)
                n += 1
        count[c] = n
    rank = 0
    pivots: set[int] = set()
    # A column with a single unit entry is a pivot that updates no other
    # row, so it makes no fill (a coreduction).  Such columns wait in a
    # first-in, first-out queue, seeded here and joined by every column
    # that clearing a pivot row leaves with one entry; the queue drains
    # before each pop from the row heap.  (Last-in, first-out leaves more
    # for the heap: 55,623 fill entries on Coxeter(7) against none.)  A
    # single column's last live row is found by scanning the column
    # itself, which for a simplex of dimension k holds k + 1 entries.
    single = deque(c for c, n in enumerate(count) if n == 1)
    while single:
        c0 = single.popleft()
        if count[c0] != 1:
            continue  # stale: the column has changed since it joined
        for r0, v0 in columns[c0].items():
            if v0 and r0 in row_cols:
                break
        if v0 not in (1, -1):
            continue
        for c in row_cols.pop(r0):
            count[c] -= 1
            if count[c] == 1:
                single.append(c)
        rank += 1
        pivots.add(c0)
    # The rows left, as row and column maps.  The heap holds rows by
    # length, shortest first, lazily: stale lengths are re-pushed instead
    # of decrease-keyed, so it starts from each row's original length, as
    # if it had been seeded before the coreductions.  Within a row the
    # unit entry of the shortest column wins.
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for r, cs in row_cols.items():
        rows[r] = {c: columns[c][r] for c in cs}
        for c in cs:
            cols.setdefault(c, set()).add(r)
    heap = [(len(cs), r) for r, cs in row_cols.items()]
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
    lower: Sequence[tuple], upper: Sequence[tuple]
) -> Boundary:
    """The columns of the simplices ``upper`` over their facets in
    ``lower``, both sorted tuples of vertex codes.  The face that drops
    vertex ``i`` of a simplex has sign ``(-1)^i``; ``combinations`` drops
    the last vertex first, so for ``k + 1`` vertices the signs run from
    ``(-1)^k`` up to the one of the face that drops vertex 0."""
    k = len(upper[0]) - 1
    at = dict(zip(lower, count())).__getitem__
    signs = tuple((-1) ** (k - j) for j in range(k + 1))
    return [dict(zip(map(at, combinations(g, k)), signs)) for g in upper]


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
    cell: Cell, rows: list[int], columns: list[Boundary]
) -> dict[int, int]:
    """Incidence numbers ``[c:f]`` of a cell of dimension at least two,
    keyed by the positions ``rows`` of its facets in ``columns[dim - 1]``.

    They are the signs that :func:`_spread_signs` gives the facets across
    the faces of codimension two, each on exactly two facets by
    ``add_cell``'s diamond audit.  A sign conflict (a non-orientable
    boundary), facets in more than one piece (a disconnected boundary) or,
    for a 3-cell, a boundary whose V - E + F is not 2 (a torus, say) fail
    the audit.
    """
    below = columns[cell.dim - 1]
    signs, _, conflicts, pieces = _spread_signs([below[r] for r in rows])
    at = {"stage": "homology", "label": cell.label, "cell": cell.ident}
    if conflicts:
        facet = cell.facets[conflicts[0]]
        raise AuditError(
            f"incidence signs of {cell.label!r} conflict at facet "
            f"{facet}: its boundary is not an oriented sphere",
            **at, facet=facet,
        )
    if pieces != 1:
        raise AuditError(
            f"the facets of {cell.label!r} fall into {pieces} pieces: its "
            "boundary is not connected",
            **at, facets=tuple(cell.facets), pieces=pieces,
        )
    if cell.dim == 3:
        edges = set().union(*(below[r] for r in rows))
        ends = set().union(*(columns[1][e] for e in edges))
        chi = len(ends) - len(edges) + len(rows)
        if chi != 2:
            raise AuditError(
                f"the boundary of {cell.label!r} has V - E + F = {chi}, "
                "not 2: it is not a sphere",
                **at, facets=tuple(cell.facets), euler=chi,
            )
    return dict(zip(rows, signs))


def _cellular_chains(
    complex_: RegularCellComplex,
) -> tuple[list[int], Callable[[int], Boundary]]:
    """Cells per dimension and the boundary columns of a sealed complex,
    each built once, a dimension before the one above it."""
    by_dim = cells_by_dimension(complex_.cells)
    index = {c.ident: i for cells in by_dim for i, c in enumerate(cells)}
    columns: list[Boundary] = []
    for cells in by_dim:
        columns.append([])
        for cell in cells:
            rows = [index[f] for f in cell.facets]
            if cell.dim >= 2:
                columns[-1].append(_facet_signs(cell, rows, columns))
            else:  # a vertex has no facets, an edge -1 and +1 on its ends
                columns[-1].append(dict(zip(rows, (-1, 1))))
    return [len(cells) for cells in by_dim], columns.__getitem__


def _chain_complex(
    source: "SimplicialComplex | RegularCellComplex",
) -> tuple[list[int], Callable[[int], Boundary]]:
    """Cells per dimension and the boundary matrix of each dimension
    ``k >= 1``; a simplicial one is built on demand, so that a pass need
    not hold them all."""
    if isinstance(source, RegularCellComplex):
        return _cellular_chains(source)
    faces = source._faces
    return list(source.f_vector()), lambda k: _boundary_entries(
        faces[k - 1], faces[k]
    )


# ---------------------------------------------------------------------------
# The survey and its report.
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


@dataclass
class _Survey:
    """What one pass over a chain complex finds.

    ``f_vectors`` and ``manifold`` run over the connected components.
    ``manifold[i]`` is ``None`` unless component ``i`` is a closed
    pseudo-manifold of its own dimension ``d >= 1``: every cell below
    ``d`` lies on a cell one dimension up, and every ``(d - 1)``-cell on
    exactly two ``d``-cells.  Otherwise it says whether sign propagation
    of the ``d``-cells across those ridges orients the component.
    ``ranks`` and ``factors`` hold the rank and invariant factors of each
    boundary matrix, and ``report`` the homology they give, audited
    against the orientations.
    """

    sizes: list[int]
    f_vectors: list[list[int]]
    manifold: list[Optional[bool]]
    ranks: dict[int, int]
    factors: dict[int, list[int]]
    report: HomologyReport


# Surveys of complexes that cannot change, keyed by the complex itself
# (neither kind defines equality, so the key is its identity); an entry
# goes with its complex.
_SURVEYS: "weakref.WeakKeyDictionary[object, _Survey]" = (
    weakref.WeakKeyDictionary()
)


def _surveyed(source: "SimplicialComplex | RegularCellComplex") -> _Survey:
    """The survey of a nonempty complex, shared by every caller while the
    complex lives.  A cell complex must be sealed: an unsealed one may
    still grow, and its survey could not be memoised."""
    if isinstance(source, RegularCellComplex) and not source.sealed:
        raise AuditError(
            "homology takes a sealed cell complex",
            stage="homology", size=len(source),
        )
    survey = _SURVEYS.get(source)
    if survey is None:
        survey = _SURVEYS[source] = _survey(source)
    return survey


def _survey(source: "SimplicialComplex | RegularCellComplex") -> _Survey:
    """Components, face counts and orientations of a nonempty complex,
    the rank and invariant factors of every boundary matrix, and the
    homology they give once it passes the audit that :func:`homology`
    names.

    ``∂_1`` is read off the spanning forest of the union-find.  The rows
    of each boundary matrix that the unit pivots of the one below paired
    are left out of its reduction (see the module docstring).
    """
    sizes, boundary = _chain_complex(source)
    top = len(sizes) - 1
    owner: list[list[int]] = [list(range(sizes[0]))]
    lowest_bare: dict[int, int] = {}  # component -> lowest cell with no coface
    ranks: dict[int, int] = {}
    factors: dict[int, list[int]] = {}
    paired: Container[int] = ()  # (k-1)-cells paired by the step below
    matrix: Boundary = []
    for k in range(1, top + 1):
        matrix = boundary(k)
        if k == 1:
            comps, forest = connected_components(range(sizes[0]), matrix)
            for i, comp in enumerate(comps):
                for v in comp:
                    owner[0][v] = i
            paired = set(forest)
            ranks[1], factors[1] = len(paired), [1] * len(paired)
        else:
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

    betti = [n - ranks.get(k, 0) - ranks.get(k + 1, 0)
             for k, n in enumerate(sizes)]
    torsion = [tuple(t for t in factors.get(k + 1, ()) if t > 1)
               for k in range(top + 1)]
    # a closed pseudo-manifold: every component is one, of the top dimension
    orientable = None
    if None not in manifold and all(len(f) == top + 1 for f in f_vectors):
        orientable = betti[top] == n_components
        if orientable != all(manifold):
            raise AuditError(
                "orientation propagation and top homology disagree",
                stage="homology", dim=top, betti=betti[top],
                components=n_components, twisted=tuple(sorted(twisted)),
            )
    report = HomologyReport(
        tuple(betti), tuple(torsion), n_components, orientable
    )
    return _Survey(sizes, f_vectors, manifold, ranks, factors, report)


def homology(
    source: "SimplicialComplex | RegularCellComplex",
) -> HomologyReport:
    """Exact integer homology from the chain complex of the source.

    A simplicial complex uses its simplices; a sealed regular cell complex
    uses its cells, with incidence numbers from the diamond property, so no
    subdivision is built.  An unsealed cell complex with cells fails with
    ``AuditError``.  One audit cross-checks the elimination: on a closed
    pseudo-manifold sign propagation of the top cells must agree with the
    top Betti number.  ``betti[0]`` needs none, since ``∂_1``'s rank is
    the size of the union-find's spanning forest, vertices minus
    components.  A cell whose facets admit no consistent incidence
    numbers, or a 3-cell whose boundary has an Euler
    characteristic other than 2, so that the complex cannot be regular,
    fails with ``AuditError`` instead of giving a wrong answer.  Cells of
    dimension 4 and up are not counted: the boundary of a 4-cell is a
    closed 3-manifold, whose Euler characteristic is 0 whatever it is, and
    a count in higher dimensions would need the cell's whole closure.
    The first call of this function or of :func:`identify_small` on a
    complex makes the audit; later calls read the memoised report.
    """
    if not len(source):
        raise NotApplicableError("the empty complex has no homology")
    return _surveyed(source).report


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
    propagation across ridges, from the survey that :func:`homology`
    reports: a name is given only once its elimination has passed the
    orientation audit.  A cell complex must be sealed, as for
    :func:`homology`.
    """
    if not len(source):
        return "empty"
    survey = _surveyed(source)
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
