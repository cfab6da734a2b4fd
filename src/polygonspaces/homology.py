"""Exact integer homology of simplicial and regular cell complexes.

The engine runs exact integer elimination on the simplicial boundary
matrices: greedy unit pivots on a sparse representation first, then a
dense Smith normal form on whatever small residual remains.  Betti
numbers come from ranks, torsion from invariant factors bigger than one.
Everything is over the integers; no floating point is involved anywhere.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import AuditError, NotApplicableError, TooLargeError
from .coxeter import RegularCellComplex, connected_components
from .genetics import GeneticCode

MAX_SIMPLICES = 2_000_000


# ---------------------------------------------------------------------------
# Simplicial complexes.
# ---------------------------------------------------------------------------


class SimplicialComplex:
    """A finite simplicial complex; faces are sorted tuples of vertices.

    Vertices may be any mutually sortable hashable values.  The closure of
    the given faces is taken automatically.
    """

    def __init__(self, faces: Iterable[Sequence]) -> None:
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
        if len(seen) > MAX_SIMPLICES:
            raise TooLargeError(
                f"complex has {len(seen)} simplices, cap {MAX_SIMPLICES}"
            )
        self.faces_by_dim: dict[int, tuple[tuple, ...]] = {
            d: tuple(sorted(fs)) for d, fs in sorted(by_dim.items())
        }
        self._face_set = seen

    @property
    def dim(self) -> int:
        return max(self.faces_by_dim, default=-1)

    def __len__(self) -> int:
        return len(self._face_set)

    def __contains__(self, face: Sequence) -> bool:
        return tuple(sorted(face)) in self._face_set

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
        return sum((-1) ** d * k for d, k in enumerate(self.f_vector()))

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

    def full_subcomplex(self, keep: Iterable) -> "SimplicialComplex":
        keep_set = set(keep)
        return SimplicialComplex(
            f
            for f in self._face_set
            if all(v in keep_set for v in f)
        )


def proper_faces(face: tuple) -> list[tuple]:
    """Every nonempty proper sub-face of a simplex, smallest first."""
    return [
        sub
        for k in range(1, len(face))
        for sub in itertools.combinations(face, k)
    ]


def _chain_simplices(elements, strict_faces) -> list[tuple]:
    """All nonempty chains of a poset given by a strict-faces map; raises
    ``TooLargeError`` as soon as more than ``MAX_SIMPLICES`` are built."""
    memo: dict = {}
    built = 0

    def ending_at(e) -> list[tuple]:
        nonlocal built
        got = memo.get(e)
        if got is None:
            got = [(e,)]
            for f in strict_faces(e):
                got.extend(ch + (e,) for ch in ending_at(f))
            built += len(got)
            if built > MAX_SIMPLICES:
                raise TooLargeError(
                    f"subdivision passes {MAX_SIMPLICES} simplices, the cap"
                )
            memo[e] = got
        return got

    out: list[tuple] = []
    for e in elements:
        out.extend(ending_at(e))
    return out


def barycentric(complex_: RegularCellComplex) -> SimplicialComplex:
    """The order complex of the face poset: one vertex per cell, one
    simplex per chain of cells under the face relation."""
    cells = complex_.cells

    def strict_faces(ident: int):
        return sorted(complex_.faces_of(ident) - {ident})

    return SimplicialComplex(_chain_simplices(sorted(cells), strict_faces))


def subdivide(sc: SimplicialComplex) -> SimplicialComplex:
    """Barycentric subdivision of a simplicial complex; vertices of the
    result are the faces of the input."""
    all_faces = [f for d in sc.faces_by_dim.values() for f in d]
    return SimplicialComplex(_chain_simplices(all_faces, proper_faces))


# ---------------------------------------------------------------------------
# Exact integer rank and Smith normal form.
# ---------------------------------------------------------------------------


def _dense_snf(matrix: list[list[int]]) -> list[int]:
    """Invariant factors (all of them, including ones) of a small dense
    integer matrix, by the classical reduction."""
    mat = [row[:] for row in matrix]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    factors: list[int] = []
    top = 0
    while True:
        pivot = None
        best = None
        for r in range(top, nrows):
            for c in range(top, ncols):
                v = abs(mat[r][c])
                if v and (best is None or v < best):
                    best = v
                    pivot = (r, c)
        if pivot is None:
            break
        r0, c0 = pivot
        mat[top], mat[r0] = mat[r0], mat[top]
        for row in mat:
            row[c0], row[top] = row[top], row[c0]
        while True:
            dirty = False
            for r in range(top + 1, nrows):
                q = mat[r][top] // mat[top][top]
                if q:
                    for c in range(top, ncols):
                        mat[r][c] -= q * mat[top][c]
                if mat[r][top]:
                    mat[top], mat[r] = mat[r], mat[top]
                    dirty = True
            for c in range(top + 1, ncols):
                q = mat[top][c] // mat[top][top]
                if q:
                    for row in mat:
                        row[c] -= q * row[top]
                if mat[top][c]:
                    for row in mat:
                        row[top], row[c] = row[c], row[top]
                    dirty = True
            if not dirty:
                break
        # entries not divisible by the pivot fold back via a row addition
        d = abs(mat[top][top])
        culprit = None
        for r in range(top + 1, nrows):
            for c in range(top + 1, ncols):
                if mat[r][c] % d:
                    culprit = r
                    break
            if culprit is not None:
                break
        if culprit is not None:
            for c in range(top, ncols):
                mat[top][c] += mat[culprit][c]
            continue
        factors.append(d)
        top += 1
        if top >= nrows or top >= ncols:
            break
    return factors


def _sparse_reduce(
    entries: dict[tuple[int, int], int]
) -> tuple[int, list[int]]:
    """Rank and invariant factors of a sparse integer matrix.

    Unit entries are eliminated greedily with a Markowitz-style pivot
    choice; the leftover submatrix goes through the dense routine.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for (r, c), v in entries.items():
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, set()).add(r)
    rank = 0
    ones = 0
    # Unit pivots in row-length order, shortest first, with a lazy heap:
    # stale lengths are re-pushed instead of decrease-keyed.  Within a row
    # the shortest column wins, so zero-fill pivots (single-entry rows or
    # columns) drain before anything that could cause fill.
    heap = [(len(row), r) for r, row in rows.items()]
    heapq.heapify(heap)
    while heap:
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
        v0 = row0[c0]
        prow = rows.pop(r0)
        for c in prow:
            cols[c].discard(r0)
            if not cols[c]:
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
        ones += 1
    factors = [1] * ones
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
    return rank, factors


def _boundary_entries(
    lower: tuple[tuple, ...], upper: tuple[tuple, ...]
) -> dict[tuple[int, int], int]:
    index = {f: i for i, f in enumerate(lower)}
    entries: dict[tuple[int, int], int] = {}
    for c, g in enumerate(upper):
        for i in range(len(g)):
            sub = g[:i] + g[i + 1 :]
            entries[(index[sub], c)] = (-1) ** i
    return entries


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


def _component_count(faces_by_dim: dict[int, tuple[tuple, ...]]) -> int:
    vertices = (v for (v,) in faces_by_dim.get(0, ()))
    return len(connected_components(vertices, faces_by_dim.get(1, ())))


def _pseudo_manifold_orientable(
    faces_by_dim: dict[int, tuple[tuple, ...]]
) -> Optional[bool]:
    """BFS orientation propagation on a closed pseudo-manifold; ``None``
    if the complex is not one (not pure, or a ridge count differs from 2).
    """
    d = max(faces_by_dim, default=-1)
    if d <= 0:
        return None
    top = faces_by_dim.get(d, ())
    ridge_to_top: dict[tuple, list[tuple]] = {}
    for g in top:
        for i in range(len(g)):
            ridge_to_top.setdefault(g[:i] + g[i + 1 :], []).append(g)
    if any(len(ts) != 2 for ts in ridge_to_top.values()):
        return None
    # pure: every face lies under some top face
    under: set[tuple] = set()
    stack = list(top)
    while stack:
        f = stack.pop()
        if f in under:
            continue
        under.add(f)
        if len(f) > 1:
            stack.extend(f[:i] + f[i + 1 :] for i in range(len(f)))
    if any(f not in under for fs in faces_by_dim.values() for f in fs):
        return None
    sign: dict[tuple, int] = {}
    for start in top:
        if start in sign:
            continue
        sign[start] = 1
        frontier = [start]
        while frontier:
            g = frontier.pop()
            for i in range(len(g)):
                ridge = g[:i] + g[i + 1 :]
                for h in ridge_to_top[ridge]:
                    if h == g:
                        continue
                    missing = (set(h) - set(ridge)).pop()
                    j = h.index(missing)
                    want = -sign[g] * (-1) ** i * (-1) ** j
                    if h in sign:
                        if sign[h] != want:
                            return False
                    else:
                        sign[h] = want
                        frontier.append(h)
    return True


def homology(
    source: "SimplicialComplex | RegularCellComplex",
) -> HomologyReport:
    """Exact integer homology from the boundary matrices of every simplex;
    cell complexes go through their barycentric subdivision, which for
    regular complexes has the same homology."""
    if isinstance(source, RegularCellComplex):
        source = barycentric(source)
    if not len(source):
        raise NotApplicableError("the empty complex has no homology")
    top_dim = source.dim
    faces = source.faces_by_dim
    n_components = _component_count(faces)
    oriented = _pseudo_manifold_orientable(faces)

    ranks: dict[int, int] = {}
    factors: dict[int, list[int]] = {}
    for k in range(1, top_dim + 1):
        entries = _boundary_entries(faces[k - 1], faces[k])
        ranks[k], factors[k] = _sparse_reduce(entries)
    betti = []
    torsion = []
    for k in range(top_dim + 1):
        n_k = len(faces[k])
        betti.append(n_k - ranks.get(k, 0) - ranks.get(k + 1, 0))
        torsion.append(tuple(t for t in factors.get(k + 1, ()) if t > 1))
    if betti[0] != n_components:
        raise AuditError(
            f"union-find sees {n_components} components, homology "
            f"{betti[0]}"
        )
    orientable = None
    if oriented is not None:
        orientable = betti[top_dim] == n_components
        if orientable != oriented:
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


def _component_faces(
    sc: SimplicialComplex,
) -> list[dict[int, tuple[tuple, ...]]]:
    vertices = (v for (v,) in sc.faces(0))
    comps = connected_components(vertices, sc.faces(1))
    owner = {v: k for k, comp in enumerate(comps) for v in comp}
    buckets: list[dict] = [{} for _ in comps]
    for d, fs in sc.faces_by_dim.items():
        for f in fs:
            buckets[owner[f[0]]].setdefault(d, []).append(f)
    return [{d: tuple(fs) for d, fs in comp.items()} for comp in buckets]


def identify_small(
    source: "SimplicialComplex | RegularCellComplex",
) -> str:
    """Name a low-dimensional space: points, circles, or a disjoint union
    of closed surfaces; anything else is reported by Euler characteristic.
    """
    if isinstance(source, RegularCellComplex):
        source = barycentric(source)
    if not len(source):
        return "empty"
    if source.dim == 0:
        n = len(source.faces(0))
        return f"{n} point" + ("s" if n != 1 else "")
    components = _component_faces(source)
    if source.dim == 1:
        if all(
            _pseudo_manifold_orientable(comp) is not None
            for comp in components
        ):
            n = len(components)
            return f"{n} circle" + ("s" if n != 1 else "")
        chi = source.euler_characteristic()
        return f"graph(chi={chi})"
    names = sorted(_surface_name(comp) for comp in components)
    return " ⊔ ".join(names)


def _surface_name(faces_by_dim: dict[int, tuple[tuple, ...]]) -> str:
    chi = sum(
        (-1) ** d * len(fs) for d, fs in faces_by_dim.items()
    )
    if max(faces_by_dim) != 2:
        return f"complex(chi={chi})"
    oriented = _pseudo_manifold_orientable(faces_by_dim)
    if oriented is None:
        return f"complex(chi={chi})"
    if oriented:
        genus = (2 - chi) // 2
        if genus == 0:
            return "S^2"
        if genus == 1:
            return "T^2"
        return f"T_{genus}"
    return f"N_{2 - chi}"
