"""Regular cell complexes and Coxeter complexes of type A.

The Coxeter complex on a ground set of size ``n`` has one cell per ordered
set partition of the ground into at least two blocks; a partition with
``k`` blocks is a cell of dimension ``k - 2`` whose facets merge one pair
of adjacent blocks.  Reversing the block order is a free involution, and
the whole complex is a sphere of dimension ``n - 2``.

The build works on bitmasks: bit ``i`` stands for the ``i``-th smallest
element, a block is a mask, and a partition is keyed by the tuple of its
masks, so a facet is found by OR-ing two adjacent masks.  Each block's
frozenset is made once per mask (``2**n - 1`` of them) and shared by every
cell's label and pattern that holds it.  ``surgery_step`` enumerates the
new cells of a collapse step the same way, in the same order.

:class:`RegularCellComplex` stores cells append-only with stable integer
identities, so cells that survive a surgery step keep their identity in the
result.  ``add_cell`` audits each cell against the cells below it, which
never change: its facets exist, are distinct and one dimension lower, an
edge has two ends, each face of codimension two lies on exactly two facets
(the diamond property), and a two-cell's boundary is a single cycle.
``seal()`` audits that the involution, which only ``pair()`` writes, is
free, dimension preserving and facet compatible, and freezes the complex.
``add_cell`` keeps the cofacet map once built; ``derive`` hands it on.

A surgery step starts its result from the sealed complex before it with
``derive``, which keeps every cell but a drop set closed upward as the
same ``Cell`` object, with its partner.  The step re-adds and re-pairs
only the cells its audits could judge differently: the new cells, the
cells whose facets changed and those with such a facet; ``seal()`` audits
only those pairs.  A kept cell keeps its facets, their facets and its
partner, so its audits would read what they read before.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Hashable, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import (
    AuditError,
    FixedCellError,
    GroundSetTooLargeError,
    NotApplicableError,
)

MIN_COXETER_GROUND = 2
MAX_COXETER_GROUND = 7

Blocks = tuple  # ordered tuple of frozensets


def euler(f_vector: Sequence[int]) -> int:
    """The Euler characteristic of a face count ``f_vector``."""
    return sum((-1) ** d * n for d, n in enumerate(f_vector))


@dataclass(frozen=True, slots=True)
class Cell:
    """One cell of a regular cell complex.

    ``label`` is a ``(kind, payload)`` pair recording how the cell arose;
    it is opaque to the audits but drives lookups and sphere relocation.
    ``pattern`` is an ordered tuple of frozensets over a partial ground set,
    carried along so spheres can be re-identified after surgery.
    """

    ident: int
    dim: int
    label: tuple
    facets: tuple[int, ...]
    pattern: Blocks = ()


def connected_components(
    nodes: Iterable[Hashable], links: Iterable[tuple]
) -> tuple[list[list], list[int]]:
    """Components of the graph on ``nodes`` whose edges are the pairs in
    ``links``, by union-find, and a spanning forest: the positions in
    ``links`` of the pairs that joined two components.  Components come in
    the order of their first node, and each lists its nodes in input
    order."""
    parent = {x: x for x in nodes}
    forest: list[int] = []

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, (a, b) in enumerate(links):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            forest.append(i)
    groups: dict = {}
    for x in parent:
        groups.setdefault(find(x), []).append(x)
    return list(groups.values()), forest


def reversal(blocks: Blocks) -> Blocks:
    return tuple(reversed(blocks))


class RegularCellComplex:
    """An append-only regular cell complex with stable cell identities."""

    def __init__(self) -> None:
        self.cells: dict[int, Cell] = {}
        self.involution: dict[int, int] = {}
        self._next = 0
        self._sealed = False
        self._carried = 0  # the pairs ``derive`` kept: a prefix of involution
        self._faces: dict[int, frozenset] = {}
        self._labels: dict[tuple, int] = {}
        # built on first use, then kept by ``add_cell`` and ``derive``
        self._cofacets: Optional[dict[int, tuple[int, ...]]] = None

    # -- construction ------------------------------------------------------

    def add_cell(
        self,
        dim: int,
        label: tuple,
        facets: Iterable[int] = (),
        pattern: Blocks = (),
        ident: Optional[int] = None,
    ) -> int:
        """Audit a new cell against the cells below it, then add it.  A
        refused cell leaves the complex unchanged."""
        if self._sealed:
            raise AuditError("complex is sealed")
        facets = tuple(facets)
        cells = self.cells
        if ident is None:
            ident = self._next
        if ident in cells:
            raise AuditError(f"duplicate cell identity {ident}")
        if label in self._labels:
            raise AuditError(f"duplicate label {label!r}")
        if dim == 0 and facets:
            raise AuditError("a vertex has no facets")
        if dim > 0 and len(facets) < 2:
            raise AuditError(f"cell {label!r} of dim {dim} needs >= 2 facets")
        if len(set(facets)) != len(facets):
            raise AuditError(f"cell {label!r} repeats a facet")
        faces: list[int] = []  # the facets of each facet, in facet order
        for f in facets:
            facet = cells.get(f)
            if facet is None:
                raise AuditError(f"facet {f} of {label!r} does not exist")
            if facet.dim != dim - 1:
                raise AuditError(f"facet {f} of {label!r} has wrong dimension")
            faces += facet.facets
        if dim == 1 and len(facets) != 2:
            raise AuditError(f"edge {label!r} lacks two distinct ends")
        if dim > 1:
            # the diamond property: in sorted order the faces of
            # codimension two come in equal pairs, no two alike
            paired = sorted(faces)
            distinct = paired[0::2]
            if distinct != paired[1::2] or len(set(distinct)) != len(distinct):
                counts: dict[int, int] = {}
                for g in faces:
                    counts[g] = counts.get(g, 0) + 1
                bad = {g: k for g, k in counts.items() if k != 2}
                raise AuditError(f"diamond property fails at {label!r}: {bad}")
            if dim == 2:
                # the facets are edges, whose two ends sit side by side at
                # positions j and j ^ 1; past the diamond test each end lies
                # on two edges, so the boundary is a union of cycles, and it
                # is one when a walk from the first edge crosses every edge
                at: dict[int, list[int]] = {}
                for j, v in enumerate(faces):
                    at.setdefault(v, []).append(j)
                j, walked = 1, 1
                while True:
                    a, b = at[faces[j]]
                    j = b if a == j else a
                    if j == 0:
                        break
                    j ^= 1
                    walked += 1
                if walked != len(facets):
                    raise AuditError(
                        f"boundary of {label!r} is not a single cycle"
                    )
        # every check has passed: only now does the complex change
        if ident >= self._next:
            self._next = ident + 1
        cells[ident] = Cell(ident, dim, label, facets, pattern)
        self._labels[label] = ident
        cof = self._cofacets
        if cof is not None:
            cof[ident] = ()
            for f in facets:
                cof[f] += (ident,)
        return ident

    def derive(self, drop: Iterable[int]) -> "RegularCellComplex":
        """An unsealed complex holding this sealed complex's cells but the
        ones in ``drop``, for a surgery to add its cells to.  A kept cell is
        the same ``Cell`` object with the same partner, audited when this
        complex took it, so a drop set that is not closed upward, or that
        separates a pair, is refused.  Identities go on from this complex's.
        The cofacet map is copied over less the dropped cells, so this
        complex's own is unchanged."""
        if not self._sealed:
            raise AuditError("derive takes a sealed cell complex")
        drop = frozenset(drop)
        cells, cofacets = self.cells, self.cofacets()
        for i in drop:
            if i not in cells:
                raise AuditError(f"cannot drop cell {i}, which does not exist")
            for c in cofacets[i]:
                if c not in drop:
                    raise AuditError(
                        f"dropping cell {i} leaves cell {c} without that "
                        "facet: the drop set is not closed upward"
                    )
        out = RegularCellComplex()
        out.cells, out._labels = dict(cells), dict(self._labels)
        out._next = self._next
        out.involution = inv = dict(self.involution)
        out._cofacets = up = dict(cofacets)
        below: set[int] = set()
        for i in drop:
            cell = out.cells.pop(i)
            del out._labels[cell.label]
            # a cell without a partner stands for itself, which is dropped
            partner = inv.pop(i, i)
            if partner not in drop:
                raise AuditError(
                    f"involution moves kept cell {partner} off the kept set"
                )
            del up[i]
            below.update(cell.facets)
        for f in below - drop:
            up[f] = tuple(c for c in up[f] if c not in drop)
        out._carried = len(inv)
        return out

    def pair(self, a: int, b: int) -> None:
        """Declare that the involution swaps cells ``a`` and ``b``.  A cell
        keeps its partner: pairing it with another is refused."""
        if self._sealed:
            raise AuditError("complex is sealed")
        if a == b:
            raise FixedCellError(f"cell {a} would be fixed by the involution")
        if self.involution.get(a, b) != b or self.involution.get(b, a) != a:
            raise AuditError(f"cell {a} or {b} already has another partner")
        self.involution[a] = b
        self.involution[b] = a

    def seal(self) -> "RegularCellComplex":
        """Audit the involution's pairs but those ``derive`` carried, which
        the source's seal audited, then freeze.  Each cell was audited when
        ``add_cell`` took it."""
        if self._sealed:
            return self
        if self.involution:
            self._audit_involution()
        self._sealed = True
        return self

    @property
    def sealed(self) -> bool:
        """Whether ``seal()`` has frozen the complex."""
        return self._sealed

    # -- audits --------------------------------------------------------

    def _audit_involution(self) -> None:
        inv, cells = self.involution, self.cells
        if inv.keys() != cells.keys():
            raise AuditError("involution is not defined on every cell")
        # the facet test is symmetric in a pair, so it runs at the member
        # met first, and the message names the same cell as a full pass
        checked: set[int] = set()
        for a, b in itertools.islice(inv.items(), self._carried, None):
            if a == b:
                raise FixedCellError(f"involution fixes cell {a}")
            if inv.get(b) != a:
                raise AuditError("involution is not an involution")
            if a in checked:
                continue
            checked.add(b)
            ca, cb = cells[a], cells[b]
            if ca.dim != cb.dim:
                raise AuditError("involution changes dimension")
            image = {inv[f] for f in ca.facets}
            if image != set(cb.facets):
                raise AuditError(
                    f"involution of {ca.label!r} does not respect facets"
                )

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells.values())

    @property
    def dim(self) -> int:
        return max((c.dim for c in self.cells.values()), default=-1)

    def f_vector(self) -> tuple[int, ...]:
        counts = [0] * (self.dim + 1)
        for c in self.cells.values():
            counts[c.dim] += 1
        return tuple(counts)

    def euler_characteristic(self) -> int:
        return euler(self.f_vector())

    def by_label(self, label: tuple) -> int:
        return self._labels[label]

    def cofacets(self) -> Mapping[int, tuple[int, ...]]:
        """The cells that each cell is a facet of, as a read-only view.  The
        map is built on first use; then ``add_cell`` extends it and a
        complex made by ``derive`` starts from a copy of its source's."""
        if self._cofacets is None:
            # every entry first: a facet may come after its cofacet
            above: dict[int, list[int]] = {i: [] for i in sorted(self.cells)}
            for i in above:
                for f in self.cells[i].facets:
                    above[f].append(i)
            self._cofacets = {i: tuple(cs) for i, cs in above.items()}
        return MappingProxyType(self._cofacets)

    def faces_of(self, ident: int) -> frozenset:
        """All cell identities in the closure of a cell, itself included."""
        cached = self._faces.get(ident)
        if cached is not None:
            return cached
        out = {ident}
        for f in self.cells[ident].facets:
            out |= self.faces_of(f)
        result = frozenset(out)
        if self._sealed:
            self._faces[ident] = result
        return result

    def materialize(self, idents: Iterable[int]) -> "RegularCellComplex":
        """The closed subcomplex on ``idents``: same identities, no involution."""
        keep: set[int] = set()
        for i in idents:
            keep |= self.faces_of(i)
        out = RegularCellComplex()
        for i in sorted(keep, key=lambda i: (self.cells[i].dim, i)):
            c = self.cells[i]
            out.add_cell(c.dim, c.label, c.facets, c.pattern, ident=i)
        return out.seal()


# ---------------------------------------------------------------------------
# Coxeter complexes.
# ---------------------------------------------------------------------------


def _block_sets(ground: tuple) -> list[frozenset]:
    """The block of each bitmask over ``ground``: bit ``i`` stands for
    ``ground[i]``, and the list is indexed by mask."""
    sets = [frozenset()]
    for x in ground:
        sets += [s | {x} for s in sets]
    return sets


def _ordered_partitions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Ordered partitions of the bits ``0..n-1`` into exactly ``k``
    nonempty blocks, each block a bitmask."""
    for blocks in _set_partitions(n, k):
        yield from itertools.permutations(blocks)


def _set_partitions(n: int, k: int, low: int = 0) -> Iterator[tuple[int, ...]]:
    """Partitions of the bits ``low..n-1`` into ``k`` blocks: the ones
    where bit ``low`` is a block of its own, then the ones where it joins
    each block of a partition of the rest in turn."""
    size = n - low
    if k == 1:
        yield ((1 << n) - (1 << low),)
        return
    if size == k:
        yield tuple(1 << i for i in range(low, n))
        return
    if size < k:
        return
    bit = 1 << low
    for sub in _set_partitions(n, k - 1, low + 1):
        yield (bit,) + sub
    for sub in _set_partitions(n, k, low + 1):
        for i in range(len(sub)):
            yield sub[:i] + (sub[i] | bit,) + sub[i + 1 :]


def coxeter_complex(ground: Iterable[int]) -> RegularCellComplex:
    """The type-A Coxeter sphere on a ground set of 2..7 elements.

    Cells are ordered set partitions with at least two blocks; merging two
    adjacent blocks gives a facet; reversal is the involution.
    """
    items = tuple(sorted(ground))
    if not MIN_COXETER_GROUND <= len(items) <= MAX_COXETER_GROUND:
        raise GroundSetTooLargeError(
            f"ground set size {len(items)} outside "
            f"{MIN_COXETER_GROUND}..{MAX_COXETER_GROUND}"
        )
    if len(set(items)) != len(items):
        raise NotApplicableError("ground set has repeated elements")
    n = len(items)
    sets = _block_sets(items)
    complex_ = RegularCellComplex()
    ids: dict[tuple[int, ...], int] = {}
    for k in range(2, n + 1):
        for masks in _ordered_partitions(n, k):
            blocks = tuple(sets[m] for m in masks)
            facets = tuple(
                ids[masks[:i] + (masks[i] | masks[i + 1],) + masks[i + 2 :]]
                for i in range(k - 1 if k > 2 else 0)
            )
            ids[masks] = complex_.add_cell(
                k - 2, ("osp", blocks), facets, pattern=blocks
            )
    for masks, ident in ids.items():
        complex_.pair(ident, ids[masks[::-1]])
    return complex_.seal()


def projective_quotient(
    complex_: RegularCellComplex,
) -> tuple[RegularCellComplex, dict[int, int]]:
    """Identify each cell with its involution partner.

    Takes a sealed complex, whose audited involution makes the face numbers
    halve; ``add_cell``'s refusal of repeated facets guards regularity.
    Returns the sealed quotient and the map from old cell identities.
    """
    if not complex_.sealed:
        raise AuditError("projective_quotient takes a sealed cell complex")
    if not complex_.involution:
        raise NotApplicableError("complex has no involution to quotient by")
    out = RegularCellComplex()
    mapping: dict[int, int] = {}
    for c in sorted(complex_.cells.values(), key=lambda c: (c.dim, c.ident)):
        partner = complex_.involution[c.ident]
        if partner < c.ident:
            mapping[c.ident] = mapping[partner]
            continue
        mapping[c.ident] = out.add_cell(
            c.dim, ("orbit", c.label), [mapping[f] for f in c.facets], c.pattern
        )
    return out.seal(), mapping
