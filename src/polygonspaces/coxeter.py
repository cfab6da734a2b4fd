"""Regular cell complexes and Coxeter complexes of type A.

The Coxeter complex on a ground set of size ``n`` has one cell per ordered
set partition of the ground into at least two blocks; a partition with
``k`` blocks is a cell of dimension ``k - 2`` whose facets merge one pair
of adjacent blocks.  Reversing the block order is a free involution, and
the whole complex is a sphere of dimension ``n - 2``.

The build works on bitmasks: bit ``i`` stands for the ``i``-th smallest
element and a block is a mask.  A partition is keyed by one int with block
``j`` in bits ``n*j`` and up, so the facet that merges blocks ``i`` and
``i + 1`` is two masks and a shift of the key away, and a cell is paired
with its reversal, whose key reads the masks the other way, when the
second of the two is built.  Each block's frozenset is made once per
mask (``2**n - 1`` of them) and shared by every cell's label and pattern
that holds it.  ``surgery_step`` enumerates the new cells of a collapse
step in the same order.  ``cells_by_dimension`` is the one (dimension,
identity) order in which the package re-adds cells: facets first, each
dimension in identity order.

:class:`RegularCellComplex` stores cells append-only with stable integer
identities, so cells that survive a surgery step keep their identity in the
result.  ``add_cell`` audits each cell against the cells below it, which
never change: its facets exist, are distinct and one dimension lower, an
edge has two ends, each face of codimension two lies on exactly two facets
(the diamond property), and a two-cell's boundary is a single cycle.
``seal()`` audits that the involution, which only ``pair()`` writes, is
free, dimension preserving and facet compatible, and freezes the complex.
Every refusal of ``add_cell`` and ``seal()`` carries ``details``: the
stage, the cell's label and identity and the ids at fault.
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
from types import MappingProxyType
from typing import (
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
)

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


class Cell(NamedTuple):
    """One cell of a regular cell complex: an immutable named tuple with no
    per-instance ``__dict__``.

    ``label`` is a ``(kind, payload)`` pair recording how the cell arose;
    it is opaque to the audits but drives lookups and sphere relocation.
    ``pattern`` is an ordered tuple of frozensets over a partial ground set,
    carried along so spheres can be re-identified after surgery.  A changed
    copy comes from ``_replace``.
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


def _refused(
    label: tuple, ident: int, message: str, **at: object
) -> AuditError:
    """``add_cell``'s refusal of the cell ``label`` that it would have
    given the identity ``ident``, with the ids at fault in ``at``."""
    return AuditError(
        message, stage="add_cell", label=label, cell=ident, **at
    )


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
        refused cell leaves the complex unchanged, and the ``AuditError``
        names in its ``details`` the stage, the cell's label and identity
        and the facets or faces at fault."""
        facets = tuple(facets)
        cells = self.cells
        if ident is None:
            ident = self._next
        if self._sealed:
            raise _refused(label, ident, "complex is sealed")
        if ident in cells:
            raise _refused(label, ident, f"duplicate cell identity {ident}")
        if label in self._labels:
            raise _refused(
                label, ident, f"duplicate label {label!r}",
                other=self._labels[label],
            )
        if dim < 0:
            raise _refused(
                label, ident, f"cell {label!r} has negative dimension {dim}"
            )
        if dim == 0 and facets:
            raise _refused(
                label, ident, "a vertex has no facets", facets=facets
            )
        if dim > 0 and len(facets) < 2:
            raise _refused(
                label, ident, f"cell {label!r} of dim {dim} needs >= 2 facets",
                facets=facets,
            )
        if len(set(facets)) != len(facets):
            raise _refused(
                label, ident, f"cell {label!r} repeats a facet",
                facets=tuple(sorted({f for f in facets
                                     if facets.count(f) > 1})),
            )
        faces: list[int] = []  # the facets of each facet, in facet order
        for f in facets:
            facet = cells.get(f)
            if facet is None:
                raise _refused(
                    label, ident, f"facet {f} of {label!r} does not exist",
                    facets=(f,),
                )
            if facet.dim != dim - 1:
                raise _refused(
                    label, ident,
                    f"facet {f} of {label!r} has wrong dimension",
                    facets=(f,),
                )
            faces += facet.facets
        if dim == 1 and len(facets) != 2:
            raise _refused(
                label, ident, f"edge {label!r} lacks two distinct ends",
                facets=facets,
            )
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
                raise _refused(
                    label, ident,
                    f"diamond property fails at {label!r}: {bad}",
                    faces=bad,
                )
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
                    raise _refused(
                        label, ident,
                        f"boundary of {label!r} is not a single cycle",
                        facets=facets,
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
        """Each refusal names in its ``details`` the stage, the label and
        identity of the cell at fault, its partner and the facet ids at
        fault: those where the image of the cell's facets and the
        partner's facets differ."""
        inv, cells = self.involution, self.cells
        if inv.keys() != cells.keys():
            odd = sorted(inv.keys() ^ cells.keys())
            raise AuditError(
                "involution is not defined on every cell", stage="seal",
                label=cells[odd[0]].label if odd[0] in cells else None,
                cell=odd[0], cells=tuple(odd),
            )

        def fault(error: type, message: str, a: int, b: int, **at: object):
            return error(
                message, stage="seal", label=cells[a].label, cell=a,
                partner=b, **at,
            )

        # the facet test is symmetric in a pair, so it runs at the member
        # met first, and the message names the same cell as a full pass
        checked: set[int] = set()
        for a, b in itertools.islice(inv.items(), self._carried, None):
            if a == b:
                raise fault(FixedCellError, f"involution fixes cell {a}", a, b)
            if inv.get(b) != a:
                raise fault(
                    AuditError, "involution is not an involution", a, b
                )
            if a in checked:
                continue
            checked.add(b)
            ca, cb = cells[a], cells[b]
            if ca.dim != cb.dim:
                raise fault(AuditError, "involution changes dimension", a, b)
            image = {inv[f] for f in ca.facets}
            if image != set(cb.facets):
                raise fault(
                    AuditError,
                    f"involution of {ca.label!r} does not respect facets",
                    a, b, facets=tuple(sorted(image ^ set(cb.facets))),
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
        for cells in cells_by_dimension({i: self.cells[i] for i in keep}):
            for c in cells:
                out.add_cell(
                    c.dim, c.label, c.facets, c.pattern, ident=c.ident
                )
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
    if k == 1:
        yield ((1 << n) - (1 << low),)
        return
    if n - low == k:
        yield tuple(1 << i for i in range(low, n))
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
    add_cell, pair = complex_.add_cell, complex_.pair
    # block j of a partition's key sits in bits n*j and up; low[j] keeps
    # the blocks before j
    low = [(1 << n * j) - 1 for j in range(n + 1)]
    ids: dict[int, int] = {}
    for k in range(2, n + 1):
        # merging blocks i and i + 1 keeps the blocks up to i and shifts
        # the ones past i + 1 down a block
        merges = [(low[i + 1], ~low[i]) for i in range(k - 1 if k > 2 else 0)]
        for masks in _set_partitions(n, k):
            for order, blocks in zip(
                itertools.permutations(masks),
                itertools.permutations([sets[m] for m in masks]),
            ):
                # the keys of this ordering and of its reversal
                key = rev = 0
                for m in order:
                    rev = rev << n | m
                for m in reversed(order):
                    key = key << n | m
                ident = ids[key] = add_cell(
                    k - 2,
                    ("osp", blocks),
                    [ids[key & a | key >> n & b] for a, b in merges],
                    blocks,
                )
                # the second of a cell and its reversal to be built pairs them
                partner = ids.get(rev)
                if partner is not None:
                    pair(partner, ident)
    return complex_.seal()


def cells_by_dimension(cells: Mapping[int, Cell]) -> list[list[Cell]]:
    """The cells, keyed by identity, in one list per dimension, each in
    identity order.  Read one after another they run in (dimension,
    identity) order, every facet before the cells on it."""
    buckets: list[list[Cell]] = []
    for i in sorted(cells):
        c = cells[i]
        while len(buckets) <= c.dim:
            buckets.append([])
        buckets[c.dim].append(c)
    return buckets


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
    add_cell, involution = out.add_cell, complex_.involution
    mapping: dict[int, int] = {}
    for bucket in cells_by_dimension(complex_.cells):
        for c in bucket:
            partner = involution[c.ident]
            if partner < c.ident:
                mapping[c.ident] = mapping[partner]
                continue
            mapping[c.ident] = add_cell(
                c.dim, ("orbit", c.label), [mapping[f] for f in c.facets],
                c.pattern,
            )
    return out.seal(), mapping
