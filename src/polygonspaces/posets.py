"""Finite posets, partition lattices, and combinatorial surgery on them.

The central objects are:

* :class:`FinitePoset`: an immutable finite poset with bitmask down-sets,
  supporting covers, meets and grading.
* set-partition utilities and the full partition lattice ordered by
  reverse refinement (coarser partitions sit higher),
* the intersection poset of a realizable genetic code: partitions of the
  edge set into short blocks, optionally doubled by *barred* copies of the
  partitions whose quotient polygon space is disconnected; both are read
  off the code's short sets, with no edge lengths,
* :func:`comb_surgery`: the order-level shadow of cellular surgery, which
  removes the up-set of a chosen element and grafts in one interval element
  per element strictly below it,
* :func:`poset_isomorphic`: certified isomorphism testing. Colour
  refinement on the covers seeds a candidate bitmask per element; the
  search then branches on the element with the fewest candidates and
  forward-checks every assignment against the whole order, with an
  explicit stack and an undo trail instead of recursion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Callable,
    Hashable,
    Iterable,
    Iterator,
    Optional,
    Sequence,
)

from .errors import (
    AuditError,
    InvalidCodeError,
    NotApplicableError,
    NotMeetSemilatticeError,
    TooLargeError,
)
from .genetics import GeneticCode, realize

MAX_PARTITION_GROUND = 9
MAX_BUILDING_GROUND = 12
MAX_ISO_SIZE = 5000
MAX_INTERSECTION_GROUND = 8


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinitePoset:
    """An immutable finite partial order.

    Elements keep their construction order; all queries go through integer
    bitmasks of down-sets, so comparisons are O(1) and meets are cheap.
    """

    def __init__(self, elements: Sequence[Hashable], down_masks: Sequence[int]):
        self.elements: tuple = tuple(elements)
        self.index: dict = {e: i for i, e in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise AuditError("duplicate poset elements")
        self._down = tuple(down_masks)
        self._covers: Optional[tuple] = None
        self._meet_flag: Optional[bool] = None
        self._up_masks: Optional[tuple[int, ...]] = None
        self._by_down_mask: Optional[dict[int, int]] = None

    def _up(self) -> tuple[int, ...]:
        """Bitmask up-sets, built on the first call.

        A plain attribute set in ``__init__`` rather than a
        ``cached_property``: writing through ``__dict__`` after
        construction slows every later attribute read on the instance.
        """
        if self._up_masks is None:
            up = [0] * len(self.elements)
            for i, mask in enumerate(self._down):
                for j in _bits(mask):
                    up[j] |= 1 << i
            self._up_masks = tuple(up)
        return self._up_masks

    def _principal(self) -> dict[int, int]:
        """Index of each element by its down-set mask, built on the first
        call and kept in a plain attribute, as ``_up`` is."""
        if self._by_down_mask is None:
            self._by_down_mask = {m: i for i, m in enumerate(self._down)}
        return self._by_down_mask

    # -- construction --------------------------------------------------

    @staticmethod
    def from_leq(
        elements: Sequence[Hashable], leq: Callable[[Hashable, Hashable], bool]
    ) -> "FinitePoset":
        """Build from an explicit comparison; validates the order axioms."""
        elems = tuple(elements)
        n = len(elems)
        down = [0] * n
        for i, a in enumerate(elems):
            if not leq(a, a):
                raise AuditError(f"leq not reflexive at {a!r}")
            for j, b in enumerate(elems):
                if leq(b, a):
                    down[i] |= 1 << j
        for i in range(n):
            for j in _bits(down[i]):
                if i != j and down[j] & (1 << i):
                    raise AuditError("leq not antisymmetric")
                if down[j] & ~down[i]:
                    raise AuditError("leq not transitive")
        return FinitePoset(elems, down)

    @staticmethod
    def from_relations(
        elements: Sequence[Hashable],
        pairs: Iterable[tuple[Hashable, Hashable]],
    ) -> "FinitePoset":
        """Build from generating relations ``a < b``; closes transitively.

        The generated digraph must be acyclic, otherwise antisymmetry is
        violated and construction fails.
        """
        elems = tuple(elements)
        index = {e: i for i, e in enumerate(elems)}
        n = len(elems)
        above: list[list[int]] = [[] for _ in range(n)]
        indegree = [0] * n
        seen = set()
        for a, b in pairs:
            ia, ib = index[a], index[b]
            if ia == ib:
                raise AuditError(f"self-relation at {a!r}")
            if (ia, ib) in seen:
                continue
            seen.add((ia, ib))
            above[ia].append(ib)
            indegree[ib] += 1
        order = [i for i in range(n) if indegree[i] == 0]
        queue = list(order)
        while queue:
            i = queue.pop()
            for j in above[i]:
                indegree[j] -= 1
                if indegree[j] == 0:
                    order.append(j)
                    queue.append(j)
        if len(order) != n:
            raise AuditError("generating relations contain a cycle")
        down = [1 << i for i in range(n)]
        for i in order:
            for j in above[i]:
                down[j] |= down[i]
        return FinitePoset(elems, down)

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator:
        return iter(self.elements)

    def __contains__(self, e: Hashable) -> bool:
        return e in self.index

    def leq(self, a: Hashable, b: Hashable) -> bool:
        return bool(self._down[self.index[b]] & (1 << self.index[a]))

    def down_set(self, e: Hashable) -> list:
        return [self.elements[i] for i in _bits(self._down[self.index[e]])]

    def up_set(self, e: Hashable) -> list:
        return [self.elements[i] for i in _bits(self._up()[self.index[e]])]

    def covers(self) -> tuple[tuple[Hashable, Hashable], ...]:
        """All covering pairs ``(a, b)`` with ``a`` directly below ``b``."""
        if self._covers is None:
            up = self._up()
            out = []
            for ib in range(len(self.elements)):
                strict_down = self._down[ib] & ~(1 << ib)
                for ia in _bits(strict_down):
                    between = up[ia] & ~(1 << ia) & strict_down
                    if not between:
                        out.append((self.elements[ia], self.elements[ib]))
            self._covers = tuple(out)
        return self._covers

    def minimal_elements(self) -> list:
        return [
            e
            for i, e in enumerate(self.elements)
            if self._down[i] == (1 << i)
        ]

    def maximal_elements(self) -> list:
        up = self._up()
        return [e for i, e in enumerate(self.elements) if up[i] == (1 << i)]

    def bottom(self) -> Optional[Hashable]:
        mins = self.minimal_elements()
        return mins[0] if len(mins) == 1 else None

    def meet(self, a: Hashable, b: Hashable) -> Optional[Hashable]:
        """The greatest common lower bound, or None if absent or non-unique.

        The common down-set has a greatest element exactly when it is that
        element's own down-set.
        """
        common = self._down[self.index[a]] & self._down[self.index[b]]
        i = self._principal().get(common)
        return None if i is None else self.elements[i]

    def is_meet_semilattice(self) -> bool:
        if self._meet_flag is None:
            principal = self._principal()
            self._meet_flag = all(
                (a & b) in principal
                for a, b in itertools.combinations(self._down, 2)
            )
        return self._meet_flag


# ---------------------------------------------------------------------------
# Set partitions and the partition lattice.
# ---------------------------------------------------------------------------

Partition = tuple  # of sorted tuples of ints, sorted by first entry


def canonical_partition(blocks: Iterable[Iterable[int]]) -> Partition:
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def partitions_of(items: Iterable[int]) -> Iterator[Partition]:
    """All set partitions of ``items`` in a deterministic order."""
    pool = sorted(items)
    if not pool:
        yield ()
        return
    first, rest = pool[0], pool[1:]
    for sub in partitions_of(rest):
        for i in range(len(sub)):
            blocks = list(sub)
            blocks[i] = (first,) + blocks[i]
            yield canonical_partition(blocks)
        yield canonical_partition(((first,),) + sub)


def partition_str(p: Partition) -> str:
    sep = "," if any(e > 9 for b in p for e in b) else ""
    return "|".join(sep.join(str(e) for e in b) for b in p)


def _merges(p: Partition) -> Iterator[Partition]:
    """The partitions that merge two blocks of ``p``: its covers in the
    partition lattice."""
    for i, j in itertools.combinations(range(len(p)), 2):
        merged = list(p)
        merged[i] = tuple(sorted(p[i] + p[j]))
        del merged[j]
        yield canonical_partition(merged)


def partition_lattice(ground_size: int) -> FinitePoset:
    """The lattice of set partitions of ``{1..n}``, coarser partitions higher.

    The bottom is the discrete partition, the top the one-block partition;
    covers merge exactly two blocks and the rank is ``n`` minus the number
    of blocks.
    """
    if not 1 <= ground_size <= MAX_PARTITION_GROUND:
        raise TooLargeError(
            f"partition lattice supports 1..{MAX_PARTITION_GROUND} elements"
        )
    elems = list(partitions_of(range(1, ground_size + 1)))
    pairs = [(p, merged) for p in elems for merged in _merges(p)]
    return FinitePoset.from_relations(elems, pairs)


def minimal_building_set(ground_size: int) -> list[Partition]:
    """Partitions with exactly one non-singleton block, one per subset of
    size at least two.  These generate the partition lattice under join."""
    if not 1 <= ground_size <= MAX_BUILDING_GROUND:
        raise TooLargeError(
            f"building set supports 1..{MAX_BUILDING_GROUND} elements"
        )
    ground = range(1, ground_size + 1)
    out = []
    for r in range(2, ground_size + 1):
        for block in itertools.combinations(ground, r):
            singles = [(e,) for e in ground if e not in block]
            out.append(canonical_partition([block] + singles))
    return out


# ---------------------------------------------------------------------------
# Intersection posets of genetic codes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Barred:
    """The doubled copy of a partition whose quotient space is disconnected."""

    partition: Partition


def intersection_poset(
    code: GeneticCode, *, barred: bool = False
) -> FinitePoset:
    """Partitions of the edge set into short blocks, coarser ones higher.

    Shortness is read off :meth:`GeneticCode.short_sets`.  A partition's
    quotient space is disconnected when three of its blocks are pairwise
    long in union.  For the three largest block sums ``s1 >= s2 >= s3``
    that is the length criterion ``2 (s2 + s3) >`` perimeter: those three
    blocks are then pairwise long, and any pairwise long triple has its
    two smaller sums at most ``s2`` and ``s3``.  With
    ``barred=True`` every partition with a disconnected quotient gains
    an incomparable barred twin; a barred element sits above exactly the
    refinements that are themselves barred or connected, and below only
    barred coarsenings.  The order is generated by the two-block merges
    between short partitions, and the audit that disconnection is
    inherited upward runs along those merges.  An unrealizable code is
    refused: its short sets need not obey that inheritance.
    """
    if code.is_empty_space():
        raise NotApplicableError("the empty code has no intersection poset")
    if code.edge_count > MAX_INTERSECTION_GROUND:
        raise TooLargeError(
            f"intersection poset supports at most {MAX_INTERSECTION_GROUND} edges"
        )
    if realize(code) is None:
        raise InvalidCodeError(
            f"code {code} is not realizable, no intersection poset exists"
        )
    short = code.short_sets()
    plain = []
    disconnected = {}
    for p in partitions_of(range(1, code.edge_count + 1)):
        blocks = [frozenset(b) for b in p]
        if not all(b in short for b in blocks):
            continue
        plain.append(p)
        disconnected[p] = any(
            a | b not in short and a | c not in short and b | c not in short
            for a, b, c in itertools.combinations(blocks, 3)
        )

    # Short partitions are a lower ideal of the partition lattice, so the
    # merges between them generate the refinement order, and inheritance of
    # disconnection along merges implies it along every comparable pair.
    # A connected p lies below Barred(q) through the first disconnected
    # partition on a merge path from p to q.
    pairs: list[tuple[Hashable, Hashable]] = []
    for fine in plain:
        for merged in _merges(fine):
            if merged not in disconnected:
                continue  # some block of the merge is long
            if disconnected[fine] and not disconnected[merged]:
                raise AuditError(
                    "disconnected quotient coarsened to a connected one: "
                    f"{partition_str(fine)} <= {partition_str(merged)}"
                )
            pairs.append((fine, merged))
            if barred and disconnected[fine]:
                pairs.append((Barred(fine), Barred(merged)))
            elif barred and disconnected[merged]:
                pairs.append((fine, Barred(merged)))

    elements: list = list(plain)
    if barred:
        elements.extend(Barred(p) for p in plain if disconnected[p])
    return FinitePoset.from_relations(elements, pairs)


# ---------------------------------------------------------------------------
# Combinatorial surgery on posets.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """A grafted element of a surgered poset, one per ``base`` below the
    surgery locus."""

    locus: Hashable
    base: Hashable


def comb_surgery(poset: FinitePoset, locus: Hashable) -> FinitePoset:
    """Surgery on a poset at ``locus``: the order-level shadow of cutting a
    cell complex along a subcomplex and regluing.

    The whole up-set of ``locus`` is removed.  For every element strictly
    below ``locus`` (including the bottom) a new interval element appears.
    Intervals inherit the order of their bases, and a surviving element
    ``z`` slips below the interval at base ``y`` exactly when ``z`` shares
    an upper bound with the locus and every common lower bound of ``z``
    and the locus lies below ``y``.  The inherited orders come from the
    covers of the input: kept and below elements are lower ideals, so the
    covers inside them generate the same order.

    When the input has all pairwise meets the output must as well, else
    :class:`NotMeetSemilatticeError` is raised.
    """
    if locus not in poset:
        raise NotApplicableError(f"{locus!r} is not an element of the poset")
    bottom = poset.bottom()
    if bottom is None:
        raise NotApplicableError("surgery needs a unique bottom element")
    if locus == bottom:
        raise NotApplicableError("cannot perform surgery at the bottom")
    had_meets = poset.is_meet_semilattice()

    kept = [e for e in poset if not poset.leq(locus, e)]
    below = [e for e in poset if poset.leq(e, locus) and e != locus]
    grafted = {y: Interval(locus, y) for y in below}
    elements = kept + [grafted[y] for y in below]

    up = poset._up()
    locus_up = up[poset.index[locus]]
    locus_down = poset._down[poset.index[locus]]
    pairs: list[tuple[Hashable, Hashable]] = []
    for a, b in poset.covers():
        if not poset.leq(locus, b):
            pairs.append((a, b))
        if b in grafted:
            pairs.append((grafted[a], grafted[b]))
    for z in kept:
        iz = poset.index[z]
        if not up[iz] & locus_up:
            continue  # no common upper bound with the locus
        shared_below = poset._down[iz] & locus_down
        for y in below:
            if shared_below & ~poset._down[poset.index[y]] == 0:
                pairs.append((z, grafted[y]))

    out = FinitePoset.from_relations(elements, pairs)
    if had_meets and not out.is_meet_semilattice():
        raise NotMeetSemilatticeError(
            "surgery destroyed meets although the input had them"
        )
    return out


# ---------------------------------------------------------------------------
# Isomorphism testing.
# ---------------------------------------------------------------------------


def _stable_colors(*posets: FinitePoset) -> list[list[int]]:
    """Colour refinement on the covers of all ``posets`` at once, so that a
    class id means the same class in each of them."""
    sides = []
    for poset in posets:
        n = len(poset.elements)
        cover_up: list[list[int]] = [[] for _ in range(n)]
        cover_down: list[list[int]] = [[] for _ in range(n)]
        for a, b in poset.covers():
            ia, ib = poset.index[a], poset.index[b]
            cover_up[ia].append(ib)
            cover_down[ib].append(ia)
        sides.append((cover_up, cover_down))
    ids: dict = {}
    colors = [
        [
            ids.setdefault((d.bit_count(), u.bit_count()), len(ids))
            for d, u in zip(poset._down, poset._up())
        ]
        for poset in posets
    ]
    classes = len(ids)
    while True:
        ids = {}
        colors = [
            [
                ids.setdefault(
                    (
                        c,
                        tuple(sorted([old[j] for j in up])),
                        tuple(sorted([old[j] for j in down])),
                    ),
                    len(ids),
                )
                for c, up, down in zip(old, cover_up, cover_down)
            ]
            for old, (cover_up, cover_down) in zip(colors, sides)
        ]
        if len(ids) == classes:
            return colors
        classes = len(ids)


def poset_isomorphic(p: FinitePoset, q: FinitePoset) -> Optional[dict]:
    """An order isomorphism ``p -> q`` as a dict, or None when none exists."""
    n = len(p.elements)
    if n != len(q.elements):
        return None
    if n > MAX_ISO_SIZE:
        raise TooLargeError(
            f"isomorphism search capped at {MAX_ISO_SIZE} elements"
        )
    pc, qc = _stable_colors(p, q)
    if sorted(pc) != sorted(qc):
        return None
    if n == 0:
        return {}
    by_color: dict[int, int] = {}
    for j, c in enumerate(qc):
        by_color[c] = by_color.get(c, 0) | 1 << j
    # masks[i]: the elements of q that i may still map to
    masks = [by_color[c] for c in pc]
    p_down, p_up = p._down, p._up()
    q_down, q_up = q._down, q._up()
    image = [0] * n
    unplaced = list(range(n))
    trail: list[tuple[int, int]] = []  # (element, mask before a narrowing)
    first = min(unplaced, key=lambda i: masks[i].bit_count())
    unplaced.remove(first)
    # a frame: (element, candidates not yet tried, trail length at entry)
    stack = [(first, masks[first], 0)]
    while stack:
        i, untried, mark = stack[-1]
        while len(trail) > mark:
            k, old = trail.pop()
            masks[k] = old
        if not untried:
            stack.pop()
            unplaced.append(i)
            continue
        low = untried & -untried
        stack[-1] = (i, untried ^ low, mark)
        j = low.bit_length() - 1
        image[i] = j
        # forward check: each unplaced k keeps the images that relate to j
        # as k relates to i, with j itself gone
        below, above = q_down[j] ^ low, q_up[j] ^ low
        apart = ~(q_down[j] | q_up[j])
        down_i, up_i = p_down[i], p_up[i]
        best, best_count = -1, n + 1
        for k in unplaced:
            old = masks[k]
            if down_i >> k & 1:
                new = old & below
            elif up_i >> k & 1:
                new = old & above
            else:
                new = old & apart
            if new != old:
                if not new:
                    break
                trail.append((k, old))
                masks[k] = new
            count = new.bit_count()
            if count < best_count:
                best, best_count = k, count
        else:
            if not unplaced:
                return {
                    p.elements[a]: q.elements[b] for a, b in enumerate(image)
                }
            # branch on the unplaced element with the fewest candidates
            unplaced.remove(best)
            stack.append((best, masks[best], len(trail)))
    return None
