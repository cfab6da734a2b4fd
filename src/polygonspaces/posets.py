"""Finite posets, intersection posets of codes, and combinatorial surgery.

The central objects are:

* :class:`FinitePoset`: an immutable finite poset built from index pairs,
  with bitmask down-sets and one list of lower covers per element, the
  relations with nothing between their ends.  The meet test reads that
  list: it checks only two lower covers of one element and two maximal
  elements, which is exact (see :meth:`FinitePoset.is_meet_semilattice`).
* the intersection poset of a realizable genetic code: partitions of the
  edge set into short blocks, coarser ones higher, optionally doubled by
  *barred* copies of the partitions whose quotient polygon space is
  disconnected.  Both are read off the code's table of short sets, with
  no edge lengths, by one enumeration of block bitmasks that also finds
  the two-block merges as index pairs,
* :func:`comb_surgery`: the order-level shadow of cellular surgery, which
  removes the up-set of a chosen element and grafts in one interval element
  per element strictly below it,
* :func:`poset_isomorphic`: certified isomorphism testing. Each element
  may map only to elements with down-sets and up-sets of its sizes; the
  search branches on the element with the fewest candidates and
  forward-checks every assignment against the whole order, with an
  explicit stack and an undo trail instead of recursion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Optional, Sequence

from .errors import (
    AuditError,
    InvalidCodeError,
    NotApplicableError,
    NotMeetSemilatticeError,
    TooLargeError,
)
from .genetics import GeneticCode, realize

# The forward check costs about n²/2 mask operations: the largest m = 8
# poset (3,270 elements) takes about 3 s on a 2-vCPU x86-64 host.
MAX_ISO_SIZE = 5000
MAX_INTERSECTION_GROUND = 8


class FinitePoset:
    """An immutable finite partial order on ``elements``, generated by
    ``elements[i] < elements[j]`` for each index pair ``(i, j)``.

    Elements keep their construction order; all queries go through integer
    bitmasks of down-sets, so comparisons are O(1).  The pairs are
    deduplicated and closed transitively.  Duplicate elements are refused
    before any pair is read, then an index outside ``0..n-1``, a
    self-relation or a cycle.  Each element keeps the ascending indices of
    its lower covers, the one list that covers, the meet test and surgery
    read.
    """

    def __init__(
        self, elements: Sequence[Hashable], pairs: Iterable[tuple[int, int]]
    ):
        self.elements = elements = tuple(elements)
        self.index: dict = {e: i for i, e in enumerate(elements)}
        n = len(elements)
        if len(self.index) != n:
            raise AuditError("duplicate poset elements")
        above: list[list[int]] = [[] for _ in range(n)]
        # lower[b]: the lower ends of the distinct relations into b
        lower: list[list[int]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for pair in pairs:
            if pair in seen:
                continue
            ia, ib = pair
            if not (0 <= ia < n and 0 <= ib < n):
                raise AuditError(f"index pair {pair} outside 0..{n - 1}")
            if ia == ib:
                raise AuditError(f"self-relation at {elements[ia]!r}")
            seen.add(pair)
            above[ia].append(ib)
            lower[ib].append(ia)
        indegree = [len(lows) for lows in lower]
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
        # Every cover is a generating relation, since a path of two or more
        # relations puts an element between its ends.  A relation a < b is
        # a cover unless a lies strictly below another lower end d of a
        # relation into b: an element strictly between a and b lies below
        # the last lower end on a path from it to b.  A single relation
        # into b is a cover.
        for lows in lower:
            if len(lows) < 2:
                continue
            between = 0
            for d in lows:
                between |= down[d] ^ (1 << d)
            lows[:] = sorted([d for d in lows if not between >> d & 1])
        self._down = tuple(down)
        self._lower = lower  # lower[b]: the lower covers of b, ascending
        self._order = order  # a linear extension, for the up-sets
        self._up_masks: Optional[tuple[int, ...]] = None

    def _up(self) -> tuple[int, ...]:
        """Bitmask up-sets, built on the first call in one pass down the
        linear extension: an element's up-set is complete once every
        element covering it has passed it on.

        A plain attribute set in the constructor rather than a
        ``cached_property``: writing through ``__dict__`` after
        construction slows every later attribute read on the instance.
        """
        if self._up_masks is None:
            up = [1 << i for i in range(len(self.elements))]
            lower = self._lower
            for i in reversed(self._order):
                mask = up[i]
                for d in lower[i]:
                    up[d] |= mask
            self._up_masks = tuple(up)
        return self._up_masks

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator:
        return iter(self.elements)

    def __contains__(self, e: Hashable) -> bool:
        return e in self.index

    def covers(self) -> tuple[tuple[Hashable, Hashable], ...]:
        """All covering pairs ``(a, b)`` with ``a`` directly below ``b``,
        ordered by the index of ``b`` and then of ``a``."""
        elements = self.elements
        return tuple(
            (elements[ia], b)
            for b, lows in zip(elements, self._lower)
            for ia in lows
        )

    def bottom(self) -> Optional[Hashable]:
        """The minimal element, or None unless there is exactly one."""
        mins = [
            e
            for i, e in enumerate(self.elements)
            if self._down[i] == (1 << i)
        ]
        return mins[0] if len(mins) == 1 else None

    def is_meet_semilattice(self) -> bool:
        """Whether every two elements have a greatest common lower bound.

        Two elements have a meet when their common down-set is the
        down-set of one element.  Only two kinds of pairs are tested: two
        lower covers of one element, and two maximal elements, the lower
        covers of a formal top added above everything.  Pairs of either
        kind are incomparable, and the test is exact.

        Suppose every such pair has a meet.  By induction on ``|down z|``,
        any two ``x, y <= z`` have a meet, for every element ``z`` and for
        the formal top.  If ``x`` and ``y`` are comparable this is clear,
        and if they have a common upper bound below ``z`` it holds by
        induction.  Otherwise ``z`` is a minimal common upper bound; take
        lower covers ``x'``, ``y'`` of ``z`` with ``x <= x'``, ``y <= y'``.
        Minimality of ``z`` gives ``x' != y'``, so ``m = x' ∧ y'`` exists.
        Under ``x'`` induction gives ``a = x ∧ m``, and under ``y'``, which
        lies above ``a <= m``, it gives ``b = a ∧ y``.  A common lower
        bound of ``x`` and ``y`` lies below ``m``, then below ``a``, then
        below ``b``, and ``b`` lies below ``x`` and ``y``: ``b = x ∧ y``.
        """
        down = self._down
        principal = set(down)
        covered = set()
        for lows in self._lower:
            covered.update(lows)
        maximal = [i for i in range(len(down)) if i not in covered]
        return all(
            down[a] & down[b] in principal
            for lows in itertools.chain(self._lower, [maximal])
            for a, b in itertools.combinations(lows, 2)
        )


# ---------------------------------------------------------------------------
# Set partitions.
# ---------------------------------------------------------------------------

Partition = tuple  # of sorted tuples of ints, sorted by first entry


def canonical_partition(blocks: Iterable[Iterable[int]]) -> Partition:
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def _partitions(
    labels: Sequence[int], short: Sequence[bool]
) -> tuple[list[tuple[int, ...]], list[Partition], list[tuple[int, int]]]:
    """The partitions of the ascending ``labels`` into short blocks, and
    the merges of two of their blocks into a short block.

    A block is a bitmask, bit ``i`` standing for ``labels[i]``, and
    ``short`` is indexed by mask; every subset of a short block must be
    short.  The labels join one at a time from the last: the new lowest
    label joins each block of a partition of the labels above it in turn,
    then starts a singleton, and a grown block that is not short ends its
    branch.  The grown block holds the lowest label, so it moves to the
    front and the others keep their order: each partition comes out
    canonical.

    Returns the partitions as tuples of masks and as tuples of blocks of
    labels, and the merges as index pairs ``(fine, merged)``, by ``fine``
    and then by the two merged blocks.
    """
    masks: list[tuple[int, ...]] = [()]
    for bit in reversed(range(len(labels))):
        low, grown = 1 << bit, []
        for sub in masks:
            for i, block in enumerate(sub):
                if short[low | block]:
                    grown.append((low | block,) + sub[:i] + sub[i + 1:])
            if short[low]:
                grown.append((low,) + sub)
        masks = grown
    # members[mask]: the labels of a block, ascending: its lowest, then the
    # rest
    members: list[tuple[int, ...]] = [()]
    for mask in range(1, len(short)):
        lowest = labels[(mask & -mask).bit_length() - 1]
        members.append((lowest,) + members[mask & mask - 1])
    blocks = [tuple([members[block] for block in p]) for p in masks]
    at = {p: i for i, p in enumerate(masks)}
    merges: list[tuple[int, int]] = []
    for fine, p in enumerate(masks):
        for i, j in itertools.combinations(range(len(p)), 2):
            block = p[i] | p[j]
            if short[block]:
                # the merged block keeps p[i]'s lowest label, so it keeps its
                # place
                merged = p[:i] + (block,) + p[i + 1:j] + p[j + 1:]
                merges.append((fine, at[merged]))
    return masks, blocks, merges


def partition_str(p: Partition) -> str:
    sep = "," if any(e > 9 for b in p for e in b) else ""
    return "|".join(sep.join(str(e) for e in b) for b in p)


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

    Shortness is read once, from :meth:`GeneticCode.short_table`: ``2^m``
    flags indexed by bitmask, bit ``i`` standing for edge ``i + 1``.  The
    partitions and their merges come from :func:`_partitions`, with that
    table as the test of a block: only short partitions are built, since
    every superset of a long set is long, and each comes out canonical.

    A partition's quotient space is disconnected when three of its blocks
    are pairwise long in union.  For the three largest block sums
    ``s1 >= s2 >= s3`` that is the length criterion ``2 (s2 + s3) >``
    perimeter: those three blocks are then pairwise long, and any pairwise
    long triple has its two smaller sums at most ``s2`` and ``s3``.  With
    ``barred=True`` every partition with a disconnected quotient gains
    an incomparable barred twin; a barred element sits above exactly the
    refinements that are themselves barred or connected, and below only
    barred coarsenings.  The order is generated by the two-block merges
    between short partitions, as index pairs, and the audit that
    disconnection is inherited upward runs along those merges.  An
    unrealizable code is refused: its short sets need not obey that
    inheritance.
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
    short = code.short_table()
    masks, plain, merges = _partitions(range(1, code.edge_count + 1), short)
    # bars[i]: the index of the barred twin of plain[i], if it has one
    disconnected, bars, n = [], [], len(plain)
    for p in masks:
        for a, b, c in itertools.combinations(p, 3):
            if not (short[a | b] or short[a | c] or short[b | c]):
                disconnected.append(True)
                break
        else:
            disconnected.append(False)
        bars.append(n)
        n += disconnected[-1]

    # Short partitions are a lower ideal of the partition lattice, so the
    # merges between them generate the refinement order, and inheritance of
    # disconnection along merges implies it along every comparable pair.
    # A connected p lies below Barred(q) through the first disconnected
    # partition on a merge path from p to q.
    twins: list[tuple[int, int]] = []
    for fine, merged in merges:
        if disconnected[fine] and not disconnected[merged]:
            raise AuditError(
                "disconnected quotient coarsened to a connected one: "
                f"{partition_str(plain[fine])} <= "
                f"{partition_str(plain[merged])}"
            )
        if barred and disconnected[fine]:
            twins.append((bars[fine], bars[merged]))
        elif barred and disconnected[merged]:
            twins.append((fine, bars[merged]))

    elements = plain
    if barred:
        elements = plain + [
            Barred(p) for p, dis in zip(plain, disconnected) if dis
        ]
    return FinitePoset(elements, merges + twins)


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

    elements, down, up = poset.elements, poset._down, poset._up()
    il = poset.index[locus]
    locus_up, locus_down = up[il], down[il]
    n = len(elements)
    kept = [i for i in range(n) if not locus_up >> i & 1]
    below = [i for i in range(n) if locus_down >> i & 1 and i != il]
    # the output indices of the kept elements, then of the intervals
    at = dict(zip(kept, range(len(kept))))
    graft_at = dict(zip(below, range(len(kept), len(kept) + len(below))))

    pairs: list[tuple[int, int]] = []
    for ib, lows in enumerate(poset._lower):
        if ib in at:
            pairs.extend((at[ia], at[ib]) for ia in lows)
        if ib in graft_at:
            pairs.extend((graft_at[ia], graft_at[ib]) for ia in lows)
    for iz in kept:
        if not up[iz] & locus_up:
            continue  # no common upper bound with the locus
        shared_below = down[iz] & locus_down
        z = at[iz]
        pairs.extend(
            (z, graft_at[iy])
            for iy in below
            if shared_below & ~down[iy] == 0
        )

    out = FinitePoset(
        [elements[i] for i in kept]
        + [Interval(locus, elements[i]) for i in below],
        pairs,
    )
    if had_meets and not out.is_meet_semilattice():
        raise NotMeetSemilatticeError(
            "surgery destroyed meets although the input had them"
        )
    return out


# ---------------------------------------------------------------------------
# Isomorphism testing.
# ---------------------------------------------------------------------------


def poset_isomorphic(p: FinitePoset, q: FinitePoset) -> Optional[dict]:
    """An order isomorphism ``p -> q`` as a dict, or None when none exists."""
    n = len(p.elements)
    if n != len(q.elements):
        return None
    if n > MAX_ISO_SIZE:
        raise TooLargeError(
            f"isomorphism search capped at {MAX_ISO_SIZE} elements"
        )
    p_down, p_up = p._down, p._up()
    q_down, q_up = q._down, q._up()
    # an element's class: the sizes of its down-set and up-set
    pc = [(d.bit_count(), u.bit_count()) for d, u in zip(p_down, p_up)]
    qc = [(d.bit_count(), u.bit_count()) for d, u in zip(q_down, q_up)]
    if sorted(pc) != sorted(qc):
        return None
    if n == 0:
        return {}
    by_class: dict[tuple[int, int], int] = {}
    for j, c in enumerate(qc):
        by_class[c] = by_class.get(c, 0) | 1 << j
    # masks[i]: the elements of q that i may still map to
    masks = [by_class[c] for c in pc]
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
