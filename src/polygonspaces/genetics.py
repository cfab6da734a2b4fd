"""Genetic codes: the combinatorial classification of polygon length vectors.

A closed planar polygon with ``m`` ordered edge lengths is governed by which
subsets of edges are *short*: a subset is short when doubling its total stays
below the perimeter.  Genericity (no subset sums to exactly half the
perimeter) makes short/long a clean dichotomy between complementary sets.

Among subsets containing the longest edge, shortness is downward closed for a
purely combinatorial *domination* order, so the maximal short sets, called
*genes*, determine every short set.  The tuple of genes is the *genetic code*
of the vector.  This module provides:

* exact genericity testing for rational length vectors, with a witness
  subset on failure,
* the domination order, the genetic code of a vector, and the reconstruction
  of the full short-set system from a code,
* the partial order on codes at fixed edge count, its up-covers, and the
  canonical saturated chain from the minimal code up to a target,
* exact realization of an abstract code by an integer length vector, or a
  certificate of unrealizability, via a linear program in the increments
  between consecutive lengths, so that ascending order costs no constraint
  rows, posed so that the origin is feasible and solved by a one-phase
  simplex with fraction-free integer pivoting.

All arithmetic is exact.  Lengths are ``fractions.Fraction`` values; their
sums are compared as plain ints after every length is scaled by the common
denominator.  The simplex tableau holds plain ints too.  Floats never
appear.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .errors import (
    GroundSetTooLargeError,
    InvalidCodeError,
    NonGenericError,
    TooLargeError,
    AuditError,
)

RationalLike = Union[int, str, Fraction]

# Genericity scanning and short-set enumeration walk subsets of the edge
# set, so the exact routines carry explicit size caps.
MAX_EDGES = 16
MAX_EDGES_REALIZE = 10
MAX_EDGES_ENUMERATE = 7
# A saturated chain has one step per anchor short set; 2**9 admits every
# code on up to 10 edges.
MAX_CHAIN_SHORT_SETS = 512

Gene = frozenset  # elements are 1-based edge indices


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise InvalidCodeError(f"not an exact rational: {value!r}")


def _scaled(values: Sequence[Fraction]) -> list[int]:
    """``values`` times the lcm of their denominators: integers in the same
    ratios, so their sums compare as the fractions' sums do."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def _find_half_perimeter_subset(
    values: Sequence[Fraction],
) -> Optional[tuple[int, ...]]:
    """First subset (1-based indices, lexicographic) summing to half the
    total of the ascending ``values``."""
    ints = _scaled(values)
    total = sum(ints)
    count = len(ints)

    def walk(start: int, acc: int, chosen: tuple[int, ...]):
        for i in range(start, count):
            doubled = 2 * (acc + ints[i])
            if doubled == total:
                return chosen + (i + 1,)
            if doubled > total:
                break  # values are ascending, so later picks overshoot too
            found = walk(i + 1, acc + ints[i], chosen + (i + 1,))
            if found is not None:
                return found
        return None

    return walk(0, 0, ())


@dataclass(frozen=True)
class LengthVector:
    """Positive rational edge lengths in canonical ascending order.

    The constructor sorts its input (edge lengths matter only as a multiset)
    and verifies genericity exactly.  A subset summing to exactly half the
    perimeter raises :class:`NonGenericError` carrying one witness subset.
    """

    values: tuple[Fraction, ...]

    def __init__(self, values: Iterable[RationalLike]) -> None:
        vals = tuple(sorted(_as_fraction(v) for v in values))
        if not vals:
            raise InvalidCodeError("a length vector needs at least one edge")
        if len(vals) > MAX_EDGES:
            raise GroundSetTooLargeError(
                f"at most {MAX_EDGES} edges supported, got {len(vals)}"
            )
        if vals[0] <= 0:
            raise InvalidCodeError("edge lengths must be positive")
        witness = _find_half_perimeter_subset(vals)
        if witness is not None:
            raise NonGenericError(
                f"subset {witness} sums to exactly half the perimeter",
                witness=witness,
            )
        object.__setattr__(self, "values", vals)

    @property
    def edge_count(self) -> int:
        return len(self.values)

    @property
    def perimeter(self) -> Fraction:
        return sum(self.values)

    def __str__(self) -> str:
        return "(" + ", ".join(str(v) for v in self.values) + ")"


# ---------------------------------------------------------------------------
# Domination order on subsets that contain the anchor (largest) edge.
# ---------------------------------------------------------------------------


def dominance_leq(lower: Iterable[int], upper: Iterable[int]) -> bool:
    """The domination order: ``lower <= upper``.

    Holds when ``lower`` has at most as many elements and, after sorting both
    descending, each entry of ``lower`` is at most the matching entry of
    ``upper``.  For ascending length vectors this forces the corresponding
    sums to compare the same way, which is why short sets form a down-set.
    """
    small = sorted(lower, reverse=True)
    large = sorted(upper, reverse=True)
    if len(small) > len(large):
        return False
    return all(a <= b for a, b in zip(small, large))


def _dominance_up_covers(s: Gene, anchor: int) -> Iterator[Gene]:
    """Immediate successors of ``s`` among anchor-containing subsets."""
    if 1 not in s:
        yield s | {1}
    for g in s:
        if g < anchor and g + 1 not in s:
            yield (s - {g}) | {g + 1}


def _dominance_down_covers(s: Gene, anchor: int) -> Iterator[Gene]:
    """Immediate predecessors of ``s`` among anchor-containing subsets."""
    if 1 in s:
        yield s - {1}
    for g in s:
        if g != anchor and g > 1 and g - 1 not in s:
            yield (s - {g}) | {g - 1}


# The same covers on bitmasks, for the scans over every anchor set: bit
# i - 1 stands for edge i, so with ``anchor_bit = 2**(m - 1)`` the anchor sets
# are the masks from ``anchor_bit`` to ``2 * anchor_bit - 1``.  The scans
# table shortness by ``s``, the mask less the anchor bit.  Moving edge i up
# to i + 1 adds ``2**(i - 1)``, and adding edge 1 adds 1, so every up-cover
# has the larger mask.


def _short_up_cover(short: Sequence[int], s: int, anchor_bit: int) -> bool:
    """Whether a dominance up-cover of the anchor set ``anchor_bit | s`` is
    short: one that moves an edge i below the anchor up to a free i + 1
    (adding bit i - 1) or adds a missing edge 1 (adding bit 0)."""
    mask = anchor_bit | s
    steps = (mask & ~(mask >> 1) & (anchor_bit - 1)) | (~mask & 1)
    while steps:
        low = steps & -steps
        if short[s + low]:
            return True
        steps ^= low
    return False


def _short_down_covers(short: Sequence[int], s: int, anchor_bit: int) -> bool:
    """Whether every dominance down-cover of the anchor set
    ``anchor_bit | s`` is short: those that move an edge i other than 1 and
    the anchor down to a free i - 1 (taking bit i - 2) and the one that
    drops edge 1 (taking bit 0).  At one edge that drop leaves no anchor
    set, which is not short."""
    mask = anchor_bit | s
    steps = ((mask & ~(mask << 1) & (anchor_bit - 1)) >> 1) | (mask & 1)
    while steps:
        low = steps & -steps
        if low > s or not short[s - low]:
            return False
        steps ^= low
    return True


def _mask_set(mask: int) -> Gene:
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


# ---------------------------------------------------------------------------
# Genetic codes.
# ---------------------------------------------------------------------------


def _gene_sort_key(gene: Gene) -> tuple[int, ...]:
    return tuple(sorted(gene))


def _anchor_sets(edge_count: int) -> Iterator[Gene]:
    """Every subset of the edges that contains the anchor, by size."""
    rest = range(1, edge_count)
    for r in range(edge_count):
        for combo in itertools.combinations(rest, r):
            yield frozenset(combo) | {edge_count}


@dataclass(frozen=True)
class GeneticCode:
    """An antichain of anchor-containing edge subsets at a fixed edge count.

    ``genes`` are the maximal short subsets containing the anchor edge
    (the one with the largest index).  An empty tuple of genes is legal and
    describes an empty polygon space: even the anchor alone is long.
    """

    edge_count: int
    genes: tuple[Gene, ...]

    def __init__(self, edge_count: int, genes: Iterable[Iterable[int]]) -> None:
        if not isinstance(edge_count, int) or edge_count < 1:
            raise InvalidCodeError(f"bad edge count: {edge_count!r}")
        if edge_count > MAX_EDGES:
            raise GroundSetTooLargeError(
                f"at most {MAX_EDGES} edges supported, got {edge_count}"
            )
        canonical = []
        for raw in genes:
            gene = frozenset(int(e) for e in raw)
            if not gene or min(gene) < 1 or max(gene) > edge_count:
                raise InvalidCodeError(
                    f"gene {sorted(gene)} out of range for {edge_count} edges"
                )
            if edge_count not in gene:
                raise InvalidCodeError(
                    f"gene {sorted(gene)} must contain the anchor {edge_count}"
                )
            canonical.append(gene)
        ordered = tuple(sorted(set(canonical), key=_gene_sort_key))
        if len(ordered) != len(canonical):
            raise InvalidCodeError("duplicate gene")
        for a, b in itertools.combinations(ordered, 2):
            if dominance_leq(a, b) or dominance_leq(b, a):
                raise InvalidCodeError(
                    f"genes {sorted(a)} and {sorted(b)} are comparable; "
                    "a code must be an antichain"
                )
        object.__setattr__(self, "edge_count", edge_count)
        object.__setattr__(self, "genes", ordered)

    def is_empty_space(self) -> bool:
        """True when the code describes an empty polygon space (no genes)."""
        return not self.genes

    def anchor_short_sets(self) -> frozenset:
        """All short subsets containing the anchor (the down-set of the
        genes), walked down the dominance covers from the genes."""
        anchor = self.edge_count
        seen = set(self.genes)
        stack = list(self.genes)
        while stack:
            for s in _dominance_down_covers(stack.pop(), anchor):
                # at one edge the only cover below the anchor is empty
                if anchor in s and s not in seen:
                    seen.add(s)
                    stack.append(s)
        return frozenset(seen)

    def short_sets(self) -> frozenset:
        """Every short subset of the edges: the anchor short sets and the
        complement of each long anchor set, since of two complementary
        sets exactly one is short."""
        shorts = self.anchor_short_sets()
        ground = frozenset(range(1, self.edge_count + 1))
        return shorts.union(
            ground - s for s in _anchor_sets(self.edge_count) if s not in shorts
        )

    def __str__(self) -> str:
        return format_code(self)


def minimal_code(edge_count: int) -> GeneticCode:
    """The smallest nonempty code: only the anchor itself is short."""
    return GeneticCode(edge_count, [{edge_count}])


def genetic_code(lengths: Union[LengthVector, Iterable[RationalLike]]) -> GeneticCode:
    """The genetic code of a (generic) length vector.

    Tests every anchor set for shortness and keeps the short sets that are
    maximal under domination.  The lengths of the edges below the anchor are
    summed over all their subsets by doubling one list, so entry ``s`` sums
    the edges of mask ``s``.  Maximality is checked through upward covers,
    which is sound because shortness is downward closed.
    """
    vec = lengths if isinstance(lengths, LengthVector) else LengthVector(lengths)
    m = vec.edge_count
    ints = _scaled(vec.values)
    sums = [0]
    for v in ints[:-1]:
        sums += [s + v for s in sums]
    # 2 * (sums[s] + anchor length) < perimeter
    room = sum(ints) - 2 * ints[-1]
    short = [2 * s < room for s in sums]
    anchor = 1 << (m - 1)
    genes = [
        _mask_set(anchor | s)
        for s, is_short in enumerate(short)
        if is_short and not _short_up_cover(short, s, anchor)
    ]
    return GeneticCode(m, genes)


# ---------------------------------------------------------------------------
# The partial order on codes, covers, saturated chains.
# ---------------------------------------------------------------------------


def minimal_long_sets(code: GeneticCode) -> tuple[Gene, ...]:
    """Minimal anchor-containing long sets, sorted by ascending element tuple.

    A long set is minimal when every downward cover is short.  These are
    exactly the sets whose addition to the short system yields an upward
    cover of the code, and the only long constraints a realization needs.
    Shortness is tabled on the anchor-set masks: a set is short when it is
    a gene or has a short up-cover, and up-covers have larger masks, so one
    pass from the top fills the table.
    """
    anchor = 1 << (code.edge_count - 1)
    short = bytearray(anchor)
    for gene in code.genes:
        short[sum(1 << (i - 1) for i in gene) - anchor] = 1
    for s in range(anchor - 1, -1, -1):
        if not short[s] and _short_up_cover(short, s, anchor):
            short[s] = 1
    out = [
        _mask_set(anchor | s)
        for s in range(anchor)
        if not short[s] and _short_down_covers(short, s, anchor)
    ]
    return tuple(sorted(out, key=_gene_sort_key))


def up_covers(code: GeneticCode) -> tuple[GeneticCode, ...]:
    """Codes directly above: one new short set (a minimal long) is adjoined."""
    out = []
    for t in minimal_long_sets(code):
        genes = [t] + [g for g in code.genes if not dominance_leq(g, t)]
        out.append(GeneticCode(code.edge_count, genes))
    return tuple(out)


class SaturatedChain(NamedTuple):
    """A maximal chain of codes with the set adjoined at each step.

    ``codes[0]`` is the minimal code, ``codes[-1]`` the target;
    ``added_sets[i]`` is the short set gained from ``codes[i]`` to
    ``codes[i + 1]``.
    """

    codes: tuple[GeneticCode, ...]
    added_sets: tuple[Gene, ...]


def saturated_chain(code: GeneticCode) -> SaturatedChain:
    """The canonical saturated chain from the minimal code up to ``code``.

    Built by descending: repeatedly drop the gene whose descending element
    tuple is lexicographically largest, until only the anchor set remains.
    Each drop removes exactly one short set, so the chain is saturated and
    its added sets together with the anchor singleton exhaust the short
    system of the target.  A set becomes maximal only when the dropped gene
    was its one short up-cover, so the new genes are read off the dropped
    gene's down-covers.  Codes with more than ``MAX_CHAIN_SHORT_SETS``
    anchor short sets are refused before the descent.
    """
    if code.is_empty_space():
        return SaturatedChain((code,), ())
    m = code.edge_count
    shorts = set(code.anchor_short_sets())
    if len(shorts) > MAX_CHAIN_SHORT_SETS:
        raise TooLargeError(
            f"{format_code(code)} has {len(shorts)} anchor short sets; "
            f"chains are built for at most {MAX_CHAIN_SHORT_SETS}"
        )
    bottom = minimal_code(m)
    codes = [code]
    removed = []
    genes = set(code.genes)
    while codes[-1] != bottom:
        gene = max(genes, key=lambda g: tuple(sorted(g, reverse=True)))
        removed.append(gene)
        shorts.remove(gene)
        genes.remove(gene)
        genes.update(
            c
            for c in _dominance_down_covers(gene, m)
            if m in c
            and not any(u in shorts for u in _dominance_up_covers(c, m))
        )
        codes.append(GeneticCode(m, genes))
    return SaturatedChain(tuple(reversed(codes)), tuple(reversed(removed)))


def surgery_signature(chain: SaturatedChain) -> tuple[int, ...]:
    """Sphere dimensions met along a saturated chain: size of each added
    set minus two."""
    return tuple(len(j) - 2 for j in chain.added_sets)


def enumerate_codes(edge_count: int) -> list[GeneticCode]:
    """All genetic codes at the given edge count (every domination antichain).

    Exponential; refuses edge counts above a small cap.
    """
    if edge_count > MAX_EDGES_ENUMERATE:
        raise GroundSetTooLargeError(
            f"code enumeration supports at most {MAX_EDGES_ENUMERATE} edges"
        )
    anchor_sets = sorted(
        _anchor_sets(edge_count), key=lambda s: (len(s), _gene_sort_key(s))
    )
    out: list[GeneticCode] = []

    def extend(start: int, chosen: list) -> None:
        out.append(GeneticCode(edge_count, chosen))
        for i in range(start, len(anchor_sets)):
            s = anchor_sets[i]
            if any(
                dominance_leq(s, c) or dominance_leq(c, s) for c in chosen
            ):
                continue
            chosen.append(s)
            extend(i + 1, chosen)
            chosen.pop()

    extend(0, [])
    return out


# ---------------------------------------------------------------------------
# Exact realization via a one-phase simplex on a fraction-free integer
# tableau (Edmonds 1967, Bareiss 1968): the origin is a feasible vertex,
# so no phase 1 is needed, and no floats.
# ---------------------------------------------------------------------------


def _simplex_max(
    objective: Sequence[int],
    rows: Sequence[Sequence[int]],
    rhs: Sequence[int],
) -> tuple[Fraction, list[Fraction]]:
    """Maximize ``objective . x`` over ``rows . x <= rhs``, ``x >= 0``, for
    integer input with every ``rhs >= 0``.

    The origin is then a feasible vertex, basic in the slacks, so one phase
    of Bland's rule runs from it (ratio ties go to the smaller basis index):
    it terminates on these degenerate LPs and is deterministic.  Returns
    ``(value, x)``.  A negative right-hand side raises an audit error, as
    does an unbounded objective: the callers' regions are bounded.

    The integer tableau ``T`` stands for ``T / D`` with one common
    denominator ``D > 0``, starting at 1.  A pivot on ``p = T[r][c] > 0``
    leaves row ``r`` as it is and replaces every other row ``i``, the
    objective row included, by ``(p * T[i][j] - T[i][c] * T[r][j]) // D``;
    then ``D`` becomes ``p``.  The division is exact (Bareiss): ``D`` is the
    determinant of the current basis matrix ``B``, so ``T`` is ``adj(B)``
    applied to the integer input, and the quotient is that integer tableau
    for the next basis.  Signs, zero tests and the ratio test do not see
    ``D``, so the pivots are those of the rational tableau.
    """
    if any(b < 0 for b in rhs):
        raise AuditError("negative right-hand side: the origin is infeasible")
    n, k = len(objective), len(rows)
    tableau = [
        [*rows[i], *(int(i == j) for j in range(k)), rhs[i]] for i in range(k)
    ]
    basis = [n + i for i in range(k)]
    # the objective row in canonical form: z + sum(row[j] * x_j) = row[-1]
    z_row = [*(-c for c in objective), *[0] * (k + 1)]
    every_row = tableau + [z_row]
    denom = 1
    while True:
        enter = next((j for j in range(n + k) if z_row[j] < 0), None)
        if enter is None:
            break
        best = None
        for i in range(k):
            coef = tableau[i][enter]
            num = tableau[i][-1]
            # the key (num / coef, basis[i]), ratios cross-multiplied
            if coef > 0 and (
                best is None
                or (num * best[1], basis[i]) < (best[0] * coef, basis[best[2]])
            ):
                best = (num, coef, i)
        if best is None:
            raise AuditError("objective unbounded on a bounded polytope")
        prow = tableau[best[2]]
        p = best[1]
        for row in every_row:
            if row is prow:
                continue
            f = row[enter]
            if f:
                row[:] = [(p * v - f * w) // denom for v, w in zip(row, prow)]
            else:
                row[:] = [p * v // denom for v in row]
        denom = p
        basis[best[2]] = enter
    x = [Fraction(0)] * n
    for i in range(k):
        if basis[i] < n:
            x[basis[i]] = Fraction(tableau[i][-1], denom)
    return Fraction(z_row[-1], denom), x


def realize(code: GeneticCode) -> Optional[LengthVector]:
    """An integer length vector with the given genetic code, or None.

    Maximizes a uniform slack ``t`` over ascending vectors ``x`` of
    perimeter ``P <= 1`` with ``t <= x_1``, whose gene sums stay short by
    ``t`` (``2 x(g) - P + t <= 0``) and whose minimal long sets stay long by
    ``t`` (``P - 2 x(L) + t <= 0``); domination monotonicity makes those
    finitely many constraints imply all the rest.  Every constraint but
    ``P <= 1`` is homogeneous, so the origin is feasible, and scaling a
    point with ``t > 0`` up to ``P = 1`` raises ``t``: a positive optimum
    has ``P = 1``.

    The LP is posed in the increments ``y_j = x_j - x_(j-1) >= 0``
    (``x_0 = 0``), so ``x_i = y_1 + ... + y_i`` and ascending order needs
    no constraint rows.  The change of variables is unimodular: a row with
    edge coefficients ``a_i`` takes ``a_j + ... + a_m`` on ``y_j``, and
    ``t <= x_1`` becomes ``t <= y_1``.  The optimum is scaled to a
    canonical integer vector and round-tripped through
    :func:`genetic_code` as a self-check.
    """
    m = code.edge_count
    if m > MAX_EDGES_REALIZE:
        raise GroundSetTooLargeError(
            f"realization supports at most {MAX_EDGES_REALIZE} edges"
        )

    def row(coef, t: int = 1) -> list[int]:
        """Coefficients of ``y_1..y_m``, the suffix sums of the edge
        coefficients ``coef(i)`` for ``i = 1..m``, then ``t``."""
        suffix = itertools.accumulate(coef(i) for i in range(m, 0, -1))
        return [*suffix][::-1] + [t]

    rows = [row(lambda i: 1, t=0)]
    # t <= y_1 = x_1 keeps every length positive
    rows.append(row(lambda i: -(i == 1)))
    rows += [row(lambda i: 2 * (i in gene) - 1) for gene in code.genes]
    rows += [
        row(lambda i: 1 - 2 * (i in long_set))
        for long_set in minimal_long_sets(code)
    ]
    maximize_t = row(lambda i: 0)
    value, y = _simplex_max(maximize_t, rows, [1] + [0] * (len(rows) - 1))
    if value <= 0:
        return None
    lengths = list(itertools.accumulate(y[:m]))
    scale = math.lcm(*(v.denominator for v in lengths))
    ints = [int(v * scale) for v in lengths]
    shrink = math.gcd(*ints)
    vector = LengthVector(v // shrink for v in ints)
    if genetic_code(vector) != code:
        raise AuditError(
            f"realization round-trip failed for {format_code(code)}"
        )
    return vector


# ---------------------------------------------------------------------------
# Text notation and reports.
# ---------------------------------------------------------------------------


def format_code(code: GeneticCode) -> str:
    """Angle-bracket notation: genes as digit runs, bracketed when elements
    exceed one digit, separated by commas.  The empty code prints as ``<>``."""
    tokens = []
    for gene in code.genes:
        elems = sorted(gene)
        if elems[-1] <= 9:
            tokens.append("".join(str(e) for e in elems))
        else:
            tokens.append("[" + ",".join(str(e) for e in elems) + "]")
    return "<" + ",".join(tokens) + ">"


def parse_code(text: str, edge_count: Optional[int] = None) -> GeneticCode:
    """Parse angle-bracket notation, e.g. ``<256>`` or ``<[2,4,6,9]>``.

    Each comma-separated token is one gene: a run of digits (one element
    per digit) or a bracketed list for multi-digit elements.  The edge
    count defaults to the largest element mentioned; the empty code ``<>``
    requires it explicitly.
    """
    body = text.strip()
    if not (body.startswith("<") and body.endswith(">")):
        raise InvalidCodeError(f"code must be wrapped in <...>: {text!r}")
    body = body[1:-1].strip()
    genes: list[tuple[int, ...]] = []
    token = ""
    depth = 0
    for ch in body + ",":
        if ch == "," and depth == 0:
            token = token.strip()
            if not token:
                continue
            if token.startswith("[") and token.endswith("]"):
                inner = token[1:-1]
                try:
                    elems = tuple(int(p) for p in inner.split(","))
                except ValueError:
                    raise InvalidCodeError(f"bad gene token {token!r}") from None
            elif token.isdecimal():
                elems = tuple(int(c) for c in token)
            else:
                raise InvalidCodeError(f"bad gene token {token!r}")
            genes.append(elems)
            token = ""
        else:
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            token += ch
    if depth != 0:
        raise InvalidCodeError(f"unbalanced brackets in {text!r}")
    if edge_count is None:
        if not genes:
            raise InvalidCodeError(
                "the empty code <> needs an explicit edge count"
            )
        edge_count = max(max(g) for g in genes)
    return GeneticCode(edge_count, genes)
