"""Genetic codes: the combinatorial classification of polygon length vectors.

A closed planar polygon with ``m`` ordered edge lengths is governed by which
subsets of edges are *short*: a subset is short when doubling its total stays
below the perimeter.  Genericity (no subset sums to exactly half the
perimeter) makes short/long a clean dichotomy between complementary sets.

Among subsets containing the longest edge, shortness is downward closed for a
purely combinatorial *domination* order (in descending order, the larger set
has at least as many edges, each at least the matching one), so the maximal
short sets, called *genes*, determine every short set.  The tuple of genes is
the *genetic code* of the vector.  This module provides:

* exact genericity testing for rational length vectors, read off one table
  of subset sums, with the lexicographically first witness subset on
  failure,
* the domination order, and the genetic code of a vector, held on one bitset
  over its anchor sets (the genes closed downward), off which the genes and
  the full short-set system are read,
* the partial order on codes at fixed edge count, its up-covers, the
  canonical saturated chain from the minimal code up to a target, and the
  enumeration of every code, which tests comparability on that bitset,
* exact realization of an abstract code by an integer length vector, or a
  certificate of unrealizability, via a linear program in the increments
  between consecutive lengths, so that ascending order costs no constraint
  rows, posed so that the origin is feasible and solved by a one-phase
  simplex with fraction-free integer pivoting on a condensed tableau.

All arithmetic is exact.  Lengths are ``fractions.Fraction`` values, given
as a ``Fraction`` or an ``int`` (never a ``bool``, a float or text: the
command line's one parser reads length text).  Their sums are compared as
plain ints after every length is scaled by the common denominator.  The
simplex tableau holds plain ints too.  Floats never appear.
"""

from __future__ import annotations

import functools
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

RationalLike = Union[int, Fraction]

# Genericity scanning and short-set enumeration walk subsets of the edge
# set, so the exact routines carry explicit size caps.
MAX_EDGES = 16
MAX_EDGES_REALIZE = 10
MAX_EDGES_ENUMERATE = 7
# A saturated chain has one step per anchor short set; 2**9 admits every
# code on up to 10 edges.
MAX_CHAIN_SHORT_SETS = 512

Gene = frozenset  # elements are 1-based edge indices


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction) or _is_int(value):
        return Fraction(value)
    raise InvalidCodeError(f"not an exact rational: {value!r}")


def _scaled(values: Sequence[Fraction]) -> list[int]:
    """``values`` times the lcm of their denominators: integers in the same
    ratios, so their sums compare as the fractions' sums do."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def _subset_sums(ints: Sequence[int]) -> list[int]:
    """The sum over every subset, by doubling one list: entry ``s`` sums
    the ``ints`` picked by the bits of mask ``s``."""
    sums = [0]
    for v in ints:
        sums += [s + v for s in sums]
    return sums


def _find_half_perimeter_subset(
    values: Sequence[Fraction],
) -> Optional[tuple[int, ...]]:
    """First subset (1-based indices, lexicographic) summing to half the
    total of ``values``: read off the subset-sum table, the first index
    tuple among the masks whose doubled sum is the total."""
    ints = _scaled(values)
    total = sum(ints)
    ties = [s for s, v in enumerate(_subset_sums(ints)) if 2 * v == total]
    return min((tuple(i + 1 for i in _bits(s)) for s in ties), default=None)


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

    def __str__(self) -> str:
        return "(" + ", ".join(str(v) for v in self.values) + ")"


# ---------------------------------------------------------------------------
# Domination order on subsets that contain the anchor (largest) edge.
# ---------------------------------------------------------------------------


# A code's shortness is one bitset over its anchor sets: bit i - 1 of a mask
# stands for edge i, the anchor sets are the masks ``anchor | s`` with
# ``anchor = 2**(m - 1)`` and ``s < anchor``, and bit ``s`` says whether
# ``anchor | s`` is short.  The dominance down-covers are m - 1 moves: move
# 0 drops edge 1 (``s - 1``, where bit 0 is set), and move k = 1..m - 2
# takes edge k + 1 down to a free edge k (``s - 2**(k - 1)``, where bit k is
# set and bit k - 1 clear).  A move's targets from a bitset ``S`` are thus
# ``(S & pattern) >> shift``, and the sets it takes into ``S`` are
# ``pattern & (S << shift)``.  Every move lowers the mask.  At one edge
# there is no move: dropping edge 1 leaves the empty set, no anchor set.


@functools.cache
def _down_moves(edge_count: int) -> tuple[tuple[int, int], ...]:
    """``(pattern, shift)`` of each down-move over the ``2**(m - 1)`` anchor
    sets, from the highest edge moved down to the drop of edge 1.  A
    pattern repeats a block of ``2**(k + 1)`` bits, and is built from it by
    doubling."""
    size = 1 << (edge_count - 1)
    moves = []
    for k in reversed(range(edge_count - 1)):
        shift = (1 << k >> 1) or 1
        pattern, width = ((1 << shift) - 1) << (1 << k), 2 << k
        while width < size:
            pattern |= pattern << width
            width *= 2
        moves.append((pattern, shift))
    return tuple(moves)


def _closure(edge_count: int, bits: int) -> int:
    """The down-closure of a bitset over the anchor sets: sweeps of the
    down-moves until one adds nothing."""
    moves = _down_moves(edge_count)
    while True:
        closed = bits
        for pattern, shift in moves:
            closed |= (closed & pattern) >> shift
        if closed == bits:
            return bits
        bits = closed


def _maximal(edge_count: int, short: int) -> int:
    """The sets of a down-closed bitset that no down-move from it reaches."""
    top = short
    for pattern, shift in _down_moves(edge_count):
        top &= ~((short & pattern) >> shift)
    return top


def _edge(value) -> int:
    """An edge index from outside: an integer, never a ``bool``, a float,
    a ``Fraction`` or a string that ``int`` would read."""
    if not _is_int(value):
        raise InvalidCodeError(f"gene element is not an integer: {value!r}")
    return value


def _bits(x: int) -> Iterator[int]:
    """The positions of the set bits of ``x``, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _mask_set(mask: int) -> Gene:
    return frozenset([i + 1 for i in range(mask.bit_length()) if mask >> i & 1])


def _set_mask(edges: Iterable[int]) -> int:
    return sum(1 << (e - 1) for e in edges)


# ---------------------------------------------------------------------------
# Genetic codes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneticCode:
    """An antichain of anchor-containing edge subsets at a fixed edge count.

    ``genes`` are the maximal short subsets containing the anchor edge
    (the one with the largest index).  An empty tuple of genes is legal and
    describes an empty polygon space: even the anchor alone is long.  A code
    is held on its shortness bitset, the genes closed downward, and codes
    are equal when their edge counts and bitsets are.
    """

    edge_count: int
    _short: int

    def __init__(self, edge_count: int, genes: Iterable[Iterable[int]]) -> None:
        if not _is_int(edge_count) or edge_count < 1:
            raise InvalidCodeError(f"bad edge count: {edge_count!r}")
        if edge_count > MAX_EDGES:
            raise GroundSetTooLargeError(
                f"at most {MAX_EDGES} edges supported, got {edge_count}"
            )
        canonical = []
        for raw in genes:
            try:
                gene = frozenset(map(_edge, raw))
            except TypeError:
                raise InvalidCodeError(f"gene is not a set of edges: {raw!r}")
            if not gene or min(gene) < 1 or max(gene) > edge_count:
                raise InvalidCodeError(
                    f"gene {sorted(gene)} out of range for {edge_count} edges"
                )
            if edge_count not in gene:
                raise InvalidCodeError(
                    f"gene {sorted(gene)} must contain the anchor {edge_count}"
                )
            canonical.append(gene)
        anchor = 1 << (edge_count - 1)
        bits = {g: 1 << (_set_mask(g) - anchor) for g in canonical}
        if len(bits) != len(canonical):
            raise InvalidCodeError("duplicate gene")
        top = sum(bits.values())
        short = _closure(edge_count, top)
        if _maximal(edge_count, short) != top:
            # the first comparable pair: one's down-set holds the other's
            downs = {g: _closure(edge_count, b) for g, b in bits.items()}
            for a, b in itertools.combinations(sorted(downs, key=sorted), 2):
                if downs[a] | downs[b] in (downs[a], downs[b]):
                    raise InvalidCodeError(
                        f"genes {sorted(a)} and {sorted(b)} are comparable; "
                        "a code must be an antichain"
                    )
        object.__setattr__(self, "edge_count", edge_count)
        object.__setattr__(self, "_short", short)

    @functools.cached_property
    def genes(self) -> tuple[Gene, ...]:
        """The maximal sets of the bitset, by ascending element tuple."""
        anchor = 1 << (self.edge_count - 1)
        top = _maximal(self.edge_count, self._short)
        return tuple(sorted((_mask_set(anchor | s) for s in _bits(top)), key=sorted))

    def is_empty_space(self) -> bool:
        """True when the code describes an empty polygon space (no genes)."""
        return not self._short

    def anchor_short_sets(self) -> frozenset:
        """All short subsets containing the anchor (the down-set of the
        genes), read off the shortness bitset."""
        anchor = 1 << (self.edge_count - 1)
        return frozenset(_mask_set(anchor | s) for s in _bits(self._short))

    def short_table(self) -> list[bool]:
        """Whether each subset of the edges is short, indexed by mask (bit
        ``i - 1`` for edge ``i``): the one view of the bitset that other
        modules read.  A set without the anchor is short when its
        complement, an anchor set, is long."""
        # bits[t]: the bit of the complement of the set t without the anchor
        bits = format(self._short, f"0{1 << (self.edge_count - 1)}b")
        return [c == "0" for c in bits] + [c == "1" for c in reversed(bits)]

    def short_sets(self) -> frozenset:
        """Every short subset of the edges, read off :meth:`short_table`."""
        return frozenset(
            _mask_set(t) for t, short in enumerate(self.short_table()) if short
        )

    def __str__(self) -> str:
        return format_code(self)


def minimal_code(edge_count: int) -> GeneticCode:
    """The smallest nonempty code: only the anchor itself is short."""
    return GeneticCode(edge_count, [{edge_count}])


def _code_of(edge_count: int, short: int) -> GeneticCode:
    """The code of a downward-closed shortness bitset, taken as it is: the
    callers close it, so nothing is checked."""
    code = object.__new__(GeneticCode)
    object.__setattr__(code, "edge_count", edge_count)
    object.__setattr__(code, "_short", short)
    return code


def genetic_code(lengths: Union[LengthVector, Iterable[RationalLike]]) -> GeneticCode:
    """The genetic code of a (generic) length vector.

    Tests every anchor set for shortness: entry ``s`` of the subset-sum
    table of the edges below the anchor sums the edges of mask ``s`` and
    gives bit ``s`` of the code's shortness bitset.
    """
    vec = lengths if isinstance(lengths, LengthVector) else LengthVector(lengths)
    ints = _scaled(vec.values)
    sums = _subset_sums(ints[:-1])
    # 2 * (sums[s] + anchor length) < perimeter
    room = sum(ints) - 2 * ints[-1]
    short = int("".join(["1" if 2 * s < room else "0" for s in reversed(sums)]), 2)
    return _code_of(vec.edge_count, short)


# ---------------------------------------------------------------------------
# The partial order on codes, covers, saturated chains.
# ---------------------------------------------------------------------------


def minimal_long_sets(code: GeneticCode) -> tuple[Gene, ...]:
    """Minimal anchor-containing long sets, sorted by ascending element tuple.

    A long set is minimal when every downward cover is short.  These are
    exactly the sets whose addition to the short system yields an upward
    cover of the code, and the only long constraints a realization needs.
    They are read off the code's shortness bitset: the long sets that no
    down-move takes to a long set.
    """
    m = code.edge_count
    anchor = 1 << (m - 1)
    long = code._short ^ ((1 << anchor) - 1)
    minimal = long
    for pattern, shift in _down_moves(m):
        minimal &= ~(pattern & (long << shift))
    out = [_mask_set(anchor | s) for s in _bits(minimal)]
    return tuple(sorted(out, key=sorted))


def up_covers(code: GeneticCode) -> tuple[GeneticCode, ...]:
    """Codes directly above: one new short set (a minimal long) is adjoined."""
    m, short = code.edge_count, code._short
    anchor = 1 << (m - 1)
    return tuple(
        _code_of(m, short | 1 << (_set_mask(t) - anchor))
        for t in minimal_long_sets(code)
    )


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
    system of the target.  Among anchor sets that tuple order is the order
    of the masks, and every up-move raises the mask, so the gene dropped is
    the highest set bit of the shortness bitset: the chain's codes are the
    bitset's prefixes, cut after each set bit.  Codes with more than
    ``MAX_CHAIN_SHORT_SETS`` anchor short sets are refused before the
    descent.
    """
    if code.is_empty_space():
        return SaturatedChain((code,), ())
    m, short = code.edge_count, code._short
    count = short.bit_count()
    if count > MAX_CHAIN_SHORT_SETS:
        raise TooLargeError(
            f"{format_code(code)} has {count} anchor short sets; "
            f"chains are built for at most {MAX_CHAIN_SHORT_SETS}"
        )
    anchor = 1 << (m - 1)
    sets = list(_bits(short))
    return SaturatedChain(
        tuple(_code_of(m, short & ((2 << s) - 1)) for s in sets),
        tuple(_mask_set(anchor | s) for s in sets[1:]),
    )


def surgery_signature(chain: SaturatedChain) -> tuple[int, ...]:
    """Sphere dimensions met along a saturated chain: size of each added
    set minus two."""
    return tuple(len(j) - 2 for j in chain.added_sets)


def enumerate_codes(edge_count: int) -> list[GeneticCode]:
    """All genetic codes at the given edge count (every domination antichain).

    A depth-first walk over the anchor sets in (size, ascending tuple)
    order adjoins each set that is incomparable with every set chosen so
    far.  Comparability is read off the bitset over the anchor sets: a
    set's mask is its down-closure OR'd with its up-closure, the transpose
    of the down-closures (``t`` lies above ``s`` exactly when ``s`` lies in
    the down-closure of ``t``), and the walk carries the OR of the chosen
    sets' masks and the OR of their down-closures, the code's bitset.
    Exponential; refuses edge counts below one or above a small cap.
    """
    if not _is_int(edge_count) or edge_count < 1:
        raise InvalidCodeError(f"bad edge count: {edge_count!r}")
    if edge_count > MAX_EDGES_ENUMERATE:
        raise GroundSetTooLargeError(
            f"code enumeration supports at most {MAX_EDGES_ENUMERATE} edges"
        )
    anchor = 1 << (edge_count - 1)
    down = [_closure(edge_count, 1 << s) for s in range(anchor)]
    comparable = [
        d | sum(1 << t for t in range(anchor) if down[t] >> s & 1)
        for s, d in enumerate(down)
    ]
    order = sorted(
        range(anchor), key=lambda s: (s.bit_count(), tuple(_bits(s)))
    )
    out: list[GeneticCode] = []

    def extend(start: int, short: int, blocked: int) -> None:
        out.append(_code_of(edge_count, short))
        for i in range(start, anchor):
            s = order[i]
            if not blocked >> s & 1:
                extend(i + 1, short | down[s], blocked | comparable[s])

    extend(0, 0, 0)
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
) -> tuple[int, list[int], int]:
    """Maximize ``objective . x`` over ``rows . x <= rhs``, ``x >= 0``, for
    integer input with every ``rhs >= 0``.

    The origin is then a feasible vertex, basic in the slacks, so one phase
    of Bland's rule runs from it over the labels ``0..n-1`` of ``x`` and
    ``n + i`` of the slack of row ``i`` (ratio ties go to the smaller
    label): it terminates on these degenerate LPs and is deterministic.
    Returns ``(value, x, D)``: integer numerators over one denominator
    ``D > 0``.  A negative right-hand side raises an audit error, as does an
    unbounded objective: the callers' regions are bounded.

    The tableau is condensed (Tucker): a row per basic variable, a column
    per nonbasic one and the right-hand side, so the basic columns, ``D``
    times unit vectors, are never stored.  Its integer entries ``T`` stand
    for ``T / D``, with ``D = 1`` at the start.  A pivot on
    ``p = T[r][c] > 0`` swaps the labels of row ``r`` and column ``c`` and
    replaces every entry outside them, the objective row included, by
    ``(p * T[i][j] - T[i][c] * T[r][j]) // D``; column ``c`` becomes the
    leaving variable's: the old ``D`` in row ``r`` and ``-T[i][c]`` in every
    other row.  Row ``r`` keeps the rest, and ``D`` becomes ``p``.  The
    division is exact (Bareiss): ``D`` is the determinant of the current
    basis matrix ``B``, so ``T`` is ``adj(B)`` applied to the integer
    input.  Signs, zero tests and the ratio test do not see ``D``, so the
    pivots are those of the rational tableau.
    """
    if any(b < 0 for b in rhs):
        raise AuditError("negative right-hand side: the origin is infeasible")
    n = len(objective)
    tableau = [[*row, b] for row, b in zip(rows, rhs)]
    basic = [n + i for i in range(len(rows))]
    nonbasic = list(range(n))
    # the objective row in canonical form: z + sum(row[j] * x_j) = row[-1]
    z_row = [*(-c for c in objective), 0]
    every_row = tableau + [z_row]
    denom = 1
    while True:
        entering = [j for j in range(n) if z_row[j] < 0]
        if not entering:
            break
        c = min(entering, key=nonbasic.__getitem__)
        best = None
        for i, row in enumerate(tableau):
            coef = row[c]
            num = row[-1]
            # the key (num / coef, basic[i]), ratios cross-multiplied
            if coef > 0 and (
                best is None
                or (num * best[1], basic[i]) < (best[0] * coef, basic[best[2]])
            ):
                best = (num, coef, i)
        if best is None:
            raise AuditError("objective unbounded on a bounded polytope")
        _, p, r = best
        prow = tableau[r]
        for row in every_row:
            if row is prow:
                continue
            f = row[c]
            if f:
                row[:] = [(p * v - f * w) // denom for v, w in zip(row, prow)]
                row[c] = -f
            else:
                row[:] = [p * v // denom for v in row]
        prow[c] = denom
        denom = p
        basic[r], nonbasic[c] = nonbasic[c], basic[r]
    x = [0] * n
    for var, row in zip(basic, tableau):
        if var < n:
            x[var] = row[-1]
    return z_row[-1], x, denom


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
    edge coefficients ``a_i`` takes ``a_j + ... + a_m`` on ``y_j``, which
    for a set of edges with mask ``mask`` and ``a_i = 2 [i in set] - 1`` is
    ``2 * (mask >> (j - 1)).bit_count() - (m - j + 1)``; ``t <= x_1``
    becomes ``t <= y_1``.  The optimum's numerators are summed and divided
    by their gcd into a canonical integer vector, which is round-tripped
    through :func:`genetic_code` as a self-check.
    """
    m = code.edge_count
    if m > MAX_EDGES_REALIZE:
        raise GroundSetTooLargeError(
            f"realization supports at most {MAX_EDGES_REALIZE} edges"
        )

    def row(mask: int, sign: int) -> list[int]:
        # sign * (2 x(set) - P) + t on y_1..y_m, then on t
        counts = [2 * (mask >> j).bit_count() - (m - j) for j in range(m)]
        return [sign * c for c in counts] + [1]

    # P <= 1, and t <= y_1 = x_1, which keeps every length positive
    rows = [[m - j for j in range(m)] + [0], [-1] + [0] * (m - 1) + [1]]
    rows += [row(_set_mask(gene), 1) for gene in code.genes]
    rows += [row(_set_mask(t), -1) for t in minimal_long_sets(code)]
    value, y, _ = _simplex_max([0] * m + [1], rows, [1] + [0] * (len(rows) - 1))
    if value <= 0:
        return None
    ints = list(itertools.accumulate(y[:m]))
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


def _ascii_digits(text: str) -> bool:
    """True when ``text`` is a nonempty run of the digits ``0-9``: no
    other Unicode digit, sign, underscore or space, all of which ``int``
    takes."""
    return text.isascii() and text.isdecimal()


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
    per digit) or a bracketed list for multi-digit elements, which may have
    spaces around them.  Only the ASCII digits ``0-9`` are digits.  The edge
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
                parts = [p.strip() for p in token[1:-1].split(",")]
            else:
                parts = list(token)
            if not all(map(_ascii_digits, parts)):
                raise InvalidCodeError(f"bad gene token {token!r}")
            genes.append(tuple(map(int, parts)))
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
