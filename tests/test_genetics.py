"""Genetic codes: vectors, domination, chains, realization."""

import itertools
import json
import math
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polygonspaces import genetics
from polygonspaces.cli import main
from polygonspaces.errors import (
    AuditError,
    GroundSetTooLargeError,
    InvalidCodeError,
    NonGenericError,
    TooLargeError,
)
from polygonspaces.genetics import (
    GeneticCode,
    LengthVector,
    SaturatedChain,
    _simplex_max,
    enumerate_codes,
    format_code,
    genetic_code,
    minimal_code,
    minimal_long_sets,
    parse_code,
    realize,
    saturated_chain,
    surgery_signature,
    up_covers,
)


def code(text: str, m: int | None = None) -> GeneticCode:
    return parse_code(text, edge_count=m)


# --- length vectors -------------------------------------------------------


def test_vector_canonicalizes_order():
    v = LengthVector((5, 1, 2))
    assert v.values == (Fraction(1), Fraction(2), Fraction(5))
    assert v.edge_count == 3
    assert sum(v.values) == 8


def test_vector_accepts_ints_and_fractions():
    v = LengthVector([Fraction(1, 2), Fraction(5, 2), 1])
    assert v.values == (Fraction(1, 2), Fraction(1), Fraction(5, 2))


def test_non_generic_reports_witness():
    with pytest.raises(NonGenericError) as err:
        LengthVector((1, 1, 2))
    assert err.value.details["witness"] == (1, 2)
    assert err.value.code == "NON_GENERIC"


def test_non_generic_equilateral_square():
    with pytest.raises(NonGenericError) as err:
        LengthVector((1, 1, 1, 1))
    assert err.value.details["witness"] == (1, 2)


def test_vector_rejects_nonpositive_and_empty():
    with pytest.raises(InvalidCodeError):
        LengthVector((0, 1, 2))
    with pytest.raises(InvalidCodeError):
        LengthVector(())


def test_vector_rejects_too_many_edges():
    with pytest.raises(GroundSetTooLargeError):
        LengthVector([1] * 17)


def short_sets(v: LengthVector) -> set[frozenset]:
    """Test oracle: every edge subset summing to less than half the
    perimeter."""
    ground = range(1, v.edge_count + 1)
    return {
        frozenset(combo)
        for r in range(v.edge_count + 1)
        for combo in itertools.combinations(ground, r)
        if 2 * sum(v.values[i - 1] for i in combo) < sum(v.values)
    }


def test_vector_is_short():
    v = LengthVector((1, 1, 1, 1, 3))
    shorts = short_sets(v)
    assert frozenset({5}) in shorts
    assert frozenset({1, 5}) not in shorts
    assert frozenset() in shorts
    assert frozenset({1, 2, 3, 4, 5}) not in shorts
    # the code keeps exactly the short sets that contain the anchor edge 5
    assert genetic_code(v).anchor_short_sets() == {frozenset({5})}


# --- domination order ------------------------------------------------------


def dominance_leq(lower, upper) -> bool:
    """The domination order ``lower <= upper``, the reference: ``lower``
    has at most as many elements and, both sorted descending, each entry
    of ``lower`` is at most the matching entry of ``upper``."""
    lo, up = sorted(lower, reverse=True), sorted(upper, reverse=True)
    return len(lo) <= len(up) and all(a <= b for a, b in zip(lo, up))


def anchor_sets(m: int):
    """Every subset of the edges 1..m that contains the anchor m, by
    size."""
    for r in range(m):
        for combo in itertools.combinations(range(1, m), r):
            yield frozenset(combo) | {m}


def test_dominance_examples():
    assert dominance_leq({6}, {2, 5, 6})
    assert dominance_leq({2, 6}, {1, 3, 6})
    assert not dominance_leq({4, 6}, {2, 3, 6})
    assert not dominance_leq({1, 2, 6}, {4, 6})
    assert dominance_leq({1, 2, 6}, {1, 3, 6})
    assert dominance_leq(set(), {1})


small_sets = st.frozensets(st.integers(1, 8), max_size=6)


@given(small_sets, small_sets, small_sets)
def test_dominance_is_a_partial_order(a, b, c):
    assert dominance_leq(a, a)
    if dominance_leq(a, b) and dominance_leq(b, a):
        assert a == b
    if dominance_leq(a, b) and dominance_leq(b, c):
        assert dominance_leq(a, c)


@given(
    st.lists(st.integers(1, 9), min_size=3, max_size=7),
    small_sets,
    small_sets,
)
def test_dominance_forces_sum_comparison(raw, a, b):
    """The reason short sets are a down-set: domination implies smaller sum."""
    try:
        v = LengthVector(raw)
    except NonGenericError:
        assume(False)
    ground = frozenset(range(1, v.edge_count + 1))
    a, b = a & ground, b & ground
    if dominance_leq(a, b):
        assert sum(v.values[i - 1] for i in a) <= sum(v.values[i - 1] for i in b)


# --- genetic codes of vectors ----------------------------------------------


@pytest.mark.parametrize(
    "lengths, expected",
    [
        ((1, 1, 1, 1, 1), "<45>"),
        ((1, 2, 3, 3, 4), "<25>"),
        ((1, 1, 1, 1, 3), "<5>"),
        ((1, 1, 3, 3, 3), "<125>"),
        ((1, 3, 3, 3, 5), "<15>"),
        ((1, 1, 2, 2, 2, 5), "<26>"),
        ((1, 1, 4, 4, 4, 9), "<126>"),
        ((1, 4, 4, 8, 8, 10), "<136>"),
        ((1, 2, 2, 5, 5, 6), "<236>"),
        ((1, 1, 5), "<>"),
        ((1, 1, 1, 4, 4), "<35>"),
    ],
)
def test_genetic_code_of_known_vectors(lengths, expected):
    got = genetic_code(lengths)
    assert format_code(got) == expected


def test_code_constructor_canonicalizes_gene_order():
    c = GeneticCode(6, [{2, 4, 6}, {1, 5, 6}])
    assert c.genes == (frozenset({1, 5, 6}), frozenset({2, 4, 6}))


def test_code_constructor_rejects_bad_input():
    with pytest.raises(InvalidCodeError):
        GeneticCode(5, [{1, 5}, {5}])  # comparable genes
    with pytest.raises(InvalidCodeError):
        GeneticCode(5, [{1, 2}])  # anchor missing
    with pytest.raises(InvalidCodeError):
        GeneticCode(5, [{1, 7}])  # out of range
    with pytest.raises(InvalidCodeError):
        GeneticCode(0, [])


@pytest.mark.parametrize(
    "element", [4.9, 4.0, Fraction(4), Fraction(9, 2), "4", b"4", True]
)
def test_code_constructor_refuses_gene_elements_that_are_not_ints(element):
    # int() would read each of these, 4.9 as 4: the code <45>, and True
    # as 1: the code <15>
    with pytest.raises(InvalidCodeError, match="not an integer"):
        GeneticCode(5, [[element, 5]])


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: GeneticCode(5, [5]), id="gene-not-iterable"),
        pytest.param(lambda: GeneticCode(True, [[1]]), id="bool-edge-count"),
        pytest.param(lambda: enumerate_codes(True), id="bool-enumerate"),
        pytest.param(lambda: LengthVector([True, 1, 1]), id="bool-length"),
    ],
)
def test_bools_and_bare_ints_are_no_codes_or_lengths(build):
    # a bool is refused wherever an int is read, and a bare int is no gene
    with pytest.raises(InvalidCodeError):
        build()


@pytest.mark.parametrize(
    "build, error, match, argv",
    [
        pytest.param(
            lambda: GeneticCode(5, [[5], [5]]), InvalidCodeError,
            "duplicate gene", ["chain", "<5,5>"], id="duplicate-gene",
        ),
        pytest.param(
            lambda: GeneticCode(17, [[17]]), GroundSetTooLargeError,
            "at most 16 edges", ["chain", "<[17]>"], id="edges-past-max",
        ),
        pytest.param(
            lambda: LengthVector(["1/2", 1, 1]), InvalidCodeError,
            "not an exact rational", None, id="string-length",
        ),
        pytest.param(
            lambda: LengthVector([0.5, 1, 1]), InvalidCodeError,
            "not an exact rational", None, id="float-length",
        ),
    ],
)
def test_genetics_refusals(build, error, match, argv, capsys):
    with pytest.raises(error, match=match):
        build()
    if argv is not None:
        assert main(argv) == 2
        assert f"error [{error.code}]" in capsys.readouterr().err


@given(st.lists(st.integers(1, 11), min_size=3, max_size=7))
@settings(max_examples=80)
def test_code_reconstructs_every_short_set(raw):
    try:
        v = LengthVector(raw)
    except NonGenericError:
        assume(False)
    m = v.edge_count
    shorts = short_sets(v)
    anchored = genetic_code(v).anchor_short_sets()
    assert anchored == {s for s in shorts if m in s}
    # a set avoiding the anchor is short iff its complement is long
    ground = frozenset(range(1, m + 1))
    for s in shorts:
        if m not in s:
            assert ground - s not in anchored, s
    assert len(shorts) == 2 ** (m - 1)


@given(st.lists(st.integers(1, 11), min_size=3, max_size=7))
@settings(max_examples=50)
def test_genes_are_maximal_short_sets(raw):
    try:
        v = LengthVector(raw)
    except NonGenericError:
        assume(False)
    c = genetic_code(v)
    m = v.edge_count
    shorts = short_sets(v)
    for gene in c.genes:
        assert gene in shorts
        if 1 not in gene:
            assert gene | {1} not in shorts
        for g in gene:
            if g < m and g + 1 not in gene:
                assert (gene - {g}) | {g + 1} not in shorts


def test_non_generic_fractions_report_the_first_witness():
    # 1/6 + 1/3 + 1/2 = 1 is half the perimeter 2, and so is the 1 alone
    with pytest.raises(NonGenericError) as err:
        LengthVector((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6), 1))
    assert err.value.details["witness"] == (1, 2, 3)


@st.composite
def rational_lengths(draw) -> list[Fraction]:
    """Up to seven positive lengths with mixed denominators.  Half the
    draws are tied: the last length becomes the gap between the two sides
    of a split of the others, so one subset sums to half the perimeter."""
    fractions = st.builds(Fraction, st.integers(1, 24), st.integers(1, 12))
    values = draw(st.lists(fractions, min_size=1, max_size=7))
    if draw(st.booleans()):
        rest = len(values) - 1
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=rest,
                              max_size=rest))
        gap = abs(sum(s * v for s, v in zip(signs, values)))
        if gap:
            values[-1] = gap
    return values


@given(rational_lengths())
@settings(max_examples=200)
@example([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6), Fraction(1)])
@example([Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1)])
def test_rational_lengths_match_fraction_arithmetic(lengths):
    """Oracle: every subset summed and compared as ``Fraction``s.  A tie
    with half the perimeter must be refused with the lexicographically
    first tied subset; otherwise the code's short sets are exactly the
    subsets below half the perimeter."""
    values = sorted(lengths)
    total = sum(values)
    subsets = [
        combo
        for r in range(1, len(values) + 1)
        for combo in itertools.combinations(range(1, len(values) + 1), r)
    ]
    doubled = {s: 2 * sum(values[i - 1] for i in s) for s in subsets}
    ties = [s for s in subsets if doubled[s] == total]
    if ties:
        with pytest.raises(NonGenericError) as err:
            genetic_code(lengths)
        assert err.value.details["witness"] == min(ties)
        return
    shorts = {frozenset(s) for s in subsets if doubled[s] < total}
    assert genetic_code(lengths).short_sets() == shorts | {frozenset()}


def reference_half_perimeter_subset(values) -> tuple[int, ...] | None:
    """The recursive walk over the ascending ``values``: index tuples depth
    first, in lexicographic order, a branch cut once its doubled sum passes
    the total."""
    ints = genetics._scaled(values)
    total = sum(ints)

    def walk(start, acc, chosen):
        for i in range(start, len(ints)):
            doubled = 2 * (acc + ints[i])
            if doubled == total:
                return chosen + (i + 1,)
            if doubled > total:
                break  # later picks are no smaller
            found = walk(i + 1, acc + ints[i], chosen + (i + 1,))
            if found is not None:
                return found
        return None

    return walk(0, 0, ())


def test_non_generic_witness_is_the_first_index_tuple():
    # 1 + 4 and 2 + 3 are both 5: the first tuple, not the smallest mask
    with pytest.raises(NonGenericError) as err:
        LengthVector((1, 2, 3, 4))
    assert err.value.details["witness"] == (1, 4)


@given(rational_lengths())
@settings(max_examples=200)
@example([1, 2, 3, 4])
@example([Fraction(1, 2)] * 8 + [Fraction(1, 3)] * 6 + [Fraction(5, 4)] * 2)
def test_witness_matches_the_recursive_walk(lengths):
    """The subset-sum table gives the walk's witness, or none with it."""
    values = tuple(sorted(map(Fraction, lengths)))
    witness = reference_half_perimeter_subset(values)
    assert genetics._find_half_perimeter_subset(values) == witness
    if witness is None:
        assert LengthVector(lengths).values == values
        return
    with pytest.raises(NonGenericError) as err:
        LengthVector(lengths)
    assert err.value.details["witness"] == witness


# --- the frozenset walks that the shortness bitset replaced -----------------


def dominance_up_covers(s: frozenset, anchor: int):
    """Immediate successors of ``s`` among anchor-containing subsets."""
    if 1 not in s:
        yield s | {1}
    for g in s:
        if g < anchor and g + 1 not in s:
            yield (s - {g}) | {g + 1}


def dominance_down_covers(s: frozenset, anchor: int):
    """Immediate predecessors of ``s`` among anchor-containing subsets:
    dropping edge 1 is none when edge 1 is the anchor."""
    if 1 in s and anchor > 1:
        yield s - {1}
    for g in s:
        if g != anchor and g > 1 and g - 1 not in s:
            yield (s - {g}) | {g - 1}


def maximal_in_downset(sets: frozenset) -> frozenset:
    """Maximal elements of a downward-closed family of anchor sets."""
    if not sets:
        return frozenset()
    anchor = max(max(s) for s in sets)
    return frozenset(
        s
        for s in sets
        if not any(c in sets for c in dominance_up_covers(s, anchor))
    )


def reference_anchor_short_sets(g: GeneticCode) -> frozenset:
    """The down-set of the genes, walked down the dominance covers."""
    anchor = g.edge_count
    seen = set(g.genes)
    stack = list(g.genes)
    while stack:
        for s in dominance_down_covers(stack.pop(), anchor):
            if s not in seen:
                seen.add(s)
                stack.append(s)
    return frozenset(seen)


def reference_short_sets(g: GeneticCode) -> frozenset:
    """The walked anchor short sets and the complement of each long
    anchor set."""
    shorts = reference_anchor_short_sets(g)
    ground = frozenset(range(1, g.edge_count + 1))
    return shorts.union(
        ground - s for s in anchor_sets(g.edge_count)
        if s not in shorts
    )


def reference_saturated_chain(g: GeneticCode) -> SaturatedChain:
    """The descent on frozensets: drop the gene with the largest
    descending tuple and adjoin those of its down-covers that have no
    short up-cover left, after the same size cap."""
    if g.is_empty_space():
        return SaturatedChain((g,), ())
    m = g.edge_count
    shorts = set(reference_anchor_short_sets(g))
    if len(shorts) > genetics.MAX_CHAIN_SHORT_SETS:
        raise TooLargeError(
            f"{format_code(g)} has {len(shorts)} anchor short sets; "
            f"chains are built for at most {genetics.MAX_CHAIN_SHORT_SETS}"
        )
    bottom = minimal_code(m)
    codes, removed = [g], []
    genes = set(g.genes)
    while codes[-1] != bottom:
        gene = max(genes, key=lambda h: tuple(sorted(h, reverse=True)))
        removed.append(gene)
        shorts.remove(gene)
        genes.remove(gene)
        genes.update(
            c
            for c in dominance_down_covers(gene, m)
            if not any(u in shorts for u in dominance_up_covers(c, m))
        )
        codes.append(GeneticCode(m, genes))
    return SaturatedChain(tuple(reversed(codes)), tuple(reversed(removed)))


def reference_genetic_code(lengths) -> GeneticCode:
    """Every anchor set as a frozenset, summed on its own."""
    vec = LengthVector(lengths)
    ints = genetics._scaled(vec.values)
    shorts = {
        s
        for s in anchor_sets(vec.edge_count)
        if 2 * sum(ints[i - 1] for i in s) < sum(ints)
    }
    return GeneticCode(vec.edge_count, maximal_in_downset(frozenset(shorts)))


def reference_minimal_long_sets(g: GeneticCode) -> tuple[frozenset, ...]:
    """The long anchor sets whose down-covers all lie in the walked
    anchor short sets, as frozensets."""
    m = g.edge_count
    shorts = reference_anchor_short_sets(g)
    out = [
        s
        for s in anchor_sets(m)
        if s not in shorts
        and all(c in shorts for c in dominance_down_covers(s, m))
    ]
    return tuple(sorted(out, key=lambda s: sorted(s)))


def chain_outcome(chain, g):
    """The chain, or the type and message of the refusal."""
    try:
        return chain(g)
    except TooLargeError as err:
        return type(err), str(err)


def assert_matches_references(g: GeneticCode) -> None:
    """The bitset answers of one code equal the frozenset walks: minimal
    long sets and chains in order, refusals included."""
    assert minimal_long_sets(g) == reference_minimal_long_sets(g), g
    assert g.anchor_short_sets() == reference_anchor_short_sets(g), g
    assert g.short_sets() == reference_short_sets(g), g
    assert chain_outcome(saturated_chain, g) == chain_outcome(
        reference_saturated_chain, g
    ), g


def seeded_draws(count=120, sizes=(8, 9, 10), seed=5) -> list[tuple[int, ...]]:
    """Seeded integer length vectors, by default 120 of 8 to 10 edges, with
    odd perimeters, so each is generic."""
    rng = random.Random(seed)
    draws = []
    for _ in range(count):
        m = rng.choice(sizes)
        while True:
            lengths = tuple(rng.randint(1, 3 * m) for _ in range(m))
            if sum(lengths) % 2:
                draws.append(lengths)
                break
    return draws


def test_mask_scans_match_the_frozenset_scans():
    """Every code with m <= 7, m = 1 and 2 among them (at one edge {1} has
    no down-cover, so it is the minimal long set of the empty code), the
    codes of the seeded m = 8..10 draws and of two seeded draws at
    ``MAX_EDGES``: the bitset answers equal the frozenset walks, and each
    realized vector and each draw gives the same code as the frozenset
    scan."""
    pinned = json.loads(
        (pathlib.Path(__file__).parent / "fixtures" / "realize_m7.json")
        .read_text()
    )
    widest = seeded_draws(2, (genetics.MAX_EDGES,), seed=16)
    vectors = [v for v in pinned.values() if v is not None]
    vectors += seeded_draws() + widest + [(1,), (1, 3), (2, 3, 4)]
    drawn = [genetic_code(v) for v in seeded_draws() + widest]
    codes = [
        g for m in range(1, genetics.MAX_EDGES_ENUMERATE + 1)
        for g in enumerate_codes(m)
    ]
    assert {g.edge_count for g in codes + drawn} == {*range(1, 11), 16}
    for g in codes + drawn:
        assert_matches_references(g)
    for v in vectors:
        assert genetic_code(v) == reference_genetic_code(v), v


def assert_round_trips(g: GeneticCode) -> None:
    """A code is the validated code of its genes, on the same bitset, and
    that bitset is closed downward."""
    m = g.edge_count
    again = GeneticCode(m, g.genes)
    assert again == g and again._short == g._short, g
    assert genetics._closure(m, g._short) == g._short, g


def test_built_codes_are_the_codes_of_their_genes():
    """The codes that ``genetics`` builds from a bitset with no check round
    trip through the checked constructor: every code with m <= 7, the codes
    of the seeded m = 8..10 draws, every up-cover and saturated chain member
    of those, and the codes of two seeded draws at ``MAX_EDGES``."""
    codes = [
        g for m in range(1, genetics.MAX_EDGES_ENUMERATE + 1)
        for g in enumerate_codes(m)
    ]
    codes += [genetic_code(v) for v in seeded_draws()]
    built = set(codes)
    for g in codes:
        built.update(up_covers(g))
        built.update(saturated_chain(g).codes)
    widest = seeded_draws(2, (genetics.MAX_EDGES,), seed=16)
    built.update(genetic_code(v) for v in widest)
    for g in built:
        assert_round_trips(g)


def test_equality_is_equality_of_genes():
    """Equality and hashing on the edge count and bitset agree with
    equality of the gene tuples, on every pair of m <= 5 codes, each built
    from its bitset and from its genes."""
    enumerated = [g for m in range(1, 6) for g in enumerate_codes(m)]
    codes = enumerated + [GeneticCode(g.edge_count, g.genes) for g in enumerated]
    for g, h in itertools.product(codes, repeat=2):
        same = (g.edge_count, g.genes) == (h.edge_count, h.genes)
        assert (g == h) == same, (g, h)
        if same:
            assert hash(g) == hash(h), (g, h)


def test_antichain_check_matches_dominance_leq():
    """The constructor closes the genes on the shortness bitset and names
    the first comparable pair from their down-sets; testing every pair with
    ``dominance_leq`` refuses the same gene lists, naming the same first
    comparable pair."""
    for m in range(1, 6):
        for r in (2, 3):
            for genes in itertools.combinations(anchor_sets(m), r):
                ordered = sorted(genes, key=sorted)
                pair = next(
                    (
                        (a, b)
                        for a, b in itertools.combinations(ordered, 2)
                        if dominance_leq(a, b) or dominance_leq(b, a)
                    ),
                    None,
                )
                if pair is None:
                    assert GeneticCode(m, genes).genes == tuple(ordered)
                    continue
                with pytest.raises(InvalidCodeError) as err:
                    GeneticCode(m, genes)
                assert str(err.value) == (
                    f"genes {sorted(pair[0])} and {sorted(pair[1])} are "
                    "comparable; a code must be an antichain"
                )


# --- the order on codes, covers, chains -------------------------------------


@pytest.mark.parametrize("m", [4, 5])
def test_up_covers_are_the_one_set_extensions(m):
    # brute force over every code: h covers g exactly when its anchor
    # short sets are those of g and one more
    codes = enumerate_codes(m)
    shorts = {c: c.anchor_short_sets() for c in codes}
    for g in codes:
        got = up_covers(g)
        assert len(set(got)) == len(got)
        assert set(got) == {
            h
            for h in codes
            if shorts[g] < shorts[h] and len(shorts[h]) == len(shorts[g]) + 1
        }


def test_minimal_long_sets_examples():
    assert minimal_long_sets(code("<5>")) == (frozenset({1, 5}),)
    assert minimal_long_sets(code("<45>")) == (frozenset({1, 2, 5}),)


def test_up_covers_example():
    assert up_covers(code("<5>")) == (GeneticCode(5, [{1, 5}]),)
    assert up_covers(code("<45>")) == (GeneticCode(5, [{4, 5}, {1, 2, 5}]),)


def test_up_covers_of_the_empty_code_at_one_edge():
    # {1} has no down-cover at one edge, so it is the empty code's one
    # minimal long set, as {2} is at two
    assert up_covers(GeneticCode(1, [])) == (minimal_code(1),)
    assert up_covers(GeneticCode(2, [])) == (minimal_code(2),)
    assert up_covers(minimal_code(1)) == ()


def test_saturated_chain_m6_fully():
    chain = saturated_chain(code("<256>"))
    assert [format_code(c) for c in chain.codes] == [
        "<6>",
        "<16>",
        "<26>",
        "<126>",
        "<126,36>",
        "<136>",
        "<236>",
        "<236,46>",
        "<146,236>",
        "<246>",
        "<246,56>",
        "<156,246>",
        "<256>",
    ]
    assert [sorted(s) for s in chain.added_sets] == [
        [1, 6],
        [2, 6],
        [1, 2, 6],
        [3, 6],
        [1, 3, 6],
        [2, 3, 6],
        [4, 6],
        [1, 4, 6],
        [2, 4, 6],
        [5, 6],
        [1, 5, 6],
        [2, 5, 6],
    ]


def test_saturated_chain_m5_examples():
    chain = saturated_chain(code("<125>"))
    assert [format_code(c) for c in chain.codes] == [
        "<5>",
        "<15>",
        "<25>",
        "<125>",
    ]
    assert [sorted(s) for s in chain.added_sets] == [[1, 5], [2, 5], [1, 2, 5]]

    chain = saturated_chain(code("<45>"))
    assert [sorted(s) for s in chain.added_sets] == [
        [1, 5],
        [2, 5],
        [3, 5],
        [4, 5],
    ]


def test_saturated_chain_matches_a_rebuilding_descent():
    """The descent reads each step's new genes off the dropped gene's
    down-covers; rebuilding the short system at every step, as a
    reference, gives the same chain on every code up to m = 6."""

    def rebuilt(g):
        codes, removed = [g], []
        while g != minimal_code(g.edge_count):
            gene = max(g.genes, key=lambda h: sorted(h, reverse=True))
            removed.append(gene)
            shorts = reference_anchor_short_sets(g) - {gene}
            g = GeneticCode(g.edge_count, maximal_in_downset(shorts))
            codes.append(g)
        return SaturatedChain(tuple(reversed(codes)), tuple(reversed(removed)))

    for m in range(1, 7):
        for g in enumerate_codes(m):
            if not g.is_empty_space():
                assert saturated_chain(g) == rebuilt(g), format_code(g)


def test_saturated_chain_caps_the_short_system():
    # every anchor set of 10 edges is short: 2**9 = 512 of them, admitted
    chain = saturated_chain(code("<[1,2,3,4,5,6,7,8,9,10]>"))
    assert len(chain.codes) == genetics.MAX_CHAIN_SHORT_SETS == 512
    # 2**12 anchor short sets on 16 edges: refused before the descent
    with pytest.raises(TooLargeError, match="4096 anchor short sets"):
        saturated_chain(code("<[1,2,3,4,5,6,7,8,9,10,11,12,16]>"))


def test_surgery_signatures():
    def signature(text):
        return surgery_signature(saturated_chain(code(text)))

    assert signature("<125>") == (0, 0, 1)
    assert signature("<45>") == (0, 0, 0, 0)
    assert signature("<256>") == (
        0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1,
    )


def test_chain_structure_for_every_m5_code():
    for g in enumerate_codes(5):
        chain = saturated_chain(g)
        assert isinstance(chain, SaturatedChain)
        assert chain.codes[-1] == g
        if g.is_empty_space():
            assert chain == SaturatedChain((g,), ())
            continue
        assert chain.codes[0] == minimal_code(5)
        assert len(chain.codes) == len(g.anchor_short_sets())
        for lower, upper, added in zip(
            chain.codes, chain.codes[1:], chain.added_sets
        ):
            below, above = lower.anchor_short_sets(), upper.anchor_short_sets()
            assert below < above and above - below == {added}
        gained = set(chain.added_sets) | {frozenset({5})}
        assert gained == set(g.anchor_short_sets())


def test_anchor_short_sets_match_the_dominance_filter():
    # the reference: every anchor set below some gene
    for m in range(1, genetics.MAX_EDGES_ENUMERATE + 1):
        for g in enumerate_codes(m):
            assert g.anchor_short_sets() == {
                s
                for s in anchor_sets(m)
                if any(dominance_leq(s, gene) for gene in g.genes)
            }, g


def test_short_table_matches_the_reference_short_sets():
    """Every code with m <= 7, the empty code among them: the table has
    one flag per subset of the edges, and the flagged masks, read as sets,
    are the anchor short sets walked down the dominance covers and the
    complement of each long anchor set."""
    codes = 0
    for m in range(1, genetics.MAX_EDGES_ENUMERATE + 1):
        for g in enumerate_codes(m):
            table = g.short_table()
            assert len(table) == 1 << m, g
            shorts = {
                frozenset(i + 1 for i in range(m) if t >> i & 1)
                for t, short in enumerate(table)
                if short
            }
            assert shorts == reference_short_sets(g), g
            codes += 1
    assert codes == 2 + 3 + 5 + 10 + 27 + 119 + 1173


def test_short_sets_match_realized_lengths():
    # every subset of every realizable code, against 2 * sum < perimeter
    for m in range(1, 7):
        for g in enumerate_codes(m):
            v = realize(g)
            if v is not None:
                assert g.short_sets() == short_sets(v), g


def reference_enumerate_codes(m: int) -> list[GeneticCode]:
    """Every antichain of anchor sets: a depth-first walk over them in
    (size, ascending tuple) order that adjoins each set incomparable under
    ``dominance_leq`` with every set chosen so far."""
    sets = sorted(anchor_sets(m), key=lambda s: (len(s), sorted(s)))
    out = []

    def extend(start, chosen):
        out.append(GeneticCode(m, chosen))
        for i in range(start, len(sets)):
            s = sets[i]
            if any(dominance_leq(s, c) or dominance_leq(c, s) for c in chosen):
                continue
            chosen.append(s)
            extend(i + 1, chosen)
            chosen.pop()

    extend(0, [])
    return out


@pytest.mark.parametrize("m", range(1, genetics.MAX_EDGES_ENUMERATE + 1))
def test_enumerate_codes_matches_the_reference(m):
    codes = enumerate_codes(m)
    assert codes == reference_enumerate_codes(m)
    assert len(codes) == (2, 3, 5, 10, 27, 119, 1173)[m - 1]


def test_enumerate_codes_counts():
    codes4 = enumerate_codes(4)
    assert len(codes4) == len({c for c in codes4})
    assert minimal_code(4) in codes4
    assert GeneticCode(4, []) in codes4
    with pytest.raises(GroundSetTooLargeError):
        enumerate_codes(8)
    for bad in (0, -1, -5):
        with pytest.raises(InvalidCodeError, match="bad edge count"):
            enumerate_codes(bad)


# --- realization -----------------------------------------------------------


def simplex_fractions(objective, rows, rhs):
    """``_simplex_max`` with its numerators divided by its denominator."""
    value, x, denom = _simplex_max(objective, rows, rhs)
    assert denom > 0
    return Fraction(value, denom), [Fraction(v, denom) for v in x]


def test_simplex_small_cases():
    best = simplex_fractions([1, 1], [[1, 0], [0, 1]], [2, 3])
    assert best == (Fraction(5), [Fraction(2), Fraction(3)])
    best = simplex_fractions([1, 0], [[1, 1], [1, -1]], [4, 1])
    assert best == (Fraction(5, 2), [Fraction(5, 2), Fraction(3, 2)])
    assert best == reference_simplex_max([1, 0], [[1, 1], [1, -1]], [4, 1])
    # the one-phase start needs the origin feasible
    with pytest.raises(AuditError, match="negative right-hand side"):
        _simplex_max([1], [[1]], [-1])
    with pytest.raises(AuditError, match="negative right-hand side"):
        _simplex_max([1, 0], [[1, 1], [-1, -1], [1, -1]], [4, -4, 1])


def reference_simplex_max(objective, rows, rhs):
    """The rational two-phase tableau simplex that the integer one replaced:
    every entry a ``Fraction``, each pivot row divided by its pivot."""
    zero, one = Fraction(0), Fraction(1)
    n = len(objective)
    k = len(rows)
    art_of_row = {}
    n_art = sum(1 for b in rhs if b < 0)
    width = n + k + n_art + 1
    tableau = []
    next_art = n + k
    for i in range(k):
        row = [zero] * width
        flip = -one if rhs[i] < 0 else one
        for j in range(n):
            row[j] = flip * rows[i][j]
        row[n + i] = flip
        row[-1] = flip * rhs[i]
        if rhs[i] < 0:
            row[next_art] = one
            art_of_row[i] = next_art
            next_art += 1
        tableau.append(row)
    basis = [art_of_row.get(i, n + i) for i in range(k)]
    z_row = [zero] * width
    for j in range(n):
        z_row[j] = -objective[j]
    w_row = [zero] * width
    for i, art in art_of_row.items():
        for j in range(width):
            w_row[j] -= tableau[i][j]
        w_row[art] += one

    def pivot(r, c):
        inv = one / tableau[r][c]
        tableau[r] = [v * inv for v in tableau[r]]
        for row in itertools.chain(tableau, (z_row, w_row)):
            if row is tableau[r] or row[c] == 0:
                continue
            f = row[c]
            for j in range(width):
                row[j] -= f * tableau[r][j]

    def iterate(obj, allowed):
        while True:
            enter = next((j for j in range(allowed) if obj[j] < 0), None)
            if enter is None:
                return True
            best = None
            for i in range(k):
                coef = tableau[i][enter]
                if coef > 0:
                    key = (tableau[i][-1] / coef, basis[i])
                    if best is None or key < best[0]:
                        best = (key, i)
            if best is None:
                return False
            pivot(best[1], enter)
            basis[best[1]] = enter

    if n_art:
        if not iterate(w_row, n + k + n_art):
            raise AuditError("phase-1 objective unbounded")
        if w_row[-1] != 0:
            return None
        for i in range(k):
            if basis[i] >= n + k:
                col = next(
                    (j for j in range(n + k) if tableau[i][j] != 0), None
                )
                if col is not None:
                    pivot(i, col)
                    basis[i] = col
    if not iterate(z_row, n + k):
        raise AuditError("objective unbounded on a bounded polytope")
    x = [zero] * n
    for i in range(k):
        if basis[i] < n:
            x[basis[i]] = tableau[i][-1]
    return z_row[-1], x


def outcome(solver, objective, rows, rhs):
    """The solver's answer, or the type and message of the error it raised."""
    try:
        return solver(objective, rows, rhs)
    except AuditError as err:
        return type(err), str(err)


# small integers, zeros included, so ratio ties and degenerate vertices are
# common
small_ints = st.integers(-4, 4)


@st.composite
def bounded_lps(draw):
    """A random integer LP ``max c.x, A x <= b, x >= 0`` with ``b >= 0``,
    so that the origin is feasible, whose first row, all ones, bounds the
    region.  Zero right-hand sides make the origin degenerate, as in
    ``realize``, and a zero bound makes every vertex degenerate."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, 5))
    objective = draw(st.lists(small_ints, min_size=n, max_size=n))
    rows = [[1] * n] + draw(
        st.lists(
            st.lists(small_ints, min_size=n, max_size=n),
            min_size=k,
            max_size=k,
        )
    )
    rhs = [draw(st.integers(0, 4))] + draw(
        st.lists(st.integers(0, 6), min_size=k, max_size=k)
    )
    return objective, rows, rhs


@settings(max_examples=400, deadline=None)
@given(bounded_lps())
# a ratio tie that only the basis index breaks, with the smaller index in
# the later row; the two vertices it can lead to are both optimal
@example(
    (
        [2, 4, 4, 0],
        [[1, 1, 1, 1], [-2, 1, -1, 3], [0, 1, 1, -1], [3, 2, -2, -1]],
        [3, 0, 2, 0],
    )
)
# an LP whose optimal vertex depends on choosing the entering variable by
# its label: after the first pivot a column holds a slack, and taking the
# first column with a negative cost leads to another optimal vertex
@example(
    (
        [1, 2, -1, 1],
        [[1, 1, 1, 1], [2, -3, -1, 3], [-2, 1, 1, -3], [3, 4, 2, 2]],
        [2, 0, 3, 3],
    )
)
def test_simplex_matches_rational_reference(lp):
    expected = outcome(reference_simplex_max, *lp)
    assert outcome(simplex_fractions, *lp) == expected


def test_simplex_matches_reference_on_realize_lps(monkeypatch):
    """Every LP that ``realize`` poses for the nonempty codes with
    3 <= m <= 6 has the reference's answer, value and vertex both, once
    the numerators that ``realize`` is given are divided by the
    denominator."""
    posed = []

    def recording(objective, rows, rhs):
        value, x, denom = _simplex_max(objective, rows, rhs)
        solved = Fraction(value, denom), [Fraction(v, denom) for v in x]
        posed.append(((objective, rows, rhs), solved))
        return value, x, denom

    monkeypatch.setattr(genetics, "_simplex_max", recording)
    codes = [
        g
        for m in range(3, 7)
        for g in enumerate_codes(m)
        if not g.is_empty_space()
    ]
    assert len(codes) == 157
    for g in codes:
        realize(g)
    assert len(posed) == 157
    for lp, solved in posed:
        assert solved == reference_simplex_max(*lp)


def test_realize_catalog_m5():
    realizable = {
        format_code(g) for g in enumerate_codes(5) if realize(g) is not None
    }
    assert realizable == {"<>", "<5>", "<15>", "<25>", "<35>", "<45>", "<125>"}


def test_chamber_census():
    """Hausmann & Rodriguez count the chambers of generic length vectors
    up to permutation: 2, 3, 7, 21 and 135 for m = 3 to 7, the empty space
    included.  Every realizable code is one chamber.  Every answer is also
    pinned: the fixture holds the vector (or null) that ``realize`` gave
    for each nonempty code when it still ran a two-phase simplex."""
    fixture = pathlib.Path(__file__).parent / "fixtures" / "realize_m7.json"
    pinned = json.loads(fixture.read_text())
    answers = {}
    for m, chambers in [(3, 2), (4, 3), (5, 7), (6, 21), (7, 135)]:
        realized = 0
        for g in enumerate_codes(m):
            if g.is_empty_space():
                realized += 1
                continue
            v = realize(g)
            realized += v is not None
            answers[format_code(g)] = (
                None if v is None else [int(x) for x in v.values]
            )
        assert realized == chambers, m
    assert len(answers) == 1329
    assert answers == pinned


def reference_realize(g: GeneticCode):
    """The LP that ``realize`` posed in the lengths ``x`` themselves, with
    one row ``x_j - x_(j+1) <= 0`` per ascending pair: the same polytope
    and the same answer, on a larger tableau."""
    m = g.edge_count

    def row(coef, t=1):
        return [coef(i) for i in range(1, m + 1)] + [t]

    rows = [row(lambda i: 1, t=0)]
    rows += [row(lambda i: (i == j) - (i == j + 1), t=0) for j in range(1, m)]
    rows.append(row(lambda i: -(i == 1)))
    rows += [row(lambda i: 2 * (i in gene) - 1) for gene in g.genes]
    rows += [
        row(lambda i: 1 - 2 * (i in long_set))
        for long_set in reference_minimal_long_sets(g)
    ]
    value, x = simplex_fractions(
        row(lambda i: 0), rows, [1] + [0] * (len(rows) - 1)
    )
    if value <= 0:
        return None
    scale = math.lcm(*(v.denominator for v in x[:m]))
    ints = [int(v * scale) for v in x[:m]]
    shrink = math.gcd(*ints)
    vector = LengthVector(v // shrink for v in ints)
    assert reference_genetic_code(vector.values) == g
    return vector


def test_realize_matches_the_ordered_lp():
    """The fixture pins realize only up to m = 7; above it the increments
    LP must still give the vector of the LP with ordering rows."""
    codes = sorted({genetic_code(v) for v in seeded_draws()}, key=str)
    assert len(codes) == 119
    assert {g.edge_count for g in codes} == {8, 9, 10}
    for g in codes:
        v = realize(g)
        assert v is not None
        assert v == reference_realize(g), format_code(g)
    for g in (code("<[2,4,6,9]>"), code("<135>"), code("<35,125>")):
        assert realize(g) is None and reference_realize(g) is None


def code_tree(m: int) -> list[GeneticCode]:
    """The realizable nonempty codes of ``m`` edges, walked depth-first from
    the minimal code: a code's children are the up-covers that realize
    and whose saturated chain passes through it last."""
    found = []
    stack = [minimal_code(m)]
    while stack:
        node = stack.pop()
        found.append(node)
        for child in up_covers(node):
            if (
                realize(child) is not None
                and saturated_chain(child).codes[-2] == node
            ):
                stack.append(child)
    return found


@pytest.mark.parametrize("m, count", [(5, 6), (6, 20), (7, 134)])
def test_code_tree_walk_finds_the_realizable_codes(m, count):
    walked = code_tree(m)
    assert len(walked) == len(set(walked)) == count
    assert set(walked) == {
        g
        for g in enumerate_codes(m)
        if not g.is_empty_space() and realize(g) is not None
    }


def test_realize_round_trips_and_is_integral():
    for text, m in [
        ("<125>", None),
        ("<45>", None),
        ("<16>", None),
        ("<26>", None),
        ("<126>", None),
        ("<136>", None),
        ("<236>", None),
        ("<>", 3),
        ("<>", 5),
    ]:
        g = code(text, m)
        v = realize(g)
        assert v is not None, text
        assert all(x.denominator == 1 and x > 0 for x in v.values)
        assert genetic_code(v) == g


def test_realize_unrealizable_codes():
    assert realize(code("<135>")) is None
    assert realize(code("<235>")) is None
    assert realize(code("<345>")) is None
    assert realize(code("<35,125>")) is None
    assert realize(code("<[2,4,6,9]>")) is None


def test_realize_caps_edge_count():
    with pytest.raises(GroundSetTooLargeError):
        realize(GeneticCode(12, [{12}]))


# --- notation --------------------------------------------------------------


def test_parse_and_format():
    assert parse_code("<256>") == GeneticCode(6, [{2, 5, 6}])
    assert parse_code("<156,246>") == GeneticCode(6, [{1, 5, 6}, {2, 4, 6}])
    assert parse_code("<[2,4,6,9]>") == GeneticCode(9, [{2, 4, 6, 9}])
    assert parse_code("<>", edge_count=5) == GeneticCode(5, [])
    assert format_code(GeneticCode(11, [{2, 11}])) == "<[2,11]>"


def test_parse_errors():
    with pytest.raises(InvalidCodeError):
        parse_code("256")
    with pytest.raises(InvalidCodeError):
        parse_code("<>")
    with pytest.raises(InvalidCodeError):
        parse_code("<25x>")
    # superscript digits pass str.isdigit but are no decimal digits
    for text in ("<²5>", "<15²>", "<[1,²]>"):
        with pytest.raises(InvalidCodeError):
            parse_code(text)
    # nor are other decimal digits, signs or underscores, which int() reads:
    # the notation's digits are 0-9, with spaces allowed around elements
    for text in ("<１５>", "<٥>", "<[1_2]>", "<[+5]>", "<[1, ٥]>"):
        with pytest.raises(InvalidCodeError):
            parse_code(text, edge_count=12)
    assert parse_code("< [ 1 , 5 ] >") == parse_code("<15>")
    with pytest.raises(InvalidCodeError):
        parse_code("<[2,4>")
    with pytest.raises(InvalidCodeError):
        parse_code("<256>", edge_count=7)


def test_format_parse_round_trip_m5():
    for g in enumerate_codes(5):
        if g.is_empty_space():
            continue
        assert parse_code(format_code(g)) == g
