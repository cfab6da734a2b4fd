"""Posets, partition lattices, intersection posets, poset surgery."""

import itertools
import random
from typing import Iterable, Optional, Sequence

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polygonspaces import posets
from polygonspaces.coxeter import (
    RegularCellComplex,
    coxeter_complex,
    projective_quotient,
)
from polygonspaces.errors import (
    AuditError,
    InvalidCodeError,
    NotApplicableError,
    TooLargeError,
)
from polygonspaces.genetics import (
    enumerate_codes,
    genetic_code,
    parse_code,
    realize,
    saturated_chain,
)
from polygonspaces.posets import (
    Barred,
    FinitePoset,
    Interval,
    canonical_partition,
    comb_surgery,
    intersection_poset,
    minimal_building_set,
    partition_lattice,
    partition_str,
    partitions_of,
    poset_isomorphic,
)
from polygonspaces.surgery import step_locus


def divisor_poset(n: int) -> FinitePoset:
    divs = [d for d in range(1, n + 1) if n % d == 0]
    return FinitePoset.from_leq(divs, lambda a, b: b % a == 0)


def chain(n: int) -> FinitePoset:
    return FinitePoset.from_leq(list(range(n)), lambda a, b: a <= b)


def antichain(n: int) -> FinitePoset:
    return FinitePoset.from_leq(list(range(n)), lambda a, b: a == b)


def product(a: FinitePoset, b: FinitePoset) -> FinitePoset:
    """The product order on pairs."""
    return FinitePoset.from_leq(
        list(itertools.product(a.elements, b.elements)),
        lambda x, y: a.leq(x[0], y[0]) and b.leq(x[1], y[1]),
    )


def subposet(p: FinitePoset, keep) -> FinitePoset:
    """The induced order on the kept elements, in ``p``'s element order."""
    kept = set(keep)
    return FinitePoset.from_leq([e for e in p if e in kept], p.leq)


def depths(p: FinitePoset) -> dict:
    """The length of the longest chain ending at each element."""
    depth: dict = {}
    for e in sorted(p, key=lambda e: len(p.down_set(e))):
        below = [depth[d] for d in p.down_set(e) if d != e]
        depth[e] = 1 + max(below) if below else 0
    return depth


def rank_function(p: FinitePoset) -> Optional[dict]:
    """Longest-path rank from the minimal elements, or None when some
    cover jumps more than one level (the poset is not graded)."""
    rank = depths(p)
    if any(rank[b] != rank[a] + 1 for a, b in p.covers()):
        return None
    return rank


def height(p: FinitePoset) -> int:
    """Length of the longest chain (number of covers along it)."""
    return max(depths(p).values(), default=0)


def quotient_sums(vector, partition) -> tuple:
    """Edge lengths of the quotient polygon: one totalled edge per block."""
    return tuple(sum(vector.values[e - 1] for e in b) for b in partition)


def disconnected_by_lengths(sums) -> bool:
    """Reference: a polygon space is disconnected when its second and third
    largest edges together exceed half the perimeter."""
    ordered = sorted(sums)
    return 2 * (ordered[-2] + ordered[-3]) > sum(ordered)


def block_labels(partition) -> tuple:
    """The index of the block holding each element, in element order."""
    owner = {e: i for i, block in enumerate(partition) for e in block}
    return tuple(owner[e] for e in sorted(owner))


def coarsens(coarse, fine) -> bool:
    """True when every block of ``fine`` lies inside one block of ``coarse``."""
    owner = {e: i for i, block in enumerate(coarse) for e in block}
    return all(len({owner[e] for e in block}) == 1 for block in fine)


# --- FinitePoset core -------------------------------------------------------


def test_divisor_poset_basics():
    p = divisor_poset(12)
    assert len(p) == 6
    assert p.leq(2, 12)
    assert not p.leq(4, 6)
    assert p.bottom() == 1
    assert p.maximal_elements() == [12]
    assert set(p.covers()) == {
        (1, 2), (1, 3), (2, 4), (2, 6), (3, 6), (4, 12), (6, 12),
    }
    assert p.meet(4, 6) == 2
    assert p.is_meet_semilattice()
    assert p.down_set(6) == [1, 2, 3, 6]
    assert p.up_set(3) == [3, 6, 12]


def test_from_relations_closes_transitively():
    p = FinitePoset.from_relations("abc", [("a", "b"), ("b", "c")])
    assert p.leq("a", "c")
    assert p.covers() == (("a", "b"), ("b", "c"))
    with pytest.raises(AuditError):
        FinitePoset.from_relations("ab", [("a", "b"), ("b", "a")])


def test_from_leq_validates_axioms():
    with pytest.raises(AuditError):
        FinitePoset.from_leq([1, 2], lambda a, b: True)  # not antisymmetric
    with pytest.raises(AuditError):
        FinitePoset.from_leq([1, 2], lambda a, b: a != b)  # not reflexive


def test_product_and_subposet():
    grid = product(chain(2), chain(3))
    assert len(grid) == 6
    assert grid.leq((0, 0), (1, 2))
    assert not grid.leq((1, 0), (0, 2))
    assert grid.is_meet_semilattice()
    assert grid.meet((1, 0), (0, 2)) == (0, 0)
    sub = subposet(grid, [(0, 0), (1, 0), (0, 2)])
    assert len(sub) == 3
    assert sub.leq((0, 0), (0, 2)) and not sub.leq((1, 0), (0, 2))


def greatest_lower_bound(p: FinitePoset, a, b):
    """Brute force: the common lower bound above every other, if any."""
    lower = [x for x in p if p.leq(x, a) and p.leq(x, b)]
    top = [g for g in lower if all(p.leq(x, g) for x in lower)]
    return top[0] if top else None


# a bowtie: c and d share the lower bounds a and b, and neither is above
# the other, so c and d have no meet; a and b have no common lower bound
BOWTIE = [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]


@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda pair: pair[0] < pair[1]
                ),
                max_size=12,
            ),
        )
    )
)
@example((4, [(0, 2), (0, 3), (1, 2), (1, 3)]))
def test_meet_matches_brute_force(case):
    n, relations = case
    p = FinitePoset.from_relations(range(n), relations)
    for a in p:
        for b in p:
            assert p.meet(a, b) == greatest_lower_bound(p, a, b)
    assert p.is_meet_semilattice() == all(
        greatest_lower_bound(p, a, b) is not None
        for a, b in itertools.combinations(p, 2)
    )


def test_bowtie_has_no_meets():
    p = FinitePoset.from_relations("abcd", BOWTIE)
    assert p.meet("c", "d") is None
    assert p.meet("a", "b") is None
    assert p.meet("a", "c") == "a"
    assert p.meet("c", "c") == "c"
    assert not p.is_meet_semilattice()
    assert product(p, chain(2)).meet(("c", 1), ("d", 1)) is None


def test_rank_and_height():
    p = divisor_poset(12)
    ranks = rank_function(p)
    assert ranks is not None
    assert ranks[1] == 0 and ranks[12] == 3 and ranks[6] == 2
    assert height(p) == 3
    diamond = FinitePoset.from_relations(
        "abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    )
    assert rank_function(diamond) is not None
    hexagon = FinitePoset.from_relations(
        "abcde",
        [("a", "b"), ("b", "c"), ("c", "e"), ("a", "d"), ("d", "e")],
    )
    assert rank_function(hexagon) is None  # the d -> e cover jumps two levels


# --- partitions and the partition lattice -----------------------------------


def test_partitions_of_counts_are_bell_numbers():
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)]:
        parts = list(partitions_of(range(1, n + 1)))
        assert len(parts) == bell
        assert len(set(parts)) == bell
        for p in parts:
            assert sorted(e for b in p for e in b) == list(range(1, n + 1))
            assert p == canonical_partition(p)


def test_partition_helpers():
    p = canonical_partition([(3, 4, 5), (1,), (6,), (2,)])
    assert p == ((1,), (2,), (3, 4, 5), (6,))
    assert partition_str(p) == "1|2|345|6"
    assert partition_str(canonical_partition([(1, 10)])) == "1,10"
    assert coarsens(((1, 2), (3,)), ((1,), (2,), (3,)))
    assert not coarsens(((1,), (2,), (3,)), ((1, 2), (3,)))


def test_partition_lattice_structure():
    lat = partition_lattice(4)
    assert len(lat) == 15
    bottom = canonical_partition([(1,), (2,), (3,), (4,)])
    top = canonical_partition([(1, 2, 3, 4)])
    assert lat.bottom() == bottom
    assert lat.maximal_elements() == [top]
    ranks = rank_function(lat)
    assert ranks is not None
    for p in lat:
        assert ranks[p] == 4 - len(p)
    assert lat.is_meet_semilattice()
    covers_of_bottom = [b for a, b in lat.covers() if a == bottom]
    assert len(covers_of_bottom) == 6  # one per pair merge
    assert lat.meet(
        canonical_partition([(1, 2), (3, 4)]),
        canonical_partition([(1, 2, 3), (4,)]),
    ) == canonical_partition([(1, 2), (3,), (4,)])


def test_partition_lattice_cap():
    with pytest.raises(TooLargeError):
        partition_lattice(10)


def test_minimal_building_set():
    b4 = minimal_building_set(4)
    assert len(b4) == 11
    assert len(minimal_building_set(5)) == 26
    for p in b4:
        big = [b for b in p if len(b) > 1]
        assert len(big) == 1
    with pytest.raises(TooLargeError):
        minimal_building_set(13)


# --- disconnection of quotient spaces ---------------------------------------


def test_disconnected_quotient_matches_its_code():
    # the quotient (1,2,5,5) realizes <14>, whose space has two components
    assert str(genetic_code((1, 2, 5, 5))) == "<14>"


# --- intersection posets ----------------------------------------------------


def test_intersection_poset_plain_sizes():
    p26 = intersection_poset(parse_code("<26>"))
    assert len(p26) == 77
    p126 = intersection_poset(parse_code("<126>"))
    assert len(p126) == 77
    # grouped by the block containing the anchor edge 6
    by_anchor = {}
    for part in p26:
        block = next(b for b in part if 6 in b)
        by_anchor[block] = by_anchor.get(block, 0) + 1
    assert by_anchor == {(6,): 49, (1, 6): 14, (2, 6): 14}


def test_intersection_poset_barred_sizes():
    b26 = intersection_poset(parse_code("<26>"), barred=True)
    assert len(b26) == 116
    bars = [e for e in b26 if isinstance(e, Barred)]
    assert len(bars) == 39
    by_blocks = {}
    for bar in bars:
        k = len(bar.partition)
        by_blocks[k] = by_blocks.get(k, 0) + 1
    assert by_blocks == {3: 27, 4: 12}

    b126 = intersection_poset(parse_code("<126>"), barred=True)
    assert len(b126) == 128
    bars = [e for e in b126 if isinstance(e, Barred)]
    by_blocks = {}
    for bar in bars:
        k = len(bar.partition)
        by_blocks[k] = by_blocks.get(k, 0) + 1
    assert by_blocks == {3: 27, 4: 21, 5: 3}


def test_intersection_poset_order_and_grading():
    p26 = intersection_poset(parse_code("<26>"))
    bottom = canonical_partition([(e,) for e in range(1, 7)])
    assert p26.bottom() == bottom
    ranks = rank_function(p26)
    assert ranks is not None
    for part in p26:
        assert ranks[part] == 6 - len(part)
    assert height(p26) == 3
    assert p26.is_meet_semilattice()
    # no all-short partition has two blocks
    assert all(len(part) >= 3 for part in p26)


def test_barred_poset_is_not_a_meet_semilattice():
    b26 = intersection_poset(parse_code("<26>"), barred=True)
    assert not b26.is_meet_semilattice()
    twin = canonical_partition([(1, 3, 4), (2,), (5,), (6,)])
    assert b26.meet(twin, Barred(twin)) is None
    # its lower bounds have three incomparable maxima
    down = set(b26.down_set(twin)) & set(b26.down_set(Barred(twin)))
    maxima = [
        e for e in down
        if not any(f != e and b26.leq(e, f) for f in down)
    ]
    assert len(maxima) == 3


def test_barred_twins_are_incomparable():
    b26 = intersection_poset(parse_code("<26>"), barred=True)
    for e in b26:
        if isinstance(e, Barred):
            assert not b26.leq(e.partition, e)
            assert not b26.leq(e, e.partition)


def test_refinement_cone_factorizes():
    p26 = intersection_poset(parse_code("<26>"))
    pi = canonical_partition([(1, 2), (3, 4, 5), (6,)])
    cone = subposet(p26, p26.down_set(pi))
    model = product(
        product(partition_lattice(2), partition_lattice(3)),
        partition_lattice(1),
    )
    assert len(cone) == 10
    assert poset_isomorphic(cone, model) is not None


def test_barred_refinement_cone_factorizes():
    b26 = intersection_poset(parse_code("<26>"), barred=True)
    pi = canonical_partition([(1, 3, 4), (2,), (5,), (6,)])
    cone = subposet(b26, b26.down_set(Barred(pi)))
    assert len(cone) == 5
    assert poset_isomorphic(cone, partition_lattice(3)) is not None


def test_intersection_poset_order_is_refinement():
    """Independent oracle: every pair compared by refinement, with a
    connected partition below a barred one exactly when the barred one
    coarsens it."""

    codes = [
        code
        for m in (3, 4, 5, 6)
        for code in enumerate_codes(m)
        if not code.is_empty_space() and realize(code) is not None
    ]
    assert len(codes) == 1 + 2 + 6 + 20
    for code in codes:
        vector = realize(code)
        for barred in (False, True):
            poset = intersection_poset(code, barred=barred)
            for e in poset:
                if not isinstance(e, Barred):
                    disconnected = disconnected_by_lengths(
                        quotient_sums(vector, e)
                    )
                    assert (Barred(e) in poset) == (barred and disconnected)
            # (element, block labels, block count, barred, has a barred
            # twin); ``fine`` refines ``coarse`` exactly when the block of
            # each edge in ``fine`` fixes its block in ``coarse``
            rows = []
            for e in poset:
                bar = isinstance(e, Barred)
                p = e.partition if bar else e
                twinned = not bar and Barred(e) in poset
                rows.append((e, block_labels(p), len(p), bar, twinned))
            for a, fine, blocks, a_bar, twinned in rows:
                for b, coarse, _, b_bar, _ in rows:
                    if a_bar and not b_bar:
                        expected = False
                    else:
                        expected = len(set(zip(fine, coarse))) == blocks
                        if b_bar and not a_bar:
                            expected = expected and not twinned
                    assert poset.leq(a, b) == expected, (str(code), a, b)


def test_intersection_poset_audits_disconnection(monkeypatch):
    """The unrealizable code <245>, let past the realizability refusal,
    has short sets under which a disconnected partition coarsens to a
    connected one, and fails the inheritance audit."""
    code = parse_code("<245>")
    assert realize(code) is None
    monkeypatch.setattr(posets, "realize", lambda code: object())
    with pytest.raises(AuditError, match="coarsened to a connected one"):
        intersection_poset(code)


def test_intersection_poset_rejects_bad_codes():
    with pytest.raises(NotApplicableError):
        intersection_poset(parse_code("<>", edge_count=4))
    with pytest.raises(InvalidCodeError):
        intersection_poset(parse_code("<135>"))


# --- combinatorial surgery ---------------------------------------------------


def test_comb_surgery_on_small_lattice():
    lat = partition_lattice(3)
    x = canonical_partition([(1, 2), (3,)])
    out = comb_surgery(lat, x)
    assert len(out) == 4
    diamond = FinitePoset.from_relations(
        "abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    )
    assert poset_isomorphic(out, diamond) is not None
    bottom = canonical_partition([(1,), (2,), (3,)])
    assert Interval(x, bottom) in out
    assert out.leq(canonical_partition([(1, 3), (2,)]), Interval(x, bottom))


def test_comb_surgery_errors():
    lat = partition_lattice(3)
    with pytest.raises(NotApplicableError):
        comb_surgery(lat, canonical_partition([(1,), (2,), (3,)]))
    with pytest.raises(NotApplicableError):
        comb_surgery(lat, "nonsense")


def test_comb_surgery_matches_code_step():
    """Poset surgery at the one-block partition of the complement of the
    gained set turns one intersection poset into the next one."""
    p26 = intersection_poset(parse_code("<26>"))
    p126 = intersection_poset(parse_code("<126>"))
    x = canonical_partition([(1,), (2,), (3, 4, 5), (6,)])
    out = comb_surgery(p26, x)
    assert len(out) == 77
    assert poset_isomorphic(out, p126) is not None


def test_comb_surgery_clause_for_incomparables():
    p26 = intersection_poset(parse_code("<26>"))
    x = canonical_partition([(1,), (2,), (3, 4, 5), (6,)])
    out = comb_surgery(p26, x)
    bottom = canonical_partition([(e,) for e in range(1, 7)])
    lowest = Interval(x, bottom)
    included = [
        canonical_partition([(1, 2), (3,), (4,), (5,), (6,)]),
        canonical_partition([(1, 6), (2,), (3,), (4,), (5,)]),
    ]
    excluded = [
        canonical_partition([(1, 3), (2,), (4,), (5,), (6,)]),
        canonical_partition([(4, 5), (1,), (2,), (3,), (6,)]),
    ]
    for z in included:
        assert out.leq(z, lowest), z
    for z in excluded:
        assert not out.leq(z, lowest), z
    # shares an upper bound with x but keeps 4 and 5 merged, so it lands
    # below exactly the intervals whose base keeps that merge
    tricky = canonical_partition([(1,), (2, 6), (3,), (4, 5)])
    paired = canonical_partition([(1,), (2,), (3,), (4, 5), (6,)])
    assert not out.leq(tricky, lowest)
    assert out.leq(tricky, Interval(x, paired))


def comb_surgery_reference(poset: FinitePoset, locus) -> FinitePoset:
    """Poset surgery with every comparable pair as a generating relation."""
    kept = [e for e in poset if not poset.leq(locus, e)]
    below = [e for e in poset if poset.leq(e, locus) and e != locus]
    grafted = {y: Interval(locus, y) for y in below}
    pairs = [(a, b) for a in kept for b in kept if a != b and poset.leq(a, b)]
    pairs += [
        (grafted[y], grafted[z])
        for y in below
        for z in below
        if y != z and poset.leq(y, z)
    ]
    for z in kept:
        if not any(poset.leq(z, u) and poset.leq(locus, u) for u in poset):
            continue
        shared = [w for w in poset if poset.leq(w, z) and poset.leq(w, locus)]
        for y in below:
            if all(poset.leq(w, y) for w in shared):
                pairs.append((z, grafted[y]))
    return FinitePoset.from_relations(kept + list(grafted.values()), pairs)


def test_comb_surgery_matches_all_pairs_reference():
    steps = []
    for code in enumerate_codes(5):
        if code.is_empty_space() or realize(code) is None:
            continue
        chain = saturated_chain(code)
        steps.extend(zip(chain.codes, chain.added_sets))
    chain = saturated_chain(parse_code("<126>"))  # its last step leaves <26>
    steps.append((chain.codes[-2], chain.added_sets[-1]))
    for lo, added in steps:
        poset = intersection_poset(lo)
        locus = step_locus(lo, frozenset(added))
        got = comb_surgery(poset, locus)
        want = comb_surgery_reference(poset, locus)
        assert got.elements == want.elements, (str(lo), added)
        assert got._down == want._down, (str(lo), added)


def test_comb_surgery_interval_ranks():
    p26 = intersection_poset(parse_code("<26>"))
    x = canonical_partition([(1,), (2,), (3, 4, 5), (6,)])
    out = comb_surgery(p26, x)
    in_ranks = rank_function(p26)
    out_ranks = rank_function(out)
    assert out_ranks is not None
    top_rank = height(p26)  # 3
    assert top_rank == 3
    for e in out:
        if isinstance(e, Interval):
            expected = top_rank - in_ranks[x] + in_ranks[e.base] + 1
            assert out_ranks[e] == expected
    assert out_ranks[Interval(x, p26.bottom())] == 2


# --- isomorphism testing -----------------------------------------------------


def assert_order_isomorphism(p: FinitePoset, q: FinitePoset, iso) -> None:
    """``iso`` is a bijection ``p -> q`` with ``a <= b`` exactly when
    ``iso[a] <= iso[b]``."""
    assert iso is not None
    assert set(iso) == set(p.elements)
    assert sorted(q.index[b] for b in iso.values()) == list(range(len(q)))
    for a in p:
        for b in p:
            assert p.leq(a, b) == q.leq(iso[a], iso[b]), (a, b)


def face_poset(k: RegularCellComplex) -> FinitePoset:
    """The cells of ``k`` ordered by the face relation."""
    return FinitePoset.from_relations(
        sorted(k.cells), [(f, c.ident) for c in k for f in c.facets]
    )


def relabelled(
    elements: Sequence, covers: Iterable[tuple], seed: int
) -> FinitePoset:
    """The poset generated by ``covers``, with fresh element names listed
    in a shuffled order."""
    order = list(elements)
    random.Random(seed).shuffle(order)
    return FinitePoset.from_relations(
        [("r", e) for e in order], [(("r", a), ("r", b)) for a, b in covers]
    )


def brute_force_isomorphic(p: FinitePoset, q: FinitePoset) -> bool:
    n = len(p)
    pairs = [(a, b) for a in range(n) for b in range(n)]
    return len(q) == n and any(
        all(
            bool(p._down[b] >> a & 1) == bool(q._down[perm[b]] >> perm[a] & 1)
            for a, b in pairs
        )
        for perm in itertools.permutations(range(n))
    )


def test_poset_isomorphic_positive():
    iso = poset_isomorphic(chain(4), chain(4))
    assert iso == {0: 0, 1: 1, 2: 2, 3: 3}
    lat = partition_lattice(4)
    shuffled = FinitePoset.from_leq(
        list(reversed(lat.elements)), lambda a, b: lat.leq(a, b)
    )
    assert_order_isomorphism(lat, shuffled, poset_isomorphic(lat, shuffled))


def test_poset_isomorphic_negative():
    assert poset_isomorphic(chain(3), antichain(3)) is None
    diamond = FinitePoset.from_relations(
        "abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    )
    assert poset_isomorphic(diamond, chain(4)) is None
    assert poset_isomorphic(chain(3), chain(4)) is None


def test_poset_isomorphic_when_colours_cannot_tell():
    # the crown whose covers form one 8-cycle, against two disjoint
    # 4-cycles: every minimal element lies below two of the four maximal
    # ones and every maximal one above two minimal ones, so colour
    # refinement gives both posets the same two classes and only the
    # search can answer.  No such pair exists on seven or fewer elements.
    lows, highs = [f"a{i}" for i in range(4)], [f"b{i}" for i in range(4)]
    cycle = [(lows[i], highs[i]) for i in range(4)]
    cycle += [(lows[(i + 1) % 4], highs[i]) for i in range(4)]
    two_squares = [(a, b) for a in lows[:2] for b in highs[:2]]
    two_squares += [(a, b) for a in lows[2:] for b in highs[2:]]
    crown = FinitePoset.from_relations(lows + highs, cycle)
    squares = FinitePoset.from_relations(lows + highs, two_squares)
    pc, qc = posets._stable_colors(crown, squares)
    assert sorted(pc) == sorted(qc) and len(set(pc)) == 2
    assert poset_isomorphic(crown, squares) is None
    again = relabelled(crown.elements, cycle, seed=8)
    assert_order_isomorphism(crown, again, poset_isomorphic(crown, again))


def regular_bipartite_poset(degree: int, seed: int) -> FinitePoset:
    """A height-two poset on five minimal and five maximal elements whose
    covers form a seeded random ``degree``-regular bipartite graph: the
    union of ``degree`` permutations that never agree.  Its elements are
    listed in a shuffled order."""
    rng = random.Random(seed)
    while True:
        perms = [rng.sample(range(5), 5) for _ in range(degree)]
        covers = {(i, perm[i]) for perm in perms for i in range(5)}
        if len(covers) == 5 * degree:
            break
    elements = [("a", i) for i in range(5)] + [("b", j) for j in range(5)]
    rng.shuffle(elements)
    return FinitePoset.from_relations(
        elements, [(("a", i), ("b", j)) for i, j in sorted(covers)]
    )


def brute_force_by_colour(p: FinitePoset, q: FinitePoset) -> bool:
    """Whether some bijection ``p -> q`` that keeps the stable colour
    classes is an order isomorphism, trying every one of them."""
    pc, qc = posets._stable_colors(p, q)
    if sorted(pc) != sorted(qc):
        return False
    n = len(p)
    strict_p = [(a, b) for a in range(n) for b in range(n)
                if a != b and p._down[b] >> a & 1]
    strict_q = {(a, b) for a in range(n) for b in range(n)
                if a != b and q._down[b] >> a & 1}
    if len(strict_p) != len(strict_q):
        return False
    colours = sorted(set(pc))
    sources = [i for c in colours for i, ci in enumerate(pc) if ci == c]
    targets = [[i for i, ci in enumerate(qc) if ci == c] for c in colours]
    for images in itertools.product(*map(itertools.permutations, targets)):
        to = dict(zip(sources, itertools.chain(*images)))
        if all((to[a], to[b]) in strict_q for a, b in strict_p):
            return True
    return False


def test_poset_isomorphic_on_regular_bipartite_draws():
    # 2-regular bipartite graphs on 5 + 5 vertices are a 10-cycle or a
    # 4-cycle beside a 6-cycle, and the 3-regular ones their complements
    # in K(5,5): colour refinement sees only two classes in each, so the
    # search must tell the draws of one degree apart
    draws = [
        regular_bipartite_poset(degree, seed)
        for degree in (2, 3)
        for seed in range(4)
    ]
    outcomes = set()
    for p, q in itertools.combinations(draws, 2):
        pc, qc = posets._stable_colors(p, q)
        if sorted(pc) == sorted(qc):
            assert len(set(pc)) == 2
        iso = poset_isomorphic(p, q)
        assert (iso is not None) == brute_force_by_colour(p, q)
        if iso is not None:
            assert_order_isomorphism(p, q, iso)
        outcomes.add((sorted(pc) == sorted(qc), iso is not None))
    assert outcomes == {(True, True), (True, False), (False, False)}


@st.composite
def poset_pairs(draw) -> tuple[FinitePoset, FinitePoset]:
    """A poset on at most six elements, and a relabelled copy of it from
    which some generating relations may be dropped and others added."""
    n = draw(st.integers(1, 6))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda ab: ab[0] < ab[1]
    )
    relations = draw(st.lists(pair, max_size=10))
    p = FinitePoset.from_relations(range(n), relations)
    kept = relations[draw(st.integers(0, len(relations))):]
    perm = draw(st.permutations(range(n)))
    q = FinitePoset.from_relations(
        range(n),
        [(perm[a], perm[b]) for a, b in kept + draw(st.lists(pair, max_size=2))],
    )
    return p, q


@given(poset_pairs())
@example((chain(3), FinitePoset.from_relations(range(3), [(2, 0), (0, 1)])))
@example((chain(3), FinitePoset.from_relations(range(3), [(0, 2), (1, 2)])))
def test_poset_isomorphic_matches_brute_force(case):
    p, q = case
    iso = poset_isomorphic(p, q)
    assert (iso is not None) == brute_force_isomorphic(p, q)
    if iso is not None:
        assert_order_isomorphism(p, q, iso)


@pytest.mark.parametrize("ground", [4, 5])
def test_poset_isomorphic_coxeter_face_posets(ground):
    k = coxeter_complex(range(1, ground + 1))
    p = face_poset(k)
    assert len(p) == {4: 74, 5: 540}[ground]
    q = relabelled(p.elements, p.covers(), seed=ground)
    assert_order_isomorphism(p, q, poset_isomorphic(p, q))
    # move one vertex-to-edge cover to a vertex that is not an end of the
    # edge: the sizes stay, the order is no longer the face poset's
    edge = next(c for c in k if c.dim == 1)
    end = edge.facets[0]
    other = next(v for v in p.minimal_elements() if v not in edge.facets)
    moved = [(a, b) for a, b in p.covers() if (a, b) != (end, edge.ident)]
    moved.append((other, edge.ident))
    assert len(moved) == len(p.covers())
    assert poset_isomorphic(p, relabelled(p.elements, moved, seed=1)) is None


def test_poset_isomorphic_projective_quotient():
    quotient, _ = projective_quotient(coxeter_complex(range(1, 6)))
    p = face_poset(quotient)
    assert len(p) == 270
    q = relabelled(p.elements, p.covers(), seed=3)
    assert_order_isomorphism(p, q, poset_isomorphic(p, q))


def test_poset_isomorphic_long_chain():
    # the search keeps its own stack: a chain far longer than the
    # interpreter's recursion limit still maps to itself
    long = FinitePoset.from_relations(
        range(1500), [(i, i + 1) for i in range(1499)]
    )
    assert poset_isomorphic(long, long) == {i: i for i in range(1500)}


def test_poset_isomorphic_cap():
    big = FinitePoset.from_relations(
        range(5001), [(i, i + 1) for i in range(5000)]
    )
    with pytest.raises(TooLargeError):
        poset_isomorphic(big, big)
