"""Acceptance suite: one test per shipping criterion.

Run ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion.  Everything here is exact integer arithmetic; there are no
tolerances to tune.
"""

import itertools

from polygonspaces.coxeter import coxeter_complex, projective_quotient
from polygonspaces.errors import ChainInterferenceError
from polygonspaces.genetics import (
    GeneticCode,
    enumerate_codes,
    genetic_code,
    parse_code,
    realize,
    saturated_chain,
)
from polygonspaces.homology import (
    betti_oracle,
    homology,
    identify_small,
)
from polygonspaces.posets import (
    Interval,
    canonical_partition,
    comb_surgery,
    intersection_poset,
    poset_isomorphic,
)
from polygonspaces.surgery import (
    locate_sphere,
    run_model,
    surgery_2d,
)
from test_posets import (
    down_set,
    from_leq,
    height,
    leq,
    partition_lattice,
    rank_function,
)
from test_surgery import chain_run


def face_shape_counts(complex_) -> dict[int, int]:
    counts: dict[int, int] = {}
    for cell in complex_:
        if cell.dim == 2:
            counts[len(cell.facets)] = counts.get(len(cell.facets), 0) + 1
    return counts


def realizable_codes(m: int) -> list[GeneticCode]:
    return [
        code
        for code in enumerate_codes(m)
        if not code.is_empty_space() and realize(code) is not None
    ]


def test_criterion_01_coxeter_cell_counts() -> None:
    sphere = coxeter_complex(range(1, 5))
    assert sphere.f_vector() == (14, 36, 24)
    quotient, _ = projective_quotient(sphere)
    assert quotient.f_vector() == (7, 18, 12)
    for ground_size, chambers in ((4, 24), (5, 120), (6, 720)):
        complex_ = coxeter_complex(range(1, ground_size + 1))
        assert complex_.f_vector()[-1] == chambers


def test_criterion_02_first_surgery_figure() -> None:
    sphere = coxeter_complex(range(1, 5))
    units = frozenset({1, 2, 3})
    torus = surgery_2d(sphere, locate_sphere(sphere, units), units)
    assert torus.euler_characteristic() == 0
    assert face_shape_counts(torus) == {4: 18, 3: 12}
    rep = homology(torus)
    assert rep.betti == (1, 2, 1)
    assert not any(rep.torsion)
    assert rep.components == 1
    assert rep.orientable is True


def test_criterion_03_projective_surgery_figure() -> None:
    quotient, _ = projective_quotient(coxeter_complex(range(1, 5)))
    units = frozenset({1, 2, 3})
    klein = surgery_2d(
        quotient,
        locate_sphere(quotient, units, projective=True),
        units,
        projective=True,
    )
    assert klein.euler_characteristic() == 0
    assert face_shape_counts(klein) == {3: 6, 4: 9}
    rep = homology(klein)
    assert rep.betti == (1, 1, 0)
    assert rep.torsion[1] == (2,)
    assert rep.orientable is False


def test_criterion_04_two_tori_pipeline() -> None:
    trace = chain_run("<125>", "attach")
    reports = [homology(k) for k in trace.complexes[1:]]
    assert [r.betti for r in reports] == [(1, 2, 1), (1, 4, 1), (2, 4, 2)]
    names = [identify_small(k) for k in trace.complexes[1:]]
    assert names == ["T^2", "T_2", "T^2 ⊔ T^2"]
    folded = chain_run("<125>", "attach", True)
    assert identify_small(folded.final) == "T^2"


def test_criterion_05_pentagon_moduli() -> None:
    folded = chain_run("<45>", "collapse", True).final
    rep = homology(folded)
    assert rep.components == 1
    assert rep.orientable is False
    assert folded.euler_characteristic() == -3
    assert identify_small(folded) == "N_5"
    assert face_shape_counts(folded) == {5: 12}
    cover = chain_run("<45>", "collapse").final
    assert cover.euler_characteristic() == -6
    cover_rep = homology(cover)
    assert cover_rep.orientable is True
    assert identify_small(cover) == "T_4"


def test_criterion_06_saturated_chain_of_256() -> None:
    chain = saturated_chain(parse_code("<256>"))
    expected = [
        GeneticCode(6, genes)
        for genes in [
            [[6]],
            [[1, 6]],
            [[2, 6]],
            [[1, 2, 6]],
            [[3, 6], [1, 2, 6]],
            [[1, 3, 6]],
            [[2, 3, 6]],
            [[4, 6], [2, 3, 6]],
            [[1, 4, 6], [2, 3, 6]],
            [[2, 4, 6]],
            [[2, 4, 6], [5, 6]],
            [[2, 4, 6], [1, 5, 6]],
            [[2, 5, 6]],
        ]
    ]
    assert list(chain.codes) == expected
    for lower, upper, added in zip(
        chain.codes, chain.codes[1:], chain.added_sets
    ):
        below, above = lower.anchor_short_sets(), upper.anchor_short_sets()
        assert below < above and above - below == {added}


def test_criterion_07_combinatorial_surgery() -> None:
    poset = intersection_poset(parse_code("<26>"))
    locus = canonical_partition([(1,), (2,), (3, 4, 5), (6,)])
    surgered = comb_surgery(poset, locus)
    target = intersection_poset(parse_code("<126>"))
    assert poset_isomorphic(surgered, target) is not None
    old_rank = rank_function(poset)
    new_rank = rank_function(surgered)
    top = height(poset)
    intervals = [e for e in surgered if isinstance(e, Interval)]
    assert intervals
    for element in intervals:
        assert new_rank[element] == (
            top - old_rank[element.locus] + old_rank[element.base] + 1
        )


def test_criterion_08_realizability() -> None:
    assert realize(parse_code("<2469>")) is None
    for name in (
        "<5>",
        "<15>",
        "<25>",
        "<125>",
        "<45>",
        "<14>",
        "<26>",
        "<126>",
        "<136>",
    ):
        code = parse_code(name)
        vector = realize(code)
        assert vector is not None
        assert genetic_code(vector) == code


def test_criterion_09_oracle_coherence() -> None:
    for m in (3, 4):
        for code in realizable_codes(m):
            rep = homology(run_model(code).complex)
            assert rep.betti == betti_oracle(code), str(code)
            assert not any(rep.torsion)
    for code in realizable_codes(5):
        rep = homology(chain_run(str(code), "collapse").final)
        assert rep.betti == betti_oracle(code), str(code)
        assert not any(rep.torsion)
    ran = []
    for code in realizable_codes(6):
        try:
            result = run_model(code)
        except ChainInterferenceError:
            continue
        rep = homology(result.complex)
        assert rep.betti == betti_oracle(code), str(code)
        assert not any(rep.torsion)
        ran.append(str(code))
    assert ran == ["<6>", "<16>"]


def test_criterion_10_structural_audits() -> None:
    # every constructor in the package runs its own audits; build the
    # suite's complexes end to end and require silence
    for name in ("<15>", "<45>", "<125>"):
        for mode in ("attach", "collapse"):
            chain_run(name, mode)
            chain_run(name, mode, True)
    run_model(parse_code("<14>"))

    # below any stratum the poset is a stack of independent partition
    # lattices, one per block
    bell = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}
    for m in (3, 4, 5, 6):
        for code in realizable_codes(m):
            poset = intersection_poset(code)
            shapes = {}
            for partition in poset:
                sizes = tuple(sorted(len(b) for b in partition))
                down = down_set(poset, partition)
                expected = 1
                for s in sizes:
                    expected *= bell[s]
                assert len(down) == expected, (str(code), partition)
                shapes.setdefault(sizes, partition)
            for sizes, partition in shapes.items():
                down = down_set(poset, partition)
                sub = from_leq(down, lambda a, b: leq(poset, a, b))
                factors = [partition_lattice(s) for s in sizes if s > 1]
                if not factors:
                    factors = [partition_lattice(1)]
                elements = list(
                    itertools.product(*[f.elements for f in factors])
                )

                def product_leq(a, b, factors=factors) -> bool:
                    return all(
                        leq(f, x, y) for f, x, y in zip(factors, a, b)
                    )

                product = from_leq(elements, product_leq)
                assert poset_isomorphic(sub, product) is not None, (
                    str(code),
                    sizes,
                )
