"""Cell complex layer: audits, Coxeter spheres, quotients."""

import functools

import pytest

from polygonspaces.coxeter import (
    Cell,
    RegularCellComplex,
    coxeter_complex,
    projective_quotient,
    reversal,
)
from polygonspaces.errors import (
    AuditError,
    FixedCellError,
    GroundSetTooLargeError,
    NotApplicableError,
)


@functools.cache
def ca(n: int) -> RegularCellComplex:
    return coxeter_complex(range(1, n + 1))


def fs(*items) -> frozenset:
    return frozenset(items)


def stirling2(n: int, k: int) -> int:
    table = [[0] * (k + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, min(i, k) + 1):
            table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
    return table[n][k]


def factorial(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


# -- Coxeter complexes -------------------------------------------------


def test_circle_complex() -> None:
    k = ca(3)
    assert k.f_vector() == (6, 6)
    assert k.euler_characteristic() == 0
    assert k.dim == 1
    edge = k.by_label(("osp", (fs(1, 2), fs(3))))
    rev = k.by_label(("osp", (fs(3), fs(1, 2))))
    assert k.involution[edge] == rev


def test_sphere_f_vectors() -> None:
    assert ca(4).f_vector() == (14, 36, 24)
    assert ca(4).euler_characteristic() == 2
    assert ca(5).f_vector() == (30, 150, 240, 120)
    assert len(ca(5)) == 540


@pytest.mark.parametrize("n", range(2, 7))
def test_cell_counts_by_block_number(n: int) -> None:
    counts: dict[int, int] = {}
    for cell in ca(n):
        k = len(cell.label[1])
        counts[k] = counts.get(k, 0) + 1
    for k in range(2, n + 1):
        assert counts[k] == factorial(k) * stirling2(n, k)
    assert counts[n] == factorial(n)


@pytest.mark.parametrize("n", range(2, 8))
def test_euler_characteristic_of_spheres(n: int) -> None:
    assert ca(n).euler_characteristic() == 1 + (-1) ** n


def test_ground_set_caps() -> None:
    with pytest.raises(GroundSetTooLargeError):
        coxeter_complex([1])
    with pytest.raises(GroundSetTooLargeError):
        coxeter_complex(range(8))
    with pytest.raises(NotApplicableError):
        coxeter_complex((1, 1, 2))


def test_involution_is_free_reversal() -> None:
    k = ca(4)
    for cell in k:
        partner = k.cells[k.involution[cell.ident]]
        assert partner.ident != cell.ident
        assert k.involution[partner.ident] == cell.ident
        assert partner.label == ("osp", reversal(cell.label[1]))


def test_closure_sizes() -> None:
    k = ca(4)
    for cell in k:
        blocks = len(cell.label[1])
        assert len(k.faces_of(cell.ident)) == 2 ** (blocks - 1) - 1
    top = k.by_label(("osp", (fs(1), fs(2), fs(3), fs(4))))
    disk = k.materialize([top])
    assert disk.f_vector() == (3, 3, 1)
    assert set(disk.cells) <= set(k.cells)
    assert disk.involution == {}


# -- projective quotients ----------------------------------------------


def test_projective_quotient_f_vectors() -> None:
    q2, _ = projective_quotient(ca(3))
    assert q2.f_vector() == (3, 3)
    q3, mapping = projective_quotient(ca(4))
    assert q3.f_vector() == (7, 18, 12)
    assert q3.euler_characteristic() == 1
    q4, _ = projective_quotient(ca(5))
    assert q4.f_vector() == (15, 75, 120, 60)
    assert q4.euler_characteristic() == 0
    assert set(mapping) == set(ca(4).cells)
    fibers: dict[int, int] = {}
    for new in mapping.values():
        fibers[new] = fibers.get(new, 0) + 1
    assert set(fibers.values()) == {2}
    for old, new in mapping.items():
        assert ca(4).cells[old].dim == q3.cells[new].dim


def test_projective_quotient_requires_involution() -> None:
    # an interval: its end swap fixes the midpoint, so it declares none
    segment = RegularCellComplex()
    a = segment.add_cell(0, ("v", "a"))
    b = segment.add_cell(0, ("v", "b"))
    segment.add_cell(1, ("e", "ab"), (a, b))
    with pytest.raises(NotApplicableError):
        projective_quotient(segment.seal())


def test_quotient_regularity_guard() -> None:
    bigon = RegularCellComplex()
    a = bigon.add_cell(0, ("v", "a"))
    b = bigon.add_cell(0, ("v", "b"))
    e1 = bigon.add_cell(1, ("e", 1), (a, b))
    e2 = bigon.add_cell(1, ("e", 2), (a, b))
    bigon.pair(a, b)
    bigon.pair(e1, e2)
    bigon.seal()
    with pytest.raises(AuditError):
        projective_quotient(bigon)


def test_pairing_rejects_fixed_cell() -> None:
    k = RegularCellComplex()
    a = k.add_cell(0, ("v", "a"))
    with pytest.raises(FixedCellError):
        k.pair(a, a)


# -- audits -------------------------------------------------------------


REFUSED_CELLS = {
    "duplicate label": lambda k, a: k.add_cell(0, ("v", "a")),
    "duplicate identity": lambda k, a: k.add_cell(0, ("v", "b"), ident=a),
    "vertex with facets": lambda k, a: k.add_cell(0, ("v", "b"), (a,)),
    "one facet": lambda k, a: k.add_cell(1, ("e", 1), (a,), ident=9),
    "repeated facet": lambda k, a: k.add_cell(1, ("e", 1), (a, a)),
    "missing facet": lambda k, a: k.add_cell(1, ("e", 1), (a, 7), ident=9),
    "wrong dimension": lambda k, a: k.add_cell(2, ("f", 1), (a, a + 1)),
}


@pytest.mark.parametrize(
    "refuse", list(REFUSED_CELLS.values()), ids=list(REFUSED_CELLS)
)
def test_refused_cell_leaves_the_complex_unchanged(refuse) -> None:
    k = RegularCellComplex()
    a = k.add_cell(0, ("v", "a"))
    k.add_cell(0, ("v", "c"))
    before = dict(k.cells)
    with pytest.raises(AuditError):
        refuse(k, a)
    assert k.cells == before
    assert k.by_label(("v", "a")) == a
    for label in (("v", "b"), ("e", 1), ("f", 1)):
        with pytest.raises(KeyError):
            k.by_label(label)
    assert k.add_cell(0, ("v", "d")) == a + 2


def test_edge_needs_two_distinct_ends() -> None:
    k = RegularCellComplex()
    a = k.add_cell(0, ("v", "a"))
    with pytest.raises(AuditError):
        k.add_cell(1, ("e", 1), (a, a))


def test_seal_refuses_an_edge_with_three_ends() -> None:
    k = RegularCellComplex()
    ends = [k.add_cell(0, ("v", i)) for i in range(3)]
    k.add_cell(1, ("e", 1), ends)
    with pytest.raises(AuditError, match="lacks two distinct ends"):
        k.seal()


def test_seal_refuses_the_theta_two_cell() -> None:
    # one 2-cell on three edges between the same two vertices: each
    # vertex lies on three of its facets, not two
    k = RegularCellComplex()
    a = k.add_cell(0, ("v", "a"))
    b = k.add_cell(0, ("v", "b"))
    edges = [k.add_cell(1, ("e", i), (a, b)) for i in range(3)]
    k.add_cell(2, ("f", "theta"), edges)
    with pytest.raises(AuditError, match="diamond property fails"):
        k.seal()


def test_two_cell_boundary_must_close() -> None:
    k = RegularCellComplex()
    a = k.add_cell(0, ("v", "a"))
    b = k.add_cell(0, ("v", "b"))
    c = k.add_cell(0, ("v", "c"))
    ab = k.add_cell(1, ("e", "ab"), (a, b))
    bc = k.add_cell(1, ("e", "bc"), (b, c))
    k.add_cell(2, ("f", 1), (ab, bc))
    with pytest.raises(AuditError):
        k.seal()


def test_two_cell_boundary_must_be_one_cycle() -> None:
    k = RegularCellComplex()
    vs = [k.add_cell(0, ("v", i)) for i in range(6)]
    tri1 = [
        k.add_cell(1, ("e", (i, j)), (vs[i], vs[j]))
        for i, j in [(0, 1), (1, 2), (2, 0)]
    ]
    tri2 = [
        k.add_cell(1, ("e", (i, j)), (vs[i], vs[j]))
        for i, j in [(3, 4), (4, 5), (5, 3)]
    ]
    k.add_cell(2, ("f", 1), tri1 + tri2)
    with pytest.raises(AuditError):
        k.seal()


def test_involution_audit_requires_totality() -> None:
    k = RegularCellComplex()
    a = k.add_cell(0, ("v", "a"))
    b = k.add_cell(0, ("v", "b"))
    k.add_cell(0, ("v", "c"))
    k.pair(a, b)
    with pytest.raises(AuditError):
        k.seal()


def test_involution_audit_checks_facets() -> None:
    k = RegularCellComplex()
    a = k.add_cell(0, ("v", "a"))
    b = k.add_cell(0, ("v", "b"))
    c = k.add_cell(0, ("v", "c"))
    d = k.add_cell(0, ("v", "d"))
    e1 = k.add_cell(1, ("e", 1), (a, b))
    e2 = k.add_cell(1, ("e", 2), (b, c))
    k.pair(a, c)
    k.pair(b, d)
    k.pair(e1, e2)
    with pytest.raises(AuditError):
        k.seal()


def test_add_cell_validations() -> None:
    k = RegularCellComplex()
    a = k.add_cell(0, ("v", "a"))
    with pytest.raises(AuditError):
        k.add_cell(0, ("v", "b"), ident=a)
    with pytest.raises(AuditError):
        k.add_cell(0, ("v", "a"))
    with pytest.raises(AuditError):
        k.add_cell(0, ("v", "c"), facets=(a,))
    b = k.add_cell(0, ("v", "b"))
    e = k.add_cell(1, ("e", 1), (a, b))
    with pytest.raises(AuditError):
        k.add_cell(1, ("e", 2), (a, e))
    k.seal()
    with pytest.raises(AuditError):
        k.add_cell(0, ("v", "late"))


# -- cells ----------------------------------------------------------------


def test_cell_is_frozen() -> None:
    cell = Cell(0, 0, ("v", "a"), ())
    with pytest.raises(AttributeError):
        cell.dim = 1  # type: ignore[misc]
