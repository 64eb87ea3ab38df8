import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from boxapprox.core import (
    MAX_BASIS,
    MAX_ELIMINATION_WORK,
    Monomial,
    MultilinearPolynomial,
    Vertex,
    all_vertices,
    basis_size,
    canonical_masks,
    canonical_sort_key,
    check_basis_size,
    check_elimination_work,
    eval_monomial,
    eval_polynomial,
    evaluation_matrix,
    hamming_weight,
    make_basis,
    reduce_multilinear,
    subset_transform,
    weight_masks,
)
from reference_linalg import rank_rational


def V(s):
    return Vertex.from_bitstring(s)


def M(n, *variables):
    return Monomial.from_vars(n, variables)


def test_hamming_weight():
    assert hamming_weight(V("000")) == 0
    assert hamming_weight(V("111")) == 3
    assert hamming_weight(V("011")) == 2


def test_vertex_bitstring_roundtrip():
    for s in ["0", "1", "1100", "0110100"]:
        assert V(s).bitstring() == s
    assert V("1100").coords() == (1, 1, 0, 0)
    assert Vertex.from_coords((1, 1, 0, 0)) == V("1100")


def test_vertex_validation():
    with pytest.raises(ValueError):
        Vertex.from_bitstring("10x")
    with pytest.raises(ValueError):
        Vertex.from_bitstring("")
    with pytest.raises(ValueError):
        Vertex(0, 0)
    with pytest.raises(ValueError):
        Vertex(3, 8)
    with pytest.raises(ValueError):
        Vertex(65, 0)
    with pytest.raises(ValueError):
        Vertex.from_coords((0, 2))


def test_eval_monomial():
    assert eval_monomial(M(3, 2, 3), V("011")) == 1
    assert eval_monomial(M(3, 1, 2), V("011")) == 0
    for s in ["000", "101", "111"]:
        assert eval_monomial(M(3), V(s)) == 1
    with pytest.raises(ValueError):
        eval_monomial(M(2, 1), V("011"))


def test_monomial_str_and_vars():
    assert str(M(3)) == "1"
    assert str(M(3, 1, 3)) == "x1*x3"
    assert M(4, 2, 4).variables() == (2, 4)
    assert M(4, 2, 4).vertex() == V("0101")


def test_make_basis_n3_k2_order():
    basis = make_basis(3, 2)
    assert [str(m) for m in basis] == ["x1*x2", "x1*x3", "x2*x3", "x1", "x2", "x3", "1"]


def test_make_basis_constants_only():
    basis = make_basis(2, 0)
    assert [str(m) for m in basis] == ["1"]


def test_make_basis_n4_k2_row_labels():
    labels = [str(m) for m in make_basis(4, 2)]
    assert labels == [
        "x1*x2", "x1*x3", "x1*x4", "x2*x3", "x2*x4", "x3*x4",
        "x1", "x2", "x3", "x4", "1",
    ]


def test_make_basis_validation():
    with pytest.raises(ValueError):
        make_basis(3, 4)
    with pytest.raises(ValueError):
        make_basis(3, -1)


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_subset_transform_equals_subset_sums(dtype):
    rng = random.Random(5)
    for n in range(0, 7):
        values = [rng.randint(-50, 50) for _ in range(1 << n)]
        zeta = [sum(values[t] for t in range(1 << n) if t & s == t) for s in range(1 << n)]
        moebius = [
            sum((-1) ** (s ^ t).bit_count() * values[t] for t in range(1 << n) if t & s == t)
            for s in range(1 << n)
        ]
        a = np.array(values, dtype=dtype)
        subset_transform(a, n)
        assert a.tolist() == zeta
        subset_transform(a, n, inverse=True)
        assert a.tolist() == values
        subset_transform(a, n, inverse=True)
        assert a.tolist() == moebius


def test_weight_masks_descending_x1_first():
    assert list(weight_masks(3, 1)) == [0b100, 0b010, 0b001]
    assert list(weight_masks(4, 2)) == [0b1100, 0b1010, 0b1001, 0b0110, 0b0101, 0b0011]
    assert list(weight_masks(5, 0)) == [0]
    assert list(weight_masks(2, 3)) == []
    for n in range(1, 9):
        for d in range(n + 1):
            masks = list(weight_masks(n, d))
            assert all(m.bit_count() == d for m in masks)
            assert masks == sorted(masks, reverse=True)
            assert len(masks) == len(set(masks)) == comb(n, d)


def test_make_basis_rejects_huge_basis_before_enumerating():
    # sum(C(64, i), i <= 30) is about 6.5e18 monomials
    with pytest.raises(ValueError, match="cap"):
        make_basis(64, 30)
    with pytest.raises(ValueError, match="cap"):
        make_basis(64, 5)
    # the cap admits every n <= 20 at full order and n = 64 up to k = 4
    assert MAX_BASIS == 1 << 20
    check_basis_size(20, 20)
    check_basis_size(64, 4)
    assert len(make_basis(64, 2)) == 1 + 64 + 2016


def test_basis_ordering_invariant():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(1, 9)
        k = rng.randrange(0, n + 1)
        basis = make_basis(n, k)
        assert len(basis) == sum(
            len(list(__import__("itertools").combinations(range(n), d)))
            for d in range(k + 1)
        )
        for a, b in zip(basis.monomials, basis.monomials[1:]):
            assert a.degree() >= b.degree()
            if a.degree() == b.degree():
                # x1-first order: larger packed support comes first
                assert a.support > b.support


def test_evaluation_matrix_single_vertex():
    mat = evaluation_matrix(make_basis(3, 1), [V("111")])
    assert [row[0] for row in mat.entries] == [1, 1, 1, 1]


def test_evaluation_matrix_constant_basis():
    verts = [V("00"), V("10"), V("11")]
    mat = evaluation_matrix(make_basis(2, 0), verts)
    assert mat.entries == ((1, 1, 1),)


def test_evaluation_matrix_errors():
    with pytest.raises(ValueError):
        evaluation_matrix(make_basis(3, 1), [])
    with pytest.raises(ValueError):
        evaluation_matrix(make_basis(3, 1), [V("01")])


def test_eval_polynomial_examples():
    p = MultilinearPolynomial(
        3, {M(3, 1, 2): Fraction(1), M(3, 3): Fraction(3)}
    )
    assert eval_polynomial(p, V("111")) == 4
    zero = MultilinearPolynomial(3, {})
    one = MultilinearPolynomial(3, {M(3): Fraction(1)})
    for s in ["000", "010", "111"]:
        assert eval_polynomial(zero, V(s)) == 0
        assert eval_polynomial(one, V(s)) == 1
    with pytest.raises(ValueError):
        eval_polynomial(p, V("01"))


def test_polynomial_drops_zero_terms():
    p = MultilinearPolynomial(2, {M(2, 1): Fraction(0), M(2): Fraction(2)})
    assert list(p.terms) == [M(2)]
    assert p.degree() == 0
    assert not MultilinearPolynomial(2, {})


def test_reduce_multilinear_examples():
    p = reduce_multilinear([((2, 1, 0), 1)], 3)
    assert p.terms == {M(3, 1, 2): Fraction(1)}
    p = reduce_multilinear([((3,), 1), ((1,), 1)], 1)
    assert p.terms == {M(1, 1): Fraction(2)}
    p = reduce_multilinear([((2, 2), 2), ((1, 1), -1)], 2)
    assert p.terms == {M(2, 1, 2): Fraction(1)}
    with pytest.raises(ValueError):
        reduce_multilinear([((1, -1), 1)], 2)
    with pytest.raises(ValueError):
        reduce_multilinear([((1,), 1)], 2)


def _eval_with_exponents(terms, v):
    """Brute-force evaluation of arbitrary-exponent terms at a vertex."""
    coords = v.coords()
    total = Fraction(0)
    for exponents, coeff in terms:
        prod = Fraction(coeff)
        for x, e in zip(coords, exponents):
            prod *= Fraction(x) ** e
        total += prod
    return total


def test_reduce_agrees_with_direct_evaluation():
    rng = random.Random(123)
    for _ in range(50):
        n = rng.randrange(1, 5)
        terms = [
            (
                tuple(rng.randrange(0, 4) for _ in range(n)),
                rng.randrange(-9, 10),
            )
            for _ in range(rng.randrange(1, 6))
        ]
        p = reduce_multilinear(terms, n)
        for bits in range(1 << n):
            v = Vertex(n, bits)
            assert eval_polynomial(p, v) == _eval_with_exponents(terms, v)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_full_evaluation_matrix_invertible(n):
    basis = make_basis(n, n)
    verts = all_vertices(n)
    mat = evaluation_matrix(basis, verts)
    assert mat.shape == (1 << n, 1 << n)
    assert rank_rational(mat.entries) == 1 << n


def test_all_vertices_order():
    assert [v.bitstring() for v in all_vertices(2)] == ["00", "10", "01", "11"]
    assert [v.bitstring() for v in all_vertices(3)][:4] == ["000", "100", "010", "001"]
    with pytest.raises(ValueError):
        all_vertices(25)


def _all_vertices_by_sort(n):
    """The canonical order as it was first built: every vertex, then one sort."""
    out = [Vertex(n, b) for b in range(1 << n)]
    out.sort(key=canonical_sort_key)
    return out


@pytest.mark.parametrize("n", range(1, 13))
def test_all_vertices_equals_sorted_construction(n):
    assert all_vertices(n) == _all_vertices_by_sort(n)


@pytest.mark.parametrize("n", range(1, 17))
def test_canonical_masks_equal_weight_levels_and_sort_key_order(n):
    masks = canonical_masks(n).tolist()
    assert masks == [b for d in range(n + 1) for b in weight_masks(n, d)]
    assert masks == sorted(range(1 << n), key=lambda b: canonical_sort_key(Vertex(n, b)))


def test_canonical_masks_checks_the_dimension():
    for n in (0, 25, 65):
        with pytest.raises(ValueError):
            canonical_masks(n)


def test_check_elimination_work_bound():
    # basis size x vertices x min of the two, compared with the cap
    assert basis_size(12, 3) == 299
    check_elimination_work(12, 3, 300)
    check_elimination_work(9, 9, 512)
    with pytest.raises(ValueError, match="elimination steps"):
        check_elimination_work(10, 10, 1024)
    size = basis_size(20, 3)
    m = max(m for m in range(1, size) if size * m * m <= MAX_ELIMINATION_WORK)
    check_elimination_work(20, 3, m)
    with pytest.raises(ValueError, match="cap"):
        check_elimination_work(20, 3, m + 1)
    # the memory cap on the basis is checked first
    with pytest.raises(ValueError, match="monomials"):
        check_elimination_work(64, 30, 1)
