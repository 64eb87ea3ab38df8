import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest

import boxapprox
from boxapprox import core
from boxapprox.core import (
    MAX_BASIS,
    MAX_ELIMINATION_WORK,
    MultilinearPolynomial,
    Vertex,
    _evaluation_rows,
    all_vertices,
    basis_size,
    canonical_masks,
    check_basis_size,
    check_elimination_work,
    eval_polynomial,
    reduce_multilinear,
    subset_transform,
    weight_masks,
)
from boxapprox.designs import hamming_ball, tightness_matrix
from reference_basis import descending_supports, evaluation_rows
from reference_linalg import rank_rational


# The monomial-object layer the support mask replaced, with its replacements:
# mask ints, `_ascending_supports`, `Vertex.weight()` and `canonical_masks`
REMOVED_NAMES = (
    "Monomial",
    "MonomialBasis",
    "make_basis",
    "eval_monomial",
    "EvaluationMatrix",
    "evaluation_matrix",
    "evaluation_vector",
    "hamming_weight",
    "canonical_sort_key",
)


def V(s):
    return Vertex.from_bitstring(s)


def test_public_names_resolve_and_the_removed_layer_is_gone():
    assert len(set(boxapprox.__all__)) == len(boxapprox.__all__)
    for name in boxapprox.__all__:
        assert getattr(boxapprox, name) is not None, name
    for name in REMOVED_NAMES:
        assert not hasattr(boxapprox, name) and not hasattr(core, name), name


def label(n, support):
    """A monomial's name from its support mask: x1*x3, or 1 for the empty support."""
    return "*".join(f"x{i}" for i in range(1, n + 1) if support >> (n - i) & 1) or "1"


def test_hamming_weight():
    assert V("000").weight() == 0
    assert V("111").weight() == 3
    assert V("011").weight() == 2


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
    # a one-term polynomial with coefficient 1 is its monomial
    def monomial(n, support):
        return MultilinearPolynomial(n, {support: 1})

    assert eval_polynomial(monomial(3, 0b011), V("011")) == 1
    assert eval_polynomial(monomial(3, 0b110), V("011")) == 0
    for s in ["000", "101", "111"]:
        assert eval_polynomial(monomial(3, 0), V(s)) == 1
    with pytest.raises(ValueError):
        eval_polynomial(monomial(2, 0b10), V("011"))


def test_tightness_supports_n3_k2_order():
    supports, _ = tightness_matrix(3, 2)
    assert [label(3, s) for s in supports] == ["x1*x2", "x1*x3", "x2*x3", "x1", "x2", "x3", "1"]


def test_tightness_supports_constants_only():
    supports, _ = tightness_matrix(2, 0)
    assert [label(2, s) for s in supports] == ["1"]


def test_tightness_supports_n4_k2_row_labels():
    labels = [label(4, s) for s in tightness_matrix(4, 2)[0]]
    assert labels == [
        "x1*x2", "x1*x3", "x1*x4", "x2*x3", "x2*x4", "x3*x4",
        "x1", "x2", "x3", "x4", "1",
    ]


def test_tightness_supports_validation():
    with pytest.raises(ValueError):
        tightness_matrix(3, 4)
    with pytest.raises(ValueError):
        tightness_matrix(3, -1)
    for n in (0, 65):
        with pytest.raises(ValueError, match="dimension"):
            tightness_matrix(n, 0)


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


def test_basis_cap_rejects_huge_orders_before_enumerating():
    # sum(C(64, i), i <= 30) is about 6.5e18 monomials
    with pytest.raises(ValueError, match="cap"):
        hamming_ball(64, 30)
    with pytest.raises(ValueError, match="cap"):
        hamming_ball(64, 5)
    # the cap admits every n <= 20 at full order and n = 64 up to k = 4
    assert MAX_BASIS == 1 << 20
    check_basis_size(20, 20)
    check_basis_size(64, 4)
    assert hamming_ball(64, 2).size == 1 + 64 + 2016


def test_basis_ordering_invariant():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(1, 9)
        k = rng.randrange(0, n + 1)
        supports, _ = tightness_matrix(n, k)
        assert len(supports) == sum(
            len(list(__import__("itertools").combinations(range(n), d)))
            for d in range(k + 1)
        )
        for a, b in zip(supports, supports[1:]):
            assert a.bit_count() >= b.bit_count()
            if a.bit_count() == b.bit_count():
                # x1-first order: larger packed support comes first
                assert a > b
        assert supports == descending_supports(n, k)


def test_evaluation_rows_single_vertex():
    rows = _evaluation_rows(descending_supports(3, 1), [0b111])
    assert rows.T[:, 0].tolist() == [1, 1, 1, 1]


def test_evaluation_rows_constant_basis():
    rows = _evaluation_rows([0], [0b00, 0b10, 0b11])
    assert rows.T.tolist() == [[1, 1, 1]]


def test_evaluation_rows_equal_the_containment_oracle():
    rng = random.Random(11)
    for n in (1, 5, 63, 64):
        supports = [rng.getrandbits(n) for _ in range(9)] + [0, (1 << n) - 1]
        masks = [rng.getrandbits(n) for _ in range(7)] + [0, (1 << n) - 1]
        rows = _evaluation_rows(supports, masks)
        assert rows.dtype == np.int64
        assert rows.tolist() == evaluation_rows(supports, masks)


def test_eval_polynomial_examples():
    p = MultilinearPolynomial(3, {0b110: Fraction(1), 0b001: Fraction(3)})
    assert eval_polynomial(p, V("111")) == 4
    zero = MultilinearPolynomial(3, {})
    one = MultilinearPolynomial(3, {0: Fraction(1)})
    for s in ["000", "010", "111"]:
        assert eval_polynomial(zero, V(s)) == 0
        assert eval_polynomial(one, V(s)) == 1
    with pytest.raises(ValueError):
        eval_polynomial(p, V("01"))


def test_polynomial_drops_zero_terms():
    p = MultilinearPolynomial(2, {0b10: Fraction(0), 0: Fraction(2)})
    assert list(p.terms) == [0]
    assert p.degree() == 0
    assert not MultilinearPolynomial(2, {})
    assert MultilinearPolynomial(3, {0b011: 1, 0b100: 2}).degree() == 2


def test_polynomial_keys_are_support_masks_of_its_dimension():
    for key in (-1, 4, 1 << 64, "x1", (0, 1), 1.0):
        with pytest.raises(ValueError, match="out of range"):
            MultilinearPolynomial(2, {key: 1})
    assert MultilinearPolynomial(2, {3: 1}).terms == {3: Fraction(1)}


def test_reduce_multilinear_examples():
    p = reduce_multilinear([((2, 1, 0), 1)], 3)
    assert p.terms == {0b110: Fraction(1)}
    p = reduce_multilinear([((3,), 1), ((1,), 1)], 1)
    assert p.terms == {0b1: Fraction(2)}
    p = reduce_multilinear([((2, 2), 2), ((1, 1), -1)], 2)
    assert p.terms == {0b11: Fraction(1)}
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
    supports = descending_supports(n, n)
    matrix = _evaluation_rows(supports, [v.bits for v in all_vertices(n)]).T
    assert matrix.shape == (1 << n, 1 << n)
    assert rank_rational(matrix.tolist()) == 1 << n


def test_all_vertices_order():
    assert [v.bitstring() for v in all_vertices(2)] == ["00", "10", "01", "11"]
    assert [v.bitstring() for v in all_vertices(3)][:4] == ["000", "100", "010", "001"]
    with pytest.raises(ValueError):
        all_vertices(25)


def _all_vertices_by_sort(n):
    """The canonical order as it was first built: every vertex, then one sort."""
    out = [Vertex(n, b) for b in range(1 << n)]
    out.sort(key=lambda v: (v.weight(), -v.bits))
    return out


@pytest.mark.parametrize("n", range(1, 13))
def test_all_vertices_equals_sorted_construction(n):
    assert all_vertices(n) == _all_vertices_by_sort(n)


@pytest.mark.parametrize("n", range(1, 17))
def test_canonical_masks_equal_weight_levels_and_sort_key_order(n):
    masks = canonical_masks(n).tolist()
    assert masks == [b for d in range(n + 1) for b in weight_masks(n, d)]
    assert masks == sorted(range(1 << n), key=lambda b: (b.bit_count(), -b))


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
