import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import _vanishing_nullspace

from boxapprox import approx, linalg
from boxapprox.approx import (
    BallMismatchError,
    Design,
    NotDeterminableError,
    approximate_all,
    approximate_value,
    complete_from_ball,
    covers_all,
    degree_of_approximation,
    determinable,
    _transform_dtype,
    lemma_reconstruct,
    prediction_coefficients,
)
from boxapprox.core import (
    Monomial,
    MultilinearPolynomial,
    Vertex,
    all_vertices,
    basis_size,
    canonical_sort_key,
    eval_polynomial,
    evaluation_matrix,
    make_basis,
    weight_masks,
)
from boxapprox.designs import hamming_ball
from boxapprox.linalg import SpanSolver


def V(s):
    return Vertex.from_bitstring(s)


def random_polynomial(rng, n, max_degree, coeff_range=9, max_terms=None):
    """Random multilinear polynomial of degree <= max_degree, integer coefficients."""
    candidates = [m for m in make_basis(n, max_degree)]
    if max_terms is not None and len(candidates) > max_terms:
        candidates = rng.sample(candidates, max_terms)
    terms = {}
    for m in candidates:
        c = rng.randrange(-coeff_range, coeff_range + 1)
        if c:
            terms[m] = Fraction(c)
    return MultilinearPolynomial(n, terms)


def measured(design, poly):
    return design.with_values([eval_polynomial(poly, v) for v in design.vertices])


def test_design_validation():
    with pytest.raises(ValueError):
        Design(3, ())
    with pytest.raises(ValueError):
        Design(3, (V("000"), V("000")))
    with pytest.raises(ValueError):
        Design(3, (V("000"), V("01")))
    with pytest.raises(ValueError):
        Design(3, (V("000"),), (Fraction(1), Fraction(2)))
    d = Design.from_bitstrings(["00", "11"], [1, "1/2"])
    assert d.values == (Fraction(1), Fraction(1, 2))
    assert V("11") in d
    assert V("01") not in d


def test_determinable_ball_examples():
    ball = hamming_ball(3, 1)
    t = V("111")
    assert determinable(ball, t, 1) is True
    assert determinable(ball, t, 2) is False
    for k in range(4):
        assert determinable(ball, V("100"), k) is True


def test_determinable_validation():
    ball = hamming_ball(3, 1)
    with pytest.raises(ValueError):
        determinable(ball, V("11"), 1)
    with pytest.raises(ValueError):
        determinable(ball, V("111"), 4)


def test_degree_of_approximation_puncture():
    for n in [2, 3, 4]:
        verts = all_vertices(n)
        for target in verts:
            rest = tuple(v for v in verts if v != target)
            design = Design(n, rest)
            assert degree_of_approximation(design, target) == n - 1


def test_degree_of_approximation_puncture_n6():
    n = 6
    verts = all_vertices(n)
    rng = random.Random(13)
    for target in rng.sample(verts, 4):
        rest = tuple(v for v in verts if v != target)
        assert degree_of_approximation(Design(n, rest), target) == n - 1


def test_degree_of_approximation_member_and_face():
    ball = hamming_ball(3, 1)
    assert degree_of_approximation(ball, V("100")) == 3
    face = Design.from_bitstrings(["000", "100", "010", "110"])
    assert degree_of_approximation(face, V("001")) == 0


def test_approximate_value_linear_example():
    ball = hamming_ball(3, 1)
    # f = 2 x1 - x2 + 5
    f = lambda v: Fraction(2 * v.coords()[0] - v.coords()[1] + 5)
    design = ball.with_values([f(v) for v in ball.vertices])
    assert approximate_value(design, V("111"), 1) == 6
    assert approximate_value(design, V("100"), 1) == f(V("100"))


def test_approximate_value_quadratic_example():
    ball = hamming_ball(3, 2)
    poly = MultilinearPolynomial(
        3, {Monomial.from_vars(3, [1, 2]): Fraction(1), Monomial.from_vars(3, [3]): Fraction(3)}
    )
    design = measured(ball, poly)
    assert approximate_value(design, V("111"), 2) == 4


def test_approximate_value_errors():
    ball = hamming_ball(3, 1)
    with pytest.raises(ValueError):
        approximate_value(ball, V("111"), 1)
    design = ball.with_values([1, 2, 3, 4])
    with pytest.raises(NotDeterminableError):
        approximate_value(design, V("111"), 2)


def test_covers_all_examples():
    assert covers_all(hamming_ball(4, 2), 2) is True
    face = Design.from_bitstrings(["000", "100", "010", "110"])
    assert covers_all(face, 1) is False
    full = Design(3, tuple(all_vertices(3)))
    assert covers_all(full, 3) is True


def test_covers_all_iff_every_vertex_determinable():
    rng = random.Random(15)
    for _ in range(25):
        n = rng.randrange(2, 5)
        size = rng.randrange(1, (1 << n) + 1)
        bits = rng.sample(range(1 << n), size)
        design = Design(n, tuple(Vertex(n, b) for b in bits))
        k = rng.randrange(0, n + 1)
        expected = all(determinable(design, t, k) for t in all_vertices(n))
        assert covers_all(design, k) == expected


def test_downward_closure():
    rng = random.Random(52)
    for _ in range(40):
        n = rng.randrange(2, 6)
        size = rng.randrange(1, 1 << n)
        bits = rng.sample(range(1 << n), size)
        design = Design(n, tuple(Vertex(n, b) for b in bits))
        t = Vertex(n, rng.randrange(1 << n))
        for k in range(1, n + 1):
            if determinable(design, t, k):
                assert determinable(design, t, k - 1)


def test_exactness_and_solution_independence():
    rng = random.Random(90)
    for _ in range(30):
        n = rng.randrange(2, 6)
        k = rng.randrange(0, n)
        size = rng.randrange(1, 1 << n)
        bits = rng.sample(range(1 << n), size)
        design = Design(n, tuple(Vertex(n, b) for b in bits))
        poly = random_polynomial(rng, n, k)
        with_vals = measured(design, poly)
        t = Vertex(n, rng.randrange(1 << n))
        if determinable(design, t, k):
            assert approximate_value(with_vals, t, k) == eval_polynomial(poly, t)


def test_lemma_reconstruct_explicit_cube():
    # full 3-cube identity: f(111) from the other seven values
    rng = random.Random(3)
    poly = random_polynomial(rng, 3, 2)
    vals = {v: eval_polynomial(poly, v) for v in all_vertices(3) if v != V("111")}
    assert lemma_reconstruct(vals, V("111")) == eval_polynomial(poly, V("111"))
    # sign pattern: + for even weight, - for odd weight
    f = {v.bitstring(): eval_polynomial(poly, v) for v in all_vertices(3)}
    explicit = (
        f["000"] + f["110"] + f["101"] + f["011"] - f["100"] - f["010"] - f["001"]
    )
    assert lemma_reconstruct(vals, V("111")) == explicit


def test_lemma_reconstruct_edge_and_errors():
    assert lemma_reconstruct({V("0"): Fraction(7)}, V("1")) == 7
    with pytest.raises(ValueError):
        lemma_reconstruct({}, V("1"))
    with pytest.raises(ValueError):
        lemma_reconstruct({V("00"): 1, V("11"): 2}, V("01"))
    with pytest.raises(ValueError):
        lemma_reconstruct({V("01"): 1}, V("01"))


def test_lemma_reconstruct_sub_face():
    # 2-dimensional face of the 3-cube spanned by x2, x3 over base 100
    rng = random.Random(8)
    poly = random_polynomial(rng, 3, 1)
    face = [V("100"), V("110"), V("101"), V("111")]
    vals = {v: eval_polynomial(poly, v) for v in face if v != V("111")}
    assert lemma_reconstruct(vals, V("111")) == eval_polynomial(poly, V("111"))


def test_alternating_sum_identity():
    rng = random.Random(44)
    for n in range(1, 11):
        poly = random_polynomial(rng, n, n - 1, max_terms=12)
        total = Fraction(0)
        for bits in range(1 << n):
            v = Vertex(n, bits)
            if bits.bit_count() % 2 == 0:
                total += eval_polynomial(poly, v)
            else:
                total -= eval_polynomial(poly, v)
        assert total == 0


def test_complete_from_ball_quadratic():
    poly = MultilinearPolynomial(
        3, {Monomial.from_vars(3, [1, 2]): Fraction(1), Monomial.from_vars(3, [3]): Fraction(3)}
    )
    ball = hamming_ball(3, 2)
    vals = {v: eval_polynomial(poly, v) for v in ball.vertices}
    full = complete_from_ball(vals, 3, 2)
    assert len(full) == 8
    assert full[V("111")] == 4
    for v, fv in full.items():
        assert fv == eval_polynomial(poly, v)


def test_complete_from_ball_radius_n_minus_1():
    rng = random.Random(21)
    poly = random_polynomial(rng, 4, 3)
    ball = hamming_ball(4, 3)
    vals = {v: eval_polynomial(poly, v) for v in ball.vertices}
    full = complete_from_ball(vals, 4, 3)
    assert full[V("1111")] == eval_polynomial(poly, V("1111"))


def test_complete_from_ball_n12_size():
    rng = random.Random(67)
    poly = random_polynomial(rng, 12, 2)
    ball = hamming_ball(12, 2)
    assert ball.size == 79
    vals = {v: eval_polynomial(poly, v) for v in ball.vertices}
    full = complete_from_ball(vals, 12, 2)
    assert len(full) == 4096
    spot = random.Random(2).sample(sorted(full, key=lambda v: v.bits), 40)
    for v in spot:
        assert full[v] == eval_polynomial(poly, v)


def test_complete_from_ball_identity_when_radius_n():
    vals = {v: Fraction(v.bits) for v in all_vertices(2)}
    assert complete_from_ball(vals, 2, 2) == vals


def test_complete_from_ball_mismatch():
    ball = hamming_ball(3, 1)
    vals = {v: Fraction(1) for v in ball.vertices}
    with pytest.raises(BallMismatchError) as info:
        complete_from_ball(vals, 3, 2)
    assert "110" in info.value.missing
    extra = dict(vals)
    extra[V("111")] = Fraction(0)
    with pytest.raises(BallMismatchError) as info:
        complete_from_ball(extra, 3, 1)
    assert "111" in info.value.extra


def _complete_by_recursion(values, n, k):
    """Reference completion: the level-by-level alternating-sum recursion.

    Each vertex above weight k gets the value that makes the alternating sum
    over the subcube below it vanish, reading only lighter vertices. About
    3^n Fraction additions; exact on every input.
    """
    filled = {v.bits: Fraction(fv) for v, fv in values.items()}
    for weight in range(k + 1, n + 1):
        for mask in weight_masks(n, weight):
            w_parity = weight & 1
            total = Fraction(0)
            sub = (mask - 1) & mask
            while True:
                if (sub.bit_count() & 1) == w_parity:
                    total -= filled[sub]
                else:
                    total += filled[sub]
                if sub == 0:
                    break
                sub = (sub - 1) & mask
            filled[mask] = total

    out_vertices = sorted((Vertex(n, b) for b in filled), key=canonical_sort_key)
    return {v: filled[v.bits] for v in out_vertices}


def _assert_same_completion(values, n, k):
    got = complete_from_ball(values, n, k)
    expected = _complete_by_recursion(values, n, k)
    assert list(got.items()) == list(expected.items())
    assert all(type(x) is Fraction for x in got.values())


_rationals = st.builds(
    Fraction,
    st.integers(min_value=-(10**30), max_value=10**30),
    st.integers(min_value=1, max_value=10**12),
)


@st.composite
def _ball_tables(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    k = draw(st.integers(min_value=0, max_value=n))
    ball = hamming_ball(n, k).vertices
    small = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 1, 2, 3, 7]))
    # small values alone stay on the int64 path; mixing in wide ones leaves it
    elements = draw(st.sampled_from([small, st.one_of(small, _rationals)]))
    vals = draw(st.lists(elements, min_size=len(ball), max_size=len(ball)))
    return dict(zip(ball, vals)), n, k


@settings(max_examples=40, deadline=None)
@given(_ball_tables())
def test_complete_from_ball_equals_recursion(table):
    # arbitrary rationals, not only polynomial values: the two agree everywhere
    _assert_same_completion(*table)


@pytest.mark.parametrize("k", [0, 1, 2, 4, 7, 8])
def test_complete_from_ball_equals_recursion_beyond_int64(k):
    # numerators near 2^60 with both signs, over denominators 1 and 3: the
    # Python-int path runs, and for 0 < k < n int64 intermediates would wrap
    n = 8
    rng = random.Random(300 + k)
    ball = hamming_ball(n, k).vertices
    values = {v: Fraction(rng.choice([-1, 1]) * ((1 << 60) - rng.randrange(1 << 20)),
                          rng.choice([1, 3])) for v in ball}
    _assert_same_completion(values, n, k)
    if k in (2, 4):
        # here even the answers lie beyond int64
        assert max(abs(x) for x in complete_from_ball(values, n, k).values()) > 1 << 63


def test_transform_dtype_bound():
    # int64 exactly when bits(max) + n + k + 1 < 63
    assert _transform_dtype((1 << 52) - 1, 8, 1) is np.int64
    assert _transform_dtype(1 << 52, 8, 1) is object
    assert _transform_dtype((1 << 40) - 1, 10, 11) is np.int64
    assert _transform_dtype(1 << 40, 10, 11) is object
    assert _transform_dtype(0, 24, 24) is np.int64


def test_two_path_agreement():
    rng = random.Random(71)
    for _ in range(12):
        n = rng.randrange(2, 7)
        k = rng.randrange(0, n)
        poly = random_polynomial(rng, n, k)
        ball = hamming_ball(n, k)
        design = measured(ball, poly)
        completed = complete_from_ball(design.value_map(), n, k)
        for t, predicted in approximate_all(design, k).items():
            assert predicted == completed[t]


def test_approximate_all_matches_single_calls():
    rng = random.Random(19)
    n = 4
    bits = rng.sample(range(16), 7)
    design = Design(
        n,
        tuple(Vertex(n, b) for b in bits),
        tuple(Fraction(rng.randrange(-5, 6)) for _ in bits),
    )
    k = 2
    batch = approximate_all(design, k)
    for t in all_vertices(n):
        if batch[t] is None:
            with pytest.raises(NotDeterminableError):
                approximate_value(design, t, k)
        else:
            assert approximate_value(design, t, k) == batch[t]


def test_ball_minimality_small():
    # every 3-point subset of the square is affinely independent, so covers order 1
    for subset in combinations(range(4), 3):
        design = Design(2, tuple(Vertex(2, b) for b in subset))
        assert covers_all(design, 1) is True
    # but removing any point from the radius-1 ball of the 3-cube breaks order 1
    ball = hamming_ball(3, 1)
    for drop in range(ball.size):
        rest = tuple(v for i, v in enumerate(ball.vertices) if i != drop)
        assert covers_all(Design(3, rest), 1) is False


def _replay_oracle(design, k):
    """Every prediction as the measured values combined with its replayed coefficients."""
    return {
        t: None if c is None else sum((a * f for a, f in zip(c, design.values)), Fraction(0))
        for t, c in prediction_coefficients(design, k).items()
    }


# Noisy values, so predictions depend on the canonical coefficient choice;
# the large integers push the transforms onto Python ints.
_noisy_values = st.one_of(
    st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**6),
    st.integers(-(2**80), 2**80),
)


@st.composite
def _valued_designs(draw, max_n=6):
    """A random design with noisy values and an order, its size below, at or above the basis.

    The design lists the vertices of the face on the last `face` coordinates
    first. A face wider than k holds more vertices than it has independent
    evaluation vectors, and they are zero on every monomial using x1, so
    the leading rows of the transposed system are dependent and a pivot row
    from outside the face passes them on its way up.
    """
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(0, n))
    dim = basis_size(n, k)
    m = draw(st.one_of(st.just(min(dim, 1 << n)), st.integers(1, min(1 << n, 2 * dim))))
    face = draw(st.integers(0, n))
    inside = draw(st.permutations(range(1 << face)))
    bits = (inside + draw(st.permutations(range(1 << face, 1 << n))))[:m]
    values = draw(st.lists(_noisy_values, min_size=m, max_size=m))
    return Design(n, tuple(Vertex(n, b) for b in bits), tuple(values)), k


@settings(max_examples=80, deadline=None)
@given(_valued_designs())
def test_approximate_all_equals_replay_oracle(case):
    design, k = case
    assert list(approximate_all(design, k).items()) == list(_replay_oracle(design, k).items())


@settings(max_examples=60, deadline=None)
@given(_valued_designs())
def test_vanishing_polynomials_equal_the_oracle(case):
    design, k = case
    basis = make_basis(design.n, k)
    columns = evaluation_matrix(basis, design.vertices).entries
    ours = approx._vanishing_polynomials(SpanSolver(columns), columns)
    assert ours == [vec for _, vec in _vanishing_nullspace(design, k)]


def test_approximate_all_runs_one_elimination(monkeypatch):
    calls = []
    bareiss = linalg._bareiss
    monkeypatch.setattr(linalg, "_bareiss", lambda m: calls.append(len(m)) or bareiss(m))
    # rank 4 of 5 monomials, so one vanishing polynomial is built as well
    design = Design.from_bitstrings(["0000", "0001", "0010", "0011", "0100"], [0, 0, 0, 1, 0])
    approximate_all(design, 1)
    assert calls == [design.size]


def test_approximate_all_dependent_measurement_regression():
    # 0011 is affinely dependent on 0000, 0001 and 0010, so its measurement 1
    # is not fitted; the prediction at 0000 is its own measurement 0, and
    # every vertex with x1 = 1 is undetermined
    design = Design.from_bitstrings(["0000", "0001", "0010", "0011", "0100"], [0, 0, 0, 1, 0])
    batch = approximate_all(design, 1)
    assert list(batch.items()) == list(_replay_oracle(design, 1).items())
    assert {t.bitstring() for t, v in batch.items() if v is None} == {
        t.bitstring() for t in all_vertices(4) if t.coords()[0] == 1
    }
    assert all(v == 0 for v in batch.values() if v is not None)


def test_covers_all_refuses_work_above_cap_before_elimination(monkeypatch):
    calls = []
    monkeypatch.setattr(approx, "rank_rational", lambda *args: calls.append(args))
    monkeypatch.setattr(approx, "evaluation_matrix", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="elimination steps"):
        covers_all(hamming_ball(14, 14), 14)
    assert calls == []


def _automorphism(n, perm, flip):
    """Coordinate i moves to position perm[i], then the flip mask is XORed in."""

    def apply(v):
        coords = [0] * n
        for i, c in enumerate(v.coords()):
            coords[perm[i]] = c
        return Vertex(n, Vertex.from_coords(coords).bits ^ flip)

    return apply


@settings(max_examples=60, deadline=None)
@given(_valued_designs(), st.data())
def test_approximate_all_invariant_under_cube_automorphisms(case, data):
    design, k = case
    n = design.n
    perm = data.draw(st.permutations(range(n)))
    flip = data.draw(st.integers(0, (1 << n) - 1))
    phi = _automorphism(n, perm, flip)
    moved = Design(n, tuple(phi(v) for v in design.vertices), design.values)
    image = approximate_all(moved, k)
    for t, predicted in approximate_all(design, k).items():
        assert image[phi(t)] == predicted


def test_cube_answers_reject_large_n_before_factoring(monkeypatch):
    calls = []
    monkeypatch.setattr(approx, "SpanSolver", lambda *args: calls.append(args))
    n = 25
    design = Design(n, tuple(Vertex(n, b) for b in range(300)), tuple(range(300)))
    for answer in (approximate_all, prediction_coefficients):
        with pytest.raises(ValueError, match="capped at n=24"):
            answer(design, 3)
    assert calls == []
