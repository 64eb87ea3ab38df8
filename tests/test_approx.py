import ast
import io
import random
from fractions import Fraction
from itertools import combinations
from math import lcm
from pathlib import Path

import numpy as np
import pytest
import reference_linalg as reference
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import _vanishing_nullspace
from test_core import REMOVED_NAMES

from boxapprox import approx, gf2, linalg
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
    MultilinearPolynomial,
    Vertex,
    all_vertices,
    basis_size,
    eval_polynomial,
    weight_masks,
)
from boxapprox.designs import hamming_ball, sample_random_design
from boxapprox.formats import parse_values_csv, write_values_csv
from boxapprox.linalg import ModularEchelon
from reference_basis import descending_supports, evaluation_rows


def V(s):
    return Vertex.from_bitstring(s)


def random_polynomial(rng, n, max_degree, coeff_range=9, max_terms=None):
    """Random multilinear polynomial of degree <= max_degree, integer coefficients."""
    candidates = descending_supports(n, max_degree)
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


def test_design_stores_values_once_as_integers_over_the_reduced_lcm():
    # from Fractions, ints or literals, or from integers over any common
    # scale: the same numerators over the lcm of the reduced denominators
    vertices = (V("00"), V("01"), V("10"))
    d = Design(2, vertices, [Fraction(1, 2), 3, "-5/6"])
    assert (d.numerators, d.scale) == ((3, 18, -5), 6)
    assert d.values == (Fraction(1, 2), Fraction(3), Fraction(-5, 6))
    assert d.value_map() == dict(zip(vertices, d.values))
    scaled = Design(2, vertices, numerators=[30, 180, -50], scale=60)
    assert scaled == d and hash(scaled) == hash(d)
    assert "values" not in vars(d) and "_members" in vars(d)
    assert Design(2, vertices, [4, -2, 0]).scale == 1
    assert Design(2, vertices, numerators=[0, 0, 0], scale=7).numerators == (0, 0, 0)
    assert Design(2, vertices, numerators=[0, 0, 0], scale=7).scale == 1
    assert d != Design(2, vertices, [Fraction(1, 2), 3, "-5/7"])
    bare = Design(2, vertices)
    assert bare.values is None and bare.numerators is None and bare != d
    assert d.with_values(iter([1, 2, 3])) == Design(2, vertices, numerators=[1, 2, 3])
    assert Design(2, vertices, (x for x in d.values)) == d
    with pytest.raises(ValueError, match="2 values for 3 vertices"):
        Design(2, vertices, numerators=[1, 2], scale=3)
    with pytest.raises(ValueError, match="no measured values"):
        bare.value_map()
    with pytest.raises(AttributeError):
        d.scale = 1


def test_design_refuses_a_scale_below_one_and_round_trips_a_positive_one():
    # a scale of -2 would be written as "1/-2", which the reader refuses,
    # and a scale of 0 would divide by zero in `values`
    vertex = (Vertex(1, 0),)
    for scale in (-2, 0):
        with pytest.raises(ValueError, match="scale"):
            Design(1, vertex, numerators=[1], scale=scale)
    design = Design(2, (V("00"), V("01"), V("11")), numerators=[1, -4, 6], scale=8)
    assert (design.numerators, design.scale) == ((1, -4, 6), 8)
    out = io.StringIO()
    write_values_csv(out, design)
    assert out.getvalue().splitlines()[1:] == ["00,1/8", "01,-1/2", "11,3/4"]
    assert parse_values_csv(io.StringIO(out.getvalue())) == design


def test_design_values_build_no_fraction_for_int_fraction_or_plain_literal_entries(monkeypatch):
    # ints and Fractions carry their pair, a plain literal is split by int(),
    # and only another literal, such as an exponent, builds one Fraction
    row = [Fraction(1, 2), 3, Fraction(-5, 6)]
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(
        Fraction, "__new__", staticmethod(lambda *a, **kw: built.append(a) or new(*a, **kw))
    )
    three = tuple(Vertex(2, b) for b in range(3))
    assert _scaled(Design(2, three, row)) == ((3, 18, -5), 6)
    assert built == []
    assert _scaled(Design(1, (V("0"), V("1")), ["1/4", 1])) == ((1, 4), 4)
    assert built == []
    assert _scaled(Design(1, (V("0"), V("1")), ["1e-2", 1])) == ((1, 100), 100)
    assert len(built) == 1


def _scaled(design):
    return design.numerators, design.scale


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
        3, {0b110: Fraction(1), 0b001: Fraction(3)}
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


def test_design_vertex_is_determinable_but_predicted_by_the_fit(monkeypatch):
    # a design vertex is determinable at every order, answered from
    # membership; on inconsistent values the canonical combination there
    # is the fit of the other measurements, not its own
    design = Design.from_bitstrings(["000", "100", "010", "001", "110"], [0, 1, 1, 0, 5])
    t = V("110")
    assert approximate_value(design, t, 1) == 2
    assert design.value_map()[t] == 5
    monkeypatch.setattr(approx, "_target_system", lambda *args: pytest.fail("factored"))
    assert all(determinable(design, t, k) is True for k in range(4))
    # its dimension and order are still checked first
    for target, k in ((t, 4), (t, -1), (V("11"), 1)):
        with pytest.raises(ValueError):
            determinable(design, target, k)


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
        3, {0b110: Fraction(1), 0b001: Fraction(3)}
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


def test_complete_from_ball_takes_a_measured_design():
    # the design's integers are used as they are, with the mapping's checks
    ball = hamming_ball(3, 1)
    design = ball.with_values([1, "1/2", 0, Fraction(-3, 4)])
    table = complete_from_ball(design, 3, 1)
    assert table == complete_from_ball(design.value_map(), 3, 1)
    assert table.denominator == design.scale == 4
    with pytest.raises(ValueError, match="has dimension 3, expected 4"):
        complete_from_ball(design, 4, 1)
    with pytest.raises(ValueError, match="no measured values"):
        complete_from_ball(ball, 3, 1)
    with pytest.raises(BallMismatchError) as info:
        complete_from_ball(design, 3, 2)
    assert "110" in info.value.missing


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

    out_vertices = sorted((Vertex(n, b) for b in filled), key=lambda v: (v.weight(), -v.bits))
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


def _reference_coefficients(design, k):
    """Every vertex's canonical coefficients from the reference solver, None where it has none."""
    basis = descending_supports(design.n, k)
    solver = reference.SpanSolver(evaluation_rows(basis, [v.bits for v in design.vertices]))
    return {t: solver.solve(evaluation_rows(basis, [t.bits])[0]) for t in all_vertices(design.n)}


def _replay_oracle(design, k):
    """Every prediction as the measured values combined with its replayed coefficients."""
    return {
        t: None if c is None else sum((a * f for a, f in zip(c, design.values)), Fraction(0))
        for t, c in _reference_coefficients(design, k).items()
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
    # the kernel vectors `approximate_all` transforms, each scaled so that
    # its free monomial, the last one it uses, has coefficient 1; the
    # oracle runs on the same ascending-degree columns, a stable sort of
    # the descending supports by degree
    design, k = case
    ascending = sorted(descending_supports(design.n, k), key=int.bit_count)
    supports, rows = approx._design_rows(design, k)
    assert supports == ascending
    _, kernel = ModularEchelon(rows).fit([list(design.numerators)])
    ours = []
    for columns, ints in kernel:
        free = max(c for c, v in zip(columns, ints) if v)
        scale = ints[columns.index(free)]
        y = [Fraction(0)] * rows.shape[1]
        for c, v in zip(columns, ints):
            y[c] = Fraction(v, scale)
        ours.append(y)
    assert ours == [vec for _, vec in _vanishing_nullspace(design, k, ascending)]


def _record_factors(monkeypatch):
    """The prime of every `_echelon_modp` call, in order."""
    primes = []
    echelon = linalg._echelon_modp
    monkeypatch.setattr(
        linalg, "_echelon_modp", lambda r, p, **kw: primes.append(p) or echelon(r, p, **kw)
    )
    return primes


def test_approximate_all_runs_one_elimination(monkeypatch):
    factored = _record_factors(monkeypatch)
    # rank 4 of 5 monomials, so one vanishing polynomial is built as well
    design = Design.from_bitstrings(["0000", "0001", "0010", "0011", "0100"], [0, 0, 0, 1, 0])
    approximate_all(design, 1)
    assert factored == [linalg._P]


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
    monkeypatch.setattr(approx, "_evaluation_rows", lambda *args: calls.append(args))
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
    monkeypatch.setattr(approx, "ModularEchelon", lambda *args: calls.append(args))
    n = 25
    design = Design(n, tuple(Vertex(n, b) for b in range(300)), tuple(range(300)))
    for answer in (approximate_all, prediction_coefficients):
        with pytest.raises(ValueError, match="capped at n=24"):
            answer(design, 3)
    # above the work cap the coefficient table refuses before it builds one
    # unit vector per design vertex, 2^28 entries here
    with pytest.raises(ValueError, match="elimination steps"):
        prediction_coefficients(hamming_ball(14, 14), 14)
    assert calls == []


@pytest.mark.parametrize("prime", [None, 2, 3])
@settings(max_examples=60, deadline=None)
@given(_valued_designs(), st.data())
def test_certified_answers_equal_bareiss(prime, case, data):
    # with p = 2 or 3 the rank often drops mod p and many lifts fail their
    # exact check, so a factor mod a new prime answers those
    design, k = case
    n = design.n
    t = Vertex(n, data.draw(st.integers(0, (1 << n) - 1)))
    basis = descending_supports(n, k)
    columns = evaluation_rows(basis, [v.bits for v in design.vertices])
    matrix = [list(r) for r in zip(*columns)]
    coeffs = reference.solve_in_span(columns, evaluation_rows(basis, [t.bits])[0])
    with pytest.MonkeyPatch.context() as mp:
        if prime is not None:
            mp.setattr(linalg, "_P", prime)
        assert covers_all(design, k) == (reference.rank_rational(matrix) == len(basis))
        assert determinable(design, t, k) == (coeffs is not None)
        if coeffs is None:
            with pytest.raises(NotDeterminableError):
                approximate_value(design, t, k)
        else:
            assert approximate_value(design, t, k) == sum(
                (a * f for a, f in zip(coeffs, design.values)), Fraction(0)
            )


@st.composite
def _short_designs(draw):
    """A valued design with fewer vertices than monomials, n <= 7, its order k, and a target in its span.

    The target is a design vertex, or completes a (k+1)-dimensional
    subcube whose other vertices the design holds, where the alternating
    sum of every polynomial of degree at most k vanishes. No design is
    shorter than the one monomial of k = 0, so k runs from 1.
    """
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, n))
    size = basis_size(n, k)
    t = draw(st.integers(0, (1 << n) - 1))
    held = [t]
    if (2 << k) - 1 < size and draw(st.booleans()):
        mask = sum(1 << i for i in draw(st.permutations(range(n)))[: k + 1])
        held = [t ^ s for s in range(1, 1 << n) if s & mask == s]
    rest = [b for b in draw(st.permutations(range(1 << n))) if b != t and b not in held]
    m = draw(st.integers(len(held), size - 1))
    bits = draw(st.permutations(held + rest[: m - len(held)]))
    values = draw(st.lists(_noisy_values, min_size=m, max_size=m))
    return Design(n, tuple(Vertex(n, b) for b in bits), tuple(values)), Vertex(n, t), k


@settings(max_examples=60, deadline=None)
@given(_short_designs())
def test_in_span_targets_of_short_designs_equal_the_reference(case):
    # with fewer design rows than columns every row may pivot before the
    # end, and then t's row, reduced to zero, never stops the factor
    design, t, k = case
    expected = _span_prediction(design, t, k)
    assert expected is not None
    assert determinable(design, t, k)
    assert approximate_value(design, t, k) == expected


@pytest.mark.parametrize("prime", [None, 2, 3])
@settings(max_examples=40, deadline=None)
@given(_valued_designs(), st.data())
def test_package_answers_run_no_bareiss(prime, case, data):
    # every answer factors mod p, lifts, checks exactly and retries on a
    # new prime; p = 2 or 3 often gets the pivots wrong over Q
    design, k = case
    n = design.n
    t = Vertex(n, data.draw(st.integers(0, (1 << n) - 1)))
    table = _reference_coefficients(design, k)
    every = _replay_oracle(design, k)
    rank = reference.rank_rational(
        evaluation_rows(descending_supports(n, k), [v.bits for v in design.vertices])
    )
    orders = [j for j in range(n) if _span_prediction(design, t, j) is not None]
    degree = n if t in design else max(orders)
    with pytest.MonkeyPatch.context() as mp:
        if prime is not None:
            mp.setattr(linalg, "_P", prime)
        assert list(approximate_all(design, k).items()) == list(every.items())
        assert list(prediction_coefficients(design, k).items()) == list(table.items())
        assert covers_all(design, k) == (rank == basis_size(n, k))
        assert determinable(design, t, k) == (every[t] is not None)
        if every[t] is not None:
            assert approximate_value(design, t, k) == every[t]
        assert degree_of_approximation(design, t) == degree


def test_certified_answers_run_no_bareiss():
    n, k = 8, 3
    rng = random.Random(8)
    full = Design(n, tuple(Vertex(n, b) for b in rng.sample(range(1 << n), 120)))
    assert covers_all(full, k) is True
    # x1*x2*x3 vanishes on every vertex of this design, and not at t
    x123 = 0b111 << (n - 3)
    off = [b for b in range(1 << n) if b & x123 != x123]
    fails = Design(n, tuple(Vertex(n, b) for b in rng.sample(off, 120)), tuple(range(120)))
    assert covers_all(fails, k) is False
    t = Vertex(n, x123 | 0b10110)
    assert determinable(fails, t, k) is False
    with pytest.raises(NotDeterminableError):
        approximate_value(fails, t, k)


def _span_prediction(design, t, k):
    """The prediction at t from the reference solver, or None when t is not determinable."""
    basis = descending_supports(design.n, k)
    columns = evaluation_rows(basis, [v.bits for v in design.vertices])
    coeffs = reference.solve_in_span(columns, evaluation_rows(basis, [t.bits])[0])
    if coeffs is None:
        return None
    return sum((a * f for a, f in zip(coeffs, design.values)), Fraction(0))


def _full_design():
    """The covering n = 8, k = 3 design of `test_certified_answers_run_no_bareiss`, with values."""
    n = 8
    rng = random.Random(8)
    masks = rng.sample(range(1 << n), 120)
    values = [Fraction(rng.randrange(-50, 51), rng.randrange(1, 8)) for _ in masks]
    return Design(n, tuple(Vertex(n, b) for b in masks), tuple(values))


def test_lifted_answers_run_no_bareiss():
    design, k = _full_design(), 3
    targets = [Vertex(8, b) for b in (0, 74, 111, 0b10110110) if Vertex(8, b) not in design]
    expected = [_span_prediction(design, t, k) for t in targets]
    assert None not in expected
    assert [approximate_value(design, t, k) for t in targets] == expected
    # full rank at every order up to 3 answers "yes" with no solve, and
    # a checked vanishing polynomial answers "no" at order 4
    assert [degree_of_approximation(design, t) for t in targets] == [3] * len(targets)


def test_determinable_on_criterion_9_cases_runs_no_bareiss():
    # the 500 draws of acceptance criterion 9: below full rank the lifted
    # solve's "no" is a proof once every other row has passed its check
    rng = random.Random(77)
    cases = []
    for _ in range(500):
        n = rng.randrange(2, 6)
        size = rng.randrange(1, 1 << n)
        bits = rng.sample(range(1 << n), size)
        design = Design(n, tuple(Vertex(n, b) for b in bits))
        cases.append((design, Vertex(n, rng.randrange(1 << n)), rng.randrange(0, n + 1)))
    answers = [determinable(design, t, k) for design, t, k in cases]
    expected = []
    for design, t, k in cases:
        basis = descending_supports(design.n, k)
        solver = reference.SpanSolver(evaluation_rows(basis, [v.bits for v in design.vertices]))
        expected.append(solver.contains(evaluation_rows(basis, [t.bits])[0]))
    assert answers == expected


def test_degree_of_approximation_proves_its_no_without_bareiss():
    # at k = 4 each target's "no" is a kernel vector of the 200 x 386
    # system, its entries far above sqrt(p/2): one residue cannot
    # reconstruct it, the lifted solve of its free column does
    design = sample_random_design(10, 200, 1)
    targets = [t for t in (Vertex(10, b) for b in range(1 << 10)) if t not in design][:3]
    assert [degree_of_approximation(design, t) for t in targets] == [3, 3, 3]


def test_lifted_solve_factors_the_design_once(monkeypatch):
    # the rank, the pivot rows and every lifting step come from one LU mod p
    design, k = _full_design(), 3
    t = next(Vertex(8, b) for b in range(1 << 8) if Vertex(8, b) not in design)
    expected = _span_prediction(design, t, k)
    assert expected is not None
    factored = []
    echelon = linalg._echelon_modp
    monkeypatch.setattr(
        linalg, "_echelon_modp",
        lambda r, p, **kw: factored.append(r.shape) or echelon(r, p, **kw),
    )
    assert approximate_value(design, t, k) == expected
    # t's row rides along as the last row of that one factor
    assert factored == [(design.size + 1, basis_size(8, k))]


@pytest.mark.parametrize("prime", [None, 2, 3])
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_lifted_answers_on_rank_deficient_designs(prime, data):
    # every vertex and the target lie on the face x1 = 0, so the rank is
    # below the basis size: the solve runs on a square subsystem of the
    # pivot equations and is checked on all of them
    n = data.draw(st.integers(2, 6))
    k = data.draw(st.integers(1, n - 1))
    face = 1 << (n - 1)
    m = data.draw(st.integers(basis_size(n - 1, k), face))
    masks = data.draw(st.permutations(range(face)))[:m]
    values = data.draw(st.lists(_noisy_values, min_size=m, max_size=m))
    design = Design(n, tuple(Vertex(n, b) for b in masks), tuple(values))
    t = Vertex(n, data.draw(st.integers(0, face - 1)))
    expected = _span_prediction(design, t, k)
    # a prime that gets a pivot wrong is replaced by a re-factor
    with pytest.MonkeyPatch.context() as mp:
        if prime is not None:
            mp.setattr(linalg, "_P", prime)
        assert determinable(design, t, k) == (expected is not None)
        if expected is None:
            with pytest.raises(NotDeterminableError):
                approximate_value(design, t, k)
        else:
            assert approximate_value(design, t, k) == expected


def test_lifted_solve_refuses_pivots_that_differ_over_q(monkeypatch):
    # the affine rows (1, x) of 011, 101, 110 and 000 have determinant 2:
    # mod 2 the vector of 000 depends on the other three, over Q it does
    # not, so its lift never passes the check and the next prime answers
    design = Design.from_bitstrings(["011", "101", "110", "000"], [1, 2, 3, 5])
    targets = [Vertex.from_bitstring(s) for s in ("111", "011")]
    expected = [_span_prediction(design, t, 1) for t in targets]
    monkeypatch.setattr(linalg, "_P", 2)
    factored = _record_factors(monkeypatch)
    # 011's own vector is in the span of the pivots mod 2, so only the
    # pivot check refuses it; each answer re-factors once
    assert [approximate_value(design, t, 1) for t in targets] == expected
    assert factored == [2, linalg._P2] * 2
    table = list(prediction_coefficients(design, 1).items())
    assert table == list(_reference_coefficients(design, 1).items())
    assert factored == [2, linalg._P2] * 3


def test_lifted_solve_refuses_a_later_pivot_mod_p(monkeypatch):
    # mod 2 the pivot vertices are 101, 000, 110 and 100, over Q they are
    # 101, 000, 110 and 011: a solve on the mod-2 pivots would be exact but
    # not canonical, and with these values it predicts another number
    design = Design.from_bitstrings(
        ["101", "000", "110", "011", "100", "111", "001"], [1, 2, 4, 8, 16, 32, 64]
    )
    t = Vertex.from_bitstring("010")
    basis = descending_supports(3, 1)
    mod2_pivots = [design.vertices[i] for i in (0, 1, 2, 4)]
    solver = reference.SpanSolver(evaluation_rows(basis, [v.bits for v in mod2_pivots]))
    coeffs = solver.solve(evaluation_rows(basis, [t.bits])[0])
    other = sum((a * design.value_map()[v] for a, v in zip(coeffs, mod2_pivots)), Fraction(0))
    expected = _span_prediction(design, t, 1)
    assert other != expected
    monkeypatch.setattr(linalg, "_P", 2)
    factored = _record_factors(monkeypatch)
    assert approximate_value(design, t, 1) == expected
    assert factored == [2, linalg._P2]


def _record_lifts(monkeypatch, early_fail=False):
    """Record (modulus, bounds) of each reconstruction; optionally fail all before the last step."""
    seen = []
    lift_vector = linalg._lift_vector

    def recorded(residues, modulus, num_bound, den_bound):
        seen.append((modulus, num_bound, den_bound))
        if early_fail and num_bound is None:
            return None
        return lift_vector(residues, modulus, num_bound, den_bound)

    monkeypatch.setattr(linalg, "_lift_vector", recorded)
    return seen


def _ends_at_the_hadamard_step(seen, p):
    """Whether the moduli run p, p^2, ... and only the last, first past 2 * N * D, has bounds."""
    moduli = sorted({modulus for modulus, _, _ in seen})
    last = moduli[-1]
    final = {(num, den) for modulus, num, den in seen if modulus == last}
    early = {(num, den) for modulus, num, den in seen if modulus != last}
    ((num, den),) = final
    return (
        moduli == [p**s for s in range(1, len(moduli) + 1)]
        and early <= {(None, None)}
        and last // p <= 2 * num * den < last
    )


def test_lifting_stops_at_the_hadamard_step_when_every_check_fails(monkeypatch):
    # every exact check fails on the first prime, so its lift runs to the
    # Hadamard step and gives up, and the next prime answers
    design, k = _full_design(), 3
    t = Vertex(8, 0)
    expected = _span_prediction(design, t, k)
    seen = _record_lifts(monkeypatch)
    factored = _record_factors(monkeypatch)
    combines_to = linalg._combines_to
    monkeypatch.setattr(
        linalg, "_combines_to", lambda *args: len(factored) > 1 and combines_to(*args)
    )
    assert approximate_value(design, t, k) == expected
    assert factored == [linalg._P, linalg._P2]
    first = [lift for lift in seen if lift[0] % linalg._P == 0]
    assert _ends_at_the_hadamard_step(first, linalg._P)


def test_lifting_answers_at_the_hadamard_step_when_early_reconstruction_fails(monkeypatch):
    design, k = _full_design(), 3
    t = Vertex(8, 0)
    expected = _span_prediction(design, t, k)
    seen = _record_lifts(monkeypatch, early_fail=True)
    assert approximate_value(design, t, k) == expected
    assert _ends_at_the_hadamard_step(seen, linalg._P)


def test_covers_all_falls_back_when_the_rank_drops_mod_p(monkeypatch):
    # the affine rows (1, x) of 011, 101, 110 and 000 have determinant 2:
    # the kernel vector mod 2 fails its exact check, and mod the next prime
    # the rank is full
    design = Design.from_bitstrings(["011", "101", "110", "000"])
    monkeypatch.setattr(linalg, "_P", 2)
    factored = _record_factors(monkeypatch)
    # the GF(2) front settles it with no factor mod p: x3 is free mod 2, its
    # lift leaves the row of 000 odd, and the 1 x 1 Schur complement, 2 up
    # to an odd factor, is nonzero mod 4: rule (c)
    rows = approx._design_rows(design, 1)[1]
    assert _front_rule(rows) == "c"
    assert covers_all(design, 1) is True
    assert factored == []
    # with the front giving up, the mod-p factor falls back as before
    monkeypatch.setattr(gf2, "_leading_rank_2adic", lambda rows: None)
    assert covers_all(design, 1) is True
    assert factored == [2, linalg._P2]


def test_covers_all_answers_small_designs_without_elimination(monkeypatch):
    calls = []
    for name in ("_ascending_supports", "_evaluation_rows", "ModularEchelon"):
        monkeypatch.setattr(approx, name, lambda *args, name=name: calls.append(name))
    # 22 vertices against 42 monomials of degree <= 3
    assert covers_all(hamming_ball(6, 2), 3) is False
    assert calls == []


def _front_rule(rows):
    """The rule of `gf2._leading_rank_2adic` that answers for the 0/1 rows, or "fallback".

    Read from its answer and the reference GF(2) rank: (a) answers every
    column at full rank mod 2, (b) a number of leading columns below the
    column count, (c) every column below full rank mod 2.
    """
    got = gf2._leading_rank_2adic(rows)
    columns = rows.shape[1]
    if got is None:
        return "fallback"
    if got < columns:
        return "b"
    packed = [sum(bit << j for j, bit in enumerate(row)) for row in rows.tolist()]
    return "a" if reference.rank_gf2(packed) == columns else "c"


@st.composite
def _short_mod_2_designs(draw):
    """A design at n <= 7 that is often short mod 2, moved by a random XOR mask.

    A random subset of the cube; of the vertices whose weights lie in a
    drawn set, such as the even weights, on which sums of coordinates
    vanish mod 2 and not over Q; of a face, whose rows repeat columns; or
    the product of v copies of {000, 011, 101, 110} on disjoint triples,
    whose rows (1, x) on each triple have determinant 2, so that the
    design's matrices have minors 2^v.
    """
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["random", "weights", "face", "twos"]))
    if kind == "weights":
        weights = draw(st.sampled_from([{0, 2}, {1, 3}, {0, 2, 4, 6}, {0, 1, 3}, {0, 3}]))
        pool = [b for b in range(1 << n) if b.bit_count() in weights] or [0]
    elif kind == "face":
        fixed = draw(st.integers(1, n))
        pool = [b << fixed for b in range(1 << (n - fixed))]
    elif kind == "twos" and n >= 3:
        v = draw(st.integers(1, n // 3))
        pool = [0]
        for i in range(v):
            pool = [b | (t << (3 * i)) for b in pool for t in (0b000, 0b011, 0b101, 0b110)]
        rest = n - 3 * v
        pool = [b | (r << (3 * v)) for b in pool for r in range(1 << rest)]
    else:
        pool = list(range(1 << n))
    size = draw(st.one_of(st.just(len(pool)), st.integers(1, len(pool))))
    shift = draw(st.integers(0, (1 << n) - 1))
    masks = draw(st.permutations(pool))[:size]
    return Design(n, tuple(Vertex(n, b ^ shift) for b in masks))


@pytest.mark.parametrize("prime", [None, 2, 3])
def test_covered_order_front_equals_mod_p_and_reference(prime):
    # at every k, the GF(2) front answers as the mod-p factor alone and as
    # the reference rank over Q, and each of its rules and the fallback
    # answers some of the draws
    rules = set()

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(_short_mod_2_designs())
    def check(design):
        n = design.n
        top = max(j for j in range(n + 1) if basis_size(n, j) <= design.size)
        rows = approx._design_rows(design, top)[1]
        rules.add(_front_rule(rows))
        covered = [
            reference.rank_rational(rows[:, : basis_size(n, j)].tolist()) == basis_size(n, j)
            for j in range(top + 1)
        ]
        with pytest.MonkeyPatch.context() as mp:
            if prime is not None:
                mp.setattr(linalg, "_P", prime)
            got = [approx._covered_order(design, k) for k in range(n + 1)]
            mp.setattr(gf2, "_leading_rank_2adic", lambda rows: None)
            assert got == [approx._covered_order(design, k) for k in range(n + 1)]
        assert got == [sum(covered[: k + 1]) - 1 for k in range(n + 1)]

    check()
    assert rules == {"a", "b", "c", "fallback"}


def test_tall_designs_pack_the_transform_by_pivot_number():
    # the row transform lives in pivot-number space: the packed width is two
    # words per 64 columns however many rows there are, where an identity
    # over the rows would add m bits to each
    for m in (100, 20000):
        design = sample_random_design(18, m, 3)
        rows = approx._design_rows(design, 1)[1]
        assert gf2._Jordan2(rows).words.shape == (m, 2)
        assert covers_all(design, 1) is True
    wide = np.ones((300, 130), dtype=np.int64)
    assert gf2._Jordan2(wide).words.shape == (300, 6)


def test_every_approx_elimination_factors_design_rows():
    # one row builder: no module of `src/` names or defines the removed
    # monomial-object layer, and each `ModularEchelon` `approx` builds, and
    # each call of the GF(2) front `_leading_rank_2adic`, takes the rows
    # `_design_rows` returns, the second item of its (supports, rows)
    for path in Path(approx.__file__).parent.glob("*.py"):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        named = {n.id for n in nodes if isinstance(n, ast.Name)}
        named |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        named |= {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names}
        named |= {n.name for n in nodes if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        assert not named & set(REMOVED_NAMES), path.name
    tree = ast.parse(Path(approx.__file__).read_text())

    def design_rows_call(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_design_rows"

    def rows_item(node):
        return (
            isinstance(node, ast.Subscript)
            and design_rows_call(node.value)
            and ast.literal_eval(node.slice) == 1
        )

    factoring, fronts = set(), set()
    for func in (n for n in tree.body if isinstance(n, ast.FunctionDef)):
        rows_names = {
            node.targets[0].elts[1].id
            for node in ast.walk(func)
            if isinstance(node, ast.Assign) and design_rows_call(node.value)
        } | {
            node.targets[0].id
            for node in ast.walk(func)
            if isinstance(node, ast.Assign) and rows_item(node.value)
        }
        for node in ast.walk(func):
            called = isinstance(node, ast.Call) and getattr(node.func, "id", None)
            if called in ("ModularEchelon", "_leading_rank_2adic"):
                rows = node.args[0]
                assert (isinstance(rows, ast.Name) and rows.id in rows_names) or rows_item(
                    rows
                ), ast.unparse(node)
                (factoring if called == "ModularEchelon" else fronts).add(func.name)
    # the scan sees every answer that factors, and the one that asks the front first
    assert factoring == {"_target_system", "_cube_fits", "_covered_order"}
    assert fronts == {"_covered_order"}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_design_membership_equals_linear_scan(data):
    n = data.draw(st.integers(1, 6))
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, unique=True))
    design = Design(n, tuple(Vertex(n, b) for b in masks))
    d = data.draw(st.integers(1, 7))
    v = Vertex(d, data.draw(st.integers(0, (1 << d) - 1)))
    assert (v in design) == any(v == u for u in design.vertices)
    assert (v.bitstring() in design) is False
    twin = Design(n, tuple(Vertex(n, b) for b in masks))
    assert twin == design and hash(twin) == hash(design)


def _record_ends(monkeypatch):
    """(prime, pivots, end) of every `_echelon_modp` call, in order."""
    calls = []
    echelon = linalg._echelon_modp

    def recording(r, p, **kw):
        order, pivots, end = echelon(r, p, **kw)
        calls.append((p, list(pivots), end))
        return order, pivots, end

    monkeypatch.setattr(linalg, "_echelon_modp", recording)
    return calls


def _two_vanishing_cubes():
    """The n = 6 vertices on which both x1*x2*x3 and x4*x5*x6 vanish, with noisy values.

    At k = 3 their rows have rank 40 of 42: the kernel is spanned by the
    two monomials, the free columns 22 (x1x2x3) and 41 (x4x5x6).
    """
    n, rng = 6, random.Random(6)
    masks = [b for b in range(1 << n) if b & 0b111000 != 0b111000 and b & 0b000111 != 0b000111]
    values = [Fraction(rng.randrange(-99, 100), rng.randrange(1, 9)) for _ in masks]
    return Design(n, tuple(Vertex(n, b) for b in masks), tuple(values))


def test_target_stop_passes_the_free_columns_the_target_annihilates(monkeypatch):
    design, k = _two_vanishing_cubes(), 3
    supports = approx._design_rows(design, k)[0]
    first, second = supports.index(0b111000), supports.index(0b000111)
    assert (first, second) == (22, 41)
    # x1x2x3(t) = 0 passes the first free column; x4x5x6(t) = 1 stops at the second
    t = Vertex(6, 0b010111)
    calls = _record_ends(monkeypatch)
    with pytest.raises(NotDeterminableError):
        approximate_value(design, t, k)
    assert determinable(design, t, k) is False
    for p, pivots, end in calls:
        assert p == linalg._P and end == second
        assert pivots == [c for c in range(second) if c != first]


def test_target_factor_runs_to_the_end_for_a_determinable_target(monkeypatch):
    # without 000000 the rows keep rank 40, and 000000 annihilates both
    # kernel vectors: no column stops the factor, and the lifted
    # combination, checked on the free columns too, answers
    full, k = _two_vanishing_cubes(), 3
    design = Design(6, full.vertices[1:], full.values[1:])
    t = full.vertices[0]
    assert t.bits == 0
    expected = _span_prediction(design, t, k)
    assert expected is not None
    calls = _record_ends(monkeypatch)
    assert approximate_value(design, t, k) == expected
    assert determinable(design, t, k) is True
    assert [(p, len(pivots), end) for p, pivots, end in calls] == [(linalg._P, 40, None)] * 2


def _first_separating_kernel_vector(rows, target):
    """The reference's kernel vector of its first free column that target does not annihilate.

    Free columns are those off the reference's pivot columns; column f's
    kernel vector is e_f minus f's combination of the pivot columns,
    scaled to coprime integers with a positive entry at f. None when the
    target annihilates every one.
    """
    columns = rows.T.tolist()
    pivots = reference.SpanSolver(columns).pivot_columns
    for f in (c for c in range(len(columns)) if c not in pivots):
        coeffs = reference.SpanSolver([columns[c] for c in pivots]).solve(columns[f])
        y = [Fraction(int(c == f)) for c in range(len(columns))]
        for c, a in zip(pivots, coeffs):
            y[c] -= a
        if sum(t * v for t, v in zip(target, y)):
            d = lcm(*(v.denominator for v in y))
            return [int(v * d) for v in y]
    return None


@settings(max_examples=60, deadline=None)
@given(_valued_designs())
def test_target_stop_is_the_column_a_full_factor_refuses_with(case):
    # the factor carrying the target ends at the reference's first free
    # column whose kernel vector the target does not annihilate, and that
    # kernel vector is its certificate
    design, k = case
    supports, rows = approx._design_rows(design, k)
    for b in range(min(1 << design.n, 12)):
        target = approx._evaluation_rows(supports, [b])[0].tolist()
        y = _first_separating_kernel_vector(rows, target)
        stopped = ModularEchelon(rows, target=target)
        if y is None:
            assert stopped._end is None
        else:
            assert stopped._end == max(c for c, v in enumerate(y) if v)
            assert stopped.null_vector() == y


def test_one_factor_per_answer_at_the_real_prime(monkeypatch):
    # every answer factors once, the target's row carried along, whether
    # it refuses, answers a measured, or answers an unmeasured vertex;
    # `determinable` answers a measured vertex from membership alone
    design, k = _two_vanishing_cubes(), 3
    calls = _record_ends(monkeypatch)
    for t in [Vertex(6, 0b111000), Vertex(6, 0b000111), Vertex(6, 0), Vertex(6, 0b111111)]:
        before = len(calls)
        try:
            approximate_value(design, t, k)
        except NotDeterminableError:
            pass
        determinable(design, t, k)
        assert [p for p, _, _ in calls[before:]] == [linalg._P] * (1 + (t not in design))
    # degree_of_approximation factors once per order it asks about
    calls.clear()
    assert degree_of_approximation(design, Vertex(6, 0b111000)) == 2
    assert [p for p, _, _ in calls] == [linalg._P] * 3


def test_factor_carrying_a_target_answers_only_for_it():
    echelon = ModularEchelon(np.array([[1, 1, 0], [1, 1, 1]]), target=[1, 0, 0])
    # the target would pivot at column 1, so the factor ends there
    assert echelon._end == 1 and echelon.pivots == [0]
    # its kernel vector certifies that target
    assert echelon.null_vector() == [-1, 1, 0]
    assert echelon.solve([1, 0, 0]) is None and echelon.contains([1, 0, 0]) is False
    for ask in [
        lambda: echelon.solve([1, 1, 0]), lambda: echelon.contains([0, 0, 1]),
        echelon.spans, lambda: echelon.fit([[0, 0]]),
    ]:
        with pytest.raises(ValueError, match="target"):
            ask()
    inside = ModularEchelon(np.array([[1, 1, 0], [1, 1, 1]]), target=[1, 1, 0])
    assert inside._end is None and inside.pivots == [0, 2]
    assert inside.solve([1, 1, 0]) == [1, 0]
    with pytest.raises(ValueError, match="prefix"):
        ModularEchelon(np.array([[1, 1]]), prefix=True, target=[1, 0])
