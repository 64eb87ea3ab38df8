"""End-to-end acceptance checks, one per delivery criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. Every expected value here is either a hand-checked constant
or recomputed by an independent oracle inside this module.
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from boxapprox.approx import (
    Design,
    approximate_value,
    complete_from_ball,
    covers_all,
    determinable,
    lemma_reconstruct,
    prediction_coefficients,
)
from boxapprox.core import (
    MultilinearPolynomial,
    Vertex,
    all_vertices,
    eval_monomial,
    eval_polynomial,
    make_basis,
)
from boxapprox.designs import ball_size, counting_table, generic_size, hamming_ball
from reference_linalg import rank_rational
from boxapprox.probability import (
    f2_implies_real_check,
    prob_f2_exact,
    prob_real_exhaustive,
    prob_real_montecarlo,
    qpochhammer_half,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS  {description}")


def random_polynomial(rng, n, max_degree, coeff_range=9, max_terms=None):
    monomials = list(make_basis(n, max_degree))
    if max_terms is not None and len(monomials) > max_terms:
        monomials = rng.sample(monomials, max_terms)
    terms = {}
    for m in monomials:
        c = rng.randrange(-coeff_range, coeff_range + 1)
        if c:
            terms[m] = Fraction(c)
    return MultilinearPolynomial(n, terms)


# Hand-transcribed 11x11 evaluation matrix for n=4, k=2: rows are the
# degree-<=2 square-free monomials in canonical order, columns the vertices
# whose supports equal the row monomials.
GOLDEN_ROWS = [
    "x1*x2", "x1*x3", "x1*x4", "x2*x3", "x2*x4", "x3*x4",
    "x1", "x2", "x3", "x4", "1",
]
GOLDEN_COLS = [
    "1100", "1010", "1001", "0110", "0101", "0011",
    "1000", "0100", "0010", "0001", "0000",
]
GOLDEN_MATRIX = [
    [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
    [1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0],
    [1, 0, 0, 1, 1, 0, 0, 1, 0, 0, 0],
    [0, 1, 0, 1, 0, 1, 0, 0, 1, 0, 0],
    [0, 0, 1, 0, 1, 1, 0, 0, 0, 1, 0],
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
]


def test_criterion_1_triangular_matrix_golden():
    from boxapprox.designs import tightness_matrix

    with criterion(1, "tightness matrix (4,2) matches the 11x11 golden table, rank 11"):
        mat = tightness_matrix(4, 2)
        assert [str(m) for m in mat.basis] == GOLDEN_ROWS
        assert [v.bitstring() for v in mat.vertices] == GOLDEN_COLS
        assert [list(row) for row in mat.entries] == GOLDEN_MATRIX
        for i, row in enumerate(mat.entries):
            assert row[i] == 1
            assert all(x == 0 for x in row[i + 1 :])
        assert rank_rational(mat.entries) == 11


def test_criterion_2_signed_sum_identity():
    with criterion(2, "signed-sum identity recovers f(1,1,1) for 100 random quadratics"):
        rng = random.Random(2024)
        w = Vertex.from_bitstring("111")
        others = [v for v in all_vertices(3) if v != w]
        for _ in range(100):
            poly = random_polynomial(rng, 3, 2)
            vals = {v: eval_polynomial(poly, v) for v in others}
            assert lemma_reconstruct(vals, w) == eval_polynomial(poly, w)


def test_criterion_3_exactness_suite():
    with criterion(3, "ball completion and linear-solve predictions exact for 2<=n<=8"):
        rng = random.Random(33)
        for n in range(2, 9):
            for k in range(n):
                ball = hamming_ball(n, k)
                coeff_table = prediction_coefficients(ball, k)
                assert all(c is not None for c in coeff_table.values())
                # each target's nonzero coefficients, with the measurement they weigh
                terms = {
                    t: [(i, a) for i, a in enumerate(coeffs) if a]
                    for t, coeffs in coeff_table.items()
                }
                polys = [
                    random_polynomial(rng, n, k, max_terms=40) for _ in range(50)
                ]
                spot_targets = rng.sample(all_vertices(n), 3)
                for poly in polys:
                    values = [eval_polynomial(poly, v) for v in ball.vertices]
                    completed = complete_from_ball(
                        dict(zip(ball.vertices, values)), n, k
                    )
                    assert len(completed) == 1 << n
                    for t, ft in completed.items():
                        # oracle one: direct evaluation of the polynomial
                        assert ft == eval_polynomial(poly, t)
                        # oracle two: the linear-combination route
                        predicted = sum((a * values[i] for i, a in terms[t]), Fraction(0))
                        assert predicted == ft
                measured = ball.with_values(
                    [eval_polynomial(polys[0], v) for v in ball.vertices]
                )
                for t in spot_targets:
                    assert approximate_value(measured, t, k) == eval_polynomial(
                        polys[0], t
                    )


def test_criterion_4_counting_claims():
    with criterion(
        4,
        "counting table matches 79/91 and 299/455; "
        "ball equals generic at k=1, strictly below for k>=2",
    ):
        rows = {r.n: r for r in counting_table(12, 12, 2)}
        assert (rows[12].ball_size, rows[12].generic_size) == (79, 91)
        rows = {r.n: r for r in counting_table(12, 12, 3)}
        assert (rows[12].ball_size, rows[12].generic_size) == (299, 455)
        for n in range(2, 65):
            b, g = ball_size(n, 1), generic_size(n, 1)
            # an affine function needs n+1 points on the cube or anywhere else
            assert b == g == n + 1, (
                f"ball_size({n},1) = {b} and generic_size({n},1) = {g}; "
                f"both should equal n+1 = {n + 1}"
            )
            for k in range(2, n):
                b, g = ball_size(n, k), generic_size(n, k)
                assert b < g, (
                    f"ball_size({n},{k}) = {b} is not strictly below "
                    f"generic_size({n},{k}) = {g}"
                )


def test_criterion_5_minimality_exhaustive():
    with criterion(5, "no design smaller than the ball certifies its order (n<=4, k in {1,2})"):
        for n in range(1, 5):
            vertices = all_vertices(n)
            for k in (1, 2):
                if k > n:
                    continue
                needed = ball_size(n, k)
                for size in range(1, needed):
                    for subset in combinations(vertices, size):
                        assert covers_all(Design(n, subset), k) is False


def test_criterion_6_f2_probability():
    with criterion(6, "GF(2) probability: 4/5 at n=3, monotone to the 0.288 limit"):
        assert prob_f2_exact(3) == Fraction(4, 5)
        values = [prob_f2_exact(n) for n in range(1, 31)]
        assert values[0] == 1 and values[1] == 1
        for a, b in zip(values[1:], values[2:]):
            assert a > b
        q40 = qpochhammer_half(40).value
        thousandth = Fraction(1, 1000)
        limit = Fraction(288, 1000)
        assert abs(values[29] - q40) < thousandth
        assert abs(values[29] - limit) < thousandth
        assert abs(q40 - limit) < thousandth


def test_criterion_7_real_probability():
    with criterion(7, "rational probabilities 1, 1, 29/35; GF(2) independence implies rational"):
        assert prob_real_exhaustive(1) == 1
        assert prob_real_exhaustive(2) == 1
        assert prob_real_exhaustive(3) == Fraction(29, 35)
        for n in range(1, 5):
            assert f2_implies_real_check(n, "exhaustive") == 0
        assert f2_implies_real_check(10, "sampled", budget=100_000, seed=3) == 0
        for n in range(1, 5):
            assert prob_f2_exact(n) <= prob_real_exhaustive(n)
        assert prob_f2_exact(3) < prob_real_exhaustive(3)


def test_criterion_8_random_design_sweep():
    with criterion(8, "Monte-Carlo matches exhaustive at n=3,4 and rises over n=7..14"):
        seed, trials = 1, 100_000
        for n in (3, 4):
            est = prob_real_montecarlo(n, trials, seed)
            truth = float(prob_real_exhaustive(n))
            assert abs(est.value - truth) <= 3 * est.std_error
        sweep = [prob_real_montecarlo(n, trials, seed) for n in range(7, 15)]
        for est in sweep:
            assert est.value >= float(prob_f2_exact(est.n))
        for a, b in zip(sweep, sweep[1:]):
            step_err = math.sqrt(a.std_error**2 + b.std_error**2)
            assert b.value - a.value >= -2 * step_err


def _vanishing_nullspace(design, k, basis=None):
    """Basis of degree-<=k polynomials vanishing on the design.

    Independent oracle: plain Fraction Gauss-Jordan on the transposed
    evaluation matrix, no shared code with the span solver. Its columns
    are the monomials of `basis`, in `make_basis` order by default.
    """
    basis = make_basis(design.n, k) if basis is None else basis
    width = len(basis)
    rows = [[Fraction(eval_monomial(m, v)) for m in basis] for v in design.vertices]
    pivots = []
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
    pivot_cols = {c for _, c in pivots}
    out = []
    for free in (c for c in range(width) if c not in pivot_cols):
        vec = [Fraction(0)] * width
        vec[free] = Fraction(1)
        for r_, c_ in pivots:
            vec[c_] = -rows[r_][free]
        out.append((basis, vec))
    return out


def test_criterion_9_determinability_oracle():
    with criterion(9, "determinable agrees with the vanishing-polynomial oracle, 500 cases"):
        rng = random.Random(77)
        for _ in range(500):
            n = rng.randrange(2, 6)
            size = rng.randrange(1, 1 << n)
            bits = rng.sample(range(1 << n), size)
            design = Design(n, tuple(Vertex(n, b) for b in bits))
            t = Vertex(n, rng.randrange(1 << n))
            k = rng.randrange(0, n + 1)
            via_span = determinable(design, t, k)
            via_nullspace = all(
                sum(c * eval_monomial(m, t) for m, c in zip(basis, vec)) == 0
                for basis, vec in _vanishing_nullspace(design, k)
            )
            assert via_span == via_nullspace
