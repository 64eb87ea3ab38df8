import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxapprox.core import Vertex
from boxapprox.linalg import (
    SpanSolver,
    affinely_independent,
    rank_gf2,
    rank_rational,
    solve_in_span,
)


def V(s):
    return Vertex.from_bitstring(s)


def _det3(m):
    """Cofactor expansion along the first row, independent of elimination."""
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def test_rank_rational_identity():
    assert rank_rational([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3


def test_rank_rational_cofactor_oracle():
    rows = [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    assert _det3(rows) == -2
    assert rank_rational(rows) == 3


def test_rank_rational_edge_cases():
    assert rank_rational([]) == 0
    assert rank_rational([[0, 0], [0, 0]]) == 0
    assert rank_rational([[1, 2, 3]]) == 1
    assert rank_rational([[1], [2], [3]]) == 1
    assert rank_rational([[1, 2], [2, 4], [3, 6]]) == 1
    with pytest.raises(ValueError):
        rank_rational([[1, 2], [3]])


def test_rank_rational_fraction_entries():
    rows = [
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(3, 2), Fraction(1, 1)],
    ]
    # determinant 1/2 - 1/2 = 0, so rank 1
    assert rank_rational(rows) == 1
    rows[1][1] = Fraction(2, 1)
    assert rank_rational(rows) == 2


def _gauss_jordan_fraction(rows, n_pivot_cols=None):
    """Plain Gauss-Jordan on Fractions; slower but independent of Bareiss.

    Pivots are taken left to right among the first n_pivot_cols columns
    (all by default). Returns the reduced matrix and its (row, column)
    pivots.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    if not m or not m[0]:
        return m, []
    if n_pivot_cols is None:
        n_pivot_cols = len(m[0])
    pivots = []
    for col in range(n_pivot_cols):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        m[rank] = [x / m[rank][col] for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        pivots.append((rank, col))
    return m, pivots


def _rank_fraction_oracle(rows):
    return len(_gauss_jordan_fraction(rows)[1])


def _solve_fraction_oracle(cols, target):
    """Canonical solution: earliest pivot columns, free coefficients zero."""
    augmented = [[c[i] for c in cols] + [target[i]] for i in range(len(target))]
    m, pivots = _gauss_jordan_fraction(augmented, len(cols))
    if any(row[-1] != 0 for row in m[len(pivots):]):
        return None
    coeffs = [Fraction(0)] * len(cols)
    for r, col in pivots:
        coeffs[col] = m[r][-1]
    return coeffs


def test_rank_rational_random_against_fraction_oracle():
    rng = random.Random(99)
    for _ in range(120):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        m = [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)]
        assert rank_rational(m) == _rank_fraction_oracle(m)


def test_rank_gf2_examples():
    assert rank_gf2([0b100, 0b010, 0b001], 3) == 3
    assert rank_gf2([0b110, 0b101, 0b011], 3) == 2
    assert rank_gf2([0, 0, 0], 3) == 0
    assert rank_gf2([], 3) == 0
    with pytest.raises(ValueError):
        rank_gf2([0b1000], 3)


def test_rank_gf2_at_most_rational():
    rng = random.Random(5)
    for _ in range(200):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        m = [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)]
        packed = [int("".join(map(str, row)), 2) if cols else 0 for row in m]
        assert rank_gf2(packed, cols) <= rank_rational(m)


def test_solve_in_span_unit_columns():
    assert solve_in_span([[1, 0], [0, 1]], [1, 0]) == [1, 0]


def test_solve_in_span_ball_coefficients():
    # degree-1 evaluation vectors of 000,100,010,001 in row order x1,x2,x3,1
    cols = [[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]
    target = [1, 1, 1, 1]
    coeffs = solve_in_span(cols, target)
    assert coeffs == [-2, 1, 1, 1]
    combo = [sum(a * c[i] for a, c in zip(coeffs, cols)) for i in range(4)]
    assert combo == target


def test_solve_in_span_unreachable():
    # face 000,100,010,110: third basis row (x3) is identically zero
    cols = [[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 1], [1, 1, 0, 1]]
    assert solve_in_span(cols, [0, 0, 1, 1]) is None


def test_solve_in_span_validation():
    with pytest.raises(ValueError):
        solve_in_span([[1, 0], [0, 1, 2]], [1, 0])
    with pytest.raises(ValueError):
        solve_in_span([], [1])
    with pytest.raises(ValueError):
        solve_in_span([[1, 0]], [1])


def test_solve_in_span_deterministic():
    rng = random.Random(11)
    cols = [[rng.randrange(2) for _ in range(6)] for _ in range(8)]
    target = [rng.randrange(2) for _ in range(6)]
    first = solve_in_span(cols, target)
    second = solve_in_span(cols, target)
    assert first == second


def test_solve_in_span_random_substitution():
    rng = random.Random(42)
    for _ in range(80):
        length = rng.randrange(1, 7)
        width = rng.randrange(1, 7)
        cols = [[rng.randrange(-2, 3) for _ in range(length)] for _ in range(width)]
        weights = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(width)]
        target = [
            sum(w * c[i] for w, c in zip(weights, cols)) for i in range(length)
        ]
        coeffs = solve_in_span(cols, target)
        assert coeffs is not None
        recombined = [
            sum(a * c[i] for a, c in zip(coeffs, cols)) for i in range(length)
        ]
        assert recombined == target


def test_solve_matches_rank_criterion():
    rng = random.Random(83)
    for _ in range(120):
        length = rng.randrange(1, 6)
        width = rng.randrange(1, 6)
        cols = [[rng.randrange(-1, 2) for _ in range(length)] for _ in range(width)]
        target = [rng.randrange(-1, 2) for _ in range(length)]
        rows_base = [[c[i] for c in cols] for i in range(length)]
        rows_aug = [row + [t] for row, t in zip(rows_base, target)]
        solvable = solve_in_span(cols, target) is not None
        assert solvable == (rank_rational(rows_aug) == rank_rational(rows_base))


def test_solve_in_span_rational_inputs():
    cols = [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 3)]]
    coeffs = solve_in_span(cols, [Fraction(1, 4), Fraction(1)])
    assert coeffs == [Fraction(1, 2), Fraction(3)]


def test_span_solver_reuse_matches_one_shot():
    rng = random.Random(17)
    cols = [[rng.randrange(2) for _ in range(5)] for _ in range(4)]
    solver = SpanSolver(cols)
    for _ in range(20):
        target = [rng.randrange(-1, 2) for _ in range(5)]
        assert solver.solve(target) == solve_in_span(cols, target)
        assert solver.contains(target) == (solve_in_span(cols, target) is not None)


def test_affinely_independent_examples():
    assert affinely_independent([V("0"), V("1")]) is True
    quad = [V("000"), V("110"), V("101"), V("011")]
    assert affinely_independent(quad, "rational") is True
    assert affinely_independent(quad, "gf2") is False
    face = [V("000"), V("100"), V("010"), V("110")]
    assert affinely_independent(face, "rational") is False
    with pytest.raises(ValueError):
        affinely_independent([])
    with pytest.raises(ValueError):
        affinely_independent([V("00"), V("000")])
    with pytest.raises(ValueError):
        affinely_independent([V("00")], "complex")


def test_gf2_independence_implies_rational():
    # exhaustive over every 4-subset of the 3-cube
    from itertools import combinations

    verts = [Vertex(3, b) for b in range(8)]
    for subset in combinations(verts, 4):
        if affinely_independent(list(subset), "gf2"):
            assert affinely_independent(list(subset), "rational")


def test_gf2_independence_implies_rational_sampled():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randrange(2, 11)
        subset = []
        seen = set()
        while len(subset) < n + 1:
            b = rng.randrange(1 << n)
            if b not in seen:
                seen.add(b)
                subset.append(Vertex(n, b))
        if affinely_independent(subset, "gf2"):
            assert affinely_independent(subset, "rational")


def _random_entry(rng):
    roll = rng.random()
    if roll < 0.4:
        return 0
    if roll < 0.8:
        return rng.randrange(-3, 4)
    return Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))


def _random_system(rng):
    """Columns with zero, repeated-combination and zero-leading entries, plus a target."""
    length = rng.randrange(1, 8)
    width = rng.randrange(1, 8)
    cols = [[_random_entry(rng) for _ in range(length)] for _ in range(width)]
    if width > 1 and rng.random() < 0.3:
        cols[rng.randrange(width)] = [0] * length
    if width > 2 and rng.random() < 0.3:
        a, b, c = rng.sample(range(width), 3)
        cols[a] = [2 * x - Fraction(y, 3) for x, y in zip(cols[b], cols[c])]
    if length > 1 and rng.random() < 0.3:
        # a zero top entry in every column forces a row swap at the first pivot
        for col in cols:
            col[0] = 0
    if rng.random() < 0.5:
        weights = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(width)]
        target = [sum(w * c[i] for w, c in zip(weights, cols)) for i in range(length)]
    else:
        target = [_random_entry(rng) for _ in range(length)]
    return cols, target


def test_span_solver_equals_fraction_oracle():
    rng = random.Random(2024)
    inside = outside = 0
    for _ in range(600):
        cols, target = _random_system(rng)
        expected = _solve_fraction_oracle(cols, target)
        solver = SpanSolver(cols)
        assert solver.solve(target) == expected
        assert solver.contains(target) == (expected is not None)
        assert solver.rank == _rank_fraction_oracle([[c[i] for c in cols] for i in range(len(target))])
        inside += expected is not None
        outside += expected is None
    # both branches are exercised in quantity
    assert inside > 200 and outside > 100


def test_span_solver_oracle_forced_swap_example():
    # column 0 is zero, column 1 pivots on row 2, column 2 repeats column 1
    cols = [[0, 0, 0], [0, 0, 2], [0, 0, 4], [1, Fraction(1, 2), 0]]
    solver = SpanSolver(cols)
    assert solver.rank == 2
    target = [3, Fraction(3, 2), 5]
    assert solver.solve(target) == _solve_fraction_oracle(cols, target)
    assert solver.solve(target) == [0, Fraction(5, 2), 0, 3]
    assert solver.solve([1, 1, 0]) is None
    assert solver.contains([1, 1, 0]) is False


_entries = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@st.composite
def _systems(draw):
    length = draw(st.integers(1, 7))
    width = draw(st.integers(1, 7))
    cols = draw(
        st.lists(st.lists(_entries, min_size=length, max_size=length), min_size=width, max_size=width)
    )
    if draw(st.booleans()):
        weights = draw(st.lists(_entries, min_size=width, max_size=width))
        target = [sum(w * c[i] for w, c in zip(weights, cols)) for i in range(length)]
    else:
        target = draw(st.lists(_entries, min_size=length, max_size=length))
    return cols, target


@settings(max_examples=300, deadline=None)
@given(_systems())
def test_span_solver_equals_fraction_oracle_property(system):
    cols, target = system
    expected = _solve_fraction_oracle(cols, target)
    solver = SpanSolver(cols)
    assert solver.solve(target) == expected
    assert solver.contains(target) == (expected is not None)


def _dot(weights, vector):
    return sum((w * x for w, x in zip(weights, vector)), Fraction(0))


def _earliest_independent_rows(rows):
    """Greedily, each row whose rank exceeds that of the rows chosen before it."""
    chosen = []
    for i, row in enumerate(rows):
        if _rank_fraction_oracle([rows[j] for j in chosen] + [row]) > len(chosen):
            chosen.append(i)
    return chosen


@settings(max_examples=150, deadline=None)
@given(_systems())
def test_span_solver_fit_property(system):
    cols, target = system
    solver = SpanSolver(cols)
    rows = [[c[i] for c in cols] for i in range(len(target))]
    _, oracle_pivots = _gauss_jordan_fraction(rows)
    pivots = solver.pivot_columns
    assert pivots == [col for _, col in oracle_pivots]

    x = solver.fit(target)
    assert all(x[j] == 0 for j in range(len(cols)) if j not in pivots)
    earliest = _earliest_independent_rows(rows)
    assert len(earliest) == solver.rank
    for i in earliest:
        assert _dot(x, rows[i]) == target[i]
    coeffs = solver.solve(target)
    if coeffs is not None:
        assert x == coeffs


def test_span_solver_fit_on_earliest_rows_regression():
    # rows 0000, 0001, 0010, 0011, 0100 against the degree-1 basis x1..x4, 1:
    # row 3 is dependent on rows 0-2, so the fit must reproduce rows 0, 1, 2
    # and 4; swapping row 4 into row 0's place once left row 0 unfitted
    rows = [[0, 0, 0, 0, 1], [0, 0, 0, 1, 1], [0, 0, 1, 0, 1], [0, 0, 1, 1, 1], [0, 1, 0, 0, 1]]
    cols = [list(c) for c in zip(*rows)]
    solver = SpanSolver(cols)
    assert solver.pivot_columns == [1, 2, 3, 4]
    assert solver.fit([0, 0, 0, 1, 0]) == [0, 0, 0, 0, 0]
    assert solver.fit([5, 0, 0, 1, 0]) == [0, -5, -5, -5, 5]
    assert solver.solve([0, 0, 0, 1, 0]) is None
