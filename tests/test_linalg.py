import ast
import random
from fractions import Fraction
from itertools import islice
from math import gcd, isqrt, lcm
from pathlib import Path

import numpy as np
import pytest
import reference_linalg as reference
from hypothesis import given, settings
from hypothesis import strategies as st

import boxapprox
from boxapprox import gf2, linalg, probability
from boxapprox.core import Vertex
from boxapprox.linalg import ModularEchelon, _Undecided


def V(s):
    return Vertex.from_bitstring(s)


def _det3(m):
    """Cofactor expansion along the first row, independent of elimination."""
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


# `rank_rational` left the package; these cases keep its reference exact, on
# the integer and rational rows the engine no longer takes
def test_rank_rational_identity():
    assert reference.rank_rational([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3


def test_rank_rational_cofactor_oracle():
    rows = [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    assert _det3(rows) == -2
    assert reference.rank_rational(rows) == 3


def test_rank_rational_edge_cases():
    assert reference.rank_rational([]) == 0
    assert reference.rank_rational([[0, 0], [0, 0]]) == 0
    assert reference.rank_rational([[1, 2, 3]]) == 1
    assert reference.rank_rational([[1], [2], [3]]) == 1
    assert reference.rank_rational([[1, 2], [2, 4], [3, 6]]) == 1
    assert reference.rank_rational([[], []]) == 0
    with pytest.raises(ValueError):
        reference.rank_rational([[1, 2], [3]])
    # an empty first row does not hide a ragged matrix
    with pytest.raises(ValueError, match="ragged"):
        reference.rank_rational([[], [1]])


def test_rank_rational_fraction_entries():
    rows = [
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(3, 2), Fraction(1, 1)],
    ]
    # determinant 1/2 - 1/2 = 0, so rank 1
    assert reference.rank_rational(rows) == 1
    rows[1][1] = Fraction(2, 1)
    assert reference.rank_rational(rows) == 2


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
        assert reference.rank_rational(m) == _rank_fraction_oracle(m)


def _pack(rows):
    """Each 0/1 row as an int, its first entry the highest bit."""
    return [int("".join(map(str, row)), 2) for row in rows]


def _rank_mod2(rows):
    """The rank of the 0/1 rows by `_echelon_modp` mod 2."""
    return len(linalg._echelon_modp(np.array(rows, dtype=np.int64), 2)[1])


def test_rank_gf2_examples():
    for rows, rank in [
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3),
        ([[1, 1, 0], [1, 0, 1], [0, 1, 1]], 2),
        ([[0, 0, 0]] * 3, 0),
    ]:
        assert reference.rank_gf2(_pack(rows)) == _rank_mod2(rows) == rank
    assert reference.rank_gf2([]) == 0


def test_rank_gf2_at_most_rational():
    rng = random.Random(5)
    for _ in range(200):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        m = [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)]
        assert reference.rank_gf2(_pack(m)) == _rank_mod2(m) <= reference.rank_rational(m)


def test_rank_gf2_equals_python_elimination_mod_2():
    # both references eliminate Python ints, independently of the numpy kernel
    rng = random.Random(2)
    cases = []
    for _ in range(300):
        rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
        cases.append([[rng.randrange(2) for _ in range(cols)] for _ in range(rows)])
    # wider than a 64-bit word, with a repeated row and a sum of two rows
    wide = [[rng.randrange(2) for _ in range(100)] for _ in range(6)]
    wide += [wide[0], [x ^ y for x, y in zip(wide[1], wide[2])]]
    cases.append(wide)
    for m in cases:
        lu = np.array(m, dtype=np.int64)
        order, pivots, end = linalg._echelon_modp(lu, 2)
        factor, ref_order, ref_pivots = _echelon_modp_reference(m, 2)
        assert (pivots, order.tolist(), lu.tolist(), end) == (ref_pivots, ref_order, factor, None)
        assert len(pivots) == reference.rank_gf2(_pack(m))
    assert _rank_mod2(wide) == reference.rank_gf2(_pack(wide)) == 6


def _pivot_bits(jordan):
    """The pivot bits of a `_Jordan2`'s pivot rows as a 0/1 matrix, in pivot order."""
    words = jordan.words[jordan.pivot_rows, jordan.half :].astype("<u8").view(np.uint8)
    return np.unpackbits(words, axis=1, count=len(jordan.pivots), bitorder="little").astype(int)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_jordan2_rank_pivots_and_inverse_equal_the_references(data):
    # the bit-packed Gauss-Jordan kernel: its pivot columns are those of
    # the elimination mod 2, its rank the reference GF(2) rank, it stops at
    # each free column in turn, and its pivot bits invert B mod 2
    rows = data.draw(st.integers(1, 12))
    cols = data.draw(st.sampled_from([1, 2, 5, 9, 63, 64, 65, 130]))
    m = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows))
    if rows > 2 and data.draw(st.booleans()):
        # a repeated row and a sum of two rows mod 2
        m[-1] = m[0]
        m[-2] = [x ^ y for x, y in zip(m[1], m[2])]
    a = np.array(m, dtype=np.int64)
    jordan = gf2._Jordan2(a)
    stops = []
    while (f := jordan.advance()) is not None:
        stops.append(f)
    want = _echelon_modp_reference(m, 2)[2]
    assert jordan.pivots == want
    assert len(jordan.pivots) == reference.rank_gf2(_pack(m))
    assert stops == jordan.free == sorted(set(range(cols)) - set(want))
    b = a[np.ix_(jordan.pivot_rows, jordan.pivots)]
    assert (_pivot_bits(jordan) @ b % 2 == np.eye(len(want), dtype=np.int64)).all()
    assert (a == np.array(m)).all()


def test_jordan2_stops_with_the_inverse_of_the_pivots_before_the_stop():
    # x3 = x1 + x2 mod 2 on these rows, so the elimination stops at column 2
    # with the pivots 0 and 1 alone, and goes on from column 3
    a = np.array([[1, 0, 1, 0], [0, 1, 1, 1], [1, 1, 0, 0]], dtype=np.int64)
    jordan = gf2._Jordan2(a)
    assert jordan.advance() == 2
    assert (jordan.pivots, jordan.pivot_rows) == ([0, 1], [0, 1])
    assert _pivot_bits(jordan).tolist() == [[1, 0], [0, 1]]
    assert jordan.advance() is None
    assert (jordan.pivots, jordan.free) == ([0, 1, 3], [2])


@pytest.mark.parametrize("steps", [1, 4, gf2._STEPS_2ADIC])
def test_rank_2adic_on_powers_of_two_times_odd_minors(steps):
    # 2^v U with an odd maximal minor in U: every pivot has valuation v,
    # so the rank mod 2^steps is full below the budget and 0 at it
    rng = random.Random(steps)
    for _ in range(40):
        cols = rng.randrange(1, 6)
        rows = cols + rng.randrange(0, 4)
        while True:
            u = [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)]
            if reference.rank_gf2(_pack([[x & 1 for x in r] for r in u])) == cols:
                break
        for v in range(steps + 1):
            s = np.array(u, dtype=np.int64) << v
            assert gf2._rank_2adic(s, steps) == (cols if v < steps else 0)


def test_rank_2adic_is_at_most_the_rank_over_q_and_equal_past_every_valuation():
    # small entries keep every minor below 2^31, so mod 2^31 no pivot's
    # valuation reaches the budget and the rank is exact
    rng = random.Random(31)
    for _ in range(300):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        m = [[rng.choice([0, 0, 1, 2, 4, -2, 6, 3]) for _ in range(cols)] for _ in range(rows)]
        exact = reference.rank_rational(m)
        a = np.array(m, dtype=np.int64)
        assert gf2._rank_2adic(a, 31) == exact
        assert all(gf2._rank_2adic(a, s) <= exact for s in (1, 2, 3, 8))


def test_leading_rank_2adic_rules():
    # (a): the identity; (b): a column that is the sum, or the difference,
    # of the two before it; (c): 011, 101, 110, 000 at order 1, with
    # determinant 2; and the fallback: column 2 is c0 + c1 mod 2 only, so
    # (b) fails there, and column 3, equal to it, leaves S singular
    ident = np.eye(3, dtype=np.int64)
    assert gf2._leading_rank_2adic(ident) == 3
    summed = np.array([[1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]], dtype=np.int64)
    assert gf2._leading_rank_2adic(summed) == 2
    diff = np.array([[1, 1, 0], [0, 1, 1], [1, 1, 0], [0, 0, 0]], dtype=np.int64)
    assert gf2._leading_rank_2adic(diff) == 2
    det2 = np.array([[1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0], [1, 0, 0, 0]], dtype=np.int64)
    assert gf2._leading_rank_2adic(det2) == 4
    late = np.array([[1, 0, 1, 1], [1, 1, 0, 0], [0, 1, 1, 1]], dtype=np.int64)
    assert [reference.rank_rational(late[:, :j].tolist()) for j in (3, 4)] == [3, 3]
    assert gf2._leading_rank_2adic(late) is None


def _plant_sum(rows, i, j, l):
    """Row i becomes the sum of rows j and l, row l first cut to where row j is 0; a repeat if j == l.

    A sum of 0/1 rows is 0/1 exactly when their supports are disjoint.
    """
    if j != l:
        rows[l] = [y * (1 - x) for x, y in zip(rows[j], rows[l])]
    rows[i] = [x + y * (j != l) for x, y in zip(rows[j], rows[l])]


def _certified_rank(echelon):
    """The rank over Q: the pivot rows once every other row is checked to combine them."""
    return len(_certified_pivot_rows(echelon))


def _span_answers(cols, target):
    """`ModularEchelon`'s solve, contains and certified rank, the 0/1 columns its rows.

    A rational target is scaled to integers by the lcm of its denominators,
    which scales the solution by the same and changes neither the span nor the rank.
    """
    ints, scale = reference.scale_row(target)
    echelon = ModularEchelon(cols)
    y = echelon.solve(ints)
    solve = None if y is None else [v / scale for v in y]
    return solve, echelon.contains(ints), _certified_rank(echelon)


def _reference_answers(cols, target):
    """The same answers from the reference `SpanSolver`."""
    solver = reference.SpanSolver(cols)
    return solver.solve(target), solver.contains(target), solver.rank


def test_solve_in_span_unit_columns():
    assert ModularEchelon([[1, 0], [0, 1]]).solve([1, 0]) == [1, 0]


def test_solve_in_span_ball_coefficients():
    # degree-1 evaluation vectors of 000,100,010,001 in row order x1,x2,x3,1
    cols = [[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]
    target = [1, 1, 1, 1]
    coeffs = ModularEchelon(cols).solve(target)
    assert coeffs == [-2, 1, 1, 1]
    combo = [sum(a * c[i] for a, c in zip(coeffs, cols)) for i in range(4)]
    assert combo == target


def test_solve_in_span_unreachable():
    # face 000,100,010,110: third basis row (x3) is identically zero
    cols = [[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 1], [1, 1, 0, 1]]
    assert ModularEchelon(cols).solve([0, 0, 1, 1]) is None


def test_solve_in_span_validation():
    with pytest.raises(ValueError):
        ModularEchelon([[1, 0], [0, 1, 2]])
    with pytest.raises(ValueError, match="at least one column"):
        ModularEchelon([])
    with pytest.raises(ValueError, match="target length"):
        ModularEchelon([[1, 0]]).solve([1])


def test_solve_in_span_deterministic():
    rng = random.Random(11)
    cols = [[rng.randrange(2) for _ in range(6)] for _ in range(8)]
    target = [rng.randrange(2) for _ in range(6)]
    first = ModularEchelon(cols).solve(target)
    second = ModularEchelon(cols).solve(target)
    assert first == second


def test_solve_in_span_random_substitution():
    rng = random.Random(42)
    for _ in range(80):
        length = rng.randrange(1, 7)
        width = rng.randrange(1, 7)
        cols = [[rng.randrange(2) for _ in range(length)] for _ in range(width)]
        weights = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(width)]
        target = [
            sum(w * c[i] for w, c in zip(weights, cols)) for i in range(length)
        ]
        coeffs = _span_answers(cols, target)[0]
        assert coeffs is not None
        recombined = [
            sum(a * c[i] for a, c in zip(coeffs, cols)) for i in range(length)
        ]
        assert recombined == target


def test_solve_matches_rank_criterion():
    rank = reference.rank_rational
    rng = random.Random(83)
    for _ in range(120):
        length = rng.randrange(1, 6)
        width = rng.randrange(1, 6)
        cols = [[rng.randrange(2) for _ in range(length)] for _ in range(width)]
        target = [rng.randrange(-1, 2) for _ in range(length)]
        rows_base = [[c[i] for c in cols] for i in range(length)]
        rows_aug = [row + [t] for row, t in zip(rows_base, target)]
        solvable = ModularEchelon(cols).solve(target) is not None
        assert solvable == (rank(rows_aug) == rank(rows_base))


def test_solve_in_span_rational_inputs():
    # a rational target is solved over its scale
    cols = [[1, 0], [1, 1]]
    coeffs = _span_answers(cols, [Fraction(1, 4), Fraction(1)])[0]
    assert coeffs == reference.solve_in_span(cols, [Fraction(1, 4), Fraction(1)])
    assert coeffs == [Fraction(-3, 4), Fraction(1)]


def test_span_solver_reuse_matches_one_shot():
    rng = random.Random(17)
    cols = [[rng.randrange(2) for _ in range(5)] for _ in range(4)]
    echelon = ModularEchelon(cols)
    for _ in range(20):
        target = [rng.randrange(-1, 2) for _ in range(5)]
        once = ModularEchelon(cols).solve(target)
        assert echelon.solve(target) == once == reference.solve_in_span(cols, target)
        assert echelon.contains(target) == (once is not None)


def _affine_rank_q(vertices):
    """The rank over Q of the rows (1, v) of the vertices, certified by `ModularEchelon`."""
    return _certified_rank(ModularEchelon([[1, *v.coords()] for v in vertices]))


def _affine_rank_gf2(vertices):
    """The rank over GF(2) of the rows (1, v), by the reference XOR elimination."""
    return reference.rank_gf2([(1 << v.n) | v.bits for v in vertices])


def test_affinely_independent_examples():
    assert _affine_rank_q([V("0"), V("1")]) == 2
    quad = [V("000"), V("110"), V("101"), V("011")]
    assert _affine_rank_q(quad) == 4
    assert _affine_rank_gf2(quad) == 3
    face = [V("000"), V("100"), V("010"), V("110")]
    assert _affine_rank_q(face) == 3


def test_gf2_independence_implies_rational():
    # exhaustive over every 4-subset of the 3-cube
    from itertools import combinations

    verts = [Vertex(3, b) for b in range(8)]
    for subset in combinations(verts, 4):
        if _affine_rank_gf2(subset) == 4:
            assert _affine_rank_q(subset) == 4


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
        if _affine_rank_gf2(subset) == n + 1:
            assert _affine_rank_q(subset) == n + 1


def _random_entry(rng):
    roll = rng.random()
    if roll < 0.4:
        return 0
    if roll < 0.8:
        return rng.randrange(-3, 4)
    return Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))


def _random_system(rng):
    """0/1 columns with zero, summed and zero-leading entries, plus a rational target."""
    length = rng.randrange(1, 8)
    width = rng.randrange(1, 8)
    cols = [[rng.randrange(2) for _ in range(length)] for _ in range(width)]
    if width > 1 and rng.random() < 0.3:
        cols[rng.randrange(width)] = [0] * length
    if width > 2 and rng.random() < 0.3:
        _plant_sum(cols, *rng.sample(range(width), 3))
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


_SOLVERS = pytest.mark.parametrize(
    "answers", [_span_answers, _reference_answers], ids=["modular", "reference"]
)


@_SOLVERS
def test_span_solver_equals_fraction_oracle(answers):
    rng = random.Random(2024)
    inside = outside = 0
    for _ in range(600):
        cols, target = _random_system(rng)
        expected = _solve_fraction_oracle(cols, target)
        rank = _rank_fraction_oracle([[c[i] for c in cols] for i in range(len(target))])
        assert answers(cols, target) == (expected, expected is not None, rank)
        inside += expected is not None
        outside += expected is None
    # both branches are exercised in quantity
    assert inside > 200 and outside > 100


def test_span_solver_oracle_forced_swap_example():
    # column 0 is zero, column 1 pivots on row 2, column 2 repeats column 1
    cols = [[0, 0, 0], [0, 0, 1], [0, 0, 1], [1, 1, 0]]
    target = [Fraction(3, 2), Fraction(3, 2), 5]
    solve, contains, rank = _span_answers(cols, target)
    assert rank == 2 and contains is True
    assert solve == _solve_fraction_oracle(cols, target) == [0, 5, 0, Fraction(3, 2)]
    assert _span_answers(cols, [1, 0, 0]) == (None, False, 2)


_entries = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@st.composite
def _systems(draw):
    """0/1 columns and a rational target; row i is entry i of every column.

    The leading rows are often repeats or sums of earlier ones and zero in
    the first columns, so a pivot row from below passes two or more rows on
    its way up, and which of the rows it passes are pivots depends on their
    order.
    """
    length = draw(st.integers(1, 7))
    width = draw(st.integers(1, 7))
    bits = st.lists(st.integers(0, 1), min_size=width, max_size=width)
    rows = draw(st.lists(bits, min_size=length, max_size=length))
    lead = draw(st.integers(0, length))
    zeros = draw(st.integers(1, width))
    for i in range(1, lead):
        _plant_sum(rows, i, draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1)))
    for row in rows[:lead]:
        row[:zeros] = [0] * zeros
    cols = [list(c) for c in zip(*rows)]
    if draw(st.booleans()):
        weights = draw(st.lists(_entries, min_size=width, max_size=width))
        target = [sum(w * c[i] for w, c in zip(weights, cols)) for i in range(length)]
    else:
        target = draw(st.lists(_entries, min_size=length, max_size=length))
    return cols, target


@_SOLVERS
@settings(max_examples=300, deadline=None)
@given(_systems())
def test_span_solver_equals_fraction_oracle_property(answers, system):
    cols, target = system
    expected = _solve_fraction_oracle(cols, target)
    assert answers(cols, target)[:2] == (expected, expected is not None)


def _dot(weights, vector):
    return sum((w * x for w, x in zip(weights, vector)), Fraction(0))


def _earliest_independent_rows(rows):
    """Greedily, each row whose rank exceeds that of the rows chosen before it."""
    chosen = []
    for i, row in enumerate(rows):
        if _rank_fraction_oracle([rows[j] for j in chosen] + [row]) > len(chosen):
            chosen.append(i)
    return chosen


@pytest.mark.parametrize("prime", [None, 2, 3])
@settings(max_examples=150, deadline=None)
@given(_systems())
def test_modular_echelon_fit_property(prime, system):
    # the target is fitted as integers over the lcm of its denominators,
    # which scales the fit by the same and leaves the kernel
    cols, target = system
    rows = [list(row) for row in zip(*cols)]
    values, scale = reference.scale_row(target)
    reduced, oracle_pivots = _gauss_jordan_fraction(rows)
    pivots = [col for _, col in oracle_pivots]
    with pytest.MonkeyPatch.context() as mp:
        if prime is not None:
            mp.setattr(linalg, "_P", prime)
        echelon = ModularEchelon(np.array(rows))
        ((columns, nums, d),), kernel = echelon.fit([values])
    # a certified answer leaves the factor on the profile over Q
    assert echelon.pivots == columns == pivots
    assert gcd(d, *nums) == 1
    x = [Fraction(0)] * len(cols)
    for j, v in zip(columns, nums):
        x[j] = Fraction(v, d * scale)
    assert echelon.pivot_rows == _earliest_independent_rows(rows)
    assert all(x[j] == 0 for j in range(len(cols)) if j not in pivots)
    for i in echelon.pivot_rows:
        assert _dot(x, rows[i]) == target[i]
    coeffs = _solve_fraction_oracle(cols, target)
    if coeffs is not None:
        assert x == coeffs
    # the reduced kernel basis, each vector scaled to 1 at its free column
    free = [j for j in range(len(cols)) if j not in pivots]
    oracle = []
    for f in free:
        vec = [Fraction(int(j == f)) for j in range(len(cols))]
        for r, c in oracle_pivots:
            vec[c] = -reduced[r][f]
        oracle.append(vec)
    assert [columns[0] for columns, _ in kernel] == free
    dense = []
    for columns, ints in kernel:
        assert ints[0] > 0 and gcd(*ints) == 1
        vec = [Fraction(0)] * len(cols)
        for j, v in zip(columns, ints):
            vec[j] = Fraction(v, ints[0])
        dense.append(vec)
    assert dense == oracle


def test_modular_echelon_fit_on_earliest_rows_regression():
    # rows 0000, 0001, 0010, 0011, 0100 against the degree-1 basis x1..x4, 1:
    # row 3 is dependent on rows 0-2, so the fit must reproduce rows 0, 1, 2
    # and 4; swapping row 4 into row 0's place once left row 0 unfitted
    rows = [[0, 0, 0, 0, 1], [0, 0, 0, 1, 1], [0, 0, 1, 0, 1], [0, 0, 1, 1, 1], [0, 1, 0, 0, 1]]
    echelon = ModularEchelon(np.array(rows))
    assert echelon.pivots == [1, 2, 3, 4]
    assert echelon.pivot_rows == [0, 1, 2, 4]
    # the fit on the pivot columns over d = 1, and the kernel vector e_0 on
    # its free column and the pivot columns
    kernel = [([0, 1, 2, 3, 4], [1, 0, 0, 0, 0])]
    assert echelon.fit([[0, 0, 0, 1, 0]]) == ([([1, 2, 3, 4], [0, 0, 0, 0], 1)], kernel)
    assert echelon.fit([[5, 0, 0, 1, 0]]) == ([([1, 2, 3, 4], [-5, -5, -5, 5], 1)], kernel)
    with pytest.raises(ValueError, match="4 values for 5 rows"):
        echelon.fit([[0, 0, 0, 1, 0], [0, 0, 0, 1]])


@pytest.mark.parametrize("prime", [None, 2, 3])
def test_fit_on_several_vectors_equals_one_fit_each_in_one_lift(monkeypatch, prime):
    # the unit vector of every row and one random vector, on rows of rank
    # below the row and the column count: one `_lifted` call fits them all,
    # and each fit and the kernel basis equal those of a fit of that vector alone
    rng = random.Random(5)
    rows = [[rng.randrange(2) for _ in range(6)] for _ in range(7)]
    _plant_sum(rows, 5, 0, 2)
    _plant_sum(rows, 6, 3, 3)
    rows = np.array(rows)
    values = [*np.eye(len(rows), dtype=np.int64).tolist(), [rng.randrange(-99, 100) for _ in rows]]
    if prime is not None:
        monkeypatch.setattr(linalg, "_P", prime)
    alone = [ModularEchelon(rows).fit([v]) for v in values]
    lifts = []
    lifted = linalg._lifted
    monkeypatch.setattr(linalg, "_lifted", lambda *args: lifts.append(args) or lifted(*args))
    factored = _record_factors(monkeypatch)
    fits, kernel = ModularEchelon(rows).fit(values)
    assert (fits, kernel) == ([fit for (fit,), _ in alone], alone[0][1])
    # one lift checks the other rows against the pivot rows, and one fits
    # every vector with the kernel; a bad prime may take both again
    assert len(lifts[-1][2]) == len(values) + len(kernel)
    assert (len(lifts) == 2) if prime is None else (len(lifts) <= 2 * len(factored))
    assert ModularEchelon(rows).fit([]) == ([], kernel)


def _record_factors(monkeypatch):
    """The prime of every `_echelon_modp` call, in order."""
    primes = []
    echelon = linalg._echelon_modp
    monkeypatch.setattr(
        linalg, "_echelon_modp", lambda r, p, **kw: primes.append(p) or echelon(r, p, **kw)
    )
    return primes


def _certificate(method):
    """The method's answer, or `_Undecided` itself when it raises that."""
    try:
        return method()
    except _Undecided:
        return _Undecided


def _certified_pivot_rows(echelon):
    """The pivot rows once every other row is checked to combine only those before it."""
    echelon._certified(lambda: echelon._through_pivot_rows([]))
    return echelon.pivot_rows


def test_modular_certificate_refused_when_rank_drops_mod_p(monkeypatch):
    # det = 2 = p: rank 3 over Q, rank 2 mod p, and the kernel vector
    # (1, -1, 1) of the pivot rows is exact but fails the exact check on
    # the third row
    rows = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    monkeypatch.setattr(linalg, "_P", 2)
    echelon = ModularEchelon(rows)
    assert echelon.rank == 2
    with pytest.raises(_Undecided):
        echelon.null_vector()
    # the target (0, 0, 1) stops its factor at column 2, with the same vector
    carrying = ModularEchelon(rows, target=[0, 0, 1])
    assert carrying._end == 2
    with pytest.raises(_Undecided):
        carrying.null_vector()
    factored = _record_factors(monkeypatch)
    # the undecided certificate re-factors mod the next prime, where the
    # rank is full, and the reference agrees
    assert echelon.spans() is True
    assert factored == [linalg._P2] and echelon.rank == 3
    assert reference.rank_rational(rows.T.tolist()) == 3


def test_modular_echelon_examples():
    echelon = ModularEchelon(np.array([[1, 1, 1], [1, 1, 1], [0, 0, 0]]))
    assert echelon.rank == 1 and echelon.pivots == [0]
    assert echelon.null_vector() == [-1, 1, 0]
    # a factor carrying a target finds the kernel vector it does not annihilate
    rows = echelon.rows
    assert ModularEchelon(rows, target=[1, 0, 0]).null_vector() == [-1, 1, 0]
    assert ModularEchelon(rows, target=[0, 0, 1]).null_vector() == [-1, 0, 1]
    assert ModularEchelon(rows, target=[1, 1, 1]).null_vector() is None
    # a chain of pivots: the kernel vector needs every pivot cleared above
    chain = ModularEchelon(np.array([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]))
    assert chain.pivots == [0, 1, 2]
    assert chain.null_vector() == [-1, 1, -1, 1]
    assert ModularEchelon(chain.rows, target=[1, 0, 0, 0]).null_vector() == [-1, 1, -1, 1]
    assert ModularEchelon(chain.rows, target=[1, 1, 0, 0]).null_vector() is None
    assert ModularEchelon(np.eye(3, dtype=np.int64)).null_vector() is None
    # every vector vanishes on no rows
    assert ModularEchelon(np.zeros((0, 2), dtype=np.int64), target=[0, 1]).null_vector() == [0, 1]
    with pytest.raises(ValueError, match="target length"):
        ModularEchelon(rows, target=[1, 2])
    # target . y is exact: numpy would read this target as floats, whose dot with y cancels
    far = [(1 << 63) + 1, 1 << 63]
    assert ModularEchelon(np.array([[1, 1]]), target=far).null_vector() == [-1, 1]
    assert ModularEchelon([[1, 1]]).solve(far) is reference.solve_in_span([[1, 1]], far) is None


@pytest.mark.parametrize("entry", [2, -1, 1 << 31, 1 << 80, Fraction(1, 2), 0.5, "1"])
def test_rows_that_are_not_0_1_are_refused(entry):
    # every matrix the package factors is a 0/1 evaluation matrix, so any
    # other entry is refused before a factor is built, prefix or target alike
    for kwargs in ({}, {"prefix": True}, {"target": [1, 0]}):
        with pytest.raises(ValueError, match="0/1"):
            ModularEchelon([[1, 0], [entry, 1]], **kwargs)
    # 0/1 rows of any integer or bool dtype are taken, and held as int64
    for dtype in (np.int64, np.uint8, bool):
        assert ModularEchelon(np.eye(2, dtype=dtype)).rows.dtype == np.int64


def test_targets_must_be_integers():
    # a fraction is refused, not truncated: read as 1, 3/2 would put the
    # target (3/2, 1) in the span of (1, 1), and (1/2, 1) would solve as (0, 1)
    with pytest.raises(ValueError, match="integer"):
        ModularEchelon([[1, 1]]).contains([Fraction(3, 2), 1])
    with pytest.raises(ValueError, match="integer"):
        ModularEchelon([[1, 0], [0, 1]]).solve([Fraction(1, 2), 1])
    with pytest.raises(ValueError, match="integer"):
        ModularEchelon([[1, 0], [0, 1]], target=[0.5, 1])
    # numpy integers are integers
    assert ModularEchelon([[1, 0], [0, 1]]).solve(np.array([2, 1])) == [2, 1]
    assert ModularEchelon([[1, 1]]).contains([np.int64(3), 3]) is True


def test_kernel_vector_past_one_residue_runs_no_bareiss():
    # a random 0/1 24 x 25 matrix of rank 24: its kernel vector's entries,
    # minors, pass sqrt(p/2), so one residue cannot reconstruct it; the
    # lifted solve of B x = (its last column) does
    rng = random.Random(0)
    rows = np.array([[rng.randrange(2) for _ in range(25)] for _ in range(24)])
    reduced, pivots = _gauss_jordan_fraction(rows.tolist())
    assert [c for _, c in pivots] == list(range(24))
    kernel = [-row[24] for row in reduced] + [Fraction(1)]
    d = lcm(*(v.denominator for v in kernel))
    echelon = ModularEchelon(rows)
    y = echelon.null_vector()
    assert y == [int(v * d) for v in kernel]
    assert max(map(abs, y)) > isqrt(linalg._P // 2)
    unit = [0] * 24 + [1]
    assert ModularEchelon(rows, target=unit).null_vector() == y
    assert echelon.spans() is False
    assert echelon.contains(unit) is False
    assert echelon.contains((2 * rows[0] - rows[1]).tolist()) is True


def _echelon_modp_reference(rows, p):
    """LU factorization mod p on Python ints with the pivot rule and layout of `_echelon_modp`.

    A column's pivot is its nonzero candidate with the smallest input
    index, swapped into place. It keeps its value, each eliminated entry
    keeps its multiplier, and the rest of the pivot row is divided by the
    pivot. Returns the factored rows, their input indices and the pivot
    columns.
    """
    m = [[x % p for x in row] for row in rows]
    order = list(range(len(m)))
    pivots = []
    for c in range(len(m[0])):
        r = len(pivots)
        candidates = [i for i in range(r, len(m)) if m[i][c]]
        if not candidates:
            continue
        piv = min(candidates, key=order.__getitem__)
        m[r], m[piv] = m[piv], m[r]
        order[r], order[piv] = order[piv], order[r]
        inv = pow(m[r][c], -1, p)
        m[r][c + 1 :] = [x * inv % p for x in m[r][c + 1 :]]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            m[i][c + 1 :] = [(x - f * y) % p for x, y in zip(m[i][c + 1 :], m[r][c + 1 :])]
        pivots.append(c)
    return m, order, pivots


def _reduced_echelon(factor, pivots, p):
    """The reduced echelon form of the U of an `_echelon_modp_reference` factor."""
    reduced = [[0] * c + [1] + row[c + 1 :] for row, c in zip(factor, pivots)]
    for i in range(len(pivots) - 1, -1, -1):
        for j in range(i):
            f = reduced[j][pivots[i]]
            if f:
                reduced[j] = [(x - f * y) % p for x, y in zip(reduced[j], reduced[i])]
    return reduced


def test_modular_elimination_equals_reference_past_the_lazy_bound():
    # random full-size residues subtract about p^2 / 4 per step from each
    # entry, so 140 pivots, over five times _lazy_steps(p), overflow int64
    # unless the block is reduced on time, in the factorization and in each
    # substitution; the last 20 rows and the last 10 columns, random
    # combinations of the first 140, depend on the others mod p
    p = linalg._P
    rng = random.Random(5)
    rows = [[rng.randrange(p) for _ in range(140)] for _ in range(140)]
    rows += [[(x + y) % p for x, y in zip(rows[i], rows[i + 1])] for i in range(20)]
    weights = [[rng.randrange(p) for _ in range(140)] for _ in range(10)]
    for row in rows:
        row += [sum(w * x for w, x in zip(ws, row)) % p for ws in weights]
    assert 5 * linalg._lazy_steps(p) < 140
    factor, order, pivots = _echelon_modp_reference(rows, p)
    lu = np.array(rows)
    got_order, got_pivots, end = linalg._echelon_modp(lu, p)
    assert end is None
    assert got_pivots == pivots == list(range(140))
    assert got_order.tolist() == order and lu.tolist() == factor
    # the engine's factor of 0/1 rows three panels wide is the reference's too
    bits = [[rng.randrange(2) for _ in range(60)] for _ in range(64)]
    bit_factor, bit_order, bit_pivots = _echelon_modp_reference(bits, p)
    echelon = ModularEchelon(np.array(bits))
    assert echelon.pivots == bit_pivots and echelon._order == bit_order[: len(bit_pivots)]
    assert echelon._lu.tolist() == bit_factor[: len(bit_pivots)]
    # backward through U, unit diagonal: the reduced echelon form's free columns
    free = list(range(140, 150))
    kernel = linalg._triangular_solver(lu[:140, :140], p, False)(lu[:140, free])
    assert kernel.tolist() == [row[140:] for row in _reduced_echelon(factor, pivots, p)]
    # B = rows[:140] on the pivot columns is (L U)^T: forward through U^T,
    # then backward through L^T with the pivots' inverses
    t = np.ascontiguousarray(lu[:140, :140].T)
    rhs = [[rng.randrange(p) for _ in range(3)] for _ in range(140)]
    z = linalg._triangular_solver(t, p, True)(np.array(rhs))
    diag_inv = linalg._batch_inverse(np.diagonal(t), p)
    x = linalg._triangular_solver(t, p, False, diag_inv)(z)
    assert 0 <= z.min() and z.max() < p and 0 <= x.min() and x.max() < p
    z, x = z.tolist(), x.tolist()
    for j in range(140):
        ut_row = [factor[k][j] for k in range(j)] + [1]
        lt_row = [factor[j][j]] + [factor[i][j] for i in range(j + 1, 140)]
        for col in range(3):
            assert sum(u * z[k][col] for k, u in enumerate(ut_row)) % p == rhs[j][col]
            assert sum(v * x[i][col] for i, v in enumerate(lt_row, j)) % p == z[j][col]
            assert sum(rows[i][j] * x[i][col] for i in range(140)) % p == rhs[j][col]



@st.composite
def _panel_matrices(draw, p):
    """Residue matrices mod p up to three panels wide, their pivots skipping panel edges.

    Runs of columns with no pivot (zero, or a multiple of the column
    before) start at, just before or just after a panel edge, and may run
    across it. The top rows may be zero on a leading stretch of columns,
    so those pivots are swapped in from far below, and some rows repeat an
    earlier one.
    """
    w = linalg._panel_width(p)
    cols = draw(st.integers(1, 3 * w))
    rows = draw(st.integers(1, 2 * w + 2))
    rng = random.Random(draw(st.integers(0, 2**32)))
    m = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
    # the panel edges: a short panel first, then full ones
    edges = [c for e in range(cols % w or w, cols, w) for c in (e - 2, e - 1, e, e + 1)]
    edges = [c for c in edges if 0 <= c < cols]
    starts = draw(st.lists(st.sampled_from(edges or [0]), max_size=3))
    starts += draw(st.lists(st.integers(0, cols - 1), max_size=2))
    for start in starts:
        for c in range(start, min(start + draw(st.integers(1, 4)), cols)):
            k = draw(st.integers(0, p - 1)) if c else 0
            for row in m:
                row[c] = k * row[c - 1] % p if c else 0
    below = draw(st.integers(0, rows - 1))
    lead = draw(st.integers(0, cols))
    for row in m[:below]:
        row[:lead] = [0] * lead
    for _ in range(draw(st.integers(0, 3))):
        i, j = rng.randrange(rows), rng.randrange(rows)
        m[max(i, j)] = m[min(i, j)][:]
    return m


@pytest.mark.parametrize("p", [2, 3, linalg._P])
@settings(max_examples=50, deadline=None)
@given(st.data())
def test_panel_elimination_equals_reference(p, data):
    # the whole factored array, the row order and the pivots, on every shape
    m = data.draw(_panel_matrices(p))
    lu = np.array(m, dtype=np.int64)
    order, pivots, end = linalg._echelon_modp(lu, p)
    factor, want_order, want_pivots = _echelon_modp_reference(m, p)
    assert pivots == want_pivots and end is None
    assert order.tolist() == want_order
    assert lu.tolist() == factor


@pytest.mark.parametrize("p", [2, 3, linalg._P])
@settings(max_examples=50, deadline=None)
@given(st.data())
def test_stopped_elimination_is_the_reference_up_to_its_first_free_column(p, data):
    # a stop at the first column without a pivot keeps the pivots and
    # pivot rows before it, and their entries up to that column included
    m = data.draw(_panel_matrices(p))
    lu = np.array(m, dtype=np.int64)
    order, pivots, end = linalg._echelon_modp(lu, p, stop=True)
    factor, want_order, want_pivots = _echelon_modp_reference(m, p)
    rank = len(pivots)
    assert end == (rank if rank < len(m[0]) else None)
    assert pivots == list(range(rank)) == want_pivots[:rank]
    assert rank == len(m) or rank == len(m[0]) or rank not in want_pivots
    assert order[:rank].tolist() == want_order[:rank]
    assert lu[:rank, : rank + 1].tolist() == [row[: rank + 1] for row in factor[:rank]]


@pytest.mark.parametrize("p", [2, 3, linalg._P])
@settings(max_examples=50, deadline=None)
@given(st.data())
def test_witness_stop_is_where_the_reference_pivots_the_witness(p, data):
    # the reference lets a last row pivot only where no row above it can:
    # the first such column is the end, found by the column loop also when
    # every other row has pivoted before it; the pivots and pivot rows
    # before it are the reference's
    m = data.draw(_panel_matrices(p))
    cols = len(m[0])
    units = range(cols)
    if data.draw(st.booleans()):
        # only the earliest independent rows, fewer than the columns, so
        # every row pivots before the stop; a unit past the last pivot
        # leaves the witness nonzero only from that unit's column on
        _, order, pivots = _echelon_modp_reference(m, p)
        m = [m[i] for i in sorted(order[: min(len(pivots), cols - 1)])]
        pivots = _echelon_modp_reference(m, p)[2] if m else []
        units = range(pivots[-1] + 1 if pivots else 0, cols)
    # random, a row, or a combination of the rows plus at most one unit
    # vector, which reduces to zero before that unit's column
    witness = data.draw(st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols))
    kind = data.draw(st.sampled_from(["random", "row", "combination"]))
    if kind != "random":
        weights = data.draw(st.lists(st.integers(0, p - 1), min_size=len(m), max_size=len(m)))
        if kind == "row" and m:
            j = data.draw(st.integers(0, len(m) - 1))
            weights = [int(i == j) for i in range(len(m))]
        unit = None if kind == "row" else data.draw(st.sampled_from([None, *units]))
        witness = [
            (sum(w * row[c] for w, row in zip(weights, m)) + (c == unit)) % p for c in range(cols)
        ]
    lu = np.array(m + [witness], dtype=np.int64)
    order, pivots, end = linalg._echelon_modp(lu, p, stop=True, witnesses=1)
    factor, want_order, want_pivots = _echelon_modp_reference(m + [witness], p)
    ranks = [i for i, j in enumerate(want_order[: len(want_pivots)]) if j == len(m)]
    rank = ranks[0] if ranks else len(want_pivots)
    assert end == (want_pivots[rank] if ranks else None)
    assert pivots == want_pivots[:rank]
    assert order[:rank].tolist() == want_order[:rank]
    seen = cols if end is None else end + 1
    assert lu[:rank, :seen].tolist() == [row[:seen] for row in factor[:rank]]


def _substitute_reference(m, rhs, p, forward, diag_inv=None):
    """Row-by-row substitution mod p in Python ints, reading what `_triangular_solver` reads."""
    n = len(m)
    x = [row[:] for row in rhs]
    for i in range(n) if forward else range(n - 1, -1, -1):
        solved = range(i) if forward else range(i + 1, n)
        scale = 1 if diag_inv is None else diag_inv[i]
        for c in range(len(rhs[i])):
            x[i][c] = (rhs[i][c] - sum(m[i][j] * x[j][c] for j in solved)) * scale % p
    return x


@pytest.mark.parametrize("p", [3, linalg._P])
@pytest.mark.parametrize("r", [1, 24, 25, 26, 51, 140])
@pytest.mark.parametrize("k", [1, 2, 40])
def test_blocked_substitution_equals_reference(p, r, k):
    rng = random.Random(r * 100 + k)
    m = [[rng.randrange(1 if i == j else 0, p) for j in range(r)] for i in range(r)]
    rhs = [[rng.randrange(p) for _ in range(k)] for _ in range(r)]
    diag_inv = [pow(m[i][i], -1, p) for i in range(r)]
    for forward in (True, False):
        for inv in (None, diag_inv):
            want = _substitute_reference(m, rhs, p, forward, inv)
            got = linalg._triangular_solver(
                np.array(m), p, forward, None if inv is None else np.array(inv)
            )(np.array(rhs))
            assert got.tolist() == want
    # one solver, built once, answers every right-hand side it is given
    solve = linalg._triangular_solver(np.array(m), p, True, np.array(diag_inv))
    for _ in range(2):
        assert solve(np.array(rhs)).tolist() == _substitute_reference(m, rhs, p, True, diag_inv)


def _worst_case_input(n, p):
    """The n x n input whose factor under `_echelon_modp` is p - 1 in every entry.

    L has p - 1 on and below the diagonal and U has 1 on it and p - 1
    above, so every product the elimination sums is (p - 1)^2.
    """
    low = [[p - 1 if j <= i else 0 for j in range(n)] for i in range(n)]
    up = [[1 if j == i else p - 1 if j > i else 0 for j in range(n)] for i in range(n)]
    return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*up)] for row in low]


@pytest.mark.parametrize("p", [linalg._P1, linalg._P2])
def test_kernels_at_the_worst_case_int64_sums(p):
    # every summed product is (p - 1)^2, so a panel or block even one
    # product wider than _lazy_steps(p) wraps int64 and breaks equality
    w = linalg._panel_width(p)
    assert w == linalg._lazy_steps(p) == 25
    for n in (w - 1, w, w + 1, 2 * w, 2 * w + 1, 2 * w + 2):
        m = _worst_case_input(n, p)
        lu = np.array(m, dtype=np.int64)
        order, pivots, _ = linalg._echelon_modp(lu, p)
        assert lu.tolist() == _echelon_modp_reference(m, p)[0] == [[p - 1] * n] * n
        assert order.tolist() == pivots == list(range(n))
        # the solution is p - 1 everywhere, so each block's update of the
        # rows still to solve sums (p - 1)^2 as often as the block is wide
        x = [[p - 1] * 2 for _ in range(n)]
        for forward in (True, False):
            for diag in (1, p - 1):
                tri = [
                    [diag if j == i else p - 1 if (j < i) == forward else 0 for j in range(n)]
                    for i in range(n)
                ]
                rhs = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*x)] for row in tri]
                inv = None if diag == 1 else np.full(n, pow(diag, -1, p))
                got = linalg._triangular_solver(lu, p, forward, inv)(np.array(rhs))
                assert got.tolist() == x == _substitute_reference(
                    lu.tolist(), rhs, p, forward, None if inv is None else inv.tolist()
                )


def _column_norms_sq_reference(m):
    return [sum(x * x for x in col) for col in zip(*m)]


def test_column_norms_branches_agree():
    # the int64 reduction and the Python-int sums give identical norms and bounds
    rng = random.Random(3)
    small = [[rng.randrange(-9, 10) for _ in range(7)] for _ in range(6)]
    near = [[rng.choice([-1, 1]) * ((1 << 31) - rng.randrange(4)) for _ in range(7)] for _ in range(6)]
    # 6 (2^31 - 1)^2 passes 2^63: only the Python-int branch is exact here
    assert 6 * ((1 << 31) - 4) ** 2 >= 1 << 63
    wrapped = (np.array(near) * np.array(near)).sum(axis=0).tolist()
    assert wrapped != _column_norms_sq_reference(near)
    for m in (small, near, near[:1], [[0] * 3]):
        assert linalg._column_norms_sq(np.array(m)) == _column_norms_sq_reference(m)
    assert linalg._column_norms_sq(np.zeros((0, 2), dtype=np.int64)) == [0, 0]
    for b in (small, near):
        square, rhs = np.array([row[:6] for row in b]), np.array([row[6:] for row in b])
        exact = _column_norms_sq_reference(square.tolist())
        rhs_sq = max(_column_norms_sq_reference(rhs.tolist()))
        det_sq = 1
        for x in exact:
            det_sq *= x
        num_sq = -(-det_sq * rhs_sq // min(exact))
        assert linalg._hadamard_bounds(square, rhs) == (isqrt(num_sq) + 1, isqrt(det_sq) + 1)

def test_rational_lift():
    p = linalg._P
    for r, s in [(0, 1), (1, 1), (-1, 1), (3, 7), (-5, 12), (17000, 17001)]:
        assert linalg._rational_lift(r * pow(s, -1, p) % p, p) == Fraction(r, s)
    # no fraction with numerator and denominator within sqrt(p/2) has this
    # residue: every denominator s in range leaves s * u far from 0 mod p
    u, bound = 1000006, isqrt(p // 2)
    assert linalg._rational_lift(u, p) is None
    assert all(bound < s * u % p < p - bound for s in range(1, bound + 1))


_lift_entries = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)


@settings(max_examples=200, deadline=None)
@given(st.lists(_lift_entries, max_size=12))
def test_lift_vector_equals_entrywise_reconstruction_property(x):
    # numerators over d as `scale_row` gives them from each entry's own
    # reconstruction, at moduli below and past 2 N D for N and D the
    # largest numerator and denominator, where the vector itself comes back
    p = linalg._P
    num = max([1, *(abs(v.numerator) for v in x)])
    den = max([1, *(v.denominator for v in x)])
    for modulus in (p, p**2, p**3):
        residues = [v.numerator * pow(v.denominator, -1, modulus) % modulus for v in x]
        bounds = [(None, None), (num, den)] if modulus > 2 * num * den else [(None, None)]
        for bound in bounds:
            got = linalg._lift_vector(residues, modulus, *bound)
            entries = [linalg._rational_lift(u, modulus, *bound) for u in residues]
            assert got == (None if None in entries else reference.scale_row(entries))
            if got is not None:
                assert gcd(got[1], *got[0]) == 1
        if modulus > 2 * num * den:
            assert linalg._lift_vector(residues, modulus, num, den) == reference.scale_row(x)


def test_exact_check_decides_vectors_int64_cannot_hold():
    # y @ m == d * want: one int64 product while max|y| times the largest
    # absolute column sum stays below 2^63, limbs past it
    col = np.array([[1], [-1]])
    assert linalg._combines_to([1, 1], 1, col, [0])
    # y = (1/2, -1/2) as numerators over 2
    assert linalg._combines_to([1, -1], 2, col, [1])
    assert not linalg._combines_to([1, 2], 1, col, [0])
    # max|y| times the column sum 2 reaches 2^63, so the product runs on limbs
    assert linalg._combines_to([1 << 62, 1 << 62], 1, col, [0])
    assert linalg._combines_to([1 << 70, 1], 1, col, [(1 << 70) - 1])
    assert not linalg._combines_to([1 << 62, (1 << 62) + 1], 1, col, [0])
    # 4 * 2^62 wraps to 0 in int64; the exact product is not zero
    assert not linalg._combines_to([1 << 62, 0], 1, np.array([[4], [1]]), [0])
    # a kernel vector certifies only a carried target that does not annihilate it
    rows = np.array([[1, 1]])
    echelon = ModularEchelon(rows)
    assert echelon._kernel_vector(1, [0], ([1], 1)) == ([1, 0], [1, -1])
    assert ModularEchelon(rows, target=[1, 0])._kernel_vector(1, [0], ([1], 1)) == ([1, 0], [1, -1])
    assert ModularEchelon(rows, target=[1, 1])._kernel_vector(1, [0], ([1], 1)) is None
    assert echelon._kernel_vector(1, [0], ([2], 1)) is None


def _exact_check(y, d, m, want):
    """`_combines_to` on plain Python ints: y @ m == d * want."""
    product = [sum(a * b for a, b in zip(y, col)) for col in zip(*m)]
    return product == [d * v for v in want]


@st.composite
def _combinations(draw):
    """y, d, m and want for `_combines_to`: y up to 2^700, m 0/1 or signed int64."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    entry = draw(st.sampled_from([st.integers(0, 1), st.integers(-(2**31 - 1), 2**31 - 1)]))
    m = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    d = draw(st.sampled_from([1, 1, 2, 3, 2**61 - 1]))
    y = [d * v for v in draw(st.lists(st.integers(-(2**700) // d, 2**700 // d), min_size=rows,
                                      max_size=rows))]
    want = [sum(a * b for a, b in zip(y, col)) // d for col in zip(*m)]
    if draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        want[j] += draw(st.sampled_from([1, -1, 2**54, 2**63, 2**700]))
    return y, d, np.array(m, dtype=np.int64), want


@settings(max_examples=300, deadline=None)
@given(_combinations())
def test_exact_check_equals_the_python_int_product(case):
    y, d, m, want = case
    assert linalg._combines_to(y, d, m, want) == _exact_check(y, d, m.tolist(), want)


def _record_products(monkeypatch):
    """Per `_combines_to` call, m's dtype and the (left, right) operands of each np.matmul in it."""
    calls = []
    combines_to, matmul = linalg._combines_to, np.matmul

    def checked(y, d, m, want):
        calls.append((m.dtype, []))
        try:
            return combines_to(y, d, m, want)
        finally:
            calls.append(None)

    def product(a, b):
        if calls and calls[-1] is not None:
            calls[-1][1].append((a.copy(), b.dtype))
        return matmul(a, b)

    monkeypatch.setattr(linalg, "_combines_to", checked)
    monkeypatch.setattr(np, "matmul", product)
    return calls


def test_exact_check_limbs_are_the_widest_int64_allows(monkeypatch):
    # limbs of L bits, L the largest with (2^L - 1) * S < 2^63 for S the
    # largest absolute column sum: with every limb of y all ones, each
    # limb's product sum is (2^L - 1) * S, and L + 1 bits would pass 2^63
    calls = _record_products(monkeypatch)
    for bits in [1, 2, 30, 31, 32, 53, 54, 62]:
        s = ((1 << 63) - 1) // ((1 << bits) - 1)
        for m in ([[s]], [[s - 1, 1], [1, -1]], [[-(s // 2)], [s - s // 2], [0]]):
            m = np.array(m, dtype=np.int64)
            for limbs in [2, 3, 13]:
                y = [(1 << (limbs * bits)) - 1, -((1 << (limbs * bits)) - 1), 1][: len(m)]
                want = [sum(a * b for a, b in zip(y, col)) for col in m.T.tolist()]
                calls.clear()
                assert linalg._combines_to(y, 1, m, want)
                assert not linalg._combines_to(y, 1, m, [want[0] + 1, *want[1:]])
                ((_, [(left, right)]), _, (_, [(other, _)]), _) = calls
                assert right == np.int64 and left.dtype == np.int64 == other.dtype
                assert left.shape == (-(-(limbs * bits) // bits), len(m))
                assert int(np.abs(left).max()) == (1 << bits) - 1
                assert ((1 << bits) - 1) * s < 1 << 63 <= ((1 << (bits + 1)) - 1) * s


def test_exact_checks_on_int64_matrices_multiply_int64(monkeypatch):
    # every check multiplies the 0/1 rows in int64, in one product of one
    # limb or many, tall targets included
    calls = _record_products(monkeypatch)
    rng = random.Random(11)
    full = np.array([[rng.randrange(2) for _ in range(24)] for _ in range(30)])
    target = [rng.randrange(-(10**9), 10**9) for _ in range(24)]
    assert ModularEchelon(full).solve(target) == reference.SpanSolver(full.tolist()).solve(target)
    deficient = full[:18]
    assert ModularEchelon(deficient).null_vector() is not None
    tall = [t << 40 for t in target]
    assert ModularEchelon(full).solve(tall) == reference.SpanSolver(full.tolist()).solve(tall)
    checks = [c for c in calls if c is not None]
    assert checks and all(len(products) == 1 for _, products in checks)
    for dtype, [(left, right)] in checks:
        assert dtype == right == left.dtype == np.int64
    assert any(len(left) > 1 for _, [(left, _)] in checks)


_small_ints = st.integers(-3, 3)


@st.composite
def _integer_matrices(draw):
    """Small 0/1 matrices, often with repeated or summed rows and zero or repeated columns."""
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(1, 6))
    bits = st.lists(st.integers(0, 1), min_size=cols, max_size=cols)
    m = draw(st.lists(bits, min_size=rows, max_size=rows))
    if rows > 2 and draw(st.booleans()):
        i, j, l = draw(st.permutations(range(rows)))[:3]
        _plant_sum(m, i, j, l if draw(st.booleans()) else j)
    if cols > 1 and draw(st.booleans()):
        j = draw(st.integers(1, cols - 1))
        for row in m:
            row[j] = row[j - 1] * draw(st.integers(0, 1))
    target = draw(st.lists(_small_ints, min_size=cols, max_size=cols))
    return np.array(m, dtype=np.int64).reshape(rows, cols), target


@pytest.mark.parametrize("prime", [None, 2, 3])
@settings(max_examples=150, deadline=None)
@given(_integer_matrices())
def test_modular_certificates_agree_with_bareiss(prime, case):
    # with p = 2 or 3 the rank often drops mod p and lifts often fail the check
    rows, target = case
    with pytest.MonkeyPatch.context() as mp:
        if prime is not None:
            mp.setattr(linalg, "_P", prime)
        echelon = ModularEchelon(rows)
        y = _certificate(echelon.null_vector)
        separating = _certificate(ModularEchelon(rows, target=target).null_vector)
    rank = reference.rank_rational(rows.tolist())
    cols = rows.shape[1]
    assert echelon.rank <= rank
    if echelon.rank == cols:
        assert rank == cols
    # None is proved: no free column mod p, or none the target separates
    assert (y is None) == (echelon.rank == cols)
    if y not in (None, _Undecided):
        assert any(y) and not (rows @ np.array(y)).any()
        assert rank < cols
    in_span = reference.rank_rational(rows.tolist() + [target]) == rank
    if separating not in (None, _Undecided):
        assert not (rows @ np.array(separating)).any()
        assert sum(t * x for t, x in zip(target, separating)) != 0
        assert not in_span
    # every minor of these small systems is a unit mod the real prime
    if prime is None:
        assert y is not _Undecided and separating is not _Undecided
        assert (separating is None) == in_span


@pytest.mark.parametrize("prime", [None, 2, 3])
@settings(max_examples=150, deadline=None)
@given(_integer_matrices())
def test_pivot_rows_are_the_earliest_independent_rows(prime, case):
    # 0/1 entries on at most 6 x 6 keep every minor below the real prime,
    # so with it the pivot rows mod p are the pivot rows over Q; with
    # p = 2 or 3 they are the reference's
    rows, _ = case
    if not len(rows):
        return
    p = linalg._P if prime is None else prime
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_P", p)
        echelon = ModularEchelon(rows)
    factor, order, pivots = _echelon_modp_reference(rows.tolist(), p)
    assert echelon.pivots == pivots
    assert echelon.pivot_rows == sorted(order[: len(pivots)])
    assert echelon._lu.tolist() == factor[: len(pivots)]
    lu = rows % p
    got_order, _, _ = linalg._echelon_modp(lu, p)
    assert got_order.tolist() == order and lu.tolist() == factor
    if prime is None:
        assert echelon.pivot_rows == reference.SpanSolver(rows.tolist()).pivot_columns


@pytest.mark.parametrize("prime", [None, 2, 3])
@settings(max_examples=150, deadline=None)
@given(_integer_matrices())
def test_prefix_factor_counts_the_leading_independent_columns(prime, case):
    # with p = 2 or 3 the factor often stops early mod p, the kernel vector
    # fails its exact check and a new prime factors again, with the stop
    rows, target = case
    cols = rows.shape[1]
    leading = next(
        s for s in range(cols + 1)
        if s == cols or reference.rank_rational(rows[:, : s + 1].tolist()) <= s
    )
    with pytest.MonkeyPatch.context() as mp:
        if prime is not None:
            mp.setattr(linalg, "_P", prime)
        echelon = ModularEchelon(rows, prefix=True)
        assert echelon.spans() == (leading == cols)
    assert echelon.rank == leading
    # the factor stopped there, so no question needing every column is answered
    for ask in [
        lambda: echelon.solve(target), lambda: echelon.contains(target),
        lambda: echelon.fit([0] * len(rows)),
    ]:
        with pytest.raises(ValueError, match="prefix"):
            ask()


@pytest.mark.parametrize("modulus", [2**8, 3**5, linalg._P**2])
def test_rational_lift_any_modulus(modulus):
    # symmetric bounds sqrt(m/2): at most one fraction fits, and it is found
    bound = isqrt(modulus // 2)
    assert 2 * bound * bound < modulus
    if modulus < 1000:
        fits = {}
        for s in range(1, bound + 1):
            for r in range(-bound, bound + 1):
                if gcd(r, s) == 1 and gcd(s, modulus) == 1:
                    fits.setdefault(r * pow(s, -1, modulus) % modulus, Fraction(r, s))
        for u in range(modulus):
            assert linalg._rational_lift(u, modulus) == fits.get(u)
    else:
        for r, s in [(0, 1), (-1, 1), (12345678, 98765432), (-(bound - 1), bound - 2)]:
            u = r * pow(s, -1, modulus) % modulus
            assert linalg._rational_lift(u, modulus) == Fraction(r, s)


def test_rational_lift_asymmetric_bounds():
    # 2 * num_bound * den_bound < p^3: a large numerator over a small denominator
    m = linalg._P**3
    num_bound, den_bound = m // 50, 20
    for r, s in [(m // 60, 7), (-(m // 51), 19), (5, 1)]:
        u = r * pow(s, -1, m) % m
        assert linalg._rational_lift(u, m, num_bound, den_bound) == Fraction(r, s)
        # the symmetric bounds cannot hold a numerator that large
        assert (linalg._rational_lift(u, m) == Fraction(r, s)) == (abs(r) <= isqrt(m // 2))


def test_lift_fits_int64_at_the_boundary():
    # the residual res - b @ x, within r * height * p, is the largest int64
    # intermediate: the solve mod p starts from res reduced mod p
    p = linalg._P
    for height in (1, 4, 2**31):
        r = (2**63 - 1) // (height * p)
        assert linalg._lift_fits_int64(r, p, height)
        assert not linalg._lift_fits_int64(r + 1, p, height)
    # one equation: res - b @ x reaches height * p, above (p - 1) * height
    h = (2**63 - 1) // p
    assert linalg._lift_fits_int64(1, p, h)
    assert not linalg._lift_fits_int64(1, p, h + 1)


def _factored_solve(b, p):
    """The lifting step's solve mod p for the square b, as `solve` takes it, or None.

    b^T is factored as L U with its rows in pivot order, so b with its
    columns in that order is U^T L^T: forward then backward substitution,
    and the solution goes back to b's column order. None means b is
    singular mod p.
    """
    lu = np.array(b, dtype=np.int64).T % p
    order, pivots, _ = linalg._echelon_modp(lu, p)
    if len(pivots) < len(lu):
        return None
    t = np.ascontiguousarray(lu.T)
    diag_inv = linalg._batch_inverse(np.diagonal(t), p)

    def solve(res):
        x = np.empty_like(res)
        z = linalg._triangular_solver(t, p, True)(res % p)
        x[order] = linalg._triangular_solver(t, p, False, diag_inv)(z)
        return x

    return solve


@pytest.mark.parametrize("p", [2, 3, linalg._P])
def test_inverse_modp(p):
    # the factored solve with the identity on the right is b's inverse mod p
    rng = random.Random(p)
    for size in range(1, 9):
        b = [[rng.randrange(-3, 4) for _ in range(size)] for _ in range(size)]
        solve = _factored_solve(b, p)
        if len(_echelon_modp_reference(b, p)[2]) < size:
            assert solve is None
            continue
        inverse = solve(np.eye(size, dtype=np.int64)).tolist()
        product = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*inverse)] for row in b]
        assert product == np.eye(size, dtype=int).tolist()
        assert all(0 <= x < p for row in inverse for x in row)
    assert _factored_solve([[1, 2], [2, 4]], p) is None


def test_padic_lift_solves_mod_every_power():
    p = 7
    b = np.array([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    rhs = np.array([[1, 0], [0, 1], [1, 1]])
    solve = _factored_solve(b, p)
    for s, (modulus, solutions) in enumerate(islice(linalg._padic_lift(b, solve, rhs, p), 6), 1):
        assert modulus == p**s
        for col, x in zip(rhs.T.tolist(), solutions):
            assert all(0 <= v < modulus for v in x)
            for row, c in zip(b.tolist(), col):
                assert (sum(a * v for a, v in zip(row, x)) - c) % modulus == 0


def test_combination_examples():
    # the canonical combination `solve` returns
    rows = np.array([[1, 0, 1], [0, 1, 0], [1, 1, 1], [0, 0, 1]])
    echelon = ModularEchelon(rows)
    # the third row is the sum of the first two, so it is no pivot row
    assert echelon.solve([3, 1, 3]) == [Fraction(3), Fraction(1), Fraction(0), Fraction(0)]
    assert echelon.solve([1, 1, 2]) == [1, 1, 0, 1]
    # a rank-2 system answered on two of its three equations, checked on all
    plane = ModularEchelon(rows[:3])
    assert plane.rank == 2
    assert plane.solve([3, 1, 3]) == [3, 1, 0]
    assert plane.solve([3, 1, 4]) is None
    with pytest.raises(ValueError, match="target length"):
        echelon.solve([1, 2])
    # a target near 2^31: its squares sum past int64 in the Hadamard bound
    eye = ModularEchelon(np.eye(2, dtype=np.int64))
    assert eye.solve([2**31, 2**31]) == [2**31, 2**31]
    # no rows: the zero target is the empty combination, any other is outside
    empty = ModularEchelon(np.zeros((0, 2), dtype=np.int64))
    assert empty.solve([0, 0]) == []
    assert empty.solve([0, 1]) is None
    # a target whose lifting int64 cannot hold is lifted in Python ints
    assert ModularEchelon(np.array([[1]])).solve([1 << 40]) == [1 << 40]
    det2 = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    half = Fraction((1 << 80) - 1, 2)
    assert ModularEchelon(det2).solve([1 << 80, 0, 1]) == [half, -half, half + 1]


def test_combination_refuses_pivot_rows_that_differ_over_q(monkeypatch):
    # mod 2 the third row is the sum of the first two, so the pivot rows
    # mod 2 are the first, the second and the fourth; over Q they are the
    # first three, of determinant 2, and the target (1, 0, 0) is half their
    # alternating sum: the combination through the mod-2 pivot rows is
    # refused, and one re-factor answers
    rows = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1], [0, 0, 1]])
    half = Fraction(1, 2)
    assert reference.solve_in_span(rows.tolist(), [1, 0, 0]) == [half, -half, half, 0]
    monkeypatch.setattr(linalg, "_P", 2)
    echelon = ModularEchelon(rows)
    assert echelon.pivot_rows == [0, 1, 3]
    factored = _record_factors(monkeypatch)
    assert echelon.solve([1, 0, 0]) == [half, -half, half, 0]
    assert factored == [linalg._P2] and echelon.pivot_rows == [0, 1, 2]


def test_a_bad_prime_is_replaced_by_one_re_factor(monkeypatch):
    # the first three rows have determinant 2, so with _P = 2 the pivot
    # rows are 0, 1 and 3, while over Q they are 0, 1 and 2; the first
    # factor's solve fails its check on row 2 and the next prime answers,
    # for that question and every later one
    monkeypatch.setattr(linalg, "_P", 2)
    rows = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 0, 0]])
    solver = reference.SpanSolver(rows.tolist())
    echelon = ModularEchelon(rows)
    assert echelon.pivot_rows == [0, 1, 3]
    factored = _record_factors(monkeypatch)
    half = Fraction(1, 2)
    assert echelon.solve([1, 0, 0]) == solver.solve([1, 0, 0]) == [half, -half, half, 0]
    assert factored == [linalg._P2] and echelon.pivot_rows == [0, 1, 2]
    for target in ([1, 0, 0], [0, 1, 0], [2, -3, 7]):
        assert echelon.contains(target) == solver.contains(target)
        assert echelon.solve(target) == solver.solve(target)
    assert factored == [linalg._P2]


def test_retry_primes_descend_from_p2():
    # Miller-Rabin with bases 2, 3, 5 and 7 against trial division
    def is_prime(q):
        return q > 1 and all(q % d for d in range(2, isqrt(q) + 1))

    below = [q for q in range(linalg._P2, linalg._P2 - 2000, -1) if is_prime(q)]
    assert below[0] == linalg._P2 and len(below) > 50
    assert list(islice(linalg._primes(), len(below))) == below
    assert all(linalg._lazy_steps(q) >= 25 for q in below)


def test_retry_stops_at_the_bad_prime_bound(monkeypatch):
    # with every exact check failing no prime is good; the rows' Hadamard
    # bound allows no bad retry prime here, so the first retry is the last
    monkeypatch.setattr(linalg, "_combines_to", lambda *args: False)
    factored = _record_factors(monkeypatch)
    echelon = ModularEchelon(np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
    with pytest.raises(AssertionError, match="bad primes"):
        echelon.solve([1, 1, 1])
    assert factored == [linalg._P, linalg._P2]


@pytest.mark.parametrize("prime", [None, 2, 3])
@settings(max_examples=150, deadline=None)
@given(_integer_matrices())
def test_combination_agrees_with_span_solver(prime, case):
    # `solve`'s combination, rank-deficient systems included: 0/1 entries
    # on at most 6 x 6 keep every minor below the real prime, so
    # with it the first factor answers; with p = 2 or 3 some factors get
    # the pivots wrong over Q and a new prime answers, and the None, a
    # proof, equals the reference's for every prime
    rows, target = case
    if not len(rows):
        return
    expected = reference.solve_in_span(rows.tolist(), target)
    with pytest.MonkeyPatch.context() as mp:
        if prime is not None:
            mp.setattr(linalg, "_P", prime)
        factored = _record_factors(mp)
        echelon = ModularEchelon(rows)
        assert echelon.solve(target) == expected
    if prime is None:
        assert factored == [linalg._P]
    assert (echelon.rows == rows).all()


def test_int64_refusal_is_never_read_as_no(monkeypatch):
    # targets near 2^62 on rank 8 fail `_lift_fits_int64`, so every lifted
    # solve keeps its residuals in Python ints and equals the reference;
    # the dependent row 3 lies before the last pivot row
    rng = random.Random(0)
    rows = [[rng.randrange(2) for _ in range(10)] for _ in range(9)]
    _plant_sum(rows, 3, 0, 2)
    rows = np.array(rows)
    assert reference.rank_rational(rows.tolist()) == 8
    tall = 1 << 62
    assert not linalg._lift_fits_int64(8, linalg._P, tall)
    echelon = ModularEchelon(rows)
    assert echelon.rank == 8 and echelon.pivot_rows == [0, 1, 2, 4, 5, 6, 7, 8]
    big = rows.astype(object)
    inside = [(tall * big[0] + big[5]).tolist(), (big[3] - tall * big[8]).tolist()]
    outside = [[tall] + [0] * 9, (tall * big[1] + 1).tolist()]
    solver = reference.SpanSolver(rows.tolist())
    expected = [(solver.solve(t), solver.contains(t)) for t in inside + outside]
    assert None not in [solve for solve, _ in expected[: len(inside)]]
    assert [contains for _, contains in expected[len(inside) :]] == [False, False]
    factored = _record_factors(monkeypatch)
    y = echelon.null_vector()
    assert any(y) and not (rows @ np.array(y)).any()
    assert echelon.spans() is False
    dtypes = []
    padic_lift = linalg._padic_lift

    def recorded(b, solve, rhs, p):
        dtypes.append(rhs.dtype)
        return padic_lift(b, solve, rhs, p)

    monkeypatch.setattr(linalg, "_padic_lift", recorded)
    assert [(echelon.solve(t), echelon.contains(t)) for t in inside + outside] == expected
    # no re-factor: every lift of a tall target kept its residuals in Python ints
    assert factored == []
    assert dtypes and set(dtypes) == {np.dtype(object)}


_wide_ints = st.integers(-(1 << 20), 1 << 20)


@st.composite
def _wide_matrices(draw):
    """0/1 matrices, some rows repeats or sums of others, and a target with entries past 2^20.

    The target is a combination of the rows with weights up to 2^20, or a
    free vector of such entries.
    """
    cols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=cols, max_size=cols),
                         min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 6 - len(rows)))):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        rows.append(None)
        _plant_sum(rows, -1, i, j)
        rows.insert(draw(st.integers(0, len(rows) - 1)), rows.pop())
    if draw(st.booleans()):
        weights = draw(st.lists(_wide_ints, min_size=len(rows), max_size=len(rows)))
        target = [sum(w * row[c] for w, row in zip(weights, rows)) for c in range(cols)]
    else:
        target = draw(st.lists(_wide_ints, min_size=cols, max_size=cols))
    return np.array(rows, dtype=np.int64), target


@pytest.mark.parametrize("prime", [None, 2, 3])
@settings(max_examples=80, deadline=None)
@given(_wide_matrices())
def test_large_entry_answers_equal_bareiss(prime, case):
    rows, target = case
    solver = reference.SpanSolver(rows.tolist())
    expected = (solver.rank == rows.shape[1], solver.contains(target), solver.solve(target))
    # a wrong prime is replaced, so the lifted certificates answer every case
    with pytest.MonkeyPatch.context() as mp:
        if prime is not None:
            mp.setattr(linalg, "_P", prime)
        echelon = ModularEchelon(rows)
        assert (echelon.spans(), echelon.contains(target), echelon.solve(target)) == expected


# target entries at and past the int64 limits of a lift
_BOUNDARY = [(1 << 31) - 1, 1 << 31, (1 << 63) + 5, 1 << 80]
_boundary_entries = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.sampled_from([v for b in _BOUNDARY for v in (b, -b)]),
    st.builds(Fraction, st.integers(-(1 << 70), 1 << 70), st.integers(1, 1 << 70)),
)


@st.composite
def _boundary_systems(draw):
    """0/1 columns, often zero or rank-deficient, and a target around the int64 limits.

    The target is a combination of the columns or a free vector.
    """
    length, width = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    vectors = st.lists(_boundary_entries, min_size=length, max_size=length)
    bits = st.lists(st.integers(0, 1), min_size=length, max_size=length)
    cols = draw(st.lists(bits, min_size=width, max_size=width))
    if draw(st.integers(0, 5)) == 0:
        cols = [[0] * length for _ in cols]
    for _ in range(draw(st.integers(0, 2))):
        i, j, l = (draw(st.integers(0, width - 1)) for _ in range(3))
        if i not in (j, l):
            _plant_sum(cols, i, j, l)
    if draw(st.booleans()):
        weights = draw(st.lists(_boundary_entries, min_size=width, max_size=width))
        target = [sum(w * c[i] for w, c in zip(weights, cols)) for i in range(length)]
    else:
        target = draw(vectors)
    return cols, target


@pytest.mark.parametrize("prime", [None, 2, 3])
@settings(max_examples=100, deadline=None)
@given(_boundary_systems())
def test_rational_fronts_equal_the_reference_at_the_int64_boundary(prime, system):
    # scaled target entries land on both sides of 2^31 and 2^63; p = 2 or 3
    # often gets the pivots wrong, so the retry runs
    cols, target = system
    solver = reference.SpanSolver(cols)
    expected = (solver.solve(target), solver.contains(target), solver.rank, solver.pivot_columns)
    with pytest.MonkeyPatch.context() as mp:
        if prime is not None:
            mp.setattr(linalg, "_P", prime)
        got = (*_span_answers(cols, target), _certified_pivot_rows(ModularEchelon(cols)))
    assert got == expected


@pytest.mark.parametrize("prime", [None, 2, 3])
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_affinely_independent_equals_the_reference(prime, data):
    n = data.draw(st.integers(1, 6))
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=n + 3, unique=True))
    vertices = [Vertex(n, b) for b in masks]
    rows = [[1, *v.coords()] for v in vertices]
    with pytest.MonkeyPatch.context() as mp:
        if prime is not None:
            mp.setattr(linalg, "_P", prime)
        got = _affine_rank_q(vertices)
    assert got == reference.rank_rational(rows)


def _det(m):
    """Determinant by Fraction elimination, independent of the code under test."""
    m = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(len(m)):
        piv = next((r for r in range(c, len(m)) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return int(det)


def test_hadamard_bounds_hold_cramers_rule():
    rng = random.Random(11)
    for _ in range(200):
        size = rng.randrange(1, 6)
        b = [[rng.randrange(-3, 4) for _ in range(size)] for _ in range(size)]
        rhs = [[rng.randrange(-9, 10) for _ in range(2)] for _ in range(size)]
        if not _det(b):
            continue
        num_bound, den_bound = linalg._hadamard_bounds(np.array(b), np.array(rhs))
        assert abs(_det(b)) <= den_bound
        for col in zip(*rhs):
            for j in range(size):
                replaced = [row[:j] + [c] + row[j + 1 :] for row, c in zip(b, col)]
                assert abs(_det(replaced)) <= num_bound
    # one step already passes 2 * N * D, so the bounds alone decide the answer
    assert ModularEchelon(np.array([[1]])).solve([5]) == [5]


def _worst_case_lu(m, p, singular):
    """L U mod p for unit triangles with p - 1 off the diagonal (U[-1][-1] = 0 if singular).

    Eliminating it never swaps, and every step subtracts (p - 1)^2 from
    each entry of the trailing block, so the last entry takes the most
    unreduced steps that any m x m batch can.
    """
    lower = [[p - 1 if k < i else int(k == i) for k in range(m)] for i in range(m)]
    upper = [[p - 1 if k < j else int(k == j) for j in range(m)] for k in range(m)]
    if singular:
        upper[-1][-1] = 0
    return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*upper)] for row in lower]


@pytest.mark.parametrize("p", [linalg._P1, linalg._P2, 2**31 - 1, 37])
def test_batched_determinant_guard_is_the_lazy_bound(monkeypatch, p):
    # m - 1 = _lazy_steps(p, dtype) steps run in dtype and are exact; one
    # more is refused past int64, and moves an int16 batch up to int32
    dtype = np.int16 if p == 37 else np.int64
    inverted = []
    original = linalg._batch_inverse
    monkeypatch.setattr(
        linalg, "_batch_inverse", lambda x, q: inverted.append(x.dtype) or original(x, q)
    )

    def check(m):
        rng = random.Random(p)
        mats = [[[rng.randrange(p) for _ in range(m)] for _ in range(m)] for _ in range(8)]
        mats.append([row[:] for row in mats[0]])
        mats[-1][-1] = [(x + y) % p for x, y in zip(mats[-1][0], mats[-1][1])]
        mats += [_worst_case_lu(m, p, False), _worst_case_lu(m, p, True)]
        inverted.clear()
        got = linalg._nonzero_det_modp(np.array(mats, dtype=np.int64), p)
        assert got.tolist() == [len(_echelon_modp_reference(a, p)[2]) == m for a in mats]
        assert not got[-3] and got[-2] and not got[-1]
        # the pivots' inverses: a table in int16, `_batch_inverse` in the wider types
        return set(inverted)

    m = linalg._lazy_steps(p, dtype) + 1
    assert check(m) == (set() if dtype is np.int16 else {np.dtype(dtype)})
    if dtype is np.int16:
        assert (p, m) == (37, 24)
        assert check(m + 1) == {np.dtype(np.int32)}
        with pytest.raises(ValueError, match="overflow"):
            linalg._nonzero_det_modp(np.ones((3, 27, 27), dtype=np.int64), linalg._P1)
    else:
        with pytest.raises(ValueError, match="overflow"):
            linalg._nonzero_det_modp(np.ones((3, m + 1, m + 1), dtype=np.int64), p)


@pytest.mark.parametrize(
    "dtype, p",
    [(d, p) for d in (np.int16, np.int32, np.int64)
     for p in (2, 3, 37, 41, 127, 1093, 11863, linalg._P1) if linalg._lazy_steps(p, d) >= 1],
)
def test_reduce_equals_remainder(dtype, p):
    info = np.iinfo(dtype)
    # the dtype's minimum is an input, and there (x // p) * p wraps for
    # every odd p, yet the remainder must come out exact
    assert (info.min // p * p < info.min) == (p != 2)
    if dtype is np.int16:
        x = np.arange(info.min, info.max + 1, dtype=dtype)
    else:
        # windows at both ends of the dtype, at the lazy bound and at 0
        width = min(2 * p + 1, 1 << 16)
        low = -linalg._lazy_steps(p, dtype) * p * p
        starts = [info.min, max(low - p, info.min), -p, info.max - width + 1]
        x = np.concatenate([np.arange(width, dtype=dtype) + a for a in starts])
    got = x.copy()
    linalg._reduce(got, p)
    assert got.dtype == dtype
    assert (got == x % p).all()


@pytest.mark.parametrize("p", [2, 3, 17, 37, 41, 127, 1093, linalg._P1])
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_batched_determinant_equals_reference_rank(p, data):
    # residues in [0, p) near 0 and p - 1, against the rank of the
    # reference factorization
    m = data.draw(st.integers(1, 9), label="m")
    residue = st.one_of(st.integers(0, 2), st.integers(p - 3, p - 1), st.integers(0, p - 1))
    residue = residue.map(lambda x: x % p)
    mats = data.draw(st.lists(
        st.lists(st.lists(residue, min_size=m, max_size=m), min_size=m, max_size=m),
        min_size=1, max_size=6,
    ), label="mats")
    for a in mats:
        if m > 1 and data.draw(st.booleans()):
            # a row that combines two others mod p makes the matrix singular
            i = data.draw(st.integers(0, m - 1))
            others = st.sampled_from([r for r in range(m) if r != i])
            j, k, c, d = data.draw(st.tuples(others, others, residue, residue))
            a[i] = [(c * x + d * y) % p for x, y in zip(a[j], a[k])]
    got = linalg._nonzero_det_modp(np.array(mats, dtype=np.int64).reshape(-1, m, m), p)
    assert got.tolist() == [len(_echelon_modp_reference(a, p)[2]) == m for a in mats]


def test_batched_determinant_reduces_by_floor_division():
    # numpy's remainder by a scalar is not vectorized, so the kernel
    # reduces through `_reduce`, and its body takes no % by p
    engine = ast.parse(Path(linalg.__file__).read_text())
    defs = {n.name: n for n in engine.body if isinstance(n, ast.FunctionDef)}

    def remainders_by_p(fn):
        return [
            node for node in ast.walk(fn)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod)
            and getattr(node.right if isinstance(node, ast.BinOp) else node.value, "id", None) == "p"
        ]

    kernel = defs["_nonzero_det_modp"]
    assert remainders_by_p(kernel) == []
    assert "_reduce" in {getattr(n.func, "id", None) for n in ast.walk(kernel) if isinstance(n, ast.Call)}
    # the scan does see a remainder by p where one is taken
    assert remainders_by_p(defs["_batch_inverse"])


def test_is_prime_equals_trial_division():
    def is_prime(q):
        return q > 1 and all(q % d for d in range(2, isqrt(q) + 1))

    assert [q for q in range(-2, 5000) if linalg._is_prime(q)] == [
        q for q in range(-2, 5000) if is_prime(q)
    ]
    # the least strong pseudoprimes to bases 2; 2, 3; and 2, 3, 5 are
    # refused; the limit itself is one to all four bases, so it raises
    assert not any(linalg._is_prime(q) for q in (2047, 1373653, 25326001))
    assert linalg._is_prime(linalg._MR_LIMIT - 2)
    with pytest.raises(ValueError):
        linalg._is_prime(linalg._MR_LIMIT)


@pytest.mark.parametrize("p", [linalg._P1, linalg._P2, 2, 3])
@pytest.mark.parametrize("size", [1, 2, 3, 5, 4095, 4096, 4097])
def test_batch_inverse_equals_fermat(p, size):
    rng = np.random.default_rng(size)
    x = rng.integers(1, p, size=size, dtype=np.int64)
    x[0] = p - 1
    x[-1] = 1
    if size > 2:
        x[1] = 1
        x[-2] = p - 1
    before = x.copy()
    got = linalg._batch_inverse(x, p)
    assert got.dtype == np.int64 and got.shape == (size,)
    assert got.tolist() == [pow(int(v), p - 2, p) for v in x]
    assert (x == before).all()


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("p", [11863, 480096521, linalg._P])
def test_batch_inverse_equals_pow_for_int32_and_int64_inputs(dtype, p):
    # int32 residues of p = 11863 multiply in int32; those of the larger
    # primes, whose products pass int32, in int64, even when no level is
    # padded, and the padding keeps the dtype
    rng = np.random.default_rng(p)
    for size in (1000, 1001):
        x = np.concatenate([[1, 2, p - 2, p - 1], rng.integers(1, p, size=size)]).astype(dtype)
        got = linalg._batch_inverse(x, p)
        assert got.dtype == (dtype if p * p < 1 << 31 else np.int64)
        assert got.tolist() == [pow(v, -1, p) for v in x.tolist()]


def test_batch_inverse_pads_odd_levels():
    # 2^j + 1 entries are odd at every level of the product tree above 2,
    # and the last entry is paired with the padding at each of them; every
    # size up to 66 covers each mix of odd and even levels up to six levels
    p = linalg._P1
    rng = np.random.default_rng(7)
    for size in [*range(1, 67), (1 << 12) + 1]:
        x = rng.integers(1, p, size=size, dtype=np.int64)
        x[-1] = p - 1
        got = linalg._batch_inverse(x, p)
        assert (got * x % p == 1).all(), size
    assert linalg._batch_inverse(np.zeros(0, dtype=np.int64), p).shape == (0,)


def _bit_matrices(w):
    """The (t, n, n) 0/1 matrices of the (n, t) row masks w, bit c of row i in column c."""
    n = w.shape[0]
    return ((w.T[:, :, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)).astype(np.uint8)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 24])
def test_nonsingular_gf2_equals_elimination_mod_2(n):
    rng = random.Random(n)
    mats = [[rng.getrandbits(n) for _ in range(n)] for _ in range(60)]
    # a repeated row and a row that is the XOR of two others make singular cases
    mats += [m[:-1] + [m[0]] for m in mats[:10]]
    if n > 2:
        mats += [m[:-1] + [m[0] ^ m[1]] for m in mats[10:20]]
    w = np.array(mats, dtype=np.uint64).T
    bits = _bit_matrices(w)
    got = linalg._nonsingular_gf2(bits)
    want = [len(_echelon_modp_reference([[(r >> c) & 1 for c in range(n)] for r in m], 2)[2]) == n
            for m in mats]
    assert got.tolist() == want
    assert (bits == _bit_matrices(np.array(mats, dtype=np.uint64).T)).all()
    assert any(want) and not all(want)
    assert linalg._nonsingular_gf2(np.zeros((0, n, n), dtype=np.uint8)).shape == (0,)


# a batch fills whole words, one lane short or over, or spans a Monte-Carlo batch
@pytest.mark.parametrize("n", range(1, 25))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_bit_sliced_gf2_equals_row_packed_reference(n, data):
    t = data.draw(st.sampled_from([0, 1, 63, 64, 65, 4161]), label="t")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    w = rng.integers(0, 1 << n, size=(n, t), dtype=np.uint64)
    # singular kinds: a zero row, a repeated row, a row the XOR of two others,
    # and rows confined to fewer columns; each on a fifth of the batch
    kinds = rng.integers(0, 5, size=t)
    w[-1, kinds == 1] = 0
    w[-1, kinds == 2] = w[0, kinds == 2]
    if n > 2:
        w[-1, kinds == 3] = w[0, kinds == 3] ^ w[1, kinds == 3]
    w[:, kinds == 4] &= np.uint64((1 << data.draw(st.integers(0, n), label="width")) - 1)
    got = linalg._nonsingular_gf2(_bit_matrices(w))
    assert got.dtype == bool and got.shape == (t,)
    assert got.tolist() == reference.nonsingular_gf2(w, n).tolist()


def _package_imports(path):
    """The boxapprox modules a source file imports, relatively or by name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name.split(".") for a in node.names]
            found |= {parts[1] for parts in names if parts[0] == "boxapprox" and len(parts) > 1}
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "boxapprox":
                continue
            inner = parts[1:] if node.level == 0 else [p for p in parts if p]
            found |= {inner[0]} if inner else {a.name for a in node.names}
    return found


def test_core_and_linalg_import_no_higher_layer():
    # core and linalg import no package module; approx, probability,
    # designs, formats and cli build on them
    package = Path(linalg.__file__).parent
    imports = {path.stem: _package_imports(path) for path in package.glob("*.py")}
    assert {"core", "linalg", "approx", "probability"} <= set(imports)
    assert imports["core"] == set()
    assert imports["linalg"] == set()
    # the relative imports are seen, so the empty set above is not vacuous
    assert imports["probability"] >= {"linalg"}


def test_public_names_resolve_and_the_general_input_fronts_are_gone():
    # every exported name is listed once and resolves; the general-input
    # fronts stay out of the package, and their oracles live in the tests
    for module in (boxapprox, probability):
        assert len(set(module.__all__)) == len(module.__all__)
        for name in module.__all__:
            assert hasattr(module, name), name
    retired = ["SpanSolver", "solve_in_span", "affinely_independent", "rank_gf2",
               "exhaustive_dependent_subsets", "rank_rational"]
    for module in (boxapprox, linalg, probability):
        for name in retired:
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(ModularEchelon, "rational_rank")


def test_one_elimination_engine_in_src():
    # the fraction-free elimination lives only in the tests' reference: no
    # package module defines or names it, its replay or its back
    # substitution, and the cube-wide answers reach the modular engine
    package = Path(linalg.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    assert {"linalg", "approx"} <= set(trees)

    def names(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
            n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
        }

    def top(module, name):
        (node,) = [n for n in trees[module].body if getattr(n, "name", None) == name]
        return node

    for tree in trees.values():
        defined = {n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        assert not (defined | names(tree)) & {"_bareiss", "bareiss", "_reduce_target", "_back_substitute"}
    assert "ModularEchelon" in names(top("approx", "_cube_fits"))
    # the engine factors mod p, lifts and retries, and leans on no front
    echelon = names(top("linalg", "ModularEchelon"))
    assert {"_certified", "_echelon_modp", "_lifted"} <= echelon
    assert not echelon & {"rank_rational", "prediction_coefficients"}


def test_one_route_per_engine_question():
    # the cube-wide answers read the cube from `fit`, never from 2^n target
    # rows; approx asks the engine through its answers alone; no module
    # names the retired `combination`; and the ball's masks have one
    # enumerator, `core._ascending_supports`
    package = Path(linalg.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}

    def names(node):
        nodes = list(ast.walk(node))
        return (
            {n.id for n in nodes if isinstance(n, ast.Name)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            | {n.name for n in nodes if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
            | {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names}
        )

    functions = [n for n in ast.walk(trees["approx"]) if isinstance(n, ast.FunctionDef)]
    assert {"prediction_coefficients", "approximate_all", "_cube_fits"} <= {f.name for f in functions}
    for func in functions:
        used = names(func)
        if "_evaluation_rows" in used:
            assert not used & {"all_vertices", "canonical_masks"}, func.name
        assert not used & {"_certified", "_dense", "_through_pivot_rows"}, func.name
    (engine,) = [n for n in trees["linalg"].body if getattr(n, "name", None) == "ModularEchelon"]
    methods = {n.name for n in engine.body if isinstance(n, ast.FunctionDef)}
    members = {name for name in methods if not name.startswith("__")} | {
        t.attr
        for n in ast.walk(engine) if isinstance(n, ast.Assign)
        for target in n.targets
        for t in (target.elts if isinstance(target, ast.Tuple) else [target])
        if isinstance(t, ast.Attribute) and getattr(t.value, "id", None) == "self"
    }
    assert {"rows", "pivots", "_lu", "_order", "_free", "rank", "fit"} <= members
    asked = {n.attr for n in ast.walk(trees["approx"]) if isinstance(n, ast.Attribute)}
    assert asked & members == {"fit", "contains", "spans", "rank", "_solution"}
    for module, tree in trees.items():
        assert "combination" not in names(tree), module
        if module != "core":
            assert "weight_masks" not in names(tree), module


def test_engine_keeps_exact_vectors_as_integers_over_one_denominator():
    # inside the engine a lifted vector stays numerators over one d: the
    # lift, its exact checks and the kernel vectors name no Fraction, and
    # a design's values are scaled once, by the one core helper, when a
    # Design is built from them or the reader builds one from a table
    package = Path(linalg.__file__).parent
    trees = [ast.parse(path.read_text()) for path in package.glob("*.py")]
    engine = ast.parse(Path(linalg.__file__).read_text())
    defs = {node.name: node for node in ast.walk(engine) if isinstance(node, ast.FunctionDef)}
    for name in ["_lift_vector", "_lifted", "_combines_to", "_kernels", "_kernel_vector", "fit"]:
        named = {n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name)}
        assert "Fraction" not in named, name
    scalers = {
        top.name
        for tree in trees
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_over_lcm"
    }
    assert scalers == {"Design", "parse_values_csv"}


def test_no_floating_type_on_a_determinant_decision_path():
    # narrow integer dtypes must not open the door to floating point: no
    # float type is named in linalg, nor in the probability functions
    # that build the matrices and decide independence from the residues
    floating = {"float", "float16", "float32", "float64", "floating", "double", "longdouble"}
    package = Path(linalg.__file__).parent
    linalg_tree = ast.parse((package / "linalg.py").read_text())
    probability = ast.parse((package / "probability.py").read_text())

    def named(node):
        nodes = list(ast.walk(node))
        return (
            {n.id for n in nodes if isinstance(n, ast.Name)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            | {n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        )

    assert not named(linalg_tree) & floating
    tops = {n.name: n for n in probability.body if isinstance(n, ast.FunctionDef)}
    for name in ["_translated_matrices", "_certified_flags", "_gf2_split", "_rational_flags"]:
        assert not named(tops[name]) & floating, name
    # the scan does see names: the dtypes in linalg, and the float type of
    # the Monte-Carlo estimate, which reports the count and decides nothing
    assert {"int16", "int32", "int64"} <= named(linalg_tree)
    assert "float" in named(probability)


def test_row_sweep_runs_only_in_the_block_inverse_builder():
    # every substitution is blocked: the row sweep inverts the diagonal
    # blocks in `_triangular_solver` and is called nowhere else
    tree = ast.parse(Path(linalg.__file__).read_text())
    callers = [
        top.name
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_sweep"
    ]
    assert callers == ["_triangular_solver"]


@pytest.mark.parametrize("p", [linalg._P, 2, 3])
@pytest.mark.parametrize("forward", [True, False])
def test_sweep_inverts_stacks_of_any_memory_layout(p, forward):
    # a Fortran-ordered stack and a strided view into a wider one give the
    # inverse of their C-ordered copy; x once kept t's layout, so the write
    # of its diagonal went to a copy and every inverse came out all zeros
    rng = np.random.default_rng(p)
    b, w = 4, 5
    part = np.tril(np.ones((w, w), dtype=bool), -1) if forward else np.triu(np.ones((w, w), dtype=bool), 1)
    unit = np.where(part, rng.integers(0, p, size=(b, w, w)), 0) + np.eye(w, dtype=np.int64)
    expected = linalg._sweep(unit, p, forward)
    assert ((unit @ expected) % p == np.eye(w, dtype=np.int64)).all()
    sliced = np.zeros((b, w + 3, w + 2), dtype=np.int64)[:, 1 : w + 1, 2:]
    sliced[:] = unit
    for stack in (np.asfortranarray(unit), sliced):
        assert not stack.flags.c_contiguous
        assert (linalg._sweep(stack, p, forward) == expected).all()
