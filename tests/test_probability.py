import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_rng import sample_masks, trial_seed

from boxapprox.linalg import rank_gf2, rank_rational
from boxapprox.probability import (
    _P1,
    _P2,
    MC_MAX_N,
    METHOD_MC,
    ProbabilityEstimate,
    _affine_matrices,
    _all_subsets,
    _mc_flags_numpy,
    _nonzero_det_modp,
    _rational_affine_indep_numpy,
    exhaustive_dependent_subsets,
    f2_implies_real_check,
    prob_f2_exact,
    prob_real_exhaustive,
    prob_real_montecarlo,
    qpochhammer_half,
)


def _affine_rows(bits, n):
    return [[1] + [(b >> (n - 1 - i)) & 1 for i in range(n)] for b in bits]


def _mc_flags_reference(n, trials, seed):
    """Per-trial flags by the pure-Python exact path: sample_masks plus rank_rational."""
    m = n + 1
    return [
        rank_rational(_affine_rows(sorted(sample_masks(n, m, trial_seed(seed, i))), n)) == m
        for i in range(trials)
    ]


def _nonzero_det_division_free(mats, p):
    """Oracle: elimination mod p without divisions, reducing the whole block every step.

    row_i <- piv * row_i - f_i * pivot_row keeps entries in [0, p); each
    product is below p^2 < 2^63 for p < 2^31.5, so int64 stays exact.
    """
    a = (mats % p).astype(np.int64)
    t, m, _ = a.shape
    singular = np.zeros(t, dtype=bool)
    idx = np.arange(t)
    for k in range(m):
        nz = a[:, k:, k] != 0
        singular |= ~nz.any(axis=1)
        prow = k + nz.argmax(axis=1)
        swap = a[idx, prow, :].copy()
        a[idx, prow, :] = a[idx, k, :]
        a[idx, k, :] = swap
        piv = a[:, k, k].copy()
        piv[piv == 0] = 1
        if k + 1 < m:
            f = a[:, k + 1 :, k]
            block = a[:, k + 1 :, k:]
            a[:, k + 1 :, k:] = (
                block * piv[:, None, None] - f[:, :, None] * a[:, None, k, k:]
            ) % p
    return ~singular


def _kernel_batches(m, p, rng):
    """Affine 0/1 batches (with repeated rows and subcube-confined vertices)
    and full-range batches mod p (with a dependent row), 48 matrices each."""
    n = m - 1
    free = rng.integers(0, 1 << n, size=(48, m), dtype=np.uint64)
    repeated = free.copy()
    repeated[:, -1] = repeated[:, 0]
    width = max(n - 2, 0)
    confined = free & np.uint64((1 << width) - 1)
    wide = rng.integers(0, p, size=(48, m, m), dtype=np.int64)
    dependent = wide.copy()
    if m > 1:
        coef = rng.integers(0, p, size=(48, 1), dtype=np.int64)
        # last row = first row + coef * second row (mod p)
        dependent[:, -1] = (wide[:, 0] + coef * wide[:, 1]) % p
    return [_affine_matrices(b, n) for b in (free, repeated, confined)] + [wide, dependent]


@pytest.mark.parametrize("p", [2, _P1, _P2])
def test_lazy_kernel_equals_division_free_oracle(p):
    rng = np.random.default_rng(p)
    for m in range(1, MC_MAX_N + 2):
        for mats in _kernel_batches(m, p, rng):
            got = _nonzero_det_modp(mats, p)
            assert got.dtype == bool and got.shape == (len(mats),)
            assert (got == _nonzero_det_division_free(mats, p)).all(), (m, p)
    # the singular kinds do occur, so both answers are compared
    assert not _nonzero_det_modp(_kernel_batches(25, p, rng)[1], p).any()


def test_lazy_reduction_bound_and_certification_constants():
    m = MC_MAX_N + 1
    for p in (_P1, _P2):
        assert (m - 1) * (p - 1) ** 2 + p < 2**63
    # Hadamard: |det| <= m^(m/2); compare squares to stay in integers
    assert (_P1 * _P2) ** 2 > 25**25
    assert _P1**2 > 14**14 and _P1**2 < 15**15
    # a pair that could overflow int64 is refused before any elimination:
    # 25 p^2 < 2^63 still admits m = 26, but not m = 27
    assert _nonzero_det_modp(np.eye(26, dtype=np.int64)[None], _P1).all()
    with pytest.raises(ValueError):
        _nonzero_det_modp(np.ones((3, 27, 27), dtype=np.int64), _P1)
    with pytest.raises(ValueError):
        _nonzero_det_modp(np.ones((3, 4, 4), dtype=np.int64), 2147483647)
    assert _nonzero_det_modp(np.eye(3, dtype=np.int64)[None], 2147483647).all()


def test_prob_f2_exact_small_values():
    assert prob_f2_exact(1) == 1
    assert prob_f2_exact(2) == 1
    assert prob_f2_exact(3) == Fraction(4, 5)
    assert prob_f2_exact(3) == Fraction(1344, 1680)
    with pytest.raises(ValueError):
        prob_f2_exact(0)
    assert prob_f2_exact(64) < prob_f2_exact(63)
    with pytest.raises(ValueError, match="dimension"):
        prob_f2_exact(65)


def test_prob_f2_monotone_decreasing():
    values = [prob_f2_exact(n) for n in range(2, 16)]
    for a, b in zip(values, values[1:]):
        assert a > b


def test_prob_f2_limit():
    assert abs(prob_f2_exact(25) - Fraction(288, 1000)) < Fraction(1, 1000)


def test_qpochhammer_values():
    assert qpochhammer_half(1).value == Fraction(1, 2)
    assert qpochhammer_half(2).value == Fraction(3, 8)
    q40 = qpochhammer_half(40).value
    assert abs(float(q40) - 0.2887880951) < 1e-9
    with pytest.raises(ValueError):
        qpochhammer_half(0)


def test_qpochhammer_monotone_and_bounded():
    prev = None
    for terms in range(1, 50):
        val = qpochhammer_half(terms).value
        if prev is not None:
            assert val < prev
        assert val > Fraction(288, 1000)
        prev = val


def test_prob_real_exhaustive_small():
    assert prob_real_exhaustive(1) == 1
    assert prob_real_exhaustive(2) == 1
    assert prob_real_exhaustive(3) == Fraction(29, 35)
    assert prob_real_exhaustive(3) == Fraction(58, 70)
    with pytest.raises(ValueError):
        prob_real_exhaustive(0)
    with pytest.raises(ValueError):
        prob_real_exhaustive(6)


def test_exhaustive_through_origin_equals_all_subsets():
    # oracle: the fraction over every (n+1)-subset, not only those through 0
    for n in range(1, 5):
        hits = total = 0
        for vbits in _all_subsets(n):
            hits += int(_rational_affine_indep_numpy(vbits, n).sum())
            total += len(vbits)
        assert prob_real_exhaustive(n) == Fraction(hits, total)
    assert prob_real_exhaustive(4) == Fraction(188, 273)
    assert prob_real_exhaustive(5) == Fraction(4966, 8091)


def test_n3_dependent_quadruples_structure():
    # 70 quadruples in total; exactly 12 are coplanar: 6 axis faces plus
    # 6 diagonal rectangles
    dependent = exhaustive_dependent_subsets(3)
    assert len(dependent) == 12
    axis_faces = 0
    for quad in dependent:
        coords = [v.coords() for v in quad]
        for axis in range(3):
            if len({c[axis] for c in coords}) == 1:
                axis_faces += 1
                break
    assert axis_faces == 6


def test_f2_bound_below_real():
    for n, real in [(1, prob_real_exhaustive(1)), (2, prob_real_exhaustive(2)),
                    (3, prob_real_exhaustive(3)), (4, prob_real_exhaustive(4))]:
        assert prob_f2_exact(n) <= real
    assert prob_f2_exact(3) < prob_real_exhaustive(3)


def test_f2_implies_real_exhaustive():
    assert f2_implies_real_check(1, "exhaustive") == 0
    assert f2_implies_real_check(2, "exhaustive") == 0
    assert f2_implies_real_check(3, "exhaustive") == 0
    with pytest.raises(ValueError):
        f2_implies_real_check(5, "exhaustive")
    with pytest.raises(ValueError):
        f2_implies_real_check(3, "bogus")
    with pytest.raises(ValueError):
        f2_implies_real_check(3, "sampled")


def test_f2_implies_real_sampled():
    assert f2_implies_real_check(8, "sampled", budget=2000, seed=5) == 0


def test_mc_engines_agree_per_trial():
    for n in [3, 4, 6]:
        np_flags = _mc_flags_numpy(n, 1500, 42)
        py_flags = _mc_flags_reference(n, 1500, 42)
        assert (np_flags == np.array(py_flags)).all()


def test_mc_two_prime_branch_agrees():
    # n=16 and n=24 exceed the single-prime certification bound
    for n in (16, MC_MAX_N):
        np_flags = _mc_flags_numpy(n, 300, 9)
        py_flags = _mc_flags_reference(n, 300, 9)
        assert (np_flags == np.array(py_flags)).all()


def test_mc_engines_agree_for_negative_seed():
    np_flags = _mc_flags_numpy(5, 400, -7)
    py_flags = _mc_flags_reference(5, 400, -7)
    assert (np_flags == np.array(py_flags)).all()


# n <= 13 is decided by one prime, n >= 14 by the two-prime retest
@pytest.mark.parametrize("lo, hi", [(1, 13), (14, 24)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batched_tests_equal_exact_rank(lo, hi, data):
    n = data.draw(st.integers(lo, hi), label="n")
    # vertices confined to a width-dimensional subcube (then flipped by base)
    # are dependent whenever width < n, so both answers occur at every n
    width = data.draw(st.integers(n.bit_length(), n), label="width")
    base = data.draw(st.integers(0, (1 << n) - 1), label="base")
    rnd = data.draw(st.randoms(use_true_random=False))
    rows = data.draw(st.integers(1, 4), label="rows")
    sets = [[base ^ b for b in rnd.sample(range(1 << width), n + 1)] for _ in range(rows)]
    vbits = np.array(sets, dtype=np.uint64)
    over_q = _rational_affine_indep_numpy(vbits, n)
    over_f2 = _nonzero_det_modp(_affine_matrices(vbits, n), 2)
    for bits, q_flag, f2_flag in zip(sets, over_q, over_f2):
        assert q_flag == (rank_rational(_affine_rows(bits, n)) == n + 1)
        assert f2_flag == (rank_gf2([(1 << n) | b for b in bits], n + 1) == n + 1)


def test_mc_estimate_fields_and_determinism():
    est = prob_real_montecarlo(3, 4000, 11)
    assert isinstance(est, ProbabilityEstimate)
    assert est.method == METHOD_MC
    assert est.n == 3 and est.trials == 4000 and est.seed == 11
    assert 0.0 <= est.value <= 1.0
    assert est.std_error == pytest.approx(
        math.sqrt(est.value * (1 - est.value) / est.trials)
    )
    again = prob_real_montecarlo(3, 4000, 11)
    assert again.value == est.value


def test_mc_degenerate_dimensions():
    # n=1: the only 2-subset {0,1} is always affinely independent
    est = prob_real_montecarlo(1, 200, 3)
    assert est.value == 1.0
    # n=2: every 3 distinct square vertices are affinely independent
    est = prob_real_montecarlo(2, 200, 3)
    assert est.value == 1.0


def test_mc_validation():
    with pytest.raises(ValueError):
        prob_real_montecarlo(0, 10, 1)
    with pytest.raises(ValueError):
        prob_real_montecarlo(25, 10, 1)
    with pytest.raises(ValueError):
        prob_real_montecarlo(3, 0, 1)


def test_mc_close_to_exhaustive():
    est = prob_real_montecarlo(3, 20000, 1)
    truth = float(prob_real_exhaustive(3))
    assert abs(est.value - truth) <= 3 * est.std_error
