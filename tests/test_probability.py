import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_linalg import bareiss, rank_gf2, rank_rational
from reference_rng import sample_masks, trial_seed

from boxapprox import linalg, probability
from boxapprox.linalg import (
    _P1,
    _P2,
    _is_prime,
    _lazy_steps,
    _nonsingular_gf2,
    _nonzero_det_modp,
)
from boxapprox.probability import (
    _CHUNK,
    MC_MAX_N,
    METHOD_MC,
    ProbabilityEstimate,
    _Q,
    _all_subsets,
    _rational_flags,
    _retest_prime,
    _translated_matrices,
    _trial_subsets,
    f2_implies_real_check,
    prob_f2_exact,
    prob_real_exhaustive,
    prob_real_montecarlo,
    qpochhammer_half,
)


def _affine_rows(bits, n):
    return [[1] + [(b >> (n - 1 - i)) & 1 for i in range(n)] for b in bits]


def _affine_matrices(vbits, n):
    """Rows (1, x_1, ..., x_n) of each vertex, one (m, n+1) matrix per batch row.

    The (t, m, n+1) result is a view of trial-last memory, the layout the
    modular elimination works in.
    """
    t, m = vbits.shape
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
    mats = np.ones((m, n + 1, t), dtype=np.int64)
    mats[:, 1:] = (vbits.T[:, None, :] >> shifts[None, :, None]) & np.uint64(1)
    return mats.transpose(2, 0, 1)


def _translated_masks(vbits):
    """The masks v_i ^ v_0 (i = 1..n) of each batch row, one row per trial."""
    return vbits[:, 1:] ^ vbits[:, :1]


def _rational_affine_indep_numpy(vbits, n):
    """The package's exact flags for one batch of vertex-mask rows."""
    return np.concatenate(list(_rational_flags([vbits], n)))


def _mc_flags_numpy(n, trials, seed):
    """The package's exact flags for every trial of the seeded trial stream."""
    return np.concatenate(list(_rational_flags(_trial_subsets(n, trials, seed), n)))


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


@pytest.mark.parametrize("p", [2, _Q, _P1, _P2])
def test_lazy_kernel_equals_division_free_oracle(p):
    rng = np.random.default_rng(p)
    for m in range(1, MC_MAX_N + 2):
        for mats in _kernel_batches(m, p, rng):
            got = _nonzero_det_modp(mats, p)
            assert got.dtype == bool and got.shape == (len(mats),)
            assert (got == _nonzero_det_division_free(mats, p)).all(), (m, p)
    # the singular kinds do occur, so both answers are compared
    assert not _nonzero_det_modp(_kernel_batches(25, p, rng)[1], p).any()


@pytest.mark.parametrize("p", [_Q, _retest_prime(MC_MAX_N), _P1])
def test_a_batch_past_the_copy_budget_runs_in_slices_with_the_same_flags(monkeypatch, p):
    rng = np.random.default_rng(p)
    mats = np.concatenate(_kernel_batches(MC_MAX_N, p, rng))
    want = _nonzero_det_division_free(mats, p)
    sizes = []
    original = linalg._nonzero_det_modp

    def recorder(batch, q):
        sizes.append(len(batch))
        return original(batch, q)

    monkeypatch.setattr(linalg, "_nonzero_det_modp", recorder)
    # room for 7 matrices in int64, or 28 in int16 mod 37
    monkeypatch.setattr(linalg, "_DET_BYTES", 7 * 8 * MC_MAX_N**2)
    assert (linalg._nonzero_det_modp(mats, p) == want).all()
    step = 28 if p == _Q else 7
    assert sizes == [len(mats)] + [min(step, len(mats) - i) for i in range(0, len(mats), step)]


def test_lazy_reduction_bound_and_certification_constants():
    m = MC_MAX_N + 1
    for p in (_P1, _P2):
        assert (m - 1) * (p - 1) ** 2 + p < 2**63
    # the int16 elimination mod 37: 23 steps of products below 36^2 on a residue
    assert _lazy_steps(_Q, np.int16) == m - 2
    assert (m - 2) * (_Q - 1) ** 2 + _Q < 2**15
    # the translated n x n 0/1 matrix: |det| <= m^(m/2) / 2^n (Hadamard),
    # compared squared to stay in integers; below 37 up to n = 7, below
    # 37 * _retest_prime(24) at n = 24, which still runs in int64
    assert _Q**2 * 4**7 > 8**8 and _Q**2 * 4**8 < 9**9
    q = _retest_prime(MC_MAX_N)
    assert (_Q * q) ** 2 * 4**24 > 25**25
    assert (m - 2) * (q - 1) ** 2 + q < 2**63
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
    quads = list(combinations(range(8), 4))
    assert len(quads) == 70
    dependent = [q for q in quads if rank_rational(_affine_rows(q, 3)) < 4]
    assert len(dependent) == 12
    axis_faces = 0
    for quad in dependent:
        coords = _affine_rows(quad, 3)
        for axis in range(1, 4):
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
    # n=22 and n=24 exceed the single-prime certification bound (n=16 did
    # under the affine bound (n+1)^((n+1)/2))
    for n in (16, 22, MC_MAX_N):
        np_flags = _mc_flags_numpy(n, 300, 9)
        py_flags = _mc_flags_reference(n, 300, 9)
        assert (np_flags == np.array(py_flags)).all()


def test_mc_engines_agree_for_negative_seed():
    np_flags = _mc_flags_numpy(5, 400, -7)
    py_flags = _mc_flags_reference(5, 400, -7)
    assert (np_flags == np.array(py_flags)).all()


# one prime decides n <= 21 and the second prime retests above; the split
# draws small n more often
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
    certified = _nonsingular_gf2(_translated_matrices(_translated_masks(vbits)))
    for bits, q_flag, f2_flag, cert in zip(sets, over_q, over_f2, certified):
        assert q_flag == (rank_rational(_affine_rows(bits, n)) == n + 1)
        assert f2_flag == (rank_gf2([(1 << n) | b for b in bits]) == n + 1)
        assert cert == f2_flag


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_translated_matrix_decides_affine_independence(n):
    # rotating each ascending subset puts vertex 0, when present, last, so
    # every set is translated by a vertex other than 0
    vbits = np.concatenate(list(_all_subsets(n)))
    vbits = np.roll(vbits, -1, axis=1)
    assert (vbits[:, 0] != 0).all()
    w = _translated_masks(vbits)
    assert w.shape == (len(vbits), n)
    # |det| <= (n+1)^((n+1)/2) < P1, so one prime is exact here
    got = _nonzero_det_modp(_translated_matrices(w), _P1)
    want = [rank_rational(_affine_rows(row.tolist(), n)) == n + 1 for row in vbits]
    assert got.tolist() == want
    assert (_rational_affine_indep_numpy(vbits, n) == got).all()
    # both answers occur from n = 3 on
    assert n < 3 or 0 < got.sum() < len(got)


def _record_det_calls(monkeypatch):
    calls = []
    original = probability._nonzero_det_modp

    def recorder(mats, p):
        calls.append((p, len(mats)))
        return original(mats, p)

    monkeypatch.setattr(probability, "_nonzero_det_modp", recorder)
    return calls


def _zero_residues(w, n):
    """How many of the (t, n) translated masks w have det W = 0 mod 37."""
    return int((~_nonzero_det_modp(_translated_matrices(w), _Q)).sum())


def test_only_gf2_singular_trials_reach_the_modular_determinant(monkeypatch):
    n = MC_MAX_N
    (vbits,) = list(_trial_subsets(n, 4096, 5))
    w = _translated_masks(vbits)
    f2 = _nonsingular_gf2(_translated_matrices(w))
    assert 0 < f2.sum() < len(f2)
    zeros = _zero_residues(w[~f2], n)
    assert zeros > 0
    calls = _record_det_calls(monkeypatch)
    flags = _rational_affine_indep_numpy(vbits, n)
    assert calls[0] == (_Q, int((~f2).sum()))
    # the one later call is the retest of the zero residues mod 37
    assert calls[1:] == [(_retest_prime(n), zeros)]
    assert flags[f2].all()
    calls.clear()
    assert _rational_affine_indep_numpy(vbits[f2], n).all()
    assert calls == []


@pytest.mark.parametrize("n", [5, 7, 8, 13, 14, 21, 22, 24])
def test_second_prime_runs_only_above_n_7(monkeypatch, n):
    calls = _record_det_calls(monkeypatch)
    assert _mc_flags_numpy(n, 200, n).tolist() == _mc_flags_reference(n, 200, n)
    assert calls[0][0] == _Q
    if n <= 7:
        assert [p for p, _ in calls] == [_Q]
    # any later call is the retest of at most the zero residues
    assert all(p == _retest_prime(n) and rows <= calls[0][1] for p, rows in calls[1:])
    # n+1 vertices of the face x_1 = 0 are dependent, so the trial is
    # singular over GF(2) and mod 37; above n = 7 only the retest can confirm it
    face = np.array([random.Random(n).sample(range(1 << (n - 1)), n + 1)], dtype=np.uint64)
    calls.clear()
    assert not _rational_affine_indep_numpy(face, n).any()
    assert calls == ([(_Q, 1)] if n <= 7 else [(_Q, 1), (_retest_prime(n), 1)])


def test_retest_prime_decides_a_determinant_divisible_by_37(monkeypatch):
    # det W = 74 for this set: singular over GF(2) and mod 37, but not over Q
    n = 12
    vs = [2914, 269, 2122, 3853, 2149, 3119, 1009, 1953, 2475, 2870, 1560, 651, 492]
    rows = [[((v ^ vs[0]) >> j) & 1 for j in range(n)] for v in vs[1:]]
    assert len(bareiss(rows)) == n and abs(rows[-1][-1]) == 74
    vbits = np.array([vs], dtype=np.uint64)
    w = _translated_masks(vbits)
    assert not _nonsingular_gf2(_translated_matrices(w))[0] and _zero_residues(w, n) == 1
    calls = _record_det_calls(monkeypatch)
    assert _rational_affine_indep_numpy(vbits, n).tolist() == [True]
    # the call after the zero residue mod 37 is the retest that decides it,
    # mod 127 at n = 12
    assert _retest_prime(n) == 127
    assert calls == [(_Q, 1), (127, 1)]


def test_retest_pool_crossing_chunk_keeps_every_trial_flag(monkeypatch):
    # at n = 9 about 31% of trials are zeros mod 37, so four full batches
    # would pass _CHUNK: the pool is retested after three, and the fourth
    # and the partial fifth make a final partial pool
    n, trials, seed = 9, 4 * _CHUNK + 1000, 3
    calls = _record_det_calls(monkeypatch)
    flags = _mc_flags_numpy(n, trials, seed)
    assert flags.tolist() == _mc_flags_reference(n, trials, seed)
    zeros = []
    for vbits in _trial_subsets(n, trials, seed):
        w = _translated_masks(vbits)
        zeros.append(_zero_residues(w[~_nonsingular_gf2(_translated_matrices(w))], n))
    assert sum(zeros[:4]) > _CHUNK
    q = _retest_prime(n)
    # the fourth batch's zeros mod 37 are what send the first pool to its retest
    assert [p for p, _ in calls] == [_Q] * 4 + [q, _Q, q]
    assert [rows for p, rows in calls if p == q] == [sum(zeros[:3]), sum(zeros[3:])]


def test_mc_estimates_equal_the_recorded_hit_counts():
    # hits of 5000 trials (one full batch and a partial one) for n = 1..24,
    # as recorded before the retests were pooled
    hits = {
        0: [5000, 5000, 4138, 3517, 3103, 2943, 3000, 3185, 3461, 3720, 4016, 4272,
            4494, 4663, 4777, 4862, 4919, 4944, 4978, 4987, 4991, 4994, 4998, 5000],
        17: [5000, 5000, 4100, 3390, 3100, 3015, 3094, 3270, 3496, 3732, 3955, 4228,
             4459, 4679, 4792, 4873, 4923, 4961, 4974, 4992, 4996, 5000, 5000, 4997],
        -5: [5000, 5000, 4129, 3389, 3049, 2920, 2953, 3106, 3392, 3752, 4017, 4316,
             4506, 4656, 4779, 4873, 4929, 4953, 4983, 4989, 4994, 4997, 5000, 5000],
    }
    for seed, row in hits.items():
        for n, h in enumerate(row, 1):
            est = prob_real_montecarlo(n, 5000, seed)
            p = h / 5000
            assert (est.value, est.std_error) == (p, math.sqrt(p * (1.0 - p) / 5000)), (n, seed)


def test_retest_prime_is_searched_once_per_dimension(monkeypatch):
    # three batches of 4096 trials at n = 12 search for the retest prime once,
    # with the estimate unchanged
    calls = []
    monkeypatch.setattr(probability, "_is_prime", lambda q: calls.append(q) or _is_prime(q))
    _retest_prime.cache_clear()
    assert _retest_prime(12) == 127
    once = len(calls)
    _retest_prime.cache_clear()
    est = prob_real_montecarlo(12, 3 * 4096, 5)
    assert len(calls) == 2 * once
    assert prob_real_montecarlo(12, 3 * 4096, 5) == est and len(calls) == 2 * once


@pytest.mark.parametrize("n", range(1, MC_MAX_N + 1))
def test_retest_prime_is_the_least_prime_past_the_bound(n):
    # 0 exactly when 37 alone exceeds the Hadamard bound on |det W|, else
    # the least prime q != 37 with 37 q past it; compared squared
    bound = (n + 1) ** (n + 1)

    def past(q):
        return (_Q * q) ** 2 * 4**n > bound

    def is_prime(q):
        return q > 1 and all(q % d for d in range(2, math.isqrt(q) + 1))

    # the least integer past the bound, by bisection: past() is monotone
    lo, hi = 0, 1
    while not past(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if past(mid) else (mid, hi)
    q = _retest_prime(n)
    assert (q == 0) == (hi == 1) == (n <= 7)
    if q:
        assert q != _Q and past(q) and is_prime(q) and _is_prime(q)
        assert not any(r != _Q and is_prime(r) for r in range(hi, q))
    table = {8: 3, 9: 7, 10: 17, 11: 41, 12: 127, 16: 11863, 24: 480096521}
    assert q == table.get(n, q)


@pytest.mark.parametrize("n", [8, 9, 10, 11, 12, 16, 17, 24])
def test_retest_runs_in_the_narrowest_dtype_its_prime_allows(monkeypatch, n):
    # the dtype of every reduction of the retest: int16 for 8 <= n <= 11,
    # int32 up to n = 16, int64 above
    dtypes = []
    original = linalg._reduce

    def recorder(x, p):
        dtypes.append((p, x.dtype))
        original(x, p)

    monkeypatch.setattr(linalg, "_reduce", recorder)
    face = np.array([random.Random(n).sample(range(1 << (n - 1)), n + 1)], dtype=np.uint64)
    assert not _rational_affine_indep_numpy(face, n).any()
    q = _retest_prime(n)
    want = np.int16 if n <= 11 else np.int32 if n <= 16 else np.int64
    assert {d for p, d in dtypes if p == q} == {np.dtype(want)}
    assert {d for p, d in dtypes if p == _Q} == {np.dtype(np.int16)}


def test_f2_check_decides_the_rational_side_without_the_gf2_certificate(monkeypatch):
    # the GF(2)-independent sets are retested mod p, so a zero count is evidence
    n, budget = 8, 500
    (vbits,) = list(_trial_subsets(n, budget, 1))
    w = _translated_masks(vbits)
    f2 = _nonsingular_gf2(_translated_matrices(w))
    zeros = _zero_residues(w[f2], n)
    calls = _record_det_calls(monkeypatch)
    assert f2_implies_real_check(n, "sampled", budget=budget, seed=1) == 0
    # an odd determinant may still be a multiple of 37, and only the retest settles it
    assert calls == [(_Q, int(f2.sum()))] + ([(_retest_prime(n), zeros)] if zeros else [])


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
