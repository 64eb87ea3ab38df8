"""Probabilities that random vertex sets support first-order approximation.

A set of n+1 vertices determines every vertex of the cube at order 1
exactly when it is affinely independent. Over GF(2) the probability has
the closed form

    2^n * (2^n - 1)(2^n - 2)(2^n - 4)...(2^n - 2^(n-1))
    ---------------------------------------------------
    2^n * (2^n - 1)(2^n - 2)(2^n - 3)...(2^n - n)

which decreases monotonically to the q-Pochhammer constant
(1/2; 1/2)_inf ~ 0.288. GF(2) independence implies rational independence,
so this is a lower bound for the rational-field probability; the rational
probability itself is computed exactly by enumerating the subsets through
vertex 0 for small n and estimated by seeded Monte-Carlo above that.

Every answer streams (n+1)-subsets as batches of vertex-mask rows: all of
them in combinations order, all those through vertex 0 for the exact
count, or the seeded Monte-Carlo trials. Each row v_0, ..., v_n is
translated to the origin: the n x n 0/1 matrix W with rows v_i ^ v_0
(i = 1..n) replaces the (n+1) x (n+1) affine matrix with rows (1, v_i).
Subtracting row 0 from the others leaves the differences v_i - v_0,
and coordinate j of a difference is +-(v_i ^ v_0)_j with the sign fixed
by (v_0)_j, so det W = +-(affine det). A row whose W is nonsingular over
GF(2) (`linalg._nonsingular_gf2`, a bit-packed elimination) is
independent over Q too, since a determinant that is odd is nonzero; that
certificate decides the share `prob_f2_exact(n)` of the trials, 36% at
n = 7 and 29% at n = 24. Only the rest go to the batched modular
determinant (`linalg._nonzero_det_modp`). Over Q an n x n 0/1 matrix has
determinant at most (n+1)^((n+1)/2) / 2^n in absolute value (Hadamard's
bound on the (n+1) x (n+1) +-1 matrix whose determinant is
(-2)^n det W), so residues modulo primes whose product exceeds the bound
give an exact zero test (Abbott, Bronstein and Mulders, ISSAC 1999). The
int16 test mod `_Q` = 37 decides n <= 7; above that its zero residues are
retested mod `_retest_prime(n)`, the least prime q != 37 with 37 q above
the bound: 3, 7, 17 and 41 (int16) for n = 8..11, 127 to 11863 (int32)
for n = 12..16, and 480096521 (int64) at n = 24, where the bound is
25^12.5 / 2^24 ~ 1.78e10. Nearly all the retested zeros are real, so
the retest is sized to settle them in the narrowest dtype it can.
Trials are seeded individually from the master seed, so results are
independent of batching.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, count, islice
from math import comb, isqrt, prod, sqrt
from typing import Iterator, Optional

import numpy as np

from .core import _check_dim
from .linalg import _is_prime, _nonsingular_gf2, _nonzero_det_modp
from .rng import sample_masks, trial_seeds

EXHAUSTIVE_MAX_N = 5
MC_MAX_N = 24

# Vertex subsets per batch of the subset streams
_CHUNK = 4096

_Q = 37  # the first determinant prime: 23 * 37^2 < 2^15 runs n <= 24 in int16

METHOD_F2 = "exact_f2"
METHOD_EXHAUSTIVE = "exhaustive_real"
METHOD_MC = "monte_carlo"


@dataclass(frozen=True)
class ProbabilityEstimate:
    """A probability value plus how it was obtained."""

    n: int
    method: str
    value: Fraction | float
    trials: Optional[int] = None
    std_error: Optional[float] = None
    seed: Optional[int] = None


@dataclass(frozen=True)
class QPochhammerValue:
    """Exact partial product prod_{m=1..terms} (1 - 2^-m)."""

    terms: int
    value: Fraction


def prob_f2_exact(n: int) -> Fraction:
    """Probability that n+1 random distinct vertices are affinely independent over GF(2)."""
    _check_dim(n)
    q = 1 << n
    return Fraction(q * prod(q - (1 << i) for i in range(n)), prod(q - m for m in range(n + 1)))


def qpochhammer_half(terms: int) -> QPochhammerValue:
    """Partial q-Pochhammer product at q = 1/2, exact."""
    if terms < 1:
        raise ValueError("need at least one product term")
    value = prod((Fraction((1 << m) - 1, 1 << m) for m in range(1, terms + 1)), start=Fraction(1))
    return QPochhammerValue(terms, value)


def _trial_subsets(n: int, trials: int, seed: int) -> Iterator[np.ndarray]:
    """The seeded trial stream: row i is the sampler's row for trial seed i."""
    for start in range(0, trials, _CHUNK):
        yield sample_masks(n, n + 1, trial_seeds(seed, start, min(start + _CHUNK, trials)))


def _row_batches(subsets: Iterator[tuple[int, ...]], m: int) -> Iterator[np.ndarray]:
    """Vertex-mask tuples of length m, stacked into batches of up to _CHUNK rows."""
    flat = chain.from_iterable(subsets)
    while True:
        rows = np.fromiter(islice(flat, _CHUNK * m), dtype=np.uint64)
        if not rows.size:
            return
        yield rows.reshape(-1, m)


def _all_subsets(n: int) -> Iterator[np.ndarray]:
    """Every (n+1)-subset of the cube, ascending rows in combinations order."""
    return _row_batches(combinations(range(1 << n), n + 1), n + 1)


def _subsets_through_origin(n: int) -> Iterator[np.ndarray]:
    """Every (n+1)-subset that contains vertex 0: (0, *c) for the n-subsets c of the rest."""
    return _row_batches(((0, *c) for c in combinations(range(1, 1 << n), n)), n + 1)


def _translated_masks(vbits: np.ndarray) -> np.ndarray:
    """Masks v_i ^ v_0 (i = 1..m-1) of each batch row, as an (m-1, t) array, trials last."""
    return np.ascontiguousarray((vbits[:, 1:] ^ vbits[:, :1]).T)


def _translated_matrices(w: np.ndarray, n: int) -> np.ndarray:
    """The 0/1 matrices of the (n, t) masks w, bit j in column j, as a (t, n, n) int16 view.

    The view is of trial-last memory, the layout the modular elimination
    works in.
    """
    mats = np.empty((n, n, w.shape[1]), dtype=np.int16)
    for j in range(n):
        mats[:, j] = (w >> np.uint64(j)) & np.uint64(1)
    return mats.transpose(2, 0, 1)


@cache
def _retest_prime(n: int) -> int:
    """The least prime q != _Q with _Q * q above the bound on |det W|, or 0 if _Q alone is.

    The bound (n+1)^((n+1)/2) / 2^n is compared squared, in integers:
    the least integer q with (_Q q)^2 4^n > (n+1)^(n+1) is
    isqrt((n+1)^(n+1) // (_Q^2 4^n)) + 1.
    """
    least = isqrt((n + 1) ** (n + 1) // (_Q * _Q * 4**n)) + 1
    if least == 1:
        return 0
    return next(q for q in count(least) if q != _Q and _is_prime(q))


def _nonzero_det_certified(w: np.ndarray, n: int) -> np.ndarray:
    """Exact rational flags det W != 0 for the (n, t) translated masks w.

    Certification: |det W| <= (n+1)^((n+1)/2) / 2^n < _Q for n <= 7, so
    the int16 test mod _Q decides; above that a zero residue is retested
    mod `_retest_prime(n)`, in the narrowest dtype that prime allows
    (int16 up to n = 11, int32 up to n = 16). `_nonzero_det_modp` refuses
    a retest prime too large for int64.
    """
    mats = _translated_matrices(w, n)
    flags = _nonzero_det_modp(mats, _Q)
    q = _retest_prime(n)
    if q:
        sus = np.flatnonzero(~flags)
        if sus.size:
            flags[sus[_nonzero_det_modp(mats[sus], q)]] = True
    return flags


def _rational_affine_indep_numpy(vbits: np.ndarray, n: int) -> np.ndarray:
    """Exact rational affine-independence flags for batched vertex sets.

    A set that is nonsingular over GF(2) is decided by that certificate;
    only the rest pay the modular determinant.
    """
    w = _translated_masks(vbits)
    flags = _nonsingular_gf2(w, n)
    rest = np.flatnonzero(~flags)
    if rest.size:
        flags[rest] = _nonzero_det_certified(w[:, rest], n)
    return flags


def _mc_flags_numpy(n: int, trials: int, seed: int) -> np.ndarray:
    """Per-trial rational affine-independence flags of the seeded trial stream."""
    return np.concatenate(
        [_rational_affine_indep_numpy(vbits, n) for vbits in _trial_subsets(n, trials, seed)]
    )


def prob_real_exhaustive(n: int) -> Fraction:
    """Exact rational-field probability by inspecting every subset through vertex 0.

    Affine independence is invariant under XOR translation. Pairing each
    (n+1)-set S and member v with the set S ^ v through vertex 0 and the
    translation v counts (n+1) N = 2^n N0, where N counts independent sets
    and N0 those through vertex 0. So the probability is N0 / C(2^n - 1, n);
    the sets through vertex 0 are tested in batches with the certified
    modular determinant, 169911 of them at n=5, in under a second.
    """
    if not 1 <= n <= EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive enumeration supports 1 <= n <= {EXHAUSTIVE_MAX_N}")
    batches = _subsets_through_origin(n)
    hits = sum(int(_rational_affine_indep_numpy(vbits, n).sum()) for vbits in batches)
    return Fraction(hits, comb((1 << n) - 1, n))


def prob_real_montecarlo(n: int, trials: int, seed: int) -> ProbabilityEstimate:
    """Monte-Carlo estimate of the rational-field probability.

    Trial i samples n+1 distinct vertices with the design sampler seeded by
    entry i of the trial seeds of `seed` and tests exact rational affine
    independence. The estimate is fully determined by (n, trials, seed).
    """
    if not 1 <= n <= MC_MAX_N:
        raise ValueError(f"Monte-Carlo supports 1 <= n <= {MC_MAX_N}")
    if trials < 1:
        raise ValueError("need at least one trial")
    # summed per batch, so memory does not grow with the trial count
    batches = _trial_subsets(n, trials, seed)
    hits = sum(int(_rational_affine_indep_numpy(vbits, n).sum()) for vbits in batches)
    p_hat = hits / trials
    std_error = sqrt(p_hat * (1.0 - p_hat) / trials)
    return ProbabilityEstimate(
        n=n,
        method=METHOD_MC,
        value=p_hat,
        trials=trials,
        std_error=std_error,
        seed=seed,
    )


def f2_implies_real_check(
    n: int, mode: str, budget: Optional[int] = None, seed: Optional[int] = None
) -> int:
    """Count (n+1)-subsets that are GF(2)-independent yet rationally dependent.

    The count is always expected to be zero: a GF(2)-independent vertex set
    is rationally independent. Exhaustive mode enumerates every subset and
    is limited to n <= 4; sampled mode draws `budget` random subsets.
    """
    if mode == "exhaustive":
        if not 1 <= n <= 4:
            raise ValueError("exhaustive mode supports 1 <= n <= 4")
        batches = _all_subsets(n)
    elif mode == "sampled":
        if budget is None or budget < 1:
            raise ValueError("sampled mode needs a positive budget")
        if not 1 <= n <= MC_MAX_N:
            raise ValueError(f"sampled mode supports 1 <= n <= {MC_MAX_N}")
        batches = _trial_subsets(n, budget, 0 if seed is None else seed)
    else:
        raise ValueError(f"unknown mode {mode!r}, expected 'exhaustive' or 'sampled'")
    bad = 0
    for vbits in batches:
        w = _translated_masks(vbits)
        # the rational side skips the GF(2) certificate, so the count is
        # an independent check of it
        bad += int((~_nonzero_det_certified(w[:, _nonsingular_gf2(w, n)], n)).sum())
    return bad


__all__ = [
    "ProbabilityEstimate",
    "QPochhammerValue",
    "prob_f2_exact",
    "qpochhammer_half",
    "prob_real_exhaustive",
    "prob_real_montecarlo",
    "f2_implies_real_check",
    "METHOD_F2",
    "METHOD_EXHAUSTIVE",
    "METHOD_MC",
    "EXHAUSTIVE_MAX_N",
    "MC_MAX_N",
]
