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
by (v_0)_j, so det W = +-(affine det). The masks are split into bits
once per batch, trial-last (`_translated_matrices`). A row whose W is
nonsingular over GF(2) (`linalg._nonsingular_gf2`, bit-sliced 64 trials
to a word) is independent over Q too, since a determinant that is odd is
nonzero; that certificate decides the share `prob_f2_exact(n)` of the
trials, 36% at n = 7 and 29% at n = 24. Only the rest go to the batched
modular determinant (`linalg._nonzero_det_modp`). Over Q an n x n 0/1
matrix has determinant at most (n+1)^((n+1)/2) / 2^n in absolute value
(Hadamard's bound on the (n+1) x (n+1) +-1 matrix whose determinant is
(-2)^n det W), so residues modulo primes whose product exceeds the bound
give an exact zero test (Abbott, Bronstein and Mulders, ISSAC 1999). The
int16 test mod `_Q` = 37 decides n <= 7; above that its zero residues are
pooled across batches and retested mod `_retest_prime(n)`, the least
prime q != 37 with 37 q above the bound: 3, 7, 17 and 41 (int16) for
n = 8..11, 127 to 11863 (int32) for n = 12..16, and 480096521 (int64)
at n = 24, where the bound is 25^12.5 / 2^24 ~ 1.78e10. Nearly all the
retested zeros are real, so the retest is sized to settle them in the
narrowest dtype it can. Trials are seeded individually from the master
seed, so results are independent of batching.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, count, islice
from math import comb, isqrt, prod, sqrt
from typing import Iterable, Iterator, Optional

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


def _translated_matrices(w: np.ndarray) -> np.ndarray:
    """The 0/1 matrices of the (t, n) masks w, bit j of mask i in entry (i, j), as a (t, n, n) view.

    The view is of trial-last uint8 memory, the layout both eliminations work in.
    """
    t, n = w.shape
    width = -(-n // 8)
    low = w.astype("<u8", copy=False).view(np.uint8).reshape(t, n, 8)[:, :, :width]
    low = np.ascontiguousarray(low.transpose(1, 2, 0))[:, :, None, :]
    bits = low >> np.arange(8, dtype=np.uint8)[:, None]
    bits &= 1
    return bits.reshape(n, 8 * width, t)[:, :n].transpose(2, 0, 1)


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


def _certified_flags(tests: Iterable[tuple], n: int) -> Iterator[np.ndarray]:
    """Each batch's flags, in order, with flags[rest] set to det W != 0 for the masks w[rest].

    Batches are (flags, w, rest). Zeros mod _Q join a pool, retested mod `_retest_prime(n)` at
    the end and once the next batch's zeros would take it past _CHUNK; a batch waits for its pool.
    """
    q = _retest_prime(n)
    pool: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # (flags, suspects, their masks)

    def retested() -> Iterator[np.ndarray]:
        masks = np.concatenate([x for *_, x in pool])
        found = _nonzero_det_modp(_translated_matrices(masks), q)
        for flags, sus, _ in pool:
            flags[sus], found = found[: sus.size], found[sus.size :]
            yield flags
        pool.clear()

    for flags, w, rest in tests:
        mats = _translated_matrices(w[rest])
        flags[rest] = found = _nonzero_det_modp(mats, _Q) if rest.size else np.zeros(0, bool)
        zeros = rest[~found] if q else rest[:0]
        if sum(sus.size for _, sus, _ in pool) + zeros.size > _CHUNK:
            yield from retested()
        if pool or zeros.size:
            pool.append((flags, zeros, w[zeros]))
        else:
            yield flags
    if pool:
        yield from retested()


def _gf2_split(batches: Iterable[np.ndarray]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each batch's translated masks and its flags of W nonsingular over GF(2)."""
    for vbits in batches:
        w = vbits[:, 1:] ^ vbits[:, :1]  # the masks v_i ^ v_0, one row per trial
        yield w, _nonsingular_gf2(_translated_matrices(w))


def _rational_flags(batches: Iterable[np.ndarray], n: int) -> Iterator[np.ndarray]:
    """Exact affine-independence flags of each batch of vertex-mask rows, GF(2) deciding first."""
    return _certified_flags(((f2, w, np.flatnonzero(~f2)) for w, f2 in _gf2_split(batches)), n)


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
    hits = sum(int(f.sum()) for f in _rational_flags(_subsets_through_origin(n), n))
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
    # summed per batch, so memory is bounded by a batch and a retest pool
    hits = sum(int(f.sum()) for f in _rational_flags(_trial_subsets(n, trials, seed), n))
    p_hat = hits / trials
    std_error = sqrt(p_hat * (1.0 - p_hat) / trials)
    return ProbabilityEstimate(
        n=n, method=METHOD_MC, value=p_hat, trials=trials, std_error=std_error, seed=seed
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
    # the rational side skips the GF(2) certificate, so this checks it independently
    tests = ((~f2, w, np.flatnonzero(f2)) for w, f2 in _gf2_split(batches))
    return sum(int((~flags).sum()) for flags in _certified_flags(tests, n))


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
