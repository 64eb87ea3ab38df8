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
count, or the seeded Monte-Carlo trials. Each row is decided by one
batched modular elimination. Over Q the defining determinant has absolute
value at most (n+1)^((n+1)/2) by Hadamard's bound, so checking it modulo
one or two primes whose product exceeds the bound is an exact zero test,
never a heuristic; over GF(2) elimination mod 2 is exact by itself. The
elimination reduces lazily, so an m x m batch mod p stays exact in int64
while (m-1)(p-1)^2 + p < 2^63. The primes 607400093 and 607400051 are the
two largest with 25 p^2 < 2^63, which meets that bound up to m = 26; one
of them decides m <= 14 and their product, about 3.69e17, exceeds the
bound 25^12.5 ~ 2.98e17 for every n up to 24. Trials are seeded
individually from the master seed, so results are independent of batching.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, islice
from math import sqrt
from typing import Iterator, Optional

import numpy as np

from .core import Vertex, _check_dim
from .rng import GOLDEN, MASK64

EXHAUSTIVE_MAX_N = 5
MC_MAX_N = 24

_P1 = 607400093
_P2 = 607400051

# Vertex subsets per batch of the subset streams
_CHUNK = 4096

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
    num = q
    for i in range(n):
        num *= q - (1 << i)
    den = 1
    for m in range(n + 1):
        den *= q - m
    return Fraction(num, den)


def qpochhammer_half(terms: int) -> QPochhammerValue:
    """Partial q-Pochhammer product at q = 1/2, exact."""
    if terms < 1:
        raise ValueError("need at least one product term")
    value = Fraction(1)
    for m in range(1, terms + 1):
        value *= Fraction((1 << m) - 1, 1 << m)
    return QPochhammerValue(terms, value)


def _mix64_np(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _sample_bits_numpy(n: int, m: int, seeds: np.ndarray) -> np.ndarray:
    """Batched rng.sample_masks(n, m, seed); one row of m masks per seed.

    Rows hold the masks in draw order, or ascending when the complement
    of the drawn masks is returned; either way each row equals
    sample_masks(n, m, seed) as a set.
    """
    t = len(seeds)
    total = 1 << n
    take_complement = m > total - m
    goal = total - m if take_complement else m
    states = seeds.copy()
    chosen = np.zeros((t, goal), dtype=np.uint64)
    count = np.zeros(t, dtype=np.int64)
    vmask = np.uint64(total - 1)
    slot = np.arange(goal, dtype=np.int64)
    pending = np.arange(t if goal else 0)
    while pending.size:
        states[pending] += np.uint64(GOLDEN)
        v = _mix64_np(states[pending]) & vmask
        dup = (chosen[pending] == v[:, None]) & (slot[None, :] < count[pending, None])
        fresh = ~dup.any(axis=1)
        hit = pending[fresh]
        chosen[hit, count[hit]] = v[fresh]
        count[hit] += 1
        pending = pending[count[pending] < goal]
    if not take_complement:
        return chosen
    drawn = np.zeros((t, total), dtype=bool)
    drawn[np.arange(t)[:, None], chosen.astype(np.int64)] = True
    return np.nonzero(~drawn)[1].astype(np.uint64).reshape(t, m)


def _trial_subsets(n: int, trials: int, seed: int) -> Iterator[np.ndarray]:
    """The seeded trial stream: row i is sample_masks(n, n+1, trial_seed(seed, i))."""
    for start in range(0, trials, _CHUNK):
        idx = np.arange(start + 1, min(start + _CHUNK, trials) + 1, dtype=np.uint64)
        seeds = _mix64_np((np.uint64(seed & MASK64) + idx * np.uint64(GOLDEN)))
        yield _sample_bits_numpy(n, n + 1, seeds)


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


def _affine_matrices(vbits: np.ndarray, n: int) -> np.ndarray:
    """Rows (1, x_1, ..., x_n) of each vertex, one (m, n+1) matrix per batch row.

    The (t, m, n+1) result is a view of trial-last memory, the layout the
    modular elimination works in.
    """
    t, m = vbits.shape
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
    mats = np.ones((m, n + 1, t), dtype=np.int64)
    mats[:, 1:] = (vbits.T[:, None, :] >> shifts[None, :, None]) & np.uint64(1)
    return mats.transpose(2, 0, 1)


def _inverse_modp(x: np.ndarray, p: int) -> np.ndarray:
    """x^(p-2) mod p elementwise: the inverse of each x in [1, p) by Fermat."""
    result = np.ones_like(x)
    base = x.copy()
    e = p - 2
    while e:
        if e & 1:
            result = result * base % p
        e >>= 1
        if e:
            base = base * base % p
    return result


def _nonzero_det_modp(mats: np.ndarray, p: int) -> np.ndarray:
    """Per-matrix test det != 0 (mod p) for a (t, m, m) batch, by lazy reduction.

    Elimination is normalized: each step reduces only the pivot column and
    the pivot row mod p, scales the column by the pivot's inverse and
    subtracts g * pivot_row from the trailing block without reducing it.
    Entries start in [0, p) and each of at most m-1 steps subtracts a
    product in [0, (p-1)^2], so every entry stays above -(m-1)(p-1)^2 - p
    and below p; int64 is exact when that bound is below 2^63.
    """
    t, m, _ = mats.shape
    if (m - 1) * (p - 1) ** 2 + p >= 1 << 63:
        raise ValueError(f"{m}x{m} elimination mod {p} could overflow int64")
    # trials on the last axis, so every vector operation runs over them contiguously
    a = np.array(mats.transpose(1, 2, 0), dtype=np.int64, order="C")
    a %= p
    singular = np.zeros(t, dtype=bool)
    for k in range(m):
        col = a[k:, k]
        col %= p
        nz = col != 0
        singular |= ~nz.any(axis=0)
        prow = k + nz.argmax(axis=0)
        moved = np.flatnonzero(prow != k)
        if moved.size:
            src = prow[moved]
            rows = a[src, k:, moved]
            a[src, k:, moved] = a[k, k:, moved]
            a[k, k:, moved] = rows
        if k + 1 == m:
            break
        row = a[k, k + 1 :]
        row %= p
        piv = a[k, k].copy()
        piv[piv == 0] = 1
        g = a[k + 1 :, k] * _inverse_modp(piv, p) % p
        a[k + 1 :, k + 1 :] -= g[:, None, :] * row[None, :, :]
    return ~singular


def _rational_affine_indep_numpy(vbits: np.ndarray, n: int) -> np.ndarray:
    """Exact rational affine-independence flags for batched vertex sets.

    Certification: |det| <= (n+1)^((n+1)/2) < P1 for n <= 13, so one prime
    decides; otherwise a zero residue is retested mod P2, and P1*P2 exceeds
    the bound for every n up to 24.
    """
    m = vbits.shape[1]
    mats = _affine_matrices(vbits, n)
    flags = _nonzero_det_modp(mats, _P1)
    if m**m >= _P1 * _P1:
        if m**m >= (_P1 * _P2) ** 2:
            raise ValueError("dimension too large for two-prime certification")
        sus = np.flatnonzero(~flags)
        if sus.size:
            flags[sus[_nonzero_det_modp(mats[sus], _P2)]] = True
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
    hits = total = 0
    for vbits in _subsets_through_origin(n):
        hits += int(_rational_affine_indep_numpy(vbits, n).sum())
        total += len(vbits)
    return Fraction(hits, total)


def prob_real_montecarlo(n: int, trials: int, seed: int) -> ProbabilityEstimate:
    """Monte-Carlo estimate of the rational-field probability.

    Trial i samples n+1 distinct vertices with the design sampler seeded by
    trial_seed(seed, i) and tests exact rational affine independence. The
    estimate is fully determined by (n, trials, seed).
    """
    if not 1 <= n <= MC_MAX_N:
        raise ValueError(f"Monte-Carlo supports 1 <= n <= {MC_MAX_N}")
    if trials < 1:
        raise ValueError("need at least one trial")
    hits = int(_mc_flags_numpy(n, trials, seed).sum())
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
        # mod 2 the elimination is exact, so this is GF(2) independence
        f2 = _nonzero_det_modp(_affine_matrices(vbits, n), 2)
        bad += int((~_rational_affine_indep_numpy(vbits[f2], n)).sum())
    return bad


def exhaustive_dependent_subsets(n: int) -> list[tuple[Vertex, ...]]:
    """Every rationally dependent (n+1)-subset, for small n; used for audits."""
    if not 1 <= n <= 4:
        raise ValueError("subset audit supports 1 <= n <= 4")
    return [
        tuple(Vertex(n, int(b)) for b in row)
        for vbits in _all_subsets(n)
        for row in vbits[~_rational_affine_indep_numpy(vbits, n)]
    ]


__all__ = [
    "ProbabilityEstimate",
    "QPochhammerValue",
    "prob_f2_exact",
    "qpochhammer_half",
    "prob_real_exhaustive",
    "prob_real_montecarlo",
    "f2_implies_real_check",
    "exhaustive_dependent_subsets",
    "METHOD_F2",
    "METHOD_EXHAUSTIVE",
    "METHOD_MC",
    "EXHAUSTIVE_MAX_N",
    "MC_MAX_N",
]
