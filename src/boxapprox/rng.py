"""The seeded vertex-set sampler: SplitMix64 streams, batched over seeds.

A SplitMix64 stream's counter starts at the seed mod 2^64 and advances by
the odd constant 0x9E3779B97F4A7C15 each draw; the draw is the counter
passed through the two-round xor-multiply finalizer. Both constants and
the finalizer are the published reference values (Steele, Lea & Flood,
OOPSLA 2014), so any implementation reproduces the same stream from the
same seed. Draw j needs only the seed and j, so streams are computed in
closed form, many seeds at once, in uint64 arrays that wrap mod 2^64.

`sample_masks` draws every random vertex set: a design is its row for one
seed, and Monte-Carlo trial i its row for `trial_seeds` entry i. The tests
keep a scalar pure-Python stream and sampling loop as the reference.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
# uint64 scalars made once: building them on each call doubles a small call's cost
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1, _MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)


def mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 output finalizer, elementwise on a uint64 array."""
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    return z ^ (z >> _S31)


def _draws(seeds: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Draws start+1..stop of each seed's stream, one row per seed."""
    steps = np.arange(start + 1, stop + 1, dtype=np.uint64) * _GOLDEN
    return mix64(seeds[:, None] + steps)


def trial_seeds(master: int, start: int, stop: int) -> np.ndarray:
    """Seeds of trials start..stop-1: draws start+1..stop of the master stream.

    Closed form, so trials are seeded independently of batching and order.
    """
    if start < 0:
        raise ValueError("trial index must be nonnegative")
    return _draws(np.array([master & MASK64], dtype=np.uint64), start, stop)[0]


def sample_masks(n: int, m: int, seeds: np.ndarray) -> np.ndarray:
    """m distinct n-bit masks per uint64 seed, uniform over all C(2^n, m) subsets.

    Row i holds the first m distinct values of the low n bits of stream
    seeds[i]'s draws, in draw order. When m exceeds 2^(n-1) the first
    2^n - m distinct values are the complement instead, and row i holds
    the other masks ascending; that keeps uniformity and bounds the draws.
    Pending rows draw a block and de-duplicate their whole prefix with a
    stable sort, in which the head of each run of equal values is its
    earliest draw; rows still short draw as many again. A row does not
    depend on the block sizes.
    """
    t = len(seeds)
    total = 1 << n
    take_complement = m > total - m
    goal = total - m if take_complement else m
    chosen = np.empty((t, goal), dtype=np.uint64)
    pending = np.arange(t if goal else 0)
    draws = np.empty((pending.size, 0), dtype=np.uint64)
    # about the expected number of draws for goal distinct values
    block = goal + goal * goal // total + 1
    while pending.size:
        width = draws.shape[1] + block
        fresh = _draws(seeds[pending], draws.shape[1], width)
        draws = np.concatenate([draws, fresh & np.uint64(total - 1)], axis=1)
        rows = np.arange(pending.size)[:, None]
        order = np.argsort(draws, axis=1, kind="stable")
        ranked = draws[rows, order]
        repeat = np.zeros(draws.shape, dtype=bool)
        repeat[:, 1:] = ranked[:, 1:] == ranked[:, :-1]
        # positions of the first goal distinct values; repeats sort past the end
        first = np.sort(np.where(repeat, width, order), axis=1)[:, :goal]
        done = first[:, -1] < width
        chosen[pending[done]] = draws[rows[done], first[done]]
        pending, draws = pending[~done], draws[~done]
        block = width
    if not take_complement:
        return chosen
    drawn = np.zeros((t, total), dtype=bool)
    drawn[np.arange(t)[:, None], chosen.astype(np.intp)] = True
    return np.nonzero(~drawn)[1].astype(np.uint64).reshape(t, m)
