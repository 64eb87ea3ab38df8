"""Scalar pure-Python SplitMix64 and subset sampler: the reference for `boxapprox.rng`.

One draw at a time with Python integers masked to 64 bits, exactly as the
published SplitMix64 reference code; `boxapprox.rng` computes the same
streams batched in numpy and must equal this module on every input.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 output finalizer on a 64-bit word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Deterministic 64-bit stream seeded with an arbitrary integer."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return mix64(self.state)

    def next_bits(self, nbits: int) -> int:
        """Low nbits of the next output, uniform for 1 <= nbits <= 64."""
        if not 1 <= nbits <= 64:
            raise ValueError("nbits must be in 1..64")
        return self.next_u64() & ((1 << nbits) - 1)


def trial_seed(master_seed: int, index: int) -> int:
    """Seed for trial `index`: output number `index` of the master stream."""
    if index < 0:
        raise ValueError("trial index must be nonnegative")
    return mix64((master_seed + (index + 1) * GOLDEN) & MASK64)


def sample_row(n: int, m: int, seed: int) -> list[int]:
    """The sampler's row for one seed, in order.

    The first m distinct low-n-bit draws of SplitMix64(seed) in draw order;
    or, when m exceeds 2^(n-1), the masks outside the first 2^n - m
    distinct draws in ascending order.
    """
    total = 1 << n
    take_complement = m > total - m
    goal = total - m if take_complement else m
    stream = SplitMix64(seed)
    chosen: dict[int, None] = {}
    while len(chosen) < goal:
        chosen[stream.next_bits(n)] = None
    if take_complement:
        return [b for b in range(total) if b not in chosen]
    return list(chosen)


def sample_masks(n: int, m: int, seed: int) -> set[int]:
    """m distinct n-bit masks, uniform over all C(2^n, m) subsets."""
    return set(sample_row(n, m, seed))
