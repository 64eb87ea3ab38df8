"""SplitMix64 pseudorandom stream, identical across platforms and runs.

The generator keeps a 64-bit counter that advances by the odd constant
0x9E3779B97F4A7C15 each draw; the output is the counter passed through
the two-round xor-multiply finalizer. Both constants and the finalizer
are the published SplitMix64 reference values, so any implementation in
any language reproduces the same stream from the same seed.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 output finalizer on a 64-bit word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
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
    """Seed for trial `index`: output number `index` of the master stream.

    Computed in closed form so trials can be seeded independently and in
    any order without advancing a shared generator.
    """
    if index < 0:
        raise ValueError("trial index must be nonnegative")
    return mix64((master_seed + (index + 1) * GOLDEN) & MASK64)


def sample_masks(n: int, m: int, seed: int) -> set[int]:
    """m distinct n-bit masks, uniform over all C(2^n, m) subsets.

    Draws the low n bits of consecutive outputs of SplitMix64(seed),
    discarding repeats, until m distinct masks accumulate. When m exceeds
    2^(n-1) the complement subset of size 2^n - m is drawn instead and
    inverted, which preserves uniformity and bounds the number of draws.
    """
    total = 1 << n
    take_complement = m > total - m
    goal = total - m if take_complement else m
    stream = SplitMix64(seed)
    chosen: set[int] = set()
    while len(chosen) < goal:
        chosen.add(stream.next_bits(n))
    if take_complement:
        chosen = {b for b in range(total) if b not in chosen}
    return chosen
