import numpy as np
import pytest
from reference_rng import GOLDEN, MASK64, SplitMix64, sample_masks, sample_row, trial_seed
from reference_rng import mix64 as mix64_reference

from boxapprox import rng
from boxapprox.core import Vertex, canonical_sort_key
from boxapprox.designs import sample_random_design

SEEDS = [0, 1, 7, 99, 2**32 + 5, MASK64, -1, -12345, 2**64, 2**70 + 3]


def _seed_array(seeds):
    return np.array([s & MASK64 for s in seeds], dtype=np.uint64)


def test_splitmix64_reference_vector():
    # first outputs for seed 0, from the published reference implementation
    expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    stream = SplitMix64(0)
    assert [stream.next_u64() for _ in range(3)] == expected
    assert rng.trial_seeds(0, 0, 3).tolist() == expected


def test_seed_wraps_to_64_bits():
    assert SplitMix64(1 << 70).next_u64() == SplitMix64(0).next_u64()
    assert SplitMix64(-1).state == MASK64
    assert rng.trial_seeds(1 << 70, 0, 4).tolist() == rng.trial_seeds(0, 0, 4).tolist()
    assert rng.trial_seeds(-1, 0, 4).tolist() == rng.trial_seeds(MASK64, 0, 4).tolist()


def test_next_bits_range():
    stream = SplitMix64(9)
    for _ in range(100):
        assert 0 <= stream.next_bits(5) < 32
    with pytest.raises(ValueError):
        stream.next_bits(0)
    with pytest.raises(ValueError):
        stream.next_bits(65)


def test_trial_seed_is_master_stream_output():
    master = 424242
    stream = SplitMix64(master)
    outputs = [stream.next_u64() for _ in range(10)]
    assert [trial_seed(master, i) for i in range(10)] == outputs
    for seed in SEEDS:
        assert rng.trial_seeds(seed, 3, 9).tolist() == [trial_seed(seed, i) for i in range(3, 9)]
    assert rng.trial_seeds(master, 5, 5).size == 0
    with pytest.raises(ValueError):
        trial_seed(master, -1)
    with pytest.raises(ValueError):
        rng.trial_seeds(master, -1, 3)


def test_numpy_mix_matches_python():
    values = [0, 1, GOLDEN, MASK64, 0xDEADBEEF]
    mixed = rng.mix64(np.array(values, dtype=np.uint64))
    assert mixed.tolist() == [mix64_reference(v) for v in values]


def test_sample_masks_golden_values():
    # values of the sampler loop as first written in designs and probability
    assert sample_masks(4, 5, 7) == {2, 12, 10, 11, 7}
    assert sample_masks(4, 12, 7) == {0, 8, 4, 1, 10, 9, 6, 5, 3, 14, 13, 15}
    assert sorted(sample_masks(6, 7, 99)) == [3, 23, 35, 36, 51, 52, 59]
    assert sample_masks(3, 8, 1) == set(range(8))


def test_sample_masks_feeds_design_and_matches_numpy_batch():
    assert [v.bits for v in sample_random_design(4, 5, 7).vertices] == [2, 12, 10, 11, 7]
    # the sampler's row is in draw order, the design's in canonical order
    assert rng.sample_masks(4, 5, _seed_array([7])).tolist() == [[7, 12, 2, 11, 10]]
    for seed in (-3, 2**64 + 7):
        expected = sorted((Vertex(5, b) for b in sample_masks(5, 9, seed)), key=canonical_sort_key)
        assert sample_random_design(5, 9, seed).vertices == tuple(expected)


def test_sample_masks_equals_reference_for_every_size():
    # every m, both sides of the complement switch, at n <= 6
    seeds = _seed_array(SEEDS)
    for n in range(1, 7):
        for m in range(1, (1 << n) + 1):
            rows = rng.sample_masks(n, m, seeds)
            assert rows.dtype == np.uint64 and rows.shape == (len(SEEDS), m)
            assert rows.tolist() == [sample_row(n, m, s) for s in SEEDS]
            assert [set(r) for r in rows.tolist()] == [sample_masks(n, m, s) for s in SEEDS]


def test_sample_masks_equals_reference_on_trial_batches():
    # the Monte-Carlo shape: n+1 masks per trial seed, 4096 seeds a batch
    for n in range(1, 25):
        seeds = rng.trial_seeds(n, 0, 4096)
        rows = rng.sample_masks(n, n + 1, seeds).tolist()
        assert rows == [sample_row(n, n + 1, s) for s in seeds.tolist()]


def test_sample_masks_equals_reference_for_large_single_seeds():
    for n, m, seed in [(16, 5000, 2024), (13, 6000, -77), (12, 2048, 5)]:
        (row,) = rng.sample_masks(n, m, _seed_array([seed])).tolist()
        assert row == sample_row(n, m, seed)
        assert len(set(row)) == m


def _repeats_within(n, goal, seed):
    """Whether the first goal low-n-bit draws of the seed's stream repeat a value."""
    stream = SplitMix64(seed)
    return len({stream.next_bits(n) for _ in range(goal)}) < goal


@pytest.mark.parametrize("n, m", [(3, 4), (4, 5), (10, 11), (6, 4), (6, 60)])
def test_sample_masks_equals_reference_on_rows_with_and_without_early_repeats(n, m):
    # a row whose first goal draws are distinct is settled by the first
    # round's value sort, the others by the stable de-duplication; at
    # n <= 4 about half the rows repeat, in the n = 10 trial batch about
    # 6%, and (6, 60) is the complement of 4 draws
    goal = min(m, (1 << n) - m)
    seeds = rng.trial_seeds(n + m, 0, 4096)
    rows = rng.sample_masks(n, m, seeds).tolist()
    assert rows == [sample_row(n, m, s) for s in seeds.tolist()]
    repeats = sum(_repeats_within(n, goal, s) for s in seeds.tolist())
    assert 0 < repeats < len(seeds)
