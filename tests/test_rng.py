import numpy as np
import pytest

from boxapprox.designs import sample_random_design
from boxapprox.probability import _mix64_np, _sample_bits_numpy
from boxapprox.rng import GOLDEN, MASK64, SplitMix64, mix64, sample_masks, trial_seed


def test_splitmix64_reference_vector():
    # first outputs for seed 0, from the published reference implementation
    stream = SplitMix64(0)
    assert stream.next_u64() == 0xE220A8397B1DCDAF
    assert stream.next_u64() == 0x6E789E6AA1B965F4
    assert stream.next_u64() == 0x06C45D188009454F


def test_seed_wraps_to_64_bits():
    assert SplitMix64(1 << 70).next_u64() == SplitMix64(0).next_u64()
    assert SplitMix64(-1).state == MASK64


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
    with pytest.raises(ValueError):
        trial_seed(master, -1)


def test_numpy_mix_matches_python():
    values = np.array([0, 1, GOLDEN, MASK64, 0xDEADBEEF], dtype=np.uint64)
    mixed = _mix64_np(values)
    assert [int(x) for x in mixed] == [mix64(int(v)) for v in values]


def test_sample_masks_golden_values():
    # values of the sampler loop as first written in designs and probability
    assert sample_masks(4, 5, 7) == {2, 12, 10, 11, 7}
    assert sample_masks(4, 12, 7) == {0, 8, 4, 1, 10, 9, 6, 5, 3, 14, 13, 15}
    assert sorted(sample_masks(6, 7, 99)) == [3, 23, 35, 36, 51, 52, 59]
    assert sample_masks(3, 8, 1) == set(range(8))


def test_sample_masks_feeds_design_and_matches_numpy_batch():
    assert [v.bits for v in sample_random_design(4, 5, 7).vertices] == [2, 12, 10, 11, 7]
    master = 31337
    seeds = np.array([trial_seed(master, i) for i in range(40)], dtype=np.uint64)
    # n = 1 and n = 2 draw the complement subset
    for n, m in [(10, 11), (1, 2), (2, 3)]:
        batch = _sample_bits_numpy(n, m, seeds)
        for seed, row in zip(seeds, batch):
            assert sample_masks(n, m, int(seed)) == {int(b) for b in row}
