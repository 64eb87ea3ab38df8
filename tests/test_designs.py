import math
import random

import pytest

from boxapprox import core, designs
from boxapprox.approx import covers_all
from boxapprox.core import MAX_BASIS, MAX_EVALUATION_ENTRIES
from boxapprox.designs import (
    ball_size,
    counting_table,
    generic_size,
    hamming_ball,
    sample_random_design,
    tightness_matrix,
)
from reference_linalg import rank_rational


def test_hamming_ball_order_and_size():
    ball = hamming_ball(3, 1)
    assert [v.bitstring() for v in ball.vertices] == ["000", "100", "010", "001"]
    assert hamming_ball(12, 2).size == 79
    assert hamming_ball(12, 3).size == 299
    assert hamming_ball(3, 3).size == 8
    with pytest.raises(ValueError):
        hamming_ball(3, 4)
    with pytest.raises(ValueError):
        hamming_ball(3, -1)


def test_hamming_ball_rejects_huge_radius_before_enumerating():
    with pytest.raises(ValueError, match="cap"):
        hamming_ball(64, 30)


def test_hamming_ball_covers_its_order():
    for n in range(1, 9):
        for k in range(n):
            assert covers_all(hamming_ball(n, k), k) is True


def test_tightness_matrix_trivial():
    mat = tightness_matrix(1, 0)
    assert mat.entries == ((1,),)


def test_tightness_matrix_3_3():
    mat = tightness_matrix(3, 3)
    assert mat.shape == (8, 8)
    for i, row in enumerate(mat.entries):
        assert row[i] == 1
        assert all(x == 0 for x in row[i + 1 :])
    assert rank_rational(mat.entries) == 8


def test_tightness_matrix_triangular_full_rank():
    for n in range(1, 9):
        for k in range(n + 1):
            mat = tightness_matrix(n, k)
            size = ball_size(n, k)
            assert mat.shape == (size, size)
            for i, row in enumerate(mat.entries):
                assert row[i] == 1
                assert all(x == 0 for x in row[i + 1 :])
            assert rank_rational(mat.entries) == size


def test_tightness_matrix_above_the_entry_cap_is_refused_before_it_is_built(monkeypatch):
    # 21,700 monomials pass MAX_BASIS, but their 4.7e8 entries would take
    # about 7.5 GB while they were built
    monkeypatch.setattr(core, "_evaluation_rows", lambda *args: pytest.fail("built"))
    with pytest.raises(ValueError, match="entries, above the cap"):
        tightness_matrix(20, 5)
    assert ball_size(14, 5) ** 2 <= MAX_EVALUATION_ENTRIES < ball_size(20, 5) ** 2


def test_sample_random_design_deterministic():
    a = sample_random_design(3, 4, 7)
    b = sample_random_design(3, 4, 7)
    assert a == b
    c = sample_random_design(3, 4, 8)
    assert a != c


def test_sample_random_design_full_set():
    d = sample_random_design(3, 8, 123)
    assert sorted(v.bits for v in d.vertices) == list(range(8))


def test_sample_random_design_validation():
    with pytest.raises(ValueError):
        sample_random_design(3, 0, 1)
    with pytest.raises(ValueError):
        sample_random_design(3, 9, 1)
    with pytest.raises(ValueError):
        sample_random_design(25, 2, 1)


def test_sample_random_design_refuses_more_than_max_basis_before_sampling(monkeypatch):
    # 2^23 vertices took 42 s and 2.4 GB before the cap; it is refused before any draw
    monkeypatch.setattr(designs, "sample_masks", lambda *args: pytest.fail("sampled"))
    for m in (MAX_BASIS + 1, 1 << 23, 16_000_000):
        with pytest.raises(ValueError, match="cap"):
            sample_random_design(24, m, 1)


def test_sample_random_design_distinct_and_in_range():
    rng = random.Random(55)
    for _ in range(50):
        n = rng.randrange(1, 7)
        m = rng.randrange(1, (1 << n) + 1)
        d = sample_random_design(n, m, rng.randrange(1 << 32))
        bits = [v.bits for v in d.vertices]
        assert len(set(bits)) == m
        assert all(0 <= b < (1 << n) for b in bits)


def test_sample_random_design_uniform_frequencies():
    # 10^5 draws of 4-subsets of the 3-cube: each vertex appears Binomial(T, 1/2)
    n, m, draws = 3, 4, 100_000
    counts = [0] * (1 << n)
    for i in range(draws):
        for v in sample_random_design(n, m, i).vertices:
            counts[v.bits] += 1
    expect = draws * m / (1 << n)
    sigma = math.sqrt(draws * 0.5 * 0.5)
    for c in counts:
        assert abs(c - expect) <= 3 * sigma
    # chi-square against the uniform marginal, 99.9% quantile for df=7 is 24.32
    chi2 = sum((c - expect) ** 2 / expect for c in counts)
    assert chi2 < 24.32


def test_counting_table_examples():
    rows = counting_table(12, 12, 2)
    assert (rows[0].ball_size, rows[0].generic_size) == (79, 91)
    rows = counting_table(12, 12, 3)
    assert (rows[0].ball_size, rows[0].generic_size) == (299, 455)
    row = counting_table(5, 5, 5)[0]
    assert row.ball_size == 32
    assert row.generic_size == math.comb(10, 5)


def test_counting_table_range_and_validation():
    rows = counting_table(4, 8, 4)
    assert [r.n for r in rows] == [4, 5, 6, 7, 8]
    assert all(r.k == 4 for r in rows)
    with pytest.raises(ValueError):
        counting_table(5, 4, 2)
    with pytest.raises(ValueError):
        counting_table(3, 5, 4)
    assert counting_table(64, 64, 4)[0].ball_size == sum(math.comb(64, i) for i in range(5))
    for lo, hi in ((0, 5), (4, 65)):
        with pytest.raises(ValueError, match="dimension"):
            counting_table(lo, hi, 0)


def test_ball_never_larger_than_generic():
    for n in range(1, 30):
        for k in range(n + 1):
            b, g = ball_size(n, k), generic_size(n, k)
            assert b <= g
            if k >= 2 and k < n:
                assert b < g
            if k in (0, 1):
                # equality holds at orders 0 and 1: 1 = 1 and n+1 = n+1
                assert b == g
