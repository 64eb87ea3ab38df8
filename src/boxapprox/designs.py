"""Construction and certification of measurement designs.

The radius-k Hamming ball is the canonical design that determines every
vertex at order k with the fewest possible measurements, sum over i<=k of
C(n, i); its evaluation matrix, with one column per basis monomial's own
support vertex, is lower triangular with unit diagonal, which certifies
that no smaller design can do the job. Random designs use a documented
seeded generator so sampled results reproduce anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .approx import Design
from .core import (
    MAX_BASIS,
    EvaluationMatrix,
    Vertex,
    _ascending_supports,
    _check_dim,
    basis_size,
    canonical_sort_key,
    check_basis_size,
    check_cube,
    check_order,
    evaluation_matrix,
    make_basis,
)
from .rng import MASK64, sample_masks


def ball_size(n: int, k: int) -> int:
    """Number of vertices with Hamming weight <= k."""
    check_order(n, k)
    return basis_size(n, k)


def generic_size(n: int, k: int) -> int:
    """Points needed for a degree-k polynomial at points in general position.

    Compared with `ball_size(n, k)`, the two counts are equal at k=0 and k=1
    (1 and n+1: a constant or an affine function needs as many points on the
    cube as anywhere else), and the ball is strictly smaller for 2 <= k <= n.
    By Vandermonde, C(n+k, k) = sum(C(n, i) * C(k, i) for i <= k), and
    C(k, i) >= 2 for 0 < i < k.
    """
    check_order(n, k)
    return comb(n + k, k)


def hamming_ball(n: int, k: int) -> Design:
    """All vertices of weight <= k, ordered by weight then x1-first bitstrings."""
    check_basis_size(n, k)
    return Design(n, tuple(Vertex(n, b) for b in _ascending_supports(n, k)))


def tightness_matrix(n: int, k: int) -> EvaluationMatrix:
    """Square evaluation matrix pairing each basis monomial with its own vertex.

    Row order is the canonical basis order; column j is the vertex whose
    support equals row j's monomial. The result is lower triangular with
    ones on the diagonal, hence of full rank sum(C(n, i) for i <= k).
    """
    basis = make_basis(n, k)
    columns = [m.vertex() for m in basis]
    return evaluation_matrix(basis, columns)


def sample_random_design(n: int, m: int, seed: int) -> Design:
    """m distinct vertices, uniform over all C(2^n, m) subsets.

    The vertex masks are the row `rng.sample_masks` draws for the seed
    taken mod 2^64; its documented SplitMix64 algorithm is fixed, so
    reproduce it exactly to match output. Vertices are returned in
    canonical order. Like a Hamming ball, m is capped at MAX_BASIS.
    """
    check_cube(n)
    if not 1 <= m <= min(1 << n, MAX_BASIS):
        raise ValueError(f"design size m={m} outside 1..2^{n}, capped at {MAX_BASIS}")
    (masks,) = sample_masks(n, m, np.array([seed & MASK64], dtype=np.uint64)).tolist()
    vertices = sorted((Vertex(n, b) for b in masks), key=canonical_sort_key)
    return Design(n, tuple(vertices))


@dataclass(frozen=True)
class CountingRow:
    """Measurement counts at one dimension: Hamming ball vs general position."""

    n: int
    k: int
    ball_size: int
    generic_size: int


def counting_table(n_min: int, n_max: int, k: int) -> list[CountingRow]:
    """One row per dimension comparing ball and general-position point counts.

    Each row's `ball_size` equals its `generic_size` when k is 0 or 1, and is
    strictly smaller when k >= 2 (see `generic_size`).
    """
    if n_min > n_max:
        raise ValueError(f"empty dimension range {n_min}..{n_max}")
    _check_dim(n_min)
    _check_dim(n_max)
    check_order(n_min, k)
    return [
        CountingRow(n, k, ball_size(n, k), generic_size(n, k))
        for n in range(n_min, n_max + 1)
    ]
