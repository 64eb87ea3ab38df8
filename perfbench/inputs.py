"""Seeded input generation and reference arithmetic for the benchmark.

Nothing here imports boxapprox: inputs come from a stdlib
``random.Random`` seeded with the workload name and seed, and every
expected value is computed with the benchmark's own code (subset sums
for polynomial values, a rank modulo a prime for coverage, closed forms
for the probability tables).
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

PRIME = 2147483647  # 2^31 - 1; products of two residues fit in int64

# prob_real_exhaustive(n) for n = 1..4, from a brute-force affine-rank count
# over all (n+1)-subsets of the n-cube: 1/1, 4/4, 58/70 and 3008/4368.
EXACT_PROBABILITIES = {1: Fraction(1), 2: Fraction(1), 3: Fraction(29, 35), 4: Fraction(188, 273)}


def bitstring(mask: int, n: int) -> str:
    """The file spelling of a vertex: leftmost character is x1, the top bit."""
    return format(mask, f"0{n}b")


def supports(n: int, k: int) -> list[int]:
    """Masks of the square-free monomials of degree <= k."""
    out = []
    for d in range(k + 1):
        for idx in combinations(range(n), d):
            m = 0
            for i in idx:
                m |= 1 << (n - 1 - i)
            out.append(m)
    return out


def ball(n: int, k: int) -> list[int]:
    """Vertices of Hamming weight <= k (the same masks as the supports)."""
    return supports(n, k)


def rank_mod_p(rows: list[list[int]]) -> int:
    """Rank modulo PRIME. It never exceeds the rank over the rationals, so a
    full rank here certifies full rank over Q."""
    a = np.array(rows, dtype=np.int64) % PRIME
    nrows, ncols = a.shape
    rank = 0
    for c in range(ncols):
        if rank == nrows:
            break
        nz = np.flatnonzero(a[rank:, c])
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, c]), PRIME - 2, PRIME)
        a[rank] = a[rank] * inv % PRIME
        below = a[rank + 1 :, c].copy()
        a[rank + 1 :] = (a[rank + 1 :] - below[:, None] * a[rank][None, :]) % PRIME
        rank += 1
    return rank


def coverage_rank(design: list[int], n: int, k: int) -> int:
    """Rank mod PRIME of the degree-<=k evaluation matrix of a design."""
    rows = [[1 if (s & v) == s else 0 for v in design] for s in supports(n, k)]
    return rank_mod_p(rows)


def poly_values(coeffs: dict[int, Fraction], n: int) -> list[Fraction]:
    """Value at every vertex of sum(c_s * prod_{i in s} x_i): a subset-sum
    (zeta) transform over the cube, one coordinate at a time."""
    f = [Fraction(0)] * (1 << n)
    for s, c in coeffs.items():
        f[s] = c
    for i in range(n):
        bit = 1 << i
        for mask in range(1 << n):
            if mask & bit:
                f[mask] += f[mask ^ bit]
    return f


def f2_probability(n: int) -> Fraction:
    """Closed-form GF(2) probability that n+1 random vertices are affinely
    independent: (2^n)_(n+1) over GF(2) flags divided by ordered draws."""
    q = 1 << n
    num = q
    for i in range(n):
        num *= q - (1 << i)
    den = 1
    for m in range(n + 1):
        den *= q - m
    return Fraction(num, den)


def render(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class Generator:
    """Writes one workload's input files and records what each one is."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.rng = random.Random(f"boxapprox-bench/{workload}/{seed}")
        self.workdir = workdir
        self.inputs: list[dict] = []

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def int_poly(self, n: int, k: int) -> dict[int, Fraction]:
        return {s: Fraction(self.rng.randint(-9, 9)) for s in supports(n, k)}

    # Denominators come from one small set, so the size of the fractions a
    # prediction combines, and with it the time, does not swing with the seed.
    DENOMINATORS = (1, 2, 3, 4, 5, 7, 8, 10, 12)

    def rational_poly(self, n: int, k: int) -> dict[int, Fraction]:
        return {
            s: Fraction(self.rng.randint(-40, 40), self.rng.choice(self.DENOMINATORS))
            for s in supports(n, k)
        }

    def noise(self, count: int) -> list[Fraction]:
        return [
            Fraction(self.rng.randint(-999, 999), self.rng.choice(self.DENOMINATORS))
            for _ in range(count)
        ]

    def value_text(self, x: Fraction) -> str:
        """Exact literal for x; terminating fractions are sometimes written as
        decimals, which the parser also reads exactly."""
        if x.denominator in (2, 4, 5, 8, 10) and self.rng.random() < 0.5:
            scaled = x.numerator * (1000 // x.denominator)
            sign = "-" if scaled < 0 else ""
            return f"{sign}{abs(scaled) // 1000}.{abs(scaled) % 1000:03d}"
        return render(x)

    def random_design(self, n: int, m: int, exclude: int = 0) -> list[int]:
        """m distinct vertices, none containing every coordinate of `exclude`."""
        chosen: set[int] = set()
        while len(chosen) < m:
            v = self.rng.getrandbits(n)
            if exclude == 0 or (v & exclude) != exclude:
                chosen.add(v)
        return sorted(chosen)

    def covering_design(self, n: int, m: int, k: int, exclude: int = 0, rank: int | None = None) -> list[int]:
        """Redraw until the degree-<=k evaluation matrix has rank `rank` mod
        PRIME (default: full row rank, which certifies full rank over Q)."""
        want = len(supports(n, k)) if rank is None else rank
        while True:
            design = self.random_design(n, m, exclude)
            if coverage_rank(design, n, k) == want:
                return design

    def write_design(self, name: str, design: list[int], n: int, k: int, rank_status: str) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"# benchmark design n={n} m={len(design)}\n")
            for v in design:
                handle.write(bitstring(v, n) + "\n")
        self.inputs.append(
            {"file": name, "n": n, "k": k, "m": len(design), "values": "none", "rank": rank_status}
        )
        return path

    def write_table(
        self, name: str, design: list[int], values: list[Fraction], n: int, k: int,
        kind: str, rank_status: str,
    ) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("vertex,value\n")
            for v, x in zip(design, values):
                handle.write(f"{bitstring(v, n)},{self.value_text(x)}\n")
        self.inputs.append(
            {"file": name, "n": n, "k": k, "m": len(design), "values": kind, "rank": rank_status}
        )
        return path


def expected_map(values: list[Fraction], n: int) -> dict[str, str]:
    return {bitstring(v, n): render(x) for v, x in enumerate(values)}


def dim(n: int, k: int) -> int:
    return sum(comb(n, i) for i in range(k + 1))
