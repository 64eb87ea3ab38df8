"""Vertices, square-free monomials, and their evaluations on the 0/1 hypercube.

Vertices of the n-cube and square-free monomials in n variables are both
bit-vectors of length n. Coordinate x1 is the leftmost character of the
bitstring form and the most significant bit of the packed integer, so
"1100" with n=4 means x1=1, x2=1, x3=0, x4=0. A monomial is its support
mask, an int in 0 <= s < 2^n (0 is the constant 1), and every function
here takes it as such. It evaluates to 1 at a vertex exactly when its
support is contained in the vertex mask, so the evaluation rows of many
vertices are one array operation (`_evaluation_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

MAX_DIM = 64
FULL_ENUM_MAX_DIM = 24
# Largest monomial basis (and Hamming ball) built: all of n <= 20, or
# n = 64 up to degree 4. Checked before anything is enumerated.
MAX_BASIS = 1 << 20
# Largest rank test an answer starts, in units of basis size x design size x
# the smaller of the two (2^28, about 2.7e8), checked before any elimination.
# It was sized for exact Bareiss elimination; answers now factor mod p, lift,
# check and retry on a new prime instead, and it stands until measured anew.
MAX_ELIMINATION_WORK = 1 << 28
# Largest `designs.tightness_matrix`, in entries (about 1 GB while built); refused before building
MAX_EVALUATION_ENTRIES = 1 << 26
# Python's default int-string conversion limit, for value literals and --decimal
MAX_DIGITS = 4300


def _exact_pair(text: str) -> tuple[int, int]:
    """Integers (p, q), q > 0, with p/q the exact value of a literal, as Fraction reads it.

    The one parser of value literals: 'p/q', integer and plain-decimal ones
    are split by int(), which reads a sign, digits and single underscores as
    Fraction does once each part ends at its '/' or '.' on a digit. Others
    go through Fraction once their text passes the cap of MAX_DIGITS
    mantissa digits plus |exponent|: Fraction("1e4000000") takes seconds.
    """
    s = text.strip()
    if len(s) <= MAX_DIGITS:
        try:
            if "/" in s:
                head, _, tail = s.partition("/")
                if head[-1:].isdecimal() and tail[:1].isdecimal() and (q := int(tail)):
                    return int(head), q
            else:
                head, _, tail = s.partition(".")
                if (not tail or tail[0].isdecimal()) and (
                    head[-1:].isdecimal() or head in ("", "+", "-")
                ):
                    return int(head + tail), 10 ** (len(tail) - tail.count("_"))
        except ValueError:
            pass
    mantissa, _, exponent = s.lower().partition("e")
    # five significant exponent digits already pass the cap
    exponent = exponent.lstrip("+-").lstrip("0")[:5]
    digits = sum(map(str.isdecimal, mantissa)) + (int(exponent) if exponent.isdecimal() else 0)
    if digits > MAX_DIGITS:
        raise ValueError(f"value literal needs more than {MAX_DIGITS} digits")
    try:
        x = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse {text!r} as an exact value: {exc}") from None
    return x.numerator, x.denominator


def _value_pair(x: Fraction | int | str) -> tuple[int, int]:
    """(p, q) of one value, Python ints: a literal through `_exact_pair`, else as Fraction reads it."""
    if isinstance(x, str):
        return _exact_pair(x)
    # Fraction keeps a numpy integer as its numerator, where int64 arithmetic wraps
    x = x if isinstance(x, (int, Fraction)) else Fraction(x)
    return int(x.numerator), int(x.denominator)


def _over_lcm(pairs: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """The values p/q of the pairs as integers over one scale, the lcm of the q, and that scale."""
    scale = lcm(*(q for _, q in pairs))
    return [p * (scale // q) for p, q in pairs], scale


def _check_dim(n: int) -> None:
    if not isinstance(n, int) or n < 1 or n > MAX_DIM:
        raise ValueError(f"dimension must be an integer in [1, {MAX_DIM}], got {n!r}")


@dataclass(frozen=True)
class Vertex:
    """A point of {0,1}^n packed into an integer, x1 at the most significant bit."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        _check_dim(self.n)
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bits {self.bits!r} out of range for dimension {self.n}")

    @classmethod
    def from_bitstring(cls, text: str) -> "Vertex":
        if not text or text.strip("01"):
            raise ValueError(f"bitstring must be a nonempty run of 0/1 characters, got {text!r}")
        return cls(len(text), int(text, 2))

    @classmethod
    def from_coords(cls, coords: Sequence[int]) -> "Vertex":
        bits = 0
        for c in coords:
            if c not in (0, 1):
                raise ValueError(f"coordinates must be 0 or 1, got {c!r}")
            bits = (bits << 1) | c
        return cls(len(coords), bits)

    def bitstring(self) -> str:
        return format(self.bits, f"0{self.n}b")

    def coords(self) -> tuple[int, ...]:
        return tuple((self.bits >> (self.n - 1 - i)) & 1 for i in range(self.n))

    def weight(self) -> int:
        return self.bits.bit_count()

    def __str__(self) -> str:
        return self.bitstring()


def _vertices(n: int, masks: Iterable[int]) -> tuple[Vertex, ...]:
    """The vertices of n-bit masks the caller has checked, built past `Vertex.__post_init__`."""
    new = object.__new__
    out = []
    for bits in masks:
        v = new(Vertex)
        v.__dict__.update(n=n, bits=bits)
        out.append(v)
    return tuple(out)


def weight_masks(n: int, d: int) -> Iterator[int]:
    """Every n-bit mask of weight d, descending as packed integers (x1 first)."""
    # combinations() keeps input order, so drawing from the single bits
    # x1 (most significant) first yields the sums in decreasing order.
    return map(sum, combinations([1 << (n - 1 - i) for i in range(n)], d))


def subset_transform(a: np.ndarray, n: int, inverse: bool = False) -> None:
    """In place over the n-cube indexed by packed mask: a[S] <- sum of a[T] over T within S.

    That is the zeta transform; with `inverse` it is the Moebius transform,
    each term signed (-1)^|S - T|. One coordinate at a time (Yates), so
    O(n * 2^n) additions in the array's own dtype. `a` must be a contiguous
    array of length 2^n, so that its reshapes are views.
    """
    for i in range(n):
        # axis 1 is bit i of the mask: [:, 1] holds the sets containing it
        pairs = a.reshape(-1, 2, 1 << i)
        if inverse:
            pairs[:, 1] -= pairs[:, 0]
        else:
            pairs[:, 1] += pairs[:, 0]


def basis_size(n: int, k: int) -> int:
    """Number of square-free monomials of degree at most k in n variables."""
    return sum(comb(n, i) for i in range(k + 1))


def check_order(n: int, k: int) -> None:
    """Reject an order k (a degree bound or a ball radius) outside 0..n."""
    if not 0 <= k <= n:
        raise ValueError(f"order k={k} outside 0..{n}")


def check_cube(n: int) -> None:
    """Reject a dimension whose whole cube is too large to enumerate, before any work."""
    _check_dim(n)
    if n > FULL_ENUM_MAX_DIM:
        raise ValueError(f"full-cube enumeration is capped at n={FULL_ENUM_MAX_DIM}")


def check_basis_size(n: int, k: int) -> None:
    """Reject a bad dimension, an order outside 0..n, or a basis (or ball) above MAX_BASIS."""
    _check_dim(n)
    check_order(n, k)
    size = basis_size(n, k)
    if size > MAX_BASIS:
        raise ValueError(
            f"n={n}, k={k} needs {size} monomials or ball vertices, above the cap of {MAX_BASIS}"
        )


def check_elimination_work(n: int, k: int, m: int) -> None:
    """Reject a rank test of m vertices at order k above MAX_ELIMINATION_WORK.

    The estimate is basis size x m x min(basis size, m), the cost of
    eliminating the evaluation matrix; it bounds time where MAX_BASIS
    bounds memory, and the order and basis size are checked first.
    """
    check_basis_size(n, k)
    size = basis_size(n, k)
    work = size * m * min(size, m)
    if work > MAX_ELIMINATION_WORK:
        raise ValueError(
            f"n={n}, k={k} with {m} vertices needs about {work:.2e} elimination steps,"
            f" above the cap of {MAX_ELIMINATION_WORK:.2e}"
        )


def _ascending_supports(n: int, k: int) -> list[int]:
    """The supports of the monomials of degree <= k in degree blocks, degree 0 first.

    Each block is `weight_masks(n, d)`, so the first basis_size(n, j)
    supports are those of degree <= j, for every j <= k.
    """
    return [support for d in range(k + 1) for support in weight_masks(n, d)]


@dataclass(frozen=True)
class MultilinearPolynomial:
    """A rational linear combination of square-free monomials, keyed by support mask."""

    n: int
    terms: Mapping[int, Fraction]

    def __post_init__(self) -> None:
        _check_dim(self.n)
        cleaned: dict[int, Fraction] = {}
        for support, coeff in self.terms.items():
            if not isinstance(support, int) or not 0 <= support < (1 << self.n):
                raise ValueError(f"support {support!r} out of range for dimension {self.n}")
            c = Fraction(*_value_pair(coeff))
            if c != 0:
                cleaned[support] = c
        object.__setattr__(self, "terms", cleaned)

    def degree(self) -> int:
        return max((s.bit_count() for s in self.terms), default=0)

    def __bool__(self) -> bool:
        return bool(self.terms)


def eval_polynomial(p: MultilinearPolynomial, v: Vertex) -> Fraction:
    """Sum of coefficients over the terms whose support is contained in v."""
    if p.n != v.n:
        raise ValueError(f"dimension mismatch: polynomial n={p.n}, vertex n={v.n}")
    bits = v.bits
    return sum((c for s, c in p.terms.items() if (s & bits) == s), Fraction(0))


def reduce_multilinear(
    terms: Iterable[tuple[Sequence[int], Fraction | int]], n: int
) -> MultilinearPolynomial:
    """Reduce arbitrary-exponent terms to the square-free basis.

    Each term is (exponents, coefficient) with one nonnegative exponent per
    variable. On 0/1 coordinates x^e equals x for every e >= 1, so exponents
    clamp to at most one and like terms merge. The result takes the same
    value as the input at every vertex.
    """
    _check_dim(n)
    merged: dict[int, Fraction] = {}
    for exponents, coeff in terms:
        if len(exponents) != n:
            raise ValueError(f"expected {n} exponents, got {len(exponents)}")
        support = 0
        for i, e in enumerate(exponents):
            if e < 0:
                raise ValueError(f"negative exponent {e} for variable x{i + 1}")
            if e > 0:
                support |= 1 << (n - 1 - i)
        merged[support] = merged.get(support, Fraction(0)) + Fraction(*_value_pair(coeff))
    return MultilinearPolynomial(n, merged)


def _evaluation_rows(supports: Sequence[int], masks: Sequence[int]) -> np.ndarray:
    """Each vertex mask's values of the monomials with these supports as one row of a 0/1 int64 array."""
    bits = np.array(masks, dtype=np.uint64)[:, None]
    supports = np.array(supports, dtype=np.uint64)
    return ((bits & supports) == supports).astype(np.int64)


def canonical_masks(n: int) -> np.ndarray:
    """Every n-bit mask in canonical order (weight, then x1-first), as one array.

    One lexsort on (weight, -mask).
    """
    check_cube(n)
    weights = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        # the masks in [2^i, 2^(i+1)) are those below 2^i with bit i added
        weights[1 << i : 2 << i] = weights[: 1 << i] + 1
    # int32 holds every mask up to the cap, at half the memory of int64
    return np.lexsort((-np.arange(1 << n, dtype=np.int32), weights))


def all_vertices(n: int) -> list[Vertex]:
    """Every vertex of the n-cube in canonical order (weight, then x1-first)."""
    return [Vertex(n, b) for b in canonical_masks(n).tolist()]
