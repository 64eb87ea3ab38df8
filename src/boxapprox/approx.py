"""Deciding and computing vertex-value approximations from partial measurements.

A design is a set of measured vertices. A target vertex t is determinable
from a design S at order k when the values of every polynomial of degree
at most k on S force its value at t; over the square-free basis this is
exactly the condition that the degree-<=k evaluation vector of t lies in
the rational span of the evaluation vectors of S. Predictions are the
corresponding linear combinations of the measurements, computed exactly
from the design's integer numerators over one scale.

Every answer builds its evaluation rows through `_design_rows`, one
column per monomial in ascending degree, so each lower order's rows are a
leading block of the same matrix. The canonical coefficients, the
determined set and the predictions on it do not depend on that order.

A second route exists for Hamming-ball designs. Inside any subcube the
alternating sum of a polynomial of lower degree over the vertices
vanishes (`lemma_reconstruct`), which says its Moebius coefficient there
is zero. `complete_from_ball` therefore Moebius-transforms the ball values
over the cube, drops the coefficients above degree k and zeta-transforms
back, in O(n * 2^n) integer additions; the result equals the level-by-level
alternating-sum recursion on every input and agrees exactly with the
linear-algebra route.

Both cube-wide answers, `approximate_all` and `complete_from_ball`, return
a `CubeTable`: the transform's integer array over one denominator, read as
a mapping from vertices to values.

Whether a design determines the whole cube is decided for every order at
once by `_covered_order`, behind `covers_all` and the CLI's `check`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import (
    Vertex,
    _ascending_supports,
    _evaluation_rows,
    _over_lcm,
    _value_pair,
    _vertices,
    all_vertices,
    basis_size,
    canonical_masks,
    check_cube,
    check_elimination_work,
    check_order,
    subset_transform,
)
from .linalg import ModularEchelon


class NotDeterminableError(Exception):
    """The requested vertex is not determined by the design at the given order."""


class BallMismatchError(ValueError):
    """Measured vertices are not exactly the required Hamming ball."""

    def __init__(self, missing: list[str], extra: list[str]):
        self.missing = missing
        self.extra = extra
        parts = []
        if missing:
            parts.append(f"missing {len(missing)} ball vertices: {', '.join(missing[:8])}"
                         + ("..." if len(missing) > 8 else ""))
        if extra:
            parts.append(f"{len(extra)} vertices outside the ball: {', '.join(extra[:8])}"
                         + ("..." if len(extra) > 8 else ""))
        super().__init__("; ".join(parts) or "ball mismatch")


@dataclass(frozen=True, init=False)
class Design:
    """Distinct measured vertices, optionally with their exact values.

    The vertices are stored once, as the tuple `masks` of their packed
    masks in order; `vertices` builds the `Vertex` tuple from them when
    first read. The values are stored once, value i as numerators[i] /
    scale with the scale the lcm of their reduced denominators. They are
    given as Fractions, ints or literals (`values`), or as integers over
    any common scale > 0 (`numerators`, `scale`), reduced here; `values`
    reads them as Fractions. Every constructor goes through `_from_masks`,
    this one after checking each vertex's dimension.
    """

    n: int
    masks: tuple[int, ...]
    numerators: Optional[tuple[int, ...]]
    scale: int

    def __init__(self, n: int, vertices: Iterable[Vertex], values=None, *, numerators=None, scale=1):
        vertices = tuple(vertices)
        for v in vertices:
            if v.n != n:
                raise ValueError(f"vertex {v} has dimension {v.n}, expected {n}")
        design = _from_masks(n, [v.bits for v in vertices], values, numerators=numerators, scale=scale)
        self.__dict__.update(design.__dict__)

    @cached_property
    def vertices(self) -> tuple[Vertex, ...]:
        """The vertices in order, built from `masks` on first read."""
        return _vertices(self.n, self.masks)

    @classmethod
    def from_bitstrings(cls, bitstrings: Sequence[str], values=None) -> "Design":
        vertices = tuple(Vertex.from_bitstring(s) for s in bitstrings)
        return cls(vertices[0].n if vertices else 0, vertices, values)

    @property
    def values(self) -> Optional[tuple[Fraction, ...]]:
        """The measured values as Fractions, or None for a design without them."""
        nums = self.numerators
        return None if nums is None else tuple(Fraction(a, self.scale) for a in nums)

    @property
    def size(self) -> int:
        return len(self.masks)

    def with_values(self, values: Sequence[Fraction | int | str]) -> "Design":
        return _from_masks(self.n, self.masks, values)

    def value_map(self) -> dict[Vertex, Fraction]:
        if self.numerators is None:
            raise ValueError("design carries no measured values")
        return dict(zip(self.vertices, self.values))

    def __contains__(self, v: Vertex) -> bool:
        return isinstance(v, Vertex) and v.n == self.n and v.bits in self._members


def _from_masks(n: int, masks: Iterable[int], values=None, *, numerators=None, scale=1) -> Design:
    """The design of n-bit vertex masks in their order, with its values: the door of every constructor.

    The caller has checked that each mask is n bits wide. Here, once, the
    masks are checked distinct and counted against the values, and the
    values are put over the lcm of their reduced denominators.
    """
    masks = tuple(masks)
    if not masks:
        raise ValueError("a design must contain at least one vertex")
    members = frozenset(masks)
    if len(members) != len(masks):
        raise ValueError("design vertices must be distinct")
    if values is not None:
        numerators, scale = _over_lcm([_value_pair(x) for x in values])
    if scale < 1:
        raise ValueError(f"scale must be a positive integer, got {scale}")
    if numerators is not None:
        if len(numerators) != len(masks):
            raise ValueError(f"{len(numerators)} values for {len(masks)} vertices")
        # the lcm of the reduced denominators of a_i / s is s / gcd(s, a_1, ..., a_m)
        g = gcd(scale, *numerators)
        numerators, scale = tuple(a // g for a in numerators), scale // g
    design = object.__new__(Design)
    # frozen: set past __setattr__; _members is no field, so equality and hashing skip it
    design.__dict__.update(n=n, masks=masks, numerators=numerators, scale=scale, _members=members)
    return design


class CubeTable(Mapping):
    """A read-only map from every vertex of the n-cube to its value, held as arrays.

    The value at the vertex with packed mask b is numerators[b] / denominator,
    or None where `determined` is given and determined[b] is False; the
    numerators are int64, or Python ints in an object array. A `Vertex` or a
    `Fraction` is built only when an entry is read. Iteration follows the
    canonical order of `canonical_masks`, and the table equals the dict with
    the same items.
    """

    __slots__ = ("n", "numerators", "denominator", "determined")

    def __init__(
        self, n: int, numerators: np.ndarray, denominator: int, determined: Optional[np.ndarray] = None
    ):
        self.n = n
        self.numerators = numerators
        self.denominator = denominator
        self.determined = determined

    def __getitem__(self, v: Vertex) -> Optional[Fraction]:
        if not isinstance(v, Vertex) or v.n != self.n:
            raise KeyError(v)
        if self.determined is not None and not self.determined[v.bits]:
            return None
        return Fraction(int(self.numerators[v.bits]), self.denominator)

    def __iter__(self):
        n = self.n
        return (Vertex(n, b) for b in canonical_masks(n).tolist())

    def __len__(self) -> int:
        return len(self.numerators)


def _design_rows(design: Design, k: int) -> tuple[list[int], np.ndarray]:
    """The supports of the monomials of degree <= k, degree 0 first, and the design's rows on them.

    Every answer builds its evaluation rows here, one row per design vertex
    and one column per support (`_ascending_supports`). With the columns in
    ascending degree, the rows of each order j <= k are the first
    basis_size(n, j) columns: every order's matrix is a leading block of
    this one. Targets take the same columns through `_evaluation_rows`. An
    order outside 0..n, or an elimination above the work cap, is refused
    before anything is built.
    """
    check_elimination_work(design.n, k, design.size)
    supports = _ascending_supports(design.n, k)
    return supports, _evaluation_rows(supports, design.masks)


def _check_target(design: Design, t: Vertex) -> None:
    if t.n != design.n:
        raise ValueError(f"target dimension {t.n} != design dimension {design.n}")


def _target_system(design: Design, t: Vertex, k: int) -> tuple[ModularEchelon, list[int]]:
    """The design's evaluation rows eliminated mod p for t's row, and that row on the same columns.

    The factor carries t's row last (`ModularEchelon`'s target), so it
    stops at the first column that row would pivot.
    """
    _check_target(design, t)
    supports, rows = _design_rows(design, k)
    target = _evaluation_rows(supports, [t.bits])[0].tolist()
    return ModularEchelon(rows, target=target), target


def determinable(design: Design, t: Vertex, k: int) -> bool:
    """Whether values of any degree-<=k polynomial on the design fix its value at t.

    A design vertex is always determined: its own row is in the span. Other
    targets are answered by `ModularEchelon.contains` from the factor
    stopped for t's row: full rank mod p says yes for every t, and
    otherwise the certificates of `approximate_value` decide.
    """
    _check_target(design, t)
    check_order(design.n, k)
    if t in design:
        return True
    echelon, target = _target_system(design, t, k)
    return echelon.contains(target)


def degree_of_approximation(design: Design, t: Vertex) -> int:
    """The largest k in [0, n] at which t is determinable from the design.

    Well-defined because determinability is downward closed in k. Membership
    in the design is the only way to reach k = n, since the full square-free
    basis separates all 2^n vertices. Orders are tested upward and a certified
    "no" ends the search; one above the elimination work cap raises ValueError.
    """
    _check_target(design, t)
    n = design.n
    if t in design:
        return n
    k = 0
    while k + 1 < n and determinable(design, t, k + 1):
        k += 1
    return k


def approximate_value(design: Design, t: Vertex, k: int) -> Fraction:
    """Predict the value at t from measured values, exactly, at order k.

    The prediction is sum(a_i * f(v_i)) for the canonical coefficients that
    express t's evaluation vector through the design's. It equals the true
    value whenever the measurements come from a polynomial of degree <= k.
    One factor of the design's rows, carrying t's row last, decides. Where
    t's row would pivot, the elimination stops, and that column's kernel
    vector, lifted and checked, is a polynomial vanishing on the design but
    not at t: the refusal. A factor that runs to the end gives the
    coefficients by a checked p-adic solve, as integers over one d. They
    meet the design's numerators in one integer dot product over d times
    its scale.
    """
    if design.numerators is None:
        raise ValueError("design carries no measured values")
    echelon, target = _target_system(design, t, k)
    solution = echelon._solution(target)
    if solution is None:
        raise NotDeterminableError(f"vertex {t} is not determinable at order {k}")
    rows, nums, d = solution
    return Fraction(sum(map(mul, nums, [design.numerators[i] for i in rows])), d * design.scale)


def prediction_coefficients(design: Design, k: int) -> dict[Vertex, Optional[list[Fraction]]]:
    """Canonical combination coefficients for every vertex of the cube.

    Each entry is exactly the coefficient list `ModularEchelon.solve`
    would return for that target alone, or None where it is outside the
    span: design vertex i's coefficient at t is the prediction at t from
    the unit measurement e_i, read from `_cube_fits` of every e_i. One
    table serves any number of value sets.
    """
    # the refusals of `_cube_fits`, before the unit vectors are built
    check_cube(design.n)
    check_elimination_work(design.n, k, design.size)
    fits, determined = _cube_fits(design, k, np.eye(design.size, dtype=np.int64).tolist())
    masks = np.flatnonzero(determined)
    zero = Fraction(0)
    columns = [[Fraction(v, d) if v else zero for v in fit[masks].tolist()] for fit, d in fits]
    coeffs = dict(zip(masks.tolist(), map(list, zip(*columns))))
    return {v: coeffs.get(v.bits) for v in all_vertices(design.n)}


def _cube_transform(
    n: int, k: int, masks: Sequence[int], values: Sequence[int], inverse: bool = False
) -> np.ndarray:
    """The integer values at masks of the n-cube, zero elsewhere, zeta (or Moebius) transformed.

    In int64 where `_transform_dtype` allows it for degree k, else in Python ints.
    """
    a = np.zeros(1 << n, dtype=_transform_dtype(max(map(abs, values)), n, k))
    a[masks] = values
    subset_transform(a, n, inverse)
    return a


def _cube_fits(design: Design, k: int, values: list[list[int]]) -> tuple[list, np.ndarray]:
    """Per integer value vector, (its predictions at every vertex, d); and the determined mask.

    One `ModularEchelon.fit` fits every vector on the pivot vertices. Each
    fit, and each kernel polynomial (vanishing on the design), is read at
    every vertex by one zeta transform; t is determined exactly when
    every kernel polynomial vanishes there.
    """
    check_cube(design.n)
    supports, rows = _design_rows(design, k)
    fits, kernel = ModularEchelon(rows).fit(values)

    def at_vertices(cols: list[int], coeffs: list[int]) -> np.ndarray:
        return _cube_transform(design.n, k, [supports[c] for c in cols], coeffs)

    determined = np.ones(1 << design.n, dtype=bool)
    for cols, vanishing in kernel:
        determined &= at_vertices(cols, vanishing) == 0
    return [(at_vertices(cols, nums), d) for cols, nums, d in fits], determined


def approximate_all(design: Design, k: int) -> CubeTable:
    """Predictions for every vertex of the cube as a `CubeTable`, None where not determinable.

    Equal to calling approximate_value per vertex: `_cube_fits` of the
    design's numerators, over its scale, read in canonical order.
    """
    if design.numerators is None:
        raise ValueError("design carries no measured values")
    ((predicted, den),), determined = _cube_fits(design, k, [list(design.numerators)])
    return CubeTable(design.n, predicted, den * design.scale, determined)


def _covered_order(design: Design, k: int, lowest: int = 0) -> int:
    """The highest order j <= k at which the design determines every vertex of the cube.

    Order j is covered exactly when the design's evaluation rows of degree
    <= j have full column rank, and that is downward closed in j. Order j's
    rows are the first basis_size(n, j) columns of `_design_rows` at any
    higher order, so the number f of leading columns independent over Q
    answers every order: each order whose columns all precede f is a
    "yes", and a kernel vector on the columns up to f, a polynomial of
    degree at most deg(f) vanishing on the design, is the "no" of every
    order from deg(f) up. `gf2._leading_rank_2adic` finds f from one
    elimination mod 2 of the rows of the highest order left, settled
    2-adically. Where it cannot, a `ModularEchelon` with prefix eliminates
    them mod p up to the first column without a pivot, whose kernel
    vector is checked and lifted; a failed check factors again mod a new
    prime, with the same stop.

    An order with more monomials than the design has vertices is "no" by
    that count alone. When that leaves no order from lowest up, nothing is
    eliminated, and the number returned, below lowest, only bounds the
    answer. An order k outside 0..n, or above the work cap, is refused
    before anything is built.
    """
    check_elimination_work(design.n, k, design.size)
    sizes = [basis_size(design.n, j) for j in range(k + 1)]
    top = sum(size <= design.size for size in sizes) - 1
    if top < lowest:
        return top
    # imported on first use: without a bytecode cache every process that
    # imports approx would otherwise compile gf2, asked or not
    from .gf2 import _leading_rank_2adic

    rows = _design_rows(design, top)[1]
    independent = _leading_rank_2adic(rows)
    if independent is None:
        echelon = ModularEchelon(rows, prefix=True)
        # certifies the "no", after which rank counts the leading independent columns over Q
        echelon.spans()
        independent = echelon.rank
    return sum(size <= independent for size in sizes) - 1


def covers_all(design: Design, k: int) -> bool:
    """Whether the design determines every vertex of the cube at order k.

    Equivalent to the degree-<=k evaluation matrix of the design having
    full row rank, sum over i<=k of C(n, i); `_covered_order` decides it.
    """
    return _covered_order(design, k, lowest=k) == k


def lemma_reconstruct(values: Mapping[Vertex, Fraction | int], w: Vertex) -> Fraction:
    """Value at the missing subcube vertex forced by the alternating-sum identity.

    `values` must cover a d-dimensional subcube except for w. Within that
    subcube the even-distance and odd-distance value sums (distance taken
    from the subcube's minimal vertex) are equal for any polynomial of
    degree below d, which solves for the missing value as a signed sum.
    """
    if not values:
        raise ValueError("need values on the rest of the subcube")
    n = w.n
    for v in values:
        if v.n != n:
            raise ValueError(f"vertex {v} has dimension {v.n}, expected {n}")
    if w in values:
        raise ValueError(f"vertex {w} already has a value")

    masks = [v.bits for v in values] + [w.bits]
    lo = masks[0]
    hi = masks[0]
    for b in masks[1:]:
        lo &= b
        hi |= b
    free = hi ^ lo
    d = free.bit_count()
    # the masks are distinct and each satisfies lo <= b <= hi by construction;
    # that box holds exactly 2^d vertices, so the count alone pins the subcube
    if len(masks) != (1 << d):
        raise ValueError(
            f"{len(masks) - 1} values do not cover a subcube minus one vertex"
        )

    w_parity = (w.bits ^ lo).bit_count() & 1
    total = Fraction(0)
    for v, fv in values.items():
        parity = (v.bits ^ lo).bit_count() & 1
        if parity == w_parity:
            total -= fv
        else:
            total += fv
    return total


def _transform_dtype(max_abs: int, n: int, k: int):
    """int64 when every transform intermediate fits, else Python ints.

    Moebius, truncation above degree k and zeta keep every entry within
    2^(n+k) * max_abs, so int64 is exact with a bit to spare below 2^63.
    """
    return np.int64 if max_abs.bit_length() + n + k + 1 < 63 else object


def complete_from_ball(values: Design | Mapping[Vertex, Fraction | int], n: int, k: int) -> CubeTable:
    """Extend values on the radius-k Hamming ball to the whole cube.

    The values, a measured `Design` or a mapping that `Design` scales, are
    Moebius transformed over the cube as integers over one scale, cut to the
    coefficients of degree at most k (exactly the ball's, which read only
    ball values) and zeta transformed back. The result is the unique
    degree-<=k function agreeing with the ball, so it is exact whenever the
    inputs come from such a polynomial. On every input it equals filling
    the cube level by level with `lemma_reconstruct` over each vertex's
    subcube from the zero vertex, since that fill makes exactly the
    coefficients above degree k vanish.
    """
    check_order(n, k)
    check_cube(n)
    design = values if isinstance(values, Design) else Design(n, values, values.values())
    if design.n != n:
        raise ValueError(f"vertex {design.masks[0]:0{design.n}b} has dimension {design.n}, expected {n}")
    if design.numerators is None:
        raise ValueError("design carries no measured values")
    expected = set(_ascending_supports(n, k))
    got = design._members
    if got != expected:
        fmt = f"0{n}b"
        missing, extra = ([format(b, fmt) for b in sorted(s)] for s in (expected - got, got - expected))
        raise BallMismatchError(missing, extra)
    ball = np.array(design.masks, dtype=np.int64)
    coeffs = _cube_transform(n, k, ball, design.numerators, inverse=True)[ball].tolist()
    return CubeTable(n, _cube_transform(n, k, ball, coeffs), design.scale)
