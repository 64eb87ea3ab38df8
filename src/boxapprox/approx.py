"""Deciding and computing vertex-value approximations from partial measurements.

A design is a set of measured vertices. A target vertex t is determinable
from a design S at order k when the values of every polynomial of degree
at most k on S force its value at t; over the square-free basis this is
exactly the condition that the degree-<=k evaluation vector of t lies in
the rational span of the evaluation vectors of S. Predictions are the
corresponding linear combinations of the measurements, computed exactly.

A second route exists for Hamming-ball designs. Inside any subcube the
alternating sum of a polynomial of lower degree over the vertices
vanishes (`lemma_reconstruct`), which says its Moebius coefficient there
is zero. `complete_from_ball` therefore Moebius-transforms the ball values
over the cube, drops the coefficients above degree k and zeta-transforms
back, in O(n * 2^n) integer additions; the result equals the level-by-level
alternating-sum recursion on every input and agrees exactly with the
linear-algebra route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import (
    FULL_ENUM_MAX_DIM,
    MonomialBasis,
    Vertex,
    all_vertices,
    check_elimination_work,
    evaluation_matrix,
    evaluation_vector,
    make_basis,
    subset_transform,
    weight_masks,
)
from .linalg import SpanSolver, rank_rational


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


@dataclass(frozen=True)
class Design:
    """Distinct measured vertices, optionally with their exact values."""

    n: int
    vertices: tuple[Vertex, ...]
    values: Optional[tuple[Fraction, ...]] = None

    def __post_init__(self) -> None:
        if not self.vertices:
            raise ValueError("a design must contain at least one vertex")
        for v in self.vertices:
            if v.n != self.n:
                raise ValueError(f"vertex {v} has dimension {v.n}, expected {self.n}")
        if len({v.bits for v in self.vertices}) != len(self.vertices):
            raise ValueError("design vertices must be distinct")
        if self.values is not None:
            vals = tuple(Fraction(x) for x in self.values)
            if len(vals) != len(self.vertices):
                raise ValueError(
                    f"{len(vals)} values for {len(self.vertices)} vertices"
                )
            object.__setattr__(self, "values", vals)

    @classmethod
    def from_bitstrings(
        cls, bitstrings: Sequence[str], values: Optional[Sequence[Fraction | int | str]] = None
    ) -> "Design":
        vertices = tuple(Vertex.from_bitstring(s) for s in bitstrings)
        if not vertices:
            raise ValueError("a design must contain at least one vertex")
        vals = tuple(Fraction(x) for x in values) if values is not None else None
        return cls(vertices[0].n, vertices, vals)

    @property
    def size(self) -> int:
        return len(self.vertices)

    def with_values(self, values: Sequence[Fraction | int | str]) -> "Design":
        return Design(self.n, self.vertices, tuple(Fraction(x) for x in values))

    def value_map(self) -> dict[Vertex, Fraction]:
        if self.values is None:
            raise ValueError("design carries no measured values")
        return dict(zip(self.vertices, self.values))

    def __contains__(self, v: Vertex) -> bool:
        return any(v == u for u in self.vertices)


def _factor(design: Design, k: int) -> tuple[MonomialBasis, SpanSolver]:
    """The degree-<=k basis and the solver over the design's evaluation vectors.

    An elimination above the work cap is refused before anything is built.
    """
    check_elimination_work(design.n, k, design.size)
    basis = make_basis(design.n, k)
    return basis, SpanSolver([evaluation_vector(basis, v) for v in design.vertices])


def _combine(coeffs: Sequence[Fraction], values: Sequence[Fraction]) -> Fraction:
    """The prediction sum(a_i * f(v_i)), skipping zero coefficients."""
    total = Fraction(0)
    for a, f in zip(coeffs, values):
        if a:
            total += a * f
    return total


def _check_target(design: Design, t: Vertex, k: int) -> None:
    if t.n != design.n:
        raise ValueError(f"target dimension {t.n} != design dimension {design.n}")
    if not 0 <= k <= design.n:
        raise ValueError(f"order k={k} outside 0..{design.n}")


def determinable(design: Design, t: Vertex, k: int) -> bool:
    """Whether values of any degree-<=k polynomial on the design fix its value at t."""
    _check_target(design, t, k)
    basis, solver = _factor(design, k)
    return solver.contains(evaluation_vector(basis, t))


def degree_of_approximation(design: Design, t: Vertex) -> int:
    """The largest k in [0, n] at which t is determinable from the design.

    Well-defined because determinability is downward closed in k. Membership
    in the design is the only way to reach k = n, since the full square-free
    basis separates all 2^n vertices. Orders are tested upward, so a
    ValueError is raised if one reached is above the elimination work cap.
    """
    if t.n != design.n:
        raise ValueError(f"target dimension {t.n} != design dimension {design.n}")
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
    """
    _check_target(design, t, k)
    if design.values is None:
        raise ValueError("design carries no measured values")
    basis, solver = _factor(design, k)
    coeffs = solver.solve(evaluation_vector(basis, t))
    if coeffs is None:
        raise NotDeterminableError(f"vertex {t} is not determinable at order {k}")
    return _combine(coeffs, design.values)


def _check_cube(design: Design, k: int) -> None:
    """Reject an order outside 0..n or a cube too large to enumerate, before any work."""
    if not 0 <= k <= design.n:
        raise ValueError(f"order k={k} outside 0..{design.n}")
    if design.n > FULL_ENUM_MAX_DIM:
        raise ValueError(f"full-cube enumeration is capped at n={FULL_ENUM_MAX_DIM}")


def prediction_coefficients(
    design: Design, k: int
) -> dict[Vertex, Optional[list[Fraction]]]:
    """Canonical combination coefficients for every vertex of the cube.

    One matrix factorization is shared across all 2^n targets; each entry is
    exactly the coefficient list solve_in_span would return for that target
    alone, or None where the target is outside the span. Coefficients do not
    depend on measured values, so one table serves any number of value sets.
    """
    _check_cube(design, k)
    basis, solver = _factor(design, k)
    return {
        t: solver.solve(evaluation_vector(basis, t)) for t in all_vertices(design.n)
    }


def _cube_values(basis: MonomialBasis, coeffs: Sequence[Fraction]) -> tuple[np.ndarray, int]:
    """A polynomial's values at every vertex, indexed by mask, over one common denominator.

    The coefficients are scaled to integers and zeta-transformed, which sums
    the coefficients of the monomials inside each vertex's support.
    """
    n = basis.n
    den = lcm(*(c.denominator for c in coeffs))
    scaled = [c.numerator * (den // c.denominator) for c in coeffs]
    a = np.zeros(1 << n, dtype=_transform_dtype(max(map(abs, scaled)), n, basis.k))
    a[[m.support for m in basis.monomials]] = scaled
    subset_transform(a, n)
    return a, den


def _vanishing_polynomials(
    solver: SpanSolver, columns: Sequence[Sequence[int]]
) -> list[list[Fraction]]:
    """A basis of the polynomials that vanish on the design, in monomial coordinates.

    `solver` factors `columns`, one per basis monomial evaluated on the
    design. Each monomial off the pivot columns gives one polynomial: the
    monomial minus the canonical combination of pivot monomials that agrees
    with it on the design.
    """
    pivots = set(solver.pivot_columns)
    out = []
    for j, column in enumerate(columns):
        if j not in pivots:
            vanishing = [-c for c in solver.solve(column)]
            vanishing[j] += 1
            out.append(vanishing)
    return out


def approximate_all(design: Design, k: int) -> dict[Vertex, Optional[Fraction]]:
    """Predictions for every vertex of the cube, None where not determinable.

    Equal to calling approximate_value per vertex, from one factorization
    of the transposed system (one row per design vertex, one column per
    monomial) and no per-target solve. The prediction at t is the value
    there of the degree-<=k polynomial that `SpanSolver.fit` gives, which
    matches the measurements on the pivot vertices, and t is determinable
    exactly when every degree-<=k polynomial vanishing on the design
    vanishes at t; both are zeta transforms over the cube. The output is in
    canonical vertex order. An elimination above the work cap is refused
    before anything is built.
    """
    if design.values is None:
        raise ValueError("design carries no measured values")
    _check_cube(design, k)
    check_elimination_work(design.n, k, design.size)
    basis = make_basis(design.n, k)
    columns = evaluation_matrix(basis, design.vertices).entries
    solver = SpanSolver(columns)
    predicted, den = _cube_values(basis, solver.fit(design.values))
    determined = np.ones(1 << design.n, dtype=bool)
    for vanishing in _vanishing_polynomials(solver, columns):
        determined &= _cube_values(basis, vanishing)[0] == 0
    predicted, determined = predicted.tolist(), determined.tolist()
    return {
        t: Fraction(predicted[t.bits], den) if determined[t.bits] else None
        for t in all_vertices(design.n)
    }


def covers_all(design: Design, k: int) -> bool:
    """Whether the design determines every vertex of the cube at order k.

    Equivalent to the degree-<=k evaluation matrix of the design having
    full row rank, i.e. rank equal to sum over i<=k of C(n, i). An order
    whose elimination exceeds the work cap is refused before any is built.
    """
    if not 0 <= k <= design.n:
        raise ValueError(f"order k={k} outside 0..{design.n}")
    check_elimination_work(design.n, k, design.size)
    basis = make_basis(design.n, k)
    return rank_rational(evaluation_matrix(basis, design.vertices).entries) == len(basis)


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


def complete_from_ball(
    values: Mapping[Vertex, Fraction | int], n: int, k: int
) -> dict[Vertex, Fraction]:
    """Extend values on the radius-k Hamming ball to the whole cube.

    The values are scaled to integers over their common denominator, Moebius
    transformed over the cube, cut to the coefficients of degree at most k
    (exactly the ball's, which read only ball values) and zeta transformed
    back. The result is the unique degree-<=k function agreeing with the
    ball, so it is exact whenever the inputs come from such a polynomial.
    On every input it equals filling the cube level by level with
    `lemma_reconstruct` over each vertex's subcube from the zero vertex,
    since that fill makes exactly the coefficients above degree k vanish.
    The result maps every vertex of the cube in canonical order.
    """
    if not 0 <= k <= n:
        raise ValueError(f"radius k={k} outside 0..{n}")
    if n > FULL_ENUM_MAX_DIM:
        raise ValueError(f"full-cube completion is capped at n={FULL_ENUM_MAX_DIM}")
    expected = {m for d in range(k + 1) for m in weight_masks(n, d)}
    got = {}
    for v, fv in values.items():
        if v.n != n:
            raise ValueError(f"vertex {v} has dimension {v.n}, expected {n}")
        got[v.bits] = Fraction(fv)
    if set(got) != expected:
        missing = sorted(expected - set(got))
        extra = sorted(set(got) - expected)
        fmt = f"0{n}b"
        raise BallMismatchError(
            [format(b, fmt) for b in missing], [format(b, fmt) for b in extra]
        )

    den = lcm(*(f.denominator for f in got.values()))
    scaled = [f.numerator * (den // f.denominator) for f in got.values()]
    dtype = _transform_dtype(max(map(abs, scaled)), n, k)
    ball = np.fromiter(got, dtype=np.int64, count=len(got))
    a = np.zeros(1 << n, dtype=dtype)
    a[ball] = scaled
    subset_transform(a, n, inverse=True)
    coeffs = np.zeros_like(a)
    coeffs[ball] = a[ball]
    subset_transform(coeffs, n)
    filled = coeffs.tolist()
    return {v: Fraction(filled[v.bits], den) for v in all_vertices(n)}
