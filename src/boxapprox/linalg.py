"""Exact rank and span computations over the rationals and over GF(2).

Rational computations run in fraction-free integer arithmetic: each row is
scaled to integers by the lcm of its denominators, and one forward Bareiss
elimination serves ranks, solves and fits, so every intermediate value is
an exact integer minor of the input and no rounding can occur. Solves and
fits replay the recorded elimination on the target and back-substitute
with every unknown scaled by the last pivot, which keeps that step
integral too. GF(2) matrices are packed one row per Python integer.

In front of Bareiss sits a numpy elimination modulo one prime below 2^31
(`ModularEchelon`), whose answers are certificates, never guesses. Full
rank mod p proves full rank over Q, since a minor that is nonzero mod p
is nonzero over Z. A "no" is an integer vector y lifted from the mod-p
kernel by rational reconstruction and then checked exactly: y != 0 and
A y = 0 in integer arithmetic (and, for a span question, y . target != 0).
When neither certificate holds the question goes to Bareiss unchanged, so
every answer equals the Bareiss answer.

Pivoting is deterministic everywhere: columns are scanned left to right
and within a column the first nonzero row from the top is taken. Repeated
runs on the same input therefore return identical coefficient lists. Over
the rationals the pivot row moves up with the rows it passes keeping their
order, so the pivot rows are the earliest rows independent of those above.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Optional, Sequence

import numpy as np

from .core import Vertex
from .probability import _P1

# The certificate prime, shared with the probability determinant. It is
# below 2^31, so a product of two residues is exact in int64.
_P = _P1

Scalar = int | Fraction


def _scale_row(row: Sequence[Scalar]) -> tuple[list[int], int]:
    """The row times the lcm of its denominators, and that lcm."""
    if all(isinstance(x, int) for x in row):
        return list(row), 1
    fracs = [Fraction(x) for x in row]
    scale = lcm(*(x.denominator for x in fracs))
    return [x.numerator * (scale // x.denominator) for x in fracs], scale


def _bareiss(m: list[list[int]]) -> list[tuple[int, int]]:
    """Forward fraction-free elimination of the integer matrix m, in place.

    Returns one (pivot column, row moved up to row r) pair per pivot row r.
    The pivot row moves up to row r and the rows it passes move down one,
    so the rows not yet pivoted keep their input order and the first
    nonzero one is always the earliest. The pivot rows are therefore the
    earliest rows independent of the rows before them. Every division is
    exact, so pivot row r ends holding (r+1)-minors of the row-permuted
    input, and the last pivot is the minor on all pivot rows and columns.
    Each eliminated entry keeps its row's multiplier for that step, as in
    an LU factorization; whole-row moves carry it along, so the stored
    multipliers are those of the finally permuted matrix.
    """
    n_rows, n_cols = len(m), len(m[0])
    steps = []
    rank = 0
    prev = 1
    for col in range(n_cols):
        piv = next((r for r in range(rank, n_rows) if m[r][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            m.insert(rank, m.pop(piv))
        top = m[rank]
        p = top[col]
        for r in range(rank + 1, n_rows):
            row = m[r]
            f = row[col]
            if f:
                for j in range(col + 1, n_cols):
                    row[j] = (p * row[j] - f * top[j]) // prev
            elif p != prev:
                for j in range(col + 1, n_cols):
                    row[j] = row[j] * p // prev
        steps.append((col, piv))
        prev = p
        rank += 1
        if rank == n_rows:
            break
    return steps


def rank_rational(rows: Sequence[Sequence[Scalar]]) -> int:
    """Exact rank over the rationals via fraction-free elimination."""
    m = [_scale_row(row)[0] for row in rows]
    if not m or not m[0]:
        return 0
    if any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix")
    return len(_bareiss(m))


def rank_gf2(rows: Sequence[int], ncols: int) -> int:
    """Rank over GF(2) of bit-packed rows; bit (ncols-1) is the leftmost column."""
    if ncols < 0:
        raise ValueError("ncols must be nonnegative")
    limit = 1 << ncols
    work = []
    for r in rows:
        if not 0 <= r < limit:
            raise ValueError(f"row {r!r} does not fit in {ncols} columns")
        work.append(r)
    rank = 0
    for col in range(ncols - 1, -1, -1):
        bit = 1 << col
        piv = next((i for i in range(rank, len(work)) if work[i] & bit), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        top = work[rank]
        for i in range(rank + 1, len(work)):
            if work[i] & bit:
                work[i] ^= top
        rank += 1
        if rank == len(work):
            break
    return rank


def _lazy_steps(p: int) -> int:
    """Elimination steps an int64 block of residues mod p can take unreduced.

    Each step subtracts a product of two residues, below p^2, from every
    entry, so after s steps the entries lie in (-s * p^2, p), inside int64
    while s * p^2 < 2^63.
    """
    return (2**63 - 1) // (p * p)


def _echelon_modp(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Row echelon form of the integer matrix a modulo p, and its pivot columns.

    Returns the rank rows as an int64 array, each pivot 1, every entry a
    residue in [0, p), and zero left of the pivot. Reduction is lazy: a
    step reduces only the pivot column and row, then subtracts a product
    of two residues from each entry of the block below, and the block is
    reduced whole every `_lazy_steps(p)` steps, before it could leave int64.
    """
    r = a % p
    rows, cols = r.shape
    lazy = _lazy_steps(p)
    pivots: list[int] = []
    pending = 0
    for c in range(cols):
        rank = len(pivots)
        col = r[rank:, c]
        col %= p
        nonzero = np.flatnonzero(col)
        if not nonzero.size:
            continue
        piv = rank + int(nonzero[0])
        if piv != rank:
            r[[rank, piv]] = r[[piv, rank]]
        top = r[rank, c:]
        top %= p
        top *= pow(int(top[0]), p - 2, p)
        top %= p
        below = r[rank + 1 :, c:]
        below -= below[:, :1] * top
        pivots.append(c)
        pending += 1
        if pending >= lazy:
            below %= p
            pending = 0
        if len(pivots) == rows:
            break
    return r[: len(pivots)], pivots


def _kernel_columns_modp(u: np.ndarray, pivots: list[int], free: list[int], p: int) -> np.ndarray:
    """The free columns of the reduced echelon form of u, an `_echelon_modp` result.

    Column j holds, on each pivot row, free column free[j] after every
    pivot column is cleared above its pivot, last pivot first. Only the
    free columns are carried: clearing pivot i never changes a row's entry
    in an earlier pivot column, since row i is zero left of its pivot, so
    the echelon form's own entries serve as the multipliers. The same lazy
    reduction keeps the block in int64.
    """
    k = u[:, free]
    lazy = _lazy_steps(p)
    pending = 0
    for i in range(len(pivots) - 1, 0, -1):
        row = k[i]
        row %= p
        k[:i] -= u[:i, pivots[i], None] * row
        pending += 1
        if pending >= lazy:
            k[:i] %= p
            pending = 0
    k %= p
    return k


def _rational_lift(u: int, p: int) -> Optional[Fraction]:
    """The fraction r/s with |r|, s <= sqrt(p/2) and r = s*u mod p, or None.

    Wang's rational reconstruction: the extended Euclidean algorithm on
    (p, u), stopped at the first remainder within the bound.
    """
    bound = isqrt(p // 2)
    r0, r1, s0, s1 = p, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound:
        return None
    return Fraction(r1, s1)


class ModularEchelon:
    """An integer matrix eliminated modulo the prime `_P`, and the exact certificates it gives.

    `rank` is the rank mod p, at most the rank over Q. When it equals the
    column count the columns are independent over Q: some maximal minor
    is nonzero mod p, so it is nonzero over Z. `null_vector` looks for the
    opposite certificate and checks it in exact integer arithmetic, so it
    never returns a vector that is not one. Entries must lie in
    (-2^31, 2^31); the matrix is kept for those checks.
    """

    def __init__(self, rows: np.ndarray):
        a = np.asarray(rows, dtype=np.int64)
        if a.ndim != 2 or not a.shape[1]:
            raise ValueError("expected a matrix with at least one column")
        if a.size and (a.min() <= -(1 << 31) or a.max() >= 1 << 31):
            raise ValueError("entries must lie in (-2^31, 2^31)")
        self._a = a
        self._p = _P
        self._echelon, self.pivots = _echelon_modp(a, self._p)
        self.rank = len(self.pivots)
        self.columns = a.shape[1]

    def null_vector(self, target: Optional[Sequence[int]] = None) -> Optional[list[int]]:
        """A nonzero integer y with rows @ y == 0, and target . y != 0 if given, or None.

        Candidates are the mod-p kernel vectors of the free columns, left
        to right: the free column's entry 1, minus its reduced-echelon
        column on the pivot columns. With a target, only the free columns
        on which the target's residue against the row space mod p is
        nonzero are tried: for those, target . y is nonzero mod p whenever
        the lift is congruent to the kernel vector mod p. Each is lifted
        to a rational vector entry by entry, scaled to integers and
        checked exactly; a failed lift or check moves on to the next one,
        and None means that none passed.
        """
        if target is not None:
            target = [int(t) for t in target]
            if len(target) != self.columns:
                raise ValueError(f"target length {len(target)} != column count {self.columns}")
        if self.rank == self.columns:
            return None
        p = self._p
        pivot_set = set(self.pivots)
        free = [c for c in range(self.columns) if c not in pivot_set]
        kernel = _kernel_columns_modp(self._echelon, self.pivots, free, p)
        candidates = range(len(free))
        if target is not None:
            # the target minus its row-space part mod p, on the free columns
            e = np.array([t % p for t in target], dtype=np.int64)
            residual = e[free]
            for i, c in enumerate(self.pivots):
                if e[c]:
                    residual = (residual - e[c] * kernel[i]) % p
            candidates = np.flatnonzero(residual).tolist()
        row_norm = max(int(np.abs(self._a).sum(axis=1).max(initial=0)), 1)
        for j in candidates:
            y = self._lift(kernel[:, j].tolist(), free[j])
            if y is not None and self._checked(y, row_norm, target):
                return y
        return None

    def _lift(self, column: list[int], f: int) -> Optional[list[int]]:
        """The kernel vector mod p of free column f, lifted and scaled to integers.

        `column` is f's reduced-echelon column; the vector is 1 at f and
        minus that column on the pivot columns.
        """
        p = self._p
        entries = {f: Fraction(1)}
        for c, u in zip(self.pivots, column):
            if u:
                x = _rational_lift(p - u, p)
                if x is None:
                    return None
                entries[c] = x
        scale = lcm(*(x.denominator for x in entries.values()))
        y = [0] * self.columns
        for c, x in entries.items():
            y[c] = x.numerator * (scale // x.denominator)
        return y

    def _checked(self, y: list[int], row_norm: int, target: Optional[list[int]]) -> bool:
        """Whether rows @ y == 0 and target . y != 0, exactly; False if int64 cannot tell.

        row_norm bounds every row's absolute sum, so when max|y| * row_norm
        is below 2^63 no partial sum of the int64 product can overflow.
        """
        if max(map(abs, y)) * row_norm >= 1 << 63:
            return False
        if (self._a @ np.array(y, dtype=np.int64)).any():
            return False
        return target is None or sum(t * x for t, x in zip(target, y) if x) != 0


class SpanSolver:
    """Reusable exact solver for `sum_j a_j * column_j = target` questions.

    The column matrix is factored once by forward Bareiss elimination. Each
    target replays the recorded row operations, which touch only the rows
    below each pivot, then back-substitutes through the pivot rows with
    every unknown scaled by the last pivot d: by Cramer's rule d times each
    pivot coefficient is an integer minor, so every division is exact.
    Pivot columns are the earliest columns outside the span of the columns
    before them and all free coefficients are zero, so solutions are
    canonical.

    `solve` answers only targets in the span. `fit` answers every target
    with the same back substitution and no residual check. Row i holds
    entry i of every column; the fit's coefficients reproduce the target
    exactly on the pivot rows, the earliest rows independent of the rows
    before them, and equal `solve`'s whenever that is not None.
    """

    def __init__(self, columns: Sequence[Sequence[Scalar]]):
        if not columns:
            raise ValueError("at least one column is required")
        length = len(columns[0])
        if any(len(c) != length for c in columns):
            raise ValueError("columns must all have the same length")
        if length == 0:
            raise ValueError("columns must be nonempty vectors")
        self.length = length
        self.width = len(columns)

        # Row i of the working matrix collects entry i of every column,
        # scaled to integers; the same scale applies to targets later.
        scaled = [_scale_row([c[i] for c in columns]) for i in range(length)]
        self._row_scale = [s for _, s in scaled]
        matrix = [row for row, _ in scaled]
        steps = _bareiss(matrix)
        self.rank = len(steps)
        self._moves = [(r, piv) for r, (_, piv) in enumerate(steps) if piv != r]
        cols = [col for col, _ in steps]
        # Per pivot row r: its pivot with the multipliers stored below it,
        # for the replay; its column, pivot and nonzero entries in later
        # pivot columns (keyed by pivot index), for back substitution.
        self._elim: list[tuple[int, list[int]]] = []
        self._back: list[tuple[int, int, list[tuple[int, int]]]] = []
        for r, col in enumerate(cols):
            top = matrix[r]
            self._elim.append((top[col], [row[col] for row in matrix[r + 1 :]]))
            later = [(j, top[c]) for j, c in enumerate(cols[r + 1 :], r + 1) if top[c]]
            self._back.append((col, top[col], later))
        self._last_pivot = self._elim[-1][0] if steps else 1

    def _reduce_target(self, target: Sequence[Scalar]) -> tuple[list[int], int]:
        """Scale a target to integers and replay the elimination on it."""
        if len(target) != self.length:
            raise ValueError(f"target length {len(target)} != column length {self.length}")
        b, denom = _scale_row([x * s for x, s in zip(target, self._row_scale)])
        for r, piv in self._moves:
            b.insert(r, b.pop(piv))
        n = self.length
        prev = 1
        for r, (p, mults) in enumerate(self._elim):
            bp = b[r]
            if bp:
                for i, f in enumerate(mults, r + 1):
                    if f:
                        b[i] = (p * b[i] - f * bp) // prev
                    elif p != prev:
                        b[i] = b[i] * p // prev
            elif p != prev:
                for i in range(r + 1, n):
                    b[i] = b[i] * p // prev
            prev = p
        return b, denom

    def _back_substitute(self, b: list[int], denom: int) -> list[Fraction]:
        """Coefficients on the pivot columns from a replayed target's pivot rows."""
        d = self._last_pivot
        y = [0] * self.rank
        coeffs = [Fraction(0)] * self.width
        for r in range(self.rank - 1, -1, -1):
            col, p, later = self._back[r]
            acc = d * b[r]
            for j, u in later:
                if y[j]:
                    acc -= u * y[j]
            if acc:
                y[r] = acc // p
                coeffs[col] = Fraction(y[r], d * denom)
        return coeffs

    def contains(self, target: Sequence[Scalar]) -> bool:
        """True iff target lies in the span of the columns."""
        b, _ = self._reduce_target(target)
        return all(b[i] == 0 for i in range(self.rank, self.length))

    def solve(self, target: Sequence[Scalar]) -> Optional[list[Fraction]]:
        """One exact coefficient list, or None when target is outside the span."""
        b, denom = self._reduce_target(target)
        if any(b[i] != 0 for i in range(self.rank, self.length)):
            return None
        return self._back_substitute(b, denom)

    def fit(self, target: Sequence[Scalar]) -> list[Fraction]:
        """Coefficients, zero off the pivot columns, matching target on the pivot rows."""
        return self._back_substitute(*self._reduce_target(target))

    @property
    def pivot_columns(self) -> list[int]:
        """Indices of the pivot columns, increasing: the canonical column basis."""
        return [col for col, _, _ in self._back]


def solve_in_span(
    columns: Sequence[Sequence[Scalar]], target: Sequence[Scalar]
) -> Optional[list[Fraction]]:
    """Express target as a rational combination of the columns, if possible."""
    return SpanSolver(columns).solve(target)


def affinely_independent(vertices: Sequence[Vertex], field: str = "rational") -> bool:
    """Whether the vertex set is affinely independent over Q or over GF(2).

    Decided as a rank condition: the vectors (1, v) for v in the set must
    be linearly independent over the chosen field.
    """
    if not vertices:
        raise ValueError("vertex set must be nonempty")
    n = vertices[0].n
    if any(v.n != n for v in vertices):
        raise ValueError("vertices must share one dimension")
    m = len(vertices)
    if field == "rational":
        rows = [[1, *v.coords()] for v in vertices]
        return rank_rational(rows) == m
    if field == "gf2":
        rows = [(1 << n) | v.bits for v in vertices]
        return rank_gf2(rows, n + 1) == m
    raise ValueError(f"unknown field {field!r}, expected 'rational' or 'gf2'")
