"""Fraction-free Bareiss elimination in pure Python: the reference for `boxapprox.linalg`.

Each row is scaled to integers by the lcm of its denominators, and one
forward Bareiss elimination (Bareiss, Math. Comp. 1968) serves ranks and
solves, so every intermediate value is an exact integer minor of the
input. Solves replay the recorded elimination on the target and
back-substitute with every unknown scaled by the last pivot, which keeps
that step integral too. `boxapprox.linalg` answers the same questions
from one LU factorization modulo a prime, lifted and checked exactly, and
must equal this module on every input. `rank_gf2` is the GF(2) rank by
XOR elimination on bit-packed rows, the reference for the mod-2
eliminations, and `nonsingular_gf2` the row-packed batched test that the
bit-sliced `linalg._nonsingular_gf2` must equal.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

import numpy as np

Scalar = int | Fraction


def scale_row(row: Sequence[Scalar]) -> tuple[list[int], int]:
    """The row times the lcm of its denominators, and that lcm."""
    if all(isinstance(x, int) for x in row):
        return list(row), 1
    fracs = [Fraction(x) for x in row]
    scale = lcm(*(x.denominator for x in fracs))
    return [x.numerator * (scale // x.denominator) for x in fracs], scale


def bareiss(m: list[list[int]]) -> list[tuple[int, int]]:
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
    m = [scale_row(row)[0] for row in rows]
    if any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix")
    if not m or not m[0]:
        return 0
    return len(bareiss(m))


def rank_gf2(rows: Sequence[int]) -> int:
    """Rank over GF(2) of bit-packed rows, by XOR elimination on Python ints.

    Each row is reduced by the kept rows whose leading bit it shares,
    highest first, and kept if anything is left, under its new leading
    bit; the kept rows are a basis of the row space, one per leading bit.
    """
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in basis:
                basis[lead] = row
                break
            row ^= basis[lead]
    return len(basis)


def nonsingular_gf2(w: np.ndarray, n: int) -> np.ndarray:
    """Per-matrix test det != 0 over GF(2) for a batch of bit-packed n x n matrices.

    w is an (n, t) uint64 array, trials last: w[i, j] holds row i of
    matrix j, bit c its column c. Step k picks in every matrix the first
    of rows k.. with bit k set and XORs it into each of them with bit k
    set, itself included, which clears column k there and leaves the
    pivot row zero; row k then moves into the pivot row's place. A matrix
    is nonsingular exactly when every step finds a pivot.
    """
    w = np.array(w, dtype=np.uint64, order="C")
    trials = np.arange(w.shape[1])
    nonsingular = np.ones(w.shape[1], dtype=bool)
    for k in range(n):
        rest = w[k:]
        bit = (rest >> np.uint64(k)) & np.uint64(1)
        has = bit != 0
        nonsingular &= has.any(axis=0)
        prow = k + has.argmax(axis=0)
        rest ^= bit * w[prow, trials]
        w[prow, trials] = w[k]
    return nonsingular


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
        scaled = [scale_row([c[i] for c in columns]) for i in range(length)]
        self._row_scale = [s for _, s in scaled]
        matrix = [row for row, _ in scaled]
        steps = bareiss(matrix)
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
        b, denom = scale_row([x * s for x, s in zip(target, self._row_scale)])
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

    def contains(self, target: Sequence[Scalar]) -> bool:
        """True iff target lies in the span of the columns."""
        b, _ = self._reduce_target(target)
        return all(b[i] == 0 for i in range(self.rank, self.length))

    def solve(self, target: Sequence[Scalar]) -> Optional[list[Fraction]]:
        """One exact coefficient list, or None when target is outside the span."""
        b, denom = self._reduce_target(target)
        if any(b[i] != 0 for i in range(self.rank, self.length)):
            return None
        # back substitution through the pivot rows, every unknown scaled by d
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

    @property
    def pivot_columns(self) -> list[int]:
        """Indices of the pivot columns, increasing: the canonical column basis."""
        return [col for col, _, _ in self._back]


def solve_in_span(
    columns: Sequence[Sequence[Scalar]], target: Sequence[Scalar]
) -> Optional[list[Fraction]]:
    """Express target as a rational combination of the columns, if possible."""
    return SpanSolver(columns).solve(target)
