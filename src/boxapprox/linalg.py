"""Exact rank and span computations over the rationals and over GF(2).

Every elimination in the package lives here. Rational computations run in
fraction-free integer arithmetic: each row is scaled to integers by the lcm
of its denominators, and one forward Bareiss elimination serves ranks,
solves and fits, so every intermediate value is an exact integer minor of
the input and no rounding can occur. Solves and fits replay the recorded
elimination on the target and back-substitute with every unknown scaled by
the last pivot, which keeps that step integral too.

Modular eliminations run in numpy int64 with lazy reduction: a step
reduces only the pivot row and column, and `_lazy_steps(p)` bounds the
steps the rest may take unreduced. GF(2) is the case p = 2: `rank_gf2`
counts the pivots of that elimination mod 2. `_nonzero_det_modp` tests
a batch of m x m matrices at once, vectorized over the batch on the last
axis. Its entries must be residues in [0, p) already, as for
`_echelon_modp`: it never reduces its block whole, not even on entry, so
m - 1 must stay within `_lazy_steps(p)`. Each step inverts the batch of
pivots at once by Montgomery's trick ("Speeding the Pollard and elliptic
curve methods of factorization", Math. Comp. 1987) on a pairwise product
tree (`_batch_inverse`), with one Python pow a step.
`_nonsingular_gf2` decides the same question over GF(2) for bit-packed
rows, XOR-ing whole rows as uint64 masks.

In front of Bareiss sits one LU factorization modulo the first prime
(`ModularEchelon`), whose answers are certificates, never guesses. Full
rank mod p proves full rank over Q, since a minor that is nonzero mod p
is nonzero over Z. A "no" is an integer vector y lifted from the mod-p
kernel by rational reconstruction and then checked exactly: y != 0 and
A y = 0 in integer arithmetic (and, for a span question, y . target != 0).
A "yes" with its coefficients comes from Dixon's p-adic lifting on a
square subsystem that is nonsingular mod p, and so over Q, each step
solved by substitution through the same factor, with rational
reconstruction of the lifted digits. It is accepted only after two exact
checks in Python ints: the coefficients reproduce the target on every
equation, and the pivot rows are the canonical ones, each other row being
an exact combination of the pivot rows before it. When a certificate or a
check fails the question goes to Bareiss unchanged, so every answer,
coefficients included, equals the Bareiss answer.

Pivoting is deterministic everywhere: columns are scanned left to right
and within a column the first nonzero row is taken, from the top or, for
`_bareiss` and `_echelon_modp`, in input order. Repeated runs on the same
input therefore return identical coefficient lists, and those two take as
pivot rows the earliest rows independent of those above.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .core import Vertex

# The two largest primes with 25 p^2 < 2^63, so `_lazy_steps` is 25 for
# both. _P is the certificate prime of `ModularEchelon`; the probability
# determinant uses both.
_P1 = 607400093
_P2 = 607400051
_P = _P1

Scalar = int | Fraction


def _scale_row(row: Sequence[Scalar]) -> tuple[list[int], int]:
    """The row times the lcm of its denominators, and that lcm."""
    if all(isinstance(x, int) for x in row):
        return list(row), 1
    # ints and Fractions already carry a numerator and a denominator
    fracs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
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
    bits = []
    for r in rows:
        if not 0 <= r < limit:
            raise ValueError(f"row {r!r} does not fit in {ncols} columns")
        bits.append([(r >> c) & 1 for c in range(ncols - 1, -1, -1)])
    matrix = np.array(bits, dtype=np.int64).reshape(len(bits), ncols)
    return len(_echelon_modp(matrix, 2)[1])


def _lazy_steps(p: int) -> int:
    """Elimination steps an int64 block of residues mod p can take unreduced.

    Each step subtracts a product of two residues, below p^2, from every
    entry, so after s steps the entries lie in (-s * p^2, p), inside int64
    while s * p^2 < 2^63.
    """
    return (2**63 - 1) // (p * p)


def _echelon_modp(r: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """LU factorization mod p of the int64 matrix r, in place; returns the row order and pivots.

    The entries of r must be residues already, and end as residues. A
    column's pivot is its nonzero candidate of smallest input index, the
    rule of `_bareiss`, so the pivot rows are the earliest rows independent
    mod p of those before them. Rows are swapped; order[i] is the input
    index of row i afterwards. Pivots and the multipliers below them stay,
    and the rest of each pivot row is divided by its pivot, so r_in[order]
    = L U mod p. Reduction is lazy: a step reduces only the pivot column
    and row, then subtracts a product of two residues from each entry of
    the block below, and the block is reduced whole every `_lazy_steps(p)`
    steps, before it could leave int64.
    """
    rows, cols = r.shape
    lazy = _lazy_steps(p)
    order = np.arange(rows)
    pivots: list[int] = []
    pending = 0
    for c in range(cols):
        rank = len(pivots)
        col = r[rank:, c]
        col %= p
        nonzero = np.flatnonzero(col)
        if not nonzero.size:
            continue
        piv = rank + int(nonzero[order[rank:][nonzero].argmin()])
        if piv != rank:
            r[[rank, piv]] = r[[piv, rank]]
            order[rank], order[piv] = order[piv], order[rank]
        top = r[rank, c + 1 :]
        top %= p
        top *= pow(int(r[rank, c]), p - 2, p)
        top %= p
        below = r[rank + 1 :, c + 1 :]
        below -= r[rank + 1 :, c, None] * top
        pivots.append(c)
        pending += 1
        if pending >= lazy:
            below %= p
            pending = 0
        if len(pivots) == rows:
            break
    return order, pivots


def _substitute(
    m: np.ndarray, rhs: np.ndarray, p: int, forward: bool, diag_inv: Optional[np.ndarray] = None
) -> np.ndarray:
    """The solution mod p of m x = rhs for triangular m: lower if forward, upper otherwise.

    Only m's strictly lower (forward) or strictly upper part is read; its
    diagonal is 1, or has the inverses diag_inv. The entries of rhs, one
    column per right-hand side, must be residues, and so are those of x.
    Each solved row is subtracted from the rows still to solve, and those
    are reduced whole every `_lazy_steps(p)` rows, as in `_echelon_modp`.
    """
    x = rhs.copy()
    lazy = _lazy_steps(p)
    pending = 0
    for i in range(len(m)) if forward else range(len(m) - 1, -1, -1):
        row = x[i]
        row %= p
        if diag_inv is not None:
            row *= diag_inv[i]
            row %= p
        rest, coef = (x[i + 1 :], m[i + 1 :, i]) if forward else (x[:i], m[:i, i])
        rest -= coef[:, None] * row
        pending += 1
        if pending >= lazy:
            rest %= p
            pending = 0
    return x


def _batch_inverse(x: np.ndarray, p: int) -> np.ndarray:
    """The inverse mod p of every entry of the int64 vector x, each a residue in [1, p).

    Montgomery's trick on a pairwise product tree: each level multiplies
    neighbouring entries, after padding an odd level with a 1, until one
    product is left, and one Python pow inverts it. Walking back down, an
    entry's inverse is its parent's inverse times its sibling. That is a
    few vector passes over x in all, where a Fermat power costs dozens.
    """
    size = len(x)
    if not size:
        return x.copy()
    levels = []
    while len(x) > 1:
        if len(x) % 2:
            x = np.append(x, 1)
        levels.append(x)
        x = x[0::2] * x[1::2] % p
    inv = np.array([pow(int(x[0]), -1, p)], dtype=np.int64)
    for x in reversed(levels):
        up = inv[: len(x) // 2]
        inv = np.empty_like(x)
        inv[0::2] = up * x[1::2] % p
        inv[1::2] = up * x[0::2] % p
    return inv[:size]


def _nonzero_det_modp(mats: np.ndarray, p: int) -> np.ndarray:
    """Per-matrix test det != 0 (mod p) for a (t, m, m) batch of residues, by lazy reduction.

    Elimination is normalized: each step reduces only the pivot column and
    the pivot row mod p, scales the column by the pivots' batched inverse
    (`_batch_inverse`) and subtracts g * pivot_row from the trailing block
    without reducing it. The block is never reduced whole, not even on
    entry, so every entry must already be a residue in [0, p) and the
    m - 1 steps must fit within `_lazy_steps(p)`.
    """
    t, m, _ = mats.shape
    if m - 1 > _lazy_steps(p):
        raise ValueError(f"{m}x{m} elimination mod {p} could overflow int64")
    # trials on the last axis, so every vector operation runs over them contiguously
    a = np.array(mats.transpose(1, 2, 0), dtype=np.int64, order="C")
    singular = np.zeros(t, dtype=bool)
    for k in range(m):
        col = a[k:, k]
        col %= p
        nz = col != 0
        singular |= ~nz.any(axis=0)
        prow = k + nz.argmax(axis=0)
        moved = np.flatnonzero(prow != k)
        if moved.size:
            src = prow[moved]
            rows = a[src, k:, moved]
            a[src, k:, moved] = a[k, k:, moved]
            a[k, k:, moved] = rows
        if k + 1 == m:
            break
        row = a[k, k + 1 :]
        row %= p
        piv = a[k, k].copy()
        piv[piv == 0] = 1
        g = a[k + 1 :, k] * _batch_inverse(piv, p) % p
        # row by row, so each product is one cache-sized row, not a block
        for i, gi in enumerate(g, k + 1):
            a[i, k + 1 :] -= gi * row
    return ~singular


def _nonsingular_gf2(w: np.ndarray, n: int) -> np.ndarray:
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


def _rational_lift(
    u: int, m: int, num_bound: Optional[int] = None, den_bound: Optional[int] = None
) -> Optional[Fraction]:
    """The fraction r/s with |r| <= num_bound, 0 < s <= den_bound and r = s*u mod m, or None.

    Wang's rational reconstruction: the extended Euclidean algorithm on
    (m, u), stopped at the first remainder within num_bound; its cofactor
    must then lie within den_bound and be prime to the remainder. When
    2 * num_bound * den_bound < m at most one such fraction exists, and it
    is found whenever it exists. The modulus may be a prime or a power of
    one; both bounds default to sqrt(m/2).
    """
    if num_bound is None or den_bound is None:
        num_bound = den_bound = isqrt(m // 2)
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > num_bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > den_bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _lift_fits_int64(r: int, p: int, height: int) -> bool:
    """Whether p-adic lifting of an r x r system stays exact in int64.

    With every entry of b and of the right-hand sides within height, each
    residual stays within r * height: if it holds for res, then
    |res - b @ x| <= r*height + r*height*(p-1) = r*height*p before the
    exact division by p. The solve mod p starts from res reduced mod p, so
    r*height*p bounds every int64 intermediate.
    """
    return r * height * p < 1 << 63


def _hadamard_bounds(b: np.ndarray, rhs: np.ndarray) -> tuple[int, int]:
    """Bounds on the numerators and on the denominator of the solutions of b x = rhs.

    By Cramer's rule each entry is a ratio of minors over det b, and
    Hadamard's inequality bounds |det b| by the product of the column
    norms; replacing the smallest column by the largest right-hand side
    bounds every numerator. Both bounds are rounded up to integers.
    """
    col_sq = [sum(x * x for x in col) for col in b.T.tolist()]
    rhs_sq = max(sum(x * x for x in col) for col in rhs.T.tolist())
    det_sq = prod(col_sq)
    num_sq = -(-det_sq * rhs_sq // min(col_sq))
    return isqrt(num_sq) + 1, isqrt(det_sq) + 1


def _padic_lift(
    b: np.ndarray, solve: Callable[[np.ndarray], np.ndarray], rhs: np.ndarray, p: int
) -> Iterator[tuple[int, list[list[int]]]]:
    """Dixon's p-adic lifting of b x = rhs, one p-adic digit per step, without end.

    Yields, after each step s, the modulus p^s and, per right-hand side,
    the solution's residues mod p^s. Each step takes the residues x with
    b x = res mod p from `solve` and divides the residual by p exactly;
    `_lift_fits_int64` must hold for the int64 products.
    """
    res = rhs.copy()
    modulus = 1
    solutions = [[0] * len(b) for _ in range(rhs.shape[1])]
    while True:
        x = solve(res)
        res = (res - b @ x) // p
        for sol, digits in zip(solutions, x.T.tolist()):
            sol[:] = [s + modulus * d for s, d in zip(sol, digits)]
        modulus *= p
        yield modulus, solutions


def _lift_vector(
    residues: Sequence[int], modulus: int, num_bound: Optional[int], den_bound: Optional[int]
) -> Optional[list[Fraction]]:
    """Every residue reconstructed as a fraction by `_rational_lift`, or None if one fails."""
    out = []
    for u in residues:
        x = _rational_lift(u, modulus, num_bound, den_bound)
        if x is None:
            return None
        out.append(x)
    return out


def _column_terms(m: np.ndarray) -> list[tuple[list[int], list[int]]]:
    """Per column of m, the rows on which it is nonzero and those entries."""
    cols, rows = np.nonzero(m.T)
    rows, entries = rows.tolist(), m[rows, cols].tolist()
    ends = np.cumsum(np.count_nonzero(m, axis=0)).tolist()
    return [(rows[i:j], entries[i:j]) for i, j in zip([0, *ends], ends)]


def _combines_to(
    y: list[Fraction], terms: list[tuple[list[int], list[int]]], want: Sequence[int]
) -> bool:
    """Whether sum_q y[q] * row_q == want exactly, in Python ints.

    terms[i], from `_column_terms`, holds the rows q on which column i is
    nonzero and those entries; y is scaled to integers over its common
    denominator.
    """
    ints, scale = _scale_row(y)
    return all(
        sum(ints[q] * w for q, w in zip(qs, ws)) == scale * v
        for (qs, ws), v in zip(terms, want)
    )


class ModularEchelon:
    """An integer matrix factored modulo the prime `_P`, and the exact certificates it gives.

    `rank` is the rank mod p, at most the rank over Q. When it equals the
    column count the columns are independent over Q: some maximal minor
    is nonzero mod p, so it is nonzero over Z. `null_vector` looks for the
    opposite certificate and `combination` solves for a target in the row
    space, both through the one LU factor with pivot columns `pivots` and
    pivot rows `pivot_rows`; both check their answer in exact integer
    arithmetic, so neither returns one that is wrong. `spans`, `contains`
    and `solve` try these certificates and fall back to Bareiss, so they
    always answer. Entries must lie in (-2^31, 2^31); the matrix is kept as
    `rows` for the checks.
    """

    def __init__(self, rows: np.ndarray):
        a = np.asarray(rows, dtype=np.int64)
        if a.ndim != 2 or not a.shape[1]:
            raise ValueError("expected a matrix with at least one column")
        if a.size and (a.min() <= -(1 << 31) or a.max() >= 1 << 31):
            raise ValueError("entries must lie in (-2^31, 2^31)")
        self.rows = a
        self._p = _P
        lu = a % self._p
        order, self.pivots = _echelon_modp(lu, self._p)
        self.rank = len(self.pivots)
        self.columns = a.shape[1]
        self._free = sorted(set(range(self.columns)) - set(self.pivots))
        # the pivot rows of the factor, in the order of their pivots
        self._lu = lu[: self.rank]
        self._order = order[: self.rank].tolist()
        self.pivot_rows = sorted(self._order)

    def spans(self) -> bool:
        """Whether the rows span Q^columns, i.e. `rank_rational(rows) == columns`."""
        if self.rank == self.columns:
            return True
        if self.null_vector() is not None:
            return False
        return SpanSolver(self.rows.tolist()).rank == self.columns

    def contains(self, target: Sequence[int]) -> bool:
        """Whether target is in the row space, i.e. `SpanSolver(rows).contains(target)`."""
        target = self._target(target)
        if self.rank == self.columns:
            return True
        if self.null_vector(target) is not None:
            return False
        return SpanSolver(self.rows.tolist()).contains(target)

    def solve(self, target: Sequence[int]) -> Optional[list[Fraction]]:
        """The canonical y with y @ rows == target, or None: `SpanSolver(rows).solve(target)`."""
        target = self._target(target)
        if self.null_vector(target) is not None:
            return None
        coeffs = self.combination(target)
        if coeffs is None:
            coeffs = SpanSolver(self.rows.tolist()).solve(target)
        return coeffs

    def null_vector(self, target: Optional[Sequence[int]] = None) -> Optional[list[int]]:
        """A nonzero integer y with rows @ y == 0, and target . y != 0 if given, or None.

        Candidates are the mod-p kernel vectors of the free columns, left
        to right: the free column's entry 1, minus its reduced-echelon
        column on the pivot columns, found by backward substitution
        through U. With a target, only the free columns on which the
        target's residue against the row space mod p is nonzero are tried:
        for those, target . y is nonzero mod p whenever the lift is
        congruent to the kernel vector mod p. Each is lifted to a rational
        vector entry by entry, scaled to integers and checked exactly; a
        failed lift or check moves on to the next one, and None means that
        none passed.
        """
        if target is not None:
            target = self._target(target)
        if self.rank == self.columns:
            return None
        p, free = self._p, self._free
        kernel = _substitute(self._lu[:, self.pivots], self._lu[:, free], p, False)
        candidates = range(len(free))
        if target is not None:
            # the target minus its row-space part mod p, on the free columns
            e = np.array([t % p for t in target], dtype=np.int64)
            residual = e[free]
            for i, c in enumerate(self.pivots):
                if e[c]:
                    residual = (residual - e[c] * kernel[i]) % p
            candidates = np.flatnonzero(residual).tolist()
        row_norm = max(int(np.abs(self.rows).sum(axis=1).max(initial=0)), 1)
        for j in candidates:
            y = self._lift(kernel[:, j].tolist(), free[j])
            if y is not None and self._checked(y, row_norm, target):
                return y
        return None

    def combination(self, target: Sequence[int]) -> Optional[list[Fraction]]:
        """The canonical rational y with y @ rows == target, checked exactly, or None.

        Dixon's p-adic solve. The pivot rows and pivot columns of the
        factor give a block B, rows on columns, that is nonsingular mod p,
        hence over Q; B = L U on them, so each lifting step solves
        B^T y = res by forward substitution through U^T and backward
        substitution through L^T, and no inverse is formed. B^T y = target
        on the pivot columns is lifted p-adically, and rational
        reconstruction is tried after every step. From the step where p^s
        exceeds twice the product of the Hadamard bounds on numerator and
        denominator it cannot fail for a solvable system, so no later step
        is taken. A candidate is accepted only when y @ rows == target
        holds exactly, on every column, in Python ints. One that holds on
        B's columns is their unique solution, so if it fails another
        column no further step can help.

        y must also equal `SpanSolver(rows).solve(target)`, so the pivot
        rows must be the earliest rows independent over Q of those before
        them. Each other row is lifted as a further right-hand
        side and must pass the same exact check with zero on every pivot
        row after it. When the rank is the column count, the rows after the
        last pivot need no check: the pivot rows span everything. None
        means that a check failed or int64 cannot hold the lifting; it says
        nothing about the target.
        """
        target = self._target(target)
        p, r, a, rows = self._p, self.rank, self.rows, self._order
        height = max(int(np.abs(a).max(initial=0)), *map(abs, target), 1)
        if not r or not _lift_fits_int64(r, p, height):
            return None
        b = np.ascontiguousarray(a[np.ix_(rows, self.pivots)].T)
        # U^T below the diagonal, L^T above it, the pivots on it
        lu = np.ascontiguousarray(self._lu[:, self.pivots].T)
        diag_inv = _batch_inverse(np.diagonal(lu), p)
        last = len(a) if r < self.columns else self.pivot_rows[-1]
        checked = sorted(set(range(last)) - set(rows))
        wants = [target, *a[checked].tolist()]
        rhs = np.array(wants, dtype=np.int64)[:, self.pivots].T
        # B y = rhs fixes y, and the other equations decide whether it answers
        terms = _column_terms(a[rows])
        on, off = [terms[i] for i in self.pivots], [terms[i] for i in self._free]
        wants_on, wants_off = rhs.T.tolist(), [[want[i] for i in self._free] for want in wants]
        num_bound, den_bound = _hadamard_bounds(b, rhs)
        stop = 2 * num_bound * den_bound

        def solve(res: np.ndarray) -> np.ndarray:
            return _substitute(lu, _substitute(lu, res % p, p, True), p, False, diag_inv)

        found: dict[int, list[Fraction]] = {}
        for modulus, solutions in _padic_lift(b, solve, rhs, p):
            bounds = (num_bound, den_bound) if modulus > stop else (None, None)
            for col, residues in enumerate(solutions):
                if col in found:
                    continue
                y = _lift_vector(residues, modulus, *bounds)
                if y is None or not _combines_to(y, on, wants_on[col]):
                    continue
                # y solves the nonsingular system exactly, so no later step changes it
                if not _combines_to(y, off, wants_off[col]):
                    return None
                # a checked row must combine only the pivot rows before it
                if col and any(x for x, j in zip(y, rows) if j > checked[col - 1]):
                    return None
                found[col] = y
            if len(found) == len(wants):
                break
            if modulus > stop:
                return None
        coeffs = [Fraction(0)] * len(a)
        for j, x in zip(rows, found[0]):
            coeffs[j] = x
        return coeffs

    def _target(self, target: Sequence[int]) -> list[int]:
        """The target as Python ints, one per column."""
        target = [int(t) for t in target]
        if len(target) != self.columns:
            raise ValueError(f"target length {len(target)} != column count {self.columns}")
        return target

    def _lift(self, column: list[int], f: int) -> Optional[list[int]]:
        """The kernel vector mod p of free column f, lifted and scaled to integers.

        `column` is f's reduced-echelon column; the vector is 1 at f and
        minus that column on the pivot columns.
        """
        p = self._p
        support = [c for c, u in zip(self.pivots, column) if u]
        x = _lift_vector([p - u for u in column if u], p, None, None)
        if x is None:
            return None
        scaled, _ = _scale_row([1, *x])
        y = [0] * self.columns
        for c, v in zip([f, *support], scaled):
            y[c] = v
        return y

    def _checked(self, y: list[int], row_norm: int, target: Optional[list[int]]) -> bool:
        """Whether rows @ y == 0 and target . y != 0, exactly; False if int64 cannot tell.

        row_norm bounds every row's absolute sum, so when max|y| * row_norm
        is below 2^63 no partial sum of the int64 product can overflow.
        """
        if max(map(abs, y)) * row_norm >= 1 << 63:
            return False
        if (self.rows @ np.array(y, dtype=np.int64)).any():
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
