"""Exact rank and span computations over the rationals and over GF(2).

Every elimination in the package lives here, but for the GF(2) front of
the covering question in `gf2`. Rational input is scaled
to integers by the lcm of its denominators (`_scale_row`), so no
rounding can occur, and every rank and solve over Q then comes from one
engine, `ModularEchelon`, described below.

Modular eliminations run in numpy integers with lazy reduction: a step
reduces only the pivot row and column, and `_lazy_steps(p)` bounds the
steps the rest may take unreduced. The LU factorization `_echelon_modp`
and the triangular solves (`_triangular_solver`) are blocked on that
bound, as in FFLAS-FFPACK (Dumas, Giorgi and Pernet, ACM TOMS 2008): the
factorization works in panels of w = `_panel_width(p)` columns and
updates the block right of a panel in one matrix product, and a solve
inverts the triangle's w x w diagonal blocks once, then takes one product
per block for it and one for the rows still to solve. Every int64 product
sum thus has an inner dimension of at most w <= `_lazy_steps(p)`, each
term the product of two residues.

`_nonzero_det_modp` tests a batch of m x m matrices at once, vectorized
over the batch on the last axis, in the narrowest of int16, int32 and
int64 whose `_lazy_steps(p, dtype)` cover its m - 1 unreduced steps. Its
reductions are floor divisions, x - (x // p) * p (`_reduce`), because
numpy vectorizes `//` by a scalar but not `%`: on a 24 x 2900 int16
block 22 us against 189 us (numpy 2.4.6, 2-vCPU 2.1 GHz host). In int16
the pivots' inverses come from a table of the p residues, else from
Montgomery's trick ("Speeding the Pollard and elliptic curve methods of
factorization", Math. Comp. 1987) on a pairwise product tree
(`_batch_inverse`). `_nonsingular_gf2` decides the same question over
GF(2) for bit-packed rows, XOR-ing whole rows as uint64 masks. The other
GF(2) kernel, the covering front of `gf2`, factors one matrix of many
words with a stop and a transform; the two stay apart, as `gf2` says.

Every answer about an integer matrix comes from `ModularEchelon`, behind
`gf2._leading_rank_2adic` for the covering question: one LU
factorization modulo a prime, Dixon's p-adic lifting (`_lifted`) through
it and an exact check, retried modulo another prime when the check fails.
A factorization pays only for the answer asked of it: with prefix it
stops at the first column without a pivot, and with a target it carries
the target as a last row and stops where that row would pivot, so a "no"
comes from a factor of the columns up to its certificate's. The exact
checks (`_combines_to`) multiply int64 matrices in int64, splitting
integers too tall for one product into limbs. `rank_rational` asks it
the rank of rational rows, each scaled to integers.
The tests keep a fraction-free Bareiss elimination (Bareiss, Math. Comp.
1968) as their reference, and every answer, the coefficients included,
must equal it.

Pivoting is deterministic everywhere: columns are scanned left to right
and within a column the first nonzero row is taken, from the top or, for
`_echelon_modp`, in input order. Repeated runs on the same input
therefore return identical coefficient lists, and `_echelon_modp` takes
as pivot rows the earliest rows independent of those above.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from typing import Callable, Iterator, Optional, Sequence, TypeVar

import numpy as np

# The two largest primes with 25 p^2 < 2^63, so `_lazy_steps` is 25 for
# both. _P is the certificate prime of `ModularEchelon` and _P2 its first
# retry prime.
_P1 = 607400093
_P2 = 607400051
_P = _P1

Scalar = int | Fraction
# exact vectors inside the engine: (numerators, d), and (columns, integers on them)
Lifted = tuple[list[int], int]
Sparse = tuple[list[int], list[int]]
T = TypeVar("T")


def _scale_row(row: Sequence[Scalar]) -> tuple[list[int], int]:
    """The row times the lcm of its denominators, and that lcm."""
    if all(isinstance(x, int) for x in row):
        return list(row), 1
    # ints and Fractions already carry a numerator and a denominator
    fracs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    scale = lcm(*(x.denominator for x in fracs))
    return [x.numerator * (scale // x.denominator) for x in fracs], scale


def _lazy_steps(p: int, dtype: type = np.int64) -> int:
    """Elimination steps a block of residues mod p in the integer dtype can take unreduced.

    Each step subtracts a product of two residues, below p^2, from every
    entry, so after s steps the entries lie in (-s * p^2, p), inside the
    dtype while s * p^2 does not pass its largest value.
    """
    return int(np.iinfo(dtype).max) // (p * p)


# The widest panel of the blocked kernels, for primes whose `_lazy_steps`
# is larger still (2 and 3, where it is about 2^61).
_PANEL_CAP = 32


def _panel_width(p: int) -> int:
    """Columns per panel of `_echelon_modp`, rows per block of `_triangular_solver`."""
    return min(_lazy_steps(p), _PANEL_CAP)


def _echelon_modp(
    r: np.ndarray, p: int, stop: bool = False, witnesses: int = 0
) -> tuple[np.ndarray, list[int], Optional[int]]:
    """LU factorization mod p of the int64 matrix r, in place; returns the row order, pivots and end.

    The entries of r must be residues already, and end as residues. A
    column's pivot is its nonzero candidate of smallest input index, so
    the pivot rows are the earliest rows independent mod p of those
    before them. Rows are swapped; order[i] is the input
    index of row i afterwards. Pivots and the multipliers below them stay,
    and the rest of each pivot row is divided by its pivot, so r_in[order]
    = L U mod p.

    The columns are taken in panels of w = `_panel_width(p)`, a shorter
    one first if w does not divide them. Within a panel each step reduces
    only the pivot column and row and subtracts a product of two residues
    from the rest of the panel below it. A new pivot row first catches up
    on the columns right of the panel with one product through the
    panel's earlier pivot rows. At the end of the panel the trailing block
    below takes all of the panel's pivots in one matrix product and is
    reduced whole. Every int64 sum thus adds at most w <= `_lazy_steps(p)`
    products of two residues to a residue.

    With stop, the elimination ends at a free column, one that no row but
    the last `witnesses` can pivot, and returns it as end (None when it
    ran through every column). The witnesses never pivot, and each is
    reduced by the pivots before it; at a free column f its entry is then
    its product with f's kernel vector mod p. So the end is the first free
    column whose kernel vector some witness does not annihilate, and with
    no witnesses the first free column. Once every other row has pivoted,
    one vectorized scan of the witnesses, brought up to date, finds it. The
    pivots and pivot rows are those of the full factorization up to the
    end: the factor of a leading block of columns is the leading block of
    the factor, and rows below another never change its pivots. The
    entries right of the end are stale below the pivot rows.
    """
    rows, cols = r.shape
    lead = rows - witnesses
    w = _panel_width(p)
    order = np.arange(rows)
    pivots: list[int] = []
    # the short panel first, so the last is full and needs no trailing update
    edges = [0, *range(cols % w or w, cols, w), cols]
    for c0, c1 in zip(edges, edges[1:]):
        rank0 = len(pivots)
        for c in range(c0, c1):
            rank = len(pivots)
            col = r[rank:, c]
            col %= p
            nonzero = np.flatnonzero(col)
            if not nonzero.size:
                if stop and not witnesses:
                    return order, pivots, c
                continue
            piv = rank + int(nonzero[order[rank:][nonzero].argmin()])
            if witnesses and order[piv] >= lead:
                # only witnesses are nonzero: c is free, and one does not annihilate it
                return order, pivots, c
            if piv != rank:
                r[[rank, piv]] = r[[piv, rank]]
                order[rank], order[piv] = order[piv], order[rank]
            if rank > rank0 and c1 < cols:
                r[rank, c1:] -= r[rank, pivots[rank0:]] @ r[rank0:rank, c1:]
            top = r[rank, c + 1 :]
            top %= p
            top *= pow(int(r[rank, c]), p - 2, p)
            top %= p
            r[rank + 1 :, c + 1 : c1] -= r[rank + 1 :, c, None] * top[: c1 - c - 1]
            pivots.append(c)
            if len(pivots) == lead:
                if not stop or c + 1 == cols:
                    return order, pivots, None
                if not witnesses:
                    return order, pivots, c + 1
                # the witnesses right of c take this panel's pivots, then one scan
                rest = r[lead:, c + 1 :]
                if c1 < cols:
                    rest[:, c1 - c - 1 :] -= r[lead:, pivots[rank0:]] @ r[rank0:lead, c1:]
                rest %= p
                hits = np.flatnonzero(rest.any(axis=0))
                return order, pivots, c + 1 + int(hits[0]) if hits.size else None
        rank = len(pivots)
        if rank > rank0 and c1 < cols:
            trailing = r[rank:, c1:]
            trailing -= r[rank:, pivots[rank0:]] @ r[rank0:rank, c1:]
            trailing %= p
    return order, pivots, None


def _sweep(t: np.ndarray, p: int, forward: bool) -> np.ndarray:
    """The inverse mod p of every unit triangle in the (b, w, w) stack t, by one row sweep.

    Only the strictly lower (forward) or strictly upper part of t is
    read, and its entries must be residues. Row i of each inverse is e_i
    minus the rows already found times t's row i there, reduced, so each
    int64 sum adds fewer than w <= `_lazy_steps(p)` products of residues.
    """
    b, w, _ = t.shape
    x = np.zeros_like(t)
    x.reshape(b, w * w)[:, :: w + 1] = 1
    for i in range(w) if forward else range(w - 1, -1, -1):
        done = slice(None, i) if forward else slice(i + 1, None)
        row = x[:, i]
        row -= (t[:, i, None, done] @ x[:, done])[:, 0]
        row %= p
    return x


def _triangular_solver(
    m: np.ndarray, p: int, forward: bool, diag_inv: Optional[np.ndarray] = None
) -> Callable[[np.ndarray], np.ndarray]:
    """The solve mod p of m x = rhs for triangular m, lower if forward, upper otherwise.

    Only m's strictly lower (forward) or strictly upper part is read; its
    diagonal is 1, or has the inverses diag_inv. The entries of m and of
    rhs, one column per right-hand side, must be residues, as are x's.

    m's diagonal is cut into blocks of at most `_panel_width(p)` rows, as
    even as possible, and every block is inverted mod p by one `_sweep`
    over them all, the short last block padded with the identity. With
    diag_inv a block D + N is inverted as (I + D^-1 N)^-1 D^-1. A solve
    then takes the blocks in order: the block's rows become its inverse
    times their values, and the rows still to solve subtract m's columns
    of the block times them in one product and are reduced whole.
    """
    n = len(m)
    if not n:
        return np.copy
    blocks = -(-n // _panel_width(p))
    w = -(-n // blocks)
    starts = range(0, n, w)
    t = np.zeros((blocks, w, w), dtype=np.int64)
    for i, s in enumerate(starts):
        t[i, : n - s, : n - s] = m[s : s + w, s : s + w]
    if diag_inv is not None:
        scale = np.ones(blocks * w, dtype=np.int64)
        scale[:n] = diag_inv
        scale = scale.reshape(blocks, w)
        t = t * scale[:, :, None] % p
    inverses = _sweep(t, p, forward)
    if diag_inv is not None:
        inverses = inverses * scale[:, None, :] % p
    steps = []
    for s, inv in zip(starts, inverses):
        block = slice(s, s + w)
        rest = slice(s + w, None) if forward else slice(None, s)
        steps.append((block, inv[: n - s, : n - s], rest, m[rest, block]))
    if not forward:
        steps.reverse()

    def solve(rhs: np.ndarray) -> np.ndarray:
        x = rhs.copy()
        for block, inv, rest, coef in steps:
            x[block] = inv @ x[block] % p
            if coef.size:
                unsolved = x[rest]
                unsolved -= coef @ x[block]
                unsolved %= p
        return x

    return solve


def _batch_inverse(x: np.ndarray, p: int) -> np.ndarray:
    """The inverse mod p of every entry of the integer vector x, each a residue in [1, p).

    Montgomery's trick on a pairwise product tree: each level multiplies
    neighbouring entries, after padding an odd level with a 1, until one
    product is left, and one Python pow inverts it. Walking back down, an
    entry's inverse is its parent's inverse times its sibling. That is a
    few vector passes over x in all, where a Fermat power costs dozens.
    The products of two residues run in int64 if p^2 passes x's dtype.
    At the 75 to 300 entries of a retest or a factor's pivots, `%` beats
    `_reduce`: each level pays per numpy call, not per entry.
    """
    size = len(x)
    if not size:
        return x.copy()
    if x.dtype != np.int64 and not _lazy_steps(p, x.dtype):
        x = x.astype(np.int64)
    levels = []
    while len(x) > 1:
        if len(x) % 2:
            x = np.append(x, np.ones(1, x.dtype))
        levels.append(x)
        x = x[0::2] * x[1::2] % p
    inv = np.array([pow(int(x[0]), -1, p)], dtype=x.dtype)
    for x in reversed(levels):
        up = inv[: len(x) // 2]
        inv = np.empty_like(x)
        inv[0::2] = up * x[1::2] % p
        inv[1::2] = up * x[0::2] % p
    return inv[:size]


def _reduce(x: np.ndarray, p: int) -> None:
    """Reduce the integer array x mod p in place, to residues in [0, p).

    As x - (x // p) * p, because numpy vectorizes floor division by a
    scalar but not the remainder, which is several times slower. Where
    (x // p) * p wraps in the dtype the subtraction wraps back: the true
    remainder lies in [0, p) and the arithmetic is exact mod 2^bits.
    Arrays only: a numpy scalar warns when it wraps.
    """
    q = x // p
    q *= p
    x -= q


def _nonzero_det_modp(mats: np.ndarray, p: int) -> np.ndarray:
    """Per-matrix test det != 0 (mod p) for a (t, m, m) batch of residues, by lazy reduction.

    Elimination is normalized: each step reduces only the pivot column and
    the pivot row mod p, scales the column by the pivots' inverses and
    subtracts g * pivot_row from the trailing block without reducing it.
    The block is never reduced whole, not even on entry, so every entry
    must already be a residue in [0, p), and the m - 1 steps must fit the
    `_lazy_steps` of int64 at least.
    """
    t, m, _ = mats.shape
    fits = [d for d in (np.int16, np.int32, np.int64) if max(m - 1, 1) <= _lazy_steps(p, d)]
    if not fits:
        raise ValueError(f"{m}x{m} elimination mod {p} could overflow int64")
    dtype = fits[0]
    # trials on the last axis, so every vector operation runs over them contiguously
    a = np.array(mats.transpose(1, 2, 0), dtype=dtype, order="C")
    # in int16 the pivots' inverses come from a table of the p residues
    small = dtype is np.int16
    table = np.array([0, *(pow(x, -1, p) for x in range(1, p))], dtype) if small else None
    singular = np.zeros(t, dtype=bool)
    for k in range(m):
        col = a[k:, k]
        _reduce(col, p)
        nz = col != 0
        singular |= ~nz.any(axis=0)
        prow = k + nz.argmax(axis=0)
        moved = np.flatnonzero(prow != k)
        src = prow[moved]
        a[src, k:, moved], a[k, k:, moved] = a[k, k:, moved], a[src, k:, moved]
        if k + 1 == m:
            break
        row = a[k, k + 1 :]
        _reduce(row, p)
        piv = a[k, k]
        if table is None:
            inv = _batch_inverse(np.where(piv == 0, 1, piv), p).astype(dtype, copy=False)
        else:
            inv = table[piv]
        g = a[k + 1 :, k] * inv
        _reduce(g, p)
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


def _column_norms_sq(m: np.ndarray) -> list[int]:
    """The squared Euclidean norm of every column of the int64 matrix m, exactly.

    One int64 reduction when len(m) * max|m|^2 < 2^63 bounds every partial
    sum, Python ints otherwise.
    """
    height = int(np.abs(m).max(initial=0))
    if len(m) * height**2 < 1 << 63:
        return (m * m).sum(axis=0).tolist()
    return [sum(x * x for x in col) for col in m.T.tolist()]


def _hadamard_bounds(b: np.ndarray, rhs: np.ndarray) -> tuple[int, int]:
    """Bounds on the numerators and on the denominator of the solutions of b x = rhs.

    By Cramer's rule each entry is a ratio of minors over det b, and
    Hadamard's inequality bounds |det b| by the product of the column
    norms; replacing the smallest column by the largest right-hand side
    bounds every numerator. Both bounds are rounded up to integers.
    """
    col_sq = _column_norms_sq(b)
    rhs_sq = max(_column_norms_sq(rhs))
    det_sq = prod(col_sq)
    num_sq = -(-det_sq * rhs_sq // min(col_sq, default=1))
    return isqrt(num_sq) + 1, isqrt(det_sq) + 1


class _Undecided(Exception):
    """A failed exact check: the prime's pivot profile is not the one over Q."""


def _padic_lift(
    b: np.ndarray, solve: Callable[[np.ndarray], np.ndarray], rhs: np.ndarray, p: int
) -> Iterator[tuple[int, list[list[int]]]]:
    """Dixon's p-adic lifting of b x = rhs, one p-adic digit per step, without end.

    Yields, after each step s, the modulus p^s and, per right-hand side,
    the solution's residues mod p^s. Each step takes the residues x with
    b x = res mod p from `solve` and divides the residual by p exactly,
    in int64 only where `_lift_fits_int64` holds, else in Python ints.
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
) -> Optional[Lifted]:
    """Every residue reconstructed as a fraction, as numerators over one d, or None if one fails.

    As in IML, u is w/d for d the lcm of the denominators found so far
    when u * d = w mod the modulus with |w| <= num_bound, and otherwise
    `_rational_lift` reconstructs it. With 2 * num_bound * den_bound below
    the modulus and d <= den_bound both give the unique such fraction.
    Each w is rescaled once, at the end, to d: the lcm of the reduced denominators.
    """
    if num_bound is None or den_bound is None:
        num_bound = den_bound = isqrt(modulus // 2)
    out, d = [], 1
    for u in residues:
        w = (u * d + num_bound) % modulus - num_bound
        if abs(w) > num_bound or d > den_bound:
            x = _rational_lift(u, modulus, num_bound, den_bound)
            if x is None:
                return None
            d = lcm(d, x.denominator)
            w = x.numerator * (d // x.denominator)
        out.append((w, d))
    return [w * (d // e) for w, e in out], d


def _combines_to(y: Sequence[int], d: int, m: np.ndarray, want: Sequence[int]) -> bool:
    """Whether y @ m == d * want exactly: the integers y over d combine m's rows to want.

    For int64 m, let S be its largest absolute column sum. When max|y| * S
    is below 2^63 no partial sum of one int64 product can overflow, and
    that product decides. Otherwise each |y_i| is cut into limbs of L bits,
    L the largest with (2^L - 1) * S < 2^63, and y's sign goes on every
    limb: one int64 product takes all limbs at once, and each column's
    limb sums recombine into the exact column of y @ m. Object m keeps the
    product on Python ints.
    """
    want = [d * v for v in want]
    if m.dtype == object:
        return np.matmul(np.array(y, dtype=object), m).tolist() == want
    colsum = max(int(np.abs(m).sum(axis=0).max(initial=0)), 1)
    height = max([1, *map(abs, y)])
    if height * colsum < 1 << 63:
        return np.matmul(np.array(y, dtype=np.int64), m).tolist() == want
    bits = (((1 << 63) - 1) // colsum + 1).bit_length() - 1
    mask = (1 << bits) - 1
    magnitudes = [abs(v) for v in y]
    signs = np.array([-1 if v < 0 else 1 for v in y], dtype=np.int64)
    limbs = np.array(
        [[(v >> shift) & mask for v in magnitudes] for shift in range(0, height.bit_length(), bits)],
        dtype=np.int64,
    )
    limbs *= signs
    sums = np.matmul(limbs, m).tolist()
    exact = sums.pop()
    while sums:
        exact = [(x << bits) + s for x, s in zip(exact, sums.pop())]
    return exact == want


def _lifted(
    b: np.ndarray, solve: Callable[[np.ndarray], np.ndarray], rhs: list[list[int]], p: int
) -> list[Lifted]:
    """The x with b x = want per want in rhs, as (numerators, d), by `_padic_lift`, checked exactly.

    b is nonsingular mod p, hence over Q, and `solve` gives the x with
    b x = res mod p. Rational reconstruction is tried after every step,
    and x is accepted only when b x = want holds exactly (`_combines_to`),
    as b's unique solution. From the step where p^s exceeds twice the
    product of the Hadamard bounds on numerator and denominator it cannot
    fail, so no later step is taken. Raises `_Undecided` when a want is
    unanswered after that step.
    """
    # b @ x may stay in int64 while the residuals need Python ints
    height = max(int(np.abs(b).max(initial=0)), 1)
    b = b.astype(np.int64 if _lift_fits_int64(len(b), p, height) else object, copy=False)
    height = max(height, *(abs(v) for want in rhs for v in want), 1)
    dtype = np.int64 if _lift_fits_int64(len(b), p, height) else object
    cols = np.array(rhs, dtype=dtype).reshape(len(rhs), len(b)).T
    num_bound, den_bound = _hadamard_bounds(b, cols)
    stop = 2 * num_bound * den_bound
    found: dict[int, Lifted] = {}
    for modulus, solutions in _padic_lift(b, solve, cols, p):
        bounds = (num_bound, den_bound) if modulus > stop else (None, None)
        for i, residues in enumerate(solutions):
            if i not in found:
                x = _lift_vector(residues, modulus, *bounds)
                if x is not None and _combines_to(*x, b.T, rhs[i]):
                    found[i] = x
        if len(found) == len(rhs):
            return [found[i] for i in range(len(rhs))]
        if modulus > stop:
            raise _Undecided


# Miller-Rabin with bases 2, 3, 5 and 7 is exact below this (Pomerance et al., 1980)
_MR_LIMIT = 3_215_031_751


def _is_prime(q: int) -> bool:
    """Whether q is prime, by deterministic Miller-Rabin; q must lie below `_MR_LIMIT`."""
    if q >= _MR_LIMIT:
        raise ValueError(f"{q} is past the deterministic Miller-Rabin range")
    if q < 11:
        return q in (2, 3, 5, 7)
    s = ((q - 1) & (1 - q)).bit_length() - 1
    d = (q - 1) >> s
    return all(pow(a, d, q) == 1 or any(pow(a, d << i, q) == q - 1 for i in range(s))
               for a in (2, 3, 5, 7))


def _primes() -> Iterator[int]:
    """The retry primes: `_P2`, then every prime below it, descending."""
    return filter(_is_prime, range(_P2, 8, -2))


class ModularEchelon:
    """An integer matrix factored modulo a prime, and the exact certificates it gives.

    `rank` is the rank mod p, at most the rank over Q. When it equals the
    column count the columns are independent over Q: some maximal minor
    is nonzero mod p, so it is nonzero over Z. `null_vector` looks for the
    opposite certificate, by `_lifted` through the one LU factor with pivot
    columns `pivots` and pivot rows `pivot_rows`: a checked vector, a
    proved None, or `_Undecided`. `spans`, `contains`, `solve`, `fit` and
    `rational_rank` always answer, as `_certified` re-factors modulo new
    primes after `_P` until the checks pass. One route per question: a
    target's combination is `_through_pivot_rows`', and `fit` lifts any
    number of value vectors at once. Rows are held in int64 when every
    entry lies in (-2^31, 2^31), and as Python ints otherwise.

    A factorization may stop early, at `_echelon_modp`'s end: the first
    free column whose kernel vector mod p it needs, the only one it then
    knows. Both stops ask one question, and every other is refused:
    - With prefix it stops at the first column without a pivot, and only
      `spans` may be asked. Its "no" is that column's checked kernel
      vector, on the columns before it, and afterwards `rank` is the
      number of leading columns independent over Q.
    - With target the factor carries target as one extra last row, a
      witness that never pivots, and stops at the first column the target
      would pivot: the first free column whose kernel vector mod p the
      target does not annihilate. Only `solve` and `contains` for that
      target, and `null_vector`, may be asked. A "no" is that column's
      checked kernel vector, `null_vector()`, from a factor of the columns
      up to it; when the target annihilates every kernel vector mod p the
      factor runs to the end, and the checked combination answers.
    """

    def __init__(
        self,
        rows: Sequence[Sequence[int]] | np.ndarray,
        *,
        prefix: bool = False,
        target: Optional[Sequence[int]] = None,
    ):
        try:
            a = np.asarray(rows, dtype=np.int64)
        except OverflowError:
            a = None
        lo, hi = (int(a.min()), int(a.max())) if a is not None and a.size else (0, 0)
        if a is None or lo <= -(1 << 31) or hi >= 1 << 31:
            a = np.array(rows, dtype=object)
        if a.ndim != 2 or not a.shape[1]:
            raise ValueError("expected a matrix with at least one column")
        self.rows = a
        self.columns = a.shape[1]
        self._prefix, self._witness = prefix, None
        if target is not None:
            self._witness = self._target(target)
        self._stop = prefix or target is not None
        # int64 rows in [0, p) are residues mod p already, as 0/1 rows are for every p
        self._least_modulus = hi + 1 if a.dtype == np.int64 and lo >= 0 else None
        self._factor(_P)

    def _factor(self, p: int) -> None:
        """The LU factor of the rows mod p, with its rank, pivot columns, pivot rows and end."""
        self._p = p
        a = self.rows
        if self._least_modulus is None or p < self._least_modulus:
            a = a % p
        if self._witness is not None:
            a = np.vstack([a, [[t % p for t in self._witness]]])
        lu = a.astype(np.int64, copy=a is self.rows)
        order, self.pivots, self._end = _echelon_modp(
            lu, p, stop=self._stop, witnesses=int(self._witness is not None)
        )
        self.rank = len(self.pivots)
        # a factor that stopped knows one free column, the one it stopped at
        if self._end is not None:
            self._free = [self._end]
        else:
            self._free = sorted(set(range(self.columns)) - set(self.pivots))
        # the pivot rows of the factor, in the order of their pivots
        self._lu = lu[: self.rank]
        self._order = order[: self.rank].tolist()
        self.pivot_rows = sorted(self._order)

    def _certified(self, answer: Callable[[], T]) -> T:
        """answer(), re-factored modulo the next of `_primes()` each time it raises `_Undecided`.

        Let d_i be the minor on the first i pivot rows and columns over Q.
        Mod a prime dividing no d_i each elimination step is the image of
        the step over Q, so the profiles agree and every check passes. The
        bad primes thus divide prod d_i != 0, at most prod H_i with H_i the
        product of the i largest row norms (Hadamard's bound on any i x i
        minor): at most sum log_p H_i primes p are bad. Once the distinct
        failed retry primes multiply past that bound, a failure is a bug.
        """
        primes, spent = _primes(), 0
        while True:
            try:
                return answer()
            except _Undecided:
                sq = sorted(_column_norms_sq(self.rows.T), reverse=True)[: min(self.rows.shape)]
                # twice log2 prod H_i at most: a norm's log2 is half its square's
                if 2 * spent > sum((len(sq) - i) * s.bit_length() for i, s in enumerate(sq)):
                    raise AssertionError("more bad primes than the Hadamard bound allows")
                p = next(primes)
                spent += p.bit_length() - 1
                self._factor(p)

    def rational_rank(self) -> int:
        """The rank over Q, `rank_rational(rows)`.

        The rank mod p is at most the rank over Q, so at min(rows, columns)
        it is that rank; below it the free columns' kernel vectors prove it.
        """
        self._require_full()
        full = min(self.rows.shape)
        self._certified(lambda: self.rank == full or self._kernels(self._free, []))
        return self.rank

    def spans(self) -> bool:
        """Whether the rows span Q^columns, i.e. `rank_rational(rows) == columns`."""
        if self._witness is not None:
            self._require_full()
        return self._certified(lambda: self.null_vector() is None)

    def contains(self, target: Sequence[int]) -> bool:
        """Whether target is in the row space over Q."""
        target = self._target(target)
        return self.rank == self.columns or self._solution(target) is not None

    def solve(self, target: Sequence[int]) -> Optional[list[Fraction]]:
        """The canonical y with y @ rows == target, zero off the pivot rows, or None."""
        y = self._solution(target)
        if y is None:
            return None
        rows, nums, d = y
        coeffs = [Fraction(0)] * len(self.rows)
        for i, v in zip(rows, nums):
            coeffs[i] = Fraction(v, d)
        return coeffs

    def _solution(self, target: Sequence[int]) -> Optional[tuple[list[int], list[int], int]]:
        """`solve`'s y as (pivot rows, numerators, d): nums / d on those rows and zero elsewhere.

        A stopped factor's "no" is `null_vector`'s; `_through_pivot_rows` answers the rest.
        """
        target = self._target(target)

        def answer() -> Optional[tuple[list[int], list[int], int]]:
            if self._witness is not None and self.null_vector() is not None:
                return None
            y = self._through_pivot_rows([target])[0]
            return None if y is None else (self._order, *y)

        return self._certified(answer)

    def fit(self, values: Sequence[Sequence[int]]) -> tuple[list[tuple], list[Sparse]]:
        """Per value vector v, x with B x = v, zero off the pivot columns; and a kernel basis.

        Each x is (pivot columns, numerators, d). `_kernels` lifts every
        B x = v with the free columns' kernel vectors (`_kernel_vector`),
        in one `_lifted` call; those prove the rank and column profile over
        Q, and `_through_pivot_rows` the pivot rows. So every x and the
        reduced kernel basis are canonical.
        """
        self._require_full()
        for v in values:
            if len(v) != len(self.rows):
                raise ValueError(f"{len(v)} values for {len(self.rows)} rows")

        def answer() -> tuple[list[tuple[list[int], list[int], int]], list[Sparse]]:
            self._through_pivot_rows([])
            xs, kernel = self._kernels(self._free, [[v[i] for i in self._order] for v in values])
            return [(self.pivots, x, d) for x, d in xs], kernel

        return self._certified(answer)

    def null_vector(self) -> Optional[list[int]]:
        """A nonzero integer y with rows @ y == 0, and target . y != 0 for a carried target.

        y is the kernel vector of the first free column f, or on a factor
        that stopped of the column where it ended: with a carried target
        the first whose kernel vector mod p the target does not annihilate.
        None means there is no such f: full rank mod p, or a factor carrying
        a target that ran to the end. The first lifting step, f's column
        substituted backward through U, usually gives y from one residue;
        otherwise `_kernels` lifts it.
        """
        if self.rank == self.columns or (self._stop and self._end is None):
            return None
        p, f = self._p, self._free[0]
        u = _triangular_solver(self._lu[:, self.pivots], p, False)(self._lu[:, [f]])[:, 0].tolist()
        support = [c for c, v in zip(self.pivots, u) if v]
        x = _lift_vector([v for v in u if v], p, None, None)
        y = None if x is None else self._kernel_vector(f, support, x)
        cols, ints = y or self._kernels([f], [])[1][0]
        dense = np.zeros(self.columns, dtype=object)
        dense[cols] = ints
        return dense.tolist()

    def _kernels(self, free: list[int], rhs: list[list[int]]) -> tuple[list[Lifted], list[Sparse]]:
        """The x with B x = want per want in rhs, and the kernel vectors of the free columns.

        One `_lifted` call solves for all, a free column's on the pivot
        rows. A kernel vector that fails `_kernel_vector`'s checks means
        the profiles over Q and mod p differ: `_Undecided`.
        """
        b, solve = self._square(transpose=False)
        wants = [*self.rows[np.ix_(self._order, free)].T.tolist(), *rhs]
        xs = _lifted(b, solve, wants, self._p)
        kernel = [self._kernel_vector(f, self.pivots, x) for f, x in zip(free, xs)]
        if None in kernel:
            raise _Undecided
        return xs[len(free) :], kernel

    def _kernel_vector(self, f: int, support: list[int], x: Lifted) -> Optional[Sparse]:
        """[f, *support] and [d, *(-nums)]: e_f - x on those columns as integers, if a certificate.

        x is (nums, d) on the pivot columns support. It must vanish on every
        row, exactly, and be zero on the pivot columns after f, as f's column
        over Q combines only those before it; on a factor carrying a target,
        target . y must not vanish. None otherwise.
        """
        nums, d = x
        if any(v for v, c in zip(nums, support) if c > f):
            return None
        if not _combines_to(nums, d, self.rows[:, support].T, self.rows[:, f].tolist()):
            return None
        cols, ints = [f, *support], [d, *(-v for v in nums)]
        target = self._witness
        separates = target is None or sum(target[c] * v for c, v in zip(cols, ints))
        return (cols, ints) if separates else None

    def _through_pivot_rows(self, targets: list[list[int]]) -> list[Optional[Lifted]]:
        """Per target, the y with y @ rows == target, zero off the pivot rows, or None.

        y is (numerators, d), the numerators on the pivot rows in factor
        order (`_order`).

        `_lifted` solves B^T y = target on the pivot columns, and y must
        hold exactly on the other columns too. To be canonical, the
        pivot rows must be the earliest rows independent over Q, so each
        other row is lifted too and must pass the same check with zero on
        every pivot row after it; at full column rank the rows after the
        last pivot need none. Below it all are checked, so the pivot rows
        span the row space and a target failing the other columns is
        outside it: the None. A failed row raises `_Undecided`.
        """
        a, rows, free = self.rows, self._order, self._free
        last = len(a) if self.rank < self.columns else self.pivot_rows[-1]
        checked = sorted(set(range(last)) - set(rows))
        wants = [*targets, *a[checked].tolist()]
        if not wants:
            return []
        b, solve = self._square(transpose=True)
        ys = _lifted(b, solve, [[want[c] for c in self.pivots] for want in wants], self._p)
        # B^T y = want fixes y, and the other columns decide whether it answers
        off = a[np.ix_(rows, free)]
        answers = [_combines_to(*y, off, [want[c] for c in free]) for y, want in zip(ys, wants)]
        # a checked row must combine only the pivot rows before it
        for (nums, _), ok, row in zip(ys[len(targets) :], answers[len(targets) :], checked):
            if not ok or any(x for x, j in zip(nums, rows) if j > row):
                raise _Undecided
        return [y if ok else None for y, ok in zip(ys, answers)]

    def _require_full(self) -> None:
        """Refuse a question that needs every column factored, on a factor that may stop."""
        if self._prefix:
            raise ValueError("a prefix factorization answers only spans()")
        if self._witness is not None:
            raise ValueError("a factorization carrying a target answers only for that target")

    def _target(self, target: Sequence[int]) -> list[int]:
        """The target as Python ints, one per column; a factor carrying one takes only it."""
        target = [int(t) for t in target]
        if len(target) != self.columns:
            raise ValueError(f"target length {len(target)} != column count {self.columns}")
        if self._prefix or (self._witness is not None and target != self._witness):
            self._require_full()
        return target

    def _square(self, transpose: bool) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        """B (the pivot rows on the pivot columns) or B^T, and its solve mod p through the factor.

        B = L U, the pivots on L's diagonal: B x = res is forward through L
        and backward through U, B^T y = res forward through U^T, back through L^T.
        Both triangles' blocks are inverted here, once for every lifting step.
        """
        p = self._p
        b, lu = self.rows[np.ix_(self._order, self.pivots)], self._lu[:, self.pivots]
        if transpose:
            b, lu = b.T, lu.T
        diag_inv = _batch_inverse(np.diagonal(lu), p)
        first = _triangular_solver(lu, p, True, None if transpose else diag_inv)
        second = _triangular_solver(lu, p, False, diag_inv if transpose else None)

        def solve(res: np.ndarray) -> np.ndarray:
            return second(first((res % p).astype(np.int64, copy=False)))

        return b, solve


def rank_rational(rows: Sequence[Sequence[Scalar]]) -> int:
    """Exact rank over Q: `ModularEchelon.rational_rank` of the rows scaled to integers."""
    m = [_scale_row(row)[0] for row in rows]
    if any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix")
    if not m or not m[0]:
        return 0
    return ModularEchelon(m).rational_rank()
