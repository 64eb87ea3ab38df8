"""The GF(2) front of the covering question: bit-packed elimination mod 2, settled 2-adically.

Whether a design covers the cube at order j is whether the first
basis_size(n, j) columns of its 0/1 evaluation rows are independent over
Q. `_leading_rank_2adic` answers that for every order at once, before
any factorization mod p: one Gauss-Jordan elimination mod 2 of the rows
packed 64 columns to a uint64 word (`_Jordan2`), as in M4RI (Albrecht,
Bard and Hart, "Algorithm 898", ACM TOMS 2010), and Dixon's p-adic
lifting with p = 2 (Numer. Math. 1982) through that same elimination's
transform. An odd minor proves independence; a checked integer kernel
vector, or a Schur complement of full rank mod 2^s, settles most designs
that are short mod 2. What it cannot settle it leaves to
`linalg.ModularEchelon`. No floating point is used.

`linalg._nonsingular_gf2`, the Monte-Carlo test, stays a kernel of its
own: it packs one entry of 64 small matrices to a word, bit-sliced, where
this one packs the columns of one matrix, with a stop and a transform.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

# The step budget of the 2-adic lifts of `_leading_rank_2adic`, twice the
# most measured: on the n = 12, k = 3 designs of 300 random vertices of
# 40 benchmark seeds, every lift settled within 4 steps (7 of 80 designs
# needed 3 or 4), and on even-weight designs within 5.
_STEPS_2ADIC = 8
# The most columns free mod 2 that rule (c) of `_leading_rank_2adic` takes
# on. Its lift and rank checks grow with them; on a 300 x 299 design with
# 67 free it cost more than the factor mod p, while the random designs
# measured had at most 4.
_FREE_2ADIC = 16

_ONE = np.uint64(1)
_BITS = [np.uint64(1 << b) for b in range(64)]


def _packed(bits: np.ndarray, words: int) -> np.ndarray:
    """The 0/1 rows of bits as uint64 words, bit j of a row in bit j % 64 of word j // 64."""
    out = np.zeros((len(bits), 8 * words), dtype=np.uint8)
    packed = np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")
    out[:, : packed.shape[1]] = packed
    return out.view("<u8").astype(np.uint64)


def _popcount_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The integer products of packed 0/1 rows held words first: entry (i, j) is b[:, i] dot a[:, j]."""
    return np.bitwise_count(a[:, None, :] & b[:, :, None]).sum(axis=0, dtype=np.int64)


class _Jordan2:
    """Bit-packed Gauss-Jordan elimination mod 2 of a 0/1 matrix, column by column.

    Each row is a run of uint64 words: bit j of the first `half` words is
    its column j, and bit t of the last `half` its coefficient of pivot t.
    A column's pivot is its first row not yet pivoted with the bit set. It
    takes its own pivot bit, and is then XOR-ed into every other row with
    the bit set, pivot rows included. So every row is its input row plus
    the input pivot rows its pivot bits name (a pivot row only the
    latter), and the transform costs `half` words a row whatever the row
    count: it lives in pivot-number space, never in an m x m identity.
    After any prefix of the columns the pivot rows are the identity on the
    pivot columns, so their pivot bits are B^-1 mod 2, B the input pivot
    rows on the pivot columns. `advance` stops at each free column, and a
    later call goes on from there.
    """

    def __init__(self, rows: np.ndarray):
        m, self.columns = rows.shape
        self.half = -(-self.columns // 64)
        self.words = _packed(rows, 2 * self.half)
        # the input's column words, words first for `_popcount_products`
        self._input = np.ascontiguousarray(self.words[:, : self.half].T)
        self._unpivoted = np.ones(m, dtype=bool)
        self.pivots: list[int] = []
        self.pivot_rows: list[int] = []
        self.free: list[int] = []
        self._next = 0

    def _eliminate(self, j: int) -> bool:
        """Pivot column j and clear it from every other row; False if it is free."""
        a = self.words
        word, bit = divmod(j, 64)
        hit = (a[:, word] & _BITS[bit]).nonzero()[0]
        candidates = self._unpivoted[hit]
        i = int(candidates.argmax()) if hit.size else 0
        if not hit.size or not candidates[i]:
            return False
        piv, t = int(hit[i]), len(self.pivots)
        a[piv, self.half + t // 64] |= _BITS[t % 64]
        row = a[piv, word:].copy()
        a[hit, word:] ^= row
        a[piv, word:] = row
        self._unpivoted[piv] = False
        self.pivots.append(j)
        self.pivot_rows.append(piv)
        return True

    def advance(self) -> Optional[int]:
        """Eliminate the columns not yet visited up to the next free one, and return it; None at the end."""
        while self._next < self.columns:
            j = self._next
            self._next += 1
            if not self._eliminate(j):
                self.free.append(j)
                return j
        return None

    def lift(self, free: list[int]) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Dixon's lifting with p = 2 of the input's free columns through the pivots so far.

        With C the pivot columns, P the pivot rows and R the others,
        X = B^-1 A[P, free] is a 2-adic integer matrix, as B^-1 is (det B
        is odd). After step s this yields s and, one row per free column,
        X mod 2^s with entries in [0, 2^s) and A[R, free] - A[R, C] X. A
        step's digit is B^-1 times the residual (A[P, free] - B X) / 2^s
        mod 2, and every product of 0/1 rows is a popcount of packed words.
        The residuals stay within r = |C| in absolute value, and the last
        item within r 2^s.
        """
        top, rest = self.pivot_rows, np.flatnonzero(self._unpivoted)
        inverse = np.ascontiguousarray(self.words[top, self.half :].T)
        a_top, a_rest = self._input[:, top], self._input[:, rest]
        words = np.array([f // 64 for f in free], dtype=np.intp)
        shifts = np.array([f % 64 for f in free], dtype=np.uint64)[:, None]
        res = ((a_top[words] >> shifts) & _ONE).astype(np.int64)
        schur = ((a_rest[words] >> shifts) & _ONE).astype(np.int64)
        x = np.zeros_like(res)
        spread = np.zeros((len(free), self.columns), dtype=np.uint8)
        for step in range(_STEPS_2ADIC):
            digit = _popcount_products(inverse, _packed(res & 1, self.half).T) & 1
            spread[:, self.pivots] = digit
            packed = _packed(spread, self.half).T
            res -= _popcount_products(a_top, packed)
            res >>= 1
            x += digit << step
            schur -= _popcount_products(a_rest, packed) << step
            yield step + 1, x, schur


def _rank_2adic(s: np.ndarray, steps: int) -> int:
    """The rank of the integer matrix s mod 2^steps under min-valuation pivoting.

    Each step takes as pivot an entry of least 2-adic valuation v, and
    subtracts multiples of its row from every row, which clears its column
    and its row. Every entry left has valuation at least v, so each
    multiplier, known mod 2^(steps - v), times the pivot row, divisible by
    2^v, is exact mod 2^steps: the residues left are those of the true
    Schur complement, bordered by zeros. The
    count of pivots nonzero mod 2^steps is therefore the number of true
    pivots of valuation below steps: at most the rank over Q, and equal to
    it when every true pivot's valuation is below steps. Entries are kept
    in [0, 2^steps), so steps <= 31 keeps every product in int64.
    """
    modulus = 1 << steps
    a = s & (modulus - 1)
    rank = 0
    while a.any():
        low = a & -a
        i, j = np.unravel_index(np.where(low == 0, modulus, low).argmin(), a.shape)
        v = int(low[i, j])
        multipliers = (a[:, j] // v) * pow(int(a[i, j]) // v, -1, modulus)
        a -= (multipliers & (modulus - 1))[:, None] * a[i]
        a &= modulus - 1
        rank += 1
    return rank


def _leading_rank_2adic(rows: np.ndarray) -> Optional[int]:
    """The number of leading columns of the 0/1 int64 matrix independent over Q, or None if unsettled.

    One `_Jordan2` elimination mod 2, settled 2-adically by Dixon's lifting
    with p = 2 (Numer. Math. 1982) through its own transform
    (`_Jordan2.lift`). B, the pivot rows on the pivot columns, has an odd
    determinant, so it is nonsingular over Q and every lift converges.
    The elimination first stops at its first free column f:

    - (a) No column is free mod 2. Then some maximal minor is odd, hence
      nonzero over Z, and every column is independent over Q.
    - (b) The columns before f are independent over Q, by (a) on them.
      Lift f's column through them. Where the rows without a pivot are
      not zero mod 2^s after step s, no rational combination of the
      columns before f gives f's (it would be the lift's 2-adic limit),
      and the attempt ends. Otherwise X mod 2^s, read in
      [-2^(s-1), 2^(s-1)), is the candidate: if A[:, :f] X = A[:, f]
      holds exactly on every row, e_f - X is a kernel vector, and f is
      the answer. It is found within `_STEPS_2ADIC` steps whenever f's
      column is an integer combination of those before it with
      coefficients of absolute value below 2^(_STEPS_2ADIC - 1), as for
      a column that vanishes on the design.
    - (c) Otherwise the elimination runs to the end, unless more than
      `_FREE_2ADIC` columns are free, with the pivot columns C, pivot
      rows P, the other rows R and the free columns F.
      Let X = B^-1 A[P, F] and S = A[R, F] - A[R, C] X, the Schur
      complement of B. Permuting rows and columns and one block
      elimination give rank A = rank B + rank S over Q. The lift holds S
      exactly mod 2^s, and if S has full column rank mod 2^s under
      min-valuation pivoting (`_rank_2adic`) for some s up to
      `_STEPS_2ADIC`, it has over Q: every column is independent.

    Otherwise None, and the caller factors mod p. The int64 bounds: the
    residuals stay within r = |C|, X < 2^s and |S| <= r 2^s.
    """
    columns = rows.shape[1]
    jordan = _Jordan2(rows)
    f = jordan.advance()
    if f is None:
        return columns
    kernel = np.zeros(columns, dtype=np.int64)
    kernel[f] = 1
    for steps, x, schur in jordan.lift([f]):
        if (schur & ((1 << steps) - 1)).any():
            break
        # -X, with X mod 2^s read in [-2^(s-1), 2^(s-1))
        kernel[jordan.pivots] = ((x[0] >> (steps - 1) & 1) << steps) - x[0]
        if not (rows @ kernel).any():
            return f
    while jordan.advance() is not None:
        if len(jordan.free) > _FREE_2ADIC:
            return None
    for steps, _, schur in jordan.lift(jordan.free):
        # at steps 1, 2, 4, 8, ...: the rank only grows with the steps
        if not steps & (steps - 1) and _rank_2adic(schur.T, steps) == len(jordan.free):
            return columns
    return None
