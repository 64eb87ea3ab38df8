"""File formats: design files, measurement CSVs, and exact value rendering.

A design file is plain text with one bitstring per line (leftmost
character is x1); blank lines and lines starting with '#' are ignored.
A measurement file is CSV with header "vertex,value"; values may be
rational literals like "3/4" or decimal literals like "0.25", both of
which parse to exact rationals. All vertices in one file must share one
bitstring length and be distinct. The readers check the bitstrings of a
file in one pass, as masks, and split 'p/q', integer and plain-decimal
literals into integers without a `Fraction` (`core._exact_pair`); the
design holds their numerators over one scale.

Every table the package writes (design files, measurement CSVs and the
cube-wide outputs of the CLI) is rendered by `render`: a block of rows
is one (rows x width) matrix of ASCII bytes with a mask of the bytes
kept, filled column by column from the rows' bits and values
(`bit_field`, `value_field`) and the literal text around them, and
turned into text by one boolean gather and one decode.
"""

from __future__ import annotations

import csv
from fractions import Fraction
from functools import cache
from itertools import repeat
from typing import IO, Iterable, Optional, Sequence

import numpy as np

from .approx import Design, _from_masks
from .core import MAX_DIGITS, MAX_DIM, Vertex, _exact_pair, _over_lcm

VALUES_HEADER = ("vertex", "value")

# Rows rendered and written at a time, so that no large table's text is held whole
_CHUNK = 1 << 10

# A piece: one row of ASCII bytes per table row, and the mask of the bytes written
Piece = tuple[np.ndarray, np.ndarray]
# A field: the pieces one column of a table is written in, side by side
Field = list[Piece]


class FormatError(ValueError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def parse_value(text: str) -> Fraction:
    """Exact rational from a 'p/q', integer, or decimal literal."""
    return Fraction(*_exact_pair(text))


def format_value(x: Fraction, decimal: Optional[int] = None) -> str:
    """Render exactly as 'p/q' (or a plain integer), or fixed-point with --decimal.

    Fixed-point output rounds half to even at the requested digit count.
    """
    return format_values([x.numerator], x.denominator, decimal)[0]


def format_values(
    numerators: np.ndarray | Sequence[int], denominator: int, decimal: Optional[int] = None
) -> list[str]:
    """`format_value(Fraction(a, denominator), decimal)` for each integer a, through `value_field`."""
    return render(["{}\n"], [value_field(numerators, denominator, decimal)]).split("\n")[:-1]


def render(templates: Sequence[str], fields: Sequence[Field], kinds: Optional[np.ndarray] = None) -> str:
    """Row i of the fields written into templates[kinds[i]] (templates[0] without kinds), as one text.

    A template holds a '{}' for each field in order, or for the first few
    of them only, and its rows leave the others out; every other
    character is written as it is. The rows are one byte matrix with a
    keep mask, gathered and decoded once.
    """
    gaps, writes = _gaps(tuple(templates), len(fields))
    kinds = np.zeros(len(fields[0][0][0]), dtype=np.intp) if kinds is None else kinds
    pieces = []
    for j, (table, text) in enumerate(gaps):
        pieces.append((table.take(kinds, 0), text.take(kinds, 0)))
        if j < len(fields):
            shown = None if writes[j].all() else writes[j][kinds, None]
            pieces += [(c, k if shown is None else k & shown) for c, k in fields[j]]
    matrix, mask = _join(pieces)
    return matrix[mask].tobytes().decode("ascii")


def _join(pieces: Sequence[Piece]) -> Piece:
    """The pieces side by side, as one."""
    return np.concatenate([c for c, _ in pieces], axis=1), np.concatenate([k for _, k in pieces], axis=1)


def overlay(field: Field, rows: np.ndarray, other: Field, picks: np.ndarray) -> Field:
    """The field with its given rows replaced by the picked rows of another field."""
    (mine, kept), (theirs, shown) = _join(field), _join(other)
    width = max(mine.shape[1], theirs.shape[1])
    out = []
    for a, b in ((mine, theirs), (kept, shown)):
        # right-aligned at the wider width; the padding is zero, so never kept
        merged = np.zeros((len(a), width), dtype=a.dtype)
        merged[:, width - a.shape[1] :] = a
        merged[rows] = 0
        merged[rows, width - b.shape[1] :] = b[picks]
        out.append(merged)
    return [tuple(out)]


@cache
def _gaps(templates: tuple[str, ...], count: int) -> tuple[list[Piece], list[np.ndarray]]:
    """The templates' text before, between and after `count` fields, and which templates write each field.

    Each gap is every template's bytes there, zero-padded into one table,
    with the mask of the bytes that are text.
    """
    parts = [t.encode("ascii").split(b"{}") for t in templates]
    gaps = []
    for j in range(count + 1):
        texts = [p[j] if j < len(p) else b"" for p in parts]
        table = np.zeros((len(texts), max(map(len, texts))), dtype=np.uint8)
        for row, text in zip(table, texts):
            row[: len(text)] = np.frombuffer(text, dtype=np.uint8)
        gaps.append((table, table != 0))
    return gaps, [np.array([len(p) > j + 1 for p in parts]) for j in range(count)]


def bit_field(masks: np.ndarray, n: int) -> Field:
    """The n-character bitstring of each packed mask, x1 first."""
    chars = (masks[:, None] >> np.arange(n - 1, -1, -1, dtype=masks.dtype)).astype(np.uint8)
    chars &= 1
    chars += ord("0")
    return [(chars, np.broadcast_to(True, chars.shape))]


def value_field(
    numerators: np.ndarray | Sequence[int], denominator: int, decimal: Optional[int] = None
) -> Field:
    """The values a / denominator in lowest terms as 'p/q', or as p where q is 1, or fixed-point.

    The numerators are int64, Python ints in an object array, or a sequence
    of Python ints. One `np.gcd` against the common denominator reduces them
    all, and with `decimal` digits one floor division does, rounding half
    to even; in int64 wherever every intermediate fits, else in Python ints.
    int64 results are written into the matrix four digits at a time, and
    Python ints go through `str`.
    """
    a = numerators
    if not isinstance(a, np.ndarray):
        a = np.array(a, dtype=np.int64 if max(map(abs, a)).bit_length() < 63 else object)
    q = None
    if decimal is None:
        if denominator != 1:
            if a.dtype != object and denominator >= 1 << 62:
                a = a.astype(object)
            g = np.gcd(a, denominator)
            a, q = a // g, denominator // g
    else:
        if decimal < 0:
            raise ValueError("decimal digit count must be nonnegative")
        scale = 10**decimal
        # the scale itself must fit too, for a chunk of zeros at 19 digits
        if a.dtype != object and (max(int(abs(a).max()), 1) * scale + denominator).bit_length() >= 62:
            a = a.astype(object)
        scaled = a * scale
        rounded = scaled // denominator
        twice = 2 * (scaled - rounded * denominator)
        # round half to even, as Fraction.__round__ does
        up = (twice > denominator) | ((twice == denominator) & (rounded % 2 == 1))
        a = np.where(up, rounded + 1, rounded)
    if a.dtype == object:
        values = a.tolist()
        if decimal is not None:
            digits = [str(abs(x)).rjust(decimal + 1, "0") for x in values]
            if decimal:
                digits = [f"{d[:-decimal]}.{d[-decimal:]}" for d in digits]
            texts = ["-" + d if x < 0 else d for x, d in zip(values, digits)]
        elif q is None:
            texts = list(map(str, values))
        else:
            texts = [str(p) if d == 1 else f"{p}/{d}" for p, d in zip(values, q.tolist())]
        chars = np.array(texts, dtype=bytes)
        chars = chars.view(np.uint8).reshape(len(texts), chars.itemsize)
        return [(chars, chars != 0)]
    chars, keep = _digits(a, 1 if decimal is None else decimal + 1)
    pieces = [_mark("-", a < 0), (chars, keep)]
    if decimal:
        # the point before the last `decimal` digits
        point = _mark(".", np.ones(len(a), dtype=bool))
        pieces[1:] = [(chars[:, :-decimal], keep[:, :-decimal]), point, (chars[:, -decimal:], keep[:, -decimal:])]
    if q is not None:
        shown = q != 1
        chars, keep = _digits(q, 1)
        pieces += [_mark("/", shown), (chars, keep & shown[:, None])]
    return pieces


def _mark(char: str, where: np.ndarray) -> Piece:
    """One column of the character, kept where `where` holds."""
    return np.full((len(where), 1), ord(char), dtype=np.uint8), where[:, None]


@cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The four ASCII digits of each of 0..9999 as one uint32 word each; 10^1..10^19 as uint64;
    and the keep masks of 20 columns, row c keeping the last c."""
    quads = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
    columns = np.arange(20)
    return (
        quads.astype(np.uint8, order="C").view(np.uint32).ravel(),
        np.uint64(10) ** np.arange(1, 20, dtype=np.uint64),
        columns >= 20 - np.arange(21)[:, None],
    )


def _digits(x: np.ndarray, least: int) -> Piece:
    """The decimal digits of |x| (int64) right-aligned, at least `least` of them, zero-padded."""
    quads, powers, last = _digit_tables()
    # abs(-2^63) is -2^63 again, which uint64 reads as 2^63
    mag = np.abs(x).astype(np.uint64)
    count = np.maximum(powers.searchsorted(mag, side="right") + 1, least)
    words = -(-int(count.max(initial=least)) // 4)
    # four digits at a time, each word's bytes in reading order
    chars = np.empty((len(mag), words), dtype=np.uint32)
    for i in range(words - 1, -1, -1):
        chars[:, i] = quads.take((mag % 10000).astype(np.intp))
        mag //= 10000
    return chars.view(np.uint8), last.take(count, axis=0)[:, 20 - 4 * words :]


def _bitstring_masks(tokens: list[str], lines: list[int]) -> tuple[int, list[int]]:
    """The common length n of the bitstrings and the packed mask of each.

    All tokens are checked at once: 0/1 characters only, one length n <=
    MAX_DIM, no repeat. Where that fails, the first failing token raises
    the `FormatError` the row-by-row checks give it, at its line.
    """
    n = len(tokens[0])
    joined = "".join(tokens)
    # each token is at most n long and together they are n * m: each is n long
    same = max(map(len, tokens)) == n and len(joined) == n * len(tokens)
    if 0 < n <= MAX_DIM and same and not joined.strip("01"):
        masks = list(map(int, tokens, repeat(2)))
        if len(set(masks)) == len(masks):
            return n, masks
    masks, seen = [], set()
    for token, line in zip(tokens, lines):
        try:
            v = Vertex.from_bitstring(token)
        except ValueError as exc:
            raise FormatError(str(exc), line) from None
        if v.n != n:
            raise FormatError(f"bitstring length {v.n} differs from earlier length {n}", line)
        if v.bits in seen:
            raise FormatError(f"duplicate vertex {token!r}", line)
        masks.append(v.bits)
        seen.add(v.bits)
    return n, masks


def _design(tokens: list[str], lines: list[int], numerators=None, scale: int = 1) -> Design:
    """The design of the bitstrings read at these lines, with their values over the scale if given."""
    return _from_masks(*_bitstring_masks(tokens, lines), numerators=numerators, scale=scale)


def read_design_file(path: str) -> Design:
    """Load a design file; dimension is inferred from the bitstring length."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_design_lines(handle)


def parse_design_lines(lines: Iterable[str]) -> Design:
    tokens, numbers = [], []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if text and not text.startswith("#"):
            tokens.append(text)
            numbers.append(lineno)
    if not tokens:
        raise FormatError("no vertices in design file")
    return _design(tokens, numbers)


def write_design_file(handle: IO[str], design: Design) -> None:
    masks = np.array(design.masks, dtype=np.uint64)
    for start in range(0, len(masks), _CHUNK):
        handle.write(render(["{}\n"], [bit_field(masks[start : start + _CHUNK], design.n)]))


def read_values_csv(path: str) -> Design:
    """Load a measurement table; returns a design carrying exact values."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return parse_values_csv(handle)


def parse_values_csv(handle: Iterable[str]) -> Design:
    tokens, numbers, pairs = [], [], []
    header_done = False
    failure = None
    for lineno, row in enumerate(csv.reader(handle), start=1):
        if not row or (len(row) == 1 and not row[0].strip()) or row[0].strip().startswith("#"):
            continue
        if not header_done:
            if tuple(c.strip().lower() for c in row) != VALUES_HEADER:
                raise FormatError(f"expected header 'vertex,value', got {','.join(row)!r}", lineno)
            header_done = True
        elif len(row) != 2:
            failure = FormatError(f"expected 2 columns, got {len(row)}", lineno)
            break
        else:
            tokens.append(row[0].strip())
            numbers.append(lineno)
            try:
                pairs.append(_exact_pair(row[1]))
            except ValueError as exc:
                failure = FormatError(str(exc), lineno)
                break
    if failure is not None:
        if tokens:
            # a bitstring error on an earlier line, or on the failing row itself, comes first
            _bitstring_masks(tokens, numbers)
        raise failure
    if not header_done:
        raise FormatError("missing 'vertex,value' header")
    if not tokens:
        raise FormatError("no measurements in values file")
    # one common scale, which Design reduces to the lcm of the reduced denominators
    return _design(tokens, numbers, *_over_lcm(pairs))


def write_values_csv(handle: IO[str], design: Design, decimal: Optional[int] = None) -> None:
    if design.numerators is None:
        raise ValueError("design carries no measured values")
    masks = np.array(design.masks, dtype=np.uint64)
    for start in range(0, len(masks), _CHUNK):
        stop = start + _CHUNK
        values = value_field(design.numerators[start:stop], design.scale, decimal)
        text = render(["{},{}\n"], [bit_field(masks[start:stop], design.n), values])
        handle.write(text if start else ",".join(VALUES_HEADER) + "\n" + text)
