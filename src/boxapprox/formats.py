"""File formats: design files, measurement CSVs, and exact value rendering.

A design file is plain text with one bitstring per line (leftmost
character is x1); blank lines and lines starting with '#' are ignored.
A measurement file is CSV with header "vertex,value"; values may be
rational literals like "3/4" or decimal literals like "0.25", both of
which parse to exact rationals. All vertices in one file must share one
bitstring length and be distinct. The reader splits 'p/q', integer and
plain-decimal literals into integers without a `Fraction` (`core._exact_pair`)
and hands the design their numerators over one scale, from which one
`format_values` call renders them back.
"""

from __future__ import annotations

import csv
from fractions import Fraction
from typing import IO, Iterable, Optional, Sequence

import numpy as np

from .approx import Design
from .core import MAX_DIGITS, Vertex, _exact_pair, _over_lcm

VALUES_HEADER = ("vertex", "value")


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
    """`format_value(Fraction(a, denominator), decimal)` for each integer a of the array.

    The numerators are int64, Python ints in an object array, or a sequence
    of Python ints. One `np.gcd` against the common denominator reduces them
    all, and with --decimal one floor division does, rounding half to even;
    in int64 wherever every intermediate fits, else in Python ints.
    """
    a = numerators
    if not isinstance(a, np.ndarray):
        a = np.array(a, dtype=np.int64 if max(map(abs, a)).bit_length() < 63 else object)
    if decimal is None:
        if denominator == 1:
            return list(map(str, a.tolist()))
        if a.dtype != object and denominator >= 1 << 62:
            a = a.astype(object)
        g = np.gcd(a, denominator)
        reduced = zip((a // g).tolist(), (denominator // g).tolist())
        return [str(p) if q == 1 else f"{p}/{q}" for p, q in reduced]
    if decimal < 0:
        raise ValueError("decimal digit count must be nonnegative")
    scale = 10**decimal
    if a.dtype != object and (int(abs(a).max()) * scale + denominator).bit_length() >= 62:
        a = a.astype(object)
    scaled = a * scale
    rounded = scaled // denominator
    twice = 2 * (scaled - rounded * denominator)
    # round half to even, as Fraction.__round__ does
    up = (twice > denominator) | ((twice == denominator) & (rounded % 2 == 1))
    values = np.where(up, rounded + 1, rounded).tolist()
    digits = [str(abs(x)).rjust(decimal + 1, "0") for x in values]
    if decimal:
        digits = [f"{d[:-decimal]}.{d[-decimal:]}" for d in digits]
    return ["-" + d if x < 0 else d for x, d in zip(values, digits)]


def bitstrings(masks: np.ndarray, n: int) -> list[str]:
    """The n-character bitstring of each packed mask, x1 first, from one uint8 array of its bits."""
    chars = (masks[:, None] >> np.arange(n - 1, -1, -1)).astype(np.uint8)
    chars &= 1
    chars += ord("0")
    text = chars.tobytes().decode("ascii")
    return [text[i : i + n] for i in range(0, len(text), n)]


def _add_vertex(vertices: list[Vertex], seen: set[int], token: str, line: int) -> None:
    """Append one bitstring's vertex (`Vertex.from_bitstring`), of the first one's length, unseen."""
    try:
        v = Vertex.from_bitstring(token.strip())
    except ValueError as exc:
        raise FormatError(str(exc), line) from None
    if vertices and v.n != vertices[0].n:
        raise FormatError(f"bitstring length {v.n} differs from earlier length {vertices[0].n}", line)
    if v.bits in seen:
        raise FormatError(f"duplicate vertex {v.bitstring()!r}", line)
    seen.add(v.bits)
    vertices.append(v)


def read_design_file(path: str) -> Design:
    """Load a design file; dimension is inferred from the bitstring length."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_design_lines(handle)


def parse_design_lines(lines: Iterable[str]) -> Design:
    vertices: list[Vertex] = []
    seen: set[int] = set()
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if text and not text.startswith("#"):
            _add_vertex(vertices, seen, text, lineno)
    if not vertices:
        raise FormatError("no vertices in design file")
    return Design(vertices[0].n, tuple(vertices))


def write_design_file(handle: IO[str], design: Design) -> None:
    for v in design.vertices:
        handle.write(v.bitstring() + "\n")


def read_values_csv(path: str) -> Design:
    """Load a measurement table; returns a design carrying exact values."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return parse_values_csv(handle)


def parse_values_csv(handle: Iterable[str]) -> Design:
    vertices: list[Vertex] = []
    seen: set[int] = set()
    pairs: list[tuple[int, int]] = []
    header_done = False
    for lineno, row in enumerate(csv.reader(handle), start=1):
        if not row or (len(row) == 1 and not row[0].strip()) or row[0].strip().startswith("#"):
            continue
        if not header_done:
            if tuple(c.strip().lower() for c in row) != VALUES_HEADER:
                raise FormatError(f"expected header 'vertex,value', got {','.join(row)!r}", lineno)
            header_done = True
        elif len(row) != 2:
            raise FormatError(f"expected 2 columns, got {len(row)}", lineno)
        else:
            _add_vertex(vertices, seen, row[0], lineno)
            try:
                pairs.append(_exact_pair(row[1]))
            except ValueError as exc:
                raise FormatError(str(exc), lineno) from None
    if not header_done:
        raise FormatError("missing 'vertex,value' header")
    if not vertices:
        raise FormatError("no measurements in values file")
    # one common scale, which Design reduces to the lcm of the reduced denominators
    numerators, scale = _over_lcm(pairs)
    return Design(vertices[0].n, tuple(vertices), numerators=numerators, scale=scale)


def write_values_csv(handle: IO[str], design: Design, decimal: Optional[int] = None) -> None:
    if design.numerators is None:
        raise ValueError("design carries no measured values")
    values = format_values(design.numerators, design.scale, decimal)
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(VALUES_HEADER)
    writer.writerows((v.bitstring(), x) for v, x in zip(design.vertices, values))
