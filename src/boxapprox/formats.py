"""File formats: design files, measurement CSVs, and exact value rendering.

A design file is plain text with one bitstring per line (leftmost
character is x1); blank lines and lines starting with '#' are ignored.
A measurement file is CSV with header "vertex,value"; values may be
rational literals like "3/4" or decimal literals like "0.25", both of
which parse to exact rationals. All vertices in one file must share one
bitstring length and be distinct.
"""

from __future__ import annotations

import csv
from fractions import Fraction
from typing import IO, Iterable, Optional

import numpy as np

from .approx import Design
from .core import Vertex

VALUES_HEADER = ("vertex", "value")
# Python's default int-string conversion limit, for value literals and --decimal
MAX_DIGITS = 4300


class FormatError(ValueError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def parse_value(text: str) -> Fraction:
    """Exact rational from a 'p/q', integer, or decimal literal.

    A literal of more than MAX_DIGITS mantissa digits plus |exponent| is
    refused from its text: Fraction("1e4000000") alone takes seconds.
    """
    mantissa, _, exponent = text.strip().lower().partition("e")
    # five significant exponent digits already pass the cap
    exponent = exponent.lstrip("+-").lstrip("0")[:5]
    digits = sum(map(str.isdecimal, mantissa)) + (int(exponent) if exponent.isdecimal() else 0)
    if digits > MAX_DIGITS:
        raise ValueError(f"value literal needs more than {MAX_DIGITS} digits")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse {text!r} as an exact value: {exc}") from None


def format_value(x: Fraction, decimal: Optional[int] = None) -> str:
    """Render exactly as 'p/q' (or a plain integer), or fixed-point with --decimal.

    Fixed-point output rounds half to even at the requested digit count.
    """
    if decimal is None:
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    if decimal < 0:
        raise ValueError("decimal digit count must be nonnegative")
    return _fixed_point(round(x * 10**decimal), decimal)


def _fixed_point(scaled: int, decimal: int) -> str:
    """The integer scaled = x * 10^decimal written as x with `decimal` digits after the point."""
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(decimal + 1, "0")
    if decimal == 0:
        return sign + digits
    return f"{sign}{digits[:-decimal]}.{digits[-decimal:]}"


def format_values(
    numerators: np.ndarray, denominator: int, decimal: Optional[int] = None
) -> list[str]:
    """`format_value(Fraction(a, denominator), decimal)` for each integer a of the array.

    The numerators are int64, or Python ints in an object array. One
    `np.gcd` against the common denominator reduces them all, and with
    --decimal one floor division does, rounding half to even; in int64
    wherever every intermediate fits, else in Python ints.
    """
    a = numerators
    if decimal is None:
        if denominator == 1:
            return list(map(str, a.tolist()))
        if a.dtype != object and denominator >= 1 << 62:
            a = a.astype(object)
        g = np.gcd(a, denominator)
        reduced = zip((a // g).tolist(), (denominator // g).tolist())
        return [str(p) if q == 1 else f"{p}/{q}" for p, q in reduced]
    scale = 10**decimal
    if a.dtype != object and (int(abs(a).max()) * scale + denominator).bit_length() >= 62:
        a = a.astype(object)
    scaled = a * scale
    rounded = scaled // denominator
    twice = 2 * (scaled - rounded * denominator)
    # round half to even, as Fraction.__round__ does
    up = (twice > denominator) | ((twice == denominator) & (rounded % 2 == 1))
    return [_fixed_point(x, decimal) for x in np.where(up, rounded + 1, rounded).tolist()]


def bitstrings(masks: np.ndarray, n: int) -> list[str]:
    """The n-character bitstring of each packed mask, x1 first, from one uint8 array of its bits."""
    chars = (masks[:, None] >> np.arange(n - 1, -1, -1)).astype(np.uint8)
    chars &= 1
    chars += ord("0")
    text = chars.tobytes().decode("ascii")
    return [text[i : i + n] for i in range(0, len(text), n)]


def _parse_vertex(token: str, expect_n: Optional[int], line: int) -> Vertex:
    """The vertex of one bitstring, its characters checked in one pass (stripping 0s and 1s)."""
    token = token.strip()
    if not token or token.strip("01"):
        raise FormatError(f"expected a bitstring of 0/1 characters, got {token!r}", line)
    if expect_n is not None and len(token) != expect_n:
        raise FormatError(
            f"bitstring length {len(token)} differs from earlier length {expect_n}", line
        )
    return Vertex(len(token), int(token, 2))


def read_design_file(path: str) -> Design:
    """Load a design file; dimension is inferred from the bitstring length."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_design_lines(handle)


def parse_design_lines(lines: Iterable[str]) -> Design:
    vertices: list[Vertex] = []
    seen: set[int] = set()
    n: Optional[int] = None
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        v = _parse_vertex(text, n, lineno)
        n = v.n
        if v.bits in seen:
            raise FormatError(f"duplicate vertex {text!r}", lineno)
        seen.add(v.bits)
        vertices.append(v)
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
    reader = csv.reader(handle)
    vertices: list[Vertex] = []
    values: list[Fraction] = []
    seen: set[int] = set()
    n: Optional[int] = None
    header_done = False
    for lineno, row in enumerate(reader, start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if row[0].strip().startswith("#"):
            continue
        if not header_done:
            got = tuple(c.strip().lower() for c in row)
            if got != VALUES_HEADER:
                raise FormatError(
                    f"expected header 'vertex,value', got {','.join(row)!r}", lineno
                )
            header_done = True
            continue
        if len(row) != 2:
            raise FormatError(f"expected 2 columns, got {len(row)}", lineno)
        v = _parse_vertex(row[0], n, lineno)
        n = v.n
        if v.bits in seen:
            raise FormatError(f"duplicate vertex {row[0].strip()!r}", lineno)
        seen.add(v.bits)
        try:
            values.append(parse_value(row[1]))
        except ValueError as exc:
            raise FormatError(str(exc), lineno) from None
        vertices.append(v)
    if not header_done:
        raise FormatError("missing 'vertex,value' header")
    if not vertices:
        raise FormatError("no measurements in values file")
    return Design(vertices[0].n, tuple(vertices), tuple(values))


def write_values_csv(
    handle: IO[str], design: Design, decimal: Optional[int] = None
) -> None:
    if design.values is None:
        raise ValueError("design carries no measured values")
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(VALUES_HEADER)
    for v, fv in zip(design.vertices, design.values):
        writer.writerow([v.bitstring(), format_value(fv, decimal)])
