"""The file readers as they checked bitstrings before: one `Vertex` per row.

Each bitstring goes through `Vertex.from_bitstring` and the dataclass
checks of `Vertex`, then is compared with the first row's length and
looked up in the set of masks seen so far, row by row, and `Design`
checks the vertices once more. `boxapprox.formats` checks a file's
bitstrings as masks in one pass and builds no `Vertex` per row; on every
input it must give an equal `Design`, or the same `FormatError` text at
the same line.
"""

from __future__ import annotations

import csv
from typing import Iterable

from boxapprox.approx import Design
from boxapprox.core import Vertex, _exact_pair, _over_lcm
from boxapprox.formats import VALUES_HEADER, FormatError


def _add_vertex(vertices: list[Vertex], seen: set[int], token: str, line: int) -> None:
    """Append one bitstring's vertex, of the first one's length, unseen."""
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
    numerators, scale = _over_lcm(pairs)
    return Design(vertices[0].n, tuple(vertices), numerators=numerators, scale=scale)
