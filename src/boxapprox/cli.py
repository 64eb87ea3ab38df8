"""Command-line front end for design generation, prediction, and probability sweeps.

Exit codes: 0 success, 1 I/O failure, 2 invalid input, 3 target not
determinable at the requested order.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from functools import cache
from typing import Iterable, Iterator, Optional

import numpy as np

from .approx import (
    CubeTable,
    Design,
    NotDeterminableError,
    _covered_order,
    approximate_all,
    approximate_value,
    complete_from_ball,
    covers_all,
)
from .core import MAX_DIM, Vertex, canonical_masks, check_order
from .designs import counting_table, hamming_ball, sample_random_design
from .formats import (
    _CHUNK,
    MAX_DIGITS,
    FormatError,
    bit_field,
    format_value,
    format_values,
    overlay,
    read_design_file,
    read_values_csv,
    render,
    value_field,
    write_design_file,
)
from .probability import (
    EXHAUSTIVE_MAX_N,
    MC_MAX_N,
    METHOD_EXHAUSTIVE,
    METHOD_F2,
    METHOD_MC,
    prob_f2_exact,
    prob_real_exhaustive,
    prob_real_montecarlo,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_NOT_DETERMINABLE = 3


def _parse_range(text: str) -> tuple[int, int]:
    """Accept '7' or '7..14' (inclusive)."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
    else:
        lo = hi = int(text)
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def _digits(text: str) -> int:
    """A --decimal count up to MAX_DIGITS: refused while parsing, before any work or output."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value <= MAX_DIGITS:
        raise argparse.ArgumentTypeError(
            f"digit count must be an integer in [0, {MAX_DIGITS}], got {text!r}"
        )
    return value


@contextmanager
def _open_out(path: Optional[str]):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle


def _write_csv(path: Optional[str], header: str, blocks: Iterable[str]) -> None:
    """The header line and then each block of lines; no field written ever needs CSV quoting."""
    with _open_out(path) as handle:
        handle.write(header + "\n")
        for block in blocks:
            handle.write(block)


# The separator `json.dump` puts before each entry but the first, at depth 2
_ENTRY = ",\n    "


def _dump_json(
    path: Optional[str], payload: dict, marker: Optional[str] = None, entries: Iterable[str] = ()
) -> None:
    """The payload as `json.dump` indents it by 2, and a newline.

    With a marker, the one entry that renders as `marker` is replaced by
    each block of entries, rendered at the depth of that entry, each
    entry after `_ENTRY`; the first entry's is dropped.
    """
    text = json.dumps(payload, indent=2)
    head, tail = text.split(marker) if marker else (text, "")
    with _open_out(path) as handle:
        handle.write(head)
        for i, block in enumerate(entries):
            handle.write(block if i else block[len(_ENTRY) :])
        handle.write(tail + "\n")


def _cube_chunks(table: CubeTable, decimal: Optional[int]) -> Iterator[tuple[np.ndarray, list]]:
    """Per chunk of `_CHUNK` rows of the cube in canonical order: its masks and its values' field.

    Every value is rendered, undetermined ones included; the templates
    decide which to write.
    """
    order = canonical_masks(table.n)
    for start in range(0, len(order), _CHUNK):
        masks = order[start : start + _CHUNK]
        yield masks, value_field(table.numerators[masks], table.denominator, decimal)


def cmd_design(args: argparse.Namespace) -> int:
    if args.shape == "ball":
        design = hamming_ball(args.n, args.k)
    else:
        design = sample_random_design(args.n, args.m, args.seed)
    info = f"design: n={args.n} size={design.size}"
    if args.k is not None:
        # before any output, so an invalid order or an order above the
        # work cap leaves nothing behind
        ok = covers_all(design, args.k)
        info += f" covers_all(k={args.k})={'yes' if ok else 'no'}"
    with _open_out(args.out) as handle:
        write_design_file(handle, design)
    print(info, file=sys.stderr)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    design = read_design_file(args.design)
    n = design.n
    # one elimination at the top order answers every order; an invalid top
    # order, or one above the work cap, is refused before it
    max_order = _covered_order(design, args.k)
    orders = [(k, k <= max_order) for k in range(args.k + 1)]
    if args.json:
        payload = {
            "command": "check",
            "n": n,
            "size": design.size,
            "orders": [{"k": k, "covers_all": ok} for k, ok in orders],
            "max_order": max_order,
        }
        _dump_json(args.out, payload)
    else:
        with _open_out(args.out) as handle:
            handle.write(f"n={n} size={design.size}\n")
            for k, ok in orders:
                handle.write(f"order {k}: {'yes' if ok else 'no'}\n")
            handle.write(f"max_order: {max_order}\n")
    return EXIT_OK


_MEASURED, _PREDICTED, _UNDETERMINED = range(3)


def _prediction_rows(
    design: Design, k: int, decimal: Optional[int], templates: list[str]
) -> tuple[bool, Iterator[str]]:
    """Whether the design determines every vertex, and the `predict --all` rows in blocks.

    Each row is its bitstring and value rendered into the template of its
    status, in canonical order: _MEASURED with the design's own value,
    _PREDICTED, or _UNDETERMINED, whose template writes no value. The table
    is computed before this returns, so an invalid request fails before
    any output.
    """
    table = approximate_all(design, k)
    design_masks = np.array(design.masks)
    sorter = np.argsort(design_masks)
    echoed = value_field(design.numerators, design.scale, decimal)
    status = np.where(table.determined, np.int8(_PREDICTED), np.int8(_UNDETERMINED))
    status[design_masks] = _MEASURED

    def blocks():
        for masks, values in _cube_chunks(table, decimal):
            kinds = status[masks]
            rows = np.flatnonzero(kinds == _MEASURED)
            picks = sorter[np.searchsorted(design_masks, masks[rows], sorter=sorter)]
            values = overlay(values, rows, echoed, picks)
            yield render(templates, [bit_field(masks, table.n), values], kinds)

    return bool((status != _UNDETERMINED).all()), blocks()


def cmd_predict(args: argparse.Namespace) -> int:
    design = read_values_csv(args.values)
    n = design.n
    check_order(n, args.k)
    if args.all:
        if args.json:
            # one vertex entry as json.dump indents it, "{}" for the bitstring and value
            entry = (
                _ENTRY + '{\n      "vertex": "{}",\n      "status": "%s",\n'
                '      "value": %s,\n      "degree": %s\n    }'
            )
            templates = [
                entry % ("measured", '"{}"', "null"),
                entry % ("predicted", '"{}"', args.k),
                entry % ("undetermined", "null", "null"),
            ]
        else:
            templates = ["{},measured,{},\n", f"{{}},predicted,{{}},{args.k}\n", "{},undetermined,,\n"]
        covers, blocks = _prediction_rows(design, args.k, args.decimal, templates)
        if args.json:
            payload = {
                "command": "predict",
                "n": n,
                "k": args.k,
                "design_size": design.size,
                # the design covers the cube exactly when no vertex is undetermined
                "covers_all": covers,
                "vertices": ["@"],
            }
            _dump_json(args.out, payload, '"@"', blocks)
        else:
            _write_csv(args.out, "vertex,status,value,degree", blocks)
        return EXIT_OK

    target = Vertex.from_bitstring(args.target)
    if target.n != n:
        raise ValueError(f"target length {target.n} does not match table dimension {n}")
    if target in design:
        i = design.masks.index(target.bits)
        value = format_values(design.numerators[i : i + 1], design.scale, args.decimal)[0]
        status, degree = "measured", None
    else:
        value = format_value(approximate_value(design, target, args.k), args.decimal)
        status, degree = "predicted", args.k
    if args.json:
        payload = {
            "command": "predict",
            "n": n,
            "k": args.k,
            "vertex": target.bitstring(),
            "status": status,
            "value": value,
            "degree": degree,
        }
        _dump_json(args.out, payload)
    else:
        with _open_out(args.out) as handle:
            handle.write(value + "\n")
    return EXIT_OK


def cmd_complete(args: argparse.Namespace) -> int:
    design = read_values_csv(args.values)
    n = design.n
    table = complete_from_ball(design, n, args.k)
    template = _ENTRY + '"{}": "{}"' if args.json else "{},{}\n"
    blocks = (
        render([template], [bit_field(masks, n), values])
        for masks, values in _cube_chunks(table, args.decimal)
    )
    if args.json:
        payload = {"command": "complete", "n": n, "k": args.k, "values": {"@": "@"}}
        _dump_json(args.out, payload, '"@": "@"', blocks)
    else:
        _write_csv(args.out, "vertex,value", blocks)
    return EXIT_OK


# Largest dimension each `prob` method accepts, checked before the first row.
_PROB_MAX_N = {"f2": MAX_DIM, "exact": EXHAUSTIVE_MAX_N, "mc": MC_MAX_N}


def cmd_prob(args: argparse.Namespace) -> int:
    lo, hi = _parse_range(args.n)
    if lo < 1:
        raise ValueError("dimension must be at least 1")
    if hi > _PROB_MAX_N[args.method]:
        raise ValueError(f"prob {args.method} supports n <= {_PROB_MAX_N[args.method]}")
    lines = []
    for n in range(lo, hi + 1):
        if args.method == "f2":
            lines.append(f"{n},{METHOD_F2},{format_value(prob_f2_exact(n), args.decimal)},,,\n")
        elif args.method == "exact":
            value = format_value(prob_real_exhaustive(n), args.decimal)
            lines.append(f"{n},{METHOD_EXHAUSTIVE},{value},,,\n")
        else:
            est = prob_real_montecarlo(n, args.trials, args.seed)
            digits = args.decimal if args.decimal is not None else 6
            lines.append(
                f"{n},{METHOD_MC},{est.value:.{digits}f},{est.std_error:.{digits}f},"
                f"{est.trials},{est.seed}\n"
            )
    _write_csv(args.out, "n,method,probability,std_error,trials,seed", lines)
    return EXIT_OK


def cmd_counts(args: argparse.Namespace) -> int:
    lo, hi = _parse_range(args.n)
    table = counting_table(lo, hi, args.k)
    lines = (f"{row.n},{row.k},{row.ball_size},{row.generic_size}\n" for row in table)
    _write_csv(args.out, "n,k,ball_size,generic_size", lines)
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="boxapprox",
        description="Exact approximation of functions on hypercube vertices from partial measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="generate a measurement design file")
    d_sub = p_design.add_subparsers(dest="shape", required=True)
    p_ball = d_sub.add_parser("ball", help="Hamming ball of radius k")
    p_ball.add_argument("--n", type=int, required=True, help="dimension")
    p_ball.add_argument("--k", type=int, required=True, help="ball radius, also certified order")
    p_ball.add_argument("--out", help="output path (default stdout)")
    p_ball.set_defaults(func=cmd_design)
    p_rand = d_sub.add_parser("random", help="uniform random vertex subset")
    p_rand.add_argument("--n", type=int, required=True, help="dimension")
    p_rand.add_argument("--m", type=int, required=True, help="number of vertices")
    p_rand.add_argument("--seed", type=int, required=True, help="sampler seed")
    p_rand.add_argument("--k", type=int, default=None, help="certify covers_all at this order")
    p_rand.add_argument("--out", help="output path (default stdout)")
    p_rand.set_defaults(func=cmd_design)

    p_check = sub.add_parser("check", help="certify a design file order by order")
    p_check.add_argument("design", help="design file path")
    p_check.add_argument("--k", type=int, required=True, help="highest order to certify")
    p_check.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p_check.add_argument("--out", help="output path (default stdout)")
    p_check.set_defaults(func=cmd_check)

    p_predict = sub.add_parser("predict", help="predict vertex values from measurements")
    p_predict.add_argument("values", help="measurement CSV path (header vertex,value)")
    group = p_predict.add_mutually_exclusive_group(required=True)
    group.add_argument("--target", help="bitstring of the vertex to predict")
    group.add_argument("--all", action="store_true", help="report every vertex of the cube")
    p_predict.add_argument("--k", type=int, required=True, help="approximation order")
    p_predict.add_argument("--json", action="store_true", help="emit JSON instead of text/CSV")
    p_predict.add_argument("--decimal", type=_digits, default=None, help="fixed-point digits")
    p_predict.add_argument("--out", help="output path (default stdout)")
    p_predict.set_defaults(func=cmd_predict)

    p_complete = sub.add_parser(
        "complete", help="fill the whole cube from a Hamming-ball measurement table"
    )
    p_complete.add_argument("values", help="measurement CSV path (header vertex,value)")
    p_complete.add_argument("--k", type=int, required=True, help="ball radius of the table")
    p_complete.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    p_complete.add_argument("--decimal", type=_digits, default=None, help="fixed-point digits")
    p_complete.add_argument("--out", help="output path (default stdout)")
    p_complete.set_defaults(func=cmd_complete)

    p_prob = sub.add_parser("prob", help="first-order probability tables for random designs")
    p_prob.add_argument("method", choices=["f2", "exact", "mc"], help="computation method")
    p_prob.add_argument("--n", required=True, help="dimension or inclusive range like 7..14")
    p_prob.add_argument("--trials", type=int, default=100_000, help="Monte-Carlo trials per n")
    p_prob.add_argument("--seed", type=int, default=0, help="Monte-Carlo master seed")
    p_prob.add_argument("--decimal", type=_digits, default=None, help="fixed-point digits")
    p_prob.add_argument("--out", help="output path (default stdout)")
    p_prob.set_defaults(func=cmd_prob)

    p_counts = sub.add_parser("counts", help="ball size vs general-position point counts")
    p_counts.add_argument("--n", required=True, help="dimension or inclusive range like 4..64")
    p_counts.add_argument("--k", type=int, required=True, help="approximation degree")
    p_counts.add_argument("--out", help="output path (default stdout)")
    p_counts.set_defaults(func=cmd_counts)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else EXIT_INVALID
    try:
        return args.func(args)
    except NotDeterminableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_DETERMINABLE
    except (FormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
