"""Output checks for one job, independent of the program under test.

Each check returns a list of error strings; an empty list is a pass. Every
expected value was computed by the benchmark itself (see ``inputs.py``).
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from math import sqrt

from inputs import coverage_rank, dim


def _predict_rows(check: dict, out: str) -> list[tuple[str, str, str, str]]:
    if check["format"] == "json":
        payload = json.loads(out)
        return [
            (r["vertex"], r["status"], r["value"] or "", "" if r["degree"] is None else str(r["degree"]))
            for r in payload["vertices"]
        ]
    rows = list(csv.reader(out.splitlines()))
    if rows[0] != ["vertex", "status", "value", "degree"]:
        raise ValueError(f"unexpected header {rows[0]}")
    return [tuple(r) for r in rows[1:]]


def _predict_all(check: dict, out: str, err: str) -> list[str]:
    n, k = check["n"], check["k"]
    measured = {v: Fraction(x) for v, x in check["measured"].items()}
    poly = check["poly"]
    errors = []
    rows = _predict_rows(check, out)
    if len(rows) != 1 << n or len({r[0] for r in rows}) != 1 << n:
        errors.append(f"expected {1 << n} distinct vertices, got {len(rows)} rows")
    undetermined = 0
    for vertex, status, value, degree in rows:
        if status == "measured":
            if vertex not in measured or Fraction(value) != measured[vertex]:
                errors.append(f"{vertex}: wrong measured row {value!r}")
        elif vertex in measured:
            errors.append(f"{vertex}: measured vertex reported as {status}")
        elif status == "predicted":
            if degree != str(k):
                errors.append(f"{vertex}: degree {degree!r}, expected {k}")
            if poly is not None and Fraction(value) != Fraction(poly[vertex]):
                errors.append(f"{vertex}: predicted {value}, polynomial gives {poly[vertex]}")
        elif status == "undetermined":
            undetermined += 1
        else:
            errors.append(f"{vertex}: unknown status {status!r}")
    if undetermined != check["undetermined"]:
        errors.append(f"{undetermined} undetermined vertices, expected {check['undetermined']}")
    return errors[:5]


def _complete(check: dict, out: str, err: str) -> list[str]:
    poly = check["poly"]
    rows = list(csv.reader(out.splitlines()))
    if rows[0] != ["vertex", "value"]:
        return [f"unexpected header {rows[0]}"]
    errors = []
    if len(rows) - 1 != len(poly) or len({r[0] for r in rows[1:]}) != len(poly):
        errors.append(f"expected {len(poly)} distinct vertices, got {len(rows) - 1} rows")
    for vertex, value in rows[1:]:
        if Fraction(value) != Fraction(poly[vertex]):
            errors.append(f"{vertex}: completed {value}, polynomial gives {poly[vertex]}")
    return errors[:5]


def _design_random(check: dict, out: str, err: str, cache: dict) -> list[str]:
    n, m, k = check["n"], check["m"], check["k"]
    lines = out.splitlines()
    if len(lines) != m or len(set(lines)) != m:
        return [f"expected {m} distinct vertices, got {len(lines)} lines"]
    if any(len(s) != n or set(s) - {"0", "1"} for s in lines):
        return ["malformed bitstring in design output"]
    if out not in cache:
        full = coverage_rank([int(s, 2) for s in lines], n, k) == dim(n, k)
        cache.clear()
        cache[out] = f"covers_all(k={k})={'yes' if full else 'no'}"
    if cache[out] not in err:
        return [f"stderr {err.strip()!r} lacks {cache[out]!r}"]
    return []


def _prob_mc(check: dict, out: str, err: str) -> list[str]:
    rows = list(csv.reader(out.splitlines()))
    if rows[0] != ["n", "method", "probability", "std_error", "trials", "seed"]:
        return [f"unexpected header {rows[0]}"]
    trials, seed = check["trials"], check["seed"]
    want = [str(n) for n in range(check["lo"], check["hi"] + 1)]
    if [r[0] for r in rows[1:]] != want:
        return [f"rows for n={[r[0] for r in rows[1:]]}, expected {want}"]
    errors = []
    for n, method, p_text, se_text, t_text, s_text in rows[1:]:
        p, se = float(p_text), float(se_text)
        if method != "monte_carlo" or t_text != str(trials) or s_text != str(seed):
            errors.append(f"n={n}: wrong method, trials or seed columns")
        if abs(se - sqrt(p * (1 - p) / trials)) > 2e-6:
            errors.append(f"n={n}: std_error {se} inconsistent with p={p}")
        # GF(2) independence implies rational independence, so the rational
        # probability is at least the closed-form GF(2) value.
        floor = check["floor"][n]
        if not floor - 6 * sqrt(floor * (1 - floor) / trials) <= p <= 1:
            errors.append(f"n={n}: estimate {p} below the GF(2) floor {floor:.6f}")
    return errors


def verify(job: dict, code: int, out: str, err: str, cache: dict) -> list[str]:
    """Errors for one run of a job; exit code first, then the output."""
    if code != job["exit"]:
        return [f"exit code {code}, expected {job['exit']}: {err.strip()[:200]}"]
    check = job["check"]
    kind = check["kind"]
    try:
        if kind == "text":
            return [] if out == check["expected"] else [f"output {out[:120]!r} differs from expected"]
        if kind == "predict_all":
            return _predict_all(check, out, err)
        if kind == "complete":
            return _complete(check, out, err)
        if kind == "design_random":
            return _design_random(check, out, err, cache)
        if kind == "prob_mc":
            return _prob_mc(check, out, err)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparsable output: {exc!r}"]
    raise ValueError(f"unknown check kind {kind!r}")
