"""The array-backed cube answers against the dict-of-Fractions path they replace.

`complete_from_ball` and `approximate_all` return a `CubeTable`, and the
CLI renders `complete` and `predict --all` straight from its arrays. The
references here are the builders those replaced: one `Vertex` key and one
`Fraction` value per vertex of `all_vertices(n)`, rendered row by row
through `format_value` and the standard csv and json writers.
"""

import ast
import csv
import io
import json
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxapprox import approx, cli, core, formats, linalg
from boxapprox.approx import (
    CubeTable,
    Design,
    approximate_all,
    complete_from_ball,
    prediction_coefficients,
)
from boxapprox.cli import main
from boxapprox.core import Vertex, all_vertices
from boxapprox.formats import format_value, read_values_csv, write_values_csv


def reference_dict(table):
    """The dict the cube answers built before the table: a Fraction (or None) per vertex."""
    numerators = table.numerators.tolist()
    determined = [True] * len(numerators) if table.determined is None else table.determined.tolist()
    return {
        v: Fraction(numerators[v.bits], table.denominator) if determined[v.bits] else None
        for v in all_vertices(table.n)
    }


def reference_complete_output(values, n, k, decimal, as_json):
    """`complete`'s output rendered row by row from the reference dict."""
    return render_complete(reference_dict(complete_from_ball(values, n, k)), n, k, decimal, as_json)


def render_complete(completed, n, k, decimal, as_json):
    """`complete`'s output for a dict of Fractions over the whole cube, row by row."""
    handle = io.StringIO()
    if as_json:
        payload = {
            "command": "complete",
            "n": n,
            "k": k,
            "values": {v.bitstring(): format_value(fv, decimal) for v, fv in completed.items()},
        }
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    else:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["vertex", "value"])
        writer.writerows((v.bitstring(), format_value(fv, decimal)) for v, fv in completed.items())
    return handle.getvalue()


def reference_predict_output(design, k, decimal, as_json):
    """`predict --all`'s output rendered row by row from the reference dict."""
    predicted = reference_dict(approximate_all(design, k))
    return render_predict(design, k, design.value_map(), predicted, decimal, as_json)


def render_predict(design, k, measured, predicted, decimal, as_json):
    """`predict --all`'s output from dicts of Fractions, measured and predicted, row by row."""
    rows = []
    for v, pred in predicted.items():
        if v in measured:
            rows.append((v.bitstring(), "measured", format_value(measured[v], decimal), None))
        elif pred is None:
            rows.append((v.bitstring(), "undetermined", None, None))
        else:
            rows.append((v.bitstring(), "predicted", format_value(pred, decimal), k))
    handle = io.StringIO()
    if as_json:
        payload = {
            "command": "predict",
            "n": design.n,
            "k": k,
            "design_size": design.size,
            "covers_all": all(status != "undetermined" for _, status, _, _ in rows),
            "vertices": [
                {"vertex": b, "status": status, "value": value, "degree": degree}
                for b, status, value, degree in rows
            ],
        }
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    else:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["vertex", "status", "value", "degree"])
        writer.writerows(rows)
    return handle.getvalue()


def cli_output(design, argv):
    """What the CLI writes for argv (after the table path) on the design's table."""
    with tempfile.TemporaryDirectory() as tmp:
        table, out = Path(tmp) / "values.csv", Path(tmp) / "out"
        with open(table, "w", newline="") as handle:
            write_values_csv(handle, design)
        assert main([argv[0], str(table), *argv[1:], "--out", str(out)]) == 0
        return out.read_text()


# Values with small, int64-sized and larger numerators, denominators up to
# 2^70, and halves and 1/2000ths, which are ties at --decimal 0 and 3.
values = st.one_of(
    st.integers(-50, 50),
    st.integers(-(1 << 40), 1 << 40),
    st.integers(-(10**25), 10**25),
    st.builds(
        Fraction, st.integers(-(10**6), 10**6), st.sampled_from([1, 2, 3, 7, 8, 2000, 1 << 70])
    ),
)
output_modes = st.sampled_from([(None, False), (None, True), (0, False), (3, False), (3, True)])


@st.composite
def balls(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, n))
    ball = [v for v in all_vertices(n) if v.weight() <= k]
    return n, k, dict(zip(ball, draw(st.lists(values, min_size=len(ball), max_size=len(ball)))))


@st.composite
def designs(draw):
    n = draw(st.integers(1, 5))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=1 << n, unique=True))
    vals = draw(st.lists(values, min_size=len(masks), max_size=len(masks)))
    design = Design(n, tuple(Vertex(n, b) for b in masks), tuple(map(Fraction, vals)))
    return design, draw(st.integers(0, n))


def assert_table_is_reference(table, n):
    ref = reference_dict(table)
    assert isinstance(table, CubeTable) and not isinstance(table, dict)
    assert len(table) == len(ref) == 1 << n
    assert list(table.items()) == list(ref.items())
    assert list(table) == all_vertices(n)
    assert table == ref and ref == table
    assert not table != ref
    for foreign in (Vertex(n + 1, 0), Vertex(n + 1, (1 << (n + 1)) - 1), (0,) * n, "0" * n, 0):
        assert foreign not in table and table.get(foreign) is None
        with pytest.raises(KeyError):
            ref[foreign]
        with pytest.raises(KeyError):
            table[foreign]
    with pytest.raises(TypeError):
        table[Vertex(n, 0)] = Fraction(0)


@settings(max_examples=60, deadline=None)
@given(balls())
def test_complete_from_ball_table_equals_reference_dict(case):
    n, k, vals = case
    assert_table_is_reference(complete_from_ball(vals, n, k), n)


@settings(max_examples=60, deadline=None)
@given(designs())
def test_approximate_all_table_equals_reference_dict(case):
    design, k = case
    assert_table_is_reference(approximate_all(design, k), design.n)


def test_reference_dict_differs_where_the_table_does():
    # a changed value or a changed determination breaks equality both ways
    vals = {v: Fraction(v.bits, 3) for v in all_vertices(3) if v.weight() <= 1}
    table = complete_from_ball(vals, 3, 1)
    ref = reference_dict(table)
    for changed in ({**ref, Vertex(3, 7): ref[Vertex(3, 7)] + 1}, {**ref, Vertex(3, 7): None}):
        assert table != changed and changed != table
    shorter = dict(ref)
    del shorter[Vertex(3, 7)]
    assert table != shorter and shorter != table


@settings(max_examples=40, deadline=None)
@given(balls(), output_modes)
def test_complete_bytes_equal_reference_rendering(case, mode):
    n, k, vals = case
    decimal, as_json = mode
    design = Design(n, tuple(vals), tuple(map(Fraction, vals.values())))
    argv = ["complete", "--k", str(k)]
    argv += ["--json"] * as_json + (["--decimal", str(decimal)] if decimal is not None else [])
    assert cli_output(design, argv) == reference_complete_output(vals, n, k, decimal, as_json)


@settings(max_examples=40, deadline=None)
@given(designs(), output_modes)
def test_predict_all_bytes_equal_reference_rendering(case, mode):
    design, k = case
    decimal, as_json = mode
    argv = ["predict", "--all", "--k", str(k)]
    argv += ["--json"] * as_json + (["--decimal", str(decimal)] if decimal is not None else [])
    assert cli_output(design, argv) == reference_predict_output(design, k, decimal, as_json)


@pytest.mark.parametrize("mode", [(None, False), (None, True), (0, False), (3, True)])
def test_cube_output_bytes_beyond_int64_and_across_chunks(monkeypatch, mode):
    # values past int64 take the object-dtype transform, denominators past
    # it the object-dtype reduction, and a small chunk splits the rows
    monkeypatch.setattr(cli, "_CHUNK", 5)
    decimal, as_json = mode
    n, k = 5, 2
    ball = [v for v in all_vertices(n) if v.weight() <= k]
    vals = {
        v: Fraction((-7) ** (40 + i), 2 ** (70 + i % 3)) + Fraction(1, 2000)
        for i, v in enumerate(ball)
    }
    table = complete_from_ball(vals, n, k)
    assert table.numerators.dtype == object and table.denominator > 1 << 63
    design = Design(n, tuple(vals), tuple(vals.values()))
    extra = ["--json"] * as_json + (["--decimal", str(decimal)] if decimal is not None else [])
    got = cli_output(design, ["complete", "--k", str(k), *extra])
    assert got == reference_complete_output(vals, n, k, decimal, as_json)
    face = Design(n, tuple(ball[:9]), tuple(vals[v] for v in ball[:9]))
    assert None in reference_dict(approximate_all(face, 2)).values()
    got = cli_output(face, ["predict", "--all", "--k", "2", *extra])
    assert got == reference_predict_output(face, 2, decimal, as_json)


def test_cube_commands_build_no_vertex_per_row(tmp_path, monkeypatch):
    # `complete` and `predict --all` render from the table's arrays: no
    # Vertex, Fraction, whole-cube vertex list or measured-value dict; the
    # two file readers check bitstrings as masks and build no Vertex per row
    scans = {
        cli: ["cmd_complete", "_prediction_rows"],
        formats: ["parse_values_csv", "parse_design_lines", "_design"],
    }
    for module, names in scans.items():
        tree = ast.parse(Path(module.__file__).read_text())
        tops = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        for name in names:
            nodes = list(ast.walk(tops[name]))
            named = {n.id for n in nodes if isinstance(n, ast.Name)} | {
                n.attr for n in nodes if isinstance(n, ast.Attribute)
            }
            assert not named & {"Vertex", "Fraction", "all_vertices", "value_map", "vertices"}, name
            # the scan sees the calls the monkeypatched tests rely on
            assert named & {"complete_from_ball", "approximate_all", "_design", "_bitstring_masks"}, name
    # and at run time: no Vertex is checked while a valid table or design
    # file is read, and `complete` builds none at all
    checked, built = [], []
    monkeypatch.setattr(Vertex, "__post_init__", lambda self: checked.append(self))
    monkeypatch.setattr(approx, "_vertices", lambda *args: built.append(args))
    table = literal_table(tmp_path / "ball.csv", BALL)
    design = tmp_path / "ball.design"
    design.write_text("# ball\n" + "".join(f"{v}\n" for v in BALL))
    assert read_values_csv(table).size == formats.read_design_file(str(design)).size == len(BALL)
    cli_text(tmp_path, ["complete", table, "--k", "2"], None, False)
    assert checked == built == []


def test_cube_table_reads_entries_lazily():
    # a table over n = 20 answers single entries without building the cube
    n = 20
    numerators = np.arange(1 << n, dtype=np.int64) - 7
    determined = np.ones(1 << n, dtype=bool)
    determined[5] = False
    table = CubeTable(n, numerators, 6, determined)
    assert len(table) == 1 << n
    assert table[Vertex(n, 10)] == Fraction(1, 2)
    assert table[Vertex(n, 5)] is None and Vertex(n, 5) in table
    assert next(iter(table)) == Vertex(n, 0)


# Every literal form of a table value: unreduced, signed, decimal and
# exponent literals over mixed denominators, one per vertex of the n = 4
# ball of radius 2, and a face of it whose order-2 fit leaves vertices
# undetermined.
LITERALS = ["2/4", "-6/8", "+3", "0.25", "-1.5", "1e2", "-2.5E-1", "7/3", " 5", "1_0/4", "-0 "]
BALL = [v for v in all_vertices(4) if v.weight() <= 2]
FACE = [v for v in BALL if v.bits < 8]
MODES = [(None, False), (None, True), (0, False), (3, False), (3, True), (7, True)]


def literal_table(path, vertices, literals=LITERALS):
    path.write_text("vertex,value\n" + "".join(f"{v},{t}\n" for v, t in zip(vertices, literals)))
    return str(path)


def expected_values(vertices, literals, k):
    """Per vertex of the cube, the literals read by Fraction and combined with the
    canonical coefficients of the bare design, or None where it is undetermined."""
    fracs = [Fraction(t.strip()) for t in literals]
    coeffs = prediction_coefficients(Design(4, tuple(vertices)), k)
    return {
        v: None if c is None else sum((a * f for a, f in zip(c, fracs)), Fraction(0))
        for v, c in coeffs.items()
    }


def cli_text(tmp_path, argv, decimal, as_json):
    out = tmp_path / "out"
    argv = [*argv, "--out", str(out)] + ["--json"] * as_json
    assert main(argv + (["--decimal", str(decimal)] if decimal is not None else [])) == 0
    return out.read_text()


@pytest.mark.parametrize("mode", MODES)
def test_complete_of_every_literal_form_equals_fraction_rendering(tmp_path, mode):
    decimal, as_json = mode
    table = literal_table(tmp_path / "ball.csv", BALL)
    completed = expected_values(BALL, LITERALS, 2)
    got = cli_text(tmp_path, ["complete", table, "--k", "2"], decimal, as_json)
    assert got == render_complete(completed, 4, 2, decimal, as_json)
    # the lcm of the reduced denominators 2, 4, 3 and 1, as when the values were Fractions
    assert complete_from_ball(read_values_csv(table), 4, 2).denominator == 12


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("vertices, k", [(BALL, 1), (BALL, 2), (FACE, 2)])
def test_predict_all_echoes_every_literal_form_as_fraction_renders_it(tmp_path, mode, vertices, k):
    # at k = 1 the eleven values overdetermine the fit, so a measured
    # vertex's echo differs from its prediction; the face leaves some undetermined
    decimal, as_json = mode
    literals = LITERALS[: len(vertices)]
    table = literal_table(tmp_path / "values.csv", vertices, literals)
    measured = dict(zip(vertices, (Fraction(t.strip()) for t in literals)))
    predicted = expected_values(vertices, literals, k)
    design = Design(4, tuple(vertices))
    got = cli_text(tmp_path, ["predict", table, "--all", "--k", str(k)], decimal, as_json)
    assert got == render_predict(design, k, measured, predicted, decimal, as_json)


@pytest.mark.parametrize("mode", MODES)
def test_predict_target_echoes_or_predicts_as_fraction_renders_it(tmp_path, mode):
    decimal, as_json = mode
    table = literal_table(tmp_path / "values.csv", FACE, LITERALS)
    predicted = expected_values(FACE, LITERALS, 1)
    measured = {v.bitstring(): Fraction(t.strip()) for v, t in zip(FACE, LITERALS)}
    for target, status, value in [
        ("0100", "measured", measured["0100"]),
        ("0000", "measured", measured["0000"]),
        ("0111", "predicted", predicted[Vertex(4, 7)]),
    ]:
        got = cli_text(tmp_path, ["predict", table, "--target", target, "--k", "1"], decimal, as_json)
        text = format_value(value, decimal)
        if as_json:
            payload = {"command": "predict", "n": 4, "k": 1, "vertex": target, "status": status,
                       "value": text, "degree": 1 if status == "predicted" else None}
            assert got == json.dumps(payload, indent=2) + "\n"
        else:
            assert got == text + "\n"


@pytest.mark.parametrize("decimal", [None, 0, 1, 3])
def test_write_values_csv_echoes_every_literal_form_as_fraction_renders_it(tmp_path, decimal):
    design = read_values_csv(literal_table(tmp_path / "values.csv", BALL))
    handle = io.StringIO()
    write_values_csv(handle, design, decimal)
    rows = [f"{v},{format_value(Fraction(t.strip()), decimal)}\n" for v, t in zip(BALL, LITERALS)]
    assert handle.getvalue() == "vertex,value\n" + "".join(rows)


@pytest.mark.parametrize("mode", MODES)
def test_cube_commands_build_no_fraction_from_table_to_output(tmp_path, monkeypatch, mode):
    # between reading a table of p/q, integer and plain-decimal literals and
    # writing the output, `complete` and `predict --all` carry the values as
    # integers over one scale: no Fraction is named in the core, formats,
    # approx, cli or linalg namespaces, nor built through Fraction.__new__
    # at all
    decimal, as_json = mode
    plain = [t for t in LITERALS if "e" not in t.lower()] + ["-3/12", "+0.125"]
    ball = literal_table(tmp_path / "ball.csv", BALL, plain)
    face = literal_table(tmp_path / "face.csv", FACE, plain)
    exponent = literal_table(tmp_path / "exponent.csv", BALL)
    built, named = [], []

    class Recorder(Fraction):
        def __new__(cls, *args, **kwargs):
            named.append(args)
            return Fraction(*args, **kwargs)

    for module in (core, formats, approx, cli, linalg):
        monkeypatch.setattr(module, "Fraction", Recorder, raising=False)
    new = Fraction.__new__
    monkeypatch.setattr(
        Fraction, "__new__", staticmethod(lambda *a, **kw: built.append(a[1:]) or new(*a, **kw))
    )
    for argv in (
        ["complete", ball, "--k", "2"],
        ["predict", ball, "--all", "--k", "1"],
        ["predict", face, "--all", "--k", "2"],
    ):
        cli_text(tmp_path, argv, decimal, as_json)
        assert built == named == [], argv
    # both recorders see the literals that still go through Fraction
    cli_text(tmp_path, ["complete", exponent, "--k", "2"], decimal, as_json)
    assert named == [("1e2",), ("-2.5E-1",)]
    assert built and all(args[0] in ("1e2", "-2.5E-1") for args in built)


# Tables at the renderer's int64 edges: numerators up to 2^63 - 1 in
# magnitude, or tall ones held as Python ints; denominators from 1 past
# 2^62; and --decimal counts whose scaled intermediates pass int64, which
# take the Python-int fallback.
EDGE = 2**63 - 1
DENOMINATORS = [1, 2, 7, 2000, 2**62, 2**62 + 1, EDGE, 2**64 + 3]
edge_modes = st.tuples(st.sampled_from([None, 0, 3, 18, 25]), st.booleans(), st.booleans())


@st.composite
def edge_tables(draw, determined):
    n = draw(st.integers(1, 4))
    tall = draw(st.booleans())
    bound = 10**30 if tall else EDGE
    entry = st.one_of(st.integers(-bound, bound), st.sampled_from([0, -1, 1, bound, -bound]))
    nums = draw(st.lists(entry, min_size=1 << n, max_size=1 << n))
    denominator = draw(st.one_of(st.sampled_from(DENOMINATORS), st.integers(1, 2**70)))
    table = CubeTable(n, np.array(nums, dtype=object if tall else np.int64), denominator)
    if determined:
        table.determined = np.array(draw(st.lists(st.booleans(), min_size=1 << n, max_size=1 << n)))
    return table


def cli_bytes(argv, to_stdout):
    """What `main(argv)` writes, to a redirected sys.stdout or through --out."""
    if to_stdout:
        with redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        return out.getvalue()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        assert main([*argv, "--out", str(path)]) == 0
        return path.read_text()


def mode_args(decimal, as_json):
    return ["--json"] * as_json + (["--decimal", str(decimal)] if decimal is not None else [])


@settings(max_examples=150, deadline=None)
@given(edge_tables(determined=False), edge_modes)
def test_complete_renders_edge_tables_as_the_reference(table, mode):
    decimal, as_json, to_stdout = mode
    n = table.n
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "values.csv"
        path.write_text(f"vertex,value\n{'0' * n},0\n")
        with patch.object(cli, "complete_from_ball", lambda *args: table):
            got = cli_bytes(["complete", str(path), "--k", "0", *mode_args(decimal, as_json)], to_stdout)
    assert got == render_complete(reference_dict(table), n, 0, decimal, as_json)


@settings(max_examples=150, deadline=None)
@given(edge_tables(determined=True), edge_modes, st.data())
def test_predict_all_renders_edge_tables_as_the_reference(table, mode, data):
    # measured, predicted and undetermined rows, the measured ones echoing
    # edge values of their own over the design's scale
    decimal, as_json, to_stdout = mode
    n = table.n
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, unique=True))
    nums = data.draw(st.lists(st.integers(-EDGE, EDGE), min_size=len(masks), max_size=len(masks)))
    scale = data.draw(st.sampled_from(DENOMINATORS))
    design = Design(n, tuple(Vertex(n, b) for b in masks), [Fraction(a, scale) for a in nums])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "values.csv"
        with open(path, "w", newline="") as handle:
            write_values_csv(handle, design)
        with patch.object(cli, "approximate_all", lambda *args: table):
            argv = ["predict", str(path), "--all", "--k", "0", *mode_args(decimal, as_json)]
            got = cli_bytes(argv, to_stdout)
    want = render_predict(design, 0, design.value_map(), reference_dict(table), decimal, as_json)
    assert got == want


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.integers(-EDGE, EDGE), st.sampled_from([0, EDGE, -EDGE])), min_size=1),
    st.one_of(st.sampled_from(DENOMINATORS), st.integers(1, 2**64)),
    st.sampled_from([None, 0, 1, 5, 18, 19, 40]),
)
def test_int64_values_render_as_fraction_does(nums, denominator, decimal):
    want = [format_value(Fraction(a, denominator), decimal) for a in nums]
    assert formats.format_values(np.array(nums, dtype=np.int64), denominator, decimal) == want
