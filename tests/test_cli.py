import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import reference_linalg as reference
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from boxapprox import approx, cli, designs, gf2, linalg
from boxapprox.approx import Design
from boxapprox.cli import main
from boxapprox.core import (
    Vertex,
    _evaluation_rows,
    basis_size,
    check_elimination_work,
)
from boxapprox.designs import hamming_ball
from boxapprox.formats import write_values_csv
from boxapprox.linalg import ModularEchelon
from reference_basis import descending_supports, evaluation_rows


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_ball_values(path, n, k, func):
    ball = hamming_ball(n, k)
    design = ball.with_values([func(v) for v in ball.vertices])
    with open(path, "w", newline="") as handle:
        write_values_csv(handle, design)
    return design


def linear_f(v):
    c = v.coords()
    return Fraction(2 * c[0] - c[1] + 5)


def quad_f(v):
    c = v.coords()
    return Fraction(c[0] * c[1] + 3 * c[2])


def test_design_ball_stdout(capsys):
    code, out, err = run(capsys, "design", "ball", "--n", "3", "--k", "1")
    assert code == 0
    assert out.splitlines() == ["000", "100", "010", "001"]
    assert "size=4" in err
    assert "covers_all(k=1)=yes" in err


def test_design_ball_to_file(tmp_path, capsys):
    out_path = tmp_path / "ball12.design"
    code, _, err = run(capsys, "design", "ball", "--n", "12", "--k", "2", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 79
    assert "size=79" in err


def test_design_random_deterministic(tmp_path, capsys):
    a = tmp_path / "a.design"
    b = tmp_path / "b.design"
    assert run(capsys, "design", "random", "--n", "3", "--m", "4", "--seed", "7", "--out", str(a))[0] == 0
    assert run(capsys, "design", "random", "--n", "3", "--m", "4", "--seed", "7", "--out", str(b))[0] == 0
    assert a.read_text() == b.read_text()


def test_design_invalid_args(tmp_path, capsys):
    code, _, err = run(capsys, "design", "ball", "--n", "3", "--k", "9")
    assert code == 2
    assert "error" in err
    # an invalid order is refused before the design is written anywhere
    random_args = ["design", "random", "--n", "4", "--m", "3", "--seed", "1", "--k", "9"]
    code, out, err = run(capsys, *random_args)
    assert code == 2
    assert out == ""
    assert "error" in err
    out_path = tmp_path / "random.design"
    code, out, _ = run(capsys, *random_args, "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert not out_path.exists()


def test_design_random_above_max_basis_exits_2_before_sampling(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(designs, "sample_masks", lambda *args: pytest.fail("sampled"))
    out_path = tmp_path / "huge.design"
    argv = ["design", "random", "--n", "24", "--m", "16000000", "--seed", "1", "--out", str(out_path)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "cap" in err
    assert not out_path.exists()


def test_design_k_above_work_cap_exits_2_before_elimination(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(approx, "_evaluation_rows", lambda *args: calls.append(args))
    out_path = tmp_path / "ball14.design"
    for extra in ([], ["--out", str(out_path)]):
        code, out, err = run(capsys, "design", "ball", "--n", "14", "--k", "14", *extra)
        assert code == 2
        assert out == ""
        assert "elimination steps" in err and "cap" in err
    assert not out_path.exists()
    assert calls == []
    # the largest certified design of the benchmark stays under the cap
    check_elimination_work(12, 3, 300)


@pytest.mark.parametrize(
    "command, work",
    [
        (["complete", "{table}", "--k", "1"], "complete_from_ball"),
        (["predict", "{table}", "--target", "11", "--k", "1"], "approximate_value"),
        (["predict", "{table}", "--all", "--k", "1"], "approximate_all"),
        (["prob", "mc", "--n", "3", "--trials", "10"], "prob_real_montecarlo"),
    ],
)
def test_negative_decimal_rejected_before_work(tmp_path, capsys, monkeypatch, command, work):
    # a negative or over-long digit count, and a table value literal whose
    # digits plus exponent pass 4300: each is refused from its text, before
    # the answer or the literal's Fraction (seconds for "1e4000000") starts
    calls = []
    monkeypatch.setattr(cli, work, lambda *a, **kw: calls.append(a))
    cases = [("-1", None), ("4301", None), ("999999999", None)]
    if work != "prob_real_montecarlo":
        cases += [("2", "1e4000000"), ("2", "-1E+4301")]
    for decimal, literal in cases:
        table = tmp_path / "ball.csv"
        write_ball_values(table, 2, 1, linear_f)
        if literal is not None:
            table.write_text(table.read_text().replace(",5\n", f",{literal}\n", 1))
        argv = [arg.format(table=table) for arg in command]
        out_path = tmp_path / "o.csv"
        code, out, err = run(capsys, *argv, "--decimal", decimal, "--out", str(out_path))
        assert code == 2
        why = "--decimal" if literal is None else "line 2: value literal needs more than 4300"
        assert why in err
        assert out == ""
        assert not out_path.exists()
        assert calls == []


@pytest.mark.parametrize(
    "command",
    [["check", "{file}"], ["predict", "{file}", "--target", "0"], ["complete", "{file}"]],
)
def test_bitstring_past_the_dimension_cap_exits_2_with_its_line(tmp_path, capsys, command):
    # the readers refuse a 65-character bitstring at its own line, with
    # the text `Vertex.from_bitstring` gives it, like a bad character
    long = "0" * 65
    if command[0] == "check":
        text = f"# design\n{long}\n"
    else:
        text = f"vertex,value\n{long},1\n"
    path = tmp_path / "long.txt"
    path.write_text(text)
    code, out, err = run(capsys, *[arg.format(file=path) for arg in command], "--k", "0")
    assert code == 2
    assert out == ""
    assert "line 2: dimension must be an integer in [1, 64], got 65" in err


def test_decimal_at_4200_digits_still_written(tmp_path, capsys):
    table = tmp_path / "ball.csv"
    write_ball_values(table, 2, 1, linear_f)
    argv = ["predict", str(table), "--target", "11", "--k", "1", "--decimal", "4200"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == "6." + "0" * 4200 + "\n"


def test_check_ball(tmp_path, capsys):
    path = tmp_path / "ball.design"
    run(capsys, "design", "ball", "--n", "3", "--k", "1", "--out", str(path))
    code, out, _ = run(capsys, "check", str(path), "--k", "2")
    assert code == 0
    lines = out.splitlines()
    assert "order 0: yes" in lines
    assert "order 1: yes" in lines
    assert "order 2: no" in lines
    assert "max_order: 1" in lines


def test_check_json(tmp_path, capsys):
    path = tmp_path / "ball.design"
    run(capsys, "design", "ball", "--n", "3", "--k", "1", "--out", str(path))
    code, out, _ = run(capsys, "check", str(path), "--k", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    assert payload["size"] == 4
    assert payload["max_order"] == 1
    assert payload["orders"] == [
        {"k": 0, "covers_all": True},
        {"k": 1, "covers_all": True},
        {"k": 2, "covers_all": False},
    ]


def test_check_full_cube(tmp_path, capsys):
    path = tmp_path / "full.design"
    run(capsys, "design", "ball", "--n", "3", "--k", "3", "--out", str(path))
    code, out, _ = run(capsys, "check", str(path), "--k", "3")
    assert code == 0
    assert "max_order: 3" in out.splitlines()


def test_check_face_max_order_zero(tmp_path, capsys):
    path = tmp_path / "face.design"
    path.write_text("000\n100\n010\n110\n")
    code, out, _ = run(capsys, "check", str(path), "--k", "1")
    assert code == 0
    lines = out.splitlines()
    assert "order 0: yes" in lines
    assert "order 1: no" in lines
    assert "max_order: 0" in lines


def _check_output(n, size, answers, json_out):
    """What `check` writes for these per-order answers, as text or as JSON."""
    max_order = max(k for k, ok in enumerate(answers) if ok)
    if json_out:
        payload = {
            "command": "check", "n": n, "size": size,
            "orders": [{"k": k, "covers_all": ok} for k, ok in enumerate(answers)],
            "max_order": max_order,
        }
        return json.dumps(payload, indent=2) + "\n"
    return "".join(
        [f"n={n} size={size}\n"]
        + [f"order {k}: {'yes' if ok else 'no'}\n" for k, ok in enumerate(answers)]
        + [f"max_order: {max_order}\n"]
    )


@pytest.mark.parametrize("json_out", [False, True], ids=["text", "json"])
def test_check_answers_orders_above_the_first_no_without_elimination(
    tmp_path, capsys, monkeypatch, json_out
):
    # the face x1 = 0 of the 4-cube covers order 0 and no higher order
    path = tmp_path / "face.design"
    design = Design(4, tuple(Vertex(4, b) for b in range(8)))
    path.write_text("".join(v.bitstring() + "\n" for v in design.vertices))
    answers = [approx.covers_all(design, k) for k in range(5)]
    assert answers == [True, False, False, False, False]
    expected = _check_output(4, 8, answers, json_out)
    factors, visited = [], []
    echelon, eliminate = linalg._echelon_modp, gf2._Jordan2._eliminate

    def recording(r, p, **kw):
        factors.append((r.shape, p))
        return echelon(r, p, **kw)

    monkeypatch.setattr(linalg, "_echelon_modp", recording)
    monkeypatch.setattr(
        gf2._Jordan2,
        "_eliminate",
        lambda self, j: visited.append((self.columns, j)) or eliminate(self, j),
    )
    code, out, _ = run(capsys, "check", str(path), "--k", "4", *(["--json"] if json_out else []))
    assert code == 0
    assert out == expected
    # one elimination mod 2 for every order: 8 vertices leave orders 2..4 to
    # the count, so it has order 1's columns 1, x1, ..., x4, and it stops at
    # x1, which vanishes on the face, without visiting x2, x3 or x4; x1's
    # zero column is its own checked kernel vector, so no factor mod p runs
    assert visited == [(5, 0), (5, 1)]
    assert factors == []


def _per_order_answers(design, k):
    """`check`'s answers from one elimination per order, as it once ran `covers_all`.

    Each order takes the descending supports as columns, is "no" without
    elimination when the design has fewer vertices than monomials, and
    after the first "no" every higher order is "no" too.
    """
    answers, ok = [], True
    for j in range(k + 1):
        supports = descending_supports(design.n, j)
        ok = ok and design.size >= len(supports) and (
            ModularEchelon(_evaluation_rows(supports, design.masks)).spans()
        )
        answers.append(ok)
    return answers


@st.composite
def _certify_cases(draw, q):
    """A design at n <= 7 and a top order K, the design often failing at a middle order.

    The design is a random subset of the cube, of a face, of a radius-j
    ball with j < K, or of the vertices whose weight is a multiple of q,
    each moved by a random XOR mask. On the last the sum of the
    coordinates, up to signs and a constant, vanishes mod q, so with the
    prime q the factor often stops too early and is retried.
    """
    n = draw(st.integers(1, 7))
    k = draw(st.integers(0, n))
    kind = draw(st.sampled_from(["random", "face", "ball", "weight"]))
    if kind == "weight":
        pool = [b for b in range(1 << n) if b.bit_count() % q == 0]
    elif kind == "face":
        fixed = draw(st.integers(1, n))
        pool = [b << fixed for b in range(1 << (n - fixed))]
    elif kind == "ball" and k > 0:
        radius = draw(st.integers(0, k - 1))
        pool = [b for b in range(1 << n) if b.bit_count() <= radius]
    else:
        pool = list(range(1 << n))
    size = draw(st.one_of(st.just(len(pool)), st.integers(1, len(pool))))
    shift = draw(st.integers(0, (1 << n) - 1))
    masks = draw(st.permutations(pool))[:size]
    return Design(n, tuple(Vertex(n, b ^ shift) for b in masks)), k


@pytest.mark.parametrize("prime", [None, 2, 3])
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.data())
def test_check_equals_per_order_elimination_and_bareiss(tmp_path, capsys, prime, data):
    # with p = 2 or 3 the prefix often stops too early mod p, its kernel
    # vector fails the exact check, and the factor is retried on a new prime
    design, k = data.draw(_certify_cases(prime or 2))
    n = design.n
    path = tmp_path / "design.design"
    path.write_text("".join(v.bitstring() + "\n" for v in design.vertices))
    answers = _per_order_answers(design, k)
    masks = [v.bits for v in design.vertices]
    ranks = [
        reference.rank_rational(evaluation_rows(descending_supports(n, j), masks))
        for j in range(k + 1)
    ]
    assert answers == [rank == basis_size(n, j) for j, rank in enumerate(ranks)]
    with pytest.MonkeyPatch.context() as mp:
        if prime is not None:
            mp.setattr(linalg, "_P", prime)
        assert [approx.covers_all(design, j) for j in range(k + 1)] == answers
        for json_out in (False, True):
            code, out, _ = run(capsys, "check", str(path), "--k", str(k), *["--json"] * json_out)
            assert code == 0
            assert out == _check_output(n, design.size, answers, json_out)


def test_check_runs_no_per_order_loop():
    # `check` answers every order from one elimination: it does not name
    # `covers_all`, so an elimination per order cannot creep back
    tree = ast.parse(Path(cli.__file__).read_text())
    (node,) = [n for n in tree.body if getattr(n, "name", None) == "cmd_check"]
    named = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }
    assert "covers_all" not in named
    # the scan sees the call that answers instead
    assert "_covered_order" in named


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    # `main` builds its parser on the first call, not at import, and reuses
    # it: a refused call and then two other subcommands print, byte for
    # byte, what each prints in a process of its own
    design = tmp_path / "ball.design"
    design.write_text("000\n100\n010\n001\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))

    def alone(*args):
        done = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
        return done.returncode, done.stdout, done.stderr

    probe = "import boxapprox.cli as c; print(c.build_parser.cache_info().currsize)"
    assert alone("-c", probe) == (0, "0\n", "")
    cli.build_parser.cache_clear()
    calls = [
        ["predict", "table.csv", "--k", "1"],
        ["counts", "--n", "4..6", "--k", "2"],
        ["check", str(design), "--k", "2", "--json"],
    ]
    got = [run(capsys, *argv) for argv in calls]
    assert got == [alone("-m", "boxapprox.cli", *argv) for argv in calls]
    assert [code for code, _, _ in got] == [2, 0, 0]
    assert cli.build_parser.cache_info().misses == 1


def test_check_malformed_line(tmp_path, capsys):
    path = tmp_path / "bad.design"
    path.write_text("000\n0x0\n")
    code, _, err = run(capsys, "check", str(path), "--k", "1")
    assert code == 2
    assert "line 2" in err


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/path.design", "--k", "1")
    assert code == 1


def test_check_huge_basis_exits_2(tmp_path, capsys):
    path = tmp_path / "wide.design"
    path.write_text("".join(format(b, "064b") + "\n" for b in [0] + [1 << i for i in range(64)]))
    code, out, err = run(capsys, "check", str(path), "--k", "30")
    assert code == 2
    assert out == ""
    assert "cap" in err


def test_check_work_cap_exits_2_before_elimination(tmp_path, capsys, monkeypatch):
    calls = []
    # a 2^14-square evaluation matrix would take gigabytes, so it is stubbed too
    monkeypatch.setattr(approx, "_evaluation_rows", lambda *args: calls.append(args))
    n = 14
    path = tmp_path / "cube14.design"
    path.write_text("".join(format(b, f"0{n}b") + "\n" for b in range(1 << n)))
    out_path = tmp_path / "check.txt"
    code, out, err = run(capsys, "check", str(path), "--k", "14", "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert "elimination steps" in err and "cap" in err
    assert not out_path.exists()
    assert calls == []


def test_predict_all_above_cube_cap_exits_2_before_factoring(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(approx, "ModularEchelon", lambda *args: calls.append(args))
    n = 25
    table = tmp_path / "wide.csv"
    design = Design(n, tuple(Vertex(n, b) for b in range(400)), tuple(range(400)))
    with open(table, "w", newline="") as handle:
        write_values_csv(handle, design)
    out_path = tmp_path / "all.csv"
    code, out, err = run(capsys, "predict", str(table), "--all", "--k", "3", "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert "capped at n=24" in err
    assert not out_path.exists()
    assert calls == []


@pytest.mark.parametrize("mode", [["--target", "1" * 20], ["--all"]], ids=["target", "all"])
def test_predict_above_work_cap_exits_2_before_elimination(tmp_path, capsys, monkeypatch, mode):
    # n=20 with 3000 vertices at k=4 is about 5.6e10 elimination steps, 200x the cap
    calls = []
    for name in ("_ascending_supports", "_evaluation_rows", "ModularEchelon"):
        monkeypatch.setattr(approx, name, lambda *args, name=name: calls.append(name))
    n = 20
    table = tmp_path / "wide.csv"
    design = Design(n, tuple(Vertex(n, b) for b in range(3000)), tuple(range(3000)))
    with open(table, "w", newline="") as handle:
        write_values_csv(handle, design)
    code, out, err = run(capsys, "predict", str(table), *mode, "--k", "4")
    assert code == 2
    assert out == ""
    assert "elimination steps" in err and "cap" in err
    assert calls == []


@pytest.mark.parametrize("k", ["-1", "4"])
@pytest.mark.parametrize(
    "command",
    [
        ["check", "{design}"],
        ["predict", "{table}", "--target", "111"],
        ["predict", "{table}", "--all"],
        ["complete", "{table}"],
    ],
    ids=["check", "predict-target", "predict-all", "complete"],
)
def test_order_outside_range_exits_2(tmp_path, capsys, command, k):
    table = tmp_path / "ball.csv"
    design = write_ball_values(table, 3, 1, linear_f)
    design_file = tmp_path / "ball.design"
    design_file.write_text("".join(v.bitstring() + "\n" for v in design.vertices))
    argv = [arg.format(design=design_file, table=table) for arg in command]
    code, out, err = run(capsys, *argv, "--k", k)
    assert code == 2
    assert out == ""
    assert "outside 0..3" in err


def test_design_ball_huge_exits_2(capsys):
    code, out, err = run(capsys, "design", "ball", "--n", "64", "--k", "30")
    assert code == 2
    assert out == ""
    assert "cap" in err


def test_predict_single(tmp_path, capsys):
    path = tmp_path / "values.csv"
    write_ball_values(path, 3, 1, linear_f)
    code, out, _ = run(capsys, "predict", str(path), "--target", "111", "--k", "1")
    assert code == 0
    assert out.strip() == "6"


def test_predict_measured_echo(tmp_path, capsys):
    path = tmp_path / "values.csv"
    write_ball_values(path, 3, 1, linear_f)
    code, out, _ = run(capsys, "predict", str(path), "--target", "100", "--k", "1")
    assert code == 0
    assert out.strip() == str(linear_f(Vertex.from_bitstring("100")))


def test_predict_not_determinable_exit_3(tmp_path, capsys):
    path = tmp_path / "face.csv"
    rows = ["vertex,value", "000,1", "100,2", "010,3", "110,4"]
    path.write_text("\n".join(rows) + "\n")
    code, _, err = run(capsys, "predict", str(path), "--target", "001", "--k", "1")
    assert code == 3
    assert "not determinable at order 1" in err


def test_predict_all_csv(tmp_path, capsys):
    path = tmp_path / "values.csv"
    write_ball_values(path, 3, 1, linear_f)
    code, out, _ = run(capsys, "predict", str(path), "--all", "--k", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "vertex,status,value,degree"
    assert len(lines) == 9
    cells = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert cells["000"][1] == "measured"
    assert cells["111"] == ["111", "predicted", "6", "1"]


def test_predict_all_json_summary(tmp_path, capsys):
    path = tmp_path / "face.csv"
    rows = ["vertex,value", "000,1", "100,2", "010,3", "110,4"]
    path.write_text("\n".join(rows) + "\n")
    code, out, _ = run(capsys, "predict", str(path), "--all", "--k", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["covers_all"] is False
    assert payload["design_size"] == 4
    statuses = {entry["vertex"]: entry["status"] for entry in payload["vertices"]}
    assert statuses["001"] == "undetermined"
    assert statuses["000"] == "measured"
    assert len(payload["vertices"]) == 8
    full = tmp_path / "ball.csv"
    write_ball_values(full, 3, 1, linear_f)
    code, out, _ = run(capsys, "predict", str(full), "--all", "--k", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["covers_all"] is True
    assert all(entry["status"] != "undetermined" for entry in payload["vertices"])


def test_predict_target_wrong_length(tmp_path, capsys):
    path = tmp_path / "values.csv"
    write_ball_values(path, 3, 1, linear_f)
    code, _, err = run(capsys, "predict", str(path), "--target", "11", "--k", "1")
    assert code == 2


def test_complete_quadratic(tmp_path, capsys):
    path = tmp_path / "values.csv"
    write_ball_values(path, 3, 2, quad_f)
    code, out, _ = run(capsys, "complete", str(path), "--k", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "vertex,value"
    assert len(lines) == 9
    assert "111,4" in lines


def test_complete_identity_when_k_equals_n(tmp_path, capsys):
    path = tmp_path / "values.csv"
    write_ball_values(path, 2, 2, lambda v: Fraction(v.bits))
    code, out, _ = run(capsys, "complete", str(path), "--k", "2")
    assert code == 0
    assert len(out.splitlines()) == 5


def test_complete_full_landscape_n12(tmp_path, capsys):
    path = tmp_path / "values.csv"
    design = write_ball_values(
        path, 12, 2, lambda v: Fraction(v.coords()[0] * v.coords()[1] + 3 * v.coords()[2])
    )
    assert design.size == 79
    code, out, _ = run(capsys, "complete", str(path), "--k", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4097
    assert lines[0] == "vertex,value"
    assert "111000000000,4" in lines


def test_complete_rejects_non_ball(tmp_path, capsys):
    path = tmp_path / "values.csv"
    write_ball_values(path, 3, 1, linear_f)
    code, _, err = run(capsys, "complete", str(path), "--k", "2")
    assert code == 2
    assert "missing" in err


def test_complete_json(tmp_path, capsys):
    path = tmp_path / "values.csv"
    write_ball_values(path, 3, 2, quad_f)
    code, out, _ = run(capsys, "complete", str(path), "--k", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["values"]["111"] == "4"
    assert len(payload["values"]) == 8


def test_complete_agrees_with_predict_all(tmp_path, capsys):
    path = tmp_path / "values.csv"
    write_ball_values(path, 4, 2, lambda v: Fraction(sum(v.coords()) ** 2))
    code_c, out_c, _ = run(capsys, "complete", str(path), "--k", "2")
    code_p, out_p, _ = run(capsys, "predict", str(path), "--all", "--k", "2")
    assert code_c == 0 and code_p == 0
    completed = dict(line.split(",") for line in out_c.splitlines()[1:])
    for line in out_p.splitlines()[1:]:
        vertex, status, value, _ = line.split(",")
        assert status in ("measured", "predicted")
        assert completed[vertex] == value


def test_prob_f2_table(capsys):
    code, out, _ = run(capsys, "prob", "f2", "--n", "1..4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,method,probability,std_error,trials,seed"
    assert lines[1] == "1,exact_f2,1,,,"
    assert lines[3] == "3,exact_f2,4/5,,,"


def test_prob_exact_row(capsys):
    code, out, _ = run(capsys, "prob", "exact", "--n", "3")
    assert code == 0
    assert out.splitlines()[1] == "3,exhaustive_real,29/35,,,"


def test_prob_mc_deterministic(capsys):
    code, out1, _ = run(capsys, "prob", "mc", "--n", "3", "--trials", "2000", "--seed", "5")
    assert code == 0
    code, out2, _ = run(capsys, "prob", "mc", "--n", "3", "--trials", "2000", "--seed", "5")
    assert out1 == out2
    row = out1.splitlines()[1].split(",")
    assert row[1] == "monte_carlo"
    assert row[4] == "2000" and row[5] == "5"


def test_prob_range_validation(capsys):
    assert run(capsys, "prob", "exact", "--n", "6")[0] == 2
    assert run(capsys, "prob", "mc", "--n", "25")[0] == 2
    assert run(capsys, "prob", "f2", "--n", "3..1")[0] == 2
    assert run(capsys, "prob", "f2", "--n", "0")[0] == 2


@pytest.mark.parametrize(
    "command, module, work",
    [
        (["prob", "f2", "--n", "20000"], cli, "prob_f2_exact"),
        (["prob", "f2", "--n", "1..65"], cli, "prob_f2_exact"),
        (["prob", "exact", "--n", "1..6"], cli, "prob_real_exhaustive"),
        (["prob", "mc", "--n", "1..25", "--trials", "10"], cli, "prob_real_montecarlo"),
        (["counts", "--n", "4..100", "--k", "4"], designs, "ball_size"),
        (["counts", "--n", "4..2000000", "--k", "4"], designs, "generic_size"),
    ],
    ids=["f2-20000", "f2-65", "exact-6", "mc-25", "counts-100", "counts-2000000"],
)
def test_dimension_above_cap_exits_2_before_work(capsys, monkeypatch, command, module, work):
    calls = []
    monkeypatch.setattr(module, work, lambda *a: calls.append(a))
    code, out, err = run(capsys, *command)
    assert code == 2
    assert out == ""
    assert "error:" in err
    assert calls == []


def test_counts_table(capsys):
    code, out, _ = run(capsys, "counts", "--n", "12", "--k", "2")
    assert code == 0
    assert out.splitlines()[1] == "12,2,79,91"
    code, out, _ = run(capsys, "counts", "--n", "12", "--k", "3")
    assert out.splitlines()[1] == "12,3,299,455"


def test_counts_sweep(capsys):
    code, out, _ = run(capsys, "counts", "--n", "4..10", "--k", "4")
    assert code == 0
    assert len(out.splitlines()) == 8
    code, _, err = run(capsys, "counts", "--n", "3..10", "--k", "4")
    assert code == 2


def test_decimal_rendering(tmp_path, capsys):
    path = tmp_path / "values.csv"
    rows = ["vertex,value", "00,0", "10,1/3", "01,1"]
    path.write_text("\n".join(rows) + "\n")
    code, out, _ = run(capsys, "predict", str(path), "--target", "11", "--k", "1", "--decimal", "4")
    assert code == 0
    assert out.strip() == "1.3333"
    code, out, _ = run(capsys, "predict", str(path), "--target", "11", "--k", "1")
    assert out.strip() == "4/3"


def test_design_roundtrip_into_check_and_predict(tmp_path, capsys):
    design_path = tmp_path / "d.design"
    run(capsys, "design", "random", "--n", "3", "--m", "5", "--seed", "2", "--out", str(design_path))
    assert run(capsys, "check", str(design_path), "--k", "1")[0] == 0
    values_path = tmp_path / "d.csv"
    lines = design_path.read_text().splitlines()
    values_path.write_text("vertex,value\n" + "".join(f"{b},1\n" for b in lines))
    code, _, _ = run(capsys, "predict", str(values_path), "--all", "--k", "0")
    assert code == 0


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_cube_outputs_reach_a_real_stdout_byte_for_byte(tmp_path, capsys):
    # `python -m boxapprox.cli` writes the same bytes to its stdout as
    # `main` does in-process and as --out does, across more than one chunk
    path = tmp_path / "values.csv"
    write_ball_values(path, 11, 2, lambda v: Fraction(sum(v.coords()) ** 2 - 7, 3))
    face = tmp_path / "face.csv"
    write_ball_values(face, 11, 1, quad_f)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    for argv in (
        ["complete", str(path), "--k", "2"],
        ["predict", str(face), "--all", "--k", "2", "--json", "--decimal", "3"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "boxapprox.cli", *argv], capture_output=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(out) > 2048 * 15
        assert proc.stdout == out.encode()
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out").read_bytes() == proc.stdout


@pytest.mark.parametrize("command", [["complete", "--k", "1"], ["predict", "--all", "--k", "1"]])
def test_decimal_19_of_zero_values_written(tmp_path, capsys, command):
    # 10^19 alone passes int64, so a chunk of zeros takes the Python-int path
    path = tmp_path / "zero.csv"
    write_ball_values(path, 2, 1, lambda v: Fraction(0))
    code, out, err = run(capsys, command[0], str(path), *command[1:], "--decimal", "19")
    assert code == 0, err
    assert out.splitlines()[1].split(",")[-1 if command[0] == "complete" else 2] == "0." + "0" * 19
