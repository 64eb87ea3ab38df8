import ast
import io
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxapprox import approx, core, designs, formats
from boxapprox.approx import Design, _design_rows, complete_from_ball, covers_all
from boxapprox.core import MAX_BASIS, MAX_EVALUATION_ENTRIES, Vertex
from boxapprox.designs import (
    ball_size,
    counting_table,
    generic_size,
    hamming_ball,
    sample_random_design,
    tightness_matrix,
)
from boxapprox.formats import parse_design_lines, parse_values_csv
from reference_basis import descending_supports, evaluation_rows
from reference_linalg import rank_rational


def test_hamming_ball_order_and_size():
    ball = hamming_ball(3, 1)
    assert [v.bitstring() for v in ball.vertices] == ["000", "100", "010", "001"]
    assert hamming_ball(12, 2).size == 79
    assert hamming_ball(12, 3).size == 299
    assert hamming_ball(3, 3).size == 8
    with pytest.raises(ValueError):
        hamming_ball(3, 4)
    with pytest.raises(ValueError):
        hamming_ball(3, -1)


def test_hamming_ball_rejects_huge_radius_before_enumerating():
    with pytest.raises(ValueError, match="cap"):
        hamming_ball(64, 30)
    for n in (0, 65):
        with pytest.raises(ValueError, match="dimension"):
            hamming_ball(n, 0)


def test_designs_are_built_from_masks(monkeypatch):
    # both builders hand the door their masks: no Vertex is checked, and
    # equality, hashing, size, membership, new values and the evaluation
    # rows read the masks; the tuple is built when `vertices` is first
    # read, and it equals the design built from checked vertices
    inside, outside = Vertex(12, 0b111), Vertex(12, (1 << 12) - 1)
    checked, built = [], []
    monkeypatch.setattr(Vertex, "__post_init__", lambda self: checked.append(self))
    for module in (core, approx):
        monkeypatch.setattr(module, "_vertices", lambda *args: built.append(args))
    small, ball = hamming_ball(5, 2), hamming_ball(12, 3)
    drawn, whole = sample_random_design(12, 300, 5), sample_random_design(4, 16, 0)
    assert ball == hamming_ball(12, 3) and hash(ball) == hash(hamming_ball(12, 3)) and ball != drawn
    assert ball.size == 299 and inside in ball and outside not in ball
    measured = ball.with_values(range(ball.size))
    assert measured.masks == ball.masks and measured.numerators == tuple(range(ball.size))
    assert _design_rows(measured, 3)[1].shape == (299, 299)
    assert checked == built == []
    assert all("vertices" not in vars(d) for d in (small, ball, drawn, whole, measured))
    monkeypatch.undo()
    for d in (small, ball, drawn, whole):
        masks = d.masks
        assert d == Design(d.n, tuple(Vertex(d.n, b) for b in masks))
        assert list(masks) == sorted(masks, key=lambda b: (b.bit_count(), -b))


def test_only_approx_knows_how_a_design_stores_its_vertices():
    # the other modules build designs through the door and read `masks`:
    # no module names the removed private layout, and none but `approx`
    # reads the member set
    gone = {"_masks", "_bits", "_vertex_masks", "_mask_design", "__getattr__"}
    for path in Path(approx.__file__).parent.glob("*.py"):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        named = {n.id for n in nodes if isinstance(n, ast.Name)}
        named |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        named |= {n.arg for n in nodes if isinstance(n, (ast.keyword, ast.arg))}
        named |= {n.name for n in nodes if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        assert not named & gone, path.name
        assert path.stem == "approx" or "_members" not in named, path.name


def test_design_takes_any_iterable_of_vertices():
    # a list or a generator of vertices gives the design a tuple gives:
    # equal, with an equal hash, and with its masks held as a tuple
    ball = hamming_ball(2, 1)
    vertices = [Vertex(2, 0), Vertex(2, 2), Vertex(2, 1)]
    for given_vertices in (vertices, tuple(vertices), (v for v in vertices)):
        d = Design(2, given_vertices)
        assert d == ball and hash(d) == hash(ball)
        assert d.masks == (0, 2, 1) and d.vertices == tuple(vertices)


@st.composite
def _mask_designs(draw):
    """A dimension, distinct masks in any order, and one exact value per mask."""
    n = draw(st.integers(1, 6))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=12, unique=True))
    values = draw(st.lists(st.fractions(max_denominator=50), min_size=len(masks), max_size=len(masks)))
    return n, masks, values


@settings(max_examples=60, deadline=None)
@given(_mask_designs(), st.integers(0, 3), st.integers(0, 2**64 + 5))
def test_every_door_gives_the_same_design(case, k, seed):
    # each constructor passes the one door once and gives the design that its
    # masks and values name, with the same hash
    n, masks, values = case
    k = min(k, n)
    bitstrings = [format(b, f"0{n}b") for b in masks]
    csv_text = "vertex,value\n" + "".join(f"{s},{x}\n" for s, x in zip(bitstrings, values))
    ball = hamming_ball(n, k)
    ball_values = (values * ball.size)[: ball.size]
    drawn = sample_random_design(n, len(masks), seed)
    bare = Design(n, [Vertex(n, b) for b in masks])
    doors = [
        (lambda: Design(n, tuple(Vertex(n, b) for b in masks), values), masks, values),
        (lambda: Design(n, [Vertex(n, b) for b in masks], values), masks, values),
        (lambda: Design(n, (Vertex(n, b) for b in masks), values), masks, values),
        (lambda: Design.from_bitstrings(bitstrings, values), masks, values),
        (lambda: bare.with_values(values), masks, values),
        (lambda: parse_values_csv(io.StringIO(csv_text)), masks, values),
        (lambda: parse_design_lines(io.StringIO("\n".join(bitstrings))), masks, None),
        (lambda: hamming_ball(n, k), ball.masks, None),
        (lambda: sample_random_design(n, len(masks), seed), drawn.masks, None),
        (lambda: complete_from_ball(dict(zip(ball.vertices, ball_values)), n, k), ball.masks, ball_values),
    ]
    door = approx._from_masks
    for build, want_masks, want_values in doors:
        passed = []

        def spy(*args, **kwargs):
            passed.append(door(*args, **kwargs))
            return passed[-1]

        with pytest.MonkeyPatch.context() as patch:
            for module in (approx, designs, formats):
                patch.setattr(module, "_from_masks", spy)
            build()
        want = Design(n, tuple(Vertex(n, b) for b in want_masks), want_values)
        assert len(passed) == 1 and passed[0] == want and hash(passed[0]) == hash(want)
        assert passed[0].masks == tuple(want_masks) and passed[0].values == (
            None if want_values is None else tuple(want_values)
        )


def test_hamming_ball_covers_its_order():
    for n in range(1, 9):
        for k in range(n):
            assert covers_all(hamming_ball(n, k), k) is True


def test_tightness_matrix_trivial():
    supports, matrix = tightness_matrix(1, 0)
    assert supports == [0]
    assert matrix.tolist() == [[1]]


def test_tightness_matrix_3_3():
    _, matrix = tightness_matrix(3, 3)
    assert matrix.shape == (8, 8)
    entries = matrix.tolist()
    for i, row in enumerate(entries):
        assert row[i] == 1
        assert all(x == 0 for x in row[i + 1 :])
    assert rank_rational(entries) == 8


def test_tightness_matrix_triangular_full_rank():
    for n in range(1, 9):
        for k in range(n + 1):
            supports, matrix = tightness_matrix(n, k)
            size = ball_size(n, k)
            assert matrix.shape == (size, size) and matrix.dtype == "int64"
            entries = matrix.tolist()
            # row i is monomial i at every column vertex, the vertex of support j
            assert supports == descending_supports(n, k)
            assert entries == [list(r) for r in zip(*evaluation_rows(supports, supports))]
            for i, row in enumerate(entries):
                assert row[i] == 1
                assert all(x == 0 for x in row[i + 1 :])
            assert rank_rational(entries) == size


def test_tightness_matrix_above_the_entry_cap_is_refused_before_it_is_built(monkeypatch):
    # 21,700 monomials pass MAX_BASIS, but their 4.7e8 entries would take
    # about 7.5 GB while they were built
    for module in (core, designs):
        monkeypatch.setattr(module, "_evaluation_rows", lambda *args: pytest.fail("built"))
    monkeypatch.setattr(designs, "_ascending_supports", lambda *args: pytest.fail("enumerated"))
    with pytest.raises(ValueError, match="entries, above the cap"):
        tightness_matrix(20, 5)
    assert ball_size(14, 5) ** 2 <= MAX_EVALUATION_ENTRIES < ball_size(20, 5) ** 2


def test_sample_random_design_deterministic():
    a = sample_random_design(3, 4, 7)
    b = sample_random_design(3, 4, 7)
    assert a == b
    c = sample_random_design(3, 4, 8)
    assert a != c


def test_sample_random_design_full_set():
    d = sample_random_design(3, 8, 123)
    assert sorted(v.bits for v in d.vertices) == list(range(8))


def test_sample_random_design_validation():
    with pytest.raises(ValueError):
        sample_random_design(3, 0, 1)
    with pytest.raises(ValueError):
        sample_random_design(3, 9, 1)
    with pytest.raises(ValueError):
        sample_random_design(25, 2, 1)


def test_sample_random_design_refuses_more_than_max_basis_before_sampling(monkeypatch):
    # 2^23 vertices took 42 s and 2.4 GB before the cap; it is refused before any draw
    monkeypatch.setattr(designs, "sample_masks", lambda *args: pytest.fail("sampled"))
    for m in (MAX_BASIS + 1, 1 << 23, 16_000_000):
        with pytest.raises(ValueError, match="cap"):
            sample_random_design(24, m, 1)


def test_sample_random_design_distinct_and_in_range():
    rng = random.Random(55)
    for _ in range(50):
        n = rng.randrange(1, 7)
        m = rng.randrange(1, (1 << n) + 1)
        d = sample_random_design(n, m, rng.randrange(1 << 32))
        bits = [v.bits for v in d.vertices]
        assert len(set(bits)) == m
        assert all(0 <= b < (1 << n) for b in bits)


def test_sample_random_design_uniform_frequencies():
    # 10^5 draws of 4-subsets of the 3-cube: each vertex appears Binomial(T, 1/2)
    n, m, draws = 3, 4, 100_000
    counts = [0] * (1 << n)
    for i in range(draws):
        for b in sample_random_design(n, m, i).masks:
            counts[b] += 1
    expect = draws * m / (1 << n)
    sigma = math.sqrt(draws * 0.5 * 0.5)
    for c in counts:
        assert abs(c - expect) <= 3 * sigma
    # chi-square against the uniform marginal, 99.9% quantile for df=7 is 24.32
    chi2 = sum((c - expect) ** 2 / expect for c in counts)
    assert chi2 < 24.32


def test_counting_table_examples():
    rows = counting_table(12, 12, 2)
    assert (rows[0].ball_size, rows[0].generic_size) == (79, 91)
    rows = counting_table(12, 12, 3)
    assert (rows[0].ball_size, rows[0].generic_size) == (299, 455)
    row = counting_table(5, 5, 5)[0]
    assert row.ball_size == 32
    assert row.generic_size == math.comb(10, 5)


def test_counting_table_range_and_validation():
    rows = counting_table(4, 8, 4)
    assert [r.n for r in rows] == [4, 5, 6, 7, 8]
    assert all(r.k == 4 for r in rows)
    with pytest.raises(ValueError):
        counting_table(5, 4, 2)
    with pytest.raises(ValueError):
        counting_table(3, 5, 4)
    assert counting_table(64, 64, 4)[0].ball_size == sum(math.comb(64, i) for i in range(5))
    for lo, hi in ((0, 5), (4, 65)):
        with pytest.raises(ValueError, match="dimension"):
            counting_table(lo, hi, 0)


def test_ball_never_larger_than_generic():
    for n in range(1, 30):
        for k in range(n + 1):
            b, g = ball_size(n, k), generic_size(n, k)
            assert b <= g
            if k >= 2 and k < n:
                assert b < g
            if k in (0, 1):
                # equality holds at orders 0 and 1: 1 = 1 and n+1 = n+1
                assert b == g
