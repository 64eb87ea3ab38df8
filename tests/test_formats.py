import io
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxapprox import formats
from boxapprox.approx import Design
from boxapprox.core import Vertex
from boxapprox.formats import (
    MAX_DIGITS,
    FormatError,
    format_value,
    parse_design_lines,
    parse_value,
    parse_values_csv,
    read_design_file,
    read_values_csv,
    write_design_file,
    write_values_csv,
)


def test_parse_value_forms():
    assert parse_value("3/4") == Fraction(3, 4)
    assert parse_value("-7") == Fraction(-7)
    assert parse_value("0.125") == Fraction(1, 8)
    assert parse_value(" 2.50 ") == Fraction(5, 2)
    with pytest.raises(ValueError):
        parse_value("abc")
    with pytest.raises(ValueError):
        parse_value("1/0")


def test_parse_value_refuses_literals_past_4300_digits(monkeypatch):
    # mantissa digits plus |exponent|, read from the text: the refused
    # literals never reach Fraction, which would take hours on the last one
    assert MAX_DIGITS == 4300
    assert parse_value("1e4299") == 10**4299
    assert parse_value("12e4298") == 12 * 10**4298
    assert parse_value("1e-4299") == Fraction(1, 10**4299)
    assert parse_value("0." + "0" * 4298 + "1") == Fraction(1, 10**4299)
    built = []
    monkeypatch.setattr(formats, "Fraction", lambda *a: built.append(a))
    for text in ("1e4300", "12e4299", "-1E+4300", "1e-4300", "0." + "0" * 4299 + "1",
                 "1" * 4301, "1e4000000", "1e999999999", "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="more than 4300 digits"):
            parse_value(text)
    assert built == []
    with pytest.raises(FormatError) as info:
        parse_values_csv(io.StringIO("vertex,value\n000,1\n001,1e4000000\n"))
    assert info.value.line == 3


def test_format_value_exact():
    assert format_value(Fraction(6)) == "6"
    assert format_value(Fraction(-13, 2)) == "-13/2"
    assert format_value(Fraction(0)) == "0"


def test_format_value_decimal():
    assert format_value(Fraction(1, 8), 3) == "0.125"
    assert format_value(Fraction(1, 3), 4) == "0.3333"
    assert format_value(Fraction(-13, 2), 1) == "-6.5"
    assert format_value(Fraction(5), 0) == "5"
    assert format_value(Fraction(1, 200), 2) == "0.00"  # 0.005 rounds half to even
    assert format_value(Fraction(3, 200), 2) == "0.02"
    with pytest.raises(ValueError):
        format_value(Fraction(1), -1)


def test_design_file_roundtrip(tmp_path):
    design = Design.from_bitstrings(["000", "100", "010", "001"])
    path = tmp_path / "ball.design"
    with open(path, "w") as handle:
        write_design_file(handle, design)
    assert read_design_file(str(path)) == design


def test_design_lines_comments_and_blanks():
    lines = ["# radius-1 ball", "", "000", "  100", "# middle note", "010", ""]
    design = parse_design_lines(lines)
    assert [v.bitstring() for v in design.vertices] == ["000", "100", "010"]


def test_design_lines_errors_carry_line_numbers():
    with pytest.raises(FormatError) as info:
        parse_design_lines(["000", "0a0"])
    assert info.value.line == 2
    with pytest.raises(FormatError) as info:
        parse_design_lines(["000", "0000"])
    assert info.value.line == 2
    with pytest.raises(FormatError) as info:
        parse_design_lines(["000", "000"])
    assert info.value.line == 2
    with pytest.raises(FormatError):
        parse_design_lines(["# only comments"])


def test_values_csv_roundtrip(tmp_path):
    design = Design.from_bitstrings(
        ["00", "10", "01"], [Fraction(1, 3), Fraction(-2), Fraction(7, 2)]
    )
    path = tmp_path / "measurements.csv"
    with open(path, "w", newline="") as handle:
        write_values_csv(handle, design)
    loaded = read_values_csv(str(path))
    assert loaded == design


def test_values_csv_parsing():
    text = "vertex,value\n000,5\n100,7\n010,0.5\n001,-3/4\n"
    design = parse_values_csv(io.StringIO(text))
    assert design.values == (Fraction(5), Fraction(7), Fraction(1, 2), Fraction(-3, 4))


def test_values_csv_errors():
    with pytest.raises(FormatError):
        parse_values_csv(io.StringIO("wrong,header\n000,1\n"))
    with pytest.raises(FormatError) as info:
        parse_values_csv(io.StringIO("vertex,value\n000,1\n000,2\n"))
    assert info.value.line == 3
    with pytest.raises(FormatError) as info:
        parse_values_csv(io.StringIO("vertex,value\n000,1\n00,2\n"))
    assert info.value.line == 3
    with pytest.raises(FormatError) as info:
        parse_values_csv(io.StringIO("vertex,value\n000,xyz\n"))
    assert info.value.line == 2
    with pytest.raises(FormatError):
        parse_values_csv(io.StringIO("vertex,value\n"))
    with pytest.raises(FormatError):
        parse_values_csv(io.StringIO(""))
    with pytest.raises(FormatError):
        parse_values_csv(io.StringIO("vertex,value\n000\n"))


def test_write_values_requires_values():
    design = Design.from_bitstrings(["0", "1"])
    with pytest.raises(ValueError):
        write_values_csv(io.StringIO(), design)


@st.composite
def _designs(draw, valued):
    n = draw(st.integers(1, 10))
    bits = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=40, unique=True))
    values = None
    if valued:
        values = tuple(draw(st.lists(st.fractions(), min_size=len(bits), max_size=len(bits))))
    return Design(n, tuple(Vertex(n, b) for b in bits), values)


@settings(max_examples=100, deadline=None)
@given(_designs(valued=False))
def test_design_file_roundtrip_property(design):
    handle = io.StringIO()
    write_design_file(handle, design)
    assert parse_design_lines(io.StringIO(handle.getvalue())) == design


@settings(max_examples=100, deadline=None)
@given(_designs(valued=True), st.one_of(st.none(), st.integers(0, 8)))
def test_values_csv_roundtrip_property(design, decimal):
    handle = io.StringIO()
    write_values_csv(handle, design, decimal)
    loaded = parse_values_csv(io.StringIO(handle.getvalue()))
    assert loaded.vertices == design.vertices
    if decimal is None:
        assert loaded == design
    else:
        scale = 10**decimal
        assert loaded.values == tuple(Fraction(round(x * scale), scale) for x in design.values)


@settings(max_examples=200, deadline=None)
@given(st.integers(-(10**9), 10**9), st.integers(0, 8), st.sampled_from([-1, 0, 1]))
def test_format_value_rounds_half_to_even_at_the_boundary(j, decimal, nudge):
    # exactly halfway between two decimal steps, or just to either side of it
    scale = 10**decimal
    x = Fraction(2 * j + 1, 2 * scale) + Fraction(nudge, scale * 10**9)
    text = format_value(x, decimal)
    expected = round(x * scale)
    assert Fraction(text) == Fraction(expected, scale)
    assert len(text.partition(".")[2]) == decimal
    if nudge == 0:
        assert expected % 2 == 0
    else:
        assert expected == (j + 1 if nudge > 0 else j)
