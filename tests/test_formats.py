import io
import time
from fractions import Fraction

import numpy as np
import pytest
import reference_formats as reference
from hypothesis import given, settings
from hypothesis import strategies as st

from boxapprox import core, formats
from boxapprox.approx import Design, complete_from_ball
from boxapprox.core import MultilinearPolynomial, Vertex, reduce_multilinear
from boxapprox.designs import hamming_ball
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
    for module in (core, formats):
        monkeypatch.setattr(module, "Fraction", lambda *a: built.append(a))
    for text in ("1e4300", "12e4299", "-1E+4300", "1e-4300", "0." + "0" * 4299 + "1",
                 "1" * 4301, "1e4000000", "1e999999999", "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="more than 4300 digits"):
            parse_value(text)
    assert built == []
    with pytest.raises(FormatError) as info:
        parse_values_csv(io.StringIO("vertex,value\n000,1\n001,1e4000000\n"))
    assert info.value.line == 3


# every door that takes a value from outside, each reading x as its one value
VALUE_DOORS = {
    "Design": lambda x: Design(2, (Vertex(2, 0),), [x]).values[0],
    "with_values": lambda x: hamming_ball(2, 0).with_values([x]).values[0],
    "complete_from_ball": lambda x: complete_from_ball({Vertex(2, 0): x}, 2, 0)[Vertex(2, 3)],
    "MultilinearPolynomial": lambda x: MultilinearPolynomial(2, {0: x}).terms[0],
    "reduce_multilinear": lambda x: reduce_multilinear([((0, 0), x)], 2).terms[0],
}


@pytest.mark.parametrize("door", [*VALUE_DOORS, "parse_value"])
def test_every_value_door_refuses_a_literal_past_the_cap_at_once(door):
    # one capped parser reads every literal, refusing from the text alone;
    # Fraction("1e10000000") takes seconds and a numerator of 3.3e7 bits
    read = VALUE_DOORS.get(door, parse_value)
    for text in ("1e5000", "1" * 4301, "1e10000000"):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="more than 4300 digits"):
            read(text)
        assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("door", VALUE_DOORS)
def test_every_value_door_reads_values_as_before(door):
    read = VALUE_DOORS[door]
    cases = [
        ("1e400", Fraction(10**400)),
        ("-2.5E-1", Fraction(-1, 4)),
        (" 3/12 ", Fraction(1, 4)),
        (Fraction(1, 3), Fraction(1, 3)),
        (7, Fraction(7)),
        (np.int64(7), Fraction(7)),
    ]
    for x, want in cases:
        got = read(x)
        assert got == want and type(got) is Fraction
        assert type(got.numerator) is int and type(got.denominator) is int


def test_design_scales_numpy_integers_as_python_ints():
    # a numpy integer's numerator must not meet int64 arithmetic on the
    # common scale, where 2^62 beside a 1/3 wraps to -2^62 / 3
    values = [np.int64(2**62), Fraction(1, 3)]
    design = Design(1, (Vertex(1, 0), Vertex(1, 1)), values)
    assert design.values == (Fraction(2**62), Fraction(1, 3))
    assert [type(a) for a in design.numerators] == [int, int]


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


def test_reader_scale_is_the_lcm_of_the_reduced_denominators():
    design = parse_values_csv(io.StringIO("vertex,value\n00,0.50\n01,2/4\n10,-3/6\n11,1.25e1\n"))
    assert (design.numerators, design.scale) == ((1, 1, -1, 25), 2)
    assert design == Design.from_bitstrings(["00", "01", "10", "11"], ["1/2", "1/2", "-1/2", "25/2"])
    design = parse_values_csv(io.StringIO("vertex,value\n00,4\n01,-0.0\n10,6/3\n"))
    assert (design.numerators, design.scale) == ((4, 0, 2), 1)


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
    with pytest.raises(ValueError, match="nonnegative"):
        write_values_csv(io.StringIO(), design.with_values([1, "1/3"]), -1)


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


def reference_parse_value(text):
    """`parse_value` as it was before the reader split literals into integers:
    the digit cap read from the text, then Fraction of the stripped text."""
    mantissa, _, exponent = text.strip().lower().partition("e")
    exponent = exponent.lstrip("+-").lstrip("0")[:5]
    digits = sum(map(str.isdecimal, mantissa)) + (int(exponent) if exponent.isdecimal() else 0)
    if digits > MAX_DIGITS:
        raise ValueError(f"value literal needs more than {MAX_DIGITS} digits")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse {text!r} as an exact value: {exc}") from None


def outcome(parse, text):
    """The value parse returns for text, or the text of the ValueError it raises."""
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


def read_literal(text):
    """The table reader on one literal at line 3, after a first row at line 2."""
    design = parse_values_csv(io.StringIO(f"vertex,value\n00,1\n01,{text}\n"))
    return design.values[1]


def assert_read_as_before(text):
    # the reader accepts exactly what Fraction(text.strip()) accepts, as the
    # same value, and refuses the rest with the old parse_value's text
    want = outcome(reference_parse_value, text)
    assert outcome(parse_value, text) == want
    got = outcome(read_literal, text)
    if isinstance(want, Fraction):
        assert got == want == Fraction(text.strip())
    else:
        assert got == f"line 3: {want}"


# Characters of value literals, the CSV delimiters and quotes left out:
# ASCII and non-ASCII decimal digits, signs, underscores, the slash, the
# point, exponents, whitespace and a few letters Fraction refuses.
literal_text = st.one_of(
    st.text(alphabet="0123456789٣５_+-/.eE \t xj", max_size=12),
    st.builds(
        lambda sign, whole, point, frac, tail: f"{sign}{whole}{point}{frac}{tail}",
        st.sampled_from(["", "+", "-", " ", " -"]),
        st.sampled_from(["", "0", "7", "12", "1_000", "٣", "00", "1_", "_1"]),
        st.sampled_from(["", ".", "/", " /", "/ ", "//", ".."]),
        st.sampled_from(["", "0", "4", "25", "5_0", "_5", "5_", "٣", "0x1"]),
        st.sampled_from(["", " ", "e3", "E-2", "e+1_0", "e", "/2", ".5"]),
    ),
    st.fractions().map(lambda x: f"{x.numerator}/{x.denominator}"),
    st.decimals(allow_nan=False, allow_infinity=False, places=4).map(str),
)


@settings(max_examples=600, deadline=None)
@given(literal_text)
def test_reader_splits_literals_as_fraction_reads_them(text):
    assert_read_as_before(text)


def test_reader_literal_language_and_refusals():
    accepted = ["1_000", "٣/4", "+3", "-0", ".5", "5.", "1e3", " 7 ", "\t-2/4 ", "-.5",
                "0.125", "1_0.2_5", "+1_0/2_0", "3.0e-2"]
    for text in accepted:
        assert isinstance(outcome(read_literal, text), Fraction), text
        assert_read_as_before(text)
    assert read_literal("٣/4") == Fraction(3, 4)
    assert read_literal(" 1_000 ") == 1000 and read_literal("-0") == 0
    for text in ["3 /4", "1/0", "0x10", "", " ", ".", "+", "1_", "1__0", "1_.5", "1._5",
                 "1_/2", "3/_4", "3/-4", "1.5/2", "1/2e3", "nan", "inf", "1.dd"]:
        assert_read_as_before(text)
        with pytest.raises(FormatError) as info:
            read_literal(text)
        assert info.value.line == 3
    with pytest.raises(FormatError, match=r"^line 3: cannot parse '3 /4' as an exact value: "):
        read_literal("3 /4")


def test_reader_keeps_the_4300_digit_boundary():
    # digits counted as before: mantissa digits, both sides of a slash,
    # plus |exponent|; 4300 are accepted and 4301 refused on every path
    cases = [
        ("1" * 4300, "1" * 4301),
        ("1" * 2150 + "/" + "3" * 2150, "1" * 2150 + "/" + "3" * 2151),
        ("-0." + "0" * 4298 + "1", "-0." + "0" * 4299 + "1"),
        ("1" * 4299 + "e1", "1" * 4300 + "e1"),
        ("1e4299", "1e-4300"),
        (" " * 10 + "7" * 4300, "+" + "7" * 4301),
    ]
    for ok, refused in cases:
        assert_read_as_before(ok)
        assert_read_as_before(refused)
        assert read_literal(ok) == Fraction(ok.strip())
        with pytest.raises(FormatError, match=r"^line 3: value literal needs more than 4300 digits$"):
            read_literal(refused)


def reader_outcome(parse, text):
    """What a reader makes of the text: its design, or its error's type, text and line."""
    try:
        design = parse(io.StringIO(text, newline=""))
    except ValueError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    return design, design.size, design.numerators, design.scale, list(design.vertices)


# Bitstring and value fields with every way a row can fail or pass: quoted,
# padded, empty, over the 64-character cap, of other lengths, and repeated
BITSTRINGS = ["0", "1", "01", "10", "011", "110", " 101 ", '"011"', '" 01"', "", "0a1", "0 1",
              "0" * 64, "1" * 65, "0" * 65]
VALUES = ["1", "-3/4", " 0.5 ", "1e2", '"7"', "+2", "x", "1/0", "", "1" * 4301]


@st.composite
def values_files(draw):
    bits = st.one_of(st.sampled_from(BITSTRINGS), st.text("01", min_size=1, max_size=4))
    value = st.sampled_from(VALUES)
    row = st.one_of(
        st.builds("{},{}".format, bits, value),
        bits,
        st.builds("{},{},{}".format, bits, value, value),
        st.sampled_from(["", "   ", "# note", "  # indented", ",", '"#x",1']),
    )
    header = draw(st.sampled_from(["vertex,value", " Vertex , VALUE ", "vertex,value,x", "# c", ""]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join([header, *draw(st.lists(row, max_size=8))]) + newline


@settings(max_examples=400, deadline=None)
@given(values_files())
def test_values_reader_equals_the_vertex_per_row_reader(text):
    assert reader_outcome(parse_values_csv, text) == reader_outcome(reference.parse_values_csv, text)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([*BITSTRINGS, "# note", "  # x", "   ", "\t011"]), max_size=8),
       st.sampled_from(["\n", "\r\n"]))
def test_design_reader_equals_the_vertex_per_row_reader(lines, newline):
    text = "".join(line + newline for line in lines)
    assert reader_outcome(parse_design_lines, text) == reader_outcome(reference.parse_design_lines, text)


@pytest.mark.parametrize(
    "text",
    [
        'vertex,value\r\n"010","1/2"\r\n" 100 ",3\r\n',  # quoted fields, CRLF, padding
        "# made by hand\n\nvertex,value\n\n# ball\n00,1\n  \n01,2\n",  # comments and blanks
        "vertex,value\n" + "0" * 65 + ",1\n",  # past the dimension cap
        "vertex,value\n000,1\n01,2\n",  # mixed lengths
        "vertex,value\n000,1\n100,2\n000,3\n",  # duplicate
        "vertex,value\n000,1\n100\n",  # one column
        "vertex,value\n000,1\n100,2,3\n",  # three columns
        "vertex,value\n000,x\n0a0,1\n",  # a value error before a bitstring error
        "vertex,value\n000,1\n0a0,x\n",  # both on one row: the bitstring first
        "vertex,value\n0a0,1\n000,1,2\n",  # a bitstring error before a column count
    ],
)
def test_readers_equal_the_vertex_per_row_reader_on_each_named_input(text):
    assert reader_outcome(parse_values_csv, text) == reader_outcome(reference.parse_values_csv, text)
    lines = text.replace(",", "")
    assert reader_outcome(parse_design_lines, lines) == reader_outcome(reference.parse_design_lines, lines)


def test_writers_split_tables_into_chunks_without_changing_a_byte(monkeypatch):
    # the header once, then every row, whatever the chunk size
    design = hamming_ball(5, 2).with_values([Fraction(i - 7, 3) for i in range(16)])
    whole = [io.StringIO(), io.StringIO()]
    write_design_file(whole[0], design)
    write_values_csv(whole[1], design, 2)
    monkeypatch.setattr(formats, "_CHUNK", 3)
    split = [io.StringIO(), io.StringIO()]
    write_design_file(split[0], design)
    write_values_csv(split[1], design, 2)
    assert [h.getvalue() for h in split] == [h.getvalue() for h in whole]
    assert whole[1].getvalue().count("vertex,value") == 1
    assert parse_design_lines(io.StringIO(split[0].getvalue())) == Design(5, design.vertices)
