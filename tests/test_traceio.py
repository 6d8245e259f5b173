"""Trace file handling and the seeded synthetic generator."""

import hashlib
import io
import math
import re
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from jitterfit import (
    InsufficientDataError,
    JitterTrace,
    LabeledTrace,
    ModelParams,
    NonConvergenceError,
    ParameterDomainError,
    RegimeSpec,
    TraceFormatError,
    emit_indicator_csv,
    generate_synthetic,
    ingest_trace,
    write_trace,
)
from jitterfit import traceio

from conftest import assert_built_as_checked


# ---------------------------------------------------------------- ingestion


def test_ingest_basic_with_comments_and_crlf(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_bytes(b"# jitter capture\n\n0.5\n1.25e-3\r\n2\n   \n")
    trace = ingest_trace(path)
    assert trace.samples.tolist() == [0.5, 0.00125, 2.0]
    assert trace.source == str(path)


def test_ingest_parse_error_names_line(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("0.5\nbogus\n1.0\n")
    with pytest.raises(TraceFormatError) as excinfo:
        ingest_trace(path)
    assert excinfo.value.line_number == 2
    assert "line 2" in str(excinfo.value)


def test_ingest_rejects_nonpositive_without_offset(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("-0.002\n0.008\n")
    with pytest.raises(TraceFormatError) as excinfo:
        ingest_trace(path)
    assert excinfo.value.line_number == 1
    assert "line 1" in str(excinfo.value)


def test_ingest_rejects_non_finite(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("1.0\ninf\n")
    with pytest.raises(TraceFormatError) as excinfo:
        ingest_trace(path)
    assert excinfo.value.line_number == 2


def test_ingest_offset_shift(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("-0.002\n0.008\n")
    trace = ingest_trace(path, offset=True)
    # eps is 1e-6 of the 0.01 range
    eps = 1e-6 * (0.008 - (-0.002))
    assert trace.samples[0] == pytest.approx(eps, rel=1e-12)
    assert trace.samples[1] == pytest.approx(0.01 + eps, rel=1e-12)
    assert np.all(trace.samples > 0.0)
    assert "offset" in trace.source


def test_ingest_offset_constant_trace(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("5.0\n5.0\n5.0\n")
    trace = ingest_trace(path, offset=True)
    assert np.allclose(trace.samples, 1e-9)


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("# nothing here\n\n")
    with pytest.raises(TraceFormatError, match="empty trace"):
        ingest_trace(path)


def test_ingest_rejects_non_utf8_text(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_bytes(b"1.5\n\xff\xfe2\n")
    with pytest.raises(TraceFormatError, match="not UTF-8 text"):
        ingest_trace(path)


def test_ingest_rejects_non_utf8_text_past_the_first_chunk(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_bytes(b"1.5\n" * 50000 + b"2\xc3\n")
    with pytest.raises(TraceFormatError, match="not UTF-8 text"):
        ingest_trace(path)


# ------------------------------------------------ ingestion parity with loop
#
# ingest_trace parses whole chunks of lines at once and falls back to a line
# loop on a chunk that needs it.  _oracle_ingest is that loop applied to the
# whole file, as ingest_trace was written before chunking: every input must
# give the same samples and source, or the same error.


def _oracle_ingest(path, *, offset=False):
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                value = float(line)
            except ValueError:
                raise TraceFormatError(
                    f"line {lineno}: cannot parse {line!r} as a decimal sample",
                    line_number=lineno,
                ) from None
            if not math.isfinite(value):
                raise TraceFormatError(
                    f"line {lineno}: sample must be finite, got {line!r}",
                    line_number=lineno,
                )
            if not offset and value <= 0.0:
                raise TraceFormatError(
                    f"line {lineno}: non-positive sample {value!r}; "
                    "pass offset=True (CLI: --offset) to shift the trace",
                    line_number=lineno,
                )
            values.append(value)
    if not values:
        raise TraceFormatError("empty trace: file holds no samples")
    arr = np.array(values, dtype=np.float64)
    source = str(path)
    if offset:
        vmin = float(arr.min())
        vmax = float(arr.max())
        eps = 1e-6 * (vmax - vmin) if vmax > vmin else 1e-9
        if not (eps > 0.0 and math.isfinite(vmax - vmin + eps)):
            raise TraceFormatError(
                f"cannot offset a trace spanning {vmin!r} to {vmax!r} into the "
                "positive doubles; rescale the trace"
            )
        arr = arr - vmin + eps
        source = f"{source} (offset {eps - vmin:.17g})"
    return JitterTrace(arr, source=source)


def _outcome(ingest, path, offset):
    try:
        trace = ingest(path, offset=offset)
    except TraceFormatError as exc:
        return "error", str(exc), exc.line_number
    return "trace", trace.samples.tobytes(), trace.source


def _assert_ingest_parity(path, data: bytes, offset: bool):
    path.write_bytes(data)
    expected = _outcome(_oracle_ingest, path, offset)
    assert _outcome(ingest_trace, path, offset) == expected
    return expected


@pytest.mark.parametrize("offset", [False, True])
@pytest.mark.parametrize(
    "data",
    [
        b"# capture\n\n0.5\n  \n# more\n1.25e-3\n",
        b"0.5\r\n1.5\r\n\r\n2.5\r\n",
        b"0.5\r1.5\r2.5\r",
        b"0.5\n1.5\r\n2.5\r3.5",
        b"1,5\n",
        b"1.5#c\n",
        b"1.5 2.5\n",
        b"1_000\n2_5.0_1\n",
        "\u0661\u0662.\u0665\n\u0663\n".encode(),
        b"1.5\x0c\n\x0c2.5\n",
        b"1.5\x1c\n2.5\n",
        b"1.5\x0b2.5\n",
        "\ufeff1.5\n2.5\n".encode(),
        "\ufeff# header\n1.5\n".encode(),
        b"1.5\n2.5",
        b"\t 1.5 \t\n",
        "\u2003 1.5\u3000\n1.5\x85\n".encode(),
        b"1.5\nnan\n",
        b"1.5\n-inf\n",
        b"1.5\n0\n2\n",
        b"1.5\n-0.0\n",
        b"-2\n-1\n",
        b"1e400\n",
        b"4.9e-325\n",
        b"+1.5\n.5\n5.\n1E3\n",
        b"",
        b"\n\n# only comments\n",
        b"0.5\r\n1.5\r\nbogus\r\n",
        b"0.5\r\n1.5\r\r\n2.5\r\n",
        b"1.5\r\n2.5",
        b"1.5\r",
        b"1.5\n\r2.5\n",
    ],
)
def test_ingest_matches_line_loop(tmp_path, data, offset):
    _assert_ingest_parity(tmp_path / "trace.txt", data, offset)


@pytest.mark.parametrize(
    "data",
    [
        # The shifted maximum passes the largest double.
        b"0\n1.7976931348623157e+308\n",
        # The range itself passes the largest double.
        b"-1e308\n1e308\n",
        # eps, 1e-6 of a subnormal range, rounds to 0.
        b"0\n5e-324\n",
    ],
)
def test_offset_outside_the_positive_doubles_is_a_trace_format_error(tmp_path, data):
    path = tmp_path / "trace.txt"
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TraceFormatError, match="cannot offset a trace spanning"):
            ingest_trace(path, offset=True)
    _assert_ingest_parity(path, data, True)


def _first_chunk_lines(path) -> int:
    with open(path, "r", encoding="utf-8") as fh:
        return len(fh.readlines(traceio._READ_CHARS))


@pytest.mark.parametrize("offset", [False, True])
@pytest.mark.parametrize("bad", ["nan", "inf", "0", "-1.5", "bogus", "# note", ""])
def test_ingest_matches_line_loop_at_a_chunk_boundary(tmp_path, bad, offset):
    path = tmp_path / "trace.txt"
    lines = [f"{0.001 * (k % 997 + 1):.17g}" for k in range(20000)]
    path.write_text("\n".join(lines) + "\n")
    boundary = _first_chunk_lines(path)
    assert boundary < len(lines)
    outcomes = set()
    for where in (boundary - 2, boundary - 1, boundary, boundary + 1, len(lines) - 1):
        edited = lines.copy()
        edited[where] = bad
        data = ("\n".join(edited) + "\n").encode()
        kind, _, line_number = _assert_ingest_parity(path, data, offset)
        outcomes.add((kind, line_number == where + 1))
    if bad in ("# note", "") or (offset and bad in ("0", "-1.5")):
        assert outcomes == {("trace", False)}
    else:
        assert outcomes == {("error", True)}


_LINES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(1e-300, 1e300).map(lambda v: f"{v:.17g}"),
    st.integers(-3, 1000).map(str),
    st.sampled_from(
        ["", " ", "#", "# c", "nan", "-inf", "1,5", "1.5#c", "1.5 2.5", "1_000",
         "\u0662", " 1.5\t", "1.5\x0c", "\x1c2", "\ufeff1", "1e999", "-0", "x"]
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(_LINES, max_size=40),
    ends=st.lists(st.sampled_from(["\n", "\r\n", "\r", "\r\r\n"]), min_size=1),
    final_newline=st.booleans(),
    read_chars=st.sampled_from([1, 4, 16, 1 << 16]),
    offset=st.booleans(),
)
def test_ingest_matches_line_loop_on_random_lines(
    tmp_path_factory, lines, ends, final_newline, read_chars, offset
):
    text = "".join(line + ends[k % len(ends)] for k, line in enumerate(lines))
    if lines and not final_newline:
        text = text[: -len(ends[(len(lines) - 1) % len(ends)])]
    path = tmp_path_factory.mktemp("ingest") / "trace.txt"
    saved = traceio._READ_CHARS
    traceio._READ_CHARS = read_chars
    try:
        _assert_ingest_parity(path, text.encode(), offset)
    finally:
        traceio._READ_CHARS = saved


# ------------------------------------------------ the plain-decimal reader
#
# A chunk of plain lines, digits[.digits][e[+-]digits], is converted in numpy
# by _parse_plain.  Each of these inputs is plain, with LF or CRLF line ends,
# so _parse_plain must take it, and every value must equal float() of its
# line bit for bit.


def _assert_plain_reads_as_float(lines):
    expected = np.array([float(line) for line in lines])
    for end in ("\n", "\r\n"):
        values = traceio._parse_plain((end.join(lines) + end).encode())
        assert values is not None
        mismatched = np.flatnonzero(values.view(np.uint64) != expected.view(np.uint64))
        assert [lines[k] for k in mismatched[:5]] == []


_POSITIVE_DOUBLES = st.integers(1, 0x7FEFFFFFFFFFFFFF).map(
    lambda bits: float(np.int64(bits).view(np.float64))
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(_POSITIVE_DOUBLES, st.integers(0, 17)).map(
            lambda pair: repr(pair[0]) if pair[1] == 0 else "%.*g" % (pair[1], pair[0])
        ),
        min_size=1,
        max_size=50,
    )
)
def test_plain_reader_matches_float_on_printed_doubles(lines):
    # %.1g of the largest doubles prints a value past them, which float()
    # reads as inf; the reader must give inf too.
    _assert_plain_reads_as_float(lines)


def _near_midpoints(doubles, digits) -> list[str]:
    """Decimals of ``digits`` digits within one last-digit step of the
    midpoint above each double, the midpoint itself when it has that many
    digits, in the fixed and the scientific form."""
    lines = []
    for x in doubles:
        mid = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
        exp10 = math.floor(math.log10(mid)) - digits + 1
        scaled = mid / Fraction(10) ** exp10
        floor = scaled.numerator // scaled.denominator
        for d in range(floor - 1, floor + 3):
            lines.append(f"{d}e{exp10}")
            if -digits < exp10 < 0:
                text = str(d)
                lines.append(f"{text[:exp10]}.{text[exp10:]}")
    return lines


@pytest.mark.parametrize("digits", [17, 18, 19])
def test_plain_reader_matches_float_next_to_midpoints(digits):
    rng = np.random.default_rng(digits)
    doubles = np.exp(rng.uniform(math.log(1e-280), math.log(1e280), 1500))
    _assert_plain_reads_as_float(_near_midpoints(doubles.tolist(), digits))


@pytest.mark.parametrize("places", [1, 2])
def test_plain_reader_rounds_exact_midpoints_to_even(places):
    # The midpoints between the doubles in [2**(53 - places), 2**(54 - places))
    # are exact decimals with ``places`` fraction digits: 17 or 18 digits in
    # all.  float() rounds them to even.  The double-double product of such a
    # decimal lands just off the midpoint, on either side; without the
    # midpoint guard about 0.3% of the 18-digit ones round the wrong way.
    m = np.random.default_rng(places).integers(2**52, 2**53, 20000)
    decimals = ((2 * m + 1) * 5**places).tolist()
    lines = []
    for d in decimals:
        text = str(d)
        lines.append(f"{text[:-places]}.{text[-places:]}")
        lines += [f"{d + step}e-{places}" for step in (-1, 0, 1)]
    _assert_plain_reads_as_float(lines)


def test_plain_reader_matches_float_on_powers_of_two():
    powers = [2.0**k for k in range(-1074, 1024)]
    lines = [str(2**53 + step) for step in (-2, -1, 0, 1, 2)]
    lines += ["9007199254740993e0", "900719925474099.3e1", "0.9007199254740993e16"]
    lines += [repr(v) for v in powers] + ["%.17g" % v for v in powers]
    _assert_plain_reads_as_float(lines)


def test_plain_reader_takes_exponents_of_one_to_four_digits():
    lines = ["1e5", "1.5e-7", "2e+3", "1.25e-300", "3e+123", "9.5e099", "1e-0300",
             "1.5e0010", "4.9e-0324", "1e-0005", "6e+0022", "1.7976931348623157e+308"]
    _assert_plain_reads_as_float(lines)


def _lines_at_the_table_ends() -> list[str]:
    """Plain decimals ``D * 10**e10`` with ``e10`` = -290 or +290, the first
    and the last power of ten the reader takes from the shared table.  A
    value above 1e290 goes to float() on its own, so at +290 only the
    spellings of 1e290 itself are converted in numpy."""
    rng = np.random.default_rng(290)
    lines = [f"{d}e-290" for d in rng.integers(1, 10**18, 300).tolist()]
    lines += [f"{d // 10**6}.{d % 10**6:06d}e-284" for d in rng.integers(1, 10**18, 300).tolist()]
    return lines + ["1e290", "0.1e291", "0.0001e294", "001e290", "1e-290"]


def test_plain_reader_matches_float_at_both_ends_of_the_power_table(tmp_path, monkeypatch):
    # ndarray.take wraps a negative row without an error, so a table one row
    # short at its low end would scale by its last row.  The value would then
    # fall outside [1e-290, 1e290] and go to float() on its own, which hides
    # the fault; so here no line may take that route.
    def fallback(text):
        raise AssertionError(f"{text!r} went to float()")

    monkeypatch.setattr(traceio, "float", fallback, raising=False)
    lines = _lines_at_the_table_ends()
    _assert_plain_reads_as_float(lines)
    path = tmp_path / "trace.txt"
    path.write_text("\n".join(lines) + "\n")
    expected = np.array([float(line) for line in lines])
    assert ingest_trace(path).samples.tobytes() == expected.tobytes()


def test_power_table_rows_are_the_correctly_rounded_double_doubles():
    # Row m + _E10_LIMIT holds 10**m rounded and the rest rounded, for every
    # power the reader (|m| <= 290) and the trace writer (16 - k for
    # |k| <= 280) take.
    table = traceio._POW10
    powers = range(-traceio._E10_LIMIT, 17 + traceio._K_LIMIT)
    assert table.shape == (len(powers), 2) == (587, 2)
    for row, m in zip(table.tolist(), powers):
        exact = Fraction(10) ** m
        hi = float(exact)
        assert row == [hi, float(exact - Fraction(hi))], m


@pytest.mark.parametrize(
    "lines",
    [
        ["0.000123456789012345678", "12345678901234567890123", "1234567890.123456789012"],
        ["0.0001234567890123456789", "123456789012345678901234", "1.0000000000000000000001"],
        ["0.00012345678901234567891", "1.5"],
    ],
    ids=["23-bytes", "24-bytes", "25-bytes"],
)
def test_ingest_reads_long_lines_as_float(tmp_path, lines):
    path = tmp_path / "trace.txt"
    path.write_text("\n".join(lines) + "\n")
    expected = np.array([float(line) for line in lines])
    assert ingest_trace(path).samples.tobytes() == expected.tobytes()
    _assert_ingest_parity(path, path.read_bytes(), False)


@pytest.mark.parametrize("offset", [False, True])
@pytest.mark.parametrize("zero", ["0", "0.000", "0e5", "000.0e-3"])
def test_ingest_rejects_a_plain_zero_naming_its_line(tmp_path, zero, offset):
    path = tmp_path / "trace.txt"
    data = f"0.5\n{zero}\n1.5\n".encode()
    kind, message, line_number = _assert_ingest_parity(path, data, offset)
    if offset:
        assert kind == "trace"
    else:
        assert (kind, line_number) == ("error", 2)
        assert message.startswith("line 2: non-positive sample 0.0;")


@pytest.mark.parametrize("offset", [False, True])
@pytest.mark.parametrize(
    "bad", ["bogus", "0.000", "1e9999", "-1.5", "", "# c", "1..5", "e5", "1e+", "1.5 ", "."]
)
def test_ingest_matches_line_loop_next_to_a_byte_chunk_cut(tmp_path, bad, offset):
    path = tmp_path / "trace.txt"
    lines = [f"{0.001 * (k % 997 + 1):.17g}" for k in range(traceio._READ_CHARS // 8)]
    data = ("\n".join(lines) + "\n").encode()
    # The first chunk ends after the last newline in its first _READ_CHARS bytes.
    first_of_second = data[: traceio._READ_CHARS].count(b"\n")
    assert 0 < first_of_second < len(lines) - 1
    for where in (first_of_second - 1, first_of_second):
        edited = lines.copy()
        edited[where] = bad
        kind, _, line_number = _assert_ingest_parity(
            path, ("\n".join(edited) + "\n").encode(), offset
        )
        if kind == "error":
            assert line_number == where + 1


@pytest.mark.parametrize("end", [b"\n", b"\r\n"], ids=["lf", "crlf"])
def test_ingest_trace_peak_memory_is_bounded(tmp_path, end):
    # The reader parses a chunk of bytes at a time, and the trace takes its
    # sample array without a copy.  So the peak is that array while it
    # doubles, old and new buffer at once, and not the 20 MB file or its
    # lines.
    path = tmp_path / "trace.txt"
    write_trace(JitterTrace(np.random.default_rng(4).exponential(0.5, 1_000_000)), path)
    path.write_bytes(path.read_bytes().replace(b"\n", end))
    tracemalloc.start()
    try:
        ingest_trace(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20


def test_write_then_ingest_round_trips_exactly(tmp_path):
    rng = np.random.default_rng(41)
    values = np.concatenate(
        [
            rng.uniform(1e-9, 1e3, 500),
            np.array([1e-300, 1e300, math.pi, 2.0 / 3.0]),
        ]
    )
    trace = JitterTrace(values)
    path = tmp_path / "out.txt"
    write_trace(trace, path)
    back = ingest_trace(path)
    assert np.array_equal(back.samples, trace.samples)


def test_write_uses_lf_endings(tmp_path):
    path = tmp_path / "out.txt"
    write_trace(JitterTrace(np.array([1.0, 2.0])), path)
    assert b"\r" not in path.read_bytes()


_FORMAT_EDGES = [
    5e-324,
    1e-323,
    2.225073858507201e-308,
    2.2250738585072014e-308,
    sys.float_info.max,
    1e308,
    0.1,
    1.0 / 3.0,
    0.30000000000000004,
    4.35,
    9007199254740993.0,
    1e23,
    9.999999999999999e22,
    5e-324 * 3,
    123456789012345678.0,
    0.000123456789012345678,
]


def _expected_trace_bytes(values) -> bytes:
    return "".join(f"{v:.17g}\n" for v in values).encode()


def test_write_trace_matches_per_sample_format_on_edge_values(tmp_path):
    path = tmp_path / "out.txt"
    write_trace(JitterTrace(np.array(_FORMAT_EDGES)), path)
    assert path.read_bytes() == _expected_trace_bytes(_FORMAT_EDGES)


@pytest.mark.parametrize("size", [65535, 65536, 65537, 200001])
def test_write_trace_matches_per_sample_format_across_chunks(tmp_path, size):
    rng = np.random.default_rng(size)
    values = np.exp(rng.uniform(-700.0, 700.0, size))
    path = tmp_path / "out.txt"
    write_trace(JitterTrace(values), path)
    assert path.read_bytes() == _expected_trace_bytes(values)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=50,
    )
)
def test_write_trace_matches_per_sample_format_on_any_double(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("write") / "out.txt"
    write_trace(JitterTrace(np.array(values)), path)
    assert path.read_bytes() == _expected_trace_bytes(values)


def _powers_of_ten_and_neighbours() -> np.ndarray:
    powers = np.array([float(f"1e{m}") for m in range(-323, 309)])
    return np.concatenate(
        [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]
    )


def _dyadic_values() -> np.ndarray:
    # m * 2**j with a 51- to 53-bit m: many of these sit exactly on a tie
    # of the 17-digit rounding, or within 2**-40 of one.
    rng = np.random.default_rng(19)
    m = rng.integers(2**50, 2**53, 100_000).astype(np.float64)
    return np.ldexp(m, rng.integers(-60, 11, m.size))


def _format_switch_points() -> np.ndarray:
    # %g turns to the scientific form below 1e-4 and from 1e17 up; 1e17 and
    # the doubles next to 1e-4 and 1e17 straddle the switch.
    steps = np.arange(-500, 501) * 2.0**-52
    centres = np.array([1e-5, 1e-4, 1e-3, 1e15, 1e16, 1e17, 1e18])
    return (centres[:, None] * (1.0 + steps)).ravel()


def _random_bit_patterns() -> np.ndarray:
    rng = np.random.default_rng(1919)
    return rng.integers(1, 0x7FF0000000000000, 100_000, dtype=np.int64).view(np.float64)


def _subnormals() -> np.ndarray:
    rng = np.random.default_rng(2020)
    bits = np.concatenate([np.arange(1, 1001), rng.integers(1, 2**52, 10_000)])
    return bits.astype(np.int64).view(np.float64)


@pytest.mark.parametrize(
    "values",
    [
        _powers_of_ten_and_neighbours,
        _dyadic_values,
        _format_switch_points,
        _random_bit_patterns,
        _subnormals,
    ],
    ids=["powers-of-ten", "dyadic", "format-switch", "random-bits", "subnormals"],
)
def test_write_trace_matches_per_sample_format_on_hard_values(tmp_path, values):
    samples = values()
    path = tmp_path / "out.txt"
    write_trace(JitterTrace(samples), path)
    assert path.read_bytes() == _expected_trace_bytes(samples)


@pytest.mark.parametrize("k", [-280, 280])
def test_write_trace_matches_per_sample_format_at_both_ends_of_the_power_table(tmp_path, k):
    # Samples in [10**k, 10**(k + 1)) are scaled by 10**(16 - k): at k = -280
    # by the last row of the shared table, at k = 280 by the first row the
    # writer takes.
    samples = 10.0 ** (k + np.random.default_rng(k + 1000).uniform(0.0, 1.0, 2000))
    assert (np.floor(np.log10(samples)) == k).mean() > 0.99
    path = tmp_path / "out.txt"
    write_trace(JitterTrace(samples), path)
    assert path.read_bytes() == _expected_trace_bytes(samples)


@pytest.mark.parametrize("toward", [-np.inf, np.inf], ids=["low", "high"])
def test_write_trace_is_exact_when_log10_is_one_ulp_off(tmp_path, monkeypatch, toward):
    # The writer takes each sample's decimal exponent from np.log10, which
    # may be an ulp off on some platforms.  Near a power of ten that puts the
    # exponent one off; the writer must notice and format such a sample by %.
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: np.nextafter(log10(x), toward))
    samples = _powers_of_ten_and_neighbours()
    path = tmp_path / "out.txt"
    write_trace(JitterTrace(samples), path)
    assert path.read_bytes() == _expected_trace_bytes(samples)


def test_write_trace_peak_memory_is_bounded(tmp_path):
    # The writer works a chunk at a time, so its peak stays far below the
    # 8 MB of the trace and the 20 MB of the file.
    trace = JitterTrace(np.random.default_rng(3).exponential(0.5, 1_000_000))
    path = tmp_path / "out.txt"
    tracemalloc.start()
    try:
        write_trace(trace, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


@pytest.mark.parametrize(
    "labels",
    [
        np.full(2 * traceio._WRITE_LINES + 3, 7),
        np.arange(1001) % 2,
        np.arange(13),
        np.array([0]),
    ],
    ids=["one-run-across-chunks", "alternating", "zero-to-twelve", "single"],
)
def test_write_labels_matches_per_label_format(tmp_path, labels):
    path = tmp_path / "labels.txt"
    traceio._write_labels(path, labels.astype(np.int64))
    assert path.read_bytes() == "".join(f"{v}\n" for v in labels).encode()


# ----------------------------------------------------------- indicator CSV


_DIGIT_EDGES = [0, 9, 10, 255, 256, 65535, 65536, 2**32 - 1, 2**32, 10**19, 2**64 - 1]


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
def test_digit_loop_matches_str_at_the_edges_of_each_unsigned_type(dtype):
    # The indicator writer gives its row indexes the narrowest unsigned type.
    # No indicator file reaches an index of 2**32, so uint64 is checked here.
    edges = [v for v in _DIGIT_EDGES if v <= np.iinfo(dtype).max]
    values = np.array(edges, dtype=dtype)
    for width in range(1, 21):
        expected = [str(v).zfill(width)[-width:] for v in edges]
        out = np.empty((values.size, width), dtype=np.uint8)
        traceio._put_digits(out, values)
        assert [row.tobytes().decode() for row in out] == expected
        # Along the last axis of a strided view, as the writers call it.
        wide = np.zeros((1, values.size, width + 3), dtype=np.uint8)
        traceio._put_digits(wide[:, :, :width], values[None, :])
        assert [row[:width].tobytes().decode() for row in wide[0]] == expected
        assert not wide[:, :, width:].any()


class _Labels:
    def __init__(self, labels):
        self.labels = np.asarray(labels)


def test_indicator_csv_golden():
    sink = io.StringIO()
    count = emit_indicator_csv(_Labels([0, 1, 0]), sink)
    assert count == 3
    assert sink.getvalue() == "index,z1,z2\n1,1,0\n2,0,1\n3,1,0\n"


def test_indicator_csv_empty_assignment_writes_header_only():
    sink = io.StringIO()
    count = emit_indicator_csv(_Labels([]), sink)
    assert count == 0
    assert sink.getvalue() == "index,z1,z2\n"


def test_indicator_csv_to_path(tmp_path):
    path = tmp_path / "z.csv"
    count = emit_indicator_csv(_Labels([1, 1]), path)
    assert count == 2
    assert path.read_bytes() == b"index,z1,z2\n1,0,1\n2,0,1\n"


def _expected_indicator(labels) -> str:
    rows = ["index,z1,z2\n"]
    for idx, label in enumerate(labels, start=1):
        z1 = 1 if label == 0 else 0
        rows.append(f"{idx},{z1},{1 - z1}\n")
    return "".join(rows)


@pytest.mark.parametrize(
    "size", [0, 1, 9, 10, 99, 100, 65535, 65536, 65537, 1_000_000]
)
def test_indicator_csv_matches_per_row_format(tmp_path, size):
    labels = np.random.default_rng(size).integers(0, 4, size)
    expected = _expected_indicator(labels)
    path = tmp_path / "z.csv"
    assert emit_indicator_csv(_Labels(labels), path) == size
    assert path.read_bytes() == expected.encode()
    sink = io.StringIO()
    assert emit_indicator_csv(_Labels(labels), sink) == size
    assert sink.getvalue() == expected


# -------------------------------------------------------------- JitterTrace


def test_trace_validation():
    with pytest.raises(InsufficientDataError):
        JitterTrace(np.array([]))
    with pytest.raises(ParameterDomainError):
        JitterTrace(np.array([[1.0, 2.0]]))
    with pytest.raises(ParameterDomainError):
        JitterTrace(np.array([1.0, 0.0]))
    with pytest.raises(ParameterDomainError):
        JitterTrace(np.array([1.0, -2.0]))
    with pytest.raises(ParameterDomainError):
        JitterTrace(np.array([1.0, float("nan")]))


def test_trace_checks_its_samples_as_the_fits_do():
    for samples, message in (
        (np.array([[1.0, 2.0]]), "jitter expects a 1-d array of samples"),
        (np.array([1.0, 0.0]), "jitter requires finite positive samples"),
        (np.array([1.0, float("inf")]), "jitter requires finite positive samples"),
    ):
        with pytest.raises(ParameterDomainError) as caught:
            JitterTrace(samples)
        assert str(caught.value) == message


def test_trace_copies_and_freezes_samples():
    source = np.array([1.0, 2.0, 3.0])
    trace = JitterTrace(source)
    source[0] = 99.0
    assert trace.samples[0] == 1.0
    with pytest.raises(ValueError):
        trace.samples[0] = 5.0
    assert len(trace) == 3


# ---------------------------------------------------------------- generator


def test_generate_is_deterministic():
    spec = RegimeSpec(
        segments=(
            (ModelParams.gamma(4.0, 1.0), 300),
            (ModelParams.exponential(1.0), 300),
        ),
        seed=9,
    )
    first = generate_synthetic(spec)
    second = generate_synthetic(spec)
    assert np.array_equal(first.trace.samples, second.trace.samples)
    assert np.array_equal(first.truth_labels, second.truth_labels)
    other = generate_synthetic(
        RegimeSpec(segments=spec.segments, seed=10)
    )
    assert not np.array_equal(first.trace.samples, other.trace.samples)


def test_generate_truth_labels_are_segment_indices():
    spec = RegimeSpec(
        segments=(
            (ModelParams.exponential(1.0), 3),
            (ModelParams.gamma(2.0, 1.0), 4),
        ),
        seed=0,
    )
    labeled = generate_synthetic(spec)
    assert labeled.truth_labels.tolist() == [0, 0, 0, 1, 1, 1, 1]
    assert len(labeled.trace) == 7


def test_generate_exponential_law_of_large_numbers():
    n = 100000
    spec = RegimeSpec(segments=((ModelParams.exponential(2.0), n),), seed=100)
    samples = generate_synthetic(spec).trace.samples
    # mean 1/rate = 0.5, sd 0.5; three standard errors of the sample mean
    assert abs(samples.mean() - 0.5) <= 3 * 0.5 / math.sqrt(n)
    assert samples.min() > 0.0


def test_generate_gamma_moments():
    n = 100000
    spec = RegimeSpec(segments=((ModelParams.gamma(4.0, 1.0), n),), seed=101)
    samples = generate_synthetic(spec).trace.samples
    # mean ab = 4, variance ab^2 = 4, central fourth moment 3a(a+2)b^4 = 72
    assert abs(samples.mean() - 4.0) <= 3 * 2.0 / math.sqrt(n)
    assert abs(samples.var() - 4.0) <= 3 * math.sqrt((72.0 - 16.0) / n)


def test_generate_matches_scipy_distributions():
    exp_samples = generate_synthetic(
        RegimeSpec(segments=((ModelParams.exponential(2.0), 50000),), seed=4)
    ).trace.samples
    assert stats.kstest(exp_samples, "expon", args=(0, 0.5)).pvalue > 0.01
    gamma_samples = generate_synthetic(
        RegimeSpec(segments=((ModelParams.gamma(4.0, 1.0), 50000),), seed=3)
    ).trace.samples
    assert stats.kstest(gamma_samples, "gamma", args=(4, 0, 1)).pvalue > 0.01


def test_generate_gamma_small_shape():
    # shape < 1 exercises the boost branch and piles mass near zero; at 0.5
    # no draw underflows to 0, so the positivity redraw does not run
    spec = RegimeSpec(segments=((ModelParams.gamma(0.5, 2.0), 50000),), seed=5)
    samples = generate_synthetic(spec).trace.samples
    assert samples.min() > 0.0
    assert stats.kstest(samples, "gamma", args=(0.5, 0, 2)).pvalue > 0.01


@pytest.mark.parametrize(
    "shape, scale, seed, digest",
    [
        (0.5, 2.0, 11, "630a18fde9c590bf9132301acb36a847db5b3cbc23850795145b877935744acb"),
        (1.0, 0.5, 12, "5943fab99cbbb30fd14e20e74a0b99c1d553593a67ecca66e0aba24b5514efe6"),
        (4.0, 0.25, 13, "9419085ddc6d8321496d9e7967fae79800e20f6230bd1fa6f0bcd3263dab74ec"),
    ],
    ids=["boost", "shape-1", "shape-4"],
)
def test_generate_gamma_draws_match_their_recorded_digest(shape, scale, seed, digest):
    # The sampler's draws, bit for bit, on each branch: shape 0.5 runs the
    # U**(1/shape) boost.  Like the golden gen digest, these were recorded
    # with numpy's AVX-512 kernels for log and power.
    spec = RegimeSpec(segments=((ModelParams.gamma(shape, scale), 20000),), seed=seed)
    samples = generate_synthetic(spec).trace.samples
    assert hashlib.sha256(samples.tobytes()).hexdigest() == digest


def test_gamma_sampler_peak_memory_is_bounded():
    # A round holds four draw-sized arrays, its normals, its uniforms, the
    # cube and the squeeze bound: 15.3 MiB for 500k draws.  With the 3.8 MiB
    # result and two masks the peak measured 20.0 MiB.
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        traceio._gamma_variates(rng, 2.0, 0.5, 500_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 21 * 2**20


def test_generate_redraws_draws_that_underflow_to_zero(monkeypatch):
    # At shape 0.005 the boost U**200 underflows to 0 now and then: 66 of
    # the first 2000 draws, 2 of their 66 redraws, and none of the last 2.
    sizes = []
    draw = traceio._draw

    def counted(rng, params, n):
        sizes.append(n)
        return draw(rng, params, n)

    monkeypatch.setattr(traceio, "_draw", counted)
    spec = RegimeSpec(segments=((ModelParams.gamma(0.005, 1.0), 2000),), seed=3)
    samples = generate_synthetic(spec).trace.samples
    assert sizes == [2000, 66, 2]
    assert samples.min() > 0.0
    assert np.array_equal(generate_synthetic(spec).trace.samples, samples)


def test_generate_gives_up_when_every_redraw_underflows():
    spec = RegimeSpec(segments=((ModelParams.gamma(1e-5, 1.0), 10),), seed=3)
    with pytest.raises(NonConvergenceError, match="after 100 redraw rounds"):
        generate_synthetic(spec)


def test_generate_redraws_draws_that_overflow_to_inf():
    # At scale 1e308 any core draw above about 1.8 overflows to inf in the
    # final multiply; those draws are redrawn without a numpy warning.
    spec = RegimeSpec(segments=((ModelParams.gamma(2.0, 1e308), 10),), seed=0)
    samples = generate_synthetic(spec).trace.samples
    assert np.isfinite(samples).all()
    assert samples.min() > 0.0
    assert np.array_equal(generate_synthetic(spec).trace.samples, samples)


def test_generate_gives_up_when_every_redraw_overflows():
    # 1 / 1e-320 is past the largest double, so every inverse-CDF draw is inf.
    spec = RegimeSpec(segments=((ModelParams.exponential(1e-320), 10),), seed=0)
    with pytest.raises(
        NonConvergenceError, match="non-finite values after 100 redraw rounds"
    ):
        generate_synthetic(spec)


def test_regime_spec_validation():
    good = (ModelParams.exponential(1.0), 5)
    with pytest.raises(ParameterDomainError):
        RegimeSpec(segments=())
    with pytest.raises(ParameterDomainError):
        RegimeSpec(segments=((ModelParams.exponential(1.0), 0),))
    with pytest.raises(ParameterDomainError):
        RegimeSpec(segments=(("exp", 5),))
    with pytest.raises(ParameterDomainError):
        RegimeSpec(segments=(good,), seed=-1)
    with pytest.raises(ParameterDomainError):
        RegimeSpec(segments=(good,), seed=2**64)
    for length in ("x", None):
        with pytest.raises(ParameterDomainError, match="segment length must be an integer"):
            RegimeSpec(segments=((ModelParams.exponential(1.0), length),))
    for seed in ("x", None):
        with pytest.raises(ParameterDomainError, match="seed must be an integer"):
            RegimeSpec(segments=(good,), seed=seed)
    assert RegimeSpec(segments=((good[0], "5"),), seed="7") == RegimeSpec(
        segments=(good,), seed=7
    )
    most = sys.maxsize // 8
    for lengths in ((most + 1,), (2**63,), (most // 2 + 1, most // 2 + 1)):
        with pytest.raises(ParameterDomainError, match=f"holds at most {most} samples"):
            RegimeSpec(segments=tuple((good[0], n) for n in lengths))
    # The largest trace numpy can describe is still a spec.
    RegimeSpec(segments=((good[0], most),))
    with pytest.raises(ParameterDomainError, match="segments must be a sequence .* got None"):
        RegimeSpec(segments=None)
    for segment in (5, (ModelParams.exponential(1.0),), (good[0], 5, 5)):
        message = re.escape(f"each segment must be a (model, length) pair, got {segment!r}")
        for segments in ((segment,), (good, segment)):
            with pytest.raises(ParameterDomainError, match=message):
                RegimeSpec(segments=segments)


def test_labeled_trace_copies_and_freezes_labels():
    labels = np.array([0, 1, 1], dtype=np.int32)
    labeled = LabeledTrace(JitterTrace(np.array([1.0, 2.0, 3.0])), labels)
    labels[0] = 7
    assert labeled.truth_labels.tolist() == [0, 1, 1]
    assert labeled.truth_labels.dtype == np.int64
    with pytest.raises(ValueError):
        labeled.truth_labels[0] = 5


def test_ingest_and_generate_hand_over_frozen_arrays(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("1.5\n2.5\n0.25\n")
    plain = ingest_trace(path)
    path.write_text("-1.5\n2.5\n0.25\n")
    shifted = ingest_trace(path, offset=True)
    spec = RegimeSpec(
        segments=((ModelParams.exponential(1.0), 3), (ModelParams.gamma(2.0, 1.0), 2)), seed=4
    )
    labeled = generate_synthetic(spec)
    for trace in (plain, shifted, labeled.trace):
        assert trace.samples.dtype == np.float64
    assert labeled.truth_labels.dtype == np.int64
    assert labeled.truth_labels.tolist() == [0, 0, 0, 1, 1]
    for array in (plain.samples, shifted.samples, labeled.trace.samples, labeled.truth_labels):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1
    for made in (plain, shifted, labeled):
        assert_built_as_checked(made)


def test_labeled_trace_length_mismatch():
    trace = JitterTrace(np.array([1.0, 2.0]))
    with pytest.raises(ParameterDomainError):
        LabeledTrace(trace, np.array([0]))
