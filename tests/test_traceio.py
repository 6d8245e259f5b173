"""Trace file handling and the seeded synthetic generator."""

import io
import math
import re
import sys
import tracemalloc
import warnings

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
    ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1),
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
    with pytest.raises(ParameterDomainError, match="segments must be a sequence .* got None"):
        RegimeSpec(segments=None)
    for segment in (5, (ModelParams.exponential(1.0),), (good[0], 5, 5)):
        message = re.escape(f"each segment must be a (model, length) pair, got {segment!r}")
        for segments in ((segment,), (good, segment)):
            with pytest.raises(ParameterDomainError, match=message):
                RegimeSpec(segments=segments)


def test_labeled_trace_length_mismatch():
    trace = JitterTrace(np.array([1.0, 2.0]))
    with pytest.raises(ParameterDomainError):
        LabeledTrace(trace, np.array([0]))
