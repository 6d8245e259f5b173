"""Trace ingestion, indicator export, and seeded synthetic traces.

The on-disk trace format is one decimal jitter sample per line, in seconds.
Blank lines and lines starting with ``#`` are ignored.  Files written by
other tools with CRLF endings read fine; files written here always use LF.
"""

import io
import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .distributions import ModelKind, ModelParams, _array_field, _checked_samples, _unchecked
from .errors import (
    InsufficientDataError,
    NonConvergenceError,
    ParameterDomainError,
    TraceFormatError,
    _int_field,
)

__all__ = [
    "JitterTrace",
    "LabeledTrace",
    "RegimeSpec",
    "ingest_trace",
    "write_trace",
    "emit_indicator_csv",
    "generate_synthetic",
]


@dataclass(frozen=True)
class JitterTrace:
    """An ordered run of positive, finite jitter samples (seconds).

    The constructor checks and copies the samples and freezes the copy, so a
    trace can be shared freely; :func:`ingest_trace` and :func:`generate_synthetic`
    hand over frozen arrays they own.  ``source`` notes where the samples came from.
    """

    samples: np.ndarray
    source: str = "memory"

    def __post_init__(self):
        arr = _checked_samples(self.samples, "jitter", copy=True)
        if arr.size == 0:
            raise InsufficientDataError("a trace needs at least one sample")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return int(self.samples.size)


# Lines go through the parser and the writers in chunks, so no Python list or
# string ever holds a whole trace.  The parser reads 128k bytes at a time
# (about 6k samples) and cuts each block after its last newline; the rest
# starts the next chunk.  It parses a chunk of plain lines, LF or CRLF, with
# a fixed number of numpy calls, so larger chunks cost less a sample until
# their temporaries, about 300 bytes a sample, outgrow a 2 MB L2 cache: 256k
# chunks read a 30k-sample file slower than 128k ones.  Any other chunk is
# decoded as text and parsed by the line loop.  The label and indicator
# writers write 64k lines at a time.  The trace writer formats 8k samples at a time
# in numpy: it holds about 200 bytes of temporaries per sample, and larger
# chunks raise the peak memory of ``jitterfit gen``.
_READ_CHARS = 1 << 17
_WRITE_LINES = 1 << 16
_TRACE_LINES = 1 << 13


def ingest_trace(path, *, offset: bool = False) -> JitterTrace:
    """Read a trace file: one decimal sample per line, ``#`` for comments.

    A sample line is accepted exactly when Python ``float()`` accepts the
    line stripped of surrounding whitespace; the sample must then be finite,
    and positive unless ``offset`` is set.  A file that is not UTF-8 text,
    or a line that breaks these rules, raises :class:`TraceFormatError`,
    naming the line when there is one.

    The file is read in chunks of whole lines.  A chunk whose lines are all
    plain decimals, ``digits[.digits][e[+-]digits]`` with LF or CRLF
    endings, as :func:`write_trace`, ``repr`` and Windows tools write them,
    is converted in numpy exactly as ``float()`` converts each line: see
    :func:`_parse_plain`.  Any other chunk goes through ``float()`` line by
    line.

    With ``offset=True`` the whole trace is shifted to be strictly positive:
    every value becomes ``v - min + eps`` with ``eps`` equal to 1e-6 of the
    value range (1e-9 when the trace is constant).  Clock-difference traces
    that dip to or below zero need this; without it a non-positive sample is
    an error naming its line.  A range so wide that the shifted trace passes
    the largest double, or so narrow that ``eps`` rounds to 0, has no such
    shift and raises :class:`TraceFormatError`.
    """
    arr = _read_samples(path, offset)
    if not arr.size:
        raise TraceFormatError("empty trace: file holds no samples")
    source = str(path)
    if offset:
        vmin = float(arr.min())
        vmax = float(arr.max())
        eps = 1e-6 * (vmax - vmin) if vmax > vmin else 1e-9
        # The largest shifted value rounds exactly as this one does.
        if not (eps > 0.0 and math.isfinite(vmax - vmin + eps)):
            raise TraceFormatError(
                f"cannot offset a trace spanning {vmin!r} to {vmax!r} into the "
                "positive doubles; rescale the trace"
            )
        arr -= vmin
        arr += eps
        source = f"{source} (offset {eps - vmin:.17g})"
    arr.setflags(write=False)
    return _unchecked(JitterTrace, samples=arr, source=source)


def _read_samples(path, offset: bool) -> np.ndarray:
    """The samples of the trace file at ``path``, parsed a chunk at a time
    into one array that doubles in size as it fills.

    A list of chunks to concatenate, scattered among the parser's freed
    temporaries, left the heap in pieces too small for the trace-sized
    arrays of the fit that follows; that raised the peak RSS of a 1M-sample
    ``fit`` by about 9 MiB.
    """
    samples = np.empty(0)
    count = lineno = 0
    try:
        with open(path, "rb") as fh:
            for data in _line_chunks(fh):
                values, lines = _parse_bytes(data, lineno + 1, offset)
                if count + values.size > samples.size:
                    # No view of ``samples`` outlives a loop pass.
                    samples.resize(max(2 * samples.size, count + values.size), refcheck=False)
                samples[count : count + values.size] = values
                count += values.size
                lineno += lines
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        raise TraceFormatError(
            f"trace is not UTF-8 text: cannot decode byte {bad:#04x} ({exc.reason})"
        ) from None
    samples.resize(count, refcheck=False)
    return samples


def _line_chunks(fh):
    """The bytes of binary file ``fh`` in chunks of whole lines: about
    ``_READ_CHARS`` bytes each, cut after the last LF.  A block without an LF
    is cut after its last CR that is not its last byte, which may start a
    CRLF; so a file with CR line ends is read in chunks too.  Only the last
    chunk may end without a line end."""
    parts = []
    while block := fh.read(_READ_CHARS):
        cut = block.rfind(b"\n") + 1 or block.rfind(b"\r", 0, -1) + 1
        if cut:
            parts.append(memoryview(block)[:cut])
            yield b"".join(parts)
            parts = [block[cut:]]
        else:
            parts.append(block)
    if tail := b"".join(parts):
        yield tail


def _parse_bytes(data: bytes, first: int, offset: bool) -> tuple[np.ndarray, int]:
    """The samples in ``data``, whole lines of the file from line ``first`` on,
    and the number of those lines.

    A chunk of plain lines with LF or CRLF endings goes to :func:`_parse_plain`.
    Any other chunk, or one with a sample the trace must not hold, is decoded
    as the text mode of ``open`` decodes it, with universal newlines and the
    same UTF-8 errors, and goes through the line loop.
    """
    values = _parse_plain(data if data.endswith(b"\n") else data + b"\n")
    if values is not None and np.isfinite(values).all() and (offset or (values > 0.0).all()):
        return values, values.size
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").readlines()
    return _parse_lines(lines, first, offset), len(lines)


def _pow10(m: int) -> tuple[float, float]:
    """10**m as a double-double (hi, lo): hi is 10**m rounded, lo the rest
    rounded, so hi + lo is within about 2**-106 of 10**m relative."""
    # Python's int / int true division is correctly rounded.
    num, den = (10**m, 1) if m >= 0 else (1, 10**-m)
    hi = num / den
    hi_num, hi_den = hi.as_integer_ratio()
    return hi, (num * hi_den - hi_num * den) / (den * hi_den)


# Past these bounds the splitting in _dd_mul may overflow or lose bits.  The
# parser scales by 10**e10, |e10| <= _E10_LIMIT, and the trace writer by
# 10**(16 - k), |k| <= _K_LIMIT; row m + _E10_LIMIT holds _pow10(m).
_E10_LIMIT = 290
_K_LIMIT = 280
_POW10 = np.array([_pow10(m) for m in range(-_E10_LIMIT, 17 + _K_LIMIT)])
_POW10.setflags(write=False)


_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's constant for 53-bit doubles


def _dd_mul(a: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray):
    """``a * (b_hi + b_lo)`` as a double-double ``(p, err)``: ``p`` is
    ``a * b_hi`` rounded, and ``err`` its rounding error, exact by Dekker's
    product, plus ``a * b_lo``.  The splitting overflows when ``a`` or
    ``b_hi`` passes about 1e300."""
    p = a * b_hi
    s = _SPLIT * a
    a_hi = s - (s - a)
    a_lo = a - a_hi
    s = _SPLIT * b_hi
    b_hh = s - (s - b_hi)
    b_hl = b_hi - b_hh
    err = ((a_hi * b_hh - p) + a_hi * b_hl + a_lo * b_hh) + a_lo * b_hl
    return p, err + a * b_lo


# The bytes of a plain line other than digits, by kind.
_NEWLINE, _CR, _POINT, _EXP, _SIGN, _OTHER = range(6)
_KINDS = np.full(256, _OTHER, dtype=np.uint8)
_KINDS[[ord(c) for c in "\n\r.e+-"]] = [_NEWLINE, _CR, _POINT, _EXP, _SIGN, _SIGN]
# A mantissa, the part of a line before any "e", is parsed in the row of 24
# bytes that ends where it ends.  _KEEP[m], as three little-endian words,
# keeps the last m bytes of a row and clears the rest, which belong to
# earlier lines.
_ROW_BYTES = 24
_KEEP = np.array(
    [[0] * (_ROW_BYTES - m) + [0xFF] * m for m in range(_ROW_BYTES + 1)], dtype=np.uint8
).view("<u8")
_PAD = np.zeros(_ROW_BYTES, dtype=np.uint8)
_ZEROS = np.uint64(0x3030303030303030)  # "0" in each byte
# The digits of a word are summed in pairs, then fours, then all eight.  A
# line's earlier digits sit in lower bytes, so each step scales the lower
# lane of a pair by 10**w and adds the upper lane shifted down onto it.
_DIGIT_SUMS = [
    (np.uint64(10**w), np.uint64(8 * w), np.uint64(mask))
    for w, mask in ((1, 0x00FF00FF00FF00FF), (2, 0x0000FFFF0000FFFF), (4, 0xFFFFFFFF))
]
# 10**k and 9 * 10**(k - 1), for k up to 19.
_TENS = np.array([10**k for k in range(20)], dtype=np.uint64)
_NINES = np.array([0] + [9 * 10 ** (k - 1) for k in range(1, 20)], dtype=np.uint64)
_EXP_DIGITS = 4
_EXP_WEIGHTS = 10 ** np.arange(_EXP_DIGITS - 1, -1, -1, dtype=np.int64)
# The double-double product is exact to about 2**-100 relative, far inside
# this margin around a rounding midpoint.
_MIDPOINT = 2.0**-95
_PLAIN_RANGE = (1e-290, 1e290)


def _parse_plain(data: bytes) -> np.ndarray | None:
    """The values of the lines of ``data``, which ends with an LF, or None
    if some line is not plain: ``digits[.digits][e[+-]digits]``, ended by an
    LF or a CRLF, with a mantissa of at most 24 bytes and at most 4 exponent
    digits.  As for ``float()``, either run of mantissa digits may be empty,
    but not both.

    Each mantissa is gathered right-aligned into a 24-byte row, its point
    read as a 0 digit, and its digits summed to an integer ``S``.  With ``f``
    fraction digits its decimal digits are ``D = S - 9 * 10**f * (S //
    10**(f + 1))``.  ``D * 10**e10``, with ``e10`` the exponent less ``f``, is
    formed as a double-double and rounded.  A line is converted by
    ``float()`` on its own when that could go wrong:

    - ``D`` has more than 18 digits, or ``|e10| > 290``;
    - the value lies outside [1e-290, 1e290], or is a power of two;
    - the rounding residual lies within 2**-95 of a half-ulp, relative.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    at = np.flatnonzero((buf ^ np.uint8(0x30)) > 9)
    kind = _KINDS.take(buf.take(at))
    is_cr = kind == _CR
    crs = at.compress(is_cr)
    # A byte of no plain kind, or a CR not just before an LF, rules the
    # chunk out before the index work.
    if (kind == _OTHER).any() or (buf.take(crs + 1) != ord("\n")).any():
        return None
    newline = kind == _NEWLINE
    # The line of each byte in ``at`` is the number of newlines before it.
    line = np.cumsum(newline) - newline
    ends = at.compress(newline)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    # A CR just before an LF ends its line there.
    ends[line.compress(is_cr)] = crs
    is_point = kind == _POINT
    points, point_line = at.compress(is_point), line.compress(is_point)
    is_exp = kind == _EXP
    e_at, e_line = at.compress(is_exp), line.compress(is_exp)
    is_sign = kind == _SIGN
    signs, sign_line = at.compress(is_sign), line.compress(is_sign)
    stops = ends.copy()
    stops[e_line] = e_at
    widths = stops - starts
    mantissa_digits = widths.copy()
    mantissa_digits[point_line] -= 1
    fraction = np.zeros_like(ends)
    fraction[point_line] = stops[point_line] - points - 1
    exp_digits = ends[e_line] - e_at - 1 - (_KINDS.take(buf.take(e_at + 1)) == _SIGN)
    if (
        # At most one point and one "e" a line, the point before the "e",
        # and a sign only just after an "e".
        (np.diff(point_line) < 1).any()
        or (np.diff(e_line) < 1).any()
        or (fraction < 0).any()
        or (signs != stops[sign_line] + 1).any()
        or mantissa_digits.min() < 1
        or widths.max() > _ROW_BYTES
        or (exp_digits.size and not 1 <= exp_digits.min() <= exp_digits.max() <= _EXP_DIGITS)
    ):
        return None
    padded = np.concatenate((_PAD, buf))
    padded[points + _ROW_BYTES] = ord("0")
    # Window j holds the 24 bytes before buf[j].  Gathering each window as
    # one 24-byte item is faster than gathering 24 bytes a row.
    windows = sliding_window_view(padded, _ROW_BYTES).view(f"V{_ROW_BYTES}")[:, 0]
    words = windows[stops].view("<u8").reshape(-1, 3)
    words ^= _ZEROS
    words &= _KEEP.take(widths, axis=0)
    for scale, shift, mask in _DIGIT_SUMS:
        words = (words * scale + (words >> shift)) & mask
    whole = (words[:, 0] * np.uint64(10**8) + words[:, 1]) * np.uint64(10**8) + words[:, 2]
    # A mantissa without a point has all its digits in S.
    k = np.full_like(ends, 19)
    k[point_line] = np.minimum(fraction[point_line] + 1, 19)
    digits = whole - whole // _TENS.take(k) * _NINES.take(k)
    e10 = -fraction
    if e_at.size:
        # The exponent digits, right-aligned in the last bytes of the rows
        # that end at the newlines.
        tails = windows[ends[e_line]].view(np.uint8).reshape(-1, _ROW_BYTES)[:, -_EXP_DIGITS:]
        tails ^= np.uint8(0x30)
        tails[np.arange(_EXP_DIGITS) < _EXP_DIGITS - exp_digits[:, None]] = 0
        exponent = tails.astype(np.int64) @ _EXP_WEIGHTS
        e10[e_line] += np.where(buf.take(e_at + 1) == ord("-"), -exponent, exponent)
    # A first word over 999 means S passed 10**19 and wrapped.
    doubtful = (words[:, 0] > np.uint64(999)) | (digits >= np.uint64(10**18))
    doubtful |= np.abs(e10) > _E10_LIMIT
    digits[doubtful] = 0
    e10[doubtful] = 0
    d_hi = digits.astype(np.float64)
    d_lo = (digits - d_hi.astype(np.uint64)).view(np.int64).astype(np.float64)
    scale = _POW10.take(e10 + _E10_LIMIT, axis=0)
    product, error = _dd_mul(d_hi, scale[:, 0], scale[:, 1])
    error += d_lo * scale[:, 0]
    values = product + error
    # values + residual == product + error exactly, and a normal double's
    # half-ulp is its power of two times 2**-53.
    residual = error - (values - product)
    bits = values.view(np.uint64)
    half_ulp = (bits & np.uint64(0x7FF0000000000000)).view(np.float64) * 2.0**-53
    doubtful |= ~((values >= _PLAIN_RANGE[0]) & (values <= _PLAIN_RANGE[1]))
    doubtful |= (bits & np.uint64(2**52 - 1)) == 0
    doubtful |= np.abs(np.abs(residual) - half_ulp) <= _MIDPOINT * values
    for row in np.flatnonzero(doubtful).tolist():
        values[row] = float(data[starts[row] : ends[row]])
    return values


def _parse_lines(lines: list[str], first: int, offset: bool) -> np.ndarray:
    """The samples on ``lines``, the first of which is line ``first`` of the
    file.  Blank and comment lines are skipped; the first bad line is named.
    """
    kept: list[float] = []
    for lineno, raw in enumerate(lines, start=first):
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
        kept.append(value)
    return np.array(kept, dtype=np.float64)


def write_trace(trace: JitterTrace, path) -> None:
    """Write a trace in the line-per-sample format with 17 significant digits.

    17 digits make the round trip through :func:`ingest_trace` exact for
    every double.  The file holds exactly the bytes of ``f"{v:.17g}\\n"`` for
    each sample ``v``, but the lines are built in numpy, a chunk at a time.
    With ``k = floor(log10(v))``, the product ``v * 10**(16 - k)`` is formed
    as a double-double, exact to about 2**-100 relative, and its integer part
    plus its fraction rounded to nearest gives the 17 digits.  A sample is
    formatted by ``%`` on its own when that could go wrong:

    - the fraction lies within 2**-40 of one half, exact ties included;
    - the digits fall outside [10**16, 10**17), because ``log10`` put ``k``
      one off or the rounding carried into the next decade;
    - ``|k| > 280``, where the product's splitting steps would overflow.
    """
    samples = trace.samples
    with open(path, "wb") as fh:
        for start in range(0, samples.size, _TRACE_LINES):
            fh.write(_format_lines(samples[start : start + _TRACE_LINES]))


# The product's absolute error is below about 2**-47, far inside this margin.
_TIE = 2.0**-40

# A line is built in a row of 48 bytes; 0 bytes are padding, deleted before
# the chunk is written.  Bytes 0-7 hold the "0." and zeros that lead the fixed
# form below 1, byte 8 + 2j digit j and byte 9 + 2j the point if it follows
# digit j, bytes 42-46 the exponent of the scientific form, byte 47 the "\n".
_ROW = 48
# Bytes 0-7 of a row as one little-endian word, by clip(k, -5, 0) + 5.
_PREFIXES = np.frombuffer(
    b"\0\0\0\0\0\0\0\0" b"0.000\0\0\0" b"0.00\0\0\0\0"
    b"0.0\0\0\0\0\0" b"0.\0\0\0\0\0\0" b"\0\0\0\0\0\0\0\0",
    dtype="<u8",
)


def _put_digits(out: np.ndarray, values: np.ndarray) -> None:
    """Write the last ``out.shape[-1]`` decimal digits of the integers
    ``values >= 0`` into uint8 ``out`` as ASCII, most significant first."""
    for j in range(out.shape[-1] - 1, -1, -1):
        quotient = values // 10
        np.subtract(values, quotient * 10, out=out[..., j], casting="unsafe")
        values = quotient
    out += ord("0")


def _format_lines(x: np.ndarray) -> bytes:
    """``f"{v:.17g}\\n"`` for each positive finite ``v`` in ``x``, joined, as
    ASCII bytes."""
    n = x.size
    k = np.floor(np.log10(x)).astype(np.int64)
    far = np.abs(k) > _K_LIMIT
    # A far sample is formatted by %; a stand-in keeps its arithmetic finite.
    k[far] = 0
    y = np.where(far, 1.0, x)
    scale = _POW10.take(16 - k + _E10_LIMIT, axis=0)
    p, err = _dd_mul(y, scale[:, 0], scale[:, 1])
    whole = np.floor(p)
    rest = (p - whole) + err
    carry = np.floor(rest)
    frac = rest - carry
    digits = whole.astype(np.int64) + carry.astype(np.int64)
    fallback = far | (np.abs(frac - 0.5) <= _TIE) | (digits < 10**16)
    digits += frac > 0.5
    fallback |= digits >= 10**17

    rows = np.zeros((n, _ROW), dtype=np.uint8)
    # The digits as two halves of nine; the leading 0 of the first lands in
    # bytes 6-7, which the prefix overwrites below.
    high = digits // 10**9
    halves = np.empty((n, 2), dtype=np.uint32)
    halves[:, 0] = high
    halves[:, 1] = digits - high * 10**9
    chars = np.empty((n, 2, 9), dtype=np.uint8)
    _put_digits(chars, halves)
    cells = rows.view("<u2")  # cell 4 + j: digit j, then the byte after it
    cells[:, 3:21] = chars.reshape(n, 18)

    fixed = (k >= -4) & (k <= 16)
    # The digit the point follows; the fixed form below 1 has its point in
    # the prefix.
    point_after = np.where(fixed & (k > 0), k, 0)
    # Trailing zeros after the point go, and the point with them when no
    # digit follows it.
    last = np.full(n, 16)
    ends_in_zero = np.flatnonzero(cells[:, 20] == ord("0"))
    tail = cells[ends_in_zero, 4:21]
    last[ends_in_zero] = 16 - np.argmax(tail[:, ::-1] != ord("0"), axis=1)
    keep = np.maximum(last, point_after)[ends_in_zero]
    tail[np.arange(17) > keep[:, None]] = 0
    cells[ends_in_zero, 4:21] = tail
    dot = np.flatnonzero((last > point_after) & ~(fixed & (k < 0)))
    rows.reshape(-1)[dot * _ROW + 9 + 2 * point_after[dot]] = ord(".")
    rows.view("<u8")[:, 0] = _PREFIXES[np.clip(k, -5, 0) + 5]

    sci = np.flatnonzero(~fixed)
    exponent = np.abs(k[sci])
    rows[sci, 42] = ord("e")
    rows[sci, 43] = np.where(k[sci] < 0, ord("-"), ord("+"))
    rows[sci, 44] = np.where(exponent >= 100, exponent // 100 + ord("0"), 0)
    rows[sci, 45] = exponent // 10 % 10 + ord("0")
    rows[sci, 46] = exponent % 10 + ord("0")
    rows[:, 47] = ord("\n")

    for row, value in zip(np.flatnonzero(fallback).tolist(), x[fallback].tolist()):
        line = b"%.17g\n" % value
        rows[row] = np.frombuffer(line.ljust(_ROW, b"\0"), dtype=np.uint8)
    return rows.tobytes().translate(None, b"\0")


def _write_labels(path, labels: np.ndarray) -> None:
    """Write integer ``labels``, one ``f"{label}"`` per line (LF), to a new
    UTF-8 file at ``path``.

    Segment labels come in long runs, so each run is written as one repeated
    line, at most ``_WRITE_LINES`` lines at a time.
    """
    edges = [0, *(np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist(), labels.size]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for start, stop in zip(edges, edges[1:]):
            line = f"{int(labels[start])}\n"
            for lo in range(start, stop, _WRITE_LINES):
                fh.write(line * (min(stop, lo + _WRITE_LINES) - lo))


def emit_indicator_csv(assignment, sink) -> int:
    """Write the per-sample indicator series as CSV and return the row count.

    One row per sample: ``index,z1,z2`` with a 1-based index, ``z1 = 1``
    when the sample is assigned to model 0 and ``z2 = 1 - z1``.  ``sink``
    may be a path or an open text file.  The format is meant to drop
    straight into a plotting tool.
    """
    labels = np.asarray(assignment.labels)
    if hasattr(sink, "write"):
        return _write_indicators(labels, sink)
    with open(sink, "w", encoding="utf-8", newline="\n") as fh:
        return _write_indicators(labels, fh)


# The ",z1,z2\n" ends of an indicator row for model 0 and for any other model.
_ROW_TAILS = np.frombuffer(b",1,0\n,0,1\n", dtype=np.uint8).reshape(2, 5)


def _write_indicators(labels: np.ndarray, fh) -> int:
    """Write the header and the rows, each chunk of rows whose indexes have
    the same number of digits built as one byte matrix: the digits of the
    index, then the row's tail."""
    fh.write("index,z1,z2\n")
    lo, stop = 1, labels.size + 1
    while lo < stop:
        width = len(str(lo))
        hi = min(stop, 10**width, lo + _WRITE_LINES)
        rows = np.empty((hi - lo, width + 5), dtype=np.uint8)
        # The narrowest unsigned type: its digit loop runs the fastest.
        _put_digits(rows[:, :width], np.arange(lo, hi, dtype=np.min_scalar_type(hi)))
        rows[:, width:] = _ROW_TAILS[(labels[lo - 1 : hi - 1] != 0).astype(np.intp)]
        fh.write(rows.tobytes().decode())
        lo = hi
    return int(labels.size)


# The most float64 samples a numpy array can describe.
_MAX_SAMPLES = sys.maxsize // 8


@dataclass(frozen=True)
class RegimeSpec:
    """Recipe for a synthetic trace: ordered (model, length) segments."""

    segments: tuple[tuple[ModelParams, int], ...]
    seed: int = 0

    def __post_init__(self):
        try:
            pairs = iter(self.segments)
        except TypeError:
            raise ParameterDomainError(
                f"segments must be a sequence of (model, length) pairs, got {self.segments!r}"
            ) from None
        segments = []
        for segment in pairs:
            try:
                params, length = segment
            except (TypeError, ValueError):
                raise ParameterDomainError(
                    f"each segment must be a (model, length) pair, got {segment!r}"
                ) from None
            segments.append((params, _int_field("segment length", length)))
        segments = tuple(segments)
        if not segments:
            raise ParameterDomainError("a regime spec needs at least one segment")
        for params, length in segments:
            if not isinstance(params, ModelParams):
                raise ParameterDomainError("each segment needs ModelParams")
            if length < 1:
                raise ParameterDomainError(f"segment length must be >= 1, got {length}")
        total = sum(length for _, length in segments)
        if total > _MAX_SAMPLES:
            raise ParameterDomainError(
                f"a regime spec holds at most {_MAX_SAMPLES} samples, got {total}"
            )
        object.__setattr__(self, "segments", segments)
        seed = _int_field("seed", self.seed)
        if not 0 <= seed < 2**64:
            raise ParameterDomainError("seed must fit in an unsigned 64-bit integer")
        object.__setattr__(self, "seed", seed)


@dataclass(frozen=True)
class LabeledTrace:
    """A synthetic trace plus the ground-truth segment index per sample, as
    int64 labels the constructor copies and :func:`generate_synthetic` hands over.
    The constructor refuses labels that are not whole numbers."""

    trace: JitterTrace
    truth_labels: np.ndarray

    def __post_init__(self):
        # A NaN or an infinity casts to some integer; the comparison below
        # refuses it with the fractions.
        with np.errstate(invalid="ignore"):
            labels = _array_field("truth labels", self.truth_labels, np.int64, copy=True)
        if labels.shape != (len(self.trace),):
            raise ParameterDomainError("truth labels must match the trace length")
        if not np.array_equal(labels, self.truth_labels):
            raise ParameterDomainError("truth labels must be whole numbers")
        labels.setflags(write=False)
        object.__setattr__(self, "truth_labels", labels)


def generate_synthetic(spec: RegimeSpec) -> LabeledTrace:
    """Draw a labeled trace from a regime recipe, reproducibly.

    One PCG64 generator seeded from ``spec.seed`` drives every segment in
    order, so the full trace is a deterministic function of ``spec``.  Any
    draw that comes out non-positive (or non-finite) is redrawn; jitter
    samples must be strictly positive.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    samples = np.concatenate([_positive_variates(rng, p, n) for p, n in spec.segments])
    lengths = [n for _, n in spec.segments]
    labels = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    samples.setflags(write=False)
    labels.setflags(write=False)
    trace = _unchecked(JitterTrace, samples=samples, source=f"synthetic(seed={spec.seed})")
    return _unchecked(LabeledTrace, trace=trace, truth_labels=labels)


_MAX_REDRAW_ROUNDS = 100


def _positive_variates(rng, params: ModelParams, n: int) -> np.ndarray:
    # A draw that overflows or divides by zero comes out inf and is redrawn
    # below, so numpy need not warn about it.
    with np.errstate(divide="ignore", over="ignore"):
        out = _draw(rng, params, n)
        for _ in range(_MAX_REDRAW_ROUNDS):
            bad = ~np.isfinite(out) | (out <= 0.0)
            if not bad.any():
                return out
            out[bad] = _draw(rng, params, int(bad.sum()))
    raise NonConvergenceError(
        f"variate generation for {params.kind.name.lower()} kept producing "
        f"non-positive or non-finite values after {_MAX_REDRAW_ROUNDS} redraw rounds"
    )


def _draw(rng, params: ModelParams, n: int) -> np.ndarray:
    if params.kind is ModelKind.EXPONENTIAL:
        # Inverse CDF; a zero uniform maps to inf.
        return -np.log(rng.random(n)) / params.rate
    return _gamma_variates(rng, params.shape, params.scale, n)


def _gamma_variates(rng, shape: float, scale: float, n: int) -> np.ndarray:
    """Marsaglia-Tsang squeeze sampler.

    Draws from the shape+1 distribution when shape < 1 and applies the
    standard U**(1/shape) boost afterwards.

    A round accepts ``d * v``, ``v = (1 + c*x)**3``, where ``v > 0`` and
    ``ln u < 0.5*x*x + d - d*v + d*ln v``.  Both are computed in place, in
    that order of operations, so a round holds four draw-sized arrays.
    """
    core_shape = shape if shape >= 1.0 else shape + 1.0
    d = core_shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(n, dtype=np.float64)
    filled = 0
    while filled < n:
        k = n - filled
        x = rng.standard_normal(k)
        u = rng.random(k)
        v = c * x
        v += 1.0
        v **= 3
        bound = 0.5 * x
        bound *= x
        bound += d
        # x is spent: it takes d*v, then d*ln v.
        np.multiply(d, v, out=x)
        bound -= x
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(v, out=x)
            x *= d
            bound += x
            np.log(u, out=u)
        accept = u < bound
        accept &= v > 0.0
        # Only v and the mask outlive the test, so the kept draws add no
        # fifth array to the round's four.
        del x, u, bound
        kept = v[accept]
        kept *= d
        out[filled : filled + kept.size] = kept
        filled += kept.size
    if shape < 1.0:
        out *= rng.random(n) ** (1.0 / shape)
    return out * scale
