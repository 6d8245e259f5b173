"""Trace ingestion, indicator export, and seeded synthetic traces.

The on-disk trace format is one decimal jitter sample per line, in seconds.
Blank lines and lines starting with ``#`` are ignored.  Files written by
other tools with CRLF endings read fine; files written here always use LF.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import ModelKind, ModelParams
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

    The sample array is copied on construction and frozen read-only, so a
    trace can be shared freely once built.  ``source`` is a human-readable
    note about where the samples came from.
    """

    samples: np.ndarray
    source: str = "memory"

    def __post_init__(self):
        arr = np.array(self.samples, dtype=np.float64, copy=True)
        if arr.ndim != 1:
            raise ParameterDomainError("a trace must be a 1-d sequence of samples")
        if arr.size == 0:
            raise InsufficientDataError("a trace needs at least one sample")
        if not np.all(np.isfinite(arr)):
            raise ParameterDomainError("jitter samples must be finite")
        if np.any(arr <= 0.0):
            raise ParameterDomainError("jitter samples must be positive")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return int(self.samples.size)


# Lines go through the parser and the writers in chunks, each parsed or
# formatted by one C-level call, so no Python list or string ever holds a
# whole trace.  The parser reads 64k characters at a time (about 3k samples),
# the writers write 64k lines at a time.
_READ_CHARS = 1 << 16
_WRITE_LINES = 1 << 16


def ingest_trace(path, *, offset: bool = False) -> JitterTrace:
    """Read a trace file: one decimal sample per line, ``#`` for comments.

    A sample line is accepted exactly when Python ``float()`` accepts the
    line stripped of surrounding whitespace; the sample must then be finite,
    and positive unless ``offset`` is set.  A file that is not UTF-8 text,
    or a line that breaks these rules, raises :class:`TraceFormatError`,
    naming the line when there is one.

    With ``offset=True`` the whole trace is shifted to be strictly positive:
    every value becomes ``v - min + eps`` with ``eps`` equal to 1e-6 of the
    value range (1e-9 when the trace is constant).  Clock-difference traces
    that dip to or below zero need this; without it a non-positive sample is
    an error naming its line.  A range so wide that the shifted trace passes
    the largest double, or so narrow that ``eps`` rounds to 0, has no such
    shift and raises :class:`TraceFormatError`.
    """
    chunks: list[np.ndarray] = []
    lineno = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            while lines := fh.readlines(_READ_CHARS):
                chunks.append(_parse_chunk(lines, lineno + 1, offset))
                lineno += len(lines)
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        raise TraceFormatError(
            f"trace is not UTF-8 text: cannot decode byte {bad:#04x} ({exc.reason})"
        ) from None
    arr = np.concatenate(chunks or [np.empty(0)])
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
        arr = arr - vmin + eps
        source = f"{source} (offset {eps - vmin:.17g})"
    return JitterTrace(arr, source=source)


def _parse_chunk(lines: list[str], first: int, offset: bool) -> np.ndarray:
    """The samples on ``lines``, the first of which is line ``first`` of the
    file.

    One bulk parse serves a chunk of plain sample lines.  A chunk with a
    comment, a blank line, or a value the bulk parse cannot take or the
    trace must not hold goes through the line loop, which skips the first
    two and names the line of the first error.
    """
    try:
        values = np.array(list(map(float, lines)), dtype=np.float64)
    except ValueError:
        pass
    else:
        if np.isfinite(values).all() and (offset or (values > 0.0).all()):
            return values
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
    every double.
    """
    _write_lines(path, trace.samples, "%.17g\n")


def _write_lines(path, values: np.ndarray, fmt: str) -> None:
    """Write each of ``values`` as ``fmt % value`` (one line each, LF) to a
    new UTF-8 file at ``path``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, values.size, _WRITE_LINES):
            chunk = values[start : start + _WRITE_LINES].tolist()
            fh.write((fmt * len(chunk)) % tuple(chunk))


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
        index = np.arange(lo, hi, dtype=np.int64)
        for col in range(width - 1, -1, -1):
            rows[:, col] = index % 10 + ord("0")
            index //= 10
        rows[:, width:] = _ROW_TAILS[(labels[lo - 1 : hi - 1] != 0).astype(np.intp)]
        fh.write(rows.tobytes().decode("ascii"))
        lo = hi
    return int(labels.size)


@dataclass(frozen=True)
class RegimeSpec:
    """Recipe for a synthetic trace: ordered (model, length) segments."""

    segments: tuple[tuple[ModelParams, int], ...]
    seed: int = 0

    def __post_init__(self):
        segments = tuple(
            (params, _int_field("segment length", length)) for params, length in self.segments
        )
        if not segments:
            raise ParameterDomainError("a regime spec needs at least one segment")
        for params, length in segments:
            if not isinstance(params, ModelParams):
                raise ParameterDomainError("each segment needs ModelParams")
            if length < 1:
                raise ParameterDomainError(f"segment length must be >= 1, got {length}")
        object.__setattr__(self, "segments", segments)
        seed = _int_field("seed", self.seed)
        if not 0 <= seed < 2**64:
            raise ParameterDomainError("seed must fit in an unsigned 64-bit integer")
        object.__setattr__(self, "seed", seed)


@dataclass(frozen=True)
class LabeledTrace:
    """A synthetic trace plus the ground-truth segment index per sample."""

    trace: JitterTrace
    truth_labels: np.ndarray

    def __post_init__(self):
        labels = np.array(self.truth_labels, dtype=np.int64, copy=True)
        if labels.shape != (len(self.trace),):
            raise ParameterDomainError("truth labels must match the trace length")
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
    chunks = []
    labels = []
    for index, (params, length) in enumerate(spec.segments):
        chunks.append(_positive_variates(rng, params, length))
        labels.append(np.full(length, index, dtype=np.int64))
    trace = JitterTrace(np.concatenate(chunks), source=f"synthetic(seed={spec.seed})")
    return LabeledTrace(trace, np.concatenate(labels))


_MAX_REDRAW_ROUNDS = 100


def _positive_variates(rng, params: ModelParams, n: int) -> np.ndarray:
    out = _draw(rng, params, n)
    for _ in range(_MAX_REDRAW_ROUNDS):
        bad = ~np.isfinite(out) | (out <= 0.0)
        if not bad.any():
            return out
        out[bad] = _draw(rng, params, int(bad.sum()))
    raise NonConvergenceError(
        f"variate generation for {params.kind.name.lower()} kept producing "
        f"non-positive values after {_MAX_REDRAW_ROUNDS} redraw rounds"
    )


def _draw(rng, params: ModelParams, n: int) -> np.ndarray:
    if params.kind is ModelKind.EXPONENTIAL:
        # Inverse CDF; a zero uniform maps to inf and gets redrawn upstream.
        with np.errstate(divide="ignore"):
            return -np.log(rng.random(n)) / params.rate
    return _gamma_variates(rng, params.shape, params.scale, n)


def _gamma_variates(rng, shape: float, scale: float, n: int) -> np.ndarray:
    """Marsaglia-Tsang squeeze sampler.

    Draws from the shape+1 distribution when shape < 1 and applies the
    standard U**(1/shape) boost afterwards.
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
        v = (1.0 + c * x) ** 3
        with np.errstate(divide="ignore", invalid="ignore"):
            accept = (v > 0.0) & (
                np.log(u) < 0.5 * x * x + d - d * v + d * np.log(v)
            )
        kept = d * v[accept]
        out[filled : filled + kept.size] = kept
        filled += kept.size
    if shape < 1.0:
        out *= rng.random(n) ** (1.0 / shape)
    return out * scale
