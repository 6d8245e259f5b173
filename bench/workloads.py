"""The benchmark's three workloads: monitor, scan and archive.

Each workload is one closed-loop client in one process: it issues its next
operation only after the previous one returned.  Inputs are drawn from the
workload seed with the benchmark's own generator and written to files before
timing starts (archive's input is the output of the timed ``gen`` call), so
the program sees nothing but those files.

``op(i)`` runs operation ``i``, times only the calls into jitterfit, then
checks the outputs: every operation against the invariants of its output
format, and every repeated input against the bytes it produced the first
time.  A failed check raises :class:`CheckFailed`.  ``reference()`` runs the
fixed reference corpus whose outputs ``reference.json`` stores.

See README.md for why each workload exists and what it should move.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import time

import numpy as np

import jitterfit
import jitterfit.cli
from stats import percentile, tail_percentile

# Reference corpus seed; reference.json holds the seed code's outputs for it.
REFERENCE_SEED = 2003

TRACE_LEN = 30000  # the CLI's --history-cap default
WINDOW = 3500  # the scan's default window
SCAN_STRIDE = 250

EXPONENTIAL, GAMMA = 0, 1  # label values: the model order of EMConfig.kinds


class CheckFailed(Exception):
    """An output disagreed with its invariants, its first run or the reference."""


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *stream])))


def draw_segments(rng, segments) -> tuple[np.ndarray, np.ndarray]:
    """Samples and per-sample true model for ``(kind, a, b, length)`` segments:
    ``("exp", rate, None, n)`` or ``("gamma", shape, scale, n)``."""
    chunks, truth = [], []
    for kind, a, b, length in segments:
        if kind == "exp":
            chunks.append(rng.exponential(1.0 / a, length))
            truth.append(np.full(length, EXPONENTIAL, dtype=np.int8))
        else:
            chunks.append(rng.gamma(a, b, length))
            truth.append(np.full(length, GAMMA, dtype=np.int8))
    # numpy's samplers return an exact 0.0 with probability near 2**-53; the
    # program rejects non-positive samples, so lift any to the smallest normal.
    samples = np.maximum(np.concatenate(chunks), np.finfo(np.float64).tiny)
    return samples, np.concatenate(truth)


def write_samples(samples: np.ndarray, path: str) -> None:
    """One shortest round-trip decimal per line, which the parser reads exactly."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(map(repr, samples.tolist())))
        fh.write("\n")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _cli(argv: list[str]) -> float:
    """Run one jitterfit command in-process; return its wall time."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        status = jitterfit.cli.main(argv)
        elapsed = time.perf_counter() - start
    if status != 0:
        raise CheckFailed(f"jitterfit {argv[0]} exited with status {status}")
    return elapsed


def indicator_labels(path: str, samples: int) -> np.ndarray:
    """Model index per sample from an ``index,z1,z2`` CSV, format-checked."""
    with open(path, "rb") as fh:
        data = np.frombuffer(fh.read(), dtype=np.uint8)
    newlines = np.flatnonzero(data == ord("\n"))
    if newlines.size != samples + 1:
        raise CheckFailed(f"indicator has {newlines.size - 1} rows, expected {samples}")
    ends = newlines[1:]
    z1, comma, z2 = data[ends - 3], data[ends - 2], data[ends - 1]
    ok = (comma == ord(",")) & (z1 + z2 == ord("0") + ord("1")) & (z1 >= ord("0"))
    if not ok.all():
        raise CheckFailed("indicator rows are not index,z1,z2 with z1 + z2 = 1")
    return np.where(z1 == ord("1"), EXPONENTIAL, GAMMA).astype(np.int8)


def fit_record(summary_path: str, indicator_path: str) -> dict:
    """What the reference keeps of one ``fit``: iterations, convergence, label
    counts, parameters and the indicator digest."""
    with open(summary_path, encoding="utf-8") as fh:
        summary = json.load(fh)
    models = summary["models"]
    params = [
        [m["rate"]] if m["kind"] == "exponential" else [m["shape"], m["scale"]]
        for m in models
    ]
    for value in (v for p in params for v in p):
        if not (math.isfinite(value) and value > 0.0):
            raise CheckFailed(f"fit reported parameter {value!r}")
    labels = indicator_labels(indicator_path, summary["samples"])
    counts = [int(np.count_nonzero(labels == k)) for k in (EXPONENTIAL, GAMMA)]
    if counts != [m["label_count"] for m in models]:
        raise CheckFailed(f"summary label counts disagree with the indicator {counts}")
    return {
        "iterations_used": summary["iterations_used"],
        "converged": summary["converged"],
        "label_counts": counts,
        "params": params,
        "indicator_sha256": _sha256(indicator_path),
    }


def compare(reference, got, where: str = "") -> None:
    """Raise CheckFailed unless ``got`` matches ``reference``: floats within
    1e-12 relative error, everything else exactly."""
    if isinstance(reference, float) and isinstance(got, (int, float)):
        if abs(got - reference) > 1e-12 * abs(reference):
            raise CheckFailed(f"{where}: {got!r} differs from reference {reference!r}")
    elif isinstance(reference, dict) and isinstance(got, dict):
        if reference.keys() != got.keys():
            raise CheckFailed(f"{where}: keys {sorted(got)} != {sorted(reference)}")
        for key in reference:
            compare(reference[key], got[key], f"{where}.{key}")
    elif isinstance(reference, list) and isinstance(got, list):
        if len(reference) != len(got):
            raise CheckFailed(f"{where}: {len(got)} items, reference has {len(reference)}")
        for index, (ref, item) in enumerate(zip(reference, got)):
            compare(ref, item, f"{where}[{index}]")
    elif reference != got or type(reference) is not type(got):
        raise CheckFailed(f"{where}: {got!r} differs from reference {reference!r}")


class Workload:
    name = ""
    min_ops = 1  # enough for every input to run once and one to run twice
    pass_ops: tuple[int, ...] = (0,)  # the operations of one traced pass
    fit_samples = 0  # samples one EM fit sees
    trace_samples = 0  # samples of the largest trace

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work

    def op(self, i: int) -> dict[str, float]:
        """Run operation ``i``; return its wall times in seconds by phase,
        ``"op"`` being the whole operation."""
        raise NotImplementedError

    def truth_agreement(self) -> float:
        raise NotImplementedError

    def reference(self) -> dict:
        raise NotImplementedError

    def views(self, timings: list[dict]) -> list[tuple[str, float, str, str]]:
        """This workload's own metric names as (name, value, unit, note)."""
        return []

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)


# Gamma shape/scale, exponential rate and split point vary, so EM takes from
# about ten iterations to the full budget of 50; the last mix is one regime.
MONITOR_MIXES = (
    (("gamma", 4.0, 1.0, 15000), ("exp", 1.0, None, 15000)),
    (("gamma", 2.0, 0.5, 10000), ("exp", 2.0, None, 20000)),
    (("exp", 0.5, None, 20000), ("gamma", 8.0, 0.25, 10000)),
    (("gamma", 1.5, 1.0, 15000), ("exp", 0.8, None, 15000)),
    (("gamma", 3.0, 2.0, 25000), ("exp", 0.25, None, 5000)),
    (("gamma", 0.7, 2.0, 15000), ("exp", 1.0, None, 15000)),
    (("gamma", 2.5, 0.2, 12000), ("exp", 3.0, None, 18000)),
    (("gamma", 6.0, 0.5, 30000),),
)
MONITOR_DRAWS = 13  # distinct traces per mix: 104, so every run times over 100 fits


class Monitor(Workload):
    """``jitterfit fit`` over a rotation of distinct 30k-sample traces."""

    name = "monitor"
    pass_ops = tuple(range(len(MONITOR_MIXES)))
    fit_samples = trace_samples = TRACE_LEN

    def __init__(self, seed: int, work: str):
        super().__init__(seed, work)
        self.traces = []
        self.truth = []
        for draw in range(MONITOR_DRAWS):
            for mix_index, mix in enumerate(MONITOR_MIXES):
                samples, truth = draw_segments(_rng(seed, 1, mix_index, draw), mix)
                path = self.path(f"monitor-{mix_index}-{draw}.txt")
                write_samples(samples, path)
                self.traces.append(path)
                self.truth.append(truth)
        self.min_ops = len(self.traces) + 1
        self.first_runs: dict[int, tuple[bytes, str]] = {}
        self.agreement: dict[int, tuple[int, int]] = {}

    def _fit(self, trace: str) -> tuple[float, dict, bytes]:
        summary, indicator = self.path("summary.json"), self.path("indicator.csv")
        elapsed = _cli(
            ["fit", trace, "--indicator-out", indicator, "--summary-out", summary]
        )
        record = fit_record(summary, indicator)
        with open(summary, "rb") as fh:
            return elapsed, record, fh.read()

    def op(self, i: int) -> dict[str, float]:
        k = i % len(self.traces)
        elapsed, record, summary = self._fit(self.traces[k])
        outputs = (summary, record["indicator_sha256"])
        if k in self.first_runs:
            if outputs != self.first_runs[k]:
                raise CheckFailed(f"re-run of monitor trace {k} changed its outputs")
        else:
            self.first_runs[k] = outputs
            labels = indicator_labels(self.path("indicator.csv"), TRACE_LEN)
            matches = int(np.count_nonzero(labels == self.truth[k]))
            self.agreement[k] = (matches, TRACE_LEN)
        return {"op": elapsed}

    def views(self, timings):
        fits_ms = [t["op"] * 1e3 for t in timings]
        tail = tail_percentile(len(fits_ms))
        return [
            ("fit_p50_ms", percentile(fits_ms, 50.0), "ms", f"median of {len(fits_ms)} fits"),
            ("fit_tail_ms", percentile(fits_ms, tail), "ms", f"p{tail:g} of {len(fits_ms)} fits"),
        ]

    def truth_agreement(self) -> float:
        matches = sum(m for m, _ in self.agreement.values())
        total = sum(n for _, n in self.agreement.values())
        return matches / total

    def reference(self) -> dict:
        fits = []
        for mix_index, mix in enumerate(MONITOR_MIXES):
            samples, _ = draw_segments(_rng(REFERENCE_SEED, 1, mix_index), mix)
            path = self.path(f"reference-{mix_index}.txt")
            write_samples(samples, path)
            fits.append(self._fit(path)[1])
        return {"fits": fits}


# Segment lengths are not multiples of the window or the stride, so windows
# straddle every regime boundary at a different offset.
SCAN_SEGMENTS = (
    ("gamma", 4.0, 1.0, 17300),
    ("exp", 1.0, None, 23900),
    ("gamma", 2.0, 0.5, 14100),
    ("exp", 2.0, None, 19700),
    ("gamma", 8.0, 0.25, 25000),
)
SCAN_REFERENCE_SEGMENTS = (
    ("gamma", 4.0, 1.0, 6100),
    ("exp", 1.0, None, 7300),
    ("gamma", 2.0, 0.5, 6600),
)
SCAN_REFERENCE_STRIDE = 500


def _segment_of(bounds: np.ndarray, start: int, end: int) -> int | None:
    """Index of the segment holding all of [start, end), else None."""
    index = int(np.searchsorted(bounds, start, side="right"))
    return index if end <= bounds[index] else None


class Scan(Workload):
    """ingest → scan_trace → announce round trip, through the library API."""

    name = "scan"
    min_ops = 2
    fit_samples = WINDOW
    trace_samples = sum(segment[3] for segment in SCAN_SEGMENTS)

    def __init__(self, seed: int, work: str):
        super().__init__(seed, work)
        samples, _ = draw_segments(_rng(seed, 2), SCAN_SEGMENTS)
        self.trace = self.path("scan.txt")
        write_samples(samples, self.trace)
        self.first_run = None

    def _scan(self, path: str, stride: int):
        start = time.perf_counter()
        trace = jitterfit.ingest_trace(path)
        timeline = jitterfit.scan_trace(trace, jitterfit.WindowSpec(WINDOW, stride))
        records = []
        for report in timeline.reports:
            record = jitterfit.RegimeAnnouncement.from_model_params(
                report.params[int(report.dominant)], report.start, report.end - report.start
            )
            records.append((record, jitterfit.decode(jitterfit.encode(record))))
        elapsed = time.perf_counter() - start
        self._check(timeline, records, len(trace), stride)
        return elapsed, timeline

    @staticmethod
    def _check(timeline, records, samples: int, stride: int) -> None:
        expected = len(range(0, samples - WINDOW + 1, stride))
        if len(timeline.reports) + len(timeline.failures) != expected:
            raise CheckFailed(f"scan placed the wrong number of windows (expected {expected})")
        for report in timeline.reports:
            exponential_wins = report.fraction_model0 >= 0.5
            if exponential_wins != (report.dominant == jitterfit.ModelKind.EXPONENTIAL):
                raise CheckFailed(f"window {report.start}: dominant disagrees with its labels")
        reports = timeline.reports
        flips = tuple(b.start for a, b in zip(reports, reports[1:]) if a.dominant != b.dominant)
        if flips != timeline.change_points:
            raise CheckFailed("change points disagree with the dominant sequence")
        for sent, received in records:
            if sent != received:
                raise CheckFailed(f"announcement {sent} decoded as {received}")

    def op(self, i: int) -> dict[str, float]:
        elapsed, timeline = self._scan(self.trace, SCAN_STRIDE)
        if self.first_run is None:
            self.first_run = timeline
        elif timeline != self.first_run:
            raise CheckFailed("re-run of the scan changed its timeline")
        return {"op": elapsed}

    def views(self, timings):
        if not timings:
            return []
        windows = len(self.first_run.reports) * len(timings)
        rate = windows / sum(t["op"] for t in timings)
        return [("scan_windows_per_s", rate, "1/s", f"{windows} windows")]

    def truth_agreement(self) -> float:
        lengths = [segment[3] for segment in SCAN_SEGMENTS]
        bounds = np.cumsum(lengths)
        pure = matches = 0
        for report in self.first_run.reports:
            segment = _segment_of(bounds, report.start, report.end)
            if segment is None:
                continue
            pure += 1
            truth = EXPONENTIAL if SCAN_SEGMENTS[segment][0] == "exp" else GAMMA
            matches += int(report.dominant) == truth
        return matches / pure

    def reference(self) -> dict:
        samples, _ = draw_segments(_rng(REFERENCE_SEED, 2), SCAN_REFERENCE_SEGMENTS)
        path = self.path("scan-reference.txt")
        write_samples(samples, path)
        _, timeline = self._scan(path, SCAN_REFERENCE_STRIDE)
        return {
            "dominant_sequence": [r.dominant.name.lower() for r in timeline.reports],
            "change_points": list(timeline.change_points),
            "failures": [[f.start, f.end, f.message] for f in timeline.failures],
            "windows": [
                {
                    "start": r.start,
                    "end": r.end,
                    "converged": r.converged,
                    "fraction_model0": r.fraction_model0,
                    "params": [
                        [p.rate] if p.kind == jitterfit.ModelKind.EXPONENTIAL else [p.shape, p.scale]
                        for p in r.params
                    ],
                }
                for r in timeline.reports
            ],
        }


# Overlapping regimes: at 1M samples a few labels keep flipping, so every
# seed runs the full budget of 50 EM iterations.  A converging mix would let
# the seed decide between about 31 and 44 iterations, a spread larger than
# the benchmark's bound.
ARCHIVE_SEGMENTS = "gamma:a=2:b=0.5:500000,exp:mu=2:500000"
ARCHIVE_KINDS = (GAMMA, EXPONENTIAL)  # true model of each segment, in order
ARCHIVE_REFERENCE_SEGMENTS = "gamma:a=2:b=0.5:50000,exp:mu=2:50000"


class Archive(Workload):
    """``jitterfit gen`` of a 1M-sample trace, then ``fit --history-cap 0``."""

    name = "archive"
    min_ops = 2
    fit_samples = trace_samples = 1_000_000

    def __init__(self, seed: int, work: str):
        super().__init__(seed, work)
        self.first_run = None
        self.agreement = 0.0

    def _round(self, segments: str, seed: int) -> tuple[float, float, dict]:
        trace, indicator, summary = (
            self.path("archive.txt"),
            self.path("archive-indicator.csv"),
            self.path("archive-summary.json"),
        )
        gen_s = _cli(["gen", trace, "--segments", segments, "--seed", str(seed)])
        fit_s = _cli(
            ["fit", trace, "--history-cap", "0", "--indicator-out", indicator,
             "--summary-out", summary]
        )
        record = {
            "trace_sha256": _sha256(trace),
            "labels_sha256": _sha256(trace + ".labels"),
            "fit": fit_record(summary, indicator),
        }
        return gen_s, fit_s, record

    def op(self, i: int) -> dict[str, float]:
        gen_s, fit_s, record = self._round(ARCHIVE_SEGMENTS, self.seed)
        if self.first_run is None:
            self.first_run = record
            with open(self.path("archive.txt.labels"), "rb") as fh:
                segment = np.frombuffer(fh.read(), dtype=np.uint8)[0::2] - ord("0")
            truth = np.asarray(ARCHIVE_KINDS, dtype=np.int8)[segment]
            labels = indicator_labels(self.path("archive-indicator.csv"), truth.size)
            self.agreement = float(np.count_nonzero(labels == truth)) / truth.size
        elif record != self.first_run:
            raise CheckFailed("re-run of gen + fit changed its outputs")
        return {"op": gen_s + fit_s, "gen": gen_s, "fit": fit_s}

    def views(self, timings):
        return [
            (f"archive_{phase}_s", percentile([t[phase] for t in timings], 50.0), "s",
             f"median of {len(timings)}")
            for phase in ("fit", "gen")
        ]

    def truth_agreement(self) -> float:
        return self.agreement

    def reference(self) -> dict:
        return self._round(ARCHIVE_REFERENCE_SEGMENTS, REFERENCE_SEED)[2]


WORKLOADS = {w.name: w for w in (Monitor, Scan, Archive)}
