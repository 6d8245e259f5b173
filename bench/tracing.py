"""Span tracing at jitterfit's module boundaries, from outside the package.

Every public function of a jitterfit module is wrapped under each name a
caller looks it up by: ``jitterfit.em.log_pdf_many`` is the wrapper em_fit
reaches, ``jitterfit.scan.em_fit`` the one scan_trace reaches, and
``jitterfit.encode`` the one the benchmark itself calls.  A span keeps its
name, start, end and parent; the layer it belongs to is the module that
defines the function.  Self time is a span's duration minus the time its
child spans cover, so the self times of all spans add up to the traced wall
time of the root spans.

Nothing under ``src/`` changes: the wrappers are installed with ``setattr``
on the module objects and removed again by :meth:`Tracer.uninstall`.
"""

import functools
import inspect
import os
import time
from dataclasses import dataclass

from stats import percentile, tail_percentile

MODULES = (
    "jitterfit",
    "jitterfit.cli",
    "jitterfit.traceio",
    "jitterfit.em",
    "jitterfit.distributions",
    "jitterfit.special",
    "jitterfit.scan",
    "jitterfit.announce",
)


@dataclass
class Span:
    name: str
    layer: str
    function: str
    start: float
    end: float = 0.0
    parent: int = -1
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _path_size(path) -> int:
    if isinstance(path, (str, os.PathLike)) and os.path.isfile(path):
        return os.path.getsize(path)
    return 0


class Tracer:
    """Records spans while installed; ``spans`` and ``counts`` hold one pass.

    ``counts`` gathers what a span's arguments or result say about the work
    done: iterations per fit, frozen refits, scanned windows, file and
    record bytes.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = {}
        self._stack = []

    def _count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(amount)

    def _observe(self, function: str, args, result) -> None:
        if function == "em_fit":
            self._count("em.iterations", result.iterations_used)
            self._count("em.converged", result.converged)
        elif function == "m_step":
            self._count("em.frozen_refits", len(result[1]))
        elif function == "scan_trace":
            self._count("scan.windows", len(result.reports))
            self._count("scan.failures", len(result.failures))
        elif function == "encode":
            self._count("announce.bytes", len(result))
        elif function == "ingest_trace":
            self._count("traceio.bytes_read", _path_size(args[0]))
        elif function in ("write_trace", "emit_indicator_csv"):
            self._count("traceio.bytes_written", _path_size(args[1]))

    def _wrap(self, func, name: str, layer: str, function: str):
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, layer, function, clock(), parent=parent)
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = clock()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent].child_s += span.duration
            self._observe(function, args, result)
            return result

        return traced

    def install(self, modules) -> None:
        """Wrap every public jitterfit function in each module's namespace,
        plus the announcement constructor the scan workload calls."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith("jitterfit."):
                    continue
                layer = value.__module__.rsplit(".", 1)[1]
                wrapper = self._wrap(value, f"{module.__name__}.{attr}", layer, attr)
                self._undo.append((module, attr, value))
                setattr(module, attr, wrapper)
        announce = next(m for m in modules if m.__name__ == "jitterfit.announce")
        cls = announce.RegimeAnnouncement
        original = cls.__dict__["from_model_params"]
        wrapped = self._wrap(
            original.__func__,
            "jitterfit.announce.RegimeAnnouncement.from_model_params",
            "announce",
            "from_model_params",
        )
        self._undo.append((cls, "from_model_params", original))
        cls.from_model_params = classmethod(wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []


# Every per-layer metric with its unit and better direction.  Counts, bytes
# and the converged ratio are exact: they must repeat in every traced pass.
LAYER_METRICS = {
    "cli.self_s": ("s", "lower"),
    "traceio.ingest_s": ("s", "lower"),
    "traceio.indicator_s": ("s", "lower"),
    "traceio.write_trace_s": ("s", "lower"),
    "traceio.generate_s": ("s", "lower"),
    "traceio.bytes_read": ("B", "lower"),
    "traceio.bytes_written": ("B", "lower"),
    "em.self_s": ("s", "lower"),
    "em.m_step_s": ("s", "lower"),
    "em.m_step_calls": ("count", "lower"),
    "em.fits": ("count", "higher"),
    "em.iterations": ("count", "lower"),
    "em.converged_ratio": ("ratio", "higher"),
    "em.frozen_refits": ("count", "lower"),
    "distributions.log_pdf_many_s": ("s", "lower"),
    "distributions.log_pdf_many_calls": ("count", "lower"),
    "distributions.mle_gamma_s": ("s", "lower"),
    "distributions.mle_gamma_calls": ("count", "lower"),
    "distributions.mle_exponential_s": ("s", "lower"),
    "special.calls": ("count", "lower"),
    "special.s": ("s", "lower"),
    "scan.windows": ("count", "higher"),
    "scan.failures": ("count", "lower"),
    "scan.self_s": ("s", "lower"),
    "scan.window_fit_p50_ms": ("ms", "lower"),
    "scan.window_fit_tail_ms": ("ms", "lower"),
    "announce.records": ("count", "higher"),
    "announce.bytes": ("B", "lower"),
    "announce.encode_s": ("s", "lower"),
    "announce.decode_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def is_exact(name: str) -> bool:
    return LAYER_METRICS[name][0] not in ("s", "ms") and name != "trace.overhead_ratio"


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass: self times in seconds, counts."""
    self_by_layer: dict[str, float] = {}
    self_by_function: dict[str, float] = {}
    calls_by_function: dict[str, int] = {}
    calls_by_layer: dict[str, int] = {}
    window_fits_ms: list[float] = []
    for span in tracer.spans:
        key = f"{span.layer}.{span.function}"
        self_by_layer[span.layer] = self_by_layer.get(span.layer, 0.0) + span.self_s
        self_by_function[key] = self_by_function.get(key, 0.0) + span.self_s
        calls_by_function[key] = calls_by_function.get(key, 0) + 1
        calls_by_layer[span.layer] = calls_by_layer.get(span.layer, 0) + 1
        if span.name == "jitterfit.scan.em_fit":
            window_fits_ms.append(span.duration * 1e3)
    counts = tracer.counts
    fits = calls_by_function.get("em.em_fit", 0)
    tail = tail_percentile(len(window_fits_ms))
    return {
        "cli.self_s": self_by_layer.get("cli", 0.0),
        "traceio.ingest_s": self_by_function.get("traceio.ingest_trace", 0.0),
        "traceio.indicator_s": self_by_function.get("traceio.emit_indicator_csv", 0.0),
        "traceio.write_trace_s": self_by_function.get("traceio.write_trace", 0.0),
        "traceio.generate_s": self_by_function.get("traceio.generate_synthetic", 0.0),
        "traceio.bytes_read": counts.get("traceio.bytes_read", 0),
        "traceio.bytes_written": counts.get("traceio.bytes_written", 0),
        "em.self_s": self_by_layer.get("em", 0.0),
        "em.m_step_s": self_by_function.get("em.m_step", 0.0),
        "em.m_step_calls": calls_by_function.get("em.m_step", 0),
        "em.fits": fits,
        "em.iterations": counts.get("em.iterations", 0),
        "em.converged_ratio": counts.get("em.converged", 0) / fits if fits else 0.0,
        "em.frozen_refits": counts.get("em.frozen_refits", 0),
        "distributions.log_pdf_many_s": self_by_function.get(
            "distributions.log_pdf_many", 0.0
        ),
        "distributions.log_pdf_many_calls": calls_by_function.get(
            "distributions.log_pdf_many", 0
        ),
        "distributions.mle_gamma_s": self_by_function.get("distributions.mle_gamma", 0.0),
        "distributions.mle_gamma_calls": calls_by_function.get(
            "distributions.mle_gamma", 0
        ),
        "distributions.mle_exponential_s": self_by_function.get(
            "distributions.mle_exponential", 0.0
        ),
        "special.calls": calls_by_layer.get("special", 0),
        "special.s": self_by_layer.get("special", 0.0),
        "scan.windows": counts.get("scan.windows", 0),
        "scan.failures": counts.get("scan.failures", 0),
        "scan.self_s": self_by_layer.get("scan", 0.0),
        "scan.window_fit_p50_ms": percentile(window_fits_ms, 50.0),
        "scan.window_fit_tail_ms": percentile(window_fits_ms, tail),
        "announce.records": calls_by_function.get("announce.encode", 0),
        "announce.bytes": counts.get("announce.bytes", 0),
        "announce.encode_s": self_by_function.get("announce.encode", 0.0),
        "announce.decode_s": self_by_function.get("announce.decode", 0.0),
    }
