"""Windowed regime classification over a jitter trace.

A fixed-size window slides across the trace; each placement gets an
independent EM run, and the dominant model per window builds a coarse
regime timeline.  A change point is reported wherever consecutive windows
disagree about the dominant model.
"""

from dataclasses import dataclass

from .distributions import ModelKind, ModelParams
from .em import EMConfig, _em_sorted
from .errors import InsufficientDataError, ParameterDomainError, SetupError, _int_field
from .traceio import JitterTrace

__all__ = [
    "WindowSpec",
    "WindowReport",
    "WindowFailure",
    "RegimeTimeline",
    "sliding_windows",
    "scan_trace",
]


@dataclass(frozen=True)
class WindowSpec:
    """Window geometry for a scan.

    The default window of 3500 samples is small enough to react to a regime
    shift within a few windows yet large enough that the gamma shape solve
    is stable.  ``stride=None`` means non-overlapping windows (stride equal
    to the window size).
    """

    size: int = 3500
    stride: int | None = None

    def __post_init__(self):
        size = _int_field("window size", self.size)
        if size < 100:
            raise ParameterDomainError(
                f"window size must be at least 100 samples, got {size}"
            )
        object.__setattr__(self, "size", size)
        stride = size if self.stride is None else _int_field("stride", self.stride)
        if stride < 1:
            raise ParameterDomainError(f"stride must be at least 1, got {stride}")
        object.__setattr__(self, "stride", stride)


@dataclass(frozen=True)
class WindowReport:
    """Outcome of one window's EM run."""

    start: int
    end: int
    dominant: ModelKind
    fraction_model0: float
    params: tuple[ModelParams, ...]
    converged: bool


@dataclass(frozen=True)
class WindowFailure:
    """A window whose EM run could not start."""

    start: int
    end: int
    message: str


@dataclass(frozen=True)
class RegimeTimeline:
    """All window reports of one scan plus the derived change points.

    ``change_points`` holds the start index of every window whose dominant
    model differs from the previous window's.
    """

    reports: tuple[WindowReport, ...]
    change_points: tuple[int, ...]
    failures: tuple[WindowFailure, ...] = ()


def sliding_windows(n_samples: int, spec: WindowSpec) -> list[tuple[int, int]]:
    """Window placements [start, end) over a trace of ``n_samples``.

    Placements begin at 0 and advance by the stride; only full windows are
    returned, so a trailing remainder shorter than the window is dropped.
    """
    n = int(n_samples)
    if n < spec.size:
        raise InsufficientDataError(
            f"trace of {n} samples is shorter than one window of {spec.size}"
        )
    return [(start, start + spec.size) for start in range(0, n - spec.size + 1, spec.stride)]


def scan_trace(
    trace: JitterTrace,
    spec: WindowSpec = WindowSpec(),
    config: EMConfig = EMConfig(),
) -> RegimeTimeline:
    """Classify every window placement and assemble the regime timeline.

    Each window is fitted independently, including its own initialization,
    so one window's outcome cannot leak into the next.  A window whose
    initial fits fail outright is recorded as a failure and skipped; the
    timeline is built from the windows that did run.

    A window's fit is :func:`~jitterfit.em.em_fit`'s engine run on the
    window slice, so its report equals the one built from ``em_fit`` on that
    window.  The scan takes the label counts from the final run lengths and
    skips what it never reports: the per-pass log-likelihoods, the labels in
    trace order and the final log-likelihood.
    """
    reports: list[WindowReport] = []
    failures: list[WindowFailure] = []
    for start, end in sliding_windows(len(trace), spec):
        try:
            fit = _em_sorted(trace.samples[start:end], config)
        except SetupError as exc:
            failures.append(WindowFailure(start, end, str(exc)))
            continue
        counts = [0] * len(ModelKind)
        for run_start, run_stop, model in fit.runs:
            counts[model] += run_stop - run_start
        # Ties go to model 0, the exponential, as np.argmax would give them.
        dominant = ModelKind(int(counts[1] > counts[0]))
        reports.append(
            WindowReport(
                start=start,
                end=end,
                dominant=dominant,
                fraction_model0=float(counts[0]) / spec.size,
                params=tuple(fit.params),
                converged=fit.converged,
            )
        )
    change_points = tuple(
        later.start
        for earlier, later in zip(reports, reports[1:])
        if earlier.dominant != later.dominant
    )
    return RegimeTimeline(tuple(reports), change_points, tuple(failures))
