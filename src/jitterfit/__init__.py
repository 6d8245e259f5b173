"""Delay-jitter regime classification.

Fit competing per-packet jitter models (exponential and gamma) with
hard-assignment EM, watch a stream for regime changes with a sliding
window, and exchange the verdict as a compact binary announcement.
"""

from .announce import WIRE_VERSION, RegimeAnnouncement, decode, encode
from .distributions import (
    GAMMA_SHAPE_CAP,
    ModelKind,
    ModelParams,
    log_pdf,
    log_pdf_many,
    mle_exponential,
    mle_gamma,
)
from .em import MIN_SUBSET_SIZE, Assignment, EMConfig, e_step, em_fit, hard_assign, m_step
from .errors import (
    DegenerateDataError,
    InsufficientDataError,
    JitterFitError,
    NonConvergenceError,
    ParameterDomainError,
    SetupError,
    SingularDensityError,
    TraceFormatError,
    WireFormatError,
)
from .scan import (
    RegimeTimeline,
    WindowFailure,
    WindowReport,
    WindowSpec,
    scan_trace,
    sliding_windows,
)
from .special import digamma, ln_gamma, trigamma
from .traceio import (
    JitterTrace,
    LabeledTrace,
    RegimeSpec,
    emit_indicator_csv,
    generate_synthetic,
    ingest_trace,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # distributions
    "GAMMA_SHAPE_CAP",
    "ModelKind",
    "ModelParams",
    "log_pdf",
    "log_pdf_many",
    "mle_exponential",
    "mle_gamma",
    # special functions
    "ln_gamma",
    "digamma",
    "trigamma",
    # EM engine
    "MIN_SUBSET_SIZE",
    "EMConfig",
    "Assignment",
    "e_step",
    "hard_assign",
    "m_step",
    "em_fit",
    # windowed scanning
    "WindowSpec",
    "WindowReport",
    "WindowFailure",
    "RegimeTimeline",
    "sliding_windows",
    "scan_trace",
    # traces
    "JitterTrace",
    "LabeledTrace",
    "RegimeSpec",
    "ingest_trace",
    "write_trace",
    "emit_indicator_csv",
    "generate_synthetic",
    # announcements
    "WIRE_VERSION",
    "RegimeAnnouncement",
    "encode",
    "decode",
    # errors
    "JitterFitError",
    "ParameterDomainError",
    "SingularDensityError",
    "InsufficientDataError",
    "DegenerateDataError",
    "NonConvergenceError",
    "SetupError",
    "TraceFormatError",
    "WireFormatError",
]
