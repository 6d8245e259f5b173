"""Candidate delay-jitter models: densities and maximum-likelihood fits.

Two families are supported.  The exponential model has density
``mu * exp(-mu * v)`` for v >= 0 with rate ``mu`` in 1/seconds.  The gamma
model has density ``v**(a-1) * exp(-v/b) / (b**a * Gamma(a))`` with shape
``a`` and scale ``b`` in seconds.  A gamma model with a = 1 and b = 1/mu is
the same distribution as an exponential with rate mu, which several tests
lean on.

All densities are computed in log space; downstream code never needs the
raw density and the log form stays finite over the whole usable range.
"""

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import (
    DegenerateDataError,
    InsufficientDataError,
    NonConvergenceError,
    ParameterDomainError,
    SingularDensityError,
)
from .special import _shape_terms, ln_gamma

__all__ = [
    "GAMMA_SHAPE_CAP",
    "MIN_SUBSET_SIZE",
    "ModelKind",
    "ModelParams",
    "log_pdf",
    "log_pdf_many",
    "mle_exponential",
    "mle_gamma",
]

# The Newton solve for the gamma shape aborts past this value: data that push
# the shape this high are indistinguishable from a point mass at the scale of
# double precision, and the fit would only chase rounding noise.
GAMMA_SHAPE_CAP = 1e6

# The Newton solve stops once a step moves the shape by at most this share of
# it, and gives up with NonConvergenceError after this many steps.
_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITERS = 100


class ModelKind(IntEnum):
    """Candidate model families.

    The integer values are meaningful: they define the model ordering used
    for tie-breaking during assignment and the model id byte on the wire.
    """

    EXPONENTIAL = 0
    GAMMA = 1


# Smallest subset each family can be fitted on: the exponential mean needs
# one sample, the gamma shape solve needs two distinct ones.
MIN_SUBSET_SIZE = {ModelKind.EXPONENTIAL: 1, ModelKind.GAMMA: 2}


def _finite_positive(value, name: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ParameterDomainError(f"{name} must be finite and positive, got {value!r}")
    return value


@dataclass(frozen=True)
class ModelParams:
    """Parameter set for one candidate model.

    Exactly the fields that belong to ``kind`` are populated: ``rate`` for
    an exponential model, ``shape`` and ``scale`` for a gamma model.  The
    constructors :meth:`exponential` and :meth:`gamma` are the intended way
    to build one.
    """

    kind: ModelKind
    rate: float | None = None
    shape: float | None = None
    scale: float | None = None

    def __post_init__(self):
        kind = ModelKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind is ModelKind.EXPONENTIAL:
            if self.shape is not None or self.scale is not None:
                raise ParameterDomainError("an exponential model has no shape or scale")
            object.__setattr__(self, "rate", _finite_positive(self.rate, "rate"))
        else:
            if self.rate is not None:
                raise ParameterDomainError("a gamma model has no rate field")
            object.__setattr__(self, "shape", _finite_positive(self.shape, "shape"))
            object.__setattr__(self, "scale", _finite_positive(self.scale, "scale"))

    @classmethod
    def exponential(cls, rate: float) -> "ModelParams":
        """Exponential model with the given rate (1/seconds)."""
        return cls(ModelKind.EXPONENTIAL, rate=rate)

    @classmethod
    def gamma(cls, shape: float, scale: float) -> "ModelParams":
        """Gamma model with the given shape and scale (seconds)."""
        return cls(ModelKind.GAMMA, shape=shape, scale=scale)


def _unchecked_params(kind: ModelKind, rate=None, shape=None, scale=None) -> ModelParams:
    """A :class:`ModelParams` built without validation, for fits that have
    checked their own results: ``kind`` a :class:`ModelKind`, and exactly
    its fields given as finite positive floats."""
    params = object.__new__(ModelParams)
    params.__dict__.update(kind=kind, rate=rate, shape=shape, scale=scale)
    return params


def log_pdf(params: ModelParams, v: float) -> float:
    """Log-density of one model at a single jitter value ``v`` (seconds).

    Returns ``-inf`` where the density is zero (negative v, or v = 0 for a
    gamma model with shape > 1).  A gamma density with shape < 1 diverges at
    v = 0, which raises :class:`SingularDensityError` rather than returning
    a misleading infinity.  The one-element case of :func:`log_pdf_many`.
    """
    return float(log_pdf_many(params, np.array([float(v)]))[0])


def _log_pdf_unchecked(params: ModelParams, v: np.ndarray, log_v) -> np.ndarray:
    """Log-densities at values already known to be in the support:
    ``v >= 0`` for an exponential model, ``v > 0`` with ``log_v = ln v`` for
    a gamma one (``log_v`` is unused for an exponential model).

    Far-tail values can overflow ``rate * v`` or ``v / b``; the resulting
    -inf is exactly the right log-density there, so callers silence
    overflow warnings.
    """
    if params.kind is ModelKind.EXPONENTIAL:
        return math.log(params.rate) - params.rate * v
    a, b = params.shape, params.scale
    return (a - 1.0) * log_v - v / b - (a * math.log(b) + ln_gamma(a))


def log_pdf_many(params: ModelParams, values) -> np.ndarray:
    """Vectorized :func:`log_pdf` over a 1-d array of jitter values."""
    v = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ParameterDomainError("jitter values must all be finite")
    out = np.full(v.shape, -np.inf, dtype=np.float64)
    if params.kind is ModelKind.EXPONENTIAL:
        ok = v >= 0.0
        with np.errstate(over="ignore"):
            out[ok] = _log_pdf_unchecked(params, v[ok], None)
        return out
    a, b = params.shape, params.scale
    if a < 1.0 and np.any(v == 0.0):
        raise SingularDensityError(
            f"gamma density with shape {a!r} < 1 diverges at v = 0"
        )
    pos = v > 0.0
    vp = v[pos]
    with np.errstate(over="ignore"):
        out[pos] = _log_pdf_unchecked(params, vp, np.log(vp))
    if a == 1.0:
        out[v == 0.0] = -math.log(b)
    return out


def _fit_sorted(kind: ModelKind, s: np.ndarray, logs) -> ModelParams:
    """The MLE of ``kind`` on finite positive samples ``s`` in ascending
    order, with ``logs = ln s`` for a gamma fit (unused for an exponential
    one).

    Each mean is the sum over the samples in that order divided by their
    count, so every caller that holds the same samples gets the same bits.
    A sum past the largest double, or a rate or scale that leaves the
    finite positive doubles, raises :class:`DegenerateDataError`; callers
    silence numpy's overflow warning for the sum.  Constant samples have no
    gamma fit, and raise the error of a log-moment gap of 0.0 whatever
    rounding makes of their means.  The result is checked here, so it is
    built without :class:`ModelParams`' validation.
    """
    minimum = MIN_SUBSET_SIZE[kind]
    if s.size < minimum:
        raise InsufficientDataError(
            f"{kind.name.lower()} fit needs at least {minimum} sample(s), got {s.size}"
        )
    # np.add.reduce is the reduction s.sum() runs, without the Python-level
    # wrapper around it: the same pairwise sum, bit for bit.
    total = float(np.add.reduce(s))
    if not math.isfinite(total):
        raise DegenerateDataError(
            "samples sum past the largest double; rescale the trace to fit it"
        )
    # Not s.mean(): the same value, without its per-call overhead.
    mean = total / s.size
    if kind is ModelKind.EXPONENTIAL:
        rate = 1.0 / mean
        if not math.isfinite(rate):
            raise DegenerateDataError(
                f"exponential rate 1/mean = {rate!r} is not a finite double; "
                "rescale the trace to fit it"
            )
        return _unchecked_params(kind, rate=rate)
    # Constant samples have a log-moment gap of exactly 0, which the two
    # rounded means can miss by a few ulps either way.
    constant = s.item(0) == s.item(-1)
    gap = 0.0 if constant else math.log(mean) - float(np.add.reduce(logs)) / s.size
    return _gamma_from_log_moments(mean, gap)


def _mle(kind: ModelKind, samples) -> ModelParams:
    """:func:`_fit_sorted` on the sorted ``samples``, a 1-d array of finite
    positive values."""
    what = f"{kind.name.lower()} fit"
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 1:
        raise ParameterDomainError(f"{what} expects a 1-d array of samples")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ParameterDomainError(f"{what} requires finite positive samples")
    s = np.sort(arr)
    with np.errstate(over="ignore"):
        return _fit_sorted(kind, s, np.log(s) if kind is ModelKind.GAMMA else None)


def mle_exponential(samples) -> ModelParams:
    """Maximum-likelihood exponential fit: rate = 1 / sample mean.

    The mean sums the samples in ascending order, so the fit depends only on
    the samples, not on the order they come in.  Samples that sum past the
    largest double, or whose mean is so small that its reciprocal
    overflows, raise :class:`DegenerateDataError`.
    """
    return _mle(ModelKind.EXPONENTIAL, samples)


def mle_gamma(samples) -> ModelParams:
    """Maximum-likelihood gamma fit via Newton iteration on the shape.

    The stationarity condition couples the two parameters through
    ``s = ln(mean) - mean(ln v)``; the shape solves ``ln(a) - psi(a) = s``
    and the scale is then ``mean / a``.  The Newton solve starts from the
    standard closed-form approximation

        a0 = (3 - s + sqrt((s - 3)**2 + 24 s)) / (12 s)

    and stops when the relative step falls below 1e-10.  Both means sum
    the samples in ascending order, so the fit, and whether it fails,
    depend only on the samples, not on the order they come in.

    Raises
    ------
    DegenerateDataError
        If the samples are all equal or s <= 0 (equal up to rounding), the
        shape iterate escapes past :data:`GAMMA_SHAPE_CAP`, the samples sum
        past the largest double, or the scale ``mean / a`` overflows or
        underflows to zero.
    NonConvergenceError
        If 100 Newton steps do not settle the shape; the exception carries
        the last shape iterate.
    """
    return _mle(ModelKind.GAMMA, samples)


def _gamma_from_log_moments(mean: float, s: float) -> ModelParams:
    """The Newton shape solve of :func:`mle_gamma`, from ``mean`` and the
    log-moment gap ``s = ln(mean) - mean(ln v)`` of samples the caller has
    already validated."""
    # Jensen guarantees s >= 0 with equality only for constant data, so a
    # non-positive s (allowing for rounding) has no interior optimum.
    if s <= 0.0:
        raise DegenerateDataError(
            f"samples show no usable spread (log-moment gap s = {s!r}); "
            "the gamma likelihood has no finite optimum"
        )
    a = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    for _ in range(_NEWTON_MAX_ITERS):
        ln_minus_digamma, trigamma = _shape_terms(a)
        residual = ln_minus_digamma - s
        slope = 1.0 / a - trigamma
        # ln a - psi(a) falls and is convex, and the closed-form start is
        # within 1.5% of the root, so no step lands at or below 0.  The slope
        # rounds to 0 only far past the cap, from a ~ 6e15 up.
        a_next = a - residual / slope if slope else math.inf
        if a_next > GAMMA_SHAPE_CAP:
            raise DegenerateDataError(
                f"gamma shape estimate exceeded {GAMMA_SHAPE_CAP:g}; samples are "
                "too concentrated for a meaningful fit"
            )
        done = abs(a_next - a) <= _NEWTON_TOL * a_next
        a = a_next
        if done:
            scale = mean / a
            if not (0.0 < scale < math.inf):
                raise DegenerateDataError(
                    f"gamma scale mean/shape = {scale!r} is not a finite positive "
                    "double; rescale the trace to fit it"
                )
            return _unchecked_params(ModelKind.GAMMA, shape=a, scale=scale)
    raise NonConvergenceError(
        f"gamma shape solve did not converge in {_NEWTON_MAX_ITERS} iterations",
        last_iterate=a,
    )

