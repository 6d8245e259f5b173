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
from .special import digamma, ln_gamma, trigamma

__all__ = [
    "GAMMA_SHAPE_CAP",
    "ModelKind",
    "ModelParams",
    "log_pdf",
    "log_pdf_many",
    "mle_exponential",
    "mle_gamma",
    "gamma_moment_guess",
]

# The Newton solve for the gamma shape aborts past this value: data that push
# the shape this high are indistinguishable from a point mass at the scale of
# double precision, and the fit would only chase rounding noise.
GAMMA_SHAPE_CAP = 1e6


class ModelKind(IntEnum):
    """Candidate model families.

    The integer values are meaningful: they define the model ordering used
    for tie-breaking during assignment and the model id byte on the wire.
    """

    EXPONENTIAL = 0
    GAMMA = 1


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


def log_pdf(params: ModelParams, v: float) -> float:
    """Log-density of one model at a single jitter value ``v`` (seconds).

    Returns ``-inf`` where the density is zero (negative v, or v = 0 for a
    gamma model with shape > 1).  A gamma density with shape < 1 diverges at
    v = 0, which raises :class:`SingularDensityError` rather than returning
    a misleading infinity.
    """
    v = float(v)
    if not math.isfinite(v):
        raise ParameterDomainError(f"jitter value must be finite, got {v!r}")
    if params.kind is ModelKind.EXPONENTIAL:
        if v < 0.0:
            return -math.inf
        return math.log(params.rate) - params.rate * v
    a, b = params.shape, params.scale
    if v < 0.0:
        return -math.inf
    if v == 0.0:
        if a > 1.0:
            return -math.inf
        if a == 1.0:
            return -math.log(b)
        raise SingularDensityError(
            f"gamma density with shape {a!r} < 1 diverges at v = 0"
        )
    return (a - 1.0) * math.log(v) - v / b - a * math.log(b) - ln_gamma(a)


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


def _checked_samples(samples, minimum: int, what: str) -> np.ndarray:
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 1:
        raise ParameterDomainError(f"{what} expects a 1-d array of samples")
    if arr.size < minimum:
        raise InsufficientDataError(
            f"{what} needs at least {minimum} sample(s), got {arr.size}"
        )
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ParameterDomainError(f"{what} requires finite positive samples")
    return arr


def mle_exponential(samples) -> ModelParams:
    """Maximum-likelihood exponential fit: rate = 1 / sample mean."""
    arr = _checked_samples(samples, 1, "exponential fit")
    return ModelParams.exponential(1.0 / float(arr.mean()))


def mle_gamma(samples, tol: float = 1e-10, max_newton_iters: int = 100) -> ModelParams:
    """Maximum-likelihood gamma fit via Newton iteration on the shape.

    The stationarity condition couples the two parameters through
    ``s = ln(mean) - mean(ln v)``; the shape solves ``ln(a) - psi(a) = s``
    and the scale is then ``mean / a``.  The Newton solve starts from the
    standard closed-form approximation

        a0 = (3 - s + sqrt((s - 3)**2 + 24 s)) / (12 s)

    and stops when the relative step falls below ``tol``.

    Raises
    ------
    DegenerateDataError
        If s <= 0 (all samples effectively equal) or the shape iterate
        escapes past :data:`GAMMA_SHAPE_CAP`.
    NonConvergenceError
        If the iteration budget runs out first; the exception carries the
        last shape iterate.
    """
    arr = _checked_samples(samples, 2, "gamma fit")
    tol = float(tol)
    if not math.isfinite(tol) or tol <= 0.0:
        raise ParameterDomainError(f"tol must be finite and positive, got {tol!r}")
    if max_newton_iters < 1:
        raise ParameterDomainError("max_newton_iters must be at least 1")
    return _gamma_from_log_moments(
        float(arr.mean()), float(np.log(arr).mean()), tol, max_newton_iters
    )


def _gamma_from_log_moments(
    mean: float, mean_log: float, tol: float = 1e-10, max_newton_iters: int = 100
) -> ModelParams:
    """The Newton shape solve of :func:`mle_gamma`, from ``mean`` and
    ``mean(ln v)`` of samples the caller has already validated."""
    s = math.log(mean) - mean_log
    # Jensen guarantees s >= 0 with equality only for constant data, so a
    # non-positive s (allowing for rounding) has no interior optimum.
    if s <= 0.0:
        raise DegenerateDataError(
            f"samples show no usable spread (log-moment gap s = {s!r}); "
            "the gamma likelihood has no finite optimum"
        )
    a = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    for _ in range(max_newton_iters):
        residual = math.log(a) - digamma(a) - s
        slope = 1.0 / a - trigamma(a)
        a_next = a - residual / slope
        if a_next <= 0.0:
            # Overshoot below zero: fall back to halving, the objective is
            # monotone so the root cannot be passed this way.
            a_next = 0.5 * a
        if a_next > GAMMA_SHAPE_CAP:
            raise DegenerateDataError(
                f"gamma shape estimate exceeded {GAMMA_SHAPE_CAP:g}; samples are "
                "too concentrated for a meaningful fit"
            )
        done = abs(a_next - a) <= tol * a_next
        a = a_next
        if done:
            return ModelParams.gamma(a, mean / a)
    raise NonConvergenceError(
        f"gamma shape solve did not converge in {max_newton_iters} iterations",
        last_iterate=a,
    )


def gamma_moment_guess(samples) -> tuple[float, float]:
    """Method-of-moments (shape, scale) estimate for a gamma model.

    A cheap cross-check on :func:`mle_gamma`, not used by the fit itself:
    shape = mean**2 / var and scale = var / mean with the population
    variance.
    """
    arr = _checked_samples(samples, 2, "gamma moment guess")
    mean = float(arr.mean())
    var = float(arr.var())
    if var == 0.0:
        raise DegenerateDataError("samples are constant; moment guess undefined")
    return mean * mean / var, var / mean
