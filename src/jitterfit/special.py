"""Log-gamma, digamma, and trigamma for positive real arguments.

``ln_gamma`` is the standard library's ``math.lgamma`` behind this module's
domain check.  The standard library has no polygamma, so digamma and
trigamma are self-contained: one recurrence lifts the argument until the
asymptotic (Stirling-type) expansion is trustworthy, then the expansion is
summed with Bernoulli-number coefficients.  Digamma and trigamma share that
lift, so the gamma shape solve gets both from one loop.  With the threshold
at 10 and seven series terms this stays at double-precision accuracy over
the range the estimators ever visit, roughly [1e-3, 1e6].

Only scalars are handled here; the density code vectorizes around these.
"""

import math

from .errors import ParameterDomainError

__all__ = ["ln_gamma", "digamma", "trigamma"]

_SHIFT_THRESHOLD = 10.0

# Coefficients of x**-2n in the digamma expansion: B_2n / (2n).
_DIGAMMA_COEFFS = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)

# Coefficients of x**-(2n+1) in the trigamma expansion: B_2n.
_TRIGAMMA_COEFFS = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)


def _checked(x, name: str) -> float:
    x = float(x)
    # The comparison is false for NaN as well as for x <= 0.
    if not x > 0.0:
        raise ParameterDomainError(f"{name} is defined here only for x > 0, got {x!r}")
    if math.isinf(x):
        raise ParameterDomainError(f"{name} needs a finite argument, got {x!r}")
    return x


def _even_series(coeffs, r: float) -> float:
    """Evaluate sum(c_n * r**n for n = 1..7) / r via Horner, for the seven
    coefficients of one expansion."""
    c1, c2, c3, c4, c5, c6, c7 = coeffs
    return (((((c7 * r + c6) * r + c5) * r + c4) * r + c3) * r + c2) * r + c1


def ln_gamma(x: float) -> float:
    """Natural logarithm of the gamma function, x > 0; ``inf`` where it is
    past the largest double (x above about 2.56e305)."""
    try:
        return math.lgamma(_checked(x, "ln_gamma"))
    except OverflowError:
        return math.inf


def _polygammas(x: float) -> tuple[float, float]:
    """``(digamma(x), trigamma(x))`` for a finite float x > 0, lifted to the
    threshold by one recurrence for both.

    Below about 1.5e-162, x * x underflows to 0: there 1/x**2, and with it
    trigamma, is past the largest double, and digamma is -1/x to the last
    bit.
    """
    y, psi_shift, trigamma_shift = x, 0.0, 0.0
    try:
        while y < _SHIFT_THRESHOLD:
            psi_shift -= 1.0 / y
            trigamma_shift += 1.0 / (y * y)
            y += 1.0
    except ZeroDivisionError:
        return -1.0 / x, math.inf
    r = 1.0 / (y * y)
    return (
        psi_shift + math.log(y) - 0.5 / y - _even_series(_DIGAMMA_COEFFS, r) * r,
        trigamma_shift + 1.0 / y + 0.5 * r + _even_series(_TRIGAMMA_COEFFS, r) * r / y,
    )


def digamma(x: float) -> float:
    """Logarithmic derivative of the gamma function, x > 0."""
    return _polygammas(_checked(x, "digamma"))[0]


def trigamma(x: float) -> float:
    """Derivative of the digamma function, x > 0; ``inf`` where it is past
    the largest double."""
    return _polygammas(_checked(x, "trigamma"))[1]


def _shape_terms(x: float) -> tuple[float, float]:
    """``(ln(x) - digamma(x), trigamma(x))`` for a finite float x > 0: the
    gamma shape equation's left side and its slope's trigamma term.

    Below the threshold both come from :func:`_polygammas`.  From the
    threshold up, ln(x) cancels out of the asymptotic series exactly, so the
    first value keeps full relative precision even where it is many orders
    of magnitude below ln(x); the plain difference loses ~1e-10 by x = 1e5.
    """
    if x >= _SHIFT_THRESHOLD:
        r = 1.0 / (x * x)
        return (
            0.5 / x + _even_series(_DIGAMMA_COEFFS, r) * r,
            1.0 / x + 0.5 * r + _even_series(_TRIGAMMA_COEFFS, r) * r / x,
        )
    psi, psi1 = _polygammas(x)
    return math.log(x) - psi, psi1
