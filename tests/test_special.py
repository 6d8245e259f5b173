"""Special-function checks against mpmath at 30 digits."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jitterfit import ParameterDomainError, digamma, ln_gamma, trigamma
from jitterfit.special import (
    _DIGAMMA_COEFFS,
    _TRIGAMMA_COEFFS,
    _even_series,
    _shape_terms,
)

mpmath.mp.dps = 30

EULER_GAMMA = 0.5772156649015329

# Log-spaced sweep plus the integers, half-integers, and points straddling
# the recurrence threshold at 10.
GRID = sorted(
    set(float(x) for x in np.logspace(-3, 6, 181))
    | {float(k) for k in range(1, 31)}
    | {k + 0.5 for k in range(0, 30)}
    | {0.9999, 1.0001, 9.999, 10.0, 10.001}
)


def _tol(true_value: float) -> float:
    # ln(Gamma) tops out near 1.3e7 on this grid, where one double ulp is
    # about 2e-9; a handful of ulp has to be allowed on top of the absolute
    # floor or the comparison would demand more than float64 can represent.
    return max(1e-10, 2e-15 * abs(true_value))


@pytest.mark.parametrize(
    "fn,oracle",
    [
        (ln_gamma, lambda x: mpmath.loggamma(x)),
        (digamma, lambda x: mpmath.digamma(x)),
        (trigamma, lambda x: mpmath.polygamma(1, x)),
    ],
    ids=["ln_gamma", "digamma", "trigamma"],
)
def test_matches_mpmath_over_grid(fn, oracle):
    for x in GRID:
        expected = float(oracle(mpmath.mpf(x)))
        got = fn(x)
        assert abs(got - expected) <= _tol(expected), (
            f"{fn.__name__}({x}) = {got!r}, want {expected!r}"
        )


def test_ln_gamma_matches_mpmath_to_2e_15_relative_over_grid():
    for x in GRID:
        expected = float(mpmath.loggamma(mpmath.mpf(x)))
        got = ln_gamma(x)
        assert abs(got - expected) <= 2e-15 * max(abs(expected), 1.0), (
            f"ln_gamma({x}) = {got!r}, want {expected!r}"
        )


@pytest.mark.parametrize("x", [1e306, 1e308, sys.float_info.max])
def test_ln_gamma_past_the_largest_double_is_inf(x):
    # The suite turns warnings into errors, so this also checks for none.
    assert ln_gamma(x) == math.inf


def test_known_values():
    assert abs(ln_gamma(1.0)) <= 5e-16
    assert abs(ln_gamma(2.0)) <= 5e-16
    assert math.isclose(ln_gamma(5.0), math.log(24.0), rel_tol=1e-14)
    assert math.isclose(ln_gamma(0.5), 0.5 * math.log(math.pi), rel_tol=1e-14)
    assert math.isclose(digamma(1.0), -EULER_GAMMA, rel_tol=1e-14)
    assert math.isclose(digamma(0.5), -EULER_GAMMA - 2.0 * math.log(2.0), rel_tol=1e-14)
    assert math.isclose(trigamma(1.0), math.pi**2 / 6.0, rel_tol=1e-14)
    assert math.isclose(trigamma(0.5), math.pi**2 / 2.0, rel_tol=1e-14)


def test_ln_minus_digamma_keeps_relative_precision():
    # ln(x) - psi(x) ~ 1/(2x) is what the gamma shape solve drives to its
    # target; taken as a difference it loses ~1e-10 by x = 1e5.
    for x in [float(x) for x in np.geomspace(10.0, 1e6, 241)]:
        expected = mpmath.log(x) - mpmath.digamma(x)
        assert abs(_shape_terms(x)[0] - expected) <= 1e-14 * expected, x
    for x in [float(x) for x in np.geomspace(1e-3, 10.0, 61)]:
        expected = float(mpmath.log(x) - mpmath.digamma(x))
        assert math.isclose(_shape_terms(x)[0], expected, rel_tol=1e-12), x


def test_recurrence_relations():
    rng = np.random.default_rng(61)
    for x in rng.uniform(0.05, 50.0, 300):
        x = float(x)
        assert math.isclose(
            ln_gamma(x + 1.0) - ln_gamma(x), math.log(x), rel_tol=1e-11, abs_tol=1e-11
        )
        assert math.isclose(
            digamma(x + 1.0) - digamma(x), 1.0 / x, rel_tol=1e-9, abs_tol=1e-11
        )
        assert math.isclose(
            trigamma(x + 1.0) - trigamma(x), -1.0 / (x * x), rel_tol=1e-9, abs_tol=1e-11
        )


@pytest.mark.parametrize("fn", [ln_gamma, digamma, trigamma])
@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, float("nan"), float("inf")])
def test_domain_rejected(fn, bad):
    with pytest.raises(ParameterDomainError):
        fn(bad)


@pytest.mark.parametrize("fn", [ln_gamma, digamma, trigamma])
def test_domain_error_names_the_argument(fn):
    for bad in (0.0, float("inf")):
        with pytest.raises(ParameterDomainError) as caught:
            fn(bad)
        expected = f"{fn.__name__} argument must be finite and positive, got {bad!r}"
        assert str(caught.value) == expected


def _digamma_by_its_own_loop(x: float) -> float:
    """digamma(x) as it was computed before it shared trigamma's loop."""
    shift = 0.0
    while x < 10.0:
        shift -= 1.0 / x
        x += 1.0
    r = 1.0 / (x * x)
    return shift + math.log(x) - 0.5 / x - _even_series(_DIGAMMA_COEFFS, r) * r


def _ln_minus_digamma_by_its_own_series(x: float) -> float:
    """ln(x) - digamma(x) as it was computed before :func:`_shape_terms`."""
    if x < 10.0:
        return math.log(x) - _digamma_by_its_own_loop(x)
    r = 1.0 / (x * x)
    return 0.5 / x + _even_series(_DIGAMMA_COEFFS, r) * r


def _trigamma_by_its_own_loop(x: float) -> float:
    """trigamma(x) as it was computed before :func:`_shape_terms`."""
    shift = 0.0
    while x < 10.0:
        shift += 1.0 / (x * x)
        x += 1.0
    r = 1.0 / (x * x)
    return shift + 1.0 / x + 0.5 * r + _even_series(_TRIGAMMA_COEFFS, r) * r / x


def _assert_shape_terms_exact(x: float) -> None:
    want = (_ln_minus_digamma_by_its_own_series(x), _trigamma_by_its_own_loop(x))
    assert _shape_terms(x) == want, x
    assert digamma(x) == _digamma_by_its_own_loop(x), x
    assert trigamma(x) == want[1], x


def test_shape_terms_equal_the_separate_functions_over_a_log_grid():
    for x in np.logspace(-3, 6, 4001):
        _assert_shape_terms_exact(float(x))


def test_shape_terms_equal_the_separate_functions_around_the_threshold():
    below = above = 10.0
    points = [10.0]
    for _ in range(4):
        below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
        points += [below, above]
    for x in points + [9.0, 9.5, 10.5, 11.0]:
        _assert_shape_terms_exact(x)


# Below about 1e-154, 1/x**2 is past the largest double, and below about
# 1.5e-162 x * x underflows to 0 and the copied trigamma loop divides by zero;
# test_tiny_arguments_overflow covers that range.
@settings(max_examples=500, deadline=None)
@given(x=st.floats(min_value=1e-150, max_value=1e300))
def test_shape_terms_equal_the_separate_functions_on_drawn_floats(x):
    _assert_shape_terms_exact(x)


@pytest.mark.parametrize("x", [1e-155, 1e-163, 1e-200, 5e-324])
def test_tiny_arguments_overflow(x):
    assert trigamma(x) == math.inf
    assert digamma(x) == _digamma_by_its_own_loop(x)
