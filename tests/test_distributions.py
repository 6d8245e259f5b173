"""Density and estimator checks, with scipy.stats as the outside oracle."""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from jitterfit import distributions
from jitterfit import (
    DegenerateDataError,
    InsufficientDataError,
    JitterFitError,
    ModelKind,
    ModelParams,
    NonConvergenceError,
    ParameterDomainError,
    SingularDensityError,
    log_pdf,
    log_pdf_many,
    mle_exponential,
    mle_gamma,
)

from conftest import assert_built_as_checked


# ---------------------------------------------------------------- densities


@pytest.mark.parametrize("rate", [0.1, 1.0, 2.5, 40.0])
def test_exponential_log_pdf_matches_scipy(rate):
    v = np.linspace(0.0, 30.0, 400)
    ours = log_pdf_many(ModelParams.exponential(rate), v)
    ref = stats.expon.logpdf(v, scale=1.0 / rate)
    assert np.allclose(ours, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("shape,scale", [(0.5, 2.0), (1.0, 0.5), (4.0, 1.0), (80.0, 0.01)])
def test_gamma_log_pdf_matches_scipy(shape, scale):
    v = np.linspace(0.01, 30.0, 400)
    ours = log_pdf_many(ModelParams.gamma(shape, scale), v)
    ref = stats.gamma.logpdf(v, shape, scale=scale)
    assert np.allclose(ours, ref, rtol=1e-11, atol=1e-11)


@pytest.mark.parametrize("rate", [0.5, 2.0])
def test_gamma_shape_one_reduces_to_exponential(rate):
    grid = np.arange(0.01, 10.0 + 1e-9, 0.01)
    exp_model = ModelParams.exponential(rate)
    gamma_model = ModelParams.gamma(1.0, 1.0 / rate)
    diff = np.abs(log_pdf_many(exp_model, grid) - log_pdf_many(gamma_model, grid))
    assert float(diff.max()) <= 1e-12


def test_negative_values_have_zero_density():
    exp_model = ModelParams.exponential(2.0)
    gamma_model = ModelParams.gamma(3.0, 1.0)
    for v in (-1e-12, -0.5, -100.0):
        assert log_pdf(exp_model, v) == -math.inf
        assert log_pdf(gamma_model, v) == -math.inf
    out = log_pdf_many(gamma_model, np.array([-1.0, 1.0]))
    assert out[0] == -math.inf and math.isfinite(out[1])


def test_gamma_density_at_zero():
    assert log_pdf(ModelParams.gamma(2.0, 1.0), 0.0) == -math.inf
    assert log_pdf(ModelParams.gamma(1.0, 0.5), 0.0) == pytest.approx(math.log(2.0))
    with pytest.raises(SingularDensityError):
        log_pdf(ModelParams.gamma(0.5, 1.0), 0.0)
    # vector path mirrors the scalar behavior
    vec = log_pdf_many(ModelParams.gamma(2.0, 1.0), np.array([0.0, 1.0]))
    assert vec[0] == -math.inf
    vec = log_pdf_many(ModelParams.gamma(1.0, 0.5), np.array([0.0]))
    assert vec[0] == pytest.approx(math.log(2.0))
    with pytest.raises(SingularDensityError):
        log_pdf_many(ModelParams.gamma(0.5, 1.0), np.array([0.0, 1.0]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_value_rejected(bad):
    model = ModelParams.exponential(1.0)
    with pytest.raises(ParameterDomainError):
        log_pdf(model, bad)
    with pytest.raises(ParameterDomainError):
        log_pdf_many(model, np.array([1.0, bad]))


def test_log_pdf_many_matches_scalar():
    rng = np.random.default_rng(17)
    values = rng.uniform(1e-6, 50.0, 200)
    for model in (ModelParams.exponential(0.7), ModelParams.gamma(3.3, 0.4)):
        vec = log_pdf_many(model, values)
        for v, lv in zip(values, vec):
            assert lv == pytest.approx(log_pdf(model, float(v)), rel=1e-14)


def test_extreme_arguments_stay_defined():
    # Far tails underflow to a log-density of -inf instead of raising.
    assert log_pdf(ModelParams.exponential(10.0), 1e308) == -math.inf
    assert log_pdf(ModelParams.gamma(2.0, 1e-3), 1e308) == -math.inf


@pytest.mark.parametrize(
    "model, tail",
    [
        (ModelParams.exponential(0.3), stats.expon(scale=1 / 0.3)),
        (ModelParams.exponential(5.0), stats.expon(scale=0.2)),
        (ModelParams.gamma(0.7, 2.0), stats.gamma(0.7, scale=2.0)),
        (ModelParams.gamma(4.0, 1.0), stats.gamma(4.0, scale=1.0)),
        (ModelParams.gamma(25.0, 0.05), stats.gamma(25.0, scale=0.05)),
    ],
)
def test_density_integrates_to_one(model, tail):
    from scipy import integrate

    # upper limit chosen so the truncated mass is below 1e-9
    upper = float(tail.ppf(1.0 - 1e-10))
    total, _ = integrate.quad(
        lambda v: math.exp(log_pdf(model, v)), 0.0, upper, limit=200
    )
    assert total == pytest.approx(1.0, abs=1e-6)


# ------------------------------------------------------------- ModelParams


def test_model_params_validation():
    with pytest.raises(ParameterDomainError):
        ModelParams.exponential(0.0)
    with pytest.raises(ParameterDomainError):
        ModelParams.exponential(-2.0)
    with pytest.raises(ParameterDomainError):
        ModelParams.exponential(float("nan"))
    with pytest.raises(ParameterDomainError):
        ModelParams.gamma(1.0, float("inf"))
    with pytest.raises(ParameterDomainError):
        ModelParams.gamma(-1.0, 1.0)
    with pytest.raises(ParameterDomainError):
        ModelParams(ModelKind.EXPONENTIAL, rate=1.0, shape=2.0)
    with pytest.raises(ParameterDomainError):
        ModelParams(ModelKind.GAMMA, rate=1.0)
    with pytest.raises(ValueError):
        ModelParams(7, rate=1.0)


def test_model_params_refuse_another_kinds_fields_by_name():
    with pytest.raises(ParameterDomainError, match="^exponential models have no scale field$"):
        ModelParams(ModelKind.EXPONENTIAL, rate=1.0, scale=2.0)
    with pytest.raises(ParameterDomainError, match="^gamma models have no rate field$"):
        ModelParams(ModelKind.GAMMA, rate=1.0, shape=2.0, scale=3.0)
    with pytest.raises(ParameterDomainError) as caught:
        ModelParams.gamma(2.0, -1.0)
    assert str(caught.value) == "scale must be finite and positive, got -1.0"


def test_model_params_values_list_the_kinds_parameters_in_record_order():
    assert ModelParams.exponential(2).values == (2.0,)
    assert ModelParams.gamma(4, 0.5).values == (4.0, 0.5)
    x = np.random.default_rng(3).gamma(2.0, 1.5, 500)
    exponential, gamma = mle_exponential(x), mle_gamma(x)
    assert exponential.values == (exponential.rate,)
    assert gamma.values == (gamma.shape, gamma.scale)
    with pytest.raises(AttributeError):
        gamma.values = (1.0, 1.0)


def test_model_kind_codes():
    # The numeric codes are load-bearing (tie-breaks and the wire format).
    assert int(ModelKind.EXPONENTIAL) == 0
    assert int(ModelKind.GAMMA) == 1


# -------------------------------------------------------------- estimators


def test_mle_exponential_inverse_mean_identity():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(1, 500))
        x = rng.uniform(1e-6, 100.0, n)
        fit = mle_exponential(x)
        assert abs(fit.rate * x.mean() - 1.0) <= 1e-15


def test_mle_exponential_is_grid_optimal():
    rng = np.random.default_rng(29)
    x = rng.gamma(2.0, 0.5, 5000)  # deliberately misspecified data
    fit = mle_exponential(x)

    def loglik(rate):
        return len(x) * math.log(rate) - rate * x.sum()

    best = loglik(fit.rate)
    for factor in np.linspace(0.9, 1.1, 201):
        if factor != 1.0:
            assert loglik(fit.rate * factor) < best


def test_mle_exponential_errors():
    with pytest.raises(InsufficientDataError):
        mle_exponential(np.array([]))
    with pytest.raises(ParameterDomainError):
        mle_exponential(np.array([1.0, -1.0]))
    with pytest.raises(ParameterDomainError):
        mle_exponential(np.array([1.0, 0.0]))


def test_mle_gamma_matches_scipy_fit():
    rng = np.random.default_rng(99)
    for _ in range(10):
        a = float(rng.uniform(0.5, 8.0))
        b = float(rng.uniform(0.1, 4.0))
        x = rng.gamma(a, b, 10000)
        fit = mle_gamma(x)
        a_ref, _, b_ref = stats.gamma.fit(x, floc=0)
        assert abs(fit.shape - a_ref) / a_ref <= 1e-8
        assert abs(fit.scale - b_ref) / b_ref <= 1e-8


def test_mle_gamma_stationarity_residual():
    rng = np.random.default_rng(7)
    from jitterfit import digamma

    for _ in range(20):
        a = float(rng.uniform(0.3, 12.0))
        x = rng.gamma(a, 1.7, 5000)
        fit = mle_gamma(x)
        s = math.log(x.mean()) - np.log(x).mean()
        assert abs(math.log(fit.shape) - digamma(fit.shape) - s) <= 1e-8
        # the scale is pinned to the mean through the shape
        assert fit.scale == pytest.approx(x.mean() / fit.shape, rel=1e-12)


def test_mle_gamma_recovers_truth():
    rng = np.random.default_rng(11)
    x = rng.gamma(4.0, 1.0, 20000)
    fit = mle_gamma(x)
    assert fit.shape == pytest.approx(4.0, rel=0.05)
    assert fit.scale == pytest.approx(1.0, rel=0.05)


def test_fits_hold_what_the_checked_constructor_makes():
    x = np.random.default_rng(3).gamma(2.0, 1.5, 500)
    for fit in (mle_exponential(x), mle_gamma(x)):
        assert_built_as_checked(fit)


def test_mle_gamma_insufficient_and_invalid():
    with pytest.raises(InsufficientDataError):
        mle_gamma(np.array([1.0]))
    with pytest.raises(ParameterDomainError):
        mle_gamma(np.array([1.0, -2.0]))


def test_mle_checks_the_domain_before_the_sample_count():
    with pytest.raises(ParameterDomainError) as caught:
        mle_exponential(np.ones((2, 2)))
    assert str(caught.value) == "exponential fit expects a 1-d array of samples"
    # Too few samples and out of the domain: the domain is named.
    with pytest.raises(ParameterDomainError) as caught:
        mle_gamma([-1.0])
    assert str(caught.value) == "gamma fit requires finite positive samples"
    with pytest.raises(InsufficientDataError) as caught:
        mle_exponential([])
    assert str(caught.value) == "exponential fit needs at least 1 sample(s), got 0"
    with pytest.raises(InsufficientDataError) as caught:
        mle_gamma([1.0])
    assert str(caught.value) == "gamma fit needs at least 2 sample(s), got 1"


@pytest.mark.parametrize("high", [1.0000000000000004, 1.0000000000000009])
def test_mle_gamma_rejects_a_start_far_past_the_shape_cap(high):
    # The log-moment gap of these pairs is about 1e-31, which starts the
    # shape solve near 1e31, where the Newton slope 1/a - trigamma(a)
    # rounds to 0.
    with pytest.raises(DegenerateDataError, match=r"shape estimate exceeded 1e\+06"):
        mle_gamma([1.0, high])


def test_gamma_shape_solve_stays_positive_over_every_reachable_gap():
    # No trace gives a log-moment gap above ln(largest double) - ln(smallest
    # subnormal), about 1454.2.  Across the range every Newton iterate stays
    # positive: a non-positive one would surface as a bare exception from
    # the shape terms, not as a fit or the shape-cap error.
    for gap in np.geomspace(1e-7, 1460.0, 50_000):
        try:
            shape = distributions._gamma_from_log_moments(1.0, float(gap)).shape
        except DegenerateDataError as exc:
            assert str(exc).startswith("gamma shape estimate exceeded"), gap
        else:
            assert 0.0 < shape <= distributions.GAMMA_SHAPE_CAP, gap


def test_mle_gamma_constant_samples_degenerate():
    with pytest.raises(DegenerateDataError):
        mle_gamma(np.full(100, 3.25))


@pytest.mark.parametrize("value", [0.1, 0.25, 1.0, 3.7])
def test_mle_gamma_constant_samples_report_no_spread(value):
    # Rounded, the two means of a constant 0.25 or 3.7 leave a gap of a few
    # ulps, which sends the shape past the cap; at 0.1 the gap is negative.
    # Either way the cause is the same: the samples do not spread.
    message = re.escape("no usable spread (log-moment gap s = 0.0)")
    with pytest.raises(DegenerateDataError, match=message):
        mle_gamma(np.full(1000, value))


def test_mle_gamma_shape_cap():
    # Nearly constant data push the shape estimate far past any physical
    # value; the solve must refuse rather than report a 1e8 shape.
    rng = np.random.default_rng(5)
    x = 1.0 + rng.normal(0.0, 1e-4, 1000)
    x = np.abs(x)
    with pytest.raises(DegenerateDataError):
        mle_gamma(x)


@pytest.mark.parametrize("spread", [0.003, 0.002, 0.0015])
def test_mle_gamma_fits_narrow_traces(spread):
    # Shapes of 1e5 to 5e5, well below the cap.  The solve's residual
    # ln(a) - psi(a) - s must keep its relative precision there, or the
    # Newton steps never settle below the tolerance.
    mpmath.mp.dps = 30
    for seed in range(40):
        x = np.sort(np.exp(np.random.default_rng(seed).normal(0.0, spread, 200)))
        fit = mle_gamma(x)
        gap = math.log(float(x.sum()) / x.size) - float(np.log(x).sum()) / x.size
        root = mpmath.findroot(
            lambda a: mpmath.log(a) - mpmath.digamma(a) - mpmath.mpf(gap), fit.shape
        )
        assert abs(fit.shape - root) <= 1e-14 * root, f"seed {seed}"


def _fit_or_error(fit, samples):
    try:
        return fit(samples)
    except JitterFitError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(samples=st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=80), data=st.data())
def test_mle_is_permutation_invariant(samples, data):
    permuted = data.draw(st.permutations(samples))
    for fit in (mle_exponential, mle_gamma):
        assert _fit_or_error(fit, permuted) == _fit_or_error(fit, samples)


@pytest.mark.parametrize("fit", [mle_exponential, mle_gamma])
def test_mle_rejects_samples_summing_past_the_largest_double(fit):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DegenerateDataError, match="sum past the largest double"):
            fit(np.array([1e308, 1.5e308, 1.2e308, 1.0]))
    assert caught == []


# Subnormal samples: the mean is about 5e-321, so its reciprocal overflows.
SUBNORMAL_SAMPLES = np.array([5e-324, 1e-323, 5e-324])
# Subnormals 990 to 1010 ulps above zero: mean ~1000 ulps, shape ~10**4,
# so the scale mean/shape is a tenth of an ulp and underflows to 0.
UNDERFLOWING_SCALE_SAMPLES = np.arange(990, 1011) * 5e-324
# A spread of 600 decades puts the shape near 1e-3 and the scale past the
# largest double.
OVERFLOWING_SCALE_SAMPLES = np.array([1e-300, 1e307])


def test_mle_exponential_rejects_a_rate_past_the_largest_double():
    with pytest.raises(DegenerateDataError, match="rate 1/mean = inf"):
        mle_exponential(SUBNORMAL_SAMPLES)


@pytest.mark.parametrize(
    "samples, scale",
    [(UNDERFLOWING_SCALE_SAMPLES, "0.0"), (OVERFLOWING_SCALE_SAMPLES, "inf")],
)
def test_mle_gamma_rejects_a_scale_outside_the_positive_doubles(samples, scale):
    with pytest.raises(DegenerateDataError, match=f"scale mean/shape = {scale} "):
        mle_gamma(samples)


def test_mle_near_the_largest_double_still_fits():
    # The sum, 1.7e308, is just below the largest double, so the fit goes ahead.
    fit = mle_exponential(np.array([0.9e308, 0.8e308]))
    assert fit.rate == 1.0 / ((0.8e308 + 0.9e308) / 2)


def test_mle_gamma_budget_exhaustion_carries_iterate(monkeypatch):
    monkeypatch.setattr(distributions, "_NEWTON_MAX_ITERS", 1)
    rng = np.random.default_rng(13)
    x = rng.gamma(3.0, 2.0, 1000)
    with pytest.raises(NonConvergenceError, match="in 1 iterations") as excinfo:
        mle_gamma(x)
    assert excinfo.value.last_iterate is not None
    assert excinfo.value.last_iterate > 0

