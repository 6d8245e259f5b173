"""Sliding-window scans and the regime timeline."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from jitterfit import (
    InsufficientDataError,
    JitterTrace,
    ModelKind,
    ModelParams,
    ParameterDomainError,
    RegimeAnnouncement,
    RegimeSpec,
    SetupError,
    WindowFailure,
    WindowReport,
    WindowSpec,
    decode,
    em_fit,
    encode,
    generate_synthetic,
    scan_trace,
    sliding_windows,
)


# ----------------------------------------------------------------- geometry


def test_nonoverlapping_windows_over_reference_length():
    windows = sliding_windows(30000, WindowSpec(size=3500, stride=3500))
    assert len(windows) == 8
    assert [start for start, _ in windows] == [
        0, 3500, 7000, 10500, 14000, 17500, 21000, 24500,
    ]
    assert all(end - start == 3500 for start, end in windows)


def test_window_count_formula_with_overlap():
    windows = sliding_windows(10000, WindowSpec(size=3500, stride=1000))
    # floor((10000 - 3500) / 1000) + 1
    assert len(windows) == 7
    assert windows[0] == (0, 3500)
    assert windows[-1] == (6000, 9500)


def test_exact_fit_yields_single_window():
    assert sliding_windows(3500, WindowSpec(size=3500)) == [(0, 3500)]


def test_trailing_remainder_is_dropped():
    windows = sliding_windows(7499, WindowSpec(size=3500, stride=3500))
    assert windows == [(0, 3500), (3500, 7000)]


def test_short_trace_rejected():
    with pytest.raises(InsufficientDataError):
        sliding_windows(3499, WindowSpec(size=3500))


def test_window_spec_validation():
    assert WindowSpec().stride == 3500
    assert WindowSpec(size=500).stride == 500
    assert WindowSpec(size=500, stride=200).stride == 200
    with pytest.raises(ParameterDomainError):
        WindowSpec(size=99)
    with pytest.raises(ParameterDomainError):
        WindowSpec(size=500, stride=0)
    for size in (None, "x", float("inf")):
        with pytest.raises(ParameterDomainError, match="window size must be an integer"):
            WindowSpec(size=size)
    with pytest.raises(ParameterDomainError, match="stride must be an integer"):
        WindowSpec(size=500, stride="x")
    assert WindowSpec(size="500", stride=250.0) == WindowSpec(size=500, stride=250)


# -------------------------------------------------------------------- scans


def test_reference_scan_regression(reference_trace):
    # Frozen outcome of the deterministic scan over the seed-42 two-regime
    # trace: four gamma-dominant windows, then four exponential-dominant
    # ones, a single change point where the flip happens.
    timeline = scan_trace(reference_trace, WindowSpec(size=3500, stride=3500))
    assert [r.dominant for r in timeline.reports] == (
        [ModelKind.GAMMA] * 4 + [ModelKind.EXPONENTIAL] * 4
    )
    assert timeline.change_points == (14000,)
    assert timeline.failures == ()
    assert all(r.converged for r in timeline.reports)
    assert all(0.0 <= r.fraction_model0 <= 1.0 for r in timeline.reports)
    starts = [r.start for r in timeline.reports]
    assert starts == sorted(starts)


def test_single_regime_has_no_change_points():
    spec = RegimeSpec(segments=((ModelParams.gamma(4.0, 1.0), 14000),), seed=7)
    trace = generate_synthetic(spec).trace
    timeline = scan_trace(trace, WindowSpec(size=3500))
    assert len(timeline.reports) == 4
    assert all(r.dominant is ModelKind.GAMMA for r in timeline.reports)
    assert timeline.change_points == ()


def test_window_equal_to_trace_gives_one_report():
    spec = RegimeSpec(segments=((ModelParams.gamma(4.0, 1.0), 500),), seed=3)
    trace = generate_synthetic(spec).trace
    timeline = scan_trace(trace, WindowSpec(size=500))
    assert len(timeline.reports) == 1
    assert timeline.reports[0].start == 0
    assert timeline.reports[0].end == 500
    assert timeline.change_points == ()


def test_failed_window_is_recorded_and_skipped():
    rng = np.random.default_rng(19)
    samples = np.concatenate([np.full(3500, 1.0), rng.exponential(1.0, 3500) + 1e-12])
    trace = JitterTrace(samples)
    timeline = scan_trace(trace, WindowSpec(size=3500))
    assert len(timeline.failures) == 1
    assert timeline.failures[0].start == 0
    assert "initial fit failed" in timeline.failures[0].message
    assert len(timeline.reports) == 1
    assert timeline.reports[0].start == 3500
    assert timeline.change_points == ()


def test_window_one_model_wins_outright():
    # A narrow lognormal window that the gamma model takes sample for
    # sample: no warning, a converged fit, and a record that round-trips.
    trace = JitterTrace(np.exp(np.random.default_rng(0).normal(0.0, 0.05, 1000)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        timeline = scan_trace(trace, WindowSpec(size=200))
    first = timeline.reports[0]
    assert first.start == 0
    assert first.fraction_model0 == 0.0
    assert first.dominant is ModelKind.GAMMA
    assert first.converged
    assert timeline.failures == ()
    record = RegimeAnnouncement.from_model_params(
        first.params[first.dominant], first.start, first.end - first.start
    )
    assert decode(encode(record)) == record


def test_window_params_are_reported():
    spec = RegimeSpec(segments=((ModelParams.gamma(4.0, 1.0), 3500),), seed=2)
    trace = generate_synthetic(spec).trace
    timeline = scan_trace(trace, WindowSpec(size=3500))
    (report,) = timeline.reports
    assert report.params[0].kind is ModelKind.EXPONENTIAL
    assert report.params[1].kind is ModelKind.GAMMA
    assert report.end == 3500


def test_pure_regime_windows_classify_correctly_across_seeds():
    # Two well-separated regimes (mean ratio 4); every window lies fully
    # inside one of them.  Checked across 100 seeded traces, per regime.
    #
    # Gamma-regime windows must classify correctly at least 99% of the time.
    # Exponential-regime windows cannot be held to that: gamma(1, b) is
    # exp(1/b), so the initial gamma fit on a pure-exponential window has
    # shape 1 + O(n**-0.5) and sampling noise picks the fixed point hard EM
    # reaches; at some of them the exponential model owns just under half
    # the window.  What the method does claim is that the dominant carries
    # information about the regime, so the exponential count must beat a
    # fair coin by a one-sided exact binomial test at p <= 1e-6.
    gamma_correct = gamma_total = exp_correct = exp_total = 0
    for seed in range(100):
        spec = RegimeSpec(
            segments=(
                (ModelParams.gamma(4.0, 1.0), 7000),
                (ModelParams.exponential(1.0), 7000),
            ),
            seed=seed,
        )
        trace = generate_synthetic(spec).trace
        timeline = scan_trace(trace, WindowSpec(size=3500))
        for report in timeline.reports:
            if report.end <= 7000:
                gamma_total += 1
                gamma_correct += report.dominant is ModelKind.GAMMA
            elif report.start >= 7000:
                exp_total += 1
                exp_correct += report.dominant is ModelKind.EXPONENTIAL
    exp_needed = next(
        k
        for k in range(exp_total + 1)
        if sum(math.comb(exp_total, j) for j in range(k, exp_total + 1))
        <= 1e-6 * 2**exp_total
    )
    counts = (
        f"gamma regime {gamma_correct}/{gamma_total}, "
        f"exponential regime {exp_correct}/{exp_total} (needs >= {exp_needed})"
    )
    assert gamma_total > 0 and exp_total > 0, counts
    assert gamma_correct >= 0.99 * gamma_total, counts
    assert exp_correct >= exp_needed, counts


# ------------------------------------------------------- parity with em_fit


# What a window of one repeated value records, whatever the value.
NO_SPREAD_FAILURE = (
    "initial fit failed for model 1 (gamma): samples show no usable spread "
    "(log-moment gap s = 0.0); the gamma likelihood has no finite optimum"
)


def _em_fit_timeline(trace, spec):
    """The reports and failures a scan must give, built from ``em_fit`` on
    each window."""
    reports, failures = [], []
    for start, end in sliding_windows(len(trace), spec):
        try:
            fit = em_fit(JitterTrace(trace.samples[start:end]))
        except SetupError as exc:
            failures.append(WindowFailure(start, end, str(exc)))
            continue
        counts = np.bincount(fit.labels, minlength=len(ModelKind))
        reports.append(
            WindowReport(
                start=start,
                end=end,
                dominant=ModelKind(int(np.argmax(counts))),
                fraction_model0=float(counts[0]) / spec.size,
                params=fit.final_params,
                converged=fit.converged,
            )
        )
    return tuple(reports), tuple(failures)


def test_window_reports_equal_em_fit_on_the_window():
    # A constant block fills the first window, so that window fails; the
    # drawn regimes after it include windows that use up the 50-pass budget,
    # where the last refit moves the parameters after the last labelling.
    spec = WindowSpec(size=1000, stride=500)
    budget_hits = 0
    for seed in range(12):
        regimes = RegimeSpec(
            segments=(
                (ModelParams.exponential(1.0), 3000),
                (ModelParams.gamma(1.5, 1.0), 3000),
            ),
            seed=seed,
        )
        drawn = generate_synthetic(regimes).trace.samples
        trace = JitterTrace(np.concatenate([np.full(1000, 1.0), drawn]))
        timeline = scan_trace(trace, spec)
        reports, failures = _em_fit_timeline(trace, spec)
        assert timeline.reports == reports
        assert timeline.failures == failures
        assert failures[0] == WindowFailure(0, 1000, NO_SPREAD_FAILURE)
        budget_hits += sum(not report.converged for report in reports)
    assert budget_hits > 0


@pytest.mark.parametrize("value", [0.25, 3.7])
def test_constant_windows_fail_for_want_of_spread(value):
    # The means of these constants round to a nonzero log-moment gap; the
    # window must still fail as a window of 1.0 does.
    drawn = np.random.default_rng(3).exponential(1.0, 1000)
    trace = JitterTrace(np.concatenate([np.full(1000, value), drawn]))
    timeline = scan_trace(trace, WindowSpec(size=1000))
    assert timeline.failures == (WindowFailure(0, 1000, NO_SPREAD_FAILURE),)
    assert [report.start for report in timeline.reports] == [1000]


def test_windows_whose_sums_overflow_fail_without_warnings():
    samples = np.concatenate(
        [np.full(100, 1e307), np.random.default_rng(5).exponential(1.0, 100) + 1e-9]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        timeline = scan_trace(JitterTrace(samples), WindowSpec(size=100))
    assert timeline.failures == (
        WindowFailure(
            0,
            100,
            "initial fit failed for model 0 (exponential): samples sum past the "
            "largest double; rescale the trace to fit it",
        ),
    )
    assert [report.start for report in timeline.reports] == [100]


# Five regimes, 40k samples: enough windows for a few to use up the 50-pass
# budget, where the last refit moves the parameters after the last labelling.
PINNED_REGIMES = RegimeSpec(
    segments=(
        (ModelParams.gamma(4.0, 1.0), 7300),
        (ModelParams.exponential(1.0), 9100),
        (ModelParams.gamma(2.0, 0.5), 8300),
        (ModelParams.exponential(2.0), 7900),
        (ModelParams.gamma(8.0, 0.25), 7400),
    ),
    seed=2,
)


def test_scan_reports_match_their_recorded_digest():
    # The CLI's scan outputs carry no parameters, so this digest of every
    # report field, each parameter's repr included, is what pins the fits
    # of overlapping windows bit for bit.  Recorded when every band edge
    # was bisected on every pass.
    timeline = scan_trace(
        generate_synthetic(PINNED_REGIMES).trace, WindowSpec(size=3500, stride=250)
    )
    lines = []
    for r in timeline.reports:
        params = " ".join(
            f"{p.kind.name}({p.rate!r},{p.shape!r},{p.scale!r})" for p in r.params
        )
        lines.append(
            f"{r.start} {r.end} {r.dominant.name} {r.fraction_model0!r} {params} {r.converged}"
        )
    for f in timeline.failures:
        lines.append(f"failure {f.start} {f.end} {f.message}")
    assert len(timeline.reports) == 147
    assert sum(not r.converged for r in timeline.reports) == 25
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "3185dcfdcca5948ded2473eb56fb4267474c114552d4ea3dc814d9d03275a79b"
    )
