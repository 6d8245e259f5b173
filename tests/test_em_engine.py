"""The sorted-order EM engine against the per-sample loop it replaced.

``_oracle_em_fit`` is the responsibility-matrix loop ``em_fit`` used to run,
kept here verbatim as the reference engine.  The parity test requires the
same labels, iteration count, convergence and warnings, bit-identical final
parameters and classification log-likelihood, and a log-likelihood history
within 1e-12 relative: the engine sums each pass's log-densities run by run
over the sorted samples, the oracle in trace order.

The labeller tests check the engine's run labeller sample for sample against
the reference predicate on :func:`log_pdf_many`'s densities, and
``hard_assign(e_step(...))`` against both, including where the sign test
alone would be wrong: identical densities, samples on a crossing, and
zero-density rows.  The models are in the engine's fixed order: the
exponential is model 0, the gamma model 1.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jitterfit import (
    Assignment,
    EMConfig,
    JitterTrace,
    ModelKind,
    ModelParams,
    RegimeSpec,
    SetupError,
    e_step,
    em_fit,
    generate_synthetic,
    hard_assign,
    log_pdf_many,
    m_step,
)
from jitterfit.em import (
    _fit_kind,
    _label_runs,
    _responsibilities,
    _trace_labels,
)
from jitterfit.errors import (
    DegenerateDataError,
    InsufficientDataError,
    NonConvergenceError,
)

from conftest import reference_spec


def _log_density_matrix(trace: JitterTrace, params) -> np.ndarray:
    return np.column_stack([log_pdf_many(p, trace.samples) for p in params])


def _oracle_em_fit(trace: JitterTrace, config: EMConfig = EMConfig()) -> Assignment:
    params: list[ModelParams] = []
    for index, kind in enumerate((ModelKind.EXPONENTIAL, ModelKind.GAMMA)):
        try:
            params.append(_fit_kind(kind, trace.samples))
        except (InsufficientDataError, DegenerateDataError, NonConvergenceError) as exc:
            raise SetupError(
                f"initial fit failed for model {index} ({kind.name.lower()}): {exc}"
            ) from exc
    warnings: list[str] = []
    history: list[float] = []
    prev_labels: np.ndarray | None = None
    converged = False
    iterations_used = config.max_iters
    labels = np.zeros(len(trace), dtype=np.int64)
    for iteration in range(1, config.max_iters + 1):
        log_densities = _log_density_matrix(trace, params)
        resp, dead = _responsibilities(log_densities)
        if dead:
            warnings.append(
                f"iteration {iteration}: {dead} sample(s) scored zero density "
                "under every model, assigned to model 0"
            )
        labels = hard_assign(resp)
        history.append(
            float(np.take_along_axis(log_densities, labels[:, None], axis=1).sum())
        )
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            converged = True
            iterations_used = iteration
            break
        params, notes = m_step(trace, labels, params)
        warnings.extend(f"iteration {iteration}: {note}" for note in notes)
        prev_labels = labels
    if converged:
        # The last refit happened before the pass that repeated the labels,
        # so history[-1] was already scored under the final parameters.
        loglik = history[-1]
    else:
        final_densities = _log_density_matrix(trace, params)
        loglik = float(
            np.take_along_axis(final_densities, labels[:, None], axis=1).sum()
        )
    return Assignment(
        labels=labels,
        iterations_used=iterations_used,
        converged=converged,
        final_params=tuple(params),
        classification_loglik=loglik,
        loglik_history=tuple(history),
        warnings=tuple(warnings),
    )


def _mix(*segments, seed):
    return generate_synthetic(RegimeSpec(segments=segments, seed=seed)).trace


# Each mix maps a seed to a trace.  Sizes are small enough that the
# oracle keeps the whole test within a few seconds.
PARITY_MIXES = {
    "reference": lambda seed: generate_synthetic(reference_spec(seed, 1000)).trace,
    "gamma-shape-below-one": lambda seed: _mix(
        (ModelParams.gamma(0.6, 2.0), 900), (ModelParams.exponential(1.0), 900), seed=seed
    ),
    "single-regime": lambda seed: _mix((ModelParams.exponential(1.5), 1500), seed=seed),
    # Overlapping enough that about one seed in six runs out of budget.
    "overlapping": lambda seed: _mix(
        (ModelParams.gamma(2.0, 0.5), 2000), (ModelParams.exponential(2.0), 2000), seed=seed
    ),
    # So narrow that one model now and then wins nothing and is frozen.
    "narrow-single-regime": lambda seed: JitterTrace(
        np.exp(np.random.default_rng(seed).normal(0.0, 0.05, 200))
    ),
    # Whole-second values: the gamma model soon wins a single distinct
    # value, its refit fails, and it stays frozen for the rest of the run.
    "quantized": lambda seed: JitterTrace(
        np.round(np.random.default_rng(seed).exponential(1.0, 150)) + 0.1
    ),
}


def _assert_parity(trace, config, where):
    got, want = em_fit(trace, config), _oracle_em_fit(trace, config)
    assert np.array_equal(got.labels, want.labels), where
    assert got.iterations_used == want.iterations_used, where
    assert got.converged == want.converged, where
    assert got.warnings == want.warnings, where
    assert got.final_params == want.final_params, where
    assert got.classification_loglik == want.classification_loglik, where
    assert len(got.loglik_history) == len(want.loglik_history), where
    for ours, theirs in zip(got.loglik_history, want.loglik_history):
        assert ours == theirs or math.isclose(ours, theirs, rel_tol=1e-12), where
    if got.converged:
        assert got.loglik_history[-1] == got.classification_loglik, where
    return want


@pytest.mark.parametrize("mix", sorted(PARITY_MIXES))
def test_engine_matches_oracle(mix):
    stopped_on_budget = warned = 0
    for seed in range(100):
        want = _assert_parity(PARITY_MIXES[mix](seed), EMConfig(), f"{mix} seed {seed}")
        stopped_on_budget += not want.converged
        warned += bool(want.warnings)
    if mix == "overlapping":
        assert stopped_on_budget
    if mix in ("narrow-single-regime", "quantized"):
        assert warned


def _fit_or_error(trace, config, where):
    """The oracle's fit, or its SetupError message, once the engine is seen
    to give the same."""
    try:
        _oracle_em_fit(trace, config)
    except SetupError as exc:
        with pytest.raises(SetupError) as got:
            em_fit(trace, config)
        assert str(got.value) == str(exc), where
        return str(exc)
    return _assert_parity(trace, config, where)


def _assert_same_outcome(got, want, perm, where):
    """``got`` is the outcome on ``samples[perm]``, ``want`` on ``samples``.

    The classification log-likelihood sums in trace order, as the oracle's
    does, so it may differ from a permuted sum by rounding; all else is
    exact."""
    if isinstance(want, str):
        assert got == want, where
        return
    assert not isinstance(got, str), where
    assert np.array_equal(got.labels, want.labels[perm]), where
    assert got.final_params == want.final_params, where
    assert got.iterations_used == want.iterations_used, where
    assert got.converged == want.converged, where
    assert got.warnings == want.warnings, where
    assert math.isclose(
        got.classification_loglik, want.classification_loglik, rel_tol=1e-12
    ), where


@pytest.mark.parametrize("seed, spread", [(32, 0.002), (40, 0.002), (72, 0.003)])
def test_engine_matches_oracle_on_every_order_of_a_narrow_trace(seed, spread):
    # The gamma refits on these draws land at shape 1e5 and more.  While the
    # fits summed samples in the order they came, the last bits of those
    # sums, and so the order of the trace, could decide between a fit and a
    # failed shape solve.
    rng = np.random.default_rng(seed)
    samples = np.exp(rng.normal(0.0, spread, 200))
    config, where = EMConfig(), f"seed {seed}"
    want = _fit_or_error(JitterTrace(samples), config, where)
    for _ in range(40):
        perm = rng.permutation(samples.size)
        got = _fit_or_error(JitterTrace(samples[perm]), config, where)
        _assert_same_outcome(got, want, perm, where)


@pytest.mark.parametrize("seed", range(30))
def test_em_fit_labels_follow_permuted_samples(seed):
    trace = generate_synthetic(reference_spec(seed, 1500)).trace
    want = em_fit(trace)
    perm = np.random.default_rng(seed).permutation(len(trace))
    got = em_fit(JitterTrace(trace.samples[perm]))
    _assert_same_outcome(got, want, perm, f"seed {seed}")


# ------------------------------------------------------------- run labeller


def _engine_labels(samples, params):
    """Labels and dead count from the engine's labeller, in input order,
    with overflow silenced as the engine silences it."""
    samples = np.asarray(samples, dtype=np.float64)
    s = np.sort(samples)
    with np.errstate(over="ignore"):
        runs, dead = _label_runs(s, np.log(s), params)
    assert all(a[1] == b[0] and a[2] != b[2] for a, b in zip(runs, runs[1:]))
    assert runs[0][0] == 0 and runs[-1][1] == s.size
    return _trace_labels(runs, s, samples), dead


def _reference_labels(samples, params):
    resp, dead = _responsibilities(_log_density_matrix(JitterTrace(samples), params))
    return hard_assign(resp), dead


def _assert_labeller_agrees(samples, params):
    got, got_dead = _engine_labels(samples, params)
    want, want_dead = _reference_labels(samples, params)
    assert np.array_equal(got, want)
    assert got_dead == want_dead
    assert np.array_equal(hard_assign(e_step(JitterTrace(samples), params)), want)
    return got


@settings(max_examples=300, deadline=None)
@given(
    rate=st.floats(1e-4, 1e4),
    shape=st.floats(0.05, 200.0),
    scale=st.floats(1e-4, 1e4),
    samples=st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=60),
)
def test_labeller_matches_reference(rate, shape, scale, samples):
    params = (ModelParams.exponential(rate), ModelParams.gamma(shape, scale))
    _assert_labeller_agrees(np.array(samples), params)


@pytest.mark.parametrize("rate", [0.3, 1.0, 2.0, 7.7, 1e-3, 123.4])
def test_labeller_identical_densities(rate):
    # gamma(1, 1/rate) is exp(rate); the two log-densities differ only by
    # rounding, so every label is the reference predicate's call.
    samples = np.random.default_rng(1).exponential(1.0 / rate, 2000)
    _assert_labeller_agrees(
        samples, (ModelParams.exponential(rate), ModelParams.gamma(1.0, 1.0 / rate))
    )


def test_labeller_identical_densities_exact_tie_goes_to_model_zero():
    # At rate 1 the gamma log-density only loses ln_gamma(1) (a rounding
    # residue), and the normalized responsibilities tie: model 0 wins.
    samples = np.random.default_rng(2).exponential(1.0, 500)
    labels = _assert_labeller_agrees(
        samples, (ModelParams.exponential(1.0), ModelParams.gamma(1.0, 1.0))
    )
    assert not labels.any()


def test_labeller_sample_on_a_crossing():
    exponential = ModelParams.exponential(1.0)
    gamma = ModelParams.gamma(4.0, 1.0)

    def d(v):
        return float(log_pdf_many(gamma, [v])[0] - log_pdf_many(exponential, [v])[0])

    # Bisect each crossing of d down to adjacent doubles, then place
    # samples on and around it.
    crossings = []
    for lo, hi in ((0.5, 3.0), (3.0, 30.0)):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if (d(mid) > 0.0) == (d(lo) > 0.0):
                lo = mid
            else:
                hi = mid
        crossings.append(lo)
    samples = []
    for v in crossings:
        samples.extend([v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)])
        samples.extend([v * (1 + 1e-13), v * (1 - 1e-13)])
    samples.extend([0.2, 2.0, 50.0])
    _assert_labeller_agrees(np.array(samples), (exponential, gamma))


def test_labeller_gamma_below_one_owns_both_tails():
    exponential = ModelParams.exponential(1.0)
    gamma = ModelParams.gamma(0.5, 4.0)
    samples = np.geomspace(1e-6, 40.0, 3000)
    labels = _assert_labeller_agrees(samples, (exponential, gamma))
    assert labels[0] == 1 and labels[-1] == 1
    assert not labels.all()


@pytest.mark.parametrize(
    "exponential, gamma",
    [
        (ModelParams.exponential(1.0), ModelParams.gamma(4.0, 1000.0)),
        (ModelParams.exponential(1e-3), ModelParams.gamma(50.0, 1e-3)),
    ],
)
def test_labeller_one_model_wins_every_sample(exponential, gamma):
    samples = np.random.default_rng(5).uniform(1.0, 2.0, 1000)
    labels = _assert_labeller_agrees(samples, (exponential, gamma))
    assert np.unique(labels).size == 1


def test_labeller_zero_density_rows():
    # rate 1e308 sends the exponential log-density to -inf everywhere but
    # the smallest samples; a tiny gamma scale does the same to the gamma.
    cases = [
        ([10.0, 1e-310, 1.0], ModelParams.exponential(1e308), ModelParams.gamma(1.0, 1.0)),
        ([1.0, 1e308, 5.0], ModelParams.exponential(10.0), ModelParams.gamma(2.0, 1e-3)),
        ([1.0, 2.0, 3.0], ModelParams.exponential(1e308), ModelParams.gamma(2.0, 1e-306)),
    ]
    dead_seen = 0
    for samples, exponential, gamma in cases:
        params = (exponential, gamma)
        _assert_labeller_agrees(np.array(samples), params)
        dead_seen += _engine_labels(np.array(samples), params)[1]
    assert dead_seen > 0
