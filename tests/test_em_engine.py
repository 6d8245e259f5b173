"""The sorted-order EM engine against the per-sample loop it replaced.

``_oracle_em_fit`` is the responsibility-matrix loop ``em_fit`` used to run,
kept here verbatim as the reference engine.  The parity test requires the
same labels, iteration count, convergence and warnings, bit-identical final
parameters and classification log-likelihood, and a log-likelihood history
within 1e-12 relative: the engine's intermediate refits sum over sorted
runs, so the history entries scored under them may differ by rounding.

The labeller tests check the engine's run labeller sample for sample against
``hard_assign(e_step(...))``, including where the sign test alone would be
wrong: identical densities, samples on a crossing, and zero-density rows.
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
from jitterfit.distributions import _gamma_from_log_moments
from jitterfit.em import (
    _fit_kind,
    _label_runs,
    _labels_in_trace_order,
    _responsibilities,
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
    for index, kind in enumerate(config.kinds):
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
KIND_ORDERS = (
    (ModelKind.EXPONENTIAL, ModelKind.GAMMA),
    (ModelKind.GAMMA, ModelKind.EXPONENTIAL),
)


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
    for seed in range(50):
        trace = PARITY_MIXES[mix](seed)
        for kinds in KIND_ORDERS:
            where = f"{mix} seed {seed} kinds {[k.name for k in kinds]}"
            want = _assert_parity(trace, EMConfig(kinds=kinds), where)
            stopped_on_budget += not want.converged
            warned += bool(want.warnings)
    if mix == "overlapping":
        assert stopped_on_budget
    if mix in ("narrow-single-regime", "quantized"):
        assert warned


def _gamma_solve_converges(fit) -> bool:
    try:
        fit()
    except NonConvergenceError:
        return False
    return True


@pytest.mark.parametrize("seed, spread", [(32, 0.002), (40, 0.002), (72, 0.003)])
def test_engine_matches_oracle_when_refit_depends_on_summation_order(seed, spread):
    # On these draws the gamma model's first refit (shape 1e5 and more)
    # converges on one summation order of its samples but not on the other:
    # on the trace-order sums for seeds 32 and 40, on the sorted-order ones
    # for seed 72.  The engine redoes such a refit in trace order, so it
    # still matches.
    trace = JitterTrace(np.exp(np.random.default_rng(seed).normal(0.0, spread, 200)))
    initial = [_fit_kind(kind, trace.samples) for kind in KIND_ORDERS[0]]
    subset = trace.samples[hard_assign(e_step(trace, initial)) == 1]
    s = np.sort(subset)
    sorted_converges = _gamma_solve_converges(
        lambda: _gamma_from_log_moments(float(s.sum()) / s.size, float(np.log(s).sum()) / s.size)
    )
    trace_converges = _gamma_solve_converges(lambda: _fit_kind(ModelKind.GAMMA, subset))
    assert sorted_converges != trace_converges
    for kinds in KIND_ORDERS:
        _assert_parity(trace, EMConfig(kinds=kinds), f"seed {seed} kinds {kinds}")


# ------------------------------------------------------------- run labeller


def _engine_labels(samples, params):
    """Labels and dead count from the engine's labeller, in input order."""
    samples = np.asarray(samples, dtype=np.float64)
    order = np.argsort(samples, kind="stable")
    s = samples[order]
    gamma_index = next(i for i, p in enumerate(params) if p.kind is ModelKind.GAMMA)
    runs, dead = _label_runs(s, np.log(s), params, gamma_index)
    assert all(a[1] == b[0] and a[2] != b[2] for a, b in zip(runs, runs[1:]))
    assert runs[0][0] == 0 and runs[-1][1] == s.size
    return _labels_in_trace_order(runs, order), dead


def _reference_labels(samples, params):
    trace = JitterTrace(samples)
    log_densities = np.column_stack([log_pdf_many(p, trace.samples) for p in params])
    _, dead = _responsibilities(log_densities)
    return hard_assign(e_step(trace, params)), dead


def _assert_labeller_agrees(samples, params):
    got, got_dead = _engine_labels(samples, params)
    want, want_dead = _reference_labels(samples, params)
    assert np.array_equal(got, want)
    assert got_dead == want_dead
    return got


def _both_orders(exponential, gamma):
    return ((exponential, gamma), (gamma, exponential))


@settings(max_examples=300, deadline=None)
@given(
    rate=st.floats(1e-4, 1e4),
    shape=st.floats(0.05, 200.0),
    scale=st.floats(1e-4, 1e4),
    samples=st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=60),
    gamma_first=st.booleans(),
)
def test_labeller_matches_reference(rate, shape, scale, samples, gamma_first):
    exponential = ModelParams.exponential(rate)
    gamma = ModelParams.gamma(shape, scale)
    params = (gamma, exponential) if gamma_first else (exponential, gamma)
    _assert_labeller_agrees(np.array(samples), params)


@pytest.mark.parametrize("rate", [0.3, 1.0, 2.0, 7.7, 1e-3, 123.4])
def test_labeller_identical_densities(rate):
    # gamma(1, 1/rate) is exp(rate); the two log-densities differ only by
    # rounding, so every label is the reference predicate's call.
    samples = np.random.default_rng(1).exponential(1.0 / rate, 2000)
    for params in _both_orders(
        ModelParams.exponential(rate), ModelParams.gamma(1.0, 1.0 / rate)
    ):
        _assert_labeller_agrees(samples, params)


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
    for params in _both_orders(exponential, gamma):
        _assert_labeller_agrees(np.array(samples), params)


def test_labeller_gamma_below_one_owns_both_tails():
    exponential = ModelParams.exponential(1.0)
    gamma = ModelParams.gamma(0.5, 4.0)
    samples = np.geomspace(1e-6, 40.0, 3000)
    for params in _both_orders(exponential, gamma):
        labels = _assert_labeller_agrees(samples, params)
        gamma_index = params.index(gamma)
        assert labels[0] == gamma_index and labels[-1] == gamma_index
        assert (labels != gamma_index).any()


@pytest.mark.parametrize(
    "exponential, gamma",
    [
        (ModelParams.exponential(1.0), ModelParams.gamma(4.0, 1000.0)),
        (ModelParams.exponential(1e-3), ModelParams.gamma(50.0, 1e-3)),
    ],
)
def test_labeller_one_model_wins_every_sample(exponential, gamma):
    samples = np.random.default_rng(5).uniform(1.0, 2.0, 1000)
    for params in _both_orders(exponential, gamma):
        labels = _assert_labeller_agrees(samples, params)
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
        for params in _both_orders(exponential, gamma):
            _assert_labeller_agrees(np.array(samples), params)
            dead_seen += _engine_labels(np.array(samples), params)[1]
    assert dead_seen > 0
