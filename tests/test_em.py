"""Hard-EM engine behavior: assignment semantics, refits, convergence."""

import numpy as np
import pytest

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
    m_step,
)


def _exp_trace(n, rate=1.0, seed=0):
    spec = RegimeSpec(segments=((ModelParams.exponential(rate), n),), seed=seed)
    return generate_synthetic(spec).trace


def _gamma_trace(n, shape=4.0, scale=1.0, seed=0):
    spec = RegimeSpec(segments=((ModelParams.gamma(shape, scale), n),), seed=seed)
    return generate_synthetic(spec).trace


# ------------------------------------------------------------------ E step


def test_e_step_rows_sum_to_one():
    rng = np.random.default_rng(3)
    trace = JitterTrace(rng.uniform(1e-4, 60.0, 500))
    cases = [
        (ModelParams.exponential(1.0), ModelParams.gamma(4.0, 1.0)),
        (ModelParams.exponential(1e3), ModelParams.gamma(0.2, 50.0)),
        (ModelParams.exponential(1e-4), ModelParams.gamma(200.0, 1e-3)),
    ]
    for params in cases:
        resp = e_step(trace, params)
        assert resp.shape == (500, 2)
        assert np.all(np.isfinite(resp))
        assert np.all(resp >= 0.0)
        assert np.max(np.abs(resp.sum(axis=1) - 1.0)) <= 1e-12


def test_e_step_no_mixing_weights():
    # With no mixing proportions, a responsibility row depends only on the
    # density ratio at that sample; a lopsided label split must not tilt it.
    trace = JitterTrace(np.array([0.3, 0.3, 0.3, 0.3, 5.0]))
    params = (ModelParams.exponential(1.0), ModelParams.gamma(4.0, 1.0))
    resp = e_step(trace, params)
    assert np.allclose(resp[0], resp[3], rtol=0, atol=0)


def test_e_step_identical_densities_split_evenly():
    trace = JitterTrace(np.linspace(0.1, 5.0, 50))
    resp = e_step(trace, (ModelParams.exponential(2.0), ModelParams.gamma(1.0, 0.5)))
    assert np.max(np.abs(resp - 0.5)) <= 1e-12


def test_e_step_zero_density_rows_fall_back_to_model_zero():
    # Both models underflow to zero density at 1e308; the row cannot be
    # normalized and lands one-hot on model 0.
    trace = JitterTrace(np.array([1.0, 1e308]))
    params = (ModelParams.exponential(10.0), ModelParams.gamma(2.0, 1e-3))
    resp = e_step(trace, params)
    assert np.max(np.abs(resp.sum(axis=1) - 1.0)) <= 1e-12
    assert resp[1, 0] == 1.0 and resp[1, 1] == 0.0


def test_e_step_one_sided_zero_density_row_is_one_hot():
    # rate 1e308 at v=10 underflows the exponential density to exactly zero
    # while the gamma density stays finite, so the row must be (0, 1).
    trace = JitterTrace(np.array([10.0]))
    params = (ModelParams.exponential(1e308), ModelParams.gamma(1.0, 1.0))
    resp = e_step(trace, params)
    assert resp[0, 0] == 0.0
    assert resp[0, 1] == 1.0


def test_hard_assign_takes_lowest_index_on_ties():
    resp = np.array([[0.5, 0.5], [0.2, 0.8], [0.7, 0.3]])
    assert hard_assign(resp).tolist() == [0, 1, 0]
    # exact ties across identical param lists all go to model 0
    trace = JitterTrace(np.linspace(0.1, 5.0, 20))
    resp = e_step(trace, (ModelParams.exponential(2.0), ModelParams.exponential(2.0)))
    assert hard_assign(resp).tolist() == [0] * 20


# ------------------------------------------------------------------ M step


def test_m_step_refits_toward_generators():
    spec = RegimeSpec(
        segments=(
            (ModelParams.exponential(2.0), 15000),
            (ModelParams.gamma(4.0, 1.0), 15000),
        ),
        seed=12,
    )
    labeled = generate_synthetic(spec)
    prev = [ModelParams.exponential(1.0), ModelParams.gamma(1.5, 3.0)]
    updated, notes = m_step(labeled.trace, labeled.truth_labels, prev)
    assert notes == []
    assert updated[0].rate == pytest.approx(2.0, rel=0.05)
    assert updated[1].shape == pytest.approx(4.0, rel=0.05)
    assert updated[1].scale == pytest.approx(1.0, rel=0.05)


def test_m_step_freezes_small_subset():
    trace = _exp_trace(50, seed=2)
    labels = np.zeros(50, dtype=np.int64)  # gamma gets nothing
    prev = [ModelParams.exponential(5.0), ModelParams.gamma(2.0, 2.0)]
    updated, notes = m_step(trace, labels, prev)
    assert updated[1] is prev[1]
    assert len(notes) == 1 and "too small" in notes[0]
    # the exponential still refits
    assert updated[0].rate == pytest.approx(1.0 / trace.samples.mean(), rel=1e-12)


def test_m_step_freezes_degenerate_subset():
    samples = np.concatenate([np.full(5, 2.0), np.array([0.5, 1.5, 3.0])])
    trace = JitterTrace(samples)
    labels = np.array([1] * 5 + [0] * 3, dtype=np.int64)
    prev = [ModelParams.exponential(1.0), ModelParams.gamma(3.0, 0.5)]
    updated, notes = m_step(trace, labels, prev)
    assert updated[1] is prev[1]
    assert len(notes) == 1 and "refit failed" in notes[0]


# ------------------------------------------------------------------ em_fit


def test_em_fit_pure_exponential_regression():
    # Frozen behavior on one fixed draw: the run stabilizes quickly, and the
    # split it settles on is reproduced exactly.
    trace = _exp_trace(2000, seed=8)
    result = em_fit(trace)
    assert result.converged is True
    assert result.iterations_used == 13
    assert int(np.sum(result.labels == 0)) == 1281
    assert len(result.loglik_history) == 13


def test_em_fit_budget_exhaustion_is_not_an_error():
    # This draw happens to still be re-labelling at the default budget; the
    # run must come back usable with converged=False rather than raise.
    trace = _exp_trace(2000, seed=6)
    result = em_fit(trace)
    assert result.converged is False
    assert result.iterations_used == 50
    assert len(result.loglik_history) == 50
    assert int(np.sum(result.labels == 0)) == 987
    assert all(isinstance(p, ModelParams) for p in result.final_params)


def test_em_fit_respects_max_iters():
    trace = _exp_trace(2000, seed=6)
    result = em_fit(trace, EMConfig(max_iters=5))
    assert result.iterations_used == 5
    assert result.converged is False
    assert len(result.loglik_history) == 5


def test_em_fit_single_iteration_runs_one_pass():
    # A budget of one buys exactly one E+M pass; there is no earlier label
    # vector to compare against, so the run cannot report convergence.
    trace = _exp_trace(2000, seed=8)
    result = em_fit(trace, EMConfig(max_iters=1))
    assert result.iterations_used == 1
    assert result.converged is False
    assert len(result.loglik_history) == 1


def test_em_fit_loglik_history_non_decreasing():
    for seed in range(12):
        trace = _exp_trace(600, seed=seed) if seed % 2 else _gamma_trace(600, seed=seed)
        result = em_fit(trace)
        history = np.array(result.loglik_history)
        assert np.all(np.diff(history) >= -1e-9)
        assert result.classification_loglik >= history[-1] - 1e-9


def test_em_fit_converged_is_a_fixed_point():
    trace = _gamma_trace(1500, seed=4)
    result = em_fit(trace)
    assert result.converged
    resp = e_step(trace, result.final_params)
    labels_again = hard_assign(resp)
    assert np.array_equal(labels_again, result.labels)
    params_again, notes = m_step(trace, labels_again, list(result.final_params))
    assert notes == []
    assert tuple(params_again) == result.final_params


def test_em_fit_is_deterministic():
    spec = RegimeSpec(
        segments=(
            (ModelParams.gamma(4.0, 1.0), 1000),
            (ModelParams.exponential(1.0), 1000),
        ),
        seed=5,
    )
    trace = generate_synthetic(spec).trace
    first = em_fit(trace)
    second = em_fit(trace)
    assert np.array_equal(first.labels, second.labels)
    assert first.final_params == second.final_params
    assert first.loglik_history == second.loglik_history
    assert first.iterations_used == second.iterations_used


@pytest.mark.parametrize("c", [0.25, 3.7, 1000.0, 1e-4, 1e-6, 1e6])
def test_em_fit_is_scale_covariant(c):
    # Rescaling the samples by c rescales rate by 1/c and scale by c, leaves
    # shape alone, and cannot move any label: every log-density shifts by the
    # same -ln(c), so each sample's argmax is unchanged.
    spec = RegimeSpec(
        segments=(
            (ModelParams.gamma(4.0, 1.0), 1000),
            (ModelParams.exponential(1.0), 1000),
        ),
        seed=5,
    )
    base = generate_synthetic(spec).trace
    plain = em_fit(base)
    scaled = em_fit(JitterTrace(base.samples * c))
    assert np.array_equal(plain.labels, scaled.labels)
    exp0, gam0 = plain.final_params
    exp1, gam1 = scaled.final_params
    assert exp1.rate == pytest.approx(exp0.rate / c, rel=1e-12)
    assert gam1.shape == pytest.approx(gam0.shape, rel=1e-12)
    assert gam1.scale == pytest.approx(gam0.scale * c, rel=1e-12)


def test_em_fit_two_regime_reference_regression(reference_trace):
    # Frozen outcome of the deterministic run on the two-regime reference
    # trace (seed 42): which model claims each half, to the sample.
    result = em_fit(reference_trace)
    assert result.converged is True
    assert result.iterations_used == 11
    assert int(np.sum(result.labels[:15000] == 1)) == 13496
    assert int(np.sum(result.labels[15000:] == 0)) == 12291
    assert result.final_params[0].rate == pytest.approx(1.4386766633761094, rel=1e-12)
    assert result.final_params[1].shape == pytest.approx(5.395991032896296, rel=1e-12)
    assert result.final_params[1].scale == pytest.approx(0.7452201116863323, rel=1e-12)


def test_em_fit_setup_errors():
    with pytest.raises(SetupError):
        em_fit(JitterTrace(np.array([1.0])))  # gamma init needs two samples
    with pytest.raises(SetupError):
        em_fit(JitterTrace(np.full(100, 2.0)))  # constant trace, no spread


def test_em_config_validation():
    with pytest.raises(ValueError):
        EMConfig(max_iters=0)
    with pytest.raises(ValueError):
        EMConfig(kinds=(ModelKind.GAMMA,))
    with pytest.raises(ValueError):
        EMConfig(kinds=(ModelKind.GAMMA, ModelKind.GAMMA))


def test_assignment_is_frozen():
    trace = _exp_trace(300, seed=1)
    result = em_fit(trace)
    assert isinstance(result, Assignment)
    with pytest.raises(ValueError):
        result.labels[0] = 5
    with pytest.raises(AttributeError):
        result.converged = False
