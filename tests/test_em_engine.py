"""The sorted-order EM engine against the per-sample loop it replaced.

``_oracle_em_fit`` is the responsibility-matrix loop ``em_fit`` used to run,
kept here verbatim as the reference engine.  The parity test requires the
same labels, iteration count, convergence and warnings, bit-identical final
parameters and classification log-likelihood, and a log-likelihood history
within 1e-12 relative: the engine sums each pass's log-densities run by run
over the sorted samples, the oracle in trace order.  The Hypothesis fuzz
over drawn mixes states that history bound against the pass's absolute
log-density mass ``sum_j |l_j|`` instead, as near-zero totals have no
useful relative bound.

The labeller tests check the engine's run labeller sample for sample against
the reference predicate on :func:`log_pdf_many`'s densities, and
``hard_assign(e_step(...))`` against both, including where the sign test
alone would be wrong: identical densities, samples on a crossing, and
zero-density rows.  The models are in the engine's fixed order: the
exponential is model 0, the gamma model 1.

``_oracle_label_runs`` is the labeller as it was before it galloped from
the previous pass's band edges: it bisects every edge on every pass, and
counts the samples both models score at zero density.  The galloping
labeller must return its runs whatever edges it is handed, and on every
pass of the drawn-mix fits, where the oracle must count no such sample.
Runs hide an edge found one place too far out, as the reference predicate
labels that sample as the sign would, so the edge search ``_edge`` is also
checked on its own against ``bisect.bisect_left``.

The engine reports no zero-density samples, because a fit cannot make one:
the oracles keep their warning, and the extreme-spread fuzz holds the
engine to the oracle where such a sample would be likeliest.
"""

import bisect
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
    mle_exponential,
    mle_gamma,
)
from jitterfit import em
from jitterfit.em import (
    _edge,
    _label_runs,
    _responsibilities,
    _trace_results,
)
from jitterfit.distributions import (
    _fit_exponential,
    _fit_gamma,
    _log_pdf_unchecked,
    _sorted_rows,
)
from jitterfit.errors import (
    DegenerateDataError,
    InsufficientDataError,
    NonConvergenceError,
)
from jitterfit.special import ln_gamma

from conftest import reference_spec


def _log_density_matrix(trace: JitterTrace, params) -> np.ndarray:
    return np.column_stack([log_pdf_many(p, trace.samples) for p in params])


def _dead_rows(log_densities: np.ndarray) -> int:
    """The number of samples every model scores at zero density."""
    return int((~np.isfinite(log_densities.max(axis=1))).sum())


def _oracle_em_fit(
    trace: JitterTrace, config: EMConfig = EMConfig(), masses: list | None = None
) -> Assignment:
    """The reference loop.  When ``masses`` is given, each pass's absolute
    log-density mass ``sum_j |l_j|`` is appended to it, one per history
    entry."""
    params: list[ModelParams] = []
    for index, (kind, mle) in enumerate(
        ((ModelKind.EXPONENTIAL, mle_exponential), (ModelKind.GAMMA, mle_gamma))
    ):
        try:
            params.append(mle(trace.samples))
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
        resp = _responsibilities(log_densities)
        dead = _dead_rows(log_densities)
        if dead:
            warnings.append(
                f"iteration {iteration}: {dead} sample(s) scored zero density "
                "under every model, assigned to model 0"
            )
        labels = hard_assign(resp)
        chosen = np.take_along_axis(log_densities, labels[:, None], axis=1)
        history.append(float(chosen.sum()))
        if masses is not None:
            masses.append(float(np.abs(chosen).sum()))
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


def _assert_same_fit(got, want, where):
    """All that parity requires but the closeness of the history entries."""
    assert np.array_equal(got.labels, want.labels), where
    assert got.iterations_used == want.iterations_used, where
    assert got.converged == want.converged, where
    assert got.warnings == want.warnings, where
    assert got.final_params == want.final_params, where
    assert got.classification_loglik == want.classification_loglik, where
    assert len(got.loglik_history) == len(want.loglik_history), where
    if got.converged:
        assert got.loglik_history[-1] == got.classification_loglik, where


def _assert_parity(trace, config, where):
    got, want = em_fit(trace, config), _oracle_em_fit(trace, config)
    _assert_same_fit(got, want, where)
    for ours, theirs in zip(got.loglik_history, want.loglik_history):
        assert ours == theirs or math.isclose(ours, theirs, rel_tol=1e-12), where
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


# A gamma segment, then an exponential one, over wide parameter ranges.
def _mixes(most: int):
    """Two-segment traces, gamma then exponential, of 20 to ``most`` samples
    each."""
    return st.builds(
        lambda shape, scale, rate, n_gamma, n_exponential, seed: _mix(
            (ModelParams.gamma(shape, scale), n_gamma),
            (ModelParams.exponential(rate), n_exponential),
            seed=seed,
        ),
        shape=st.floats(0.3, 20.0),
        scale=st.floats(1e-3, 1e3),
        rate=st.floats(1e-3, 1e3),
        n_gamma=st.integers(20, most),
        n_exponential=st.integers(20, most),
        seed=st.integers(0, 2**64 - 1),
    )


_drawn_mixes = _mixes(400)


def _assert_fuzz_parity(trace, where):
    """Parity with the oracle, or the same SetupError; returns the engine's
    fit and the oracle's, or None on a SetupError.

    A history entry is a sum of per-sample log-densities of either sign;
    the engine sums it run by run over the sorted samples, the oracle in
    trace order, so the two differ by rounding on the pass's absolute
    log-density mass, not on the (possibly near-zero) sum itself.
    """
    config, masses = EMConfig(), []
    try:
        want = _oracle_em_fit(trace, config, masses)
    except SetupError as exc:
        with pytest.raises(SetupError) as got:
            em_fit(trace, config)
        assert str(got.value) == str(exc)
        return None
    got = em_fit(trace, config)
    _assert_same_fit(got, want, where)
    for ours, theirs, mass in zip(got.loglik_history, want.loglik_history, masses):
        assert ours == theirs or abs(ours - theirs) <= 1e-12 * mass
    return got, want


@settings(max_examples=300, deadline=None)
@given(trace=_drawn_mixes)
def test_engine_matches_oracle_on_drawn_mixes(trace):
    _assert_fuzz_parity(trace, "drawn mix")


def _assert_unrecorded_fit_matches(trace, where):
    """``record_history=False`` gives the default fit, field by field, but
    for an empty history; both raise the same SetupError or neither does."""
    try:
        want = em_fit(trace)
    except SetupError as exc:
        with pytest.raises(SetupError) as got:
            em_fit(trace, record_history=False)
        assert str(got.value) == str(exc), where
        return
    got = em_fit(trace, record_history=False)
    assert got.loglik_history == (), where
    assert np.array_equal(got.labels, want.labels), where
    assert got.iterations_used == want.iterations_used, where
    assert got.converged == want.converged, where
    assert got.final_params == want.final_params, where
    assert got.classification_loglik == want.classification_loglik, where
    assert got.warnings == want.warnings, where


@pytest.mark.parametrize("mix", sorted(PARITY_MIXES))
def test_unrecorded_history_leaves_every_other_field_alone(mix):
    for seed in range(100):
        _assert_unrecorded_fit_matches(PARITY_MIXES[mix](seed), f"{mix} seed {seed}")


@settings(max_examples=300, deadline=None)
@given(trace=_drawn_mixes)
def test_unrecorded_history_leaves_every_other_field_alone_on_drawn_mixes(trace):
    _assert_unrecorded_fit_matches(trace, "drawn mix")


def test_record_history_is_keyword_only():
    trace = PARITY_MIXES["reference"](0)
    with pytest.raises(TypeError):
        em_fit(trace, EMConfig(), False)


def _extreme_trace(clusters, seed):
    """Samples log-uniform over [10**low, 10**(low + width)], capped at
    1e308, for each cluster ``(low, width, count)``."""
    rng = np.random.default_rng(seed)
    exponents = [
        rng.uniform(low, min(low + width, 308.0), count) for low, width, count in clusters
    ]
    return JitterTrace(10.0 ** np.concatenate(exponents))


# One to three clusters anywhere from subnormal to near the largest double,
# from a single decade wide or less to the whole range: where a sample
# that both models score at zero density would be likeliest.
_extreme_traces = st.builds(
    _extreme_trace,
    clusters=st.lists(
        st.tuples(st.floats(-310.0, 308.0), st.floats(0.0, 618.0), st.integers(1, 150)),
        min_size=1,
        max_size=3,
    ),
    seed=st.integers(0, 2**64 - 1),
)


@settings(max_examples=300, deadline=None)
@given(trace=_extreme_traces)
def test_no_pass_scores_a_sample_at_zero_density_under_both_models(trace):
    # The engine keeps no count of such samples; the oracle does, and warns.
    fits = _assert_fuzz_parity(trace, "extreme spread")
    if fits is None:
        return
    got, want = fits
    assert not any("zero density" in warning for warning in want.warnings)
    assert all(math.isfinite(entry) for entry in got.loglik_history)
    assert math.isfinite(got.classification_loglik)


@settings(max_examples=300, deadline=None)
@given(trace=_drawn_mixes)
def test_converged_fit_is_a_fixed_point(trace):
    # A converged fit's parameters label the samples as it reports, and
    # refitting those labels gives back the very same parameters.
    try:
        fit = em_fit(trace)
    except SetupError:
        return
    if not fit.converged:
        return
    assert np.array_equal(hard_assign(e_step(trace, fit.final_params)), fit.labels)
    params, _ = m_step(trace, fit.labels, fit.final_params)
    assert tuple(params) == tuple(fit.final_params)


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


# ------------------------------------------------------------ stacked sums


# Any length the engine meets in a scan window, and the lengths where
# numpy's pairwise sum changes how it splits a row: its 8-way unrolled
# blocks and its 128-element leaves.
_RUN_LENGTHS = st.one_of(
    st.sampled_from([7, 8, 9, 127, 128, 129, 3500]), st.integers(0, 5000)
)


@settings(max_examples=300, deadline=None)
@given(
    lengths=st.tuples(_RUN_LENGTHS, _RUN_LENGTHS),
    offset=st.integers(0, 5000),
    gap=st.integers(0, 50),
    seed=st.integers(0, 2**64 - 1),
)
def test_a_sum_along_the_rows_has_each_rows_own_bits(lengths, offset, gap, seed):
    """The gamma refit sums ``[s; ln s]`` along the rows in one reduction,
    over one run or two runs end to end.  Each row's sum must be that row's
    own 1-d pairwise sum, bit for bit: the sum the fits document, and the
    one the pinned digests were recorded with."""
    first, second = lengths
    total = offset + first + gap + second
    rows = _sorted_rows(np.exp(np.random.default_rng(seed).normal(0.0, 3.0, total)))
    one = slice(offset, offset + first)
    two = slice(offset + first + gap, total)
    got = np.add.reduce(rows[:, one], axis=1)
    assert got.tolist() == [np.add.reduce(row[one]) for row in rows]
    joined = np.concatenate([rows[:, one], rows[:, two]], axis=1)
    got = np.add.reduce(joined, axis=1)
    want = [np.add.reduce(np.concatenate([row[one], row[two]])) for row in rows]
    assert got.tolist() == want


# ------------------------------------------------------ trace-order results


def _whole_trace_loglik(labels, samples, params):
    """The trace-order log-likelihood filled in one pass over the whole
    trace: one mask and one subset per model."""
    densities = np.empty(samples.size)
    for index, model in enumerate(params):
        mask = labels == index
        v = samples[mask]
        logs = np.log(v) if model.kind is ModelKind.GAMMA else None
        densities[mask] = _log_pdf_unchecked(model, v, logs)
    return float(densities.sum())


def _labels_through_the_sort(runs, order):
    """The labels of ``runs`` over the sorted samples ``samples[order]``, put
    back in trace order through the sort permutation ``order``."""
    labels = np.empty(order.size, dtype=np.int64)
    labels[order] = np.repeat(
        [model for _, _, model in runs], [stop - start for start, stop, _ in runs]
    )
    return labels


def _assert_trace_order_results(samples):
    """``_trace_results`` gives each sample the label of its place among the
    sorted samples, frozen, and its log-likelihood, picked a chunk at a time
    from both models' densities, sums to the whole-trace fill bit for bit.
    Returns those labels and that sum."""
    fit = em._em_sorted(samples, EMConfig())
    order = np.argsort(samples, kind="stable")
    assert np.array_equal(fit.firsts, samples[order][[start for start, _, _ in fit.runs]])
    want_labels = _labels_through_the_sort(fit.runs, order)
    with np.errstate(over="ignore"):
        labels, loglik = _trace_results(fit, samples)
        want = _whole_trace_loglik(want_labels, samples, fit.params)
    assert np.array_equal(labels, want_labels)
    assert labels.dtype == np.int64 and not labels.flags.writeable
    assert loglik == want
    return want_labels, want


@pytest.mark.parametrize("n", [65535, 65536, 65537, 3 * 65536 + 7])
def test_trace_order_results_at_the_chunk_edges(n):
    trace = _mix(
        (ModelParams.gamma(2.0, 0.5), n // 2), (ModelParams.exponential(2.0), n - n // 2), seed=n
    )
    _assert_trace_order_results(trace.samples)


@settings(max_examples=25, deadline=None)
@given(trace=_mixes(100_000))
def test_trace_order_results_on_long_drawn_mixes(trace):
    _assert_trace_order_results(trace.samples)


@pytest.mark.parametrize("seed", range(3))
def test_trace_order_results_where_the_other_density_overflows(seed):
    """On a trace from about 1e-300 to 1e300 the model that owns the small
    samples scores the large ones past the largest double, an overflow to the
    right -inf that em_fit silences; nothing else warns."""
    rng = np.random.default_rng(seed)
    samples = np.concatenate(
        (1e-300 + rng.exponential(1e-300, 3000), rng.gamma(4.0, 1e299, 3000))
    )
    rng.shuffle(samples)
    fit = em._em_sorted(samples, EMConfig())
    with np.errstate(over="ignore"):
        both = em._log_density_matrix(samples, np.log(samples), fit.params)
    assert np.isneginf(both).any(axis=1).sum() >= 1000
    assert np.isfinite(both.max(axis=1)).all()
    want_labels, want = _assert_trace_order_results(samples)
    result = em_fit(JitterTrace(samples))
    assert np.array_equal(result.labels, want_labels)
    assert result.classification_loglik == want


# ------------------------------------------------------------- run labeller


def _engine_labels(samples, params):
    """Labels from the engine's labeller, in input order, with overflow
    silenced as the engine silences it."""
    samples = np.asarray(samples, dtype=np.float64)
    order = np.argsort(samples, kind="stable")
    s = samples[order]
    with np.errstate(over="ignore"):
        runs = _label_runs(s, np.log(s), params, {})
    assert all(a[1] == b[0] and a[2] != b[2] for a, b in zip(runs, runs[1:]))
    assert runs[0][0] == 0 and runs[-1][1] == s.size
    return _labels_through_the_sort(runs, order)


def _reference_labels(samples, params):
    return hard_assign(_responsibilities(_log_density_matrix(JitterTrace(samples), params)))


def _assert_labeller_agrees(samples, params):
    got = _engine_labels(samples, params)
    want = _reference_labels(samples, params)
    assert np.array_equal(got, want)
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
    # The oracle labeller counts the rows that fall back to model 0.
    cases = [
        ([10.0, 1e-310, 1.0], ModelParams.exponential(1e308), ModelParams.gamma(1.0, 1.0)),
        ([1.0, 1e308, 5.0], ModelParams.exponential(10.0), ModelParams.gamma(2.0, 1e-3)),
        ([1.0, 2.0, 3.0], ModelParams.exponential(1e308), ModelParams.gamma(2.0, 1e-306)),
    ]
    dead_seen = 0
    for samples, exponential, gamma in cases:
        params = (exponential, gamma)
        _assert_labeller_agrees(np.array(samples), params)
        s = np.sort(samples)
        with np.errstate(over="ignore"):
            dead_seen += _oracle_label_runs(s, np.log(s), params)[1]
    assert dead_seen > 0


# ------------------------------------------------------ galloping labeller


def _oracle_label_runs(
    s: np.ndarray, logs: np.ndarray, params
) -> tuple[tuple[tuple[int, int, int], ...], int]:
    """The bisect-only labeller, verbatim but for the ``em.`` prefix on the
    engine's private names (its docstring is left out), with its own count of
    the samples both models score at zero density."""
    exponential, gamma = params
    a, b, rate = gamma.shape, gamma.scale, exponential.rate
    A = a - 1.0
    B = rate - 1.0 / b
    log_norm = a * math.log(b) + ln_gamma(a)
    log_rate = math.log(rate)
    C = -log_norm - log_rate
    n = s.size
    T = em._BAND_RELATIVE * (
        abs(A) * max(abs(logs.item(0)), abs(logs.item(n - 1)))
        + (rate + 1.0 / b) * s.item(n - 1)
        + abs(log_norm)
        + abs(log_rate)
        + 1.0
    )
    runs: list[tuple[int, int, int]] = []
    dead = 0

    def emit(start: int, stop: int, model: int) -> None:
        if start >= stop:
            return
        if runs and runs[-1][2] == model:
            runs[-1] = (runs[-1][0], stop, model)
        else:
            runs.append((start, stop, model))

    def band(start: int, stop: int) -> None:
        nonlocal dead
        if start >= stop:
            return
        log_densities = em._log_density_matrix(s[start:stop], logs[start:stop], params)
        labels = hard_assign(_responsibilities(log_densities))
        dead += _dead_rows(log_densities)
        edges = [0, *(np.flatnonzero(np.diff(labels)) + 1).tolist(), labels.size]
        for lo, hi in zip(edges, edges[1:]):
            emit(start + lo, start + hi, int(labels[lo]))

    if not math.isfinite(T):
        band(0, n)
        return tuple(runs), dead

    split = int(np.searchsorted(s, -A / B)) if A * B < 0.0 else n
    for start, stop, slope in ((0, split, A or B), (split, n, B)):
        if start >= stop:
            continue
        # Along this piece sign * d rises, so both band edges are bisections.
        # Below the band d has the sign of -sign, above it that of sign, and
        # a positive d means the gamma model (model 1) wins.  Negation is
        # exact and rounding symmetric, so the signed coefficients give
        # sign * d bit for bit.
        sign = 1.0 if slope >= 0.0 else -1.0
        sA, sB, sC = sign * A, sign * B, sign * C

        def rising(i: int) -> float:
            return sA * logs.item(i) + sB * s.item(i) + sC

        low = bisect.bisect_left(range(n), -T, start, stop, key=rising)
        high = bisect.bisect_right(range(n), T, low, stop, key=rising)
        emit(start, low, int(sign < 0.0))
        band(low, high)
        emit(high, stop, int(sign > 0.0))
    return tuple(runs), dead


@settings(max_examples=500, deadline=None)
@given(
    keys=st.lists(st.integers(-5, 5), max_size=80).map(sorted),
    x=st.integers(-6, 6),
    data=st.data(),
)
def test_gallop_finds_the_bisection_edge_from_any_guess(keys, x, data):
    n = len(keys)
    lo = data.draw(st.integers(0, n))
    hi = data.draw(st.integers(lo, n))
    guess = data.draw(st.integers(-n - 5, 2 * n + 5))
    want = bisect.bisect_left(range(hi), x, lo, hi, key=keys.__getitem__)
    # The keys stand in for the logs, and 1 * key + 0 * 0.0 + 0 is the key.
    assert _edge(np.zeros(n), np.array(keys, dtype=np.int64), 1, 0, 0, x, guess, lo, hi) == want



class _CountedItems:
    """An array whose ``item`` calls are counted in ``calls``."""

    def __init__(self, array: np.ndarray, calls: list):
        self.array, self.calls = array, calls

    def item(self, index: int) -> float:
        self.calls.append(index)
        return self.array.item(index)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "segments",
    [
        ((ModelParams.gamma(4.0, 1.0), 1750), (ModelParams.exponential(1.0), 1750)),
        ((ModelParams.gamma(0.5, 2.0), 1750), (ModelParams.exponential(1.0), 1750)),
        ((ModelParams.gamma(4.0, 1.0), 3500),),
        ((ModelParams.exponential(1.0), 3500),),
    ],
)
def test_first_pass_bisects_each_piece(monkeypatch, segments, seed):
    # With no earlier pass to gallop from, each piece's low edge is a plain
    # bisection of the piece, and the high edge a search on from it: on a
    # 3500-sample window, 2 * (12 + 2) = 28 key evaluations at most for
    # both pieces together.  Galloping from each piece's start takes about
    # twice a bisection's probes.
    rows = _sorted_rows(_mix(*segments, seed=seed).samples)
    params = [_fit_exponential(rows[0]), _fit_gamma(rows)]
    calls: list[int] = []
    edge = em._edge
    monkeypatch.setattr(
        em, "_edge", lambda s, logs, *rest: edge(s, _CountedItems(logs, calls), *rest)
    )
    with np.errstate(over="ignore"):
        _label_runs(rows[0], rows[1], params, {})
    n = rows.shape[1]
    assert 0 < len(calls) <= 2 * (math.ceil(math.log2(n)) + 2)


_PIECES = [(side, sign) for side in (0, 1) for sign in (1.0, -1.0)]


def _piece_ends(s: np.ndarray, params) -> list[int]:
    """The first and last index of each piece, and the index past each."""
    exponential, gamma = params
    A = gamma.shape - 1.0
    B = exponential.rate - 1.0 / gamma.scale
    n = s.size
    split = int(np.searchsorted(s, -A / B)) if A * B < 0.0 else n
    return sorted({0, max(split - 1, 0), split, n - 1, n})


@settings(max_examples=300, deadline=None)
@given(
    rate=st.floats(1e-4, 1e4),
    shape=st.floats(0.05, 200.0),
    scale=st.floats(1e-4, 1e4),
    samples=st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=200),
    data=st.data(),
)
def test_galloping_labeller_matches_bisection_for_every_hint(
    rate, shape, scale, samples, data
):
    params = (ModelParams.exponential(rate), ModelParams.gamma(shape, scale))
    s = np.sort(np.array(samples))
    logs = np.log(s)
    n = s.size

    def check(lows):
        with np.errstate(over="ignore"):
            assert _label_runs(s, logs, params, dict(lows)) == want, lows

    with np.errstate(over="ignore"):
        want, _ = _oracle_label_runs(s, logs, params)
        assert _label_runs(s, logs, params, {}) == want
    # A guess of 2 * last - before_last: exactly at each piece end, then
    # outside the samples on either side.
    for guess in _piece_ends(s, params) + [-1, -n - 7, n + 1, 3 * n + 7]:
        check({piece: (guess, guess) for piece in _PIECES})
    position = st.integers(-2 * n - 2, 3 * n + 2)
    for _ in range(4):
        check({piece: (data.draw(position), data.draw(position)) for piece in _PIECES})


@settings(max_examples=150, deadline=None)
@given(trace=_drawn_mixes)
def test_galloping_labeller_matches_bisection_on_every_pass(trace):
    galloping = em._label_runs
    passes = []

    def checked(s, logs, params, lows):
        hinted = bool(lows)
        got = galloping(s, logs, params, lows)
        assert (got, 0) == _oracle_label_runs(s, logs, params), len(passes)
        passes.append(hinted)
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(em, "_label_runs", checked)
        try:
            fit = em_fit(trace)
        except SetupError:
            return
    assert len(passes) == fit.iterations_used
    assert all(passes[1:])
