"""Hard-assignment EM over the exponential and gamma families.

Each iteration commits every sample to the model with the higher density,
then refits each model on the samples it won.  Iteration stops as soon as
the label vector repeats, or when the iteration budget runs out.

No mixing proportions are estimated, so a sample's label depends only on
how the two densities compare at that one value: it is the sign of the
log-density difference ``d(v) = (a-1) ln v + (rate - 1/b) v + c`` of the
gamma(a, b) model over the exponential one.  ``d'`` changes sign at most
once, so over the sorted samples the labels form at most three contiguous
runs.  :func:`em_fit` sorts each trace once and works on those runs: it
bisects for the flips of ``d``, refits each model from sums over its runs,
and stops when the run boundaries repeat.  Samples too close to a flip for
the sign of ``d`` to be trusted under rounding are labelled by the reference
predicate instead: the normalized densities of :func:`e_step` fed to
:func:`hard_assign`, ties going to model 0.  So the fit's labels always
equal ``hard_assign(e_step(trace, params))``, and those two remain as the
reference functions; :func:`m_step` runs once per fit, in trace order, to
give the final parameters.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    ModelKind,
    ModelParams,
    _gamma_from_log_moments,
    _log_pdf_unchecked,
    log_pdf_many,
    mle_exponential,
    mle_gamma,
)
from .errors import (
    DegenerateDataError,
    InsufficientDataError,
    NonConvergenceError,
    SetupError,
)
from .special import ln_gamma
from .traceio import JitterTrace

__all__ = [
    "MIN_SUBSET_SIZE",
    "EMConfig",
    "Assignment",
    "e_step",
    "hard_assign",
    "m_step",
    "em_fit",
]

# Smallest subset each family can be refitted on: the exponential mean needs
# one sample, the gamma shape solve needs two distinct ones.
MIN_SUBSET_SIZE = {ModelKind.EXPONENTIAL: 1, ModelKind.GAMMA: 2}

# Half-width of the band around a flip of d, relative to the magnitudes of
# the terms d and the two log-densities are summed from.  Their rounding
# error is a few ulps of that magnitude, so outside the band the sign of d
# decides a label exactly as the reference predicate would.
_BAND_RELATIVE = 1e-12

# Above this gamma shape, the log-moment gap of the shape solve is so small
# that its last bits, which depend on the order the samples were summed in,
# can decide whether the solve converges (it starts to fail near 1e5).  A
# refit from sorted-order sums that lands above it, or fails, is redone in
# trace order.
_SORTED_REFIT_MAX_SHAPE = 1e3


@dataclass(frozen=True)
class EMConfig:
    """Iteration budget and candidate set for one EM run."""

    max_iters: int = 50
    kinds: tuple[ModelKind, ...] = (ModelKind.EXPONENTIAL, ModelKind.GAMMA)

    def __post_init__(self):
        if int(self.max_iters) < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters!r}")
        object.__setattr__(self, "max_iters", int(self.max_iters))
        kinds = tuple(ModelKind(k) for k in self.kinds)
        if len(kinds) < 2:
            raise ValueError("the candidate set needs at least two models")
        if len(set(kinds)) != len(kinds):
            raise ValueError("candidate kinds must be distinct")
        object.__setattr__(self, "kinds", kinds)


@dataclass(frozen=True)
class Assignment:
    """Result of one EM run.

    ``labels[j]`` is the index into ``final_params`` of the model that owns
    sample j.  ``classification_loglik`` is the log-likelihood of the samples
    under their assigned models and ``loglik_history`` holds that quantity as
    it stood after each assignment pass.  ``warnings`` collects non-fatal
    events (frozen refits, samples no model could score).
    """

    labels: np.ndarray
    iterations_used: int
    converged: bool
    final_params: tuple[ModelParams, ...]
    classification_loglik: float
    loglik_history: tuple[float, ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        labels = np.array(self.labels, dtype=np.int64, copy=True)
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "final_params", tuple(self.final_params))
        object.__setattr__(self, "loglik_history", tuple(self.loglik_history))
        object.__setattr__(self, "warnings", tuple(self.warnings))


def _log_density_matrix(samples: np.ndarray, params) -> np.ndarray:
    return np.column_stack([log_pdf_many(p, samples) for p in params])


def _responsibilities(log_densities: np.ndarray) -> tuple[np.ndarray, int]:
    """Normalize densities across models, row by row, in log space.

    Rows where every model scores zero density cannot be normalized; those
    samples fall back to a one-hot row on model 0 and are counted in the
    second return value.
    """
    row_max = log_densities.max(axis=1, keepdims=True)
    dead = ~np.isfinite(row_max[:, 0])
    shifted = log_densities - np.where(np.isfinite(row_max), row_max, 0.0)
    weights = np.exp(shifted)
    with np.errstate(invalid="ignore"):
        resp = weights / weights.sum(axis=1, keepdims=True)
    if dead.any():
        resp[dead, :] = 0.0
        resp[dead, 0] = 1.0
    return resp, int(dead.sum())


def e_step(trace: JitterTrace, params) -> np.ndarray:
    """Responsibility matrix: each row is the candidates' density vector at
    that sample, normalized to sum to one.

    A reference function: :func:`em_fit` applies the same rule only to the
    few samples next to a flip of the label, and its labels always equal
    ``hard_assign(e_step(trace, params))``.
    """
    resp, _ = _responsibilities(_log_density_matrix(trace.samples, params))
    return resp


def hard_assign(responsibilities: np.ndarray) -> np.ndarray:
    """Commit each sample to its highest-responsibility model.

    Ties go to the lowest model index, which is what argmax does.
    """
    return np.argmax(np.asarray(responsibilities), axis=1)


def _fit_kind(kind: ModelKind, samples) -> ModelParams:
    if kind is ModelKind.EXPONENTIAL:
        return mle_exponential(samples)
    return mle_gamma(samples)


def _refit(index: int, prev: ModelParams, size: int, fit) -> tuple[ModelParams, str | None]:
    """Refit one model with ``fit()``, or keep ``prev`` and say why."""
    name = prev.kind.name.lower()
    if size < MIN_SUBSET_SIZE[prev.kind]:
        return prev, (
            f"model {index} ({name}): subset of {size} sample(s) too "
            "small to refit, parameters kept"
        )
    try:
        return fit(), None
    except (DegenerateDataError, NonConvergenceError) as exc:
        return prev, f"model {index} ({name}): refit failed ({exc}), parameters kept"


def m_step(trace: JitterTrace, labels, prev_params) -> tuple[list[ModelParams], list[str]]:
    """Refit every model on its assigned subset.

    A model whose subset is too small, or whose fit degenerates, keeps its
    previous parameters; each such freeze is reported in the notes list.
    """
    labels = np.asarray(labels)
    updated: list[ModelParams] = []
    notes: list[str] = []
    for index, prev in enumerate(prev_params):
        subset = trace.samples[labels == index]
        params, note = _refit(
            index, prev, subset.size, lambda: _fit_kind(prev.kind, subset)
        )
        updated.append(params)
        if note is not None:
            notes.append(note)
    return updated, notes


def _first(lo: int, hi: int, pred) -> int:
    """First index in [lo, hi) where the monotone ``pred`` holds, else hi."""
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _label_runs(
    s: np.ndarray, logs: np.ndarray, params, gamma_index: int
) -> tuple[tuple[tuple[int, int, int], ...], int]:
    """Label the sorted samples ``s`` (with ``logs = ln s``) under ``params``.

    Returns the labels as runs ``(start, stop, model)`` that cover ``s`` with
    adjacent runs always differing in model, and the number of samples that
    scored zero density under both models.

    ``d(v) = A ln v + B v + C`` is the gamma log-density minus the
    exponential one.  Its slope ``A/v + B`` changes sign at most once, at
    ``v* = -A/B``, so d is monotone on each side of v*; on each side two
    bisections find the band where ``|d| <= T``, with T far above the
    rounding error of d.  Outside the band the sign of d gives the label;
    inside, the reference predicate does.  When the term magnitudes
    overflow, the whole trace is the band.
    """
    exp_index = 1 - gamma_index
    gamma, exponential = params[gamma_index], params[exp_index]
    a, b, rate = gamma.shape, gamma.scale, exponential.rate
    A = a - 1.0
    B = rate - 1.0 / b
    log_norm = a * math.log(b) + ln_gamma(a)
    log_rate = math.log(rate)
    C = -log_norm - log_rate
    n = s.size
    T = _BAND_RELATIVE * (
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
        resp, band_dead = _responsibilities(_log_density_matrix(s[start:stop], params))
        labels = hard_assign(resp)
        dead += band_dead
        edges = [0, *(np.flatnonzero(np.diff(labels)) + 1).tolist(), labels.size]
        for lo, hi in zip(edges, edges[1:]):
            emit(start + lo, start + hi, int(labels[lo]))

    if not math.isfinite(T):
        band(0, n)
        return tuple(runs), dead

    def d(i: int) -> float:
        return A * logs.item(i) + B * s.item(i) + C

    split = int(np.searchsorted(s, -A / B)) if A * B < 0.0 else n
    for start, stop, slope in ((0, split, A or B), (split, n, B)):
        if start >= stop:
            continue
        # Along this piece sign * d rises, so both band edges are bisections.
        sign = 1.0 if slope >= 0.0 else -1.0
        low = _first(start, stop, lambda i: sign * d(i) >= -T)
        high = _first(low, stop, lambda i: sign * d(i) > T)
        emit(start, low, exp_index if sign > 0.0 else gamma_index)
        band(low, high)
        emit(high, stop, gamma_index if sign > 0.0 else exp_index)
    return tuple(runs), dead


def _labels_in_trace_order(runs, order: np.ndarray) -> np.ndarray:
    by_rank = np.empty(order.size, dtype=np.int64)
    for start, stop, model in runs:
        by_rank[start:stop] = model
    labels = np.empty(order.size, dtype=np.int64)
    labels[order] = by_rank
    return labels


def _run_sums(runs, s: np.ndarray, logs: np.ndarray, params):
    """Per model: sample count, sum of v and (gamma only) sum of ln v over
    its runs; and the classification log-likelihood, from the same
    per-sample log-densities as :func:`log_pdf_many`, summed run by run."""
    sums = [[0, 0.0, 0.0] for _ in params]
    loglik = 0.0
    with np.errstate(over="ignore"):
        for start, stop, model in runs:
            entry = sums[model]
            entry[0] += stop - start
            entry[1] += float(s[start:stop].sum())
            if params[model].kind is ModelKind.GAMMA:
                entry[2] += float(logs[start:stop].sum())
            densities = _log_pdf_unchecked(params[model], s[start:stop], logs[start:stop])
            loglik += float(densities.sum())
    return sums, loglik


def _fit_from_sums(kind: ModelKind, count: int, sum_v: float, sum_log: float):
    """The MLE from a subset's size and sums, or None where the outcome could
    depend on the order the sums were taken in: a gamma solve that fails, or
    lands above :data:`_SORTED_REFIT_MAX_SHAPE`."""
    mean = sum_v / count
    if kind is ModelKind.EXPONENTIAL:
        return ModelParams.exponential(1.0 / mean)
    try:
        fitted = _gamma_from_log_moments(mean, sum_log / count)
    except (DegenerateDataError, NonConvergenceError):
        return None
    return fitted if fitted.shape <= _SORTED_REFIT_MAX_SHAPE else None


def _m_step_runs(trace: JitterTrace, runs, order: np.ndarray, sums, prev_params):
    """:func:`m_step` from the per-model sums over the sorted runs.

    A refit whose outcome could depend on the order of summation is redone
    on the samples in trace order, so whether a borderline refit fails, and
    the note it leaves, match :func:`m_step`.
    """
    updated: list[ModelParams] = []
    notes: list[str] = []
    for index, prev in enumerate(prev_params):
        count, sum_v, sum_log = sums[index]

        def fit():
            fitted = _fit_from_sums(prev.kind, count, sum_v, sum_log)
            if fitted is None:
                labels = _labels_in_trace_order(runs, order)
                fitted = _fit_kind(prev.kind, trace.samples[labels == index])
            return fitted

        params, note = _refit(index, prev, count, fit)
        updated.append(params)
        if note is not None:
            notes.append(note)
    return updated, notes


def em_fit(trace: JitterTrace, config: EMConfig = EMConfig()) -> Assignment:
    """Run hard-assignment EM on a trace.

    Every candidate model is first fitted on the whole trace; those fits are
    the starting parameters.  Iteration then alternates assignment and
    refitting until the labels repeat exactly or ``config.max_iters`` passes
    have run.  A run that stops on the budget is returned with
    ``converged=False`` rather than raised, so the caller still sees the
    last assignment.

    The samples are sorted once.  Each pass labels them as at most three
    runs by the sign of the log-density difference (see the module notes),
    refits each model from sums over its runs, and compares run boundaries
    with the previous pass.  Ties, including those that rounding makes in
    the normalized densities, go to model 0, as in :func:`hard_assign`.
    The labels are put back in trace order once, at the end, where one
    :func:`m_step` in trace order repeats the last refit, so the final
    parameters and ``classification_loglik`` do not depend on the order
    the refits summed in.  The refits before it sum over the sorted runs,
    so their parameters, and the ``loglik_history`` entries scored under
    them, can differ from a trace-order computation in the last bits.
    """
    params: list[ModelParams] = []
    for index, kind in enumerate(config.kinds):
        try:
            params.append(_fit_kind(kind, trace.samples))
        except (InsufficientDataError, DegenerateDataError, NonConvergenceError) as exc:
            raise SetupError(
                f"initial fit failed for model {index} ({kind.name.lower()}): {exc}"
            ) from exc
    gamma_index = config.kinds.index(ModelKind.GAMMA)
    # Equal samples always share a label, so the sort need not be stable.
    order = np.argsort(trace.samples)
    s = trace.samples[order]
    logs = np.log(s)
    warnings: list[str] = []
    history: list[float] = []
    prev_runs = None
    refit_from = params
    fitted_on: list = [None] * len(params)  # runs of each model's latest refit
    converged = False
    iterations_used = config.max_iters
    for iteration in range(1, config.max_iters + 1):
        runs, dead = _label_runs(s, logs, params, gamma_index)
        if dead:
            warnings.append(
                f"iteration {iteration}: {dead} sample(s) scored zero density "
                "under every model, assigned to model 0"
            )
        sums, loglik = _run_sums(runs, s, logs, params)
        history.append(loglik)
        if runs == prev_runs:
            converged = True
            iterations_used = iteration
            break
        refit_from = params
        params, notes = _m_step_runs(trace, runs, order, sums, refit_from)
        warnings.extend(f"iteration {iteration}: {note}" for note in notes)
        for index, (new, old) in enumerate(zip(params, refit_from)):
            if new is not old:  # a frozen model keeps the very same object
                fitted_on[index] = runs
        prev_runs = runs
    labels = _labels_in_trace_order(runs, order)
    # Redo the last refit in trace order.  A model it froze keeps the result
    # of an earlier refit, which summed in sorted order: redo that one in
    # trace order too.
    refit_from = [
        _fit_kind(prev.kind, trace.samples[_labels_in_trace_order(fitted, order) == index])
        if prev is params[index] and fitted is not None
        else prev
        for index, (prev, fitted) in enumerate(zip(refit_from, fitted_on))
    ]
    params, _ = m_step(trace, labels, refit_from)
    final_densities = _log_density_matrix(trace.samples, params)
    loglik = float(np.take_along_axis(final_densities, labels[:, None], axis=1).sum())
    if converged:
        # The last pass was scored under these same parameters.
        history[-1] = loglik
    return Assignment(
        labels=labels,
        iterations_used=iterations_used,
        converged=converged,
        final_params=tuple(params),
        classification_loglik=loglik,
        loglik_history=tuple(history),
        warnings=tuple(warnings),
    )
