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
finds the flips of ``d`` by galloping from where they were on the previous
pass (from the start of each monotone piece on the first pass), refits each
model on its runs, and stops when the run boundaries repeat.  Samples too
close to a flip for the sign of ``d`` to be trusted under rounding are
labelled by the reference predicate instead: the normalized densities of
:func:`e_step` fed to :func:`hard_assign`, where the exponential is model 0
and takes ties.  So the fit's labels always equal
``hard_assign(e_step(trace, params))``.
Every maximum-likelihood fit sums its samples in ascending order, and a
model's runs, end to end, are its samples in that order, so each refit
equals :func:`m_step`'s by construction: both hand their subsets to one
refit rule, which fits each model or keeps its parameters and says why.
:func:`e_step` and :func:`m_step` remain as the reference functions;
:func:`em_fit` calls neither.

No pass has a sample that both models score at zero density.  The initial
fits bound ``rate * v`` by about n and ``v / b`` by about ``a * n`` at each
sample; later, a sample's owner refits on a subset that holds it, or keeps
the parameters that scored it finite.

The loop is one private engine with two consumers.  :func:`em_fit` puts
the labels in trace order and, unless told not to record the history,
scores each pass; :func:`~jitterfit.scan.scan_trace` runs the engine on each
window slice and reports only what it needs, the run lengths and the final
parameters.  Scoring a pass is an O(n) sum of log-densities, so the CLI's
``fit``, whose outputs hold no history, asks for none.
"""

import bisect
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import ModelKind, ModelParams, _fit_sorted, _log_pdf_unchecked
from .errors import (
    DegenerateDataError,
    InsufficientDataError,
    NonConvergenceError,
    ParameterDomainError,
    SetupError,
    _int_field,
)
from .special import ln_gamma
from .traceio import JitterTrace

__all__ = [
    "EMConfig",
    "Assignment",
    "e_step",
    "hard_assign",
    "m_step",
    "em_fit",
]

# Half-width of the band around a flip of d, relative to the magnitudes of
# the terms d and the two log-densities are summed from.  Their rounding
# error is a few ulps of that magnitude, so outside the band the sign of d
# decides a label exactly as the reference predicate would.
_BAND_RELATIVE = 1e-12


@dataclass(frozen=True)
class EMConfig:
    """Iteration budget for one EM run.

    The candidates are fixed in :class:`~jitterfit.distributions.ModelKind`'s
    order: the exponential is model 0 and takes ties, the gamma is model 1.
    """

    max_iters: int = 50

    def __post_init__(self):
        max_iters = _int_field("max_iters", self.max_iters)
        if max_iters < 1:
            raise ParameterDomainError(f"max_iters must be at least 1, got {self.max_iters!r}")
        object.__setattr__(self, "max_iters", max_iters)


@dataclass(frozen=True)
class Assignment:
    """Result of one EM run.

    ``labels[j]`` is the index into ``final_params`` of the model that owns
    sample j.  ``classification_loglik`` is the log-likelihood of the samples
    under their assigned models and ``loglik_history`` holds that quantity as
    it stood after each assignment pass, or is ``()`` when the run did not
    record it.  ``warnings`` collects non-fatal events: the refits that kept
    a model's previous parameters.
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


def _log_density_matrix(samples: np.ndarray, logs: np.ndarray, params) -> np.ndarray:
    """Each model's log-densities at the finite positive ``samples``
    (``logs = ln samples``), one column per model.  Far-tail values overflow
    to the right -inf; callers silence the warning."""
    return np.column_stack([_log_pdf_unchecked(p, samples, logs) for p in params])


def _responsibilities(log_densities: np.ndarray) -> np.ndarray:
    """Normalize densities across models, row by row, in log space.

    Rows where every model scores zero density cannot be normalized; those
    samples fall back to a one-hot row on model 0.
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
    return resp


def e_step(trace: JitterTrace, params) -> np.ndarray:
    """Responsibility matrix: each row is the candidates' density vector at
    that sample, normalized to sum to one.

    A reference function: :func:`em_fit` applies the same rule only to the
    few samples next to a flip of the label, and its labels always equal
    ``hard_assign(e_step(trace, params))``.
    """
    with np.errstate(over="ignore"):
        log_densities = _log_density_matrix(trace.samples, np.log(trace.samples), params)
    return _responsibilities(log_densities)


def hard_assign(responsibilities: np.ndarray) -> np.ndarray:
    """Commit each sample to its highest-responsibility model.

    Ties go to the lowest model index, which is what argmax does.
    """
    return np.argmax(np.asarray(responsibilities), axis=1)


def _refit(prev_params, subsets) -> tuple[list[ModelParams], list[str]]:
    """Refit each model on its subset ``(s, logs)`` (``s`` ascending, with
    ``logs = ln s`` for a gamma model) with :func:`_fit_sorted`, or keep its
    parameters and note why: the one refit rule of :func:`m_step` and the
    engine."""
    updated: list[ModelParams] = []
    notes: list[str] = []
    for index, (prev, (s, logs)) in enumerate(zip(prev_params, subsets)):
        try:
            updated.append(_fit_sorted(prev.kind, s, logs))
            continue
        except InsufficientDataError:
            why = f"subset of {s.size} sample(s) too small to refit"
        except (DegenerateDataError, NonConvergenceError) as exc:
            why = f"refit failed ({exc})"
        updated.append(prev)
        notes.append(f"model {index} ({prev.kind.name.lower()}): {why}, parameters kept")
    return updated, notes


@np.errstate(over="ignore")
def m_step(trace: JitterTrace, labels, prev_params) -> tuple[list[ModelParams], list[str]]:
    """Refit every model on its assigned subset.

    Each model refits on the sorted subset by the engine's refit rule,
    without re-validating trace samples, so each fit is the MLE of its
    family on that subset.  A model whose subset is too small, or whose fit
    degenerates, keeps its previous parameters; each such freeze is
    reported in the notes list.
    """
    labels = np.asarray(labels)
    subsets = []
    for index, prev in enumerate(prev_params):
        s = np.sort(trace.samples[labels == index])
        subsets.append((s, np.log(s) if prev.kind is ModelKind.GAMMA else None))
    return _refit(prev_params, subsets)


def _gallop(key, x, guess: int, lo: int, hi: int) -> int:
    """``bisect.bisect_left(range(hi), x, lo, hi, key=key)``, searched
    outward from ``guess``.

    Probes 1, 2, 4, ... places away from ``guess`` (clamped into [lo, hi])
    bracket the answer in [first, last], then the bisection finishes inside
    the bracket.  Each probe makes the bisection's own comparison, so on a
    key that is below ``x`` on a prefix of [lo, hi) the result is the plain
    bisection's wherever the search starts.
    """
    guess = min(max(guess, lo), hi)
    step = 1
    if guess < hi and key(guess) < x:
        first = guess + 1
        while guess + step < hi and key(guess + step) < x:
            first = guess + step + 1
            step *= 2
        last = min(guess + step, hi)
    else:
        last = guess
        while guess - step >= lo and not key(guess - step) < x:
            last = guess - step
            step *= 2
        first = max(guess - step + 1, lo)
    if first == last:
        return first
    return bisect.bisect_left(range(hi), x, first, last, key=key)


def _label_runs(
    s: np.ndarray, logs: np.ndarray, params, lows: dict
) -> tuple[tuple[int, int, int], ...]:
    """Label the sorted samples ``s`` (with ``logs = ln s``) under ``params``,
    the exponential model and then the gamma one.

    Returns the labels as runs ``(start, stop, model)`` that cover ``s`` with
    adjacent runs always differing in model.

    ``d(v) = A ln v + B v + C`` is the gamma log-density minus the
    exponential one.  Its slope ``A/v + B`` changes sign at most once, at
    ``v* = -A/B``, so d is monotone on each side of v*; on each side two
    searches find the band where ``|d| <= T``, with T far above the rounding
    error of d.  Outside the band the sign of d gives the label; inside, the
    reference predicate does.  When the term magnitudes overflow, the whole
    trace is the band.  Callers silence numpy's overflow warning, as the
    band's far-tail log-densities can overflow.

    ``lows`` maps each piece, ``(side of the split, sign of its slope)``, to
    its low band edges on the last two passes over ``s``, newest first, and
    is updated in place; the piece's start stands in for a pass that did not
    run.  The search for a piece's low edge gallops from the edge
    extrapolated from those two, and the search for its high edge from the
    new low edge.  Wherever a search starts, it returns the edge a bisection
    of the piece finds.
    """
    exponential, gamma = params
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

    def emit(start: int, stop: int, model: int) -> None:
        if start >= stop:
            return
        if runs and runs[-1][2] == model:
            runs[-1] = (runs[-1][0], stop, model)
        else:
            runs.append((start, stop, model))

    def band(start: int, stop: int) -> None:
        if start >= stop:
            return
        labels = hard_assign(
            _responsibilities(_log_density_matrix(s[start:stop], logs[start:stop], params))
        )
        edges = [0, *(np.flatnonzero(np.diff(labels)) + 1).tolist(), labels.size]
        for lo, hi in zip(edges, edges[1:]):
            emit(start + lo, start + hi, int(labels[lo]))

    if not math.isfinite(T):
        band(0, n)
        return tuple(runs)

    split = int(s.searchsorted(-A / B)) if A * B < 0.0 else n
    for side, (start, stop, slope) in enumerate(((0, split, A or B), (split, n, B))):
        if start >= stop:
            continue
        # Along this piece sign * d rises, so both band edges are searches of
        # a sorted key.  Below the band d has the sign of -sign, above it
        # that of sign, and a positive d means the gamma model (model 1)
        # wins.  Negation is exact and rounding symmetric, so the signed
        # coefficients give sign * d bit for bit.
        sign = 1.0 if slope >= 0.0 else -1.0
        sA, sB, sC = sign * A, sign * B, sign * C

        def rising(i: int) -> float:
            return sA * logs.item(i) + sB * s.item(i) + sC

        piece = (side, sign)
        last, before = lows.get(piece, (start, start))
        low = _gallop(rising, -T, 2 * last - before, start, stop)
        # d is finite wherever T is, so it lies above T exactly when it is
        # not below the next double: the edge bisect_right finds at T.
        high = _gallop(rising, math.nextafter(T, math.inf), low, low, stop)
        lows[piece] = (low, last)
        emit(start, low, int(sign < 0.0))
        band(low, high)
        emit(high, stop, int(sign > 0.0))
    return tuple(runs)


def _trace_labels(runs, s: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """The labels of ``samples`` (in any order) under the runs over their
    sorted copy ``s``.

    Equal samples always share a label, so each run is a range of values: a
    sample's run is the last one whose first value is not above it.
    """
    models = np.array([model for _, _, model in runs], dtype=np.int64)
    first_values = s[[start for start, _, _ in runs]]
    return models[np.searchsorted(first_values, samples, side="right") - 1]


def _run_loglik(runs, s: np.ndarray, logs: np.ndarray, params) -> float:
    """Classification log-likelihood from the per-sample log-densities of
    :func:`_log_pdf_unchecked`, summed run by run."""
    loglik = 0.0
    for start, stop, model in runs:
        densities = _log_pdf_unchecked(params[model], s[start:stop], logs[start:stop])
        loglik += float(densities.sum())
    return loglik


def _trace_loglik(labels: np.ndarray, samples: np.ndarray, params) -> float:
    """Classification log-likelihood of ``samples`` under their ``labels``,
    summed in trace order: the per-sample log-densities of
    :func:`_log_pdf_unchecked`, filled in model by model."""
    densities = np.empty(samples.size)
    for index, model in enumerate(params):
        mask = labels == index
        v = samples[mask]
        logs = np.log(v) if model.kind is ModelKind.GAMMA else None
        densities[mask] = _log_pdf_unchecked(model, v, logs)
    return float(densities.sum())


def _end_to_end(values: np.ndarray, own: list[slice]) -> np.ndarray:
    """``values`` over the slices ``own``, end to end: a view when there is
    one, an empty slice when there are none."""
    if len(own) > 1:
        return np.concatenate([values[k] for k in own])
    return values[own[0] if own else slice(0, 0)]


def _m_step_runs(runs, s: np.ndarray, logs: np.ndarray, prev_params):
    """:func:`m_step` on the sorted samples ``s`` (``logs = ln s``) labelled
    by ``runs``.

    A model's subset in ascending order is its runs end to end, so
    :func:`_refit` makes bit for bit the refits :func:`m_step` makes.
    """
    subsets = []
    for index, prev in enumerate(prev_params):
        own = [slice(start, stop) for start, stop, model in runs if model == index]
        own_logs = _end_to_end(logs, own) if prev.kind is ModelKind.GAMMA else None
        subsets.append((_end_to_end(s, own), own_logs))
    return _refit(prev_params, subsets)


class _EngineResult(NamedTuple):
    """Where the sorted-order engine stopped: the sorted samples ``s``, the
    last pass's ``runs`` over them, and the parameters after that pass."""

    s: np.ndarray
    runs: tuple[tuple[int, int, int], ...]
    params: list[ModelParams]
    iterations_used: int
    converged: bool
    warnings: list[str]


# Overflow is expected inside a fit: far-tail log-densities overflow to the
# right -inf (see _log_pdf_unchecked), and a sample sum that overflows is a
# DegenerateDataError (see _fit_sorted).  The engine silences it itself, as
# the scan calls it directly; em_fit does too, for its final log-likelihood.
@np.errstate(over="ignore")
def _em_sorted(samples: np.ndarray, config: EMConfig, on_labelled=None) -> _EngineResult:
    """The hard-EM loop of :func:`em_fit` over validated ``samples``.

    Sorts the samples once, fits the initial models on all of them, then
    labels, compares run boundaries and refits until the runs repeat or the
    budget runs out.  One dict carries each piece's band edges from a pass's
    labelling to the next.  ``on_labelled(runs, s, logs,
    params)``, when given, is called on every pass that goes on to a refit,
    with the parameters that labelled it.
    """
    s = np.sort(samples)
    logs = np.log(s)
    params: list[ModelParams] = []
    for kind in ModelKind:
        try:
            params.append(_fit_sorted(kind, s, logs))
        except (InsufficientDataError, DegenerateDataError, NonConvergenceError) as exc:
            raise SetupError(
                f"initial fit failed for model {kind.value} ({kind.name.lower()}): {exc}"
            ) from exc
    warnings: list[str] = []
    lows: dict[tuple[int, float], tuple[int, int]] = {}
    prev_runs = None
    for iteration in range(1, config.max_iters + 1):
        runs = _label_runs(s, logs, params, lows)
        if runs == prev_runs:
            return _EngineResult(s, runs, params, iteration, True, warnings)
        if on_labelled is not None:
            on_labelled(runs, s, logs, params)
        params, notes = _m_step_runs(runs, s, logs, params)
        warnings.extend(f"iteration {iteration}: {note}" for note in notes)
        prev_runs = runs
    return _EngineResult(s, runs, params, config.max_iters, False, warnings)


@np.errstate(over="ignore")
def em_fit(
    trace: JitterTrace, config: EMConfig = EMConfig(), *, record_history: bool = True
) -> Assignment:
    """Run hard-assignment EM on a trace.

    Every candidate model is first fitted on the whole trace; those fits are
    the starting parameters.  Iteration then alternates assignment and
    refitting until the labels repeat exactly or ``config.max_iters`` passes
    have run.  A run that stops on the budget is returned with
    ``converged=False`` rather than raised, so the caller still sees the
    last assignment.

    The samples are sorted once.  Each pass labels them as at most three
    runs by the sign of the log-density difference (see the module notes),
    finding the flips by galloping from the previous pass's band edges, or
    from the start of each piece on the first pass, then refits each model
    on its runs and compares run boundaries with the previous pass.  Ties,
    including those that rounding makes in the normalized densities, go to
    model 0, the exponential, as in :func:`hard_assign`.  Every fit sums its
    samples in ascending order, so each refit equals the one :func:`m_step`
    makes on the trace-order labels, bit for bit.  The labels are put in
    trace order once, at the end, where ``classification_loglik`` is summed
    in trace order; the ``loglik_history`` entries before it are summed run
    by run, so they can differ from a trace-order sum in the last bits.

    Each history entry costs a pass over every sample.  With
    ``record_history=False`` no pass is scored and ``loglik_history`` is
    ``()``; every other field is the same, ``classification_loglik``
    included.  :func:`~jitterfit.scan.scan_trace` runs the same engine on
    each window but scores no pass, since it reports no log-likelihood.
    """
    history: list[float] = []

    def score(runs, s, logs, params) -> None:
        history.append(_run_loglik(runs, s, logs, params))

    fit = _em_sorted(trace.samples, config, score if record_history else None)
    labels = _trace_labels(fit.runs, fit.s, trace.samples)
    loglik = _trace_loglik(labels, trace.samples, fit.params)
    if record_history and fit.converged:
        # The pass that repeated the runs went unscored; it is this one.
        history.append(loglik)
    return Assignment(
        labels=labels,
        iterations_used=fit.iterations_used,
        converged=fit.converged,
        final_params=tuple(fit.params),
        classification_loglik=loglik,
        loglik_history=tuple(history),
        warnings=tuple(fit.warnings),
    )
