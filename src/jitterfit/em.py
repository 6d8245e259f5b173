"""Hard-assignment EM over the exponential and gamma families.

Each iteration commits every sample to the model with the higher density,
then refits each model on the samples it won.  Iteration stops as soon as
the label vector repeats, or when the iteration budget runs out.

No mixing proportions are estimated, so a sample's label depends only on
how the two densities compare at that one value: it is the sign of the
log-density difference ``d(v) = (a-1) ln v + (rate - 1/b) v + c`` of the
gamma(a, b) model over the exponential one.  ``d'`` changes sign at most
once, so over the sorted samples the labels form at most three contiguous
runs.  :func:`em_fit` sorts each trace once, into the first row of one
array whose second row holds the logs, ``[s; ln s]``, and works on those
runs.  It finds the flips of ``d`` by galloping from where they were on the
previous pass (on the first pass, by bisecting each monotone piece),
evaluating ``d`` inline at each probe.  It refits the exponential on its
runs of the first row and the gamma on its runs of both rows, summed by one
reduction along the rows, and stops when the run boundaries repeat.  Samples too
close to a flip for the sign of ``d`` to be trusted under rounding are
labelled by the reference predicate instead: the normalized densities of
:func:`e_step` fed to :func:`hard_assign`, where the exponential is model 0
and takes ties.  So the fit's labels always equal
``hard_assign(e_step(trace, params))``.
Every maximum-likelihood fit sums its samples in ascending order, a sum
along the rows gives each row the bits of its own sum, and a model's runs,
end to end, are its samples in that order, so each refit equals
:func:`m_step`'s by construction: both hand their subsets to one refit
rule, which fits the model or keeps its parameters and says why.
:func:`e_step` and :func:`m_step` remain as the reference functions;
:func:`em_fit` calls neither.

No pass has a sample that both models score at zero density.  The initial
fits bound ``rate * v`` by about n and ``v / b`` by about ``a * n`` at each
sample; later, a sample's owner refits on a subset that holds it, or keeps
the parameters that scored it finite.

The loop is one private engine with two consumers.  :func:`em_fit` puts
the labels in trace order and sums their log-likelihood in one pass over
the trace and, unless told not to record the history, scores each pass;
:func:`~jitterfit.scan.scan_trace` runs the engine on each
window slice and reports only what it needs, the run lengths and the final
parameters.  Scoring a pass is an O(n) sum of log-densities, so the CLI's
``fit``, whose outputs hold no history, asks for none.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import (
    ModelKind,
    ModelParams,
    _fit_exponential,
    _fit_gamma,
    _log_pdf_unchecked,
    _sorted_rows,
    _unchecked,
)
from .errors import (
    DegenerateDataError,
    InsufficientDataError,
    NonConvergenceError,
    ParameterDomainError,
    SetupError,
    _int_field,
)
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


def _refit(fit, subset: np.ndarray, index: int, prev: ModelParams, notes: list) -> ModelParams:
    """``fit(subset)``, the refit of model ``index`` on its samples, or, when
    that fails, ``prev`` with a note in ``notes`` that says why: the one
    refit rule of :func:`m_step` and the engine."""
    try:
        return fit(subset)
    except InsufficientDataError:
        why = f"subset of {subset.shape[-1]} sample(s) too small to refit"
    except (DegenerateDataError, NonConvergenceError) as exc:
        why = f"refit failed ({exc})"
    notes.append(f"model {index} ({prev.kind.name.lower()}): {why}, parameters kept")
    return prev


@np.errstate(over="ignore")
def m_step(trace: JitterTrace, labels, prev_params) -> tuple[list[ModelParams], list[str]]:
    """Refit every model on its assigned subset: ``prev_params`` are the
    exponential model and then the gamma one, as in :class:`EMConfig`.

    Each model refits on its sorted subset by the engine's refit rule,
    without re-validating trace samples, so each fit is the MLE of its
    family on that subset.  A model whose subset is too small, or whose fit
    degenerates, keeps its previous parameters; each such freeze is
    reported in the notes list.
    """
    labels = np.asarray(labels)
    notes: list[str] = []
    return [
        _refit(_fit_exponential, np.sort(trace.samples[labels == 0]), 0, prev_params[0], notes),
        _refit(_fit_gamma, _sorted_rows(trace.samples[labels == 1]), 1, prev_params[1], notes),
    ], notes


def _edge(s: np.ndarray, logs: np.ndarray, sA, sB, sC, x, guess: int, lo: int, hi: int) -> int:
    """``bisect.bisect_left(range(hi), x, lo, hi, key=key)`` for the key
    ``sA * logs[i] + sB * s[i] + sC``, evaluated inline in that order,
    searched outward from ``guess``.

    Probes 1, 2, 4, ... places on from the last one gallop away from a
    ``guess`` in [lo, hi) until the key crosses ``x``, then bisect the
    bracket; any other ``guess`` starts a plain bisection.  Each probe makes
    the bisection's own comparison, so on a key below ``x`` on a prefix of
    [lo, hi) the result is the plain bisection's wherever the search starts.
    """
    step = 1 if lo <= guess < hi else hi - lo
    while lo < hi:
        i = guess if lo <= guess < hi else (lo + hi) // 2
        if sA * logs.item(i) + sB * s.item(i) + sC < x:
            lo, guess = i + 1, i + step
        else:
            hi, guess = i, i - step
        step *= 2
    return lo


def _band(s: np.ndarray, logs: np.ndarray, params, start: int, stop: int) -> list:
    """The reference predicate's runs over the non-empty ``s[start:stop]``."""
    labels = hard_assign(
        _responsibilities(_log_density_matrix(s[start:stop], logs[start:stop], params))
    )
    edges = [0, *(np.flatnonzero(np.diff(labels)) + 1).tolist(), labels.size]
    return [(start + lo, start + hi, int(labels[lo])) for lo, hi in zip(edges, edges[1:])]


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
    is updated in place; a piece's first pass bisects it for its low edge
    and stores that edge as both entries.  Later searches for a piece's low
    edge gallop from the edge extrapolated from those two, and the search
    for its high edge from the new low edge.  Wherever a search starts, it
    returns the edge a bisection of the piece finds.
    """
    exponential, gamma = params
    a, b, rate = gamma.shape, gamma.scale, exponential.rate
    A = a - 1.0
    B = rate - 1.0 / b
    log_norm = a * math.log(b) + math.lgamma(a)  # the fits keep a finite and capped
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
    if not math.isfinite(T):
        return tuple(_band(s, logs, params, 0, n))
    # d is finite wherever T is, so it lies above T exactly when it is not
    # below the next double: the edge bisect_right finds at T.
    above = math.nextafter(T, math.inf)
    pieces = []
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
        piece = (side, sign)
        last, before = lows.get(piece, (-1, -1))
        low = _edge(s, logs, sA, sB, sC, -T, 2 * last - before, start, stop)
        high = _edge(s, logs, sA, sB, sC, above, low, low, stop)
        lows[piece] = (low, last if last >= 0 else low)
        pieces.append((start, low, int(sign < 0.0)))
        if low < high:
            pieces.extend(_band(s, logs, params, low, high))
        pieces.append((high, stop, int(sign > 0.0)))
    runs: list[tuple[int, int, int]] = []
    for start, stop, model in pieces:
        if start < stop:
            if runs and runs[-1][2] == model:
                start = runs.pop()[0]
            runs.append((start, stop, model))
    return tuple(runs)


def _run_loglik(runs, s: np.ndarray, logs: np.ndarray, params) -> float:
    """Classification log-likelihood from the per-sample log-densities of
    :func:`_log_pdf_unchecked`, summed run by run."""
    loglik = 0.0
    for start, stop, model in runs:
        densities = _log_pdf_unchecked(params[model], s[start:stop], logs[start:stop])
        loglik += float(densities.sum())
    return loglik


class _EngineResult(NamedTuple):
    """Where the sorted-order engine stopped: the last pass's ``runs`` over
    the sorted samples, the first sample value of each run (``firsts``),
    and the parameters after that pass."""

    firsts: np.ndarray
    runs: tuple[tuple[int, int, int], ...]
    params: list[ModelParams]
    iterations_used: int
    converged: bool
    warnings: list[str]


# Overflow is expected inside a fit: far-tail log-densities overflow to the
# right -inf (see _log_pdf_unchecked), and a sample sum that overflows is a
# DegenerateDataError (see _fit_exponential).  The engine silences it
# itself, as the scan calls it directly; em_fit does too, for its final
# log-likelihood.
@np.errstate(over="ignore")
def _em_sorted(samples: np.ndarray, config: EMConfig, on_labelled=None) -> _EngineResult:
    """The hard-EM loop of :func:`em_fit` over validated ``samples``.

    Sorts the samples once, into the rows ``[s; ln s]`` of one array, fits
    the initial models on all of them, then labels, compares run boundaries
    and refits until the runs repeat or the budget runs out.  One dict
    carries each piece's band edges from a pass's labelling to the next.
    ``on_labelled(runs, s, logs, params)``, when given, is called on every
    pass that goes on to a refit, with the parameters that labelled it.
    """
    rows = _sorted_rows(samples)
    s, logs = rows
    params: list[ModelParams] = []
    for kind, fit, subset in zip(ModelKind, (_fit_exponential, _fit_gamma), (s, rows)):
        try:
            params.append(fit(subset))
        except (InsufficientDataError, DegenerateDataError, NonConvergenceError) as exc:
            raise SetupError(
                f"initial fit failed for model {kind.value} ({kind.name.lower()}): {exc}"
            ) from exc
    warnings: list[str] = []
    lows: dict[tuple[int, float], tuple[int, int]] = {}
    prev_runs = None
    for iteration in range(1, config.max_iters + 1):
        runs = _label_runs(s, logs, params, lows)
        converged = runs == prev_runs
        if converged:
            break
        if on_labelled is not None:
            on_labelled(runs, s, logs, params)
        # Each model's samples in ascending order are its runs end to end:
        # the exponential's from row 0, the gamma's from both rows.
        exponential, gamma = own = ([], [])
        for start, stop, model in runs:
            own[model].append(rows[:, start:stop] if model else s[start:stop])
        if len(exponential) != 1:
            exponential = [np.concatenate(exponential or [s[:0]])]
        if len(gamma) != 1:
            gamma = [np.concatenate(gamma or [rows[:, :0]], axis=1)]
        notes: list[str] = []
        params = [
            _refit(_fit_exponential, exponential[0], 0, params[0], notes),
            _refit(_fit_gamma, gamma[0], 1, params[1], notes),
        ]
        warnings.extend(f"iteration {iteration}: {note}" for note in notes)
        prev_runs = runs
    firsts = s.take([start for start, _, _ in runs])
    return _EngineResult(firsts, runs, params, iteration, converged, warnings)


def _trace_results(fit: _EngineResult, samples: np.ndarray) -> tuple[np.ndarray, float]:
    """The frozen labels of ``samples``, in trace order, under the engine
    result ``fit``, and their classification log-likelihood, 64k samples at
    a time.

    Equal samples always share a label, so each run is a range of values: a
    sample's run is the last one whose first value is not above it.  Each
    sample's log-density is its own model's column of
    :func:`_log_density_matrix`, and the log-likelihood sums them in trace
    order.  The other model's density can overflow to the right -inf;
    callers silence the warning.
    """
    models = np.array([model for _, _, model in fit.runs], dtype=np.int64)
    labels = np.empty(samples.size, dtype=np.int64)
    densities = np.empty(samples.size)
    for start in range(0, samples.size, 1 << 16):
        part = slice(start, start + (1 << 16))
        v = samples[part]
        own = labels[part] = models.take(fit.firsts.searchsorted(v, side="right") - 1)
        both = _log_density_matrix(v, np.log(v), fit.params)
        densities[part] = np.take_along_axis(both, own[:, None], axis=1)[:, 0]
    labels.setflags(write=False)
    return labels, float(densities.sum())


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
    by bisecting each piece on the first pass, then refits each model
    on its runs and compares run boundaries with the previous pass.  Ties,
    including those that rounding makes in the normalized densities, go to
    model 0, the exponential, as in :func:`hard_assign`.  Every fit sums its
    samples in ascending order, so each refit equals the one :func:`m_step`
    makes on the trace-order labels, bit for bit.  The engine hands back
    the first value of each final run, not its sorted copy.  One pass at the
    end, 64k samples at a time, puts the labels in trace order, frozen, and
    sums ``classification_loglik`` in that order; the ``loglik_history``
    entries before it are summed run by run, so they can differ from a
    trace-order sum in the last bits.

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
    labels, loglik = _trace_results(fit, trace.samples)
    if record_history and fit.converged:
        # The pass that repeated the runs went unscored; it is this one.
        history.append(loglik)
    return _unchecked(
        Assignment,
        labels=labels,
        iterations_used=fit.iterations_used,
        converged=fit.converged,
        final_params=tuple(fit.params),
        classification_loglik=loglik,
        loglik_history=tuple(history),
        warnings=tuple(fit.warnings),
    )
