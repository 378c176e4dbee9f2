"""Event-count and timeline prediction: exact expected curves, and Monte
Carlo predictive draws.

Predicted cumulative events decompose as: events already observed, plus the
expected events among subjects still at risk (given their elapsed
follow-up), plus expected events among subjects yet to enroll (under the
accrual plan). For one parameter set, :func:`expected_events` sums these in
closed form: that is the set's expected curve, and the confidence band
takes percentiles of these curves across bootstrap replicates (parameter
uncertainty only). Only the predictive draws are simulated: each single
generation of every parameter set, whose spread adds event-level noise on
top of the parameter uncertainty. Parameter set ``b`` (from 1) draws from
stream ``derive_rng(seed, 10, b)``; stream ``(seed, 10, 0)`` is not used.
"""
from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass

import numpy as np

from ._parallel import parallel_map
from .distribution import PweModel, conditional_sample, sample
from .errors import PwexpError, _whole
from .estimation import FitResult
from .resampling import BootFit
from .rng import derive_rng
from .simulation import _enrol_months
from .survdata import SurvSample, write_table

__all__ = [
    "AccrualPlan",
    "TrialSnapshot",
    "PredictionEnsemble",
    "predict_events",
    "expected_events",
    "event_interval",
    "timeline_for_events",
    "write_interval_csv",
]


@dataclass(frozen=True)
class AccrualPlan:
    """Future enrollment: ``n_remaining`` subjects at a monthly ``rate`` or
    following per-month ``monthly_counts`` (months count from the analysis
    time). Enrollment is uniform within each month. A plan for no subjects
    needs neither, but whatever is given is checked."""

    n_remaining: int
    rate: float | None = None
    monthly_counts: tuple[int, ...] | None = None

    def __post_init__(self):
        n = _whole(self.n_remaining, "n_remaining", 0)
        object.__setattr__(self, "n_remaining", n)
        forms = (self.rate is not None) + (self.monthly_counts is not None)
        if forms == 2 or (n and not forms):
            raise ValueError("specify exactly one of rate or monthly_counts")
        if self.rate is not None and not 0 < self.rate < np.inf:
            raise ValueError("rate must be positive and finite")
        if self.monthly_counts is not None:
            counts = tuple(_whole(c, "monthly counts", 0) for c in self.monthly_counts)
            if sum(counts) < n:
                raise ValueError(f"accrual plan provides {sum(counts)} slots for {n} remaining subjects")
            object.__setattr__(self, "monthly_counts", counts)

    @property
    def last_month(self) -> float:
        """Month index (from the analysis time) in which accrual finishes."""
        if self.n_remaining == 0:
            return 0.0
        return float(_enrol_months(self.n_remaining, self.rate, self.monthly_counts)[-1]) + 1.0


@dataclass(frozen=True)
class TrialSnapshot:
    """State of a trial at one analysis time.

    ``enroll_times`` lists the calendar enrollment of subjects still
    event-free and uncensored at the analysis time; their elapsed follow-up
    is ``analysis_time - enroll_times``.
    """

    analysis_time: float
    n_events: int
    enroll_times: np.ndarray
    accrual: AccrualPlan | None = None

    def __post_init__(self):
        enroll = np.asarray(self.enroll_times, dtype=float)
        object.__setattr__(self, "n_events", _whole(self.n_events, "n_events", 0))
        if not (np.isfinite(self.analysis_time) and np.isfinite(enroll).all()):
            raise ValueError("analysis_time and enroll_times must be finite")
        if np.any(enroll > self.analysis_time):
            raise ValueError("at-risk subjects must have enrolled by the analysis time")
        object.__setattr__(self, "enroll_times", enroll)

    @property
    def elapsed(self) -> np.ndarray:
        return self.analysis_time - self.enroll_times

    @property
    def max_new_events(self) -> int:
        extra = self.accrual.n_remaining if self.accrual is not None else 0
        return self.n_events + len(self.enroll_times) + extra

    @classmethod
    def from_cut_sample(
        cls, data: SurvSample, analysis_time: float, accrual: AccrualPlan | None = None
    ) -> "TrialSnapshot":
        """Snapshot from a sample already truncated at the analysis time.

        The at-risk set is the subjects whose censor reason is ``"cut"``
        (administratively censored at the cut, hence still being followed).
        """
        if data.rand_time is None or data.censor_reason is None:
            raise ValueError("snapshot needs rand_time and censor_reason fields")
        at_risk = data.censor_reason == "cut"
        return cls(
            analysis_time=float(analysis_time),
            n_events=int(data.event.sum()),
            enroll_times=data.rand_time[at_risk],
            accrual=accrual,
        )


@dataclass
class PredictionEnsemble:
    """Expected and predictive event-count curves on a calendar grid.

    ``expected`` holds each parameter set's exact expected curve, from
    :func:`expected_events` (one row for a plain fit, one per bootstrap
    replicate). ``point`` is the point model's: ``expected[0]`` for a plain
    model or fit, the base fit's for a bootstrap fit, or the mean of
    ``expected`` without a base fit (event or censoring). ``predictive``
    holds every simulated single-generation draw, ``n_each`` rows per set
    in set order. All curves start at the observed event count at the
    analysis time and never decrease.
    """

    grid: np.ndarray
    point: np.ndarray
    expected: np.ndarray
    predictive: np.ndarray
    n_each: int
    analysis_time: float
    base_events: int
    total_subjects: int


def _param_sets(model) -> tuple[list[PweModel], PweModel | None]:
    if model is None:
        return [], None
    if isinstance(model, PweModel):
        return [model], model
    if isinstance(model, FitResult):
        return [model.model], model.model
    if isinstance(model, BootFit):
        reps = [r.model for r in model.replicates]
        point = model.base.model if model.base is not None else None
        return reps, point
    raise TypeError("model must be a PweModel, FitResult, or BootFit")


_BLOCK = 8192  # draws per sampler call; larger blocks raise peak memory


_EPS = np.finfo(float).eps


def _uniform_bins(grid: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``np.searchsorted(grid, t, side="left")`` for an evenly spaced grid,
    for keys of any shape, ±inf included.

    The bin is the ceiling of the key's position in steps from ``grid[0]``.
    That position and the grid points themselves carry rounding errors of a
    few units in the last place of the grid's magnitude, in steps, plus a
    few per grid point; only keys within that band of a grid point can land
    one bin off, and only those are compared against ``grid`` on each side.
    """
    n = len(grid)
    step = (grid[-1] - grid[0]) / (n - 1)
    band = 8.0 * _EPS * (n + max(abs(grid[0]), abs(grid[-1])) / step)
    if not band < 0.25:  # points within a few rounding steps of each other
        return np.searchsorted(grid, t, side="left")
    # keys half a step or more outside the grid are clipped to where they
    # are far from any grid point, so they need no correction
    x = np.clip((t - grid[0]) / step, -0.5, n - 0.5)
    i = np.ceil(x).astype(np.intp)
    x -= np.rint(x)
    near = np.flatnonzero(np.abs(x, out=x) <= band)
    if len(near):
        k, tk = i.take(near), t.take(near)
        k -= (k > 0) & (grid[np.maximum(k - 1, 0)] >= tk)
        k += (k < n) & (grid[np.minimum(k, n - 1)] < tk)
        i.put(near, k)
    return i


def _simulate_curves(event_m, censor_m, snapshot, n_each, grid, rng):
    """The ``n_each`` predictive curves of one parameter set, one per row.

    Subjects are drawn in blocks of about ``_BLOCK`` draws: one sampler
    call per block and model, conditional on elapsed follow-up for the
    at-risk subjects (one conditioning time per subject) and unconditional
    for future enrollees. Event times come from one child stream of ``rng``
    and censoring times from another, each consumed subject by subject, and
    ``rng`` itself draws the future enrollees' entry times row by row, so
    the curves do not depend on the block size.

    A block's draws form a (subjects x ``n_each``) array: row ``i`` holds
    subject ``i``'s draws and column ``j`` feeds predictive curve ``j``.
    At-risk enrollment times broadcast over the columns; a future enrollee
    enters anew for each draw, uniform within its month. A draw censored
    before its event gets an infinite calendar time, so it lands with the
    draws past the horizon in bin ``len(grid)``, one overflow bin per
    curve, which is dropped before the counts are summed up.
    """
    event_rng, censor_rng = rng.spawn(2)
    width = len(grid) + 1  # the grid's bins and the overflow bin
    counts = np.zeros(n_each * width, dtype=np.int64)
    offsets = np.arange(n_each) * width
    per_block = max(1, _BLOCK // n_each)
    cohorts = [(snapshot.enroll_times, snapshot.elapsed)]
    plan = snapshot.accrual
    if plan is not None and plan.n_remaining:
        months = _enrol_months(plan.n_remaining, plan.rate, plan.monthly_counts)
        cohorts.append((snapshot.analysis_time + months, None))
    for enroll, elapsed in cohorts:
        for lo in range(0, len(enroll), per_block):
            u = enroll[lo:lo + per_block, None]
            n = u.size * n_each
            if elapsed is None:
                u = u + rng.random((len(u), n_each))
                t = sample(event_m, n, event_rng).reshape(-1, n_each)
                c = sample(censor_m, n, censor_rng).reshape(-1, n_each) if censor_m is not None else None
            else:
                r = elapsed[lo:lo + per_block, None]
                t = conditional_sample(event_m, n, r, event_rng)
                c = conditional_sample(censor_m, n, r, censor_rng) if censor_m is not None else None
            if c is not None:
                t[c <= t] = np.inf
            t += u
            bins = _uniform_bins(grid, t)
            bins += offsets
            counts += np.bincount(bins.ravel(), minlength=len(counts))
    return counts.reshape(n_each, width)[:, :-1].cumsum(axis=1) + snapshot.n_events


def _predict_worker(payload):
    event_m, censor_m, snapshot, n_each, seed, tag, grid = payload
    rng = derive_rng(seed, 10, tag)
    return _simulate_curves(event_m, censor_m, snapshot, n_each, grid, rng)


# Widest spread of the exponents summed under one reference value: e**500
# and e**-500 are far from overflow and underflow. See _at_risk_events.
_EXP_SPREAD = 500.0


def _merged_pieces(event_m: PweModel, censor_m: PweModel | None):
    """The pieces on the union of both models' breakpoints: their lower
    bounds a_k, the event share of the hazard lambda_k / h_k, the total
    (event plus censoring) hazard h_k, and the total cumulative hazard at
    each lower bound."""
    breaks = event_m._breaks_arr
    if censor_m is not None:
        breaks = np.union1d(breaks, censor_m._breaks_arr)
    lower = np.concatenate(([0.0], breaks))
    lam = event_m._rates_arr[np.searchsorted(event_m._breaks_arr, lower, side="right")]
    total = lam
    if censor_m is not None:
        total = lam + censor_m._rates_arr[np.searchsorted(censor_m._breaks_arr, lower, side="right")]
    cum = np.concatenate(([0.0], np.cumsum(total[:-1] * (lower[1:] - lower[:-1]))))
    return lower, lam / total, total, cum


def _at_risk_events(pieces, elapsed: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Expected observed events, within follow-up ``d`` (>= 0) of the
    analysis time, among subjects at risk after ``elapsed`` follow-up.

    With H the total cumulative hazard, a subject at risk at r has an
    observed event by r + d with probability, summed over the pieces k that
    [r, r + d] meets, exp(H(r) - H(s_k)) (lambda_k / h_k)
    (1 - exp(-h_k (e_k - s_k))), where [s_k, e_k] is the part of piece k
    in [r, r + d]. Grouped by the piece k that r + d falls in, the subjects
    sorted by r form one contiguous run per piece and time:
    - those that start in piece k add a term of d alone, so only their
      count is needed;
    - those that start before it add P(r, a_k) + (lambda_k / h_k)
      exp(H(r) - H(a_k)), one prefix sum over subjects per piece, less
      (lambda_k / h_k) exp(alpha(r) - h_k d) with alpha(r) = H(r) - H(a_k)
      + h_k (a_k - r), one suffix sum per piece.
    That is O((subjects + times) x pieces), not subjects x times.

    alpha - h_k d is at most 0 for every subject in the run, but alpha
    alone reaches h_k d, past overflow on long follow-up. Its slope in r is
    at most the largest total hazard in size, so the subjects are cut into
    bands of r _EXP_SPREAD / that wide. Each band sums exp(alpha - its
    largest alpha), and scales the sum by exp(that - h_k d); both exponents
    stay within _EXP_SPREAD of 0 wherever the band meets the run. The sums
    run from the band's top, away from the subjects whose r + d falls short
    of piece k, whose terms would be the largest.
    """
    lower, share, h, cum = pieces
    r = np.sort(elapsed)
    n = len(r)
    starts = np.searchsorted(r, lower)  # subjects before each piece
    # subjects whose r + d falls before the end of each piece, pieces x times
    ends = np.searchsorted(r, np.append(lower[1:], np.inf)[:, None] - d)
    out = (np.maximum(ends - starts[:, None], 0) * (share[:, None] * -np.expm1(-h[:, None] * d))).sum(axis=0)
    if not n:
        return out
    j = np.searchsorted(lower, r, side="right") - 1
    cum_r = cum[j] + h[j] * (r - lower[j])
    width = _EXP_SPREAD / h.max()
    edges = np.searchsorted(r, r[0] + width * np.arange(1, int((r[-1] - r[0]) // width) + 1)).tolist()
    bands = list(zip([0, *edges], [*edges, n]))
    reach = np.zeros(n)  # P(r_i, a_k) for the subjects before piece k
    surv = reach[:0]
    for k in range(1, len(lower)):
        prev, start = starts[k - 1], starts[k]
        step = lower[k] - lower[k - 1]
        reach[:prev] += surv * (share[k - 1] * -np.expm1(-h[k - 1] * step))
        reach[prev:start] = share[k - 1] * -np.expm1(-h[k - 1] * (lower[k] - r[prev:start]))
        if not start:
            continue
        log_s = cum_r[:start] - cum[k]
        surv = np.exp(log_s)  # S(a_k) / S(r)
        prefix = np.concatenate(([0.0], np.cumsum(reach[:start] + share[k] * surv)))
        run = np.minimum(ends[k - 1:k + 1], start)
        alpha = log_s + h[k] * (lower[k] - r[:start])
        tail = 0.0
        for lo, hi in bands:
            if lo >= start:
                break
            hi = min(hi, start)
            ref = alpha[lo:hi].max()
            suffix = np.append(np.cumsum(np.exp(alpha[lo:hi] - ref)[::-1])[::-1], 0.0)
            lo_run, hi_run = np.minimum(np.maximum(run, lo), hi) - lo
            # a band that misses the run sums to exactly 0, whatever the scale
            tail += np.exp(np.minimum(ref - h[k] * d, 1.2 * _EXP_SPREAD)) * (suffix[lo_run] - suffix[hi_run])
        out += prefix[run[1]] - prefix[run[0]] - share[k] * tail
    return out


def _accrual_events(pieces, months: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Expected observed events, within follow-up ``d`` of the analysis
    time, among future subjects enrolling uniformly within the month after
    it given by each entry of ``months``.

    A subject enrolled at u has an event by d with probability I(d - u),
    I(x) the unconditional incidence of observed events (0 for x <= 0).
    Over u uniform in [m, m + 1) that averages to J(d - m) - J(d - m - 1),
    J(y) the integral of I from 0 to y, which is closed form on each piece.
    Summed over subjects, J(d - q) has weight (enrollees in month q) -
    (those in month q - 1): at a whole number a month, only the first
    month and at most the last two carry any.
    """
    lower, share, h, cum = pieces
    lengths = lower[1:] - lower[:-1]
    scale = share * np.exp(-cum)  # lambda_k / h_k S(a_k)
    # I and J at each piece's lower bound, and the slope of J past it
    inc = np.concatenate(([0.0], np.cumsum(scale[:-1] * -np.expm1(-h[:-1] * lengths))))
    slope = inc + scale
    integral = np.concatenate(([0.0], np.cumsum(
        slope[:-1] * lengths + scale[:-1] * np.expm1(-h[:-1] * lengths) / h[:-1])))
    enrolled = np.bincount(months.astype(np.intp))
    weight = np.append(enrolled, 0)
    weight[1:] -= enrolled
    q = np.flatnonzero(weight)
    out = np.zeros(len(d))
    step = max(1, _BLOCK // len(d))  # months per block of months x times
    for lo in range(0, len(q), step):
        y = np.maximum(d - q[lo:lo + step, None], 0.0)
        k = np.searchsorted(lower, y, side="right") - 1
        z = y - lower[k]
        at_y = integral[k] + slope[k] * z + scale[k] * np.expm1(-h[k] * z) / h[k]
        out += (weight[q[lo:lo + step], None] * at_y).sum(axis=0)
    return out


def expected_events(event_model, censor_model, snapshot: TrialSnapshot, times) -> np.ndarray:
    """Exact expected cumulative event count at each calendar time.

    ``event_model`` and optional ``censor_model`` are each a
    :class:`PweModel` or :class:`FitResult`. The count is the events
    observed at the analysis time, plus the expected observed events among
    the at-risk subjects given their elapsed follow-up, plus those among the
    future enrollees of the accrual plan, each uniform within its month;
    every term is a finite sum over the pieces of the two hazards merged
    (Bagiella & Heitjan 2001, *Stat Med*). Times at or before the analysis
    time give the observed count. It costs O((subjects + times) x pieces)
    plus at most O(accrual months x times), with no draws and no Monte
    Carlo error. Like the exact curve, the result never decreases as time
    grows and stays between the observed count and
    ``snapshot.max_new_events``, rounding included.
    """
    event_m, censor_m = (m.model if isinstance(m, FitResult) else m for m in (event_model, censor_model))
    if not (isinstance(event_m, PweModel) and (censor_m is None or isinstance(censor_m, PweModel))):
        raise TypeError("expected_events takes a PweModel or FitResult (and None for no censoring)")
    times = np.asarray(times, dtype=float)
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    d = np.maximum(times.ravel() - snapshot.analysis_time, 0.0)
    pieces = _merged_pieces(event_m, censor_m)
    counts = snapshot.n_events + _at_risk_events(pieces, snapshot.elapsed, d)
    plan = snapshot.accrual
    if plan is not None and plan.n_remaining:
        counts += _accrual_events(pieces, _enrol_months(plan.n_remaining, plan.rate, plan.monthly_counts), d)
    order = np.argsort(d, kind="stable")
    counts[order] = np.minimum(np.maximum.accumulate(counts[order]), snapshot.max_new_events)
    return counts.reshape(times.shape)


def predict_events(
    event_model,
    censor_model,
    snapshot: TrialSnapshot,
    n_each: int,
    seed: int,
    horizon: float | None = None,
    grid_points: int = 200,
    threads: int = 1,
) -> PredictionEnsemble:
    """Predict future event accrual under fitted (or known) models.

    ``event_model`` and optional ``censor_model`` may each be a
    :class:`PweModel`, :class:`FitResult`, or :class:`BootFit`; bootstrap
    event replicate ``b`` pairs with censoring replicate ``b % k`` of ``k``.
    The expected curves of the parameter sets and of the point models are
    exact, from :func:`expected_events` (see :class:`PredictionEnsemble`).
    Only the predictive curves are simulated: each at-risk subject
    contributes ``n_each`` conditional event/censor draws, each future
    subject ``n_each`` entry times and unconditional draws. The draws are
    made for blocks of subjects at once, with event and censoring times
    taken from separate child streams of each parameter set's stream
    (stream ``(seed, 10, 0)`` is not drawn), so the result depends on
    ``seed`` alone: not on the block size, nor on ``threads``. The
    parameter sets are split into ``threads`` contiguous shares: the caller
    simulates the first and, on Linux, ``threads - 1`` forked processes the
    others (elsewhere the caller simulates them all). The default horizon is
    the end of accrual plus the longest elapsed follow-up.
    """
    n_each = _whole(n_each, "n_each", 1)
    seed = _whole(seed, "seed", 0)
    grid_points = _whole(grid_points, "grid_points", 2)
    threads = _whole(threads, "threads", 1)
    event_sets, event_point = _param_sets(event_model)
    censor_sets, censor_point = _param_sets(censor_model)
    if not event_sets:
        raise ValueError("an event model is required")
    t0 = snapshot.analysis_time
    if horizon is None:
        accrual_end = t0 + (snapshot.accrual.last_month if snapshot.accrual else 0.0)
        span = float(snapshot.elapsed.max()) if len(snapshot.enroll_times) else 1.0
        horizon = accrual_end + max(span, 1.0)
    if not (np.isfinite(horizon) and horizon > t0):
        raise ValueError("horizon must be finite and exceed the analysis time")
    grid = np.linspace(t0, float(horizon), grid_points + 1)

    k = len(censor_sets)
    pairs = [(m, censor_sets[b % k] if k else None) for b, m in enumerate(event_sets)]
    payloads = [(m, cm, snapshot, n_each, seed, b + 1, grid) for b, (m, cm) in enumerate(pairs)]
    predictive = np.vstack(parallel_map(_predict_worker, payloads, threads))
    expected = np.vstack([expected_events(m, cm, snapshot, grid) for m, cm in pairs])

    if event_point is None or (censor_sets and censor_point is None):
        point = expected.mean(axis=0)
    elif event_point is pairs[0][0] and censor_point is pairs[0][1]:  # a plain model or fit
        point = expected[0]
    else:
        point = expected_events(event_point, censor_point, snapshot, grid)
    return PredictionEnsemble(
        grid=grid,
        point=point,
        expected=expected,
        predictive=predictive,
        n_each=n_each,
        analysis_time=t0,
        base_events=snapshot.n_events,
        total_subjects=snapshot.max_new_events,
    )


def _interval_curves(ens: PredictionEnsemble, level: float, kind: str) -> np.ndarray:
    """The curves, one per row, that an interval of ``kind`` summarises,
    after checking ``level``."""
    if not 0.0 < level <= 1.0:
        raise ValueError("level must be in (0, 1]")
    if kind == "confidence":
        if len(ens.expected) < 2:
            raise PwexpError(
                "confidence intervals need a bootstrap ensemble; fit with boot_fit "
                "or request kind='predictive'"
            )
        return ens.expected
    if kind == "predictive":
        return ens.predictive
    raise ValueError("kind must be 'confidence' or 'predictive'")


def _summary_rows(first: np.ndarray, point: np.ndarray, values: np.ndarray, level: float) -> np.ndarray:
    """Rows of (first, point, lower, upper), the bounds taken over
    ``values`` (one row per curve of :func:`_interval_curves`); a
    non-finite point or bound is NaN."""
    with np.errstate(invalid="ignore"):  # bounds between never-reached (inf) crossings
        lo, hi = np.quantile(values, [level / 2.0, 1.0 - level / 2.0], axis=0)
    rows = np.column_stack([first, point, lo, hi])
    rows[:, 1:][~np.isfinite(rows[:, 1:])] = np.nan
    return rows


def _at_times(curves: np.ndarray, grid: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``np.interp(times, grid, c)`` for every row ``c`` of ``curves``, bit
    for bit, from one bracket search of ``times`` in ``grid``."""
    j = np.clip(np.searchsorted(grid, times, side="right") - 1, 0, len(grid) - 2)
    x0, x1 = grid[j], grid[j + 1]
    y0, y1 = curves[:, j], curves[:, j + 1]
    # a time at or before x0 gives y0 + 0, one at or past x1 gives y1, NaN gives NaN
    return np.where(times >= x1, y1, (y1 - y0) / (x1 - x0) * (np.clip(times, x0, x1) - x0) + y0)


def event_interval(
    ens: PredictionEnsemble, times, level: float = 0.05, kind: str = "confidence"
) -> np.ndarray:
    """Rows of (time, point, lower, upper) predicted event counts.

    ``confidence`` takes percentiles of the exact expected curves across
    bootstrap replicates (parameter uncertainty only, so a bootstrap
    ensemble is required); ``predictive`` takes percentiles of the pooled
    simulated single-generation draws, which add event-level noise. Curves
    are interpolated on the grid: a time before the analysis time takes
    their first values (the observed count), one past the horizon their
    last values, and a NaN time gives NaN cells.
    """
    curves = _interval_curves(ens, level, kind)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    point = _at_times(ens.point[None, :], ens.grid, times)[0]
    return _summary_rows(times, point, _at_times(curves, ens.grid, times), level)


def _crossing_times(curves: np.ndarray, grid: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """First time each non-decreasing curve (row) reaches each target, by
    linear interpolation on the grid: ``grid[0]`` if it starts there,
    ``inf`` if it never does, NaN for a NaN target."""
    n, g = curves.shape
    rows = np.arange(n)[:, None]
    # one binary search of every curve for every target: below grows by halving
    # steps to the curve's count of values under the target, its crossing index
    below = np.zeros((n, len(targets)), dtype=np.intp)
    step = 1 << (g.bit_length() - 1)
    while step:
        probe = below + step
        under = (probe <= g) & (curves[rows, np.minimum(probe, g) - 1] < targets)
        below = np.where(under, probe, below)
        step >>= 1
    cross = np.where(below == 0, grid[0], np.inf)
    cross[:, np.isnan(targets)] = np.nan
    c, t = np.nonzero((below > 0) & (below < g))
    i = below[c, t]
    c0, c1 = curves[c, i - 1], curves[c, i]
    cross[c, t] = grid[i - 1] + (targets[t] - c0) * (grid[i] - grid[i - 1]) / (c1 - c0)
    return cross


def timeline_for_events(
    ens: PredictionEnsemble, targets, level: float = 0.05, kind: str = "confidence"
) -> np.ndarray:
    """Rows of (n_event, time, lower, upper): when each target count is hit.

    Each curve is inverted by linear interpolation on the grid; percentile
    summaries run over the crossing times of the replicates' exact expected
    curves (``confidence``) or of the simulated draws (``predictive``). The
    point or a bound is NaN when the point curve or that percentile of
    curves never reaches the target within the horizon, and all three are
    NaN for a NaN target. Targets at or below the observed count return the
    analysis time, where every curve starts; a target below it warns.
    """
    curves = _interval_curves(ens, level, kind)
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    for target in targets[targets < ens.base_events]:
        _warnings.warn(f"target {target:g} is below the {ens.base_events} events already "
                       "observed; returning the analysis time", stacklevel=2)
    point = _crossing_times(ens.point[None, :], ens.grid, targets)[0]
    return _summary_rows(targets, point, _crossing_times(curves, ens.grid, targets), level)


def write_interval_csv(rows: np.ndarray, path, timeline: bool = False):
    """CSV with header time,n_event,lower,upper (swapped for timeline mode),
    in the cell format of :func:`write_table`: missing (NaN) bounds are
    written as ``NA``, an infinite time as ``Inf``."""
    header = ["n_event", "time", "lower", "upper"] if timeline else ["time", "n_event", "lower", "upper"]
    write_table(path, dict(zip(header, np.asarray(rows, dtype=float).reshape(-1, 4).T)))
