"""Monte Carlo event-count and timeline prediction with bootstrap bands.

Predicted cumulative events decompose as: events already observed, plus the
expected events among subjects still at risk (simulated conditionally on
their elapsed follow-up), plus expected events among subjects yet to enroll
(simulated unconditionally under the accrual plan). Averaging the per-draw
indicators gives the expected curve; keeping each single generation gives
the predictive draws, whose spread adds event-level noise on top of the
parameter uncertainty carried by bootstrap replicates.
"""
from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass

import numpy as np

from ._parallel import parallel_map
from .distribution import PweModel, conditional_sample, sample
from .errors import PwexpError
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
    "event_interval",
    "timeline_for_events",
    "write_interval_csv",
]


@dataclass(frozen=True)
class AccrualPlan:
    """Future enrollment: ``n_remaining`` subjects at a monthly ``rate`` or
    following per-month ``monthly_counts`` (months count from the analysis
    time). Enrollment is uniform within each month."""

    n_remaining: int
    rate: float | None = None
    monthly_counts: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.n_remaining < 0:
            raise ValueError("n_remaining must be nonnegative")
        if self.n_remaining == 0:
            return
        if (self.rate is None) == (self.monthly_counts is None):
            raise ValueError("specify exactly one of rate or monthly_counts")
        if self.rate is not None and self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.monthly_counts is not None:
            counts = tuple(int(c) for c in self.monthly_counts)
            if any(c < 0 for c in counts):
                raise ValueError("monthly counts must be nonnegative")
            if sum(counts) < self.n_remaining:
                raise PwexpError(
                    f"accrual plan provides {sum(counts)} slots for {self.n_remaining} remaining subjects"
                )
            object.__setattr__(self, "monthly_counts", counts)

    @property
    def last_month(self) -> float:
        """Month index (from the analysis time) in which accrual finishes."""
        if self.n_remaining == 0:
            return 0.0
        return float(_enrol_months(self.n_remaining, self.rate, self.monthly_counts)[-1]) + 1.0

    def draw_times(self, t0: float, rng: np.random.Generator) -> np.ndarray:
        """Calendar enrollment times of the remaining subjects."""
        n = self.n_remaining
        if n == 0:
            return np.empty(0)
        return t0 + _enrol_months(n, self.rate, self.monthly_counts) + rng.random(n)


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
        if self.n_events < 0:
            raise ValueError("n_events must be nonnegative")
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

    ``expected`` holds one expected curve per parameter set (one row for a
    plain fit, one per replicate for a bootstrap fit); ``predictive`` holds
    every single-generation draw. All curves start at the observed event
    count at the analysis time and never decrease.
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
    """(expected, predictive) curves for one parameter set.

    Subjects are drawn in blocks of about ``_BLOCK`` draws: one sampler
    call per block and model, conditional on elapsed follow-up for the
    at-risk subjects (one conditioning time per subject) and unconditional
    for future enrollees. Event times come from one child stream of ``rng``
    and censoring times from another, each consumed subject by subject, so
    the curves do not depend on the block size; ``rng`` itself draws the
    enrollment times.

    A block's draws form a (subjects x ``n_each``) array: row ``i`` holds
    subject ``i``'s draws and column ``j`` feeds predictive curve ``j``.
    Enrollment times broadcast over the columns. A draw censored before its
    event gets an infinite calendar time, so it lands with the draws past
    the horizon in bin ``len(grid)``, one overflow bin per curve, which is
    dropped before the counts are summed up.
    """
    event_rng, censor_rng = rng.spawn(2)
    width = len(grid) + 1  # the grid's bins and the overflow bin
    counts = np.zeros(n_each * width, dtype=np.int64)
    offsets = np.arange(n_each) * width
    per_block = max(1, _BLOCK // n_each)
    cohorts = [(snapshot.enroll_times, snapshot.elapsed)]
    if snapshot.accrual is not None:
        cohorts.append((snapshot.accrual.draw_times(snapshot.analysis_time, rng), None))
    for enroll, elapsed in cohorts:
        for lo in range(0, len(enroll), per_block):
            u = enroll[lo:lo + per_block, None]
            n = u.size * n_each
            if elapsed is None:
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
    ped = counts.reshape(n_each, width)[:, :-1].cumsum(axis=1) + snapshot.n_events
    return ped.mean(axis=0), ped


def _predict_worker(payload):
    event_m, censor_m, snapshot, n_each, seed, tag, grid = payload
    rng = derive_rng(seed, 10, tag)
    return _simulate_curves(event_m, censor_m, snapshot, n_each, grid, rng)


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
    """Simulate future event accrual under fitted (or known) models.

    ``event_model`` and optional ``censor_model`` may each be a
    :class:`PweModel`, :class:`FitResult`, or :class:`BootFit`; bootstrap
    replicates produce one expected curve per parameter set, which is what
    the percentile intervals consume. Each at-risk subject contributes
    ``n_each`` conditional event/censor draws, each future subject an
    enrollment draw plus ``n_each`` unconditional draws. The draws are made
    for blocks of subjects at once, with event and censoring times taken
    from separate child streams of each parameter set's stream, so the
    result depends on ``seed`` alone: not on the block size, nor on
    ``threads``. The default horizon is the end of accrual plus the longest
    elapsed follow-up.
    """
    if n_each < 1:
        raise ValueError("n_each must be >= 1")
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    event_sets, event_point = _param_sets(event_model)
    censor_sets, censor_point = _param_sets(censor_model)
    if not event_sets:
        raise ValueError("an event model is required")
    t0 = snapshot.analysis_time
    if horizon is None:
        accrual_end = t0 + (snapshot.accrual.last_month if snapshot.accrual else 0.0)
        span = float(snapshot.elapsed.max()) if len(snapshot.enroll_times) else 1.0
        horizon = accrual_end + max(span, 1.0)
    if horizon <= t0:
        raise ValueError("horizon must exceed the analysis time")
    grid = np.linspace(t0, float(horizon), grid_points + 1)

    payloads = []
    for b, m in enumerate(event_sets):
        cm = censor_sets[b % len(censor_sets)] if censor_sets else None
        payloads.append((m, cm, snapshot, n_each, seed, b + 1, grid))
    results = parallel_map(_predict_worker, payloads, threads)
    expected = np.vstack([ed for ed, _ in results])
    predictive = np.vstack([ped for _, ped in results])

    if event_point is not None and len(event_sets) > 1:
        point, _ = _simulate_curves(
            event_point, censor_point, snapshot, n_each, grid, derive_rng(seed, 10, 0)
        )
    else:
        point = expected.mean(axis=0) if len(event_sets) > 1 else expected[0]
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


def _percentile_rows(curves: np.ndarray, point: np.ndarray, grid, times, level):
    vals = np.array([np.interp(times, grid, c) for c in curves])
    lo, hi = np.quantile(vals, [level / 2.0, 1.0 - level / 2.0], axis=0)
    return np.column_stack([times, np.interp(times, grid, point), lo, hi])


def _interval_curves(ens: PredictionEnsemble, level: float, kind: str) -> np.ndarray:
    """The curves an interval of ``kind`` summarises, after checking ``level``."""
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


def event_interval(
    ens: PredictionEnsemble, times, level: float = 0.05, kind: str = "confidence"
) -> np.ndarray:
    """Rows of (time, point, lower, upper) predicted event counts.

    ``confidence`` takes percentiles of the expected curves across bootstrap
    replicates (model uncertainty only, so a bootstrap ensemble is
    required); ``predictive`` takes percentiles of the pooled
    single-generation draws and is never narrower.
    """
    curves = _interval_curves(ens, level, kind)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    return _percentile_rows(curves, ens.point, ens.grid, times, level)


def _crossing_times(curves: np.ndarray, grid: np.ndarray, target: float) -> np.ndarray:
    """First time each non-decreasing curve reaches ``target`` (inf if never)."""
    curves = np.atleast_2d(curves)
    n, g = curves.shape
    idx = (curves < target).sum(axis=1)
    out = np.empty(n)
    never = idx >= g
    at_start = idx == 0
    mid = ~never & ~at_start
    out[never] = np.inf
    out[at_start] = grid[0]
    if mid.any():
        i = idx[mid]
        c0 = curves[mid, i - 1]
        c1 = curves[mid, i]
        out[mid] = grid[i - 1] + (target - c0) * (grid[i] - grid[i - 1]) / (c1 - c0)
    return out


def timeline_for_events(
    ens: PredictionEnsemble, targets, level: float = 0.05, kind: str = "confidence"
) -> np.ndarray:
    """Rows of (n_event, time, lower, upper): when each target count is hit.

    Each curve is inverted by linear interpolation on the grid; percentile
    summaries run over the per-replicate (or per-draw) crossing times. A
    bound is NaN when the corresponding percentile of curves never reaches
    the target within the horizon. Targets at or below the observed count
    return the analysis time.
    """
    curves = _interval_curves(ens, level, kind)
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    lo_q, hi_q = level / 2.0, 1.0 - level / 2.0
    rows = np.empty((len(targets), 4))
    for i, target in enumerate(targets):
        if target < ens.base_events:
            _warnings.warn(
                f"target {target:g} is below the {ens.base_events} events already "
                "observed; returning the analysis time",
                stacklevel=2,
            )
            rows[i] = (target, ens.analysis_time, ens.analysis_time, ens.analysis_time)
            continue
        point = _crossing_times(ens.point[None, :], ens.grid, target)[0]
        cross = _crossing_times(curves, ens.grid, target)
        with np.errstate(invalid="ignore"):
            # interpolating against never-reached (inf) crossings yields
            # inf/nan, both reported as a missing bound
            lo = np.quantile(cross, lo_q)
            hi = np.quantile(cross, hi_q)
        rows[i] = (
            target,
            point if np.isfinite(point) else np.nan,
            lo if np.isfinite(lo) else np.nan,
            hi if np.isfinite(hi) else np.nan,
        )
    return rows


def write_interval_csv(rows: np.ndarray, path, timeline: bool = False):
    """CSV with header time,n_event,lower,upper (swapped for timeline mode),
    in the cell format of :func:`write_table`: missing (NaN) bounds are
    written as ``NA``, an infinite time as ``Inf``."""
    header = ["n_event", "time", "lower", "upper"] if timeline else ["time", "n_event", "lower", "upper"]
    write_table(path, dict(zip(header, np.asarray(rows, dtype=float).reshape(-1, 4).T)))
