"""PWE model estimation: log-likelihood, closed-form hazard MLEs given
change-points, and change-point search (brute force, log-survival OLS
segmentation, and the hybrid of the two) with tail-robustness controls."""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace
from math import comb
from typing import Sequence

import numpy as np

from . import distribution as dist
from .distribution import PweModel, _check_breakpoints
from .errors import EmptyPieceError, NoFeasibleModelError, _whole
from .rng import derive_rng
from .survdata import SurvSample, _Sorted

__all__ = [
    "PieceTally",
    "FitConfig",
    "FitResult",
    "piece_tally",
    "loglik",
    "mle_given_breakpoints",
    "validate_breakpoints",
    "fit_bfs",
    "fit_ols",
    "fit_hybrid",
    "fit",
    "fit_segmented_line",
    "SegmentedFit",
]

OPTIMIZERS = ("bfs", "ols", "hybrid")


# ---------------------------------------------------------------------------
# tallies, likelihood, closed-form MLE


@dataclass(frozen=True)
class PieceTally:
    """Per-piece sufficient statistics for a set of change-points.

    ``n_events[k]`` counts events in piece k, ``exposure[k]`` the total
    at-risk time spent inside piece k, and ``n_suffix[k]`` the subjects whose
    follow-up ends in piece k or later.
    """

    breakpoints: tuple[float, ...]
    n_events: np.ndarray
    exposure: np.ndarray
    n_suffix: np.ndarray


def _check_sample(data: SurvSample, need_event: bool = True):
    if len(data) == 0:
        raise ValueError("sample is empty")
    if not np.isfinite(data.time).all():
        raise ValueError("estimation requires finite follow-up times (cut the data first)")
    if need_event and data.n_events == 0:
        raise NoFeasibleModelError("estimation requires at least one observed event")


def piece_tally(breakpoints, data: SurvSample) -> PieceTally:
    """Event counts, exposure times, and suffix counts per hazard piece."""
    _check_sample(data, need_event=False)
    b = _check_breakpoints(breakpoints)
    view = data._sorted
    n_events, exposure = view.tally(b, np.arange(len(b) + 2)[:, None])
    return PieceTally(
        breakpoints=tuple(float(x) for x in b),
        n_events=n_events[:, 0],
        exposure=exposure[:, 0],
        n_suffix=view.at_risk(np.concatenate(([0.0], b))),
    )


def loglik(m: PweModel, data: SurvSample) -> float:
    """Log-likelihood of right-censored data under a PWE model.

    Computed as sum of log-hazard over events minus the cumulative hazard of
    every subject, which is the dataset log-likelihood in a numerically
    stable form.
    """
    _check_sample(data, need_event=False)
    ev = data.event == 1
    lam = np.atleast_1d(dist.hazard(m, data.time[ev]))
    H = np.atleast_1d(dist.cumulative_hazard(m, data.time))
    return float(np.log(lam).sum() - H.sum())


def _field(d: dict, name: str, convert, *default):
    """``convert(d[name])``, or ``default[0]`` for an absent field. Records
    are read from files, so a missing field, or one that ``convert``
    rejects with ``TypeError`` or ``ValueError``, raises ``ValueError``
    naming the field."""
    if not isinstance(d, dict):
        raise ValueError(f"a record must be a JSON object, got {type(d).__name__}")
    if name not in d:
        if not default:
            raise ValueError(f"record has no {name!r} field")
        return default[0]
    try:
        return convert(d[name])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad {name!r} field: {exc}") from None


def _list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def _number(value, problem: str):
    """``value`` if it is a JSON number: an int or a float, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{problem}, got {value!r}")
    return value


def _real(value) -> float:
    x = float(value)  # first, so that text that is no number keeps float's message
    _number(value, "expected a number")
    return x


def _floats(value) -> tuple[float, ...]:
    return tuple(map(_real, _list(value)))


def _finite(value) -> float:
    x = _real(value)
    if not np.isfinite(x):
        raise ValueError(f"expected a finite number, got {x}")
    return x


def _count(name: str, least: int):
    """The reader of a whole-number field: a JSON number that ``_whole`` takes."""
    return lambda value: _whole(_number(value, f"{name} must be a whole number"), name, least)


def _optimizer(value) -> str:
    names = (*OPTIMIZERS, "fixed")
    if value not in names:
        raise ValueError(f"expected one of {names}, got {value!r}")
    return value


class _JsonRecord:
    """A record saved as the indented JSON of its ``to_dict`` and loaded
    back through its ``from_dict``."""

    def save_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class FitResult(_JsonRecord):
    """A fitted PWE model with its likelihood and information criteria.

    ``n_param``, ``aic`` and ``bic`` follow from the model, ``loglik`` and
    ``n_obs``; they are written to JSON but never read back from it.
    """

    model: PweModel
    loglik: float
    n_obs: int
    optimizer: str
    warnings: list[str] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_param(self) -> int:
        return 2 * len(self.model.breakpoints) + 1

    @property
    def aic(self) -> float:
        return -2.0 * self.loglik + 2.0 * self.n_param

    @property
    def bic(self) -> float:
        return -2.0 * self.loglik + self.n_param * np.log(self.n_obs)

    def to_dict(self) -> dict:
        return {
            "rates": list(self.model.rates),
            "breakpoints": list(self.model.breakpoints),
            "loglik": self.loglik,
            "aic": self.aic,
            "bic": self.bic,
            "n_obs": self.n_obs,
            "optimizer": self.optimizer,
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FitResult":
        """The result :meth:`to_dict` wrote; ``ValueError`` names a missing
        or ill-typed field."""
        return cls(
            model=PweModel(_field(d, "rates", _floats), _field(d, "breakpoints", _floats)),
            loglik=_field(d, "loglik", _finite),
            n_obs=_field(d, "n_obs", _count("n_obs", 1)),
            optimizer=_field(d, "optimizer", _optimizer),
            warnings=list(_field(d, "warnings", _list, [])),
        )


def mle_given_breakpoints(breakpoints, data: SurvSample) -> FitResult:
    """Closed-form hazard MLEs for known change-points.

    The rate of piece k is (events in piece k) / (exposure time in piece k).
    Raises :class:`EmptyPieceError` when a piece holds no events, which
    search loops treat as an infeasible candidate.
    """
    _check_sample(data)
    tally = piece_tally(breakpoints, data)
    for k, (n, e) in enumerate(zip(tally.n_events, tally.exposure)):
        if n == 0:
            raise EmptyPieceError(k + 1)
        if e <= 0.0:
            raise EmptyPieceError(k + 1, "no exposure time")
    rates = tally.n_events / tally.exposure
    model = PweModel(tuple(rates), tally.breakpoints)
    return FitResult(model, loglik(model, data), len(data), "fixed")


def _searched(breakpoints, data: SurvSample, optimizer: str, warnings: list[str],
              diagnostics: dict) -> FitResult:
    """The closed-form fit at a search's change-points, with the search's
    optimizer name, warnings and diagnostics."""
    res = mle_given_breakpoints(breakpoints, data)
    return replace(res, optimizer=optimizer, warnings=warnings, diagnostics=diagnostics)


def validate_breakpoints(breakpoints, data: SurvSample) -> tuple[tuple[float, ...], list[str]]:
    """Drop or merge change-points that would leave a piece without events.

    A change-point with no events before it (when first) or at/after it
    (when last) is deleted; two adjacent change-points with no events
    between them are replaced by their average. The cleaned vector always
    satisfies the precondition of :func:`mle_given_breakpoints`.
    """
    view = data._sorted
    n_events = view.cum_events[-1]
    if n_events == 0:
        raise ValueError("breakpoint validation requires at least one event")
    b = list(_check_breakpoints(breakpoints))
    warnings: list[str] = []
    while b:
        k = view.events_before(b)
        empty = np.flatnonzero(k[:-1] == k[1:])
        if k[0] == 0:
            warnings.append(f"breakpoint {b[0]:g} dropped: no events before it")
            del b[0]
        elif k[-1] == n_events:
            warnings.append(f"breakpoint {b[-1]:g} dropped: no events at or after it")
            del b[-1]
        elif len(empty):
            i = empty[0]
            mid = 0.5 * (b[i] + b[i + 1])
            warnings.append(
                f"breakpoints {b[i]:g} and {b[i + 1]:g} merged to {mid:g}: no events between them"
            )
            b[i : i + 2] = [mid]
        else:
            break
    return tuple(b), warnings


# ---------------------------------------------------------------------------
# search machinery


def _piece_terms(counts: np.ndarray, expos: np.ndarray):
    """Each piece's log-likelihood term c (log(c / e) - 1) at its closed-form
    rate c / e, and whether the piece holds an event and exposure time."""
    has_c, has_e = counts > 0, expos > 0.0
    term = np.where(has_c, counts, 1) / np.where(has_e, expos, 1.0)
    np.log(term, out=term)
    term -= 1.0
    term *= counts
    return term, has_c & has_e


def _profile(view: _Sorted, values: np.ndarray, rows: np.ndarray, min_pt_tail: int):
    """Profile log-likelihood of each row of ``rows`` (n, r), increasing
    indices into the sorted change-point candidates ``values``.

    Returns (loglik, feasible); infeasible rows (an empty piece, zero
    exposure, or a tail with fewer than ``min_pt_tail`` events) get
    ``-inf``. This is the one feasibility rule of every search: a row is
    feasible exactly when :func:`mle_given_breakpoints` accepts it and its
    tail holds ``min_pt_tail`` events, both reading :meth:`_Sorted.tally`.

    A row's first piece ends at, and its last starts from, one candidate,
    so those two are tallied and scored once per candidate; a row itself
    pays only for its r - 1 interior pieces. The two tallies look the
    candidates up once each, so the cost is O(candidates log n + rows r).
    Each row sums its r + 1 terms in piece order.
    """
    m, (n, r) = len(values), rows.shape
    cols = np.ascontiguousarray(rows.T)
    ends = np.stack([np.zeros(m, dtype=np.intp), np.arange(1, m + 1), np.full(m, m + 1)])
    counts, expos = view.tally(values, ends)
    end_term, end_ok = _piece_terms(counts, expos)
    end_ok[1] &= counts[1] >= min_pt_tail
    inner_term, inner_ok = _piece_terms(*view.tally(values, cols + 1))
    first, last = cols[0], cols[-1]
    feasible = end_ok[0][first] & end_ok[1][last] & inner_ok.all(axis=0)
    terms = np.empty((r + 1, n))
    terms[0], terms[1:r], terms[r] = end_term[0][first], inner_term, end_term[1][last]
    return np.where(feasible, terms.T.sum(axis=1), -np.inf), feasible


def _best_row(rows: np.ndarray, ll: np.ndarray) -> int:
    """Index of the max-loglik row; equal values break to the
    lexicographically smallest row for determinism (of indices into sorted
    candidates, or of breakpoints: the two orders agree)."""
    best = ll.max()
    sel = np.flatnonzero(ll == best)
    if len(sel) == 1:
        return int(sel[0])
    order = np.lexsort(rows[sel].T[::-1])
    return int(sel[order[0]])


def _candidate_values(view: _Sorted, config: "FitConfig") -> np.ndarray:
    """Distinct event times eligible as change-point candidates: outside
    ``exclude_int`` and not fixed. :class:`NoFeasibleModelError` when fewer
    are left than the config's free change-points."""
    cands = view.event_times
    if config.exclude_int is not None:
        lo, hi = config.exclude_int
        cands = cands[(cands < lo) | (cands >= hi)]
    if config.fixed_breakpoints:
        cands = cands[~np.isin(cands, np.asarray(config.fixed_breakpoints))]
    free = config.nbreak - len(config.fixed_breakpoints)
    if len(cands) < free:
        raise NoFeasibleModelError(
            f"need at least {free} candidate event times outside exclude_int and the fixed "
            f"change-points, got {len(cands)}"
        )
    return cands


def _sub_sample(cands: np.ndarray, free: int, max_set: int, rng: np.random.Generator) -> np.ndarray:
    """Bisect down the candidate pool until the number of combinations is
    near ``max_set``, then keep a random subset of that size."""
    if comb(len(cands), free) <= max_set:
        return cands
    nl, nr = 1, len(cands)
    while nr - nl >= 1.5:
        mid = (nl + nr) // 2
        if comb(mid, free) > max_set:
            nr = mid
        else:
            nl = mid
    return np.sort(rng.choice(cands, size=nr, replace=False))


def _combinations(m: int, r: int) -> np.ndarray:
    """The r-combinations of range(m) as rows of a (comb(m, r), r) array, in
    the lexicographic order of ``itertools.combinations``. Built a column at
    a time: each row of the first k columns is repeated once per value its
    column k can take (past its last value, leaving room for the r - k - 1
    columns after it)."""
    rows = np.zeros((1, 0), dtype=np.intp)
    for k in range(r):
        first = rows[:, -1] + 1 if k else np.zeros(1, dtype=np.intp)
        reps = np.maximum(m - r + k + 1 - first, 0)
        start = np.cumsum(reps) - reps  # row of each prefix's first extension
        col = np.arange(reps.sum()) + np.repeat(first - start, reps)
        rows = np.column_stack([np.repeat(rows, reps, axis=0), col])
    return rows


def _candidate_combos(
    cands: np.ndarray, free: int, max_set: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """All ``free``-combinations of candidate values, capped at ``max_set``
    randomly chosen ones (enumeration order kept for tie-break stability).
    Returns the thinned pool and the combinations as index rows into it."""
    pool = _sub_sample(cands, free, max_set, rng)
    rows = _combinations(len(pool), free)
    if len(rows) > max_set:
        # take, not rows[keep]: the same rows at a tenth of the cost here
        rows = np.take(rows, np.sort(rng.choice(len(rows), size=max_set, replace=False)), axis=0)
    return pool, rows


def _join_fixed(values: np.ndarray, rows: np.ndarray, fixed: Sequence[float]):
    """The candidate vector with the fixed change-points joined, and each
    index row with theirs added. The candidates hold no fixed value, so a
    row sorted by index is sorted by value."""
    if not len(fixed):
        return values, rows
    joined = np.sort(np.concatenate([values, fixed]))
    pinned = np.broadcast_to(np.searchsorted(joined, fixed), (len(rows), len(fixed)))
    return joined, np.sort(np.concatenate([np.searchsorted(joined, values)[rows], pinned], axis=1), axis=1)


def _search(view: _Sorted, values: np.ndarray, rows: np.ndarray, config: "FitConfig", label: str,
            score=None):
    """The change-point search shared by every optimizer.

    ``rows`` (n, free) are increasing indices into ``values``, sorted
    candidates among which no fixed change-point is. The fixed ones join
    the vector and every row, and one :func:`_profile` marks the
    feasible rows, at a cost of O(candidates log n + rows r). Rows are
    scored by their profile log-likelihood, or by ``score`` of their
    breakpoints (higher is better) over the feasible rows only. Returns
    (the best row's breakpoints, its index, feasible mask).
    """
    values, rows = _join_fixed(values, rows, config.fixed_breakpoints)
    ll, feasible = _profile(view, values, rows, config.min_pt_tail)
    if not feasible.any():
        raise NoFeasibleModelError(f"every {label} was infeasible")
    if score is not None:
        ll = np.full(len(rows), -np.inf)
        ll[feasible] = score(values[rows[feasible]])
    i = _best_row(rows, ll)
    return values[rows[i]], i, feasible


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class FitConfig:
    """Options controlling a PWE fit.

    ``nbreak`` is the total number of change-points (defaults to the number
    of fixed ones); ``fixed_breakpoints`` pins known positions;
    ``exclude_int`` is a half-open interval [lo, hi) that may not contain a
    searched change-point; ``min_pt_tail`` is the minimum number of events
    that must remain in the last piece.
    """

    nbreak: int | None = None
    fixed_breakpoints: tuple[float, ...] = ()
    optimizer: str = "hybrid"
    max_set: int = 10000
    min_pt_tail: int = 5
    exclude_int: tuple[float, float] | None = None
    seed: int = 0

    def __post_init__(self):
        fixed = tuple(float(b) for b in np.sort(np.asarray(self.fixed_breakpoints, dtype=float).ravel()))
        _check_breakpoints(fixed)
        object.__setattr__(self, "fixed_breakpoints", fixed)
        nbreak = len(fixed) if self.nbreak is None else _whole(self.nbreak, "nbreak", len(fixed))
        object.__setattr__(self, "nbreak", nbreak)
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")
        for name, least in (("max_set", 1), ("min_pt_tail", 1), ("seed", 0)):
            object.__setattr__(self, name, _whole(getattr(self, name), name, least))
        if self.exclude_int is not None:
            lo, hi = (float(v) for v in self.exclude_int)
            if not lo < hi:
                raise ValueError("exclude_int must be (lo, hi) with lo < hi")
            object.__setattr__(self, "exclude_int", (lo, hi))
            if any(lo <= b < hi for b in fixed):
                raise ValueError("a fixed breakpoint lies inside exclude_int")


# ---------------------------------------------------------------------------
# brute-force search


def fit_bfs(data: SurvSample, config: FitConfig) -> FitResult:
    """Brute-force change-point search over distinct event times.

    When the number of combinations exceeds ``max_set`` the candidate pool
    is first randomly thinned (bisection on the pool size), then at most
    ``max_set`` random combinations go through the search shared with
    :func:`fit_ols` and :func:`fit_hybrid`, which scores each by its profile
    log-likelihood (the closed-form MLE) and skips infeasible combinations
    (empty piece, thin tail); excluded event times are never candidates.
    ``diagnostics`` counts the combinations scored and the feasible ones,
    the candidates and the pool the combinations index (``n_pool``), and
    says whether every combination of every candidate was scored
    (``exhaustive``).

    Raises :class:`NoFeasibleModelError` when the sample has no event, no
    more distinct event times than change-points or fewer candidates than
    free change-points, or when no combination is feasible; ``ValueError``
    when no change-point is left to search.
    """
    _check_sample(data)
    free = config.nbreak - len(config.fixed_breakpoints)
    if free < 1:
        raise ValueError("fit_bfs requires at least one unknown change-point")
    view = data._sorted
    if len(view.event_times) <= config.nbreak:
        raise NoFeasibleModelError("need more distinct event times than change-points")
    cands = _candidate_values(view, config)
    pool, rows = _candidate_combos(cands, free, config.max_set, derive_rng(config.seed, 101))
    b, _, feasible = _search(view, pool, rows, config, "change-point combination")
    return _searched(b, data, "bfs", [], {
        "n_combinations": int(len(rows)),
        "n_feasible": int(feasible.sum()),
        "n_candidates": int(len(cands)),
        "n_pool": int(len(pool)),
        "exhaustive": len(rows) == comb(len(cands), free),
    })


# ---------------------------------------------------------------------------
# OLS on the log survival function (segmented regression)


@dataclass
class SegmentedFit:
    """Result of the iterative piecewise-linear (broken-line) fit.

    ``n_iter`` counts the iterations of the winning start and
    ``n_starts_converged`` the starts that converged (0 without free breaks).
    """

    psi: tuple[float, ...]
    se: tuple[float, ...]
    slope: float
    sse: float
    converged: bool
    n_iter: int
    n_starts_converged: int = 0


def _segmented_design(x, ramps, steps=()):
    """The explicit design [x, (x - a)_+ for a in ramps, 1(x > a) for a in steps]."""
    cols = [x]
    cols += [np.maximum(x - a, 0.0) for a in ramps]
    cols += [(x > a).astype(float) for a in steps]
    return np.column_stack(cols)


# A system whose unit-diagonal Gram matrix is conditioned worse than this
# (the design worse than 1e6) is solved by lstsq on the explicit design:
# the normal equations would lose all but a few digits, and lstsq's rank
# decisions (minimum norm on exact collinearity) are kept.
_MAX_GRAM_COND = 1e12


def _well_conditioned(scaled: np.ndarray) -> np.ndarray:
    """Whether the largest ``eigvalsh`` eigenvalue of each unit-diagonal Gram
    matrix of the stack ``scaled`` (n, k, k) is below ``_MAX_GRAM_COND``
    times its smallest.

    A batched determinant decides most matrices at a fraction of the cost
    of ``eigvalsh``: the trace is k, so with eigenvalues >= 0 the largest is
    at most k, and by AM-GM the other k - 1 multiply to at most
    (k / (k - 1))^(k - 1) < e, so the smallest exceeds det / e; det > 4 e k /
    ``_MAX_GRAM_COND`` thus certifies a condition number below a quarter of
    the rule's. The factor 4 absorbs the rounding of the LU determinant and
    of ``eigvalsh`` (about 1e-15 k on each eigenvalue, against a smallest
    one above 4e-12 k), so ``eigvalsh`` accepts every certified matrix too.
    A rounded Gram may be indefinite: one negative eigenvalue makes det
    negative, and a pair of size d bounds det by about e^2 d^2 (AM-GM over
    the rest), below the certificate unless d exceeds 1e-6, far above
    rounding. Matrices left open, NaN ones too, go to ``eigvalsh``.
    """
    good = np.linalg.det(scaled) > 4.0 * np.e * scaled.shape[-1] / _MAX_GRAM_COND
    rest = np.flatnonzero(~good)
    if len(rest):
        eig = np.linalg.eigvalsh(scaled[rest])
        good[rest] = eig[:, -1] < _MAX_GRAM_COND * eig[:, 0]
    return good


class _LineSums:
    """Batched least squares of y on [x, ramps (x - a)_+, steps 1(x > a)],
    for one or more lines (x, y), sorted by x, stacked in one table.

    Every such column vanishes up to its threshold and is linear past it,
    so each Gram entry and right-hand side is a sum over the points past
    the larger of two thresholds. Written around the first such point x_j,
    it combines suffix sums of 1, y', (x - x_j), (x - x_j)^2 and
    (x - x_j) y', built once per line over its points by recurrences of
    non-negative terms; with x >= 0 every Gram entry is then a sum of
    non-negative terms too, free of cancellation. The response is shifted
    to y' = y - b0*x, b0 being the slope through the origin: x is a column
    of every design, so the shift moves only the slope, by b0, and it cuts
    the cancellation in SSE = y'y' - coef . D'y'. The normal equations
    still square the design's condition number, so reported values come
    from an explicit fit.
    """

    def __init__(self, lines: Sequence[tuple[np.ndarray, np.ndarray]]):
        self.lines = list(lines)
        xs = [x for x, _ in self.lines]
        self.first = np.array([x[0] for x in xs])
        self.last = np.array([x[-1] for x in xs])
        # line p owns table columns base[p] .. base[p] + m_p (the last one
        # past its points); rank[p, g] is the column of its first point past
        # the g-th smallest x of all lines (g = 0: before them all), so one
        # searchsorted on the merged grid locates a threshold in any line
        ends = np.cumsum([len(x) + 1 for x in xs])
        self.base = ends - [len(x) + 1 for x in xs]
        self.grid = np.unique(np.concatenate(xs))
        self.rank = np.zeros((len(xs), len(self.grid) + 1), dtype=np.intp)
        for p, x in enumerate(xs):
            self.rank[p, 1:] = np.searchsorted(x, self.grid, side="right")
        self.rank += self.base[:, None]
        # rows x_j, t2, t1, s0, sy, t1y, filled one line at a time
        self.table = np.empty((6, ends[-1]))
        self.b0, self.yy = np.empty(len(xs)), np.empty(len(xs))
        for p, (x, y) in enumerate(self.lines):
            self.b0[p], self.yy[p] = self._fill(x, y, self.table[:, self.base[p] : ends[p]])

    @staticmethod
    def _fill(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> tuple[float, float]:
        """Write one line's suffix sums into ``out``; returns (b0, y'y')."""
        m = len(x)
        b0 = float(x @ y) / float(x @ x)
        yp = y - b0 * x

        def suffix(v, row):
            row[: len(v)] = np.cumsum(v[::-1])[::-1]
            row[len(v) :] = 0.0

        # sums over the points from x[j] on: s0 counts them, t1 sums
        # x - x[j], t2 (x - x[j])^2, sy y' and t1y (x - x[j]) y'; m is empty
        xj, t2, t1, s0, sy, t1y = out
        gap = np.diff(x)
        beyond = np.arange(m - 1, 0, -1.0)  # points past x[j + 1]
        xj[:m], xj[m] = x, x[-1]
        s0[:] = np.arange(m, -1, -1.0)
        suffix(beyond * gap, t1)
        suffix(gap * (2.0 * t1[1:m] + beyond * gap), t2)
        suffix(yp, sy)
        suffix(gap * sy[1:m], t1y)
        return b0, float(yp @ yp)

    def solve(self, ramps: np.ndarray, steps: np.ndarray | None = None, line: np.ndarray | None = None):
        """(coef, sse) for one design per row of ``ramps`` (B, R) and
        ``steps`` (B, S) thresholds, on line ``line[b]`` (default line 0);
        coef columns are [x, ramps, steps].

        A column with no point past its threshold gets a zero coefficient,
        the minimum-norm solution that ``lstsq`` gives; a system conditioned
        worse than ``_MAX_GRAM_COND`` is solved by ``lstsq`` itself. One
        batched determinant certifies most systems well conditioned; only
        the rest pay for ``eigvalsh``, which decides them by the same rule.
        """
        n, n_ramp = ramps.shape
        if steps is None:
            steps = np.empty((n, 0))
        if line is None:
            line = np.zeros(n, dtype=np.intp)
        offset = np.concatenate([np.zeros((n, 1)), ramps, steps], axis=1)
        r = np.zeros(offset.shape[1])
        r[: 1 + n_ramp] = 1.0
        j = self.rank[line[:, None], np.searchsorted(self.grid, offset, side="right")]
        j[:, 0] = self.base[line]
        jj = np.maximum(j[:, :, None], j[:, None, :])
        xj, t2, t1, s0 = self.table[:4, jj]
        # past x_j a column is r*(x - x_j) + kappa: x and ramps have r = 1
        # and kappa = x_j - offset >= 0, steps r = 0 and kappa = 1
        kap = r[:, None] * (xj - offset[:, :, None]) + (1.0 - r[:, None])
        kap_t = kap.transpose(0, 2, 1)
        gram = (r[:, None] * r) * t2 + (r[:, None] * kap_t + r * kap) * t1 + (kap * kap_t) * s0
        kap_j = np.diagonal(kap, axis1=1, axis2=2)
        rhs = r * self.table[5, j] + kap_j * self.table[4, j]
        # unit-diagonal scaling; a column with no point past its threshold
        # becomes a unit row with a zero right-hand side, so a zero coefficient
        diag = np.diagonal(gram, axis1=1, axis2=2)
        live = diag > 0.0
        s = np.where(live, 1.0 / np.sqrt(np.where(live, diag, 1.0)), 0.0)
        scaled = gram * s[:, :, None] * s[:, None, :] + np.eye(len(r)) * ~live[:, None, :]
        good = _well_conditioned(scaled)
        scaled[~good] = np.eye(len(r))  # solved below by lstsq instead
        coef = s * np.linalg.solve(scaled, (s * rhs)[:, :, None])[:, :, 0]
        sse = self.yy[line] - np.einsum("bi,bi->b", coef, rhs)
        coef[:, 0] += self.b0[line]
        for i in np.flatnonzero(~good):
            x, y = self.lines[line[i]]
            coef[i], sse[i] = _lstsq_fit(y, _segmented_design(x, ramps[i], steps[i]))
        return coef, sse


def fit_segmented_line(
    x,
    y,
    npsi: int,
    fixed_psi: Sequence[float] = (),
    rng: np.random.Generator | None = None,
) -> SegmentedFit:
    """Continuous piecewise-linear regression through the origin.

    Fits y = b*x + sum_k c_k (x - psi_k)_+ by iterative linearization of the
    break positions: each pass adds a step covariate per free break and
    moves the break by (step coefficient) / (ramp coefficient). Breaks in
    ``fixed_psi`` contribute ramp terms but are never moved. Standard errors
    of the fitted breaks come from the step-coefficient delta method.

    The first start places the breaks at equally spaced quantiles of x; the
    remaining starts are random. All starts iterate together; the best
    converged start by residual sum of squares wins (the earliest on a tie)
    and its standard errors, slope and sum of squares come from an explicit
    least-squares fit. ``converged=False`` means no start converged.
    ``npsi``, the number of free breaks, must be a whole number >= 0;
    anything else raises ``ValueError`` before any fit.
    """
    npsi = _whole(npsi, "npsi", 0)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    order = np.argsort(x)
    x, y = x[order], y[order]
    if npsi == 0:
        return SegmentedFit((), *_explicit_fit(x, y, fixed_psi, ()), True, 0)
    if rng is None:
        rng = np.random.default_rng(0)
    return _segmented_fits([(x, y, fixed_psi, _segmented_starts(x, npsi, rng))])[0]


def _segmented_starts(x: np.ndarray, npsi: int, rng: np.random.Generator) -> np.ndarray:
    """The starts of the segmented iteration on sorted ``x``, one per row:
    breaks at equally spaced quantiles, then ``_N_RESTARTS - 1`` rows at
    random quantiles, drawn in one call."""
    q = np.vstack([
        (np.arange(npsi) + 1) / (npsi + 1),
        np.sort(rng.uniform(0.05, 0.95, size=(_N_RESTARTS - 1, npsi)), axis=1),
    ])
    return np.sort(np.quantile(x, q), axis=1)


def _segmented_fits(problems) -> list[SegmentedFit]:
    """The :class:`SegmentedFit` of each problem (x sorted, y, fixed breaks,
    starts), with every start of every problem in one lockstep. The
    problems share their numbers of free and of fixed breaks; each result
    is the one the problem would get on its own."""
    sums = _LineSums([(x, y) for x, y, _, _ in problems])
    line = np.repeat(np.arange(len(problems)), [len(starts) for *_, starts in problems])
    fixed = np.concatenate([np.tile(np.asarray(f, dtype=float), (len(starts), 1))
                            for _, _, f, starts in problems])
    psi, sse, converged, n_iter = _run_segmented(
        sums, np.concatenate([starts for *_, starts in problems]), fixed, line=line
    )
    fits = []
    for p, (x, y, fixed_psi, _) in enumerate(problems):
        rows = np.flatnonzero(line == p)
        ok = converged[rows]
        if not ok.any():
            fits.append(SegmentedFit((), (), 0.0, np.inf, False, _MAX_ITER))
            continue
        best = rows[np.argmin(np.where(ok, sse[rows], np.inf))]
        se, slope, best_sse = _explicit_fit(x, y, fixed_psi, psi[best])
        fits.append(SegmentedFit(
            psi=tuple(float(v) for v in psi[best]),
            se=se,
            slope=slope,
            sse=best_sse,
            converged=True,
            n_iter=int(n_iter[best]),
            n_starts_converged=int(ok.sum()),
        ))
    return fits


def _lstsq_fit(y, D):
    coef, *_ = np.linalg.lstsq(D, y, rcond=None)
    r = y - D @ coef
    return coef, float(r @ r)


def _explicit_fit(x, y, fixed_psi, psi):
    """Delta-method SEs of the free breaks ``psi``, then the slope and sum
    of squares of the continuous fit, by ``lstsq`` on the explicit designs."""
    ramps = (*fixed_psi, *psi)
    se = ()
    if len(psi):
        nfix, npsi = len(fixed_psi), len(psi)
        D = _segmented_design(x, ramps, psi)
        coef, sse = _lstsq_fit(y, D)
        c = coef[1 + nfix : 1 + nfix + npsi]
        dof = len(x) - D.shape[1]
        s = np.full(npsi, np.nan)
        if dof > 0:
            cov = sse / dof * np.linalg.pinv(D.T @ D)
            var_g = np.diag(cov)[1 + nfix + npsi :]
            with np.errstate(divide="ignore", invalid="ignore"):
                s = np.sqrt(np.maximum(var_g, 0.0)) / np.abs(c)
        se = tuple(float(v) for v in s)
    coef, sse = _lstsq_fit(y, _segmented_design(x, ramps))
    return se, float(coef[0]), sse


_STEP_SIZES = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
_MAX_ITER = 50
_TOL_FRAC = 1e-8
_N_RESTARTS = 5


def _run_segmented(sums: _LineSums, psi: np.ndarray, fixed: np.ndarray, max_iter: int = _MAX_ITER,
                   line: np.ndarray | None = None):
    """Iterate every start in lockstep: row b of ``psi`` holds its free
    breaks, row b of ``fixed`` its fixed ones, and ``line[b]`` (default 0)
    names its line in ``sums``.

    Per iteration the active starts share one batched solve for their
    proposals and one batched sum of squares for every candidate of their
    damped line searches; each start takes its first step size whose sum of
    squares does not rise. A start converges when its step falls below
    ``_TOL_FRAC`` of its line's x span; one that stops with a break within
    that tolerance of a clip bound has not converged: the clip holds that
    break, and whether its last step passed rests on rounding noise.
    Returns per start (psi, sse, converged, n_iter).
    """
    n_start, npsi = psi.shape
    if line is None:
        line = np.zeros(n_start, dtype=np.intp)
    nfix = fixed.shape[1]
    span = sums.last[line] - sums.first[line]
    margin = 1e-9 * span
    lo, hi = sums.first[line] + margin, sums.last[line] - margin
    tol = _TOL_FRAC * span

    def with_fixed(p, rows):
        if not nfix:
            return p
        f = fixed[rows].reshape(len(rows), *[1] * (p.ndim - 2), nfix)
        return np.concatenate([np.broadcast_to(f, (*p.shape[:-1], nfix)), p], axis=-1)

    psi = psi.copy()
    active = np.arange(n_start)
    sse = sums.solve(with_fixed(psi, active), line=line)[1]
    converged = np.zeros(n_start, dtype=bool)
    n_iter = np.full(n_start, max_iter)
    for it in range(max_iter):
        if not len(active):
            break
        coef = sums.solve(with_fixed(psi[active], active), psi[active], line[active])[0]
        c = coef[:, 1 + nfix : 1 + nfix + npsi]
        g = coef[:, 1 + nfix + npsi :]
        # a vanishing ramp coefficient means that break is unidentified at
        # this iterate; freeze it and let the others move
        step = np.where(np.abs(c) > 1e-10, g / np.where(c == 0.0, 1.0, c), 0.0)
        finite = np.isfinite(step).all(axis=1)
        active, step = active[finite], step[finite]
        # damped line search on the proposal, accepting only SSE progress
        p = psi[active]
        cand = np.sort(np.clip(p[:, None, :] - _STEP_SIZES[:, None] * step[:, None, :],
                               lo[active, None, None], hi[active, None, None]), axis=2)
        ramps = with_fixed(cand, active)
        valid = (np.diff(np.sort(ramps, axis=2), axis=2) > 0.0).all(axis=2)
        cand_sse = np.full(valid.shape, np.inf)
        if valid.any():
            cand_sse[valid] = sums.solve(ramps[valid], line=line[active][valid.nonzero()[0]])[1]
        accept = valid & (cand_sse <= sse[active, None] * (1.0 + 1e-12) + 1e-300)
        moved = accept.any(axis=1)
        rows = np.arange(len(active))
        h = accept.argmax(axis=1)
        delta = np.max(np.abs(cand[rows, h] - p), axis=1)
        psi[active[moved]] = cand[rows, h][moved]
        sse[active[moved]] = cand_sse[rows, h][moved]
        t = tol[active]
        done = ~moved | (delta < t)
        converged[active[done]] = np.where(moved, delta < t, np.max(np.abs(step), axis=1) < t)[done]
        n_iter[active[done]] = it + 1
        active = active[~done]
    clipped = (np.minimum(psi - lo[:, None], hi[:, None] - psi) <= tol[:, None]).any(axis=1)
    return psi, sse, converged & ~clipped, n_iter


def _screen_sse(x, y, B: np.ndarray) -> np.ndarray:
    """Sum of squares of the continuous broken line with ramps at each row
    of ``B``: screened from the sums, then every row within a band of the
    best one re-scored by ``lstsq``. The band is wider than the screen's
    error, so the best row and its score are those of ``lstsq`` alone."""
    sums = _LineSums([(x, y)])
    # blocks of rows bound the solver's temporaries
    sse = np.concatenate([sums.solve(B[i : i + 1024])[1] for i in range(0, len(B), 1024)])
    near = np.flatnonzero(sse <= sse.min() + 1e-3 * abs(sse.min()) + 1e-9 * sums.yy[0])
    sse[near] = [_lstsq_fit(y, _segmented_design(x, B[i]))[1] for i in near]
    return sse


class _OlsSearch:
    """Change-points by segmented least squares on the log KM curve, split
    around the segmented regression so that a batch of samples can run
    theirs in one lockstep (:func:`_fit_batch`).

    Construction reads the sample's log KM points (sorted by time) and
    keeps them, not the sample. The regression (:meth:`segmented`, or
    :meth:`problem` for a batch) draws its starts from ``rng``, which a grid
    fallback then continues. :meth:`ols_result` and :meth:`hybrid_result`
    finish the fit from the regression's result and the sample, passed
    again (the same object, or one built anew with the same rows).
    """

    def __init__(self, data: SurvSample, config: FitConfig):
        self.config = config
        self.x, self.y = data._sorted.km().log_points()
        if len(self.x) < 2 * (config.nbreak + 1):
            raise NoFeasibleModelError(
                f"need at least {2 * (config.nbreak + 1)} positive-survival event steps, got {len(self.x)}"
            )
        self.free = config.nbreak - len(config.fixed_breakpoints)
        self.rng = derive_rng(config.seed, 202)

    def segmented(self) -> SegmentedFit:
        return fit_segmented_line(self.x, self.y, self.free, self.config.fixed_breakpoints, rng=self.rng)

    def problem(self):
        """The regression as one problem of :func:`_segmented_fits`."""
        return self.x, self.y, self.config.fixed_breakpoints, _segmented_starts(self.x, self.free, self.rng)

    def breakpoints(self, seg: SegmentedFit, data: SurvSample):
        """The segmented solution stands when the search's feasibility rule
        and ``exclude_int`` accept it; otherwise the shared search picks,
        among event-time candidates, the feasible row with the smallest sum
        of squares. Returns (all change-points, the free ones, their
        standard errors or None after the fallback, warnings)."""
        config, fixed, free = self.config, self.config.fixed_breakpoints, self.free
        view = data._sorted
        if free == 0:
            return np.asarray(fixed), [], [], []
        if seg.converged:
            row = np.sort(np.concatenate([seg.psi, fixed]))
            lo, hi = config.exclude_int or (np.inf, np.inf)
            feasible = _profile(view, row, np.arange(len(row))[None, :], config.min_pt_tail)[1][0]
            if feasible and not any(lo <= p < hi for p in seg.psi):
                return row, list(seg.psi), list(seg.se), []
            reason = "segmented solution violated feasibility constraints"
        else:
            reason = "segmented regression did not converge"
        pool, rows = _candidate_combos(_candidate_values(view, config), free, config.max_set, self.rng)
        score = lambda B: -_screen_sse(self.x, self.y, B)
        b, i, _ = _search(view, pool, rows, config, "OLS fallback combination", score=score)
        return b, [float(p) for p in pool[rows[i]]], None, [f"{reason}; grid fallback used"]

    def ols_result(self, seg: SegmentedFit, data: SurvSample) -> FitResult:
        bps, psi, se, warnings = self.breakpoints(seg, data)
        return _searched(bps, data, "ols", warnings, {
            "free_breakpoints": psi, "breakpoint_se": se, "slope": seg.slope,
            "segmented_converged": seg.converged, **_segmented_record(seg)})

    def hybrid_result(self, seg: SegmentedFit, data: SurvSample) -> FitResult:
        """See :func:`fit_hybrid`."""
        config, view = self.config, data._sorted
        _, psi, se, warnings = self.breakpoints(seg, data)
        cands = _candidate_values(view, config)
        spacing = (cands[-1] - cands[0]) / max(len(cands) - 1, 1) if len(cands) > 1 else 1.0
        rng = derive_rng(config.seed, 303)

        sets: list[np.ndarray] = []  # indices into cands
        for k, p in enumerate(psi):
            s_k = se[k] if se is not None else np.nan
            win = 1.96 * s_k if np.isfinite(s_k) and s_k > 0.0 else 3.0 * spacing
            inside = np.flatnonzero((cands >= p - win) & (cands <= p + win))
            if len(inside) < 3:
                inside = _nearest(cands, p, k=min(3, len(cands)))
            sets.append(inside)

        total = int(np.prod([len(s) for s in sets], dtype=object))
        if total <= 4 * config.max_set:
            rows = _product_rows(sets)
        else:
            picks = [s[rng.integers(0, len(s), size=config.max_set)] for s in sets]
            rows = np.column_stack(picks)
        rows = rows[(np.diff(rows, axis=1) > 0).all(axis=1)]
        if len(rows) > config.max_set:
            sel = np.sort(rng.choice(len(rows), size=config.max_set, replace=False))
            rows = rows[sel]
        snapped = _snap_row(cands, psi)
        if snapped is not None:
            rows = np.vstack([rows, snapped[None, :]])
        if len(rows) == 0:
            raise NoFeasibleModelError("hybrid candidate set is empty")

        # the search's candidates: the windows' and the snapped row's values
        used, inverse = np.unique(rows, return_inverse=True)
        b, _, _ = _search(view, cands[used], inverse.reshape(rows.shape), config, "hybrid candidate row")
        return _searched(b, data, "hybrid", warnings, {
            "n_rows": int(len(rows)),
            "ols_breakpoints": psi,
            "ols_se": se,
            "candidate_set_sizes": [int(len(s)) for s in sets],
            **_segmented_record(seg),
        })


def fit_ols(data: SurvSample, config: FitConfig) -> FitResult:
    """Change-points by segmented least squares on the log KM curve.

    The log survival function of a PWE model is continuous piecewise linear
    in t, so the change-points are estimated by broken-line regression on
    (event time, log KM estimate) points; hazards are then re-estimated at
    the found change-points with the closed-form MLE (the OLS slopes are
    discarded). Not a likelihood maximizer. When the segmented solution is
    infeasible or does not converge, the search shared with :func:`fit_bfs`
    scores event-time candidates by their sum of squares instead (a "grid
    fallback used" warning). Break standard errors are kept in
    ``diagnostics`` for the hybrid search.

    Raises :class:`NoFeasibleModelError` when the sample has no event or
    fewer than ``2 * (nbreak + 1)`` positive-survival KM steps, or when the
    grid fallback finds no feasible combination.
    """
    _check_sample(data)
    search = _OlsSearch(data, config)
    return search.ols_result(search.segmented(), data)


def _segmented_record(seg: SegmentedFit) -> dict:
    return {"segmented_n_iter": seg.n_iter, "segmented_starts_converged": seg.n_starts_converged}


# ---------------------------------------------------------------------------
# hybrid search


def _nearest(values: np.ndarray, target: float, k: int = 1) -> np.ndarray:
    """Indices of the ``k`` values nearest ``target``, increasing."""
    order = np.argsort(np.abs(values - target), kind="stable")
    return np.sort(order[:k])


def _product_rows(sets: Sequence[np.ndarray]) -> np.ndarray:
    """The rows of ``itertools.product(*sets)``, in its order, as one
    (rows, len(sets)) array."""
    return np.stack(np.meshgrid(*sets, indexing="ij", copy=False), axis=-1).reshape(-1, len(sets))


def _snap_row(cands: np.ndarray, psi: Sequence[float]) -> np.ndarray | None:
    """OLS breaks snapped to distinct values of the sorted, distinct
    ``cands``, kept ordered: their indices, or None when they run out."""
    used: list[int] = []
    for p in sorted(psi):
        lo = used[-1] + 1 if used else 0
        if lo == len(cands):
            return None
        used.append(lo + int(np.argmin(np.abs(cands[lo:] - p))))
    return np.asarray(used, dtype=np.intp)


def fit_hybrid(data: SurvSample, config: FitConfig) -> FitResult:
    """OLS segmentation followed by an exhaustive search near its solution.

    Candidate sets are the event times inside the 95% CI of each OLS break
    (at least the 3 nearest event times when the CI is empty or the SE is
    unavailable); their cross product, capped at ``max_set`` rows, goes
    through the search shared with :func:`fit_bfs` and is scored by the
    profile log-likelihood (the closed-form MLE). The row snapping the OLS
    breaks to the grid is always evaluated, so the result never scores
    below the snapped OLS model.

    Raises :class:`NoFeasibleModelError` when the OLS step (see
    :func:`fit_ols`) or the candidate search finds no feasible model;
    ``ValueError`` when no change-point is left to search.
    """
    _check_sample(data)
    if config.nbreak - len(config.fixed_breakpoints) < 1:
        raise ValueError("fit_hybrid requires at least one unknown change-point")
    search = _OlsSearch(data, config)
    return search.hybrid_result(search.segmented(), data)


# ---------------------------------------------------------------------------
# front door


def _clean_fixed(data: SurvSample, config: FitConfig) -> tuple[FitConfig, list[str]]:
    """The config with its fixed change-points cleaned by
    :func:`validate_breakpoints`, and the cleaning's warnings."""
    if not config.fixed_breakpoints:
        return config, []
    cleaned, warnings = validate_breakpoints(config.fixed_breakpoints, data)
    if cleaned == config.fixed_breakpoints:
        return config, warnings
    # cleaning shrinks the pinned set; the number of searched change-points
    # stays what the caller asked for
    free = config.nbreak - len(config.fixed_breakpoints)
    return replace(config, fixed_breakpoints=cleaned, nbreak=len(cleaned) + free), warnings


def fit(data: SurvSample, config: FitConfig) -> FitResult:
    """Fit a PWE model per the configuration.

    Dispatch: no change-points -> exponential MLE; all change-points fixed ->
    validation then closed-form MLE; otherwise the configured search
    (:func:`fit_bfs`, :func:`fit_ols` or :func:`fit_hybrid`, which share one
    candidates -> profile -> best row pipeline) with any fixed change-points
    pinned. Exclusion-interval and tail constraints apply to every searched
    candidate. A sample too thin for the model raises
    :class:`NoFeasibleModelError`.
    """
    _check_sample(data)
    cfg, warnings = _clean_fixed(data, config)
    if cfg.nbreak == len(cfg.fixed_breakpoints):
        res = mle_given_breakpoints(cfg.fixed_breakpoints, data)
    elif cfg.optimizer == "bfs":
        res = fit_bfs(data, cfg)
    elif cfg.optimizer == "ols":
        res = fit_ols(data, cfg)
    else:
        res = fit_hybrid(data, cfg)
    res.warnings = warnings + res.warnings
    return res


def _start_search(data: SurvSample, config: FitConfig) -> tuple[_OlsSearch, list[str]]:
    """:func:`fit`'s checks and cleaning of fixed change-points, then the
    OLS search of the cleaned config; returns it with the cleaning's
    warnings."""
    _check_sample(data)
    cfg, warnings = _clean_fixed(data, config)
    return _OlsSearch(data, cfg), warnings


# Fits run together in one block, the segmented regressions of its ``ols``
# and ``hybrid`` fits in one lockstep. A fit waiting for the lockstep holds
# only its regression inputs, its log KM points and starts (about 0.04 MB at
# 8,000 subjects); its sample and sorted view (about 0.27 MB) are dropped and
# built again to finish the fit. The lockstep adds each fit's line sums
# (about 0.16 MB). So memory is bounded whatever the number of fits, and
# larger blocks share more of the lockstep's per-iteration cost; at 8,000
# subjects blocks of 16 and 32 were not measurably faster than 10 and raised
# the traced peak 1.5x and 3x. A bootstrap's first block holds one fit more,
# the base sample's, on top of a full block of replicates: with the base
# taking one of ten places, ten replicates would spill one into a lockstep
# of its own.
_BLOCK = 10


def _fit_batch(build, items):
    """:func:`fit` of ``build(key)`` under ``config`` for each ``(key,
    config)`` item, yielding ``(key, result)`` in input order.

    Items are pulled ``_BLOCK`` at a time and each block is fitted by
    :func:`_fit_block` (the bootstrap calls it directly for a first block
    that also holds its base fit): a block's ``ols`` and
    ``hybrid`` fits run their segmented regressions in one lockstep per
    number of free and fixed change-points (cleaning may drop fixed ones).
    ``build`` must give equal samples for equal keys: it is called when a
    sample is needed and the sample is not kept, once for a ``bfs`` or
    fixed-only fit, twice for an ``ols`` or ``hybrid`` fit (to check and
    clean it and take its log KM points and starts, then after the lockstep
    to finish the fit). So a waiting fit holds only its key and regression
    inputs, and at most one block of keys exists at a time when ``items`` is
    an iterator that makes them on demand.

    A result is the :class:`FitResult`, or the :class:`EmptyPieceError` or
    :class:`NoFeasibleModelError` that :func:`fit` raises (without its
    traceback, whose frames would hold the sample). Any other exception
    propagates.
    """
    items = iter(items)
    while block := list(itertools.islice(items, _BLOCK)):
        yield from _fit_block(build, block)


def _fit_block(build, block: list) -> list:
    """The ``(key, result)`` of each ``(key, config)`` item of ``block``, in
    order, fitted as one block of :func:`_fit_batch`."""
    out: list = [None] * len(block)
    groups: dict[tuple[int, int], list] = {}
    for i, (key, config) in enumerate(block):
        try:
            if config.optimizer == "bfs" or config.nbreak == len(config.fixed_breakpoints):
                out[i] = fit(build(key), config)
                continue
            search, warnings = _start_search(build(key), config)
        except (EmptyPieceError, NoFeasibleModelError) as exc:
            out[i] = exc.with_traceback(None)
            continue
        groups.setdefault((search.free, len(search.config.fixed_breakpoints)), []).append(
            (i, warnings, search, search.problem()))
    for group in groups.values():
        segs = _segmented_fits([problem for *_, problem in group])
        for (i, warnings, search, _), seg in zip(group, segs):
            finish = search.ols_result if search.config.optimizer == "ols" else search.hybrid_result
            try:
                out[i] = finish(seg, build(block[i][0]))
            except (EmptyPieceError, NoFeasibleModelError) as exc:
                out[i] = exc.with_traceback(None)
                continue
            out[i].warnings = warnings + out[i].warnings
    return [(key, res) for (key, _), res in zip(block, out)]
