"""Synthetic trial generation and design-stage follow-up simulation."""
from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ._parallel import parallel_map
from .distribution import PweModel, sample as pwe_sample
from .errors import _whole
from .rng import derive_rng
from .survdata import SurvSample, write_table

__all__ = [
    "Sampler",
    "ArmModel",
    "TrialDesign",
    "TrialFrame",
    "simulate_trial",
    "sim_followup",
    "SimFollowup",
    "prop_above",
]

# a sampler hook draws n nonnegative times from an arbitrary distribution
Sampler = Callable[[int, np.random.Generator], np.ndarray]

FOLLOWUP_ENDPOINTS = ("cut", "drop_out", "death", "event")
FOLLOWUP_TYPES = ("calendar", "event", "sample")


@dataclass(frozen=True)
class ArmModel:
    """Event, drop-out, and death distributions for one group/stratum cell.

    Each entry is a :class:`PweModel` or a sampler hook ``f(n, rng)``;
    ``None`` means the outcome never occurs.
    """

    event: PweModel | Sampler
    dropout: PweModel | Sampler | None = None
    death: PweModel | Sampler | None = None


@dataclass(frozen=True)
class TrialDesign:
    """Enrollment, allocation, and outcome distributions for one trial.

    Enrollment is either a constant ``rand_rate`` (subjects/month) with
    ``total_sample``, or explicit per-month counts ``n_rand``. ``drop_rate``
    is the monthly drop-out probability, converted to an exponential hazard
    -log(1 - drop_rate) for cells without an explicit drop-out model.
    """

    rand_rate: float | None = None
    total_sample: int | None = None
    n_rand: tuple[int, ...] | None = None
    groups: tuple[tuple[str, float], ...] = (("all", 1.0),)
    strata: tuple[tuple[str, float], ...] = (("all", 1.0),)
    dists: ArmModel | Mapping = None  # type: ignore[assignment]
    drop_rate: float | None = None
    iid_allocation: bool = False

    def __post_init__(self):
        rate_form = self.rand_rate is not None or self.total_sample is not None
        curve_form = self.n_rand is not None
        if rate_form == curve_form:
            raise ValueError("specify either (rand_rate, total_sample) or n_rand, not both")
        if rate_form:
            if self.rand_rate is None or self.total_sample is None:
                raise ValueError("rate-form enrollment needs both rand_rate and total_sample")
            if not 0 < self.rand_rate < np.inf:
                raise ValueError("rand_rate must be positive and finite")
            object.__setattr__(self, "total_sample", _whole(self.total_sample, "total_sample", 0))
        else:
            object.__setattr__(self, "n_rand", tuple(_whole(c, "n_rand counts", 0) for c in self.n_rand))
        for name, pairs in (("groups", self.groups), ("strata", self.strata)):
            pairs = tuple((str(n), float(w)) for n, w in pairs)
            if not pairs or not all(0 < w < np.inf for _, w in pairs):
                raise ValueError(f"{name} must be nonempty with positive, finite weights")
            if len({n for n, _ in pairs}) < len(pairs):
                raise ValueError(f"{name} names must be distinct, got {[n for n, _ in pairs]}")
            object.__setattr__(self, name, pairs)
        if self.drop_rate is not None and not 0.0 <= self.drop_rate < 1.0:
            raise ValueError("drop_rate must lie in [0, 1)")
        if self.dists is None:
            raise ValueError("dists is required (an ArmModel or a mapping by group/stratum)")
        for g, _ in self.groups:
            for s, _ in self.strata:
                self.cell_model(g, s)

    @property
    def total(self) -> int:
        return self.total_sample if self.n_rand is None else sum(self.n_rand)

    def cell_model(self, group: str, stratum: str) -> ArmModel:
        """Distributions for one cell, with the drop_rate fallback applied."""
        d = self.dists
        if not isinstance(d, ArmModel):
            if (group, stratum) in d:
                d = d[(group, stratum)]
            elif group in d:
                d = d[group]
            else:
                raise ValueError(f"no distributions for group={group!r}, stratum={stratum!r}")
        dropout = d.dropout
        if dropout is None and self.drop_rate is not None and self.drop_rate > 0.0:
            dropout = PweModel((-np.log1p(-self.drop_rate),))
        return ArmModel(event=d.event, dropout=dropout, death=d.death)


@dataclass(frozen=True)
class TrialFrame:
    """Columnar trial dataset; one entry per subject in every array."""

    id: np.ndarray
    group: np.ndarray
    stratum: np.ndarray
    randT: np.ndarray
    eventT: np.ndarray
    dropT: np.ndarray
    deathT: np.ndarray
    followT: np.ndarray
    followT_abs: np.ndarray
    event: np.ndarray
    censor: np.ndarray
    censor_reason: np.ndarray

    def __len__(self) -> int:
        return len(self.id)

    def to_surv_sample(self) -> SurvSample:
        return SurvSample(
            time=self.followT,
            event=self.event,
            rand_time=self.randT,
            follow_abs_time=self.followT_abs,
            censor_reason=self.censor_reason,
            ids=self.id,
        )

    def write_csv(self, path):
        """CSV with one row per subject, in the cell format of :func:`write_table`."""
        write_table(path, {
            "ID": self.id, "randT": self.randT, "eventT": self.eventT, "dropT": self.dropT,
            "deathT": self.deathT, "censor_reason": self.censor_reason, "event": self.event,
            "followT": self.followT, "followT_abs": self.followT_abs, "censor": self.censor,
            "group": self.group, "stratum": self.stratum,
        })


def _draw(d, n: int, rng: np.random.Generator) -> np.ndarray:
    if d is None:
        return np.full(n, np.inf)
    if isinstance(d, PweModel):
        return pwe_sample(d, n, rng)
    out = np.asarray(d(n, rng), dtype=float)
    if out.shape != (n,):
        raise ValueError("sampler hook must return exactly n values")
    if np.any(np.isnan(out)) or np.any(out < 0.0):
        raise ValueError("sampler hook returned negative or NaN times")
    return out


def _allocate_exact(month: np.ndarray, weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Exact allocation to weighted cells, month block by month block.

    ``month`` must be nondecreasing (as :func:`_enrol_months` gives it), so
    each month is one contiguous block. Each block tops every cell up to its
    cumulative quota (largest-remainder rounding, ties broken at random), so
    no running total rises a whole subject above its quota. A cell already
    above its quota gets nothing; when the others' whole shares then
    overfill the block, the cells with the smallest remainders give a
    subject back.

    The month loop only draws: ``rng.random(cells)`` for the tie-break,
    then ``rng.permutation(block size)`` to shuffle the block's labels.
    That draw order is a contract, pinned by
    ``test_simulate_trial_pinned_digest`` and by the oracle in
    ``test_allocate_exact_rounds_every_month_quota``. The rounding runs on
    Python floats with the IEEE operations of an array form (owed minus
    given, floored and clipped at 0; remainder descending, then the uniform,
    then the cell index; the first smallest ``owed - count`` gives back),
    and one gather places every block's shuffled labels.
    """
    w = (weights / weights.sum()).tolist()
    n = len(w)
    starts = np.flatnonzero(np.diff(month, prepend=-1.0)).tolist()  # empty when there are no subjects
    ends = [*starts[1:], len(month)]
    alloc = [0] * n
    counts, perms = [], []
    for lo, hi in zip(starts, ends):
        u = rng.random(n).tolist()
        need = [wc * hi - a for wc, a in zip(w, alloc)]
        got = [max(int(x), 0) for x in need]  # int() truncates, which the clip makes a floor
        short = hi - lo - sum(got)
        for c in sorted(range(n), key=lambda c: (-(need[c] - got[c]), u[c]))[:max(short, 0)]:
            got[c] += 1
        for _ in range(-short):
            got[min(range(n), key=lambda c: need[c] - got[c] if got[c] > 0 else np.inf)] -= 1
        perms.append(rng.permutation(hi - lo))
        counts += got
        alloc = [a + g for a, g in zip(alloc, got)]
    if not perms:
        return np.empty(0, dtype=int)
    labels = np.repeat(np.tile(np.arange(n), len(perms)), counts)
    return labels[np.concatenate(perms) + np.repeat(starts, np.subtract(ends, starts))]


def _enrol_months(n: int, rate: float | None, counts: Sequence[int] | None) -> np.ndarray:
    """Accrual month (0, 1, ...) of each of the first ``n`` subjects, who
    enrol at a constant monthly ``rate`` or by per-month ``counts``."""
    if rate is not None:
        return np.floor(np.arange(n) / rate)
    return np.repeat(np.arange(len(counts), dtype=float), counts)[:n]


def simulate_trial(design: TrialDesign, seed: int | np.random.Generator) -> TrialFrame:
    """Generate one synthetic trial with unbounded follow-up.

    Subjects enroll uniformly within their accrual month; groups and strata
    fill by exact weight allocation within each month (or i.i.d. draws when
    ``design.iid_allocation``). Latent event/drop-out/death times come from
    the cell distributions; the follow-up time is their minimum and the
    event flag marks whether the event came first. Cut the result with
    :func:`pwexp.survdata.cut_data` to mimic a data cut-off.
    """
    rng = seed if isinstance(seed, np.random.Generator) else derive_rng(_whole(seed, "seed", 0), 0)
    total = design.total
    month = _enrol_months(total, design.rand_rate, design.n_rand)
    randT = month + rng.random(total)  # uniform enrollment within each accrual month

    group_names = [g for g, _ in design.groups]
    strat_names = [s for s, _ in design.strata]
    weights = np.array(
        [gw * sw for _, gw in design.groups for _, sw in design.strata], dtype=float
    )
    n_cells = len(weights)
    if design.iid_allocation:
        cell = rng.choice(n_cells, size=total, p=weights / weights.sum())
    else:
        cell = _allocate_exact(month, weights, rng)

    eventT = np.empty(total)
    dropT = np.empty(total)
    deathT = np.empty(total)
    for c in range(n_cells):
        idx = np.flatnonzero(cell == c)
        if len(idx) == 0:
            continue
        arm = design.cell_model(group_names[c // len(strat_names)],
                                strat_names[c % len(strat_names)])
        eventT[idx] = _draw(arm.event, len(idx), rng)
        dropT[idx] = _draw(arm.dropout, len(idx), rng)
        deathT[idx] = _draw(arm.death, len(idx), rng)

    followT = np.minimum(np.minimum(eventT, dropT), deathT)
    event = ((eventT <= dropT) & (eventT <= deathT) & np.isfinite(eventT)).astype(np.int8)
    reason = np.full(total, None, dtype=object)
    dropped = (event == 0) & np.isfinite(dropT) & (dropT <= deathT)
    died = (event == 0) & ~dropped & np.isfinite(deathT)
    never = ~np.isfinite(followT)
    reason[dropped] = "drop_out"
    reason[died] = "death"
    reason[never] = "never_event"
    censor = (dropped | died).astype(np.int8)

    return TrialFrame(
        id=np.arange(1, total + 1),
        group=np.array(group_names, dtype=object)[cell // len(strat_names)],
        stratum=np.array(strat_names, dtype=object)[cell % len(strat_names)],
        randT=randT,
        eventT=eventT,
        dropT=dropT,
        deathT=deathT,
        followT=followT,
        followT_abs=randT + followT,
        event=event,
        censor=censor,
        censor_reason=reason,
    )


class prop_above:
    """Summary statistic: share of values >= a threshold (name ``prop_<t>``)."""

    def __init__(self, threshold: float):
        self.threshold = float(threshold)
        self.__name__ = f"prop_{threshold:g}"

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(np.mean(x >= self.threshold)) if len(x) else np.nan


@dataclass
class SimFollowup:
    """Mean-over-replicates summaries at each requested milestone, as
    column tables (header -> values) for :func:`write_table`: ``overall``
    has one row per milestone, ``by_group`` one per group and milestone,
    group-major."""

    overall: dict[str, np.ndarray]
    by_group: dict[str, np.ndarray] | None
    n_unreached: int


_LATENT = {"drop_out": "dropT", "death": "deathT", "event": "eventT"}  # endpoint -> column


def _followup_worker(payload):
    """One replicate's (milestone x cell x value) array and its count of
    unreached milestones. Cell 0 holds every subject, then one per group; the
    values are the cut, the event and subject counts, then the statistics."""
    design, seed, r, at, kind, endpoints, stats, group_names = payload
    frame = simulate_trial(design, derive_rng(seed, 20, r))
    event = frame.event == 1
    cuts, reached = np.array(at), np.ones(len(at), dtype=bool)
    if kind != "calendar":
        # the k-th sorted time, then the end of follow-up for k past the last;
        # clipping before the cast keeps a huge milestone from overflowing
        times = np.sort(frame.followT_abs[event] if kind == "event" else frame.randT)
        finite = frame.followT_abs[np.isfinite(frame.followT_abs)]
        end = finite.max() if len(finite) else frame.randT.max(initial=0.0)
        k = np.clip(np.round(cuts), 1, len(times) + 1).astype(int)
        cuts, reached = np.append(times, end)[k - 1], k <= len(times)
    latent = np.minimum.reduce([np.full(len(frame), np.inf),
                                *(getattr(frame, col) for e, col in _LATENT.items() if e in endpoints)])
    cells = [np.ones(len(frame), dtype=bool)] + [frame.group == g for g in group_names]
    out = np.empty((len(at), len(cells), 3 + len(stats)))
    for j, cut in enumerate(cuts):
        enrolled = frame.randT <= cut
        observed = enrolled & event & (frame.followT_abs <= cut)
        fu = np.minimum(cut - frame.randT, latent) if "cut" in endpoints else latent
        for c, mask in enumerate(cells):
            kept = fu[mask & enrolled]  # in subject order
            out[j, c, :3] = cut, np.sum(mask & observed), len(kept)
            out[j, c, 3:] = [f(kept) if len(kept) else np.nan for f in stats]
    return out, int(np.sum(~reached))


def sim_followup(
    design: TrialDesign,
    at: Sequence[float],
    type: str = "calendar",
    stats: Sequence[Callable] = (),
    by_group: bool = False,
    rep: int = 100,
    seed: int = 0,
    follow_up_endpoint: Sequence[str] = ("cut", "drop_out", "death"),
    threads: int = 1,
) -> SimFollowup:
    """Simulate ``rep`` trials and summarize them at each milestone.

    A milestone is a calendar time, or the ``max(round(m), 1)``-th event or
    enrollment (halves round to even), depending on ``type``. Each replicate
    cuts at every milestone and reports the event count, subject count, and
    the requested statistics of the follow-up time: the time from
    randomization to the earliest endpoint in ``follow_up_endpoint``.
    Values are means over replicates. Milestones (positive and finite),
    ``type``, the endpoints (a nonempty sequence of names from
    ``FOLLOWUP_ENDPOINTS``, not a bare string), ``rep``, ``seed`` and
    ``threads`` are checked before any replicate runs. A replicate with
    fewer events (or subjects) than a count milestone does not reach it and
    cuts at the end of its follow-up instead; a warning counts such pairs.
    Per replicate, one sort resolves every milestone and one minimum of the
    latent endpoints serves them all, so a milestone costs O(subjects x (1
    + groups)) plus the statistics.
    With ``threads > 1`` the caller simulates one contiguous share of the
    replicates and, on Linux, ``threads - 1`` forked processes the others
    (elsewhere all run in-process); the design and ``stats`` reach them
    through the fork, so sampler hooks and statistics may be any callables.
    """
    rep = _whole(rep, "rep", 1)
    seed = _whole(seed, "seed", 0)
    threads = _whole(threads, "threads", 1)
    at = [float(a) for a in at]
    if not at or not all(0 < a < np.inf for a in at):
        raise ValueError("milestones must be nonempty, positive and finite")
    if type not in FOLLOWUP_TYPES:
        raise ValueError(f"type must be one of {FOLLOWUP_TYPES}, got {type!r}")
    if isinstance(follow_up_endpoint, str):
        raise ValueError("follow_up_endpoint must be a sequence of endpoint names, "
                         f"such as ({follow_up_endpoint!r},), not a bare string")
    endpoints = tuple(follow_up_endpoint)
    if not endpoints:
        raise ValueError(f"follow_up_endpoint must name at least one of {FOLLOWUP_ENDPOINTS}")
    bad = set(endpoints) - set(FOLLOWUP_ENDPOINTS)
    if bad:
        raise ValueError(f"unknown follow-up endpoints: {sorted(bad)}")
    group_names = [g for g, _ in design.groups] if by_group else []
    payloads = [
        (design, seed, r, at, type, endpoints, tuple(stats), group_names)
        for r in range(rep)
    ]
    results = parallel_map(_followup_worker, payloads, threads)
    mean = np.mean([r[0] for r in results], axis=0)
    n_unreached = sum(r[1] for r in results)
    if n_unreached:
        _warnings.warn(
            f"{n_unreached} replicate-milestone pairs never reached the milestone; "
            "their end-of-horizon state was used",
            stacklevel=2,
        )
    names = ["analysis_time", "event", "subjects", *(getattr(f, "__name__", str(f)) for f in stats)]
    overall = {"at": np.array(at), **dict(zip(names, mean[:, 0].T))}
    groups = None
    if by_group:
        rows = mean[:, 1:].transpose(1, 0, 2).reshape(-1, len(names))  # group-major
        groups = {"at": np.tile(at, len(group_names)), "group": np.repeat(group_names, len(at)),
                  **dict(zip(names, rows.T))}
    return SimFollowup(overall=overall, by_group=groups, n_unreached=n_unreached)
