"""Bootstrap parameter uncertainty and cross-validated log-likelihood."""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from . import estimation
from ._parallel import parallel_map
from .errors import NoFeasibleModelError, _whole
from .estimation import (FitConfig, FitResult, _JsonRecord, _check_sample, _count, _field, _fit_batch, _fit_block,
                         _list, loglik)
from .rng import derive_rng, derive_seed
from .survdata import SurvSample, write_table

__all__ = ["BootFit", "CvResult", "boot_fit", "cv_loglik"]


@dataclass
class BootFit(_JsonRecord):
    """Per-replicate fits from case resampling with replacement.

    ``base`` is the fit on the original data; ``failures`` says which
    replicates failed and why. Both survive the JSON round trip; JSON
    written without them loads with ``base=None`` and no failures.
    """

    replicates: list[FitResult]
    config: FitConfig | None
    nsim: int
    seed: int
    base: FitResult | None = None
    failures: list[str] = field(default_factory=list)

    def breakpoint_matrix(self) -> np.ndarray:
        """(n_replicates, r) array of fitted change-points."""
        return np.array([r.model.breakpoints for r in self.replicates], dtype=float)

    def rate_matrix(self) -> np.ndarray:
        """(n_replicates, r + 1) array of fitted hazard rates."""
        return np.array([r.model.rates for r in self.replicates], dtype=float)

    def to_dict(self) -> dict:
        return {
            "replicates": [r.to_dict() for r in self.replicates],
            "seed": self.seed,
            "nsim": self.nsim,
            "base": self.base.to_dict() if self.base is not None else None,
            "failures": list(self.failures),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BootFit":
        """The ensemble :meth:`to_dict` wrote, with ``config=None``;
        ``ValueError`` names a missing or ill-typed field, and an ``nsim``
        below the count of replicates and failures."""
        replicates = _field(d, "replicates", lambda v: [FitResult.from_dict(r) for r in _list(v)])
        failures = list(_field(d, "failures", _list, []))

        def nsim(value) -> int:
            nsim = _count("nsim", 1)(value)
            if len(replicates) + len(failures) > nsim:
                raise ValueError(f"{len(replicates)} replicates and {len(failures)} failures "
                                 f"exceed nsim {nsim}")
            return nsim

        return cls(
            replicates=replicates,
            config=None,
            nsim=_field(d, "nsim", nsim),
            seed=_field(d, "seed", _count("seed", 0)),
            base=_field(d, "base", lambda v: None if v is None else FitResult.from_dict(v), None),
            failures=failures,
        )


@dataclass
class CvResult:
    """Held-out log-likelihoods from repeated random-split validation;
    ``nsim`` counts the repetitions, scored or failed."""

    values: np.ndarray
    split_fraction: float
    seed: int
    n_failed: int = 0

    @property
    def nsim(self) -> int:
        return len(self.values) + self.n_failed

    def save_csv(self, path):
        write_table(path, {"cv_loglik": self.values})


def _resample_indices(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, n, size=n)


def _chunks(data: SurvSample, nsim: int, threads: int, *args) -> list:
    """One payload per worker: the sample, ``args``, and a contiguous run of
    replicate numbers. Forked workers get it through the fork, unpickled."""
    runs = np.array_split(np.arange(nsim), min(threads, nsim))
    return [(data, *args, run) for run in runs]


def _boot_chunk(payload) -> list:
    """``(ok, fit or failure text)`` per replicate of the run. The run that
    starts at replicate 0 also fits the base sample, keyed ``None``, in its
    first block, on top of a full block of replicates; its result (the fit,
    or the exception that :func:`fit` raises) comes first."""
    data, config, seed, run = payload
    time, event = data.time, data.event

    def resample(b):
        if b is None:
            return data
        idx = _resample_indices(derive_rng(seed, 1, b), len(time))
        return SurvSample(time[idx], event[idx])

    items = ((b, replace(config, seed=derive_seed(seed, 2, b))) for b in run)
    first = [(None, config), *itertools.islice(items, estimation._BLOCK)] if run[0] == 0 else []
    fits = itertools.chain(_fit_block(resample, first), _fit_batch(resample, items))
    return [res if b is None else (True, res) if isinstance(res, FitResult)
            else (False, f"replicate {b}: {res}") for b, res in fits]


def boot_fit(
    data: SurvSample, config: FitConfig, nsim: int, seed: int, threads: int = 1
) -> BootFit:
    """Fit ``nsim`` case resamples of ``data`` (size n, with replacement).

    Replicate b draws its resample and its search stream from child streams
    of (seed, b). The replicates are split into ``threads`` contiguous
    runs: the caller fits the first and, on Linux, ``threads - 1`` forked
    processes fit the others (elsewhere the caller fits them all). Each run
    is fitted in blocks by :func:`~pwexp.estimation._fit_batch`, which draws
    a resample again from its stream rather than keep it. The fit on
    ``data`` itself, ``base``, joins the caller's first block, so an ``ols``
    or ``hybrid`` base shares that block's segmented lockstep, and it is
    computed while the forked processes fit theirs. Every fit is the one
    :func:`fit` gives on its sample, so the result is identical for any
    ``threads``. An infeasible base raises what :func:`fit` raises on
    ``data`` (:class:`EmptyPieceError` or :class:`NoFeasibleModelError`).
    Replicates whose fit raises one of those are recorded in ``failures``
    and skipped; more than 50% failures then raises
    :class:`NoFeasibleModelError`. Any other exception propagates.
    """
    nsim = _whole(nsim, "nsim", 1)
    seed = _whole(seed, "seed", 0)
    threads = _whole(threads, "threads", 1)
    base, *out = [r for chunk in parallel_map(_boot_chunk, _chunks(data, nsim, threads, config, seed), threads)
                  for r in chunk]
    if not isinstance(base, FitResult):
        raise base
    replicates = [val for ok, val in out if ok]
    failures = [val for ok, val in out if not ok]
    if len(failures) > nsim / 2:
        raise NoFeasibleModelError(
            f"{len(failures)} of {nsim} bootstrap replicates failed to fit"
        )
    return BootFit(
        replicates=replicates,
        config=config,
        nsim=nsim,
        seed=seed,
        base=base,
        failures=failures,
    )


def _stratified_split(rng: np.random.Generator, event: np.ndarray, frac: float, min_train_events: int):
    """Hold out ``frac`` of the records, preserving the event/censor mix."""
    test_mask = np.zeros(len(event), dtype=bool)
    for value in (1, 0):
        idx = np.flatnonzero(event == value)
        if len(idx) == 0:
            continue
        n_test = int(round(frac * len(idx)))
        if value == 1:
            n_test = min(n_test, len(idx) - min_train_events)
        n_test = max(n_test, 0)
        test_mask[rng.permutation(idx)[:n_test]] = True
    if not test_mask.any():
        # tiny samples: always hold out something so the value is defined
        test_mask[int(rng.integers(0, len(event)))] = True
    return test_mask


_CV_DRAWS = 6


def _cv_chunk(payload) -> list:
    """Each draw fits the run's unfinished repetitions as one batch, each
    split drawn as the batch reaches it, so that at most one block of masks
    exists; a failed training fit is redrawn from the repetition's own
    stream."""
    data, config, seed, frac, run = payload
    time, event = data.time, data.event
    rngs = {i: derive_rng(seed, 3, i) for i in run}
    done, last = {}, {}

    def train(key):
        return SurvSample(time[~key[1]], event[~key[1]])

    def score(item):
        # the mask lives in this frame only, not in the caller's loop
        (i, mask), res = item
        if isinstance(res, FitResult):
            done[i] = (True, loglik(res.model, SurvSample(time[mask], event[mask])))
        else:
            last[i] = f"{type(res).__name__}: {res}"
        return i

    todo = list(run)
    for attempt in range(_CV_DRAWS):
        items = (((i, _stratified_split(rngs[i], event, frac, config.nbreak + 1)),
                  replace(config, seed=derive_seed(seed, 4, i, attempt))) for i in todo)
        todo = [i for i in map(score, _fit_batch(train, items)) if i not in done]
    return [done.get(i) or (False, f"repetition {i}: no feasible training fit in "
                                   f"{_CV_DRAWS} draws; last: {last[i]}") for i in run]


def cv_loglik(
    data: SurvSample,
    config: FitConfig,
    nsim: int,
    seed: int,
    threads: int = 1,
    test_fraction: float = 0.2,
) -> CvResult:
    """Repeated random-split cross-validated log-likelihood.

    Each repetition holds out ``test_fraction`` of the records (stratified
    by event status), fits on the remainder, and scores the held-out
    records. Split streams are derived from (seed, repetition) alone, so
    two models compared under the same seed see identical splits. The
    repetitions are split into ``threads`` contiguous runs: the caller fits
    the first and, on Linux, ``threads - 1`` forked processes fit the others
    (elsewhere the caller fits them all). Each run is fitted in blocks by
    :func:`~pwexp.estimation._fit_batch`; every training fit is the one
    :func:`fit` gives on its split, so the values are identical for any
    ``threads``. Follow-up times must be finite. For
    ``optimizer`` ``"ols"`` or ``"hybrid"``, a sample with fewer than
    ``2 * (nbreak + 1)`` distinct event times (``nbreak`` counting searched
    change-points only) raises :class:`NoFeasibleModelError` before any fit:
    no training split could have enough Kaplan-Meier steps. A training fit
    that raises :class:`EmptyPieceError` or :class:`NoFeasibleModelError`
    is redrawn up to five times, then recorded as a failure; any other
    exception propagates. When every repetition fails,
    :class:`NoFeasibleModelError` names the first failure's last reason.
    """
    nsim = _whole(nsim, "nsim", 1)
    seed = _whole(seed, "seed", 0)
    threads = _whole(threads, "threads", 1)
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    if data.n_events < config.nbreak + 2:
        raise ValueError("too few events to retain nbreak + 1 in every training split")
    free = config.nbreak - len(config.fixed_breakpoints)
    if config.optimizer in ("ols", "hybrid") and free > 0:
        # the OLS search needs 2 * (nbreak + 1) positive-survival KM steps, a
        # training split has at most one per distinct event time, and fit()
        # may clean away fixed change-points, so only searched ones count
        n_times = len(data._sorted.event_times)
        if n_times < 2 * (free + 1):
            raise NoFeasibleModelError(
                f"optimizer {config.optimizer!r} needs at least {2 * (free + 1)} distinct "
                f"event times for {free} searched change-points, got {n_times}"
            )
    _check_sample(data)
    chunks = _chunks(data, nsim, threads, config, seed, test_fraction)
    out = [r for chunk in parallel_map(_cv_chunk, chunks, threads) for r in chunk]
    values = np.array([val for ok, val in out if ok], dtype=float)
    failures = [val for ok, val in out if not ok]
    if len(values) == 0:
        raise NoFeasibleModelError(f"every cross-validation repetition failed; {failures[0]}")
    return CvResult(
        values=values,
        split_fraction=test_fraction,
        seed=seed,
        n_failed=len(failures),
    )
