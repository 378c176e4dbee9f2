"""Bootstrap parameter uncertainty and cross-validated log-likelihood."""
from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from ._parallel import parallel_map
from .errors import NoFeasibleModelError
from .estimation import FitConfig, FitResult, _check_sample, _fit_batch, fit, loglik
from .rng import derive_rng, derive_seed
from .survdata import SurvSample, write_table

__all__ = ["BootFit", "CvResult", "boot_fit", "cv_loglik"]


@dataclass
class BootFit:
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

    def save_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def from_dict(cls, d: dict) -> "BootFit":
        return cls(
            replicates=[FitResult.from_dict(r) for r in d["replicates"]],
            config=None,
            nsim=int(d["nsim"]),
            seed=int(d["seed"]),
            base=FitResult.from_dict(d["base"]) if d.get("base") is not None else None,
            failures=list(d.get("failures", [])),
        )

    @classmethod
    def load_json(cls, path) -> "BootFit":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class CvResult:
    """Held-out log-likelihoods from repeated random-split validation."""

    values: np.ndarray
    split_fraction: float
    nsim: int
    seed: int
    n_failed: int = 0

    def save_csv(self, path):
        write_table(path, {"cv_loglik": self.values})


def _resample_indices(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, n, size=n)


# Replicates fitted together, in one segmented lockstep for ``ols`` and
# ``hybrid``. A replicate waiting for the lockstep holds only its regression
# inputs, its log KM points and starts (about 0.04 MB at 8,000 subjects);
# its sample and sorted view (about 0.27 MB) are dropped and drawn again to
# finish the fit (see _fit_batch and _Rebuilt). The lockstep adds each
# replicate's line sums (about 0.16 MB). So memory is bounded whatever
# ``nsim``, and larger blocks share more of the lockstep's per-iteration
# cost; at 8,000 subjects blocks of 16 and 32 were not measurably faster
# than 10 and raised the traced peak 1.5x and 3x.
_BLOCK = 10


class _Rebuilt(Sequence):
    """Item k is ``build(keys[k])``, built anew on each read, so that the
    sequence holds none of its items: each replicate sample exists only
    while :func:`_fit_batch` reads it."""

    def __init__(self, build, keys):
        self.build, self.keys = build, keys

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, k):
        return self.build(self.keys[k])


def _chunks(data: SurvSample, nsim: int, threads: int, *args) -> list:
    """One payload per worker: the sample's time and event columns only,
    ``args``, and a contiguous run of replicate numbers."""
    runs = np.array_split(np.arange(nsim), max(1, min(int(threads), nsim)))
    return [(data.time, data.event, *args, run) for run in runs]


def _blocks(run: np.ndarray):
    return (run[i : i + _BLOCK] for i in range(0, len(run), _BLOCK))


def _boot_chunk(payload) -> list:
    time, event, config, seed, run = payload

    def resample(b):
        idx = _resample_indices(derive_rng(seed, 1, b), len(time))
        return SurvSample(time[idx], event[idx])

    out = []
    for block in _blocks(run):
        configs = [replace(config, seed=derive_seed(seed, 2, b)) for b in block]
        for b, res in zip(block, _fit_batch(_Rebuilt(resample, block), configs)):
            out.append((True, res) if isinstance(res, FitResult) else (False, f"replicate {b}: {res}"))
    return out


def boot_fit(
    data: SurvSample, config: FitConfig, nsim: int, seed: int, threads: int = 1
) -> BootFit:
    """Fit ``nsim`` case resamples of ``data`` (size n, with replacement).

    Replicate b draws its resample and its search stream from child streams
    of (seed, b). Replicates are fitted in blocks, the segmented regressions
    of a block's ``ols`` or ``hybrid`` fits in one lockstep, and with
    ``threads`` workers each takes a contiguous run of replicates. A
    replicate waiting for the lockstep holds only its log KM points and
    starts: its resample is drawn again from its stream to finish the fit,
    so memory does not grow with its sample while it waits. Every
    replicate's fit is the one :func:`fit` gives on its resample, so the
    result is identical for any worker count. Replicates whose fit raises
    :class:`EmptyPieceError` or :class:`NoFeasibleModelError` are recorded
    in ``failures`` and skipped; more than 50% failures raises
    :class:`NoFeasibleModelError`, as does an infeasible fit on the original
    data. Any other exception propagates.
    """
    if nsim < 1:
        raise ValueError("nsim must be >= 1")
    base = fit(data, config)
    out = [r for chunk in parallel_map(_boot_chunk, _chunks(data, nsim, threads, config, seed), threads)
           for r in chunk]
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
        seed=int(seed),
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
    """Repetitions in blocks: each draw of a block's unfinished repetitions
    is fitted as one batch, and a failed training fit is redrawn from the
    repetition's own stream."""
    time, event, config, seed, frac, run = payload
    out = []
    for block in _blocks(run):
        rngs = [derive_rng(seed, 3, i) for i in block]
        result, last = [None] * len(block), [None] * len(block)
        todo = list(range(len(block)))
        for attempt in range(_CV_DRAWS):
            if not todo:
                break
            masks = [_stratified_split(rngs[k], event, frac, config.nbreak + 1) for k in todo]
            trains = _Rebuilt(lambda m: SurvSample(time[~m], event[~m]), masks)
            configs = [replace(config, seed=derive_seed(seed, 4, block[k], attempt)) for k in todo]
            retry = []
            for k, mask, res in zip(todo, masks, _fit_batch(trains, configs)):
                if isinstance(res, FitResult):
                    result[k] = (True, loglik(res.model, SurvSample(time[mask], event[mask])))
                else:
                    last[k] = f"{type(res).__name__}: {res}"
                    retry.append(k)
            todo = retry
        for k in todo:
            result[k] = (False, f"repetition {block[k]}: no feasible training fit in "
                                f"{_CV_DRAWS} draws; last: {last[k]}")
        out += result
    return out


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
    two models compared under the same seed see identical splits.
    Repetitions are fitted in blocks, the segmented regressions of a
    block's ``ols`` or ``hybrid`` fits in one lockstep, and with ``threads``
    workers each takes a contiguous run of repetitions; every training fit
    is the one :func:`fit` gives on its split, so the values are identical
    for any worker count. Follow-up times must be finite. For
    ``optimizer`` ``"ols"`` or ``"hybrid"``, a sample with fewer than
    ``2 * (nbreak + 1)`` distinct event times (``nbreak`` counting searched
    change-points only) raises :class:`NoFeasibleModelError` before any fit:
    no training split could have enough Kaplan-Meier steps. A training fit
    that raises :class:`EmptyPieceError` or :class:`NoFeasibleModelError`
    is redrawn up to five times, then recorded as a failure; any other
    exception propagates. When every repetition fails,
    :class:`NoFeasibleModelError` names the first failure's last reason.
    """
    if nsim < 1:
        raise ValueError("nsim must be >= 1")
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
        nsim=nsim,
        seed=int(seed),
        n_failed=len(failures),
    )
