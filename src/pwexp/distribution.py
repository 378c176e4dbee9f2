"""Piecewise-exponential (PWE) distribution family.

A PWE random variable has a piecewise-constant hazard: ``rates[k]`` applies
on ``[breakpoints[k-1], breakpoints[k])``, with the hazard right-continuous
at each change-point. With no breakpoints the model is a plain exponential.

All evaluation functions accept a scalar or array for the main argument and
return the matching shape. Everything here is pure and reentrant; samplers
take an explicit ``numpy.random.Generator``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "PweModel",
    "hazard",
    "cumulative_hazard",
    "density",
    "survival",
    "cdf",
    "quantile",
    "sample",
    "conditional_survival",
    "conditional_cdf",
    "conditional_quantile",
    "conditional_sample",
]


@dataclass(frozen=True)
class PweModel:
    """Hazard rates and ordered change-points defining one PWE distribution.

    Parameters
    ----------
    rates : sequence of float
        Hazard per unit time in each piece; one entry per piece.
    breakpoints : sequence of float
        Strictly increasing change-points; one entry fewer than ``rates``.
    """

    rates: tuple[float, ...]
    breakpoints: tuple[float, ...] = ()

    def __post_init__(self):
        rates = tuple(float(r) for r in np.atleast_1d(np.asarray(self.rates, dtype=float)))
        breaks = tuple(float(b) for b in np.asarray(self.breakpoints, dtype=float).ravel())
        if len(rates) != len(breaks) + 1:
            raise ValueError(
                f"need len(rates) == len(breakpoints) + 1, got {len(rates)} and {len(breaks)}"
            )
        if not all(np.isfinite(r) and r > 0.0 for r in rates):
            raise ValueError("hazard rates must be strictly positive and finite")
        if any(not np.isfinite(b) or b <= 0.0 for b in breaks):
            raise ValueError("breakpoints must be strictly positive and finite")
        if any(b2 <= b1 for b1, b2 in zip(breaks, breaks[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "breakpoints", breaks)

    @property
    def n_pieces(self) -> int:
        return len(self.rates)

    @cached_property
    def _rates_arr(self) -> np.ndarray:
        return np.asarray(self.rates, dtype=float)

    @cached_property
    def _breaks_arr(self) -> np.ndarray:
        return np.asarray(self.breakpoints, dtype=float)

    @cached_property
    def _lower(self) -> np.ndarray:
        # lower bound of each piece: 0, d_1, ..., d_r
        return np.concatenate(([0.0], self._breaks_arr))

    @cached_property
    def _cum(self) -> np.ndarray:
        # cumulative hazard at the lower bound of each piece (prefix form;
        # avoids the alternating-sign expansion that loses precision for
        # many pieces)
        lengths = np.diff(self._lower)
        return np.concatenate(([0.0], np.cumsum(self._rates_arr[:-1] * lengths)))


def _prepare(t) -> tuple[np.ndarray, bool]:
    arr = np.asarray(t, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def _finish(vals: np.ndarray, scalar: bool):
    return float(vals[0]) if scalar else vals


# Up to this many bounds a key's piece is found by counting comparisons, one
# pass over the keys per bound; above it by binary search. Timed per draw on
# blocks of 8,192 (2 vCPUs, numpy 2.4; BENCH_sampler.json), the count is the
# cheaper of the two up to about 40 bounds in conditional_sample and 80 in
# sample. The count is kept in int8, so this must stay below 128.
_COUNT_MAX = 40


def _locate(bounds: np.ndarray, x: np.ndarray):
    """``np.searchsorted(bounds, x, side="right")``, the number of bounds <=
    each key, for every key but NaN (±inf and keys on a bound included).
    With no bounds it is the scalar 0, which indexes like an array of
    zeros. The count puts a NaN key in piece 0, binary search in the last."""
    if len(bounds) > _COUNT_MAX:
        return np.searchsorted(bounds, x, side="right")
    if not len(bounds):
        return 0
    idx = (x >= bounds[0]).view(np.int8)
    for b in bounds[1:]:
        idx += x >= b
    return idx.astype(np.intp)


def _piece_index(m: PweModel, t: np.ndarray):
    # right-continuous: t == d_k evaluates in piece k+1
    return _locate(m._breaks_arr, t)


def _cumhaz(m: PweModel, t: np.ndarray) -> np.ndarray:
    """H(t) for t >= 0 (NaN stays NaN); negative t extrapolates piece 1."""
    idx = _piece_index(m, t)
    return m._cum[idx] + m._rates_arr[idx] * (t - m._lower[idx])


def hazard(m: PweModel, t):
    """Hazard rate h(t); 0 for t < 0, NaN for NaN t."""
    tv, scalar = _prepare(t)
    out = np.where(tv < 0.0, 0.0, m._rates_arr[_piece_index(m, tv)])
    return _finish(np.where(np.isnan(tv), np.nan, out), scalar)


def cumulative_hazard(m: PweModel, t):
    """Integrated hazard H(t); 0 for t <= 0."""
    tv, scalar = _prepare(t)
    return _finish(np.maximum(_cumhaz(m, tv), 0.0), scalar)


def density(m: PweModel, t):
    """Density f(t) = h(t) exp(-H(t)); 0 for t < 0.

    Right-continuous at the change-points: f(d_k) uses the rate of piece
    k + 1.
    """
    tv, scalar = _prepare(t)
    idx = _piece_index(m, tv)
    out = m._rates_arr[idx] * np.exp(-np.atleast_1d(cumulative_hazard(m, tv)))
    out = np.where(tv < 0.0, 0.0, out)
    return _finish(out, scalar)


def survival(m: PweModel, t):
    """Survival S(t) = exp(-H(t)); 1 for t < 0."""
    tv, scalar = _prepare(t)
    out = np.exp(-np.atleast_1d(cumulative_hazard(m, tv)))
    return _finish(np.where(tv < 0.0, 1.0, out), scalar)


def cdf(m: PweModel, t):
    """Cumulative distribution F(t) = 1 - S(t)."""
    tv, scalar = _prepare(t)
    out = -np.expm1(-np.atleast_1d(cumulative_hazard(m, tv)))
    return _finish(np.where(tv < 0.0, 0.0, out), scalar)


def _log_surv(p: np.ndarray) -> np.ndarray:
    """``log1p(-p)``, the log of 1 - p, computed in place of ``p``."""
    return np.log1p(np.negative(p, out=p), out=p)


def _invert_cumhaz(m: PweModel, target: np.ndarray) -> np.ndarray:
    """Closed-form inverse of the cumulative hazard (piecewise linear),
    computed in place of ``target``; an infinite target falls in the last
    piece and maps to inf."""
    idx = _locate(m._cum[1:], target)
    target -= m._cum[idx]
    target /= m._rates_arr[idx]
    target += m._lower[idx]
    return target


def _check_prob(p: np.ndarray):
    if np.any(p < 0.0) or np.any(p > 1.0) or np.any(np.isnan(p)):
        raise ValueError("probability must lie in [0, 1]")


def quantile(m: PweModel, p):
    """Quantile Q(p), the piecewise closed-form inverse of the CDF.

    ``p`` must lie in [0, 1); by convention ``p == 1`` returns ``inf``
    (consumed by the trial simulator as a never-occurring event) and values
    outside [0, 1] raise ``ValueError``.
    """
    pv, scalar = _prepare(p)
    _check_prob(pv)
    with np.errstate(divide="ignore"):
        target = -np.log1p(-pv)
    return _finish(_invert_cumhaz(m, target), scalar)


def sample(m: PweModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` i.i.d. draws by inverse transform: Q(U), U ~ uniform[0, 1).

    Takes one uniform per draw, in order: the draws are bit for bit
    ``quantile(m, rng.random(n))``, without its checks, which uniforms in
    [0, 1) cannot fail. Cost per draw is one uniform, a logarithm, one
    comparison pass per change-point (binary search above ``_COUNT_MAX``)
    and three table lookups.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    log_surv = _log_surv(rng.random(int(n)))
    return _invert_cumhaz(m, np.negative(log_surv, out=log_surv))


def conditional_survival(m: PweModel, t, given: float):
    """Survival of T given T > ``given``: S(t) / S(given), for t >= given."""
    tv, scalar = _prepare(t)
    g = float(given)
    if g < 0.0:
        raise ValueError("conditioning time must be nonnegative")
    if np.any(tv < g):
        raise ValueError("t must be >= the conditioning time")
    hg = cumulative_hazard(m, g)
    out = np.exp(hg - np.atleast_1d(cumulative_hazard(m, tv)))
    return _finish(out, scalar)


def conditional_cdf(m: PweModel, t, given: float):
    """1 - S(t)/S(given) for t >= given."""
    tv, scalar = _prepare(t)
    out = 1.0 - np.atleast_1d(conditional_survival(m, tv, given))
    return _finish(out, scalar)


_TINY = np.finfo(float).tiny


def _check_given(given) -> np.ndarray:
    g = np.asarray(given, dtype=float)
    if np.any(g < 0.0):
        raise ValueError("conditioning time must be nonnegative")
    return g


def _conditional_inverse(m: PweModel, log_surv: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Q(p | T > g) for g >= 0 from ``log_surv = log1p(-p)``, p in [0, 1],
    without the exact case p == 0. Computed in place of ``log_surv``, which
    must already have the shape that p and g broadcast to."""
    # the cumulative hazard of a nonnegative time needs no clamp at 0
    target = np.subtract(_cumhaz(m, np.atleast_1d(g)), log_surv, out=log_surv)
    return np.maximum(_invert_cumhaz(m, target), g, out=target)


def conditional_quantile(m: PweModel, p, given):
    """Quantile of T given T > ``given`` (closed form, >= ``given``).

    Inverts S(t)/S(given) = 1 - p through the cumulative hazard, which
    reproduces the piecewise case table of the conditional quantile exactly.
    Same probability domain convention as :func:`quantile`. ``given`` may be
    a scalar or an array that broadcasts against ``p``.
    """
    pv, scalar = _prepare(p)
    _check_prob(pv)
    g = _check_given(given)
    with np.errstate(divide="ignore"):
        log_surv = np.log1p(-np.broadcast_to(pv, np.broadcast_shapes(pv.shape, g.shape)))
        out = _conditional_inverse(m, log_surv, g)
    out = np.where(pv == 0.0, g, out)  # exact at the conditioning point
    return _finish(out, scalar and g.ndim == 0)


def conditional_sample(m: PweModel, n: int, given, rng: np.random.Generator) -> np.ndarray:
    """``n`` draws of T given T > ``given``; no draw is below ``given``.

    ``given`` takes one of three forms:

    - a scalar, one conditioning time for all ``n`` draws;
    - a 1-D array of ``n``, one conditioning time per draw;
    - a column (shape ``(s, 1)``) of ``s`` subjects' conditioning times,
      ``s`` dividing ``n``: subject ``i`` gets the ``n // s`` consecutive
      draws of row ``i`` of the ``(s, n // s)`` result, which is bit for
      bit the 1-D form with ``np.repeat(given, n // s)``, reshaped.

    A negative entry raises ``ValueError``. Takes one uniform per draw, in
    order: with ``u = rng.random(n)`` the draws are bit for bit
    ``conditional_quantile(m, np.maximum(u, tiny), given)``. The smallest
    normal float ``tiny`` stands in for U == 0, which keeps a draw at
    ``given == 0`` above 0. The probability checks of
    :func:`conditional_quantile` are skipped, as these uniforms cannot fail
    them. Cost per draw is that of :func:`sample` plus one subtraction and
    one maximum. The cumulative hazard at ``given`` (a comparison pass per
    change-point and three lookups) is computed once per entry of
    ``given``: once per draw in the 1-D form, once per subject in the
    column form.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    g = _check_given(given)
    shape = int(n)
    if g.ndim == 2:
        s = len(g)
        shape = (s, n // s if s else 0)
        if g.shape[1] != 1 or s * shape[1] != n:
            raise ValueError(f"a column of conditioning times needs shape (s, 1) with s dividing n={n}")
    u = rng.random(shape)
    np.maximum(u, _TINY, out=u)
    return _conditional_inverse(m, _log_surv(u), g)
