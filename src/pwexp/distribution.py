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


def _piece_index(m: PweModel, t: np.ndarray) -> np.ndarray:
    # right-continuous: t == d_k evaluates in piece k+1
    return np.searchsorted(m._breaks_arr, t, side="right")


def hazard(m: PweModel, t):
    """Hazard rate h(t); 0 for t < 0."""
    tv, scalar = _prepare(t)
    idx = _piece_index(m, tv)
    out = np.where(tv < 0.0, 0.0, m._rates_arr[idx])
    return _finish(out, scalar)


def cumulative_hazard(m: PweModel, t):
    """Integrated hazard H(t); 0 for t <= 0."""
    tv, scalar = _prepare(t)
    idx = _piece_index(m, tv)
    h = m._cum[idx] + m._rates_arr[idx] * (tv - m._lower[idx])
    return _finish(np.maximum(h, 0.0), scalar)


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


def _invert_cumhaz(m: PweModel, target: np.ndarray) -> np.ndarray:
    """Closed-form inverse of the cumulative hazard (piecewise linear)."""
    idx = np.searchsorted(m._cum[1:], target, side="right")
    with np.errstate(invalid="ignore"):
        out = m._lower[idx] + (target - m._cum[idx]) / m._rates_arr[idx]
    return np.where(np.isposinf(target), np.inf, out)


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
    """``n`` i.i.d. draws by inverse transform: Q(U), U ~ uniform[0, 1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    u = rng.random(int(n))
    return _invert_cumhaz(m, -np.log1p(-u))


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


def conditional_quantile(m: PweModel, p, given):
    """Quantile of T given T > ``given`` (closed form, >= ``given``).

    Inverts S(t)/S(given) = 1 - p through the cumulative hazard, which
    reproduces the piecewise case table of the conditional quantile exactly.
    Same probability domain convention as :func:`quantile`. ``given`` may be
    a scalar or an array that broadcasts against ``p``.
    """
    pv, scalar = _prepare(p)
    _check_prob(pv)
    g = np.asarray(given, dtype=float)
    if np.any(g < 0.0):
        raise ValueError("conditioning time must be nonnegative")
    scalar = scalar and g.ndim == 0
    with np.errstate(divide="ignore"):
        target = cumulative_hazard(m, g) - np.log1p(-pv)
    out = np.maximum(_invert_cumhaz(m, target), g)
    out = np.where(pv == 0.0, g, out)  # exact at the conditioning point
    return _finish(out, scalar)


def conditional_sample(m: PweModel, n: int, given, rng: np.random.Generator) -> np.ndarray:
    """``n`` draws of T given T > ``given``; every draw exceeds ``given``.

    ``given`` is one conditioning time for all draws or an array of ``n``,
    one per draw.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    u = rng.random(int(n))
    # keep draws strictly above the conditioning point even if U == 0
    u = np.where(u > 0.0, u, np.finfo(float).tiny)
    return np.asarray(np.atleast_1d(conditional_quantile(m, u, given)), dtype=float)
