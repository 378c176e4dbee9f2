"""Deterministic random-stream derivation for replicate-level work.

Every randomized operation takes a master seed and derives one child stream
per unit of work (bootstrap replicate, CV split, prediction replicate) from
``SeedSequence(seed, spawn_key=key)``. Child streams depend only on the seed
and the key, never on execution order, so results are identical for any
worker count.

Every key in the package:

=============================  ===============================================
key                            stream
=============================  ===============================================
``(seed, 0)``                  :func:`simulate_trial` given an integer seed
``(seed, 1, b)``               bootstrap replicate ``b``'s resample
``(seed, 2, b)``               bootstrap replicate ``b``'s ``FitConfig.seed``
``(seed, 3, i)``               CV repetition ``i``'s splits, one per attempt
``(seed, 4, i, attempt)``      CV repetition ``i``'s ``FitConfig.seed``
``(seed, 10, b)``              prediction parameter set ``b`` (from 1)
``(seed, 20, r)``              :func:`sim_followup` replicate ``r``
``(config.seed, 101)``         ``bfs`` candidate thinning
``(config.seed, 202)``         ``ols``/``hybrid`` segmented starts, then the
                               ``ols`` grid fallback's thinning
``(config.seed, 303)``         ``hybrid`` candidate rows
=============================  ===============================================

``(seed, 2, b)`` and ``(seed, 4, i, attempt)`` are integer seeds from
:func:`derive_seed`; the rest are generators from :func:`derive_rng`.
"""
from __future__ import annotations

import numpy as np


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for child stream ``key`` of master ``seed``."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def derive_seed(seed: int, *key: int) -> int:
    """Integer seed for child stream ``key`` (for nested seeded calls)."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
