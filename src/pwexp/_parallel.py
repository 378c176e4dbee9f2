"""Order-preserving process-pool map for replicate-level parallelism.

Workers receive self-contained payloads and results come back in submission
order, so output never depends on the worker count; determinism is the
caller's responsibility via per-payload derived seeds.
"""
from __future__ import annotations

from typing import Callable, Sequence


def parallel_map(fn: Callable, payloads: Sequence, threads: int) -> list:
    if threads <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    # imported on first use, so that a serial run and every CLI start do not
    # pay for loading concurrent.futures and multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=int(threads)) as pool:
        return list(pool.map(fn, payloads))
