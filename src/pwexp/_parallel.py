"""Order-preserving fork map for replicate-level parallelism.

The payloads are split into ``min(threads, len(payloads))`` contiguous
shares. On Linux the caller forks one process per share but the first,
computes the first share itself, then reads each child's results from its
pipe, in share order. Payloads reach the children through the fork, so
they need not be picklable; results and exceptions come back pickled.
Elsewhere the map runs in-process. Results come back in payload order, so
output never depends on ``threads``; determinism is the caller's
responsibility via per-payload derived seeds.
"""
from __future__ import annotations

import os
import pickle
import signal
import sys
import traceback
import warnings
from contextlib import suppress
from typing import Callable, NoReturn, Sequence


class _ChildTraceback(Exception):
    """The traceback of an exception raised in a forked child, attached as
    the re-raised exception's ``__cause__``."""


def parallel_map(fn: Callable, payloads: Sequence, threads: int) -> list:
    """``[fn(p) for p in payloads]``, computed by up to ``threads`` processes.

    The caller computes the first share; on Linux ``threads - 1`` forked
    children compute the others. When a share raises, the first exception
    in payload order is raised, after every child is killed and reaped; one
    that cannot be pickled comes back as a ``RuntimeError`` naming its type
    and message. A child leaves through ``os._exit``: it never flushes
    the caller's stdio buffers, and what it writes to ``sys.stdout`` without
    flushing is lost.
    """
    n = min(threads, len(payloads))
    if n <= 1 or sys.platform != "linux":
        return [fn(p) for p in payloads]
    q, r = divmod(len(payloads), n)
    edges = [i * q + min(i, r) for i in range(n + 1)]
    pids, reads = [], []  # children not yet reaped, and pipe ends not yet closed
    try:
        for lo, hi in zip(edges[1:-1], edges[2:]):
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = _fork()
                if pid == 0:
                    _child(fn, payloads, lo, hi, read, write)
                pids.append(pid)
            finally:
                os.close(write)  # the child's copy stays open: _child never returns
        results = [fn(p) for p in payloads[:edges[1]]]
        for pid, read in zip(list(pids), list(reads)):
            reads.remove(read)
            with open(read, "rb") as pipe:  # and closes the read end
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            pids.remove(pid)
            if not data:
                raise RuntimeError(f"worker process {pid} ended without results "
                                   f"(exit code {os.waitstatus_to_exitcode(status)})")
            ok, value, trace = pickle.loads(data)
            if not ok:
                raise value from (_ChildTraceback(trace) if trace else None)
            results += value
        return results
    finally:
        for pid in pids:
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        for read in reads:
            os.close(read)
        for pid in pids:
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)


def _fork() -> int:
    with warnings.catch_warnings():
        # From Python 3.12 os.fork warns when the process runs other threads
        # (OpenBLAS starts some at import). The warning is attributed to this
        # module, so the tests' error::DeprecationWarning:pwexp.* filter would
        # fail every map; the multiprocessing fork workers this map replaces
        # drew the same warning, attributed to multiprocessing. OpenBLAS stops
        # its threads around a fork (its pthread_atfork handler), and a child
        # runs only its share before os._exit.
        warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)",
                                DeprecationWarning)
        return os.fork()


def _child(fn: Callable, payloads: Sequence, lo: int, hi: int, read: int, write: int) -> NoReturn:
    """The forked child: computes ``payloads[lo:hi]``, writes the pickled
    ``(ok, results or exception, traceback)`` to ``write`` and leaves
    through ``os._exit``, whatever happens."""
    try:
        os.close(read)
        try:
            out = (True, [fn(p) for p in payloads[lo:hi]], None)
        except BaseException as exc:
            out = (False, exc, traceback.format_exc())
        with open(write, "wb") as pipe:
            pipe.write(_dumps(*out))
    finally:
        os._exit(0)


def _dumps(ok: bool, value, trace) -> bytes:
    """The pickled outcome; an exception must also load again, and one that
    does not, or results that cannot be pickled, become a ``RuntimeError``."""
    try:
        data = pickle.dumps((ok, value, trace), pickle.HIGHEST_PROTOCOL)
        if not ok:
            pickle.loads(data)
        return data
    except Exception as exc:
        err = exc if ok else value
        return pickle.dumps((False, RuntimeError(f"{type(err).__name__}: {err}"), trace))

