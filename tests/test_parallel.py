"""The fork map: order, failures, cleanup, stdio and the in-process fallback."""
import io
import os
import sys
import time
import warnings

import pytest

from pwexp._parallel import parallel_map


@pytest.fixture(autouse=True)
def no_child_left():
    """Every map, whether it returns or raises, has reaped every child."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _with_pid(p):
    return p * p, os.getpid()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("threads", [1, 2, 3, 5])
def test_results_in_payload_order(threads, n):
    out = parallel_map(_with_pid, list(range(n)), threads)
    assert [v for v, _ in out] == [p * p for p in range(n)]
    pids = [pid for _, pid in out]
    # contiguous shares; the caller computes the first, a child each other
    shares = min(threads, n)
    assert pids[0] == os.getpid()
    assert len(set(pids)) == shares
    assert pids == sorted(pids, key=pids.index)


def test_payloads_and_functions_need_not_pickle():
    assert parallel_map(lambda f: f(), [lambda: 1, lambda: 2, lambda: 3], 3) == [1, 2, 3]


def _raise_at(failures):
    def fn(p):
        if p in failures:
            raise failures[p](f"payload {p}")
        return p
    return fn


@pytest.mark.parametrize("failures, first", [
    pytest.param({0: KeyError}, 0, id="caller"),
    pytest.param({3: ValueError}, 3, id="child"),
    pytest.param({3: ValueError, 5: KeyError}, 3, id="two_children"),
    pytest.param({1: TypeError, 2: ValueError}, 1, id="caller_before_child"),
    pytest.param({5: KeyError, 4: TypeError}, 4, id="within_a_child"),
])
def test_first_failure_in_payload_order(failures, first):
    # threads=3 over 6 payloads: the caller computes 0-1, the children 2-3 and 4-5
    with pytest.raises(failures[first], match=f"payload {first}") as info:
        parallel_map(_raise_at(failures), list(range(6)), 3)
    if first >= 2:
        assert "Traceback" in str(info.value.__cause__)


class _Unpicklable(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None


class _Unloadable(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def _raise_unpicklable(p):
    if p == 1:
        raise _Unpicklable("cannot be pickled")
    return p


def _raise_unloadable(p):
    if p == 1:
        raise _Unloadable("needs", "two")
    return p


def _return_unpicklable(p):
    return lambda: p


@pytest.mark.parametrize("fn, message", [
    (_raise_unpicklable, "_Unpicklable: cannot be pickled"),
    (_raise_unloadable, "_Unloadable: needs and two"),
    (_return_unpicklable, "Can't pickle"),
])
def test_exception_that_cannot_travel_is_named(fn, message):
    with pytest.raises(RuntimeError, match=message):
        parallel_map(fn, [0, 1], 2)


def _failing_or_slow(p):
    if p == 0:
        raise KeyboardInterrupt
    if p == 1:
        raise ValueError("payload 1")
    if p == 9:
        time.sleep(60)
    return p


@pytest.mark.parametrize("payloads, error", [
    pytest.param([0, 9, 9], KeyboardInterrupt, id="caller_interrupted"),
    pytest.param([8, 1, 9], ValueError, id="child_failed"),
])
def test_failure_kills_the_children_still_running(payloads, error):
    """The children still computing (60 s each) are killed, not awaited."""
    start = time.perf_counter()
    with pytest.raises(error):
        parallel_map(_failing_or_slow, payloads, 3)
    assert time.perf_counter() - start < 30


def test_unflushed_output_appears_once(capfd, monkeypatch):
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(open(1, "wb", closefd=False)))
    print("before the map")
    assert parallel_map(_with_pid, [1, 2, 3, 4], 2)[2][0] == 9
    sys.stdout.flush()
    assert capfd.readouterr().out == "before the map\n"


def test_runs_in_process_off_linux(monkeypatch):
    monkeypatch.setattr(sys, "platform", "darwin")
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    assert parallel_map(_with_pid, [1, 2, 3], 3) == [(p * p, os.getpid()) for p in (1, 2, 3)]


_FORK = os.fork


@pytest.mark.parametrize("message, ignored", [
    ("This process (pid=1) is multi-threaded, use of fork() may lead to deadlocks in the child.", True),
    ("fork() is going away", False),
])
def test_only_the_multithreaded_fork_warning_is_ignored(monkeypatch, message, ignored):
    """From Python 3.12 os.fork warns in a process with threads, and the
    warning is attributed to the module that calls it."""
    def fork():
        warnings.warn(message, DeprecationWarning, stacklevel=2)
        return _FORK()

    monkeypatch.setattr(os, "fork", fork)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        if ignored:
            assert parallel_map(_with_pid, [1, 2], 2)[1][0] == 4
        else:
            with pytest.raises(DeprecationWarning, match="going away"):
                parallel_map(_with_pid, [1, 2], 2)
