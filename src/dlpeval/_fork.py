"""Forked workers: one function applied to several items at once, each
item in a child process of its own, the results taken in item order.

A child is forked from the caller, so it shares whatever the caller holds
(an ingested stream, say) without copying or pickling it; only its result
or its exception travels back, pickled, through a pipe.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import warnings
from contextlib import contextmanager
from typing import BinaryIO, Callable, Iterator, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# Windows has no fork, and on macOS forking after numpy has loaded
# Accelerate is unsafe: there every item is reduced in process
CAN_FORK = hasattr(os, "fork") and sys.platform != "darwin"
_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


@contextmanager
def forked_in_order(fn: Callable[[T], R], items: Sequence[T]) -> Iterator[Iterator[R]]:
    """A context whose value yields ``fn(item)`` for each of ``items`` in
    order, or raises what that call raised, as a loop calling ``fn`` on
    one item at a time would.

    Each item is reduced by a worker forked for it, at most (usable CPUs -
    1) at a time, one CPU being left to the caller: the first are forked on
    entry, and each result taken forks the next. An item is reduced in the
    caller's process instead, when its turn comes, where a worker cannot be
    forked: on one usable CPU, on a platform without a safe ``fork``, and
    when ``fork`` raised OSError.

    A worker whose process ends without sending a result raises
    ChildProcessError (an OSError) naming its item. On leaving the context
    by any path, each worker still running is killed, and every worker
    started is waited for. On Linux a worker is also killed when the
    caller's process dies.
    """
    cap = usable_cpus() - 1 if CAN_FORK else 0
    running: dict[int, tuple[int, BinaryIO]] = {}  # item index -> (pid, pipe read end)
    forked = 0  # items before this index have been forked, or tried to be

    def top_up() -> None:
        nonlocal forked
        while forked < len(items) and len(running) < cap:
            worker = _fork(fn, items[forked])
            if worker is not None:
                running[forked] = worker
            forked += 1

    def results() -> Iterator[R]:
        for i, item in enumerate(items):
            result = _collect(running, i, item) if i in running else fn(item)
            top_up()
            yield result

    try:
        top_up()
        yield results()
    finally:
        for pid, pipe in running.values():
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):  # reaped before it left running
                pass


def _fork(fn: Callable[[T], R], item: T) -> tuple[int, BinaryIO] | None:
    """(pid, pipe read end) of a worker that sends ``fn(item)``, or what it
    raised, pickled, then exits; None when ``fork`` raises OSError."""
    parent = os.getpid()
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on fork in a process with threads, and
            # numpy's OpenBLAS starts one; a worker calls no BLAS routine
            warnings.filterwarnings(
                "ignore", r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)",
                DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:  # the worker: nothing of the caller's stack runs past here
        code = 1  # unless the whole result was sent
        try:
            os.close(r)
            _die_with(parent)
            try:
                data = pickle.dumps((True, fn(item)), pickle.HIGHEST_PROTOCOL)
            except BaseException as exc:
                data = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
            with open(w, "wb") as fh:
                fh.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def _die_with(parent: int) -> None:
    """Have Linux kill this worker when ``parent`` dies, and exit at once
    if it already has."""
    if sys.platform.startswith("linux"):
        try:
            import ctypes
            ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        except (ImportError, OSError, AttributeError):  # a Python without ctypes
            pass
    if os.getppid() != parent:
        os._exit(1)


def _collect(running: dict, i: int, item: object) -> object:
    """The result of the worker for ``items[i]``, or its exception raised,
    once it has exited."""
    pid, pipe = running[i]
    with pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    del running[i]
    if status:  # a worker that sent its whole result exited with code 0
        raise ChildProcessError(f"{item}: its worker exited without a result "
                                f"(exit code {os.waitstatus_to_exitcode(status)})")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value
