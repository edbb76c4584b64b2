"""Forked worker processes for the lockstep batches of one diamond-norm call.

``sdp.solve_diamond`` loads this module only for a call with more than one
batch.  Kept off the import path of every entry point: the same code inside
``sdp.py`` raised the peak RSS of CLI runs that never fork by 0.1-0.2 MB (the
allocation pattern of a larger module under glibc's dynamic mmap threshold).
"""

from __future__ import annotations

import os
import pickle
import threading

__all__ = ["solve_shared"]


def _worker_count(batches: int) -> int:
    """Processes to solve ``batches`` lockstep batches in: one per CPU this
    process may use, at most one per batch, and only this one where it cannot
    fork or where other threads run (a forked child would hold copies of
    their locks)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, batches)


def _forked(solve, shares: list) -> list:
    """solve(lo, hi) of every (lo, hi) in ``shares``, concatenated in order.

    This process solves the first share and a forked child each other one.
    A child pickles its results, or the exception it raised, into a pipe and
    leaves by ``os._exit``, which runs no exit handler and flushes no stdio
    buffer it inherited.  Every pipe is read before any child is reaped, and
    every child is reaped (killed first if this process is unwinding), so no
    child outlives the call.  A share whose child exits without a result, or
    could not be forked, is solved here; an exception a child raised is
    raised here.
    """
    def fork(lo, hi):
        rfd, wfd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(rfd)
            os.close(wfd)
            raise
        if pid == 0:
            code = 1
            try:
                try:
                    out = solve(lo, hi)
                except Exception as exc:
                    out = exc
                with os.fdopen(wfd, "wb") as pipe:
                    pipe.write(pickle.dumps(out))
                code = 0
            finally:
                os._exit(code)
        os.close(wfd)
        return pid, os.fdopen(rfd, "rb")

    children, statuses, blobs = [], [], None
    try:
        for share in shares[1:]:
            try:
                children.append(fork(*share))
            except OSError:  # no process or pipe to spare: the shares left are solved here
                break
        results = solve(*shares[0])
        blobs = [pipe.read() for _, pipe in children]
    finally:
        for pid, pipe in children:
            pipe.close()
            if blobs is None:
                # imported on this path alone: imported on every call, its enums
                # moved the heap's layout and a d = 3 sweep's peak RSS rose 0.45 MB
                import signal
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    for k, share in enumerate(shares[1:]):
        part = pickle.loads(blobs[k]) if k < len(children) and statuses[k] == 0 else solve(*share)
        if isinstance(part, Exception):
            raise part
        results += part
    return results


def solve_shared(solve, count: int, size: int) -> list:
    """solve(lo, hi) over problems [0, count) in batches of ``size``: split
    into contiguous shares, one per worker (``_worker_count``), whose sizes
    and batch counts differ by at most one, and solved by ``_forked``.  With
    one worker it is solve(0, count)."""
    workers = _worker_count(-(-count // size))
    if workers == 1:
        return solve(0, count)
    bounds = [count * k // workers for k in range(workers + 1)]
    return _forked(solve, list(zip(bounds, bounds[1:])))
