"""Train independent units of work in worker processes forked from the
caller, and hand their results back in order.

harness.cmd_run trains a sweep's trials at once with train_in_order. A
worker is forked, so it shares the caller's memory (the datasets above
all) copy-on-write, and it sends back only its pickled result. A worker
that fails sends its exception instead, which the caller raises in its
unit's turn. No worker outlives its caller: however train_in_order stops,
it first kills and reaps every worker, and a worker whose caller ended
without unwinding (killed by SIGKILL or SIGTERM, say) exits as soon as
the caller is gone. Fork needs os.fork, and a Ctrl-C stops the workers
only when train_in_order runs on the main thread, where Python raises it.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import select
import signal
import threading


def _outcome(train_unit, unit) -> bytes:
    """A worker's pickled (True, train_unit(unit), None), or (False, the
    exception it raised, its traceback text). An exception that cannot be
    pickled escapes, and the worker ends without a result."""
    try:
        return pickle.dumps((True, train_unit(unit), None))
    except BaseException as exc:
        # Imported here: only a failing worker needs it.
        import traceback

        return pickle.dumps((False, exc, "".join(traceback.format_exception(exc))))


def _exit_when_closed(fd: int) -> None:
    """End this worker once no process holds the write end of fd's pipe.
    Nothing writes to it, so the read returns only then."""
    os.read(fd, 1)
    os._exit(1)


def _start(workers: dict, index: int, train_unit, unit, lifeline: tuple[int, int]) -> None:
    """Fork a worker that trains unit and writes its _outcome to a pipe;
    workers[index] becomes (pid, the pipe's read end).

    The worker shares this process's memory copy-on-write: it is forked,
    not spawned, because a spawned one would have to import fedsim and
    receive or rebuild the datasets. It ends with os._exit, so it flushes
    none of the stdio buffers it inherits and runs none of the caller's
    cleanup. It ignores SIGINT, so a Ctrl-C reaches only this process.
    SIGINT is blocked here from before the fork until the worker is in
    workers, so one that comes in between reaches whatever handler is in
    place, SIG_DFL too, only once the caller knows the worker to stop.
    The worker closes its copy of the lifeline pipe's write end, which
    only this process then holds, and exits when the pipe reads as
    closed: once this process has ended, however it ended. Call it from
    the main thread."""
    read_end, write_end = os.pipe()
    try:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
                os.close(lifeline[1])
                watch = threading.Thread(target=_exit_when_closed, args=(lifeline[0],))
                watch.daemon = True
                watch.start()
                with os.fdopen(write_end, "wb") as fh:
                    fh.write(_outcome(train_unit, unit))
                status = 0
            finally:
                os._exit(status)
        workers[index] = (pid, read_end)
    except BaseException:
        os.close(read_end)
        raise
    finally:
        os.close(write_end)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})


def _reap(pid: int, read_end: int) -> tuple[bool, object]:
    """Read a worker's outcome to the end of its pipe, then reap it."""
    chunks = []
    while chunk := os.read(read_end, 1 << 16):
        chunks.append(chunk)
    os.close(read_end)
    _, status = os.waitpid(pid, 0)
    if not chunks:
        code = os.waitstatus_to_exitcode(status)
        return False, RuntimeError(f"a worker process ended without a result (exit code {code})")
    ok, value, trace = pickle.loads(b"".join(chunks))
    if trace is not None:
        value.__cause__ = RuntimeError(f"in a worker process:\n{trace}")
    return ok, value


def train_in_order(train_unit, units: list, jobs: int):
    """Yield train_unit(unit) for each unit, in order, with up to jobs
    units training at once: this process trains one and forked workers
    (_start) the others. With jobs=1 nothing forks: every unit trains
    here, one after another. A unit that finishes early waits for the
    units before it, and an exception a unit raised, in a worker too, is
    raised when its turn comes, so every unit before it has been yielded.
    However this generator stops, it first kills and reaps every worker
    still running."""
    # workers: unit index -> (pid, read end); done: unit index -> (ok, value).
    workers, done, assigned = {}, {}, 0
    # Its write end stays open in this process alone, for as long as
    # workers may run (_start).
    lifeline = os.pipe() if jobs > 1 else ()
    try:
        for index in range(len(units)):
            while index not in done:
                # A worker writes only once its unit has trained, so a
                # readable pipe is read to its end at once.
                ready, _, _ = select.select([fd for _, fd in workers.values()], [], [], 0)
                for finished in [i for i, (_, fd) in workers.items() if fd in ready]:
                    done[finished] = _reap(*workers[finished])
                    del workers[finished]
                if index in done:
                    break
                if assigned == len(units):
                    done[index] = _reap(*workers[index])
                    del workers[index]
                    break
                mine, assigned = assigned, assigned + 1
                while len(workers) < jobs - 1 and assigned < len(units):
                    _start(workers, assigned, train_unit, units[assigned], lifeline)
                    assigned += 1
                try:
                    done[mine] = (True, train_unit(units[mine]))
                except Exception as exc:
                    done[mine] = (False, exc)
            ok, value = done.pop(index)
            if not ok:
                raise value
            yield value
    finally:
        # An interrupt may have come part way through a _reap.
        for pid, read_end in workers.values():
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(OSError):
                os.close(read_end)
            with contextlib.suppress(OSError):
                os.waitpid(pid, 0)
        for fd in lifeline:
            os.close(fd)
