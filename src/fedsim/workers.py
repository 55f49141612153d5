"""Train work in persistent worker processes forked from the caller, and
hand the results back.

One kind of worker serves both of fedsim's parallel layers. serving(handle,
count) forks count workers that answer every request with handle, and
yields dispatch(requests): it hands the requests out to the caller and the
workers, whichever is free, and yields handle's answers in order.
harness.cmd_run dispatches a sweep's trials, and engine.run_group each
round's cohort runs on shard workers it forks once per run. A worker is
forked, so it shares the caller's memory (the datasets above all)
copy-on-write. Requests and replies are pickled, one length-prefixed
message each, through a pair of pipes; a request that fails sends its
exception instead, which the caller raises. No worker outlives its caller:
however a serving block ends, it first kills and reaps every worker it
started, and a worker whose caller ended without unwinding (killed by
SIGKILL or SIGTERM, say) exits as soon as the caller is gone. Workers are
forked only where can_fork holds.
"""

from __future__ import annotations

import contextlib
import functools
import os
import pickle
import select
import signal
import threading

# The write ends of the lifeline pipes this process holds (_lifeline); a
# forked worker closes its copies, so that only their maker holds them.
# It is the process's own: a worker forked by a worker closes the ones
# its parent made too.
_held_lifelines: set[int] = set()

# A message is its payload's length in this many bytes, then the payload.
_LENGTH_BYTES = 8


def can_fork() -> bool:
    """Whether this process may fork workers: os.fork exists and this is
    the main thread, the one where Python raises the KeyboardInterrupt
    that stops them."""
    return hasattr(os, "fork") and threading.current_thread() is threading.main_thread()


def _write_message(fd: int, payload: bytes) -> None:
    for view in map(memoryview, (len(payload).to_bytes(_LENGTH_BYTES, "little"), payload)):
        while view:
            view = view[os.write(fd, view):]


def _read_exactly(fd: int, size: int) -> bytes | None:
    """size bytes from fd, or None if the pipe closes first."""
    chunks = []
    while size:
        chunk = os.read(fd, min(size, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _read_message(fd: int) -> bytes | None:
    """The next message on fd, or None if the pipe closes before one."""
    header = _read_exactly(fd, _LENGTH_BYTES)
    return None if header is None else _read_exactly(fd, int.from_bytes(header, "little"))


def _outcome(handle, request) -> bytes:
    """The pickled (True, handle(request), None), or (False, the exception
    it raised, its traceback text). An exception that cannot be pickled
    escapes, and the worker ends without a reply."""
    try:
        return pickle.dumps((True, handle(request), None))
    except BaseException as exc:
        # Imported here: only a failing request needs it.
        import traceback

        return pickle.dumps((False, exc, "".join(traceback.format_exception(exc))))


def _exit_when_closed(fd: int) -> None:
    """End this worker once no process holds the write end of fd's pipe.
    Nothing writes to it, so the read returns only then."""
    os.read(fd, 1)
    os._exit(1)


@contextlib.contextmanager
def _lifeline():
    """A pipe whose write end this process alone holds while the block
    runs; a worker forked in it exits once the pipe reads as closed (see
    _fork)."""
    read_end, write_end = os.pipe()
    _held_lifelines.add(write_end)
    try:
        yield read_end
    finally:
        _held_lifelines.discard(write_end)
        os.close(write_end)
        os.close(read_end)


class Worker:
    """A forked worker: its pid, the write end of the pipe that carries its
    requests and the read end of the pipe that carries its replies."""

    def __init__(self, pid: int, requests: int, replies: int):
        self.pid, self.requests, self.replies = pid, requests, replies
        self.reaped = False

    def receive(self) -> tuple[bool, object]:
        """(True, the next reply) or (False, the exception its request
        raised, with the worker's traceback as its cause). A worker that
        ends without a reply is reaped, and its exit code reported as a
        RuntimeError."""
        payload = _read_message(self.replies)
        if payload is None:
            _, status = os.waitpid(self.pid, 0)
            self.reaped = True
            code = os.waitstatus_to_exitcode(status)
            return False, RuntimeError(f"a worker process ended without a result (exit code {code})")
        ok, value, trace = pickle.loads(payload)
        if trace is not None:
            value.__cause__ = RuntimeError(f"in a worker process:\n{trace}")
        return ok, value

    def stop(self) -> None:
        """Close the pipes, then kill and reap the worker."""
        for fd in (self.requests, self.replies):
            with contextlib.suppress(OSError):
                os.close(fd)
        if self.reaped:
            return
        with contextlib.suppress(OSError):
            os.kill(self.pid, signal.SIGKILL)
        with contextlib.suppress(OSError):
            os.waitpid(self.pid, 0)
        self.reaped = True


def _fork(handle, lifeline: int, adopt) -> None:
    """Fork a worker that answers each request on its request pipe with
    handle's _outcome on its reply pipe until that pipe closes, then exits;
    adopt(its Worker) runs here before any signal can stop this process.

    The worker shares this process's memory copy-on-write: it is forked,
    not spawned, because a spawned one would have to import fedsim and
    receive or rebuild the datasets. It ends with os._exit, so it flushes
    none of the stdio buffers it inherits and runs none of the caller's
    cleanup. It ignores SIGINT, so a Ctrl-C reaches only this process.
    SIGINT is blocked here from before the fork until adopt has run, so
    one that comes in between reaches whatever handler is in place,
    SIG_DFL too, only once the caller knows the worker to stop. The
    worker closes its copies of every lifeline write end this process
    holds, and exits when lifeline's pipe reads as closed: once this
    process has ended, however it ended. Call it where can_fork holds."""
    request_read, request_write = os.pipe()
    reply_read, reply_write = os.pipe()
    try:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
                for fd in _held_lifelines:
                    os.close(fd)
                _held_lifelines.clear()
                os.close(request_write)
                os.close(reply_read)
                watch = threading.Thread(target=_exit_when_closed, args=(lifeline,))
                watch.daemon = True
                watch.start()
                while (payload := _read_message(request_read)) is not None:
                    _write_message(reply_write, _outcome(handle, pickle.loads(payload)))
                status = 0
            finally:
                os._exit(status)
        adopt(Worker(pid, request_write, reply_read))
    except BaseException:
        os.close(request_write)
        os.close(reply_read)
        raise
    finally:
        os.close(request_read)
        os.close(reply_write)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})


@contextlib.contextmanager
def serving(handle, count: int):
    """Fork count persistent workers (_fork), each answering every request
    it is asked with handle(request), and yield dispatch(requests), which
    yields handle(request) for each of the requests, a list, in order
    (_in_order). With count 0 nothing forks, and dispatch handles every
    request here. However the block ends, every worker is killed and
    reaped first. Fork workers only where can_fork holds."""
    pool = []
    with _lifeline() as lifeline:
        try:
            for _ in range(count):
                _fork(handle, lifeline, pool.append)
            yield functools.partial(_in_order, pool, handle)
        finally:
            # An interrupt may have come part way through a reply.
            for worker in pool:
                worker.stop()


def _in_order(pool, handle, requests):
    """Yield handle(request) for each of the requests, a list, in order:
    whenever this process is free it takes the next request not yet
    handed out and handles it itself, after handing each idle worker of
    pool (serving's, whose handler is handle) the one after. So a worker
    holds one request at a time, and with an empty pool every request is
    handled here, one after another. A request that finishes early waits
    for the ones before it. An exception a request raised, in a worker too
    (where KeyboardInterrupt is caught as well), is raised with its type
    and message when its turn comes, so every answer before it has been
    yielded. A worker may still hold a request when this generator stops
    early; the serving block that made it stops it."""
    # busy: request index -> the Worker answering it; done: index -> (ok, value).
    idle, busy, done, sent = list(pool), {}, {}, 0

    def collect(index):
        worker = busy.pop(index)
        done[index] = worker.receive()
        if not worker.reaped:
            idle.append(worker)

    for index in range(len(requests)):
        while index not in done:
            # A worker replies only once its request is answered, so a
            # readable pipe's reply is read in full at once. select is not
            # called on no pipes, which Windows refuses.
            if busy:
                ready, _, _ = select.select([w.replies for w in busy.values()], [], [], 0)
                for finished in [i for i, worker in busy.items() if worker.replies in ready]:
                    collect(finished)
            if index in done:
                break
            if sent == len(requests):
                collect(index)
                break
            mine, sent = sent, sent + 1
            while idle and sent < len(requests):
                busy[sent] = idle.pop()
                _write_message(busy[sent].requests, pickle.dumps(requests[sent]))
                sent += 1
            try:
                done[mine] = (True, handle(requests[mine]))
            except Exception as exc:
                done[mine] = (False, exc)
        ok, value = done.pop(index)
        if not ok:
            raise value
        yield value
