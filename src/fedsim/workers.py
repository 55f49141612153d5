"""Train work in worker processes forked from the caller, and hand the
results back.

Two kinds of worker share one fork primitive (_fork). harness.cmd_run
trains a sweep's trials at once with train_in_order, whose workers each
train one unit and exit. engine.run_group shards each round's cohorts
over persistent workers (serving), each answering one request per round
until the caller stops it. A worker is forked, so it shares the caller's
memory (the datasets above all) copy-on-write. Requests and replies are
pickled, one length-prefixed message each, through a pair of pipes; a
request that fails sends its exception instead, which the caller raises.
No worker outlives its caller: however train_in_order or a serving block
ends, it first kills and reaps every worker it started, and a worker whose
caller ended without unwinding (killed by SIGKILL or SIGTERM, say) exits
as soon as the caller is gone. Fork needs os.fork, and a Ctrl-C stops the
workers only when the caller runs on the main thread, where Python raises
it.
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

    def ask(self, request) -> None:
        """Send the worker a request; answer reads the reply."""
        _write_message(self.requests, pickle.dumps(request))

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

    def answer(self):
        """The reply to the last request; raises what the request raised."""
        ok, value = self.receive()
        if not ok:
            raise value
        return value

    def stop(self, kill: bool = True) -> None:
        """Close the pipes and reap the worker, killed first unless kill is
        False (a worker that has sent its one reply and is exiting)."""
        for fd in (self.requests, self.replies):
            with contextlib.suppress(OSError):
                os.close(fd)
        if self.reaped:
            return
        if kill:
            with contextlib.suppress(OSError):
                os.kill(self.pid, signal.SIGKILL)
        with contextlib.suppress(OSError):
            os.waitpid(self.pid, 0)
        self.reaped = True


def _fork(serve, lifeline: int, adopt) -> None:
    """Fork a worker that runs serve(requests, replies) on the read end of
    its request pipe and the write end of its reply pipe, then exits;
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
    process has ended, however it ended. Call it from the main thread."""
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
                serve(request_read, reply_write)
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


def _stop_all(workers) -> None:
    # An interrupt may have come part way through a reply.
    for worker in workers:
        worker.stop()


def train_in_order(train_unit, units: list, jobs: int):
    """Yield train_unit(unit) for each unit, in order, with up to jobs
    units training at once: this process trains one and forked workers
    (_fork) the others, each one unit. With jobs=1 nothing forks: every
    unit trains here, one after another. A unit that finishes early waits
    for the units before it, and an exception a unit raised, in a worker
    too, is raised when its turn comes, so every unit before it has been
    yielded. However this generator stops, it first kills and reaps every
    worker still running."""
    # workers: unit index -> Worker; done: unit index -> (ok, value).
    workers, done, assigned = {}, {}, 0

    def reap(index):
        worker = workers.pop(index)
        done[index] = worker.receive()
        worker.stop(kill=False)

    with _lifeline() if jobs > 1 else contextlib.nullcontext() as lifeline:
        try:
            for index in range(len(units)):
                while index not in done:
                    # A worker replies only once its unit has trained, so a
                    # readable pipe's reply is read in full at once.
                    ready, _, _ = select.select(
                        [worker.replies for worker in workers.values()], [], [], 0)
                    for finished in [i for i, w in workers.items() if w.replies in ready]:
                        reap(finished)
                    if index in done:
                        break
                    if assigned == len(units):
                        reap(index)
                        break
                    mine, assigned = assigned, assigned + 1
                    while len(workers) < jobs - 1 and assigned < len(units):
                        _fork(functools.partial(_serve_once, train_unit, units[assigned]),
                              lifeline, functools.partial(workers.__setitem__, assigned))
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
            _stop_all(workers.values())


def _serve_once(handle, request, requests: int, replies: int) -> None:
    """Answer the one request given at the fork with handle's _outcome."""
    _write_message(replies, _outcome(handle, request))


def _serve_requests(handle, requests: int, replies: int) -> None:
    """Answer each request with handle's _outcome until the request pipe
    closes."""
    while (payload := _read_message(requests)) is not None:
        _write_message(replies, _outcome(handle, pickle.loads(payload)))


@contextlib.contextmanager
def serving(handlers):
    """Fork one persistent worker per handler, each answering every request
    (Worker.ask, Worker.answer) with handler(request); yields the Workers
    in handler order. A handler's exception, KeyboardInterrupt included,
    is raised by answer with its type and message. However the block ends,
    every worker is killed and reaped first. Call it from the main thread,
    where os.fork exists."""
    pool = []
    with _lifeline() as lifeline:
        try:
            for handle in handlers:
                _fork(functools.partial(_serve_requests, handle), lifeline, pool.append)
            yield pool
        finally:
            _stop_all(pool)
