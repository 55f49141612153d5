"""No worker of workers.train_in_order or workers.serving outlives its
caller, however the caller ends, and a serving worker's failure reaches
its caller.

Each test runs a caller in its own Python process, so it can be killed or
let SIGINT take its default action. Every process of the caller's tree
writes to the same stdout pipe, so the pipe reads to its end only once the
caller and all its workers have ended.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import fedsim
from fedsim import workers

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")

# Each unit prints "<unit> <pid>" and then sleeps far longer than a test
# waits for the pipe to close.
PRELUDE = """
import os, signal, sys, time
from fedsim import workers

def train(unit):
    os.write(1, f"{unit} {os.getpid()}\\n".encode())
    time.sleep(60)
"""


def start_caller(body):
    env = dict(os.environ, PYTHONPATH=str(Path(fedsim.__file__).parents[1]))
    return subprocess.Popen([sys.executable, "-c", PRELUDE + body], env=env,
                            stdout=subprocess.PIPE, text=True)


def finish(caller, pids):
    """The caller's whole output, read to the end of its pipe; a process
    that still holds the pipe after 20 s fails the test and is killed."""
    try:
        out, _ = caller.communicate(timeout=20)
    except subprocess.TimeoutExpired:
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        caller.kill()
        caller.communicate()
        pytest.fail("a worker outlived its caller")
    return out


@pytest.mark.parametrize("how", [signal.SIGKILL, signal.SIGTERM], ids=["SIGKILL", "SIGTERM"])
def test_workers_exit_when_their_caller_is_killed(how):
    # The caller trains unit 0 and two workers units 1 and 2; the caller
    # is killed without unwinding, so it cannot stop them itself.
    caller = start_caller("list(workers.train_in_order(train, [0, 1, 2], 3))\n")
    lines = [caller.stdout.readline().split() for _ in range(3)]
    pids = [int(pid) for _, pid in lines]
    assert sorted(unit for unit, _ in lines) == ["0", "1", "2"]
    caller.send_signal(how)
    finish(caller, pids)
    assert caller.returncode == -how


@pytest.mark.parametrize("how", [signal.SIGKILL, signal.SIGTERM], ids=["SIGKILL", "SIGTERM"])
def test_shard_workers_exit_when_their_caller_is_killed(how):
    # Two persistent workers each take a request and train it while the
    # caller waits for their answers; the caller is killed without
    # unwinding, so its serving block cannot stop them.
    caller = start_caller("""
with workers.serving([train, train]) as pool:
    for unit, worker in enumerate(pool):
        worker.ask(unit)
    for worker in pool:
        worker.answer()
""")
    lines = [caller.stdout.readline().split() for _ in range(2)]
    pids = [int(pid) for _, pid in lines]
    assert sorted(unit for unit, _ in lines) == ["0", "1"]
    caller.send_signal(how)
    finish(caller, pids)
    assert caller.returncode == -how


def fail_on(request):
    if request == "fail":
        raise ValueError("the shard stopped")
    return request, os.getpid()


def test_a_shard_workers_exception_reaches_its_caller_and_none_is_left():
    # The worker answers each request until one fails: that request's
    # exception is raised here with its type, its message and the
    # worker's traceback, and the worker is reaped when the block ends.
    with workers.serving([fail_on]) as pool:
        (worker,) = pool
        worker.ask("first")
        assert worker.answer() == ("first", worker.pid)
        worker.ask("fail")
        with pytest.raises(ValueError, match="^the shard stopped$") as raised:
            worker.answer()
        assert "in a worker process" in str(raised.value.__cause__)
        worker.ask("again")
        assert worker.answer() == ("again", worker.pid)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_default_sigint_in_the_fork_window_ends_the_caller_and_its_worker():
    # SIGINT takes its default action, and one arrives just as the caller
    # forks: it is held until the worker is known, then ends the caller
    # before it trains unit 0; the worker follows it.
    caller = start_caller("""
signal.signal(signal.SIGINT, signal.SIG_DFL)
fork = os.fork

def interrupted_fork():
    os.kill(os.getpid(), signal.SIGINT)
    return fork()

os.fork = interrupted_fork
list(workers.train_in_order(train, [0, 1], 2))
""")
    out = finish(caller, [])
    assert caller.returncode == -signal.SIGINT
    assert [line.split()[0] for line in out.splitlines()] in ([], ["1"])
