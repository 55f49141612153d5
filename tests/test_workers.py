"""No worker of workers.serving outlives its caller, however the caller
ends; the dispatch it yields hands each request to whichever of the caller
and its workers is free, yields the answers in order, and raises a
worker's failure in the caller.

A test that kills its caller, or lets SIGINT take its default action,
runs the caller in its own Python process. Every process of the caller's
tree writes to the same stdout pipe, so the pipe reads to its end only
once the caller and all its workers have ended.
"""

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fedsim
from fedsim import workers
from helpers import assert_no_child_process, count_forks, deadline  # noqa: F401 (a fixture)

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
    caller = start_caller("""
with workers.serving(train, 2) as dispatch:
    list(dispatch([0, 1, 2]))
""")
    lines = [caller.stdout.readline().split() for _ in range(3)]
    pids = [int(pid) for _, pid in lines]
    assert sorted(unit for unit, _ in lines) == ["0", "1", "2"]
    caller.send_signal(how)
    finish(caller, pids)
    assert caller.returncode == -how


@pytest.mark.parametrize("how", [signal.SIGKILL, signal.SIGTERM], ids=["SIGKILL", "SIGTERM"])
def test_shard_workers_exit_when_their_caller_is_killed(how):
    # Two persistent workers answer a first round of requests at once, then
    # train the second round's while the caller trains its own; the caller
    # is killed without unwinding, so its serving block cannot stop them.
    caller = start_caller("""
def train_round(unit):
    return unit if unit < 3 else train(unit)

with workers.serving(train_round, 2) as dispatch:
    assert list(dispatch([0, 1, 2])) == [0, 1, 2]
    list(dispatch([3, 4, 5]))
""")
    lines = [caller.stdout.readline().split() for _ in range(3)]
    pids = [int(pid) for _, pid in lines]
    assert sorted(unit for unit, _ in lines) == ["3", "4", "5"]
    caller.send_signal(how)
    finish(caller, pids)
    assert caller.returncode == -how


def fail_on(request):
    if request == "fail":
        raise ValueError("the shard stopped")
    return request, os.getpid()


def test_a_shard_workers_exception_reaches_its_caller_and_none_is_left(deadline):
    # The caller takes the first request of each call and the one worker
    # the second. The worker's failure is raised here with its type, its
    # message and the worker's traceback once the answer before it is
    # yielded; the same worker answers the next call, and is reaped when
    # the block ends.
    with workers.serving(fail_on, 1) as dispatch:
        (_, mine), (_, worker) = dispatch(["mine", "theirs"])
        assert mine == os.getpid() != worker
        answers = dispatch(["first", "fail"])
        assert next(answers) == ("first", os.getpid())
        with pytest.raises(ValueError, match="^the shard stopped$") as raised:
            next(answers)
        assert "in a worker process" in str(raised.value.__cause__)
        assert list(dispatch(["mine", "again"])) == [("mine", os.getpid()), ("again", worker)]
    assert_no_child_process()


def test_no_workers_fork_nothing_and_answer_here_in_order(tmp_path, monkeypatch):
    # With a count of 0 every request is handled in this process, one after
    # another; a failing one raises its exception at its turn, after the
    # answers before it and before any request after it is handled.
    log = count_forks(tmp_path, monkeypatch)
    # With no worker there is no pipe to wait on (and Windows, which has no
    # os.fork, refuses a select on none).
    monkeypatch.setattr(select, "select", None)
    handled = []

    def handle(request):
        handled.append(request)
        return fail_on(request)

    with workers.serving(handle, 0) as dispatch:
        assert list(dispatch(["a", "b", "c"])) == [(r, os.getpid()) for r in "abc"]
        answers = dispatch(["first", "fail", "never"])
        assert next(answers) == ("first", os.getpid())
        with pytest.raises(ValueError, match="^the shard stopped$") as raised:
            next(answers)
        assert raised.value.__cause__ is None
    assert handled == ["a", "b", "c", "first", "fail"]
    assert log.read_text() == ""
    assert_no_child_process()


def test_units_train_on_workers_forked_once(tmp_path, deadline, monkeypatch):
    # Six units on two jobs, the first slow in this process: the one worker
    # forked at the start trains every unit that this process does not.
    log = count_forks(tmp_path, monkeypatch)

    def train(unit):
        if unit == 0:
            time.sleep(0.5)
        return unit, os.getpid()

    with workers.serving(train, 1) as dispatch:
        trained = list(dispatch(list(range(6))))
    assert [unit for unit, _ in trained] == list(range(6))
    assert trained[0][1] == os.getpid()
    assert log.read_text().split() == [str(os.getpid())]
    assert_no_child_process()


def test_a_free_caller_takes_the_next_unit_while_a_worker_is_busy(tmp_path, deadline):
    # The worker's unit 1 waits for the file that unit 3 writes. The
    # caller, free after unit 0, takes units 2 and 3 while the worker waits;
    # a fixed split that gave unit 3 to the worker would never end.
    written = tmp_path / "unit-3"

    def train(unit):
        while unit == 1 and not written.exists():
            time.sleep(0.01)
        if unit == 3:
            written.touch()
        return os.getpid()

    with workers.serving(train, 1) as dispatch:
        pids = list(dispatch(list(range(4))))
    assert pids[0] == pids[2] == pids[3] == os.getpid() != pids[1]
    assert_no_child_process()


def test_messages_larger_than_a_pipe_buffer_arrive_in_order(deadline):
    # 1 MiB requests and 2 MiB replies, far above a pipe's 64 KiB buffer,
    # on three jobs.
    requests = [bytes([unit]) * (1 << 20) for unit in range(6)]
    with workers.serving(lambda request: request * 2, 2) as dispatch:
        replies = list(dispatch(requests))
    assert replies == [request * 2 for request in requests]
    assert_no_child_process()


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
with workers.serving(train, 1) as dispatch:
    list(dispatch([0, 1]))
""")
    out = finish(caller, [])
    assert caller.returncode == -signal.SIGINT
    assert [line.split()[0] for line in out.splitlines()] in ([], ["1"])
