"""The one execution stack: properties a refactor of it could silently lose.

Local workers are child processes serving a ``WorkerSession`` over a
socketpair, remote workers are ``repro worker`` hosts, and both sit behind
the same ``Channel`` + ``WorkStealingScheduler``. Trajectory identity is
pinned elsewhere (``test_parallel.py``, ``test_backends.py``); this file
pins what identity tests cannot see: a spent event budget is the same
``timeout`` verdict in-process, on a child and on a server thread,
children are reaped (or killed, when hung) and never orphaned,
workers that cannot start stop the batch before any scenario runs, a
long-lived worker does not leak threads, a
bounded one (``--max-sessions``) finishes the sessions it admitted, and the
wire speaks one dialect (a stale peer is refused at the hello, a reply
other than ``result`` is a lost worker).
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import pickle
import resource
import signal
import socket
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.core import ScenarioExecutor, ScenarioFailure
from repro.core.backends import Channel, ChannelError
from repro.core.failures import TIMEOUT
from repro.core.parallel import ParallelScenarioExecutor, WorkerStartError
from repro.core.worker import (
    PROTOCOL_VERSION,
    WorkerServer,
    recv_frame,
    send_frame,
    serve_socket,
)
from tests.core.fake_target import HillTarget, LoadPlugin, MaskPlugin, make_hill_target
from tests.core.test_failures import (
    RUNAWAY_ERROR,
    HangingTarget,
    RunawayTarget,
    scenario_for_mask,
)
from tests.core.test_parallel import make_batch


class BusyTarget(HillTarget):
    """Burns a little CPU per scenario, so worker CPU time is measurable."""

    def execute(self, params, seed):
        total = 0
        for value in range(200_000):
            total += value & 7
        return super().execute(params, seed)


def wait_until(condition, seconds=10.0):
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(0.02)
    return condition()


def process_gone(pid):
    """True once ``pid`` has exited (a not-yet-reaped zombie counts)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


# ---------------------------------------------------------------------------
# deadlines, reaping, hung and orphaned children
# ---------------------------------------------------------------------------
def verdicts(results):
    return [(r.kind, r.error, r.attempts, r.test_index, r.key) for r in results]


def test_budget_overrun_is_one_timeout_wherever_it_runs():
    # The deadline is the simulation's event budget, so where a scenario
    # runs (main thread, child process, connection thread) cannot change it.
    target = RunawayTarget([MaskPlugin()])
    scenarios = [scenario_for_mask(target, mask) for mask in (1, 2, 3)]
    local = ScenarioExecutor(target, campaign_seed=4)
    in_process = [local.execute_isolated(s, index) for index, s in enumerate(scenarios)]
    with ParallelScenarioExecutor(target, campaign_seed=4, workers=2) as pool:
        on_children = pool.execute_batch_isolated(scenarios, start_index=0)
        assert pool.pool_rebuilds == 0
    server = WorkerServer().serve_in_thread()
    try:
        with ParallelScenarioExecutor(
            target, campaign_seed=4, hosts=(server.endpoint,)
        ) as pool:
            on_thread = pool.execute_batch_isolated(scenarios, start_index=0)
            assert pool.pool_rebuilds == 0
    finally:
        server.shutdown()
    expected = [(TIMEOUT, RUNAWAY_ERROR, 1, i, s.key) for i, s in enumerate(scenarios)]
    assert verdicts(in_process) == expected
    assert verdicts(on_children) == expected
    assert verdicts(on_thread) == expected
    assert all(isinstance(r, ScenarioFailure) for r in in_process + on_children + on_thread)


def test_close_reaps_local_workers_into_rusage_children():
    target = BusyTarget([MaskPlugin()])
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    pool = ParallelScenarioExecutor(target, campaign_seed=2, workers=2)
    pool.execute_batch_isolated(make_batch(target, 8), start_index=0)
    children = [channel.process for channel in pool._channels]
    assert len(children) == 2 and all(child.is_alive() for child in children)
    pool.close()
    assert multiprocessing.active_children() == []
    assert [child.exitcode for child in children] == [0, 0]  # said bye, not killed
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert after.ru_utime + after.ru_stime > before.ru_utime + before.ru_stime
    pool.close()  # idempotent


def test_hung_worker_is_killed_by_the_reset_not_joined():
    # A sleep spends no events, so only the parent's wall-clock backstop can
    # end the 30 s hang; a short one stands in for a realistic setting.
    target = HangingTarget([MaskPlugin()], poison=(3,))
    scenarios = [scenario_for_mask(target, mask) for mask in (1, 3, 5, 7)]
    pool = ParallelScenarioExecutor(
        target, campaign_seed=3, workers=2, timeout=0.3, max_attempts=1
    )
    started = time.monotonic()
    results = pool.execute_batch_isolated(scenarios, start_index=0)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0  # nowhere near the 30 s a join would have waited
    assert pool.pool_rebuilds >= 1
    assert multiprocessing.active_children() == []  # killed and reaped already
    assert [r.failed for r in results] == [False, True, False, False]
    assert results[1].kind == TIMEOUT and "backstop" in results[1].error
    pool.close()


def test_killing_the_controller_leaves_no_worker_children(tmp_path):
    script = tmp_path / "controller.py"
    script.write_text(
        textwrap.dedent(
            """
            import sys, time
            from repro.core.parallel import ParallelScenarioExecutor
            from tests.core.fake_target import make_hill_target
            from tests.core.test_parallel import make_batch

            target, _ = make_hill_target()
            pool = ParallelScenarioExecutor(target, workers=3)
            pool.execute_batch_isolated(make_batch(target, 6), start_index=0)
            print(" ".join(str(c.process.pid) for c in pool._channels), flush=True)
            time.sleep(60)
            """
        )
    )
    repo = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(repo, "src"), repo]))
    controller = subprocess.Popen(
        [sys.executable, str(script)], stdout=subprocess.PIPE, env=env, text=True
    )
    try:
        pids = [int(text) for text in controller.stdout.readline().split()]
        assert len(pids) == 3 and not any(process_gone(pid) for pid in pids)
        controller.send_signal(signal.SIGKILL)  # no atexit, no finally, no bye
        controller.wait(timeout=10)
        assert wait_until(lambda: all(process_gone(pid) for pid in pids))
    finally:
        controller.kill()
        controller.wait(timeout=10)
        controller.stdout.close()


# ---------------------------------------------------------------------------
# workers that cannot start stop the batch before any scenario runs
# ---------------------------------------------------------------------------
def parallel_warnings(caplog):
    return [
        record
        for record in caplog.records
        if record.name == "repro.core.parallel" and record.levelno == logging.WARNING
    ]


def test_unreachable_hosts_raise_before_any_scenario_runs():
    target, _ = make_hill_target((LoadPlugin(),))
    with ParallelScenarioExecutor(target, campaign_seed=4, hosts=("127.0.0.1:9",)) as pool:
        with pytest.raises(WorkerStartError, match="no worker answered: 127.0.0.1:9"):
            pool.execute_batch_isolated(make_batch(target, 3), start_index=0)
        assert pool.executed == 0
    assert target.executions == 0


def test_non_picklable_target_raises_before_any_scenario_runs():
    target, _ = make_hill_target((LoadPlugin(),))
    target.unpicklable = lambda: None
    with ParallelScenarioExecutor(target, campaign_seed=5, workers=3) as pool:
        with pytest.raises(WorkerStartError, match="target does not pickle"):
            pool.execute_batch_isolated(make_batch(target, 3), start_index=0)
        assert pool.executed == 0 and pool._channels == []
    assert target.executions == 0


def test_a_failed_reopen_after_a_reset_raises():
    target, _ = make_hill_target((LoadPlugin(),))
    server = WorkerServer().serve_in_thread()
    with ParallelScenarioExecutor(target, campaign_seed=6, hosts=(server.endpoint,)) as pool:
        pool.execute_batch_isolated(make_batch(target, 4), start_index=0)
        server.shutdown()
        pool._reset_channels()  # as after a lost worker
        with pytest.raises(WorkerStartError, match=server.endpoint):
            pool.execute_batch_isolated(make_batch(target, 4, seed=4), start_index=4)
        assert pool.executed == 4
    assert target.executions == 0  # both batches were for the host alone


def test_healthy_workers_log_nothing(caplog):
    target, _ = make_hill_target((LoadPlugin(),))
    with caplog.at_level(logging.WARNING, logger="repro.core.parallel"):
        with ParallelScenarioExecutor(target, workers=2) as pool:
            pool.execute_batch_isolated(make_batch(target, 4), start_index=0)
    assert parallel_warnings(caplog) == []


# ---------------------------------------------------------------------------
# one wire dialect
# ---------------------------------------------------------------------------
def session_hello(target):
    return {
        "target_blob": pickle.dumps(target),
        "campaign_seed": 0,
        "coverage_capture": False,
    }


def scripted_worker(*replies):
    """A peer that answers each frame it receives with the next scripted
    reply; returns the client end of its socketpair."""
    ours, theirs = socket.socketpair()

    def serve():
        with theirs:
            for reply in replies:
                recv_frame(theirs)
                send_frame(theirs, *reply)

    threading.Thread(target=serve, daemon=True).start()
    return ours


def test_a_reply_other_than_result_is_a_lost_worker():
    # A worker answers exec with a result or it is gone: the controller
    # must never raise an object that a worker chose to pickle.
    target, _ = make_hill_target()
    sock = scripted_worker(
        ("ready", {"protocol": PROTOCOL_VERSION}), ("raise", RuntimeError("from the wire"))
    )
    channel = Channel("scripted worker", sock)._handshake(session_hello(target))
    with pytest.raises(ChannelError, match="unexpected 'raise'"):
        channel.call(make_batch(target, 1)[0], 0, 5.0)
    assert not channel.alive


def test_a_stale_peer_is_refused_at_the_hello_naming_both_versions(caplog):
    target, _ = make_hill_target()
    stale = PROTOCOL_VERSION - 1
    expected = f"worker speaks {PROTOCOL_VERSION}, client sent {stale}"
    # This worker, a client of the previous dialect:
    ours, theirs = socket.socketpair()
    session = threading.Thread(target=serve_socket, args=(theirs,), daemon=True)
    session.start()
    with caplog.at_level(logging.WARNING, logger="repro.core.worker"), ours:
        send_frame(ours, "hello", {"protocol": stale, **session_hello(target)})
        assert recv_frame(ours) == ("error", f"protocol mismatch: {expected}")
        session.join(timeout=10)
    assert not session.is_alive()  # refused and gone, no exec loop entered
    # The worker's operator sees the same reason, once.
    assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
        (logging.WARNING, f"refused a session: protocol mismatch: {expected}")
    ]
    # This client, a worker of the previous dialect: the refusal it sends
    # back reaches the caller as the reason no session opened.
    refusal = f"protocol mismatch: worker speaks {stale}, client sent {PROTOCOL_VERSION}"
    with pytest.raises(ChannelError, match=refusal):
        Channel("old worker", scripted_worker(("error", refusal)))._handshake(
            session_hello(target)
        )


# ---------------------------------------------------------------------------
# a long-lived worker does not collect finished session threads
# ---------------------------------------------------------------------------
def test_worker_server_drops_finished_session_threads():
    target, _ = make_hill_target()
    hello = session_hello(target)
    server = WorkerServer().serve_in_thread()
    try:
        for _ in range(8):
            Channel.dial(server.endpoint, hello).goodbye()
            assert wait_until(lambda: not any(t.is_alive() for t in server._threads))
            assert len(server._threads) <= 1
        assert server.sessions_served == 8
    finally:
        server.shutdown()


def test_bounded_worker_finishes_the_sessions_it_admitted():
    # `repro worker --max-sessions 1` used to return (and the process exit)
    # right after the accept, tearing the session down under the campaign.
    target, _ = make_hill_target()
    server = WorkerServer()
    serving = threading.Thread(target=server.serve_forever, args=(1,), daemon=True)
    serving.start()
    with ParallelScenarioExecutor(
        target, campaign_seed=6, hosts=(server.endpoint,)
    ) as pool:
        for start in (0, 4, 8):
            pool.execute_batch_isolated(make_batch(target, 4, seed=start), start_index=start)
            assert serving.is_alive()  # still serving the one admitted session
        assert pool.pool_rebuilds == 0
    serving.join(timeout=10)
    assert not serving.is_alive()
    assert server.sessions_served == 1


# ---------------------------------------------------------------------------
# coverage capture belongs to one session, not to the worker process
# ---------------------------------------------------------------------------
def capture_probe():
    """A PBFT target, one scenario (every coordinate at 1) and its
    in-process counters, with coverage capture off."""
    from repro.core import TestScenario
    from repro.pbft import PbftConfig
    from repro.plugins import ClientCountPlugin, MacCorruptionPlugin
    from repro.targets import PbftTarget

    plugins = [MacCorruptionPlugin(), ClientCountPlugin(2, 4, 2)]
    config = PbftConfig.campaign_scale(warmup_us=100_000, measurement_us=200_000)
    target = PbftTarget(plugins, config=config)
    scenario = TestScenario(coords={dim.name: 1 for dim in target.hyperspace.dimensions})
    local = ScenarioExecutor(target, campaign_seed=7).execute_isolated(scenario, 0)
    return target, scenario, local.measurement.counters


def capture_hello(target, coverage_capture):
    return dict(session_hello(target), campaign_seed=7, coverage_capture=coverage_capture)


def test_a_plain_session_after_a_capture_session_captures_nothing():
    target, scenario, plain_counters = capture_probe()
    server = WorkerServer().serve_in_thread()
    try:
        captured = Channel.dial(server.endpoint, capture_hello(target, True))
        assert captured.call(scenario, 0, 60.0).measurement.counters != plain_counters
        captured.goodbye()
        plain = Channel.dial(server.endpoint, capture_hello(target, False))
        assert plain.call(scenario, 0, 60.0).measurement.counters == plain_counters
        plain.goodbye()
    finally:
        server.shutdown()


def test_concurrent_capture_and_plain_sessions_keep_their_own_setting():
    target, scenario, plain_counters = capture_probe()
    server = WorkerServer().serve_in_thread()
    try:
        plain = Channel.dial(server.endpoint, capture_hello(target, False))
        captured = Channel.dial(server.endpoint, capture_hello(target, True))
        captured_counters = captured.call(scenario, 0, 60.0).measurement.counters
        assert plain.call(scenario, 0, 60.0).measurement.counters == plain_counters
        assert any(key.startswith("net.msg.") for key in captured_counters)
        for channel in (plain, captured):
            channel.goodbye()
    finally:
        server.shutdown()
