"""The execution mechanism: channels to workers and the scheduler over them.

Three layers run a batch of scenarios:

- :mod:`repro.core.worker` is the **serve side**: one
  :class:`~repro.core.worker.WorkerSession` loop behind a stream socket.
- *This* module is the **mechanism**: a :class:`Channel` is the client end
  of one worker session, and :class:`WorkStealingScheduler` pulls one batch
  through a set of channels.
- :class:`~repro.core.parallel.ParallelScenarioExecutor` is the **policy**:
  batching, submission-order results, telemetry publication, per-suspect
  retry, and the one placement error (:exc:`~repro.core.parallel.WorkerStartError`).

There are two ways to open a channel and one protocol behind both:

``Channel.spawn`` (``workers > 1``, no hosts)
    Starts a child process that serves the other end of a
    ``socket.socketpair()`` on its main thread.
``Channel.dial`` (one per ``--hosts`` endpoint)
    Connects to a ``repro worker`` listening on ``host:port``.

Both send the same hello, which carries the pickled target. A spawned
child could in principle use the target it inherited, but then a local
worker would start from different state than a remote one, the start
method would matter, and a target that cannot be pickled would run on
children but not on hosts. One blob keeps one contract: what the worker
executes is exactly what crossed the wire.

With neither hosts nor more than one worker no channel is opened at all;
the policy layer runs those batches on its own executor.

Trouble on a channel is reported in one vocabulary. :exc:`ChannelError`
means the worker is gone (died, connection torn, unexpected reply) and
:exc:`ChannelTimeout` means it blew through the wall-clock backstop;
either way the channel has already closed itself — and killed its child,
if it had one — by the time the exception reaches the caller.

Determinism: a channel chooses *where* a scenario runs, never *what* it
computes — every scenario's seed derives from ``(campaign_seed, key)``,
and the scheduler returns results in submission order. The conformance
suite (``tests/core/test_backends.py``) pins trajectory identity across
dialled, spawned and no channels.
"""

from __future__ import annotations

import multiprocessing
import socket
import threading
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .failures import describe_exception
from .scenario import ScenarioResult, TestScenario
from .worker import (
    PROTOCOL_VERSION,
    FrameError,
    parse_host,
    recv_frame,
    send_frame,
    serve_socket,
)

#: Seconds a dialled worker gets to accept the connection and answer the
#: hello (a spawned child gets no limit: it is this program, and if it
#: dies the handshake reads EOF).
CONNECT_TIMEOUT = 10.0


class ChannelError(Exception):
    """A channel died: its in-flight task is lost, the channel is out."""


class ChannelTimeout(ChannelError):
    """A channel's peer blew through the wall-clock backstop."""


class WorkStealingScheduler:
    """Pull-based dispatch of one batch over heterogeneous channels.

    Tasks sit in a single shared queue; every channel runs a puller
    thread that takes the next task, executes it, and comes back for
    more. Fast channels therefore *steal* the work a straggler would
    have been dealt under round-robin — a slow host delays only the task
    it is holding. A channel whose call raises :exc:`ChannelError` is
    retired and its in-flight task's slot stays ``None`` (lost tasks are
    **not** requeued here: the one scenario a dying worker was holding
    is exactly the one that may have killed it, so the caller re-drives
    it under its own retry budget instead of letting it hunt down the
    remaining channels).

    Results land in per-task slots, so however the races play out the
    caller always sees submission order; a task that raises anything
    *other* than :exc:`ChannelError` (an interrupt, a scenario that will
    not pickle) aborts the batch and is re-raised.
    """

    def __init__(self, channels: Sequence[Any]) -> None:
        if not channels:
            raise ValueError("the scheduler needs at least one channel")
        self.channels = list(channels)
        #: Tasks completed per channel, by channel position (telemetry /
        #: conformance tests assert stealing actually happened).
        self.completed: List[int] = [0] * len(channels)

    def run(
        self, tasks: Sequence[Any], call: Callable[[Any, Any], Any]
    ) -> Tuple[List[Optional[Any]], List[int]]:
        """Run ``call(channel, task)`` for every task; returns
        ``(slots, lost_indices)``."""
        slots: List[Optional[Any]] = [None] * len(tasks)
        queue = deque(range(len(tasks)))
        lock = threading.Lock()
        lost: List[int] = []
        errors: List[Tuple[int, BaseException]] = []

        def pull(position: int, channel: Any) -> None:
            while True:
                with lock:
                    if errors or not queue:
                        return
                    index = queue.popleft()
                try:
                    slots[index] = call(channel, tasks[index])
                except ChannelError:
                    with lock:
                        lost.append(index)
                    return  # channel retired; others keep draining
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    with lock:
                        errors.append((index, exc))
                    return
                with lock:
                    self.completed[position] += 1

        threads = [
            threading.Thread(
                target=pull, args=(position, channel), name=f"repro-steal-{position}", daemon=True
            )
            for position, channel in enumerate(self.channels)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            # Deterministic choice among racers: lowest submission index.
            errors.sort(key=lambda pair: pair[0])
            raise errors[0][1]
        with lock:
            unfinished = sorted(set(lost) | set(queue))
        return slots, unfinished


class Channel:
    """The client end of one worker session.

    Built by :meth:`dial` or :meth:`spawn`, never directly: both return a
    channel whose hello has been answered, or raise :exc:`ChannelError` /
    ``OSError``. ``process`` is the child behind a spawned channel and
    ``None`` for a dialled one.
    """

    def __init__(
        self,
        label: str,
        sock: socket.socket,
        process: Optional[multiprocessing.Process] = None,
    ) -> None:
        self.label = label
        self.sock: Optional[socket.socket] = sock
        self.process = process

    @classmethod
    def dial(cls, endpoint: str, hello: Dict[str, Any]) -> "Channel":
        """Open a session with the ``repro worker`` at ``host[:port]``."""
        sock = socket.create_connection(parse_host(endpoint), timeout=CONNECT_TIMEOUT)
        return cls(f"worker {endpoint}", sock)._handshake(hello)

    @classmethod
    def spawn(
        cls, label: str, hello: Dict[str, Any], siblings: Sequence["Channel"] = ()
    ) -> "Channel":
        """Start a local worker process and open a session with it.

        The child comes from ``multiprocessing.Process`` in the platform's
        default start method. ``siblings`` are the channels already open:
        a forked child inherits their sockets and must drop them (see
        :func:`~repro.core.worker.serve_socket`).
        """
        ours, theirs = socket.socketpair()
        inherited = [ours] + [c.sock for c in siblings if c.sock is not None]
        process = multiprocessing.Process(
            target=serve_socket, args=(theirs, inherited), name=label, daemon=True
        )
        try:
            process.start()
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
        return cls(f"local worker {label}", ours, process)._handshake(hello)

    def _handshake(self, hello: Dict[str, Any]) -> "Channel":
        assert self.sock is not None
        try:
            send_frame(self.sock, "hello", {"protocol": PROTOCOL_VERSION, **hello})
            kind, payload = recv_frame(self.sock)
        except BaseException:
            self.close()
            raise
        if kind != "ready":
            self.close()
            raise ChannelError(f"{self.label} refused the session: {payload!r}")
        return self

    @property
    def alive(self) -> bool:
        return self.sock is not None

    def call(
        self,
        scenario: TestScenario,
        test_index: int,
        wait_timeout: Optional[float],
    ) -> ScenarioResult:
        """Execute one scenario on the worker; :exc:`ChannelError` on loss."""
        if self.sock is None:
            raise ChannelError(f"{self.label} is not connected")
        try:
            self.sock.settimeout(wait_timeout)
            send_frame(self.sock, "exec", {"scenario": scenario, "test_index": test_index})
            kind, payload = recv_frame(self.sock)
        except socket.timeout as exc:
            self.close()
            raise ChannelTimeout(
                f"{self.label} exceeded the wall-clock backstop "
                f"({wait_timeout:.1f}s) and was abandoned"
            ) from exc
        except (FrameError, OSError) as exc:
            self.close()
            raise ChannelError(f"lost {self.label} ({describe_exception(exc)})") from exc
        if kind == "result":
            return payload
        self.close()
        raise ChannelError(f"{self.label} sent unexpected {kind!r}")

    def close(self) -> None:
        """Drop the session now. A child is killed, not asked: it may be
        hung in a scenario, where a polite join would block forever."""
        self._close_socket()
        if self.process is not None:
            self.process.kill()
            self.process.join()

    def goodbye(self) -> None:
        """End the session politely: send ``bye``, then reap the child, so
        its CPU and RSS are in ``RUSAGE_CHILDREN`` when this returns."""
        if self.sock is not None:
            try:
                send_frame(self.sock, "bye")
            except OSError:
                pass
        self._close_socket()
        if self.process is not None:
            self.process.join()

    def _close_socket(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:  # pragma: no cover - already closed
                pass
            self.sock = None


__all__ = [
    "CONNECT_TIMEOUT",
    "Channel",
    "ChannelError",
    "ChannelTimeout",
    "WorkStealingScheduler",
]
