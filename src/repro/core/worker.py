"""Scenario workers: the serve side of the execution fabric.

Sec. 3 of the paper: "a worker thread dequeues scenarios from Psi,
instantiates the test configuration, executes the test and computes the
impact". A :class:`WorkerSession` is that worker behind a stream socket.
It is the only worker loop in the tree and serves both kinds of worker:

- a **local worker** is a child process of the controller that calls
  :func:`serve_socket` on one end of a ``socket.socketpair()``
  (``--workers N``);
- a **remote worker** is a ``repro worker`` process whose
  :class:`WorkerServer` accepts TCP connections and serves each on its own
  thread (``--hosts a:9001,b:9001``).

Either way the contract is the one :mod:`repro.core.parallel` states: one
:class:`~repro.core.executor.ScenarioExecutor` per session, the target
shipped once by pickling, every scenario's measurement a pure function of
``(campaign_seed, scenario)``.

Wire protocol (version :data:`PROTOCOL_VERSION`)
------------------------------------------------
Every message is a **length-prefixed pickle frame**: a 4-byte big-endian
payload length followed by ``pickle.dumps((kind, payload))``. One
connection is one *session*:

- ``("hello", {...})`` — client opens the session: protocol version,
  pickled target blob, campaign seed, and the coverage-capture toggle.
- ``("ready", {"protocol": N})`` — worker built its executor; or
  ``("error", reason)`` and the connection closes.
- ``("exec", {"scenario": ..., "test_index": ...})`` — run one scenario
  through the executor's isolated path; always answered by
  ``("result", ScenarioResult)``, a failing scenario's being a
  ``ScenarioFailure``. The client treats any other reply as a lost worker.
- ``("bye", None)`` — clean session end (EOF is treated the same).

Determinism: a worker never publishes telemetry and never sees the
controller's RNG — it only maps ``(scenario, test_index)`` to a result,
so *where* a scenario runs can never change *what* it measures. Workers
may die or hang; the client side (:class:`repro.core.backends.Channel`)
reports both as :exc:`~repro.core.backends.ChannelError` and the policy
layer re-drives the affected scenarios. A scenario's own deadline is its
simulation's event budget, so a budget overrun is the same ``timeout``
result on a local worker's main thread and on a :class:`WorkerServer`
connection thread.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
from typing import Any, Iterable, List, Optional, Tuple

from ..sim.trace import set_kind_capture
from .executor import ScenarioExecutor, warm_target
from .failures import describe_exception

#: Version of the frame protocol; bumped on any incompatible change.
PROTOCOL_VERSION = 3

#: Frame header: payload length as an unsigned 4-byte big-endian integer.
_HEADER = struct.Struct(">I")

#: Refuse absurd frames (a corrupt header would otherwise make us try to
#: allocate gigabytes). Targets + scenarios are far below this.
MAX_FRAME_BYTES = 256 * 1024 * 1024


class FrameError(ConnectionError):
    """The peer closed mid-frame or sent a malformed frame."""


def send_frame(sock: socket.socket, kind: str, payload: Any = None) -> None:
    """Send one ``(kind, payload)`` message as a length-prefixed pickle."""
    blob = pickle.dumps((kind, payload))
    sock.sendall(_HEADER.pack(len(blob)) + blob)


def recv_frame(sock: socket.socket) -> Tuple[str, Any]:
    """Receive one message; raises :class:`FrameError` on EOF/corruption."""
    header = _recv_exact(sock, _HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES} cap")
    blob = _recv_exact(sock, length)
    try:
        kind, payload = pickle.loads(blob)
    except Exception as exc:
        raise FrameError(f"undecodable frame: {describe_exception(exc)}") from exc
    return str(kind), payload


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise FrameError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def parse_host(address: str, default_port: int = 9123) -> Tuple[str, int]:
    """Parse a ``host[:port]`` string into a ``(host, port)`` pair.

    Port ``0`` is accepted and means "kernel-assigned ephemeral port" —
    only meaningful as a listen address (``repro worker --listen``), not
    as a dial target.
    """
    text = address.strip()
    if not text:
        raise ValueError("empty worker address")
    if ":" in text:
        host, _, port_text = text.rpartition(":")
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError(f"invalid worker address {address!r} (bad port)") from None
    else:
        host, port = text, default_port
    if not host:
        host = "127.0.0.1"
    if not 0 <= port < 65536:
        raise ValueError(f"invalid worker address {address!r} (port out of range)")
    return host, port


class WorkerSession:
    """One client connection: hello handshake, then an exec loop."""

    def __init__(self, conn: socket.socket) -> None:
        self.conn = conn
        self.executor: Optional[ScenarioExecutor] = None

    def run(self) -> int:
        """Serve the session to completion; returns scenarios executed."""
        executed = 0
        try:
            if not self._handshake():
                return executed
            while True:
                try:
                    kind, payload = recv_frame(self.conn)
                except FrameError:
                    return executed  # client went away: session over
                if kind == "bye":
                    return executed
                if kind != "exec":
                    send_frame(self.conn, "error", f"unexpected message {kind!r}")
                    return executed
                self._execute(payload)
                executed += 1
        except (ConnectionError, OSError):  # pragma: no cover - torn socket
            return executed
        finally:
            try:
                self.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def _handshake(self) -> bool:
        try:
            kind, payload = recv_frame(self.conn)
        except FrameError:
            return False
        if kind != "hello" or not isinstance(payload, dict):
            send_frame(self.conn, "error", "expected a hello message")
            return False
        if payload.get("protocol") != PROTOCOL_VERSION:
            send_frame(
                self.conn,
                "error",
                f"protocol mismatch: worker speaks {PROTOCOL_VERSION}, "
                f"client sent {payload.get('protocol')!r}",
            )
            return False
        try:
            if payload.get("coverage_capture"):
                # Before the target is unpickled and warmed: deployments
                # (and snapshot-cache prefixes) sample the toggle at
                # construction, and their snapshot keys include it. Sticky
                # for the life of the worker process.
                set_kind_capture(True)
            target = pickle.loads(payload["target_blob"])
            warm_target(target)
            self.executor = ScenarioExecutor(
                target, campaign_seed=int(payload.get("campaign_seed", 0))
            )
        except Exception as exc:
            send_frame(self.conn, "error", f"session setup failed: {describe_exception(exc)}")
            return False
        send_frame(self.conn, "ready", {"protocol": PROTOCOL_VERSION})
        return True

    def _execute(self, payload: Any) -> None:
        assert self.executor is not None
        # Failures come back as ScenarioFailure results, never as raises.
        result = self.executor.execute_isolated(payload["scenario"], int(payload["test_index"]))
        send_frame(self.conn, "result", result)


def serve_socket(conn: socket.socket, inherited: Iterable[socket.socket] = ()) -> int:
    """Serve one session on the *calling* thread; returns scenarios executed.

    The entry point of a local worker process. ``inherited`` are the
    controller-side sockets a forked child holds copies of; they are
    closed first, so that a controller that dies leaves every one of its
    workers reading EOF instead of being kept half-open by a sibling.
    """
    for sock in inherited:
        sock.close()
    return WorkerSession(conn).run()


class WorkerServer:
    """A TCP server that turns this process into a scenario worker.

    ``port=0`` binds an ephemeral port (the conformance tests use this to
    run two localhost workers without port coordination); ``address``
    reports the bound endpoint. Each accepted connection is served on its
    own daemon thread, so several campaigns *can* share a worker —
    though the intended deployment is one worker per core per host.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen()
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self.sessions_served = 0
        self._closing = False
        #: Threads still serving a session (finished ones are dropped on
        #: each accept, so a long-lived worker does not collect them).
        self._threads: List[threading.Thread] = []

    @property
    def endpoint(self) -> str:
        """The ``host:port`` string clients pass to ``--hosts``."""
        return f"{self.address[0]}:{self.address[1]}"

    def serve_forever(self, max_sessions: Optional[int] = None) -> int:
        """Accept sessions until shutdown (or ``max_sessions``), then stop
        listening and wait for the live ones to finish; returns the number
        of sessions served."""
        while not self._closing:
            if max_sessions is not None and self.sessions_served >= max_sessions:
                break
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                break  # listener closed by shutdown()
            self.sessions_served += 1
            thread = threading.Thread(
                target=WorkerSession(conn).run,
                name=f"repro-worker-session-{self.sessions_served}",
                daemon=True,
            )
            thread.start()
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)
        # Session threads are daemons: a caller that exits right after the
        # last accept (``repro worker --max-sessions N``) would otherwise
        # kill the sessions it has just admitted.
        self.shutdown()
        for thread in self._threads:
            thread.join()
        return self.sessions_served

    def serve_in_thread(self) -> "WorkerServer":
        """Run the accept loop on a daemon thread (test harness helper)."""
        thread = threading.Thread(
            target=self.serve_forever, name="repro-worker-accept", daemon=True
        )
        thread.start()
        return self

    def shutdown(self) -> None:
        """Stop accepting sessions (idempotent; live sessions finish)."""
        self._closing = True
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass


__all__ = [
    "FrameError",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "WorkerServer",
    "WorkerSession",
    "parse_host",
    "recv_frame",
    "send_frame",
    "serve_socket",
]
