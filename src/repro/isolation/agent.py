"""Remote worker agent: ``python -m repro.isolation.agent --listen host:port``.

The agent is the network-facing half of remote isolation (DESIGN.md §5.18).
It accepts TCP connections from supervisors and gives each connection its own
locally spawned, locally supervised worker subprocess — the same
``repro.isolation.worker`` the in-process pool uses, spawned through the same
local :class:`~repro.isolation.supervisor.WorkerHandle`.

Division of labour across the wire:

* the **agent** owns the hard deadline for its worker: each ``run`` request
  carries a ``deadline`` (cooperative timeout + kill grace); when it expires
  the agent SIGKILLs the worker and replies a structured ``hard_timeout``
  message.  SIGKILL must live on the worker's machine — a supervisor across
  a partition cannot kill anything;
* the **supervisor** owns leases and accounting.  Every request carries
  ``(epoch, req)`` fencing tokens which the agent echoes verbatim on the
  reply; it never interprets them.  The supervisor's reader drops replies
  with stale tokens, which is what makes late replies harmless;
* a worker crash or hard timeout ends the **connection** (after the
  structured reply is flushed): connection lifetime == worker lifetime, so
  the supervisor's reconnect path doubles as its respawn path and the
  incremental ship-state is reset exactly when the replica is lost.

``hello`` and ``ping`` are answered by the agent itself without touching the
worker — heartbeats measure the *network + agent* path and stay cheap, and
they keep working while the worker is busy being spawned.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import sys
import threading
from typing import Optional

from repro.errors import ExtractionError
from repro.isolation.protocol import (
    ProtocolError,
    TcpTransport,
    TransportTimeout,
    parse_address,
    secret_from_env,
)
from repro.isolation.supervisor import (
    HardTimeout,
    WorkerDied,
    WorkerHandle,
    WorkerSpec,
)

#: protocol identity sent in the hello reply; a supervisor refuses to run
#: against an agent speaking a different protocol generation
AGENT_PROTOCOL = 2

#: interfaces an unauthenticated agent may bind (the local machine is the
#: same trust domain as a local subprocess worker; anything wider requires
#: a shared secret — the agent executes whatever a connected supervisor
#: sends, so an open port without authentication is remote code execution)
_LOOPBACK_HOSTS = frozenset({"127.0.0.1", "::1", "localhost"})


def _meta(message: dict) -> dict:
    """The fencing tokens to echo back on every reply."""
    return {"epoch": message.get("epoch"), "req": message.get("req")}


class _Connection:
    """One supervisor connection and the worker subprocess serving it."""

    def __init__(self, agent: "WorkerAgent", transport: TcpTransport):
        self.agent = agent
        self.transport = transport
        self.worker: Optional[WorkerHandle] = None

    def serve(self) -> None:
        try:
            while True:
                try:
                    message = self.transport.recv(None)
                except (EOFError, ProtocolError, TransportTimeout, OSError):
                    return  # supervisor went away or stream corrupted
                try:
                    alive = self._dispatch(message)
                except Exception as error:
                    # A malformed-but-authenticated request must surface as
                    # a structured error carrying the fencing meta — never
                    # as an unexplained EOF from a dead connection thread.
                    self._reply(
                        {"ok": False,
                         "error": RuntimeError(
                             f"agent could not handle "
                             f"{message.get('cmd')!r}: {error!r}"),
                         **_meta(message)}
                    )
                    return
                if not alive:
                    return
        finally:
            if self.worker is not None:
                self.worker.kill()
            self.agent.retire_connection(self)
            self.transport.close()

    def _dispatch(self, message: dict) -> bool:
        """Handle one request; False ends the connection."""
        cmd = message.get("cmd")
        meta = _meta(message)
        if cmd == "hello":
            return self._reply(
                {"ok": True, "hello": True, "protocol": AGENT_PROTOCOL,
                 "agent_pid": self.agent.pid, **meta}
            )
        if cmd == "ping":
            return self._reply({"ok": True, "pong": True, **meta})
        if cmd == "init":
            return self._handle_init(message, meta)
        if cmd == "run":
            return self._handle_run(message, meta)
        if cmd == "shutdown":
            if self.worker is not None:
                self.worker.shutdown()
                self.worker = None
            self._reply({"ok": True, **meta})
            return False
        return self._reply(
            {"ok": False, "error": RuntimeError(f"unknown cmd {cmd!r}"), **meta}
        )

    def _handle_init(self, message: dict, meta: dict) -> bool:
        blob = message.get("executable")
        if not isinstance(blob, (bytes, bytearray)):
            # validated here so a broken supervisor gets a structured reply
            # (connection kept) instead of a KeyError-killed thread
            return self._reply(
                {"ok": False,
                 "error": RuntimeError(
                     "init message carries no executable bytes "
                     f"(got {type(blob).__name__})"),
                 **meta}
            )
        if self.worker is not None:  # re-init replaces the worker
            self.worker.kill()
            self.worker = None
        try:
            self.worker = WorkerHandle(self.agent.spec, bytes(blob))
        except (ExtractionError, OSError) as error:
            return self._reply(
                {"ok": False,
                 "error": RuntimeError(f"agent failed to spawn a worker: {error}"),
                 **meta}
            )
        return self._reply({"ok": True, "pid": self.worker.pid, **meta})

    def _handle_run(self, message: dict, meta: dict) -> bool:
        if self.worker is None or not self.worker.alive:
            kind = "unknown" if self.worker is None else self.worker.exit_kind()
            self._reply({"ok": False, "crashed": True, "kind": kind, **meta})
            return False
        deadline = message.get("deadline", self.agent.spec.default_timeout
                               + self.agent.spec.kill_grace)
        try:
            reply = self.worker.run(message, deadline)
        except HardTimeout:
            # The worker blew its hard deadline and was SIGKILLed locally:
            # tell the supervisor with a structured reply, end the connection
            # (the worker — and its replica — are gone).
            self.worker = None
            self._reply({"ok": False, "hard_timeout": True, **meta})
            return False
        except WorkerDied as death:
            self.worker = None
            self._reply({"ok": False, "crashed": True, "kind": death.kind,
                         "returncode": death.returncode, **meta})
            return False
        return self._reply({**reply, **meta})

    def _reply(self, message: dict) -> bool:
        try:
            self.transport.send(message)
            return True
        except (OSError, ProtocolError):
            return False  # supervisor vanished mid-reply


class WorkerAgent:
    """A TCP listener handing each supervisor connection a supervised worker.

    Usable in-process (tests, the net-chaos harness) via
    :meth:`start`/:meth:`stop`, or standalone via :func:`main`.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 spec: Optional[WorkerSpec] = None,
                 secret: Optional[bytes] = None):
        self.host = host
        self.port = port
        self.spec = spec if spec is not None else WorkerSpec()
        self.secret = bytes(secret) if secret else None
        self.pid = os.getpid()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._connections: list = []
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        #: transport pathologies healed on retired connections (live ones are
        #: added on the fly in :meth:`transport_counters`)
        self._retired_counters = {"duplicates_dropped": 0, "reorders_healed": 0}

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> str:
        """Bind, listen, and serve in a background thread; returns host:port.

        Refuses a non-loopback bind without a shared secret: every frame a
        supervisor sends is application code to execute, so an open,
        unauthenticated port would be a remote-code-execution endpoint.
        """
        if self.secret is None and self.host not in _LOOPBACK_HOSTS:
            raise ValueError(
                f"refusing to listen on non-loopback {self.host!r} without a "
                f"shared secret: the agent executes whatever a connected "
                f"supervisor sends (set --secret-file / REPRO_AGENT_SECRET, "
                f"or bind 127.0.0.1)"
            )
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(32)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="agent-accept", daemon=True
        )
        self._accept_thread.start()
        return self.address

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            connection = _Connection(self, TcpTransport(sock, secret=self.secret))
            with self._lock:
                self._connections.append(connection)
            thread = threading.Thread(
                target=connection.serve, name="agent-conn", daemon=True
            )
            thread.start()

    def stop(self) -> None:
        """Close the listener and tear down every live connection."""
        self._stopping.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            connections = list(self._connections)
            self._connections.clear()
        for connection in connections:
            connection.transport.close()
            if connection.worker is not None:
                connection.worker.kill()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2)

    def serve_forever(self) -> None:
        """Block until stopped (the standalone entry point's main loop)."""
        self._stopping.wait()

    def retire_connection(self, connection: "_Connection") -> None:
        """Fold a finished connection's transport tallies into the totals."""
        with self._lock:
            transport = connection.transport
            self._retired_counters["duplicates_dropped"] += (
                transport.duplicates_dropped
            )
            self._retired_counters["reorders_healed"] += transport.reorders_healed
            if connection in self._connections:
                self._connections.remove(connection)

    def transport_counters(self) -> dict:
        """Agent-side dedup/reorder totals across all connections ever.

        The chaos harness reads these to prove a duplicated or reordered
        delivery was actually *seen and healed* here rather than silently
        never occurring.
        """
        with self._lock:
            totals = dict(self._retired_counters)
            for connection in self._connections:
                totals["duplicates_dropped"] += (
                    connection.transport.duplicates_dropped
                )
                totals["reorders_healed"] += connection.transport.reorders_healed
        return totals


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-agent",
        description="serve isolated repro workers to remote supervisors",
    )
    parser.add_argument("--listen", required=True, metavar="HOST:PORT",
                        help="address to accept supervisor connections on")
    parser.add_argument("--memory-limit-mb", type=int, default=None,
                        help="RLIMIT_AS cap for each spawned worker")
    parser.add_argument("--default-timeout", type=float, default=30.0,
                        help="hard deadline when a run carries none")
    parser.add_argument("--kill-grace", type=float, default=1.0,
                        help="slack past the cooperative timeout before SIGKILL")
    parser.add_argument("--secret-file", default=None, metavar="PATH",
                        help="file holding the shared transport secret "
                             "(falls back to $REPRO_AGENT_SECRET); required "
                             "for any non-loopback --listen address")
    args = parser.parse_args(argv)
    host, port = parse_address(args.listen)
    if args.secret_file is not None:
        with open(args.secret_file, "rb") as handle:
            secret = handle.read().strip() or None
    else:
        secret = secret_from_env()
    spec = WorkerSpec(
        memory_limit_bytes=(
            args.memory_limit_mb * 1024 * 1024 if args.memory_limit_mb else None
        ),
        default_timeout=args.default_timeout,
        kill_grace=args.kill_grace,
    )
    agent = WorkerAgent(host, port, spec=spec, secret=secret)
    try:
        address = agent.start()
    except ValueError as error:
        sys.stderr.write(f"agent: {error}\n")
        return 2
    sys.stderr.write(
        f"agent: listening on {address} "
        f"({'authenticated' if secret else 'loopback-only, unauthenticated'})\n"
    )
    sys.stderr.flush()

    def _shutdown(signum, frame):  # noqa: ARG001 - signal signature
        agent.stop()

    signal.signal(signal.SIGTERM, _shutdown)
    signal.signal(signal.SIGINT, _shutdown)
    agent.serve_forever()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
