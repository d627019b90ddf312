"""Wire protocol between the supervisor and its worker processes.

Frames are length-prefixed pickles on the worker's stdin/stdout pipes: an
8-byte big-endian payload length followed by the pickled message dict.  Pickle
(not JSON) because the payloads are the extraction's own object graph —
:class:`~repro.engine.catalog.TableSchema`, row tuples with ``datetime.date``
values, :class:`~repro.engine.result.Result`, and the exception objects the
pipeline interprets semantically (``UndefinedTableError.table_name`` drives
From-clause identification, so error *identity* must survive the boundary —
see the ``__reduce__`` definitions in :mod:`repro.errors`).

Both endpoints are the same trusted codebase spawning each other; the threat
model here is a *crashing or hanging* application, not a malicious peer, so
pickle's code-execution surface is acceptable (the worker executes the
application anyway — that is its entire job).

That trust assumption is safe on a pipe (the supervisor spawned the worker
itself) but **not** on a socket, where anyone who can reach the port can
write bytes.  TCP frames therefore carry a per-frame HMAC-SHA256 tag keyed
by a shared secret, and the tag is verified *before* any byte of the payload
reaches ``pickle`` — an unauthenticated peer gets :class:`ProtocolError`,
never code execution.  The secret defines the trust domain: endpoints
holding it are mutually trusted to the same degree the local supervisor and
its subprocess workers are (the agent's entire job is executing the
supervisor's code).  Without a secret the key is empty, which provides
framing integrity but **no** authentication — the agent refuses to listen on
a non-loopback interface in that mode (see :mod:`repro.isolation.agent`),
and hostile networks additionally need a confidential channel (TLS tunnel /
WireGuard): the per-frame MAC authenticates peers and frames, it does not
encrypt, and it does not stop an active man-in-the-middle from replaying
captured frames of an older connection.

Message shapes (plain dicts, ``cmd`` / reply keyed):

``init``     ``{cmd, executable: bytes}`` — the pickled executable, nested as
             bytes so an unpicklable/broken spec surfaces as a structured
             ``init`` error instead of a dead worker.  Accepted at any time;
             the worker starts an empty replica with it.
``run``      ``{cmd, ordinal, timeout, reset, schemas, rows, tables,
             dropped, release}`` — the worker holds row lists and schemas
             under integer *references* the supervisor assigns, and the
             frame names what the worker already holds instead of shipping
             it again.  ``reset`` drops the whole replica and every held
             object first.  ``schemas`` maps a new reference to a
             ``TableSchema``; ``rows`` maps a new reference to a row list,
             either by value (``[tuple, ...]``) or as ``(ref, start,
             stop)``, the run ``[start:stop]`` of a held list.  ``tables``
             maps the name of every table whose state changed to its
             ``(schema ref, rows ref)``; ``dropped`` lists names that no
             longer exist (renames are a drop plus a table); ``release``
             lists references the worker no longer needs to hold.  A frame
             naming a reference the worker does not hold is a desync: the
             worker exits with :data:`EXIT_PROTOCOL` without replying.
``park``     ``{cmd}`` — no reply; drop the executable and the replica and
             idle until the next ``init`` (a worker kept between pools).
``shutdown`` ``{cmd}`` — polite exit; the supervisor escalates to SIGKILL.

Replies: ``{ok: True, result: Result, stats: {...}}`` or ``{ok: False,
error: BaseException, stats: {...}}``.  ``stats`` carries ``duration``,
``maxrss_bytes``, ``rows_scanned``, ``invocation_count``, and optionally
``injected`` (chaos bookkeeping).
"""

from __future__ import annotations

import hashlib
import hmac
import os
import pickle
import select
import socket
import struct
import time
import zlib
from typing import BinaryIO, Optional

#: protocol generation an agent names in its hello reply; a supervisor
#: refuses to run against an agent speaking a different one, whose frames
#: it cannot trust to have the same keys
AGENT_PROTOCOL = 4

#: frame header: unsigned 64-bit big-endian payload length
_HEADER = struct.Struct(">Q")

#: TCP envelope: magic, sequence number, payload length, payload CRC32,
#: truncated HMAC-SHA256 tag over ``(seq, payload)``.  The pipe framing
#: stays bare (header + payload, byte-identical to every prior release); the
#: network gets the armoured envelope because wires — unlike pipes — deliver
#: torn, duplicated, bit-flipped, and *forged* bytes.
TCP_MAGIC = b"RWT2"
_TCP_HEADER = struct.Struct(">4sQQI16s")

#: MAC tag width: HMAC-SHA256 truncated to 16 bytes (128-bit security —
#: truncation of HMAC output is a standard, safe construction)
MAC_BYTES = 16

#: environment variable both the agent CLI and the supervisor config read
#: for the shared transport secret (UTF-8; whitespace-stripped)
SECRET_ENV = "REPRO_AGENT_SECRET"

#: how far ahead of sequence a frame may arrive before the stream is
#: declared lossy (reordering beyond this is indistinguishable from loss)
REORDER_WINDOW = 64

#: hard cap on a single frame (a corrupted header must not trigger a
#: multi-gigabyte allocation in the supervisor)
MAX_FRAME_BYTES = 1 << 31

#: worker exit status after an uncatchable memory-cap hit (``MemoryError``
#: leaves the interpreter in an untrustworthy state, so the worker dies
#: loudly instead of attempting a reply)
EXIT_MEMORY = 17

#: worker exit status for a protocol-level failure (an unreadable frame, or
#: one naming a reference the worker does not hold)
EXIT_PROTOCOL = 18


class ProtocolError(Exception):
    """The byte stream does not parse as a frame (worker/supervisor bug)."""


class TransportTimeout(Exception):
    """A read deadline expired before a full frame arrived (peer still up)."""


def frame_mac(secret: Optional[bytes], seq: int, payload: bytes) -> bytes:
    """The authentication tag for one TCP frame.

    HMAC-SHA256 over the big-endian sequence number plus the payload, keyed
    by the shared secret (empty key when no secret is configured), truncated
    to :data:`MAC_BYTES`.  Binding the sequence number means a frame cannot
    be spliced to a different position in the stream.
    """
    digest = hmac.new(
        secret or b"", _HEADER.pack(seq) + payload, hashlib.sha256
    ).digest()
    return digest[:MAC_BYTES]


def secret_from_env() -> Optional[bytes]:
    """The shared transport secret from :data:`SECRET_ENV`, if set."""
    raw = os.environ.get(SECRET_ENV)
    if raw is None:
        return None
    raw = raw.strip()
    return raw.encode("utf-8") if raw else None


def decode_payload(payload: bytes) -> dict:
    """Unpickle a frame payload; every decode failure is a ProtocolError.

    A truncated, bit-flipped, or otherwise mangled payload makes ``pickle``
    raise essentially anything (``UnpicklingError``, ``EOFError``,
    ``AttributeError``, ``MemoryError``...); callers must only ever see the
    protocol taxonomy, so the whole decode is fenced here.
    """
    try:
        message = pickle.loads(payload)
    except Exception as error:
        raise ProtocolError(f"frame payload does not unpickle: {error!r}") from error
    if not isinstance(message, dict):
        raise ProtocolError(f"expected a message dict, got {type(message).__name__}")
    return message


def write_frame(stream: BinaryIO, message: dict) -> None:
    """Serialise and send one message; flushes so the peer can block-read."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    stream.write(_HEADER.pack(len(payload)))
    stream.write(payload)
    stream.flush()


def read_frame(stream: BinaryIO) -> dict:
    """Read one message; raises EOFError on a cleanly closed stream."""
    header = _read_exact(stream, _HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds protocol maximum")
    payload = _read_exact(stream, length)
    return decode_payload(payload)


def _read_exact(stream: BinaryIO, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            raise EOFError(f"stream closed with {remaining} bytes outstanding")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# -- transports ----------------------------------------------------------------


class FrameTransport:
    """One bidirectional message channel between supervisor-side code and a
    worker (or worker agent).

    Implementations provide:

    * :meth:`send` — serialise and transmit one message dict;
    * :meth:`recv` — block for the next message, under an optional deadline
      (``None`` blocks forever).  Raises :class:`TransportTimeout` on an
      expired deadline, :class:`EOFError` when the peer closed, and
      :class:`ProtocolError` on an unparseable stream;
    * :meth:`close` — idempotent teardown.

    The supervisor's pool logic, the remote handle's fencing reader, and the
    worker agent all program against this seam, so the same lease/accounting
    code runs over pipes and sockets — and over the chaos harness's
    :class:`~repro.resilience.netfaults.FaultyTransport`.
    """

    def send(self, message: dict) -> None:
        raise NotImplementedError

    def recv(self, deadline_seconds: Optional[float]) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    @property
    def alive(self) -> bool:
        raise NotImplementedError


class PipeTransport(FrameTransport):
    """Frames over a subprocess's stdin/stdout pipes (the classic layout).

    Writes go through the buffered ``stdin`` stream exactly as
    :func:`write_frame` always has; reads pull raw bytes off the stdout file
    descriptor under a ``select`` deadline, preserving the supervisor's
    historical byte-level behaviour (length-prefixed pickle, no envelope).
    """

    def __init__(self, write_stream: BinaryIO, read_fd: int):
        self._write_stream = write_stream
        self._read_fd = read_fd
        self._buffer = b""
        self._closed = False

    def send(self, message: dict) -> None:
        write_frame(self._write_stream, message)

    def recv(self, deadline_seconds: Optional[float]) -> dict:
        deadline = (
            None if deadline_seconds is None
            else time.perf_counter() + deadline_seconds
        )
        header_size = _HEADER.size
        needed = header_size
        length: Optional[int] = None
        while True:
            while len(self._buffer) >= needed:
                if length is None:
                    (length,) = _HEADER.unpack(self._buffer[:header_size])
                    if length > MAX_FRAME_BYTES:
                        raise ProtocolError(
                            f"frame of {length} bytes exceeds protocol maximum"
                        )
                    needed = header_size + length
                    continue
                payload = self._buffer[header_size:needed]
                self._buffer = self._buffer[needed:]
                return decode_payload(payload)
            if deadline is None:
                remaining = None
            else:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise TransportTimeout()
            readable, _, _ = select.select([self._read_fd], [], [], remaining)
            if not readable:
                raise TransportTimeout()
            chunk = os.read(self._read_fd, 1 << 20)
            if not chunk:
                raise EOFError("worker closed its pipe before replying")
            self._buffer += chunk

    def close(self) -> None:
        self._closed = True  # fds belong to the Popen object; owner closes them

    @property
    def alive(self) -> bool:
        return not self._closed


class TcpTransport(FrameTransport):
    """Authenticated, CRC-checked, sequence-numbered frames over TCP.

    Every frame carries ``(magic, seq, length, crc32, mac)``.  The receiver:

    * rejects a bad magic, an oversized length, a CRC mismatch, or a failed
      MAC with :class:`ProtocolError` (the connection is then unusable —
      bytes are out of frame sync or the peer is not trusted).  The MAC is
      verified **before** the payload is buffered for decoding, so an
      unauthenticated peer's bytes never reach ``pickle.loads``;
    * silently drops frames whose sequence number was already delivered or
      already buffered (duplicate delivery is a normal network pathology,
      counted in :attr:`duplicates_dropped`, never surfaced to the caller);
    * buffers ahead-of-sequence frames and delivers strictly in order
      (counted in :attr:`reorders_healed`); a frame that never arrives
      stalls delivery until the caller's read deadline fires, and a gap
      wider than :data:`REORDER_WINDOW` is a :class:`ProtocolError` — at
      that point the stream has demonstrably lost data.
    """

    def __init__(self, sock: socket.socket, secret: Optional[bytes] = None):
        sock.setblocking(True)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - esoteric socket families
            pass
        self.sock = sock
        self.secret = bytes(secret) if secret else None
        self._buffer = b""
        self._send_seq = 0
        self._recv_next = 0
        self._pending: dict = {}
        self._closed = False
        #: frames dropped because their sequence number was already seen
        self.duplicates_dropped = 0
        #: frames that arrived ahead of sequence and were buffered in order
        self.reorders_healed = 0

    @classmethod
    def connect(cls, address: str, timeout: float = 5.0,
                secret: Optional[bytes] = None) -> "TcpTransport":
        """Dial ``host:port`` and return a connected transport."""
        host, port = parse_address(address)
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.settimeout(None)
        return cls(sock, secret=secret)

    # -- sending ------------------------------------------------------------

    def send(self, message: dict) -> None:
        self._transmit(self.encode(message))

    def encode(self, message: dict) -> bytes:
        """Build one enveloped frame, consuming the next sequence number."""
        payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        if len(payload) > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame of {len(payload)} bytes exceeds protocol maximum"
            )
        header = _TCP_HEADER.pack(
            TCP_MAGIC, self._send_seq, len(payload), zlib.crc32(payload),
            frame_mac(self.secret, self._send_seq, payload),
        )
        self._send_seq += 1
        return header + payload

    def _transmit(self, data: bytes) -> None:
        """Put bytes on the wire; the chaos transport's injection point."""
        self.sock.sendall(data)

    # -- receiving ----------------------------------------------------------

    def recv(self, deadline_seconds: Optional[float]) -> dict:
        deadline = (
            None if deadline_seconds is None
            else time.perf_counter() + deadline_seconds
        )
        while True:
            message = self._next_from_buffer()
            if message is not None:
                return message
            if deadline is None:
                remaining = None
            else:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise TransportTimeout()
            try:
                readable, _, _ = select.select([self.sock], [], [], remaining)
            except (OSError, ValueError) as error:
                raise EOFError(f"transport socket closed: {error}") from error
            if not readable:
                raise TransportTimeout()
            chunk = self._receive_bytes()
            if not chunk:
                raise EOFError("peer closed the connection")
            self._buffer += chunk

    def _receive_bytes(self) -> bytes:
        """Pull available bytes off the socket; chaos injection point."""
        try:
            return self.sock.recv(1 << 20)
        except (ConnectionResetError, OSError) as error:
            raise EOFError(f"connection reset: {error}") from error

    def _next_from_buffer(self) -> Optional[dict]:
        """Decode the next in-sequence frame already buffered, if any."""
        message = self._pop_in_order()
        if message is not None:
            return message
        header_size = _TCP_HEADER.size
        while len(self._buffer) >= header_size:
            magic, seq, length, crc, mac = _TCP_HEADER.unpack(
                self._buffer[:header_size]
            )
            if magic != TCP_MAGIC:
                raise ProtocolError(
                    f"bad frame magic {magic!r}: stream out of sync"
                )
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"frame of {length} bytes exceeds protocol maximum"
                )
            if len(self._buffer) < header_size + length:
                return None
            payload = self._buffer[header_size:header_size + length]
            self._buffer = self._buffer[header_size + length:]
            if zlib.crc32(payload) != crc:
                raise ProtocolError(
                    f"frame {seq} failed its CRC check (corrupt payload)"
                )
            # authentication gate: nothing past this line — in particular
            # pickle — ever touches a payload the peer could not MAC
            if not hmac.compare_digest(
                mac, frame_mac(self.secret, seq, payload)
            ):
                raise ProtocolError(
                    f"frame {seq} failed authentication (wrong or missing "
                    f"shared transport secret)"
                )
            if seq < self._recv_next or seq in self._pending:
                self.duplicates_dropped += 1
                continue
            if seq > self._recv_next:
                if seq - self._recv_next > REORDER_WINDOW:
                    raise ProtocolError(
                        f"sequence gap: expected frame {self._recv_next}, "
                        f"got {seq} (stream lost data)"
                    )
                self.reorders_healed += 1
            self._pending[seq] = payload
            message = self._pop_in_order()
            if message is not None:
                return message
        return None

    def _pop_in_order(self) -> Optional[dict]:
        payload = self._pending.pop(self._recv_next, None)
        if payload is None:
            return None
        self._recv_next += 1
        return decode_payload(payload)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass

    @property
    def alive(self) -> bool:
        return not self._closed


def parse_address(address: str) -> tuple:
    """Split ``host:port`` (the last colon wins, so IPv6 literals work)."""
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"peer address {address!r} is not host:port")
    return host or "127.0.0.1", int(port)


def pack_executable(executable) -> bytes:
    """Pickle the executable spec for the ``init`` message.

    Raises :class:`ProtocolError` eagerly (at backend construction) when the
    executable cannot cross the process boundary — e.g. a
    ``CallableExecutable`` closing over a lambda — so the failure names the
    actual problem instead of surfacing as a dead worker mid-extraction.
    """
    try:
        return pickle.dumps(executable, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as error:
        raise ProtocolError(
            f"executable {getattr(executable, 'name', executable)!r} is not "
            f"picklable and cannot run in an isolated worker: {error}"
        ) from error
