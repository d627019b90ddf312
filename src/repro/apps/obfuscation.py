"""Query-text obfuscation.

Mirrors the "explicit opacity" scenarios of §2.1: the application carries its
SQL only in an encrypted/encoded form, so no string-extraction tool (nor a
grep over this repository's object state) can reveal it.  A keyed XOR stream
with hex encoding is deliberately simple — the point is opacity of the stored
artifact, not cryptographic strength; UNMASQUE never decodes it, it only ever
observes results.
"""

from __future__ import annotations

import hashlib

_DEFAULT_KEY = b"unmasque-repro"

#: key → the longest keystream derived for it so far
_KEYSTREAMS: dict[bytes, bytes] = {}
#: the most keys kept at once; past this the cache starts over
_MAX_KEYS = 32


def _keystream(key: bytes, length: int) -> bytes:
    """At least ``length`` bytes of the key's stream: ``sha256(key)``, then
    the digest of each previous block.  Derived once per key and extended
    only when a longer text needs more of it."""
    stream = _KEYSTREAMS.get(key, b"")
    if len(stream) < length:
        block = stream[-32:] if stream else key
        blocks = [stream]
        for _ in range(-(-(length - len(stream)) // 32)):
            block = hashlib.sha256(block).digest()
            blocks.append(block)
        if len(_KEYSTREAMS) >= _MAX_KEYS:
            _KEYSTREAMS.clear()
        stream = _KEYSTREAMS[key] = b"".join(blocks)
    return stream


def _xor(data: bytes, key: bytes) -> bytes:
    """``data`` XORed with the key's stream, as one big-integer XOR."""
    size = len(data)
    mask = int.from_bytes(_keystream(key, size)[:size], "big")
    return (int.from_bytes(data, "big") ^ mask).to_bytes(size, "big")


def obfuscate(text: str, key: bytes = _DEFAULT_KEY) -> str:
    """Encode ``text`` into an opaque hex blob."""
    return _xor(text.encode("utf-8"), key).hex()


def deobfuscate(blob: str, key: bytes = _DEFAULT_KEY) -> str:
    """Decode a blob produced by :func:`obfuscate`."""
    return _xor(bytes.fromhex(blob), key).decode("utf-8")


def hex_encode_sql(text: str) -> str:
    """Plain HEX encoding, as used by SQL-injection payloads (§2.1)."""
    return text.encode("utf-8").hex()


def hex_decode_sql(blob: str) -> str:
    return bytes.fromhex(blob).decode("utf-8")
