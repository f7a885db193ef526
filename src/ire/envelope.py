"""Ciphertext container: the cleartext header riding with each message.

Wire layout (IRE1 version 1, all integers little-endian):

    offset 0   magic "IRE1"
    offset 4   version, 0x01
    offset 5   combine rule flag: 0x00 rule A, 0x01 rule B
    offset 6   pad count, u8, 0..10
    offset 7   keystream start offset, u64
    offset 15  payload byte length, u64
    offset 23  payload

The start offset travels in the clear by design; without the keyset it
names a position in a loop the attacker does not have.

A CipherEnvelope's payload is an immutable bytes-like object: bytes, or
a read-only one-dimensional memoryview of unsigned bytes.
decode_envelope and ops.encrypt hand the payload over as such a view,
without copying it; bytes(envelope.payload) gives a copy.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import EnvelopeFormatError
from .keymat import RULE_A, RULE_B, RULES

__all__ = [
    "ENVELOPE_MAGIC",
    "ENVELOPE_VERSION",
    "HEADER_LEN",
    "CipherEnvelope",
    "encode_envelope",
    "decode_envelope",
]

ENVELOPE_MAGIC = b"IRE1"
ENVELOPE_VERSION = 1
HEADER_LEN = 23

_MAX_PAD = 10
_MIN_PAYLOAD = 10


@dataclass(frozen=True, repr=False)
class CipherEnvelope:
    """A payload and the header fields that travel with it.

    A payload given as a writable buffer (a bytearray, a writable view)
    is copied to bytes once, so the envelope cannot change under its
    hash. A read-only view is kept as it is, the same object: what
    exports it must leave those bytes alone, and the view must not be
    released. Envelopes compare, hash and pickle by the payload's bytes.
    """

    rule_echo: str
    pad_count: int
    start_offset: int
    payload: bytes | memoryview

    def __post_init__(self):
        if not isinstance(self.payload, bytes) and not _is_byte_view(self.payload):
            view = memoryview(self.payload)
            object.__setattr__(self, "payload", view if _is_byte_view(view) else view.tobytes())
        if self.rule_echo not in RULES:
            raise ValueError(f"rule must be one of {RULES}")
        if not 0 <= self.pad_count <= _MAX_PAD:
            raise ValueError(f"pad count {self.pad_count} outside 0..{_MAX_PAD}")
        if len(self.payload) < _MIN_PAYLOAD:
            raise ValueError(f"payload must hold at least {_MIN_PAYLOAD} bytes")
        if self.pad_count > 0 and len(self.payload) != _MIN_PAYLOAD:
            raise ValueError("a nonzero pad count requires a 10-byte payload")
        if not 0 <= self.start_offset < 2 ** 64:
            raise ValueError("start offset does not fit in 64 bits")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if (self.rule_echo, self.pad_count, self.start_offset) != (other.rule_echo, other.pad_count, other.start_offset):
            return False
        a, b = self.payload, other.payload
        if isinstance(a, bytes) and isinstance(b, bytes):
            return a == b
        # memoryview == compares item by item, about 4 ms a MiB
        return bool(np.array_equal(np.frombuffer(a, np.uint8), np.frombuffer(b, np.uint8)))

    def __hash__(self):
        # the hash of bytes, which a view over a numpy array cannot give
        return hash((self.rule_echo, self.pad_count, self.start_offset, bytes(self.payload)))

    def __reduce__(self):
        return type(self), (self.rule_echo, self.pad_count, self.start_offset, bytes(self.payload))

    def __repr__(self):
        return (f"CipherEnvelope(rule_echo={self.rule_echo!r}, pad_count={self.pad_count}, "
                f"start_offset={self.start_offset}, payload=<{len(self.payload)} bytes>)")


def _is_byte_view(payload) -> bool:
    """Whether payload is a read-only, contiguous, 1-D view of unsigned bytes."""
    return (isinstance(payload, memoryview) and payload.readonly and payload.c_contiguous
            and payload.ndim == 1 and payload.format == "B")


def encode_envelope(envelope: CipherEnvelope) -> bytes:
    """Produce the byte-exact IRE1 v1 image: 23-byte header, then payload."""
    return b"".join([
        ENVELOPE_MAGIC,
        bytes([ENVELOPE_VERSION, 0 if envelope.rule_echo == RULE_A else 1, envelope.pad_count]),
        struct.pack("<QQ", envelope.start_offset, len(envelope.payload)),
        envelope.payload,
    ])


def decode_envelope(data: bytes) -> CipherEnvelope:
    """Parse an IRE1 v1 image.

    The payload is a view of data past the header, not a copy; data
    given as a bytearray is copied once, as CipherEnvelope does.

    Total on arbitrary input: malformed bytes raise EnvelopeFormatError,
    nothing else. The declared payload length is checked against the
    actual size before anything is sliced, so a hostile header cannot
    drive allocation.
    """
    if len(data) < 4:
        raise EnvelopeFormatError("truncated envelope: shorter than the magic")
    if data[:4] != ENVELOPE_MAGIC:
        raise EnvelopeFormatError("bad magic: not an IRE1 envelope")
    if len(data) < HEADER_LEN:
        raise EnvelopeFormatError("truncated envelope header")
    version = data[4]
    if version != ENVELOPE_VERSION:
        raise EnvelopeFormatError(f"unsupported envelope version {version}")
    rule_flag = data[5]
    if rule_flag not in (0, 1):
        raise EnvelopeFormatError(f"invalid rule flag {rule_flag:#04x}")
    pad_count = data[6]
    if pad_count > _MAX_PAD:
        raise EnvelopeFormatError(f"pad count {pad_count} exceeds {_MAX_PAD}")
    start_offset, declared = struct.unpack_from("<QQ", data, 7)
    actual = len(data) - HEADER_LEN
    if declared > actual:
        raise EnvelopeFormatError(f"truncated payload: header declares {declared} bytes, {actual} present")
    if declared < actual:
        raise EnvelopeFormatError(f"trailing data: header declares {declared} bytes, {actual} present")
    if declared < _MIN_PAYLOAD:
        raise EnvelopeFormatError(f"payload must hold at least {_MIN_PAYLOAD} bytes")
    if pad_count > 0 and declared != _MIN_PAYLOAD:
        raise EnvelopeFormatError("a nonzero pad count requires a 10-byte payload")
    return CipherEnvelope(
        rule_echo=RULE_A if rule_flag == 0 else RULE_B,
        pad_count=pad_count,
        start_offset=start_offset,
        payload=memoryview(data)[HEADER_LEN:],
    )
