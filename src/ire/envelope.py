"""Ciphertext container: the cleartext header riding with each message.

An envelope travels as IRE1 version 1. ire.formats states its layout,
its header struct ENVELOPE_HEADER and its rule flag, and holds
read_header, which checks the six bytes that an IREK key file opens
with too. encode_envelope packs the header; decode_envelope has
read_header return its fields, then checks those only it reads, the
pad count and the declared length. CipherEnvelope checks the rest of
what an envelope must hold, for decoded and built envelopes alike.

The start offset travels in the clear by design; without the keyset it
names a position in a loop the attacker does not have.

A CipherEnvelope's payload is an immutable bytes-like object: bytes, or
a read-only one-dimensional memoryview of unsigned bytes.
decode_envelope and ops.encrypt hand the payload over as such a view,
without copying it; bytes(envelope.payload) gives a copy.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EnvelopeFormatError
from .formats import BYTE_WINDOW, ENVELOPE_HEADER, ENVELOPE_MAGIC, ENVELOPE_VERSION, HEADER_LEN, RULES, read_header

__all__ = [
    "ENVELOPE_MAGIC",
    "ENVELOPE_VERSION",
    "HEADER_LEN",
    "CipherEnvelope",
    "encode_envelope",
    "decode_envelope",
]

# a payload fills at least one byte window, and padding only ever
# brings a message up to one
_MAX_PAD = _MIN_PAYLOAD = BYTE_WINDOW


@dataclass(frozen=True, repr=False)
class CipherEnvelope:
    """A payload and the header fields that travel with it.

    A payload given as a writable buffer (a bytearray, a writable view)
    is copied to bytes once, so the envelope cannot change under its
    hash. A read-only view is kept as it is, the same object: what
    exports it must leave those bytes alone, and the view must not be
    released. Envelopes compare, hash and pickle by the payload's bytes;
    the payload's hash is computed once, on first use, and kept.
    """

    rule_echo: str
    pad_count: int
    start_offset: int
    payload: bytes | memoryview

    def __post_init__(self):
        # operator.index refuses floats and stores numpy integers as int
        object.__setattr__(self, "pad_count", operator.index(self.pad_count))
        object.__setattr__(self, "start_offset", operator.index(self.start_offset))
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
            raise ValueError(f"a nonzero pad count requires a {_MIN_PAYLOAD}-byte payload")
        if not 0 <= self.start_offset < 2 ** 64:
            raise ValueError("start offset does not fit in 64 bits")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if (self.rule_echo, self.pad_count, self.start_offset) != (other.rule_echo, other.pad_count, other.start_offset):
            return False
        # memoryview == compares item by item, about 4 ms a MiB
        return bool(np.array_equal(np.frombuffer(self.payload, np.uint8), np.frombuffer(other.payload, np.uint8)))

    @cached_property
    def _payload_hash(self) -> int:
        # the hash of bytes, which a view over a numpy array cannot give;
        # copied once per envelope, not on every hash
        return hash(bytes(self.payload))

    def __hash__(self):
        return hash((self.rule_echo, self.pad_count, self.start_offset, self._payload_hash))

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
    """Produce the byte-exact IRE1 v1 image: the header packed through
    ENVELOPE_HEADER, then the payload."""
    return b"".join([
        ENVELOPE_HEADER.pack(ENVELOPE_MAGIC, ENVELOPE_VERSION, RULES.index(envelope.rule_echo),
                             envelope.pad_count, envelope.start_offset, len(envelope.payload)),
        envelope.payload,
    ])


def decode_envelope(data: bytes) -> CipherEnvelope:
    """Parse an IRE1 v1 image.

    The payload is a view of data past the header, not a copy; data
    given as a bytearray is copied once, as CipherEnvelope does.

    Total on arbitrary input: malformed bytes raise EnvelopeFormatError,
    nothing else. The declared payload length is checked against the
    actual size before anything is sliced, so a hostile header cannot
    drive allocation. What CipherEnvelope refuses, a payload under 10
    bytes or a nonzero pad count beside one of more, it refuses here
    too, as an EnvelopeFormatError with the same message.
    """
    rule, pad_count, start_offset, declared = read_header(
        data, ENVELOPE_HEADER, ENVELOPE_MAGIC, ENVELOPE_VERSION, EnvelopeFormatError, "envelope")
    if pad_count > _MAX_PAD:
        raise EnvelopeFormatError(f"pad count {pad_count} exceeds {_MAX_PAD}")
    actual = len(data) - HEADER_LEN
    if declared > actual:
        raise EnvelopeFormatError(f"truncated payload: header declares {declared} bytes, {actual} present")
    if declared < actual:
        raise EnvelopeFormatError(f"trailing data: header declares {declared} bytes, {actual} present")
    try:
        return CipherEnvelope(rule, pad_count, start_offset, memoryview(data)[HEADER_LEN:])
    except ValueError as exc:  # the payload's size, which CipherEnvelope checks
        message = str(exc)
    # raised past the handler, so that no traceback keeps a view of data
    raise EnvelopeFormatError(message)
