"""The invertible pipeline.

Five stages, each with an exact inverse: pad, substitute, sliding
byte-window permutation, sliding bit-window permutation, keystream
combine. The public stage functions sliding_*_permute, keystream_combine
and their inverses compute them one at a time, over bytes and over
unpacked bits, one bit per byte.

encrypt and decrypt run the same stages over packed bytes, each stage a
public function working in place on one array the size of the message:

    encrypt: pad, substitute, packed_combine, packed_windows, envelope
    decrypt: packed_combine, packed_unwindows, unsubstitute, unpad

Xor commutes, so the combine runs first and the windows of the
substituted bytes are xored into the key. Away from the ends of the
message both windows together are one fixed shift of 8L + S bits, L and
S being the byte and the bit window's slack: packed_windows xors a
realigning read of the substituted bytes into the array, and decrypt
reads the key from 8L + S bits before the offset, so that
packed_unwindows xors the ciphertext in at the opposite shift and leaves
the substituted bytes. Every fixup of either window lies within a few
bytes of an end; those are computed apart, from the message's first and
last bytes only, with the plans the key's window permutations keep.

The combine's keystream and both windows' interiors are the same
realigning read of packed bytes, one kernel (keystream._shift_bits) that
runs a block at a time, so none of the stages holds more than a block of
temporaries beside the message, whatever its length.

The pipeline substitutes a bytearray, never bytes: CPython's
bytes.translate compares every output byte with its input, so that it can
return the input itself when the table changes nothing, and
bytearray.translate makes no such check, which halves the cost of the
stage at 1 MiB. That bytearray is the one buffer each direction needs
anyway: encrypt's copy of the message, which then becomes the payload,
and decrypt's working buffer, trimmed to the message.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass

import numpy as np

from . import sliding
from .envelope import CipherEnvelope
from .errors import CorruptionError, OffsetError, RuleMismatchError
from .formats import BIT_WINDOW, BYTE_WINDOW, RULE_A, RULES
from .keymat import KeySet, SubstitutionTable, WindowPermutation
from .keystream import RbsLoop, _shift_bits

__all__ = [
    "PAD_BYTE",
    "PAD_WIDTH",
    "PaddedMessage",
    "pad",
    "unpad",
    "substitute",
    "unsubstitute",
    "sliding_byte_permute",
    "sliding_byte_unpermute",
    "sliding_bit_permute",
    "sliding_bit_unpermute",
    "keystream_combine",
    "packed_combine",
    "packed_windows",
    "packed_unwindows",
    "encrypt",
    "decrypt",
]

PAD_BYTE = 0x20
PAD_WIDTH = BYTE_WINDOW


@dataclass(frozen=True)
class PaddedMessage:
    """A message brought up to the minimum window width.

    The pad count travels alongside the bytes (and later in the
    envelope header) so that removal is exact even for short messages
    that genuinely end in whitespace. data is held as bytes, so
    changing the source later never changes the message.
    """

    data: bytes
    pad_count: int

    def __post_init__(self):
        if type(self.data) is not bytes:  # a bytes argument is kept, not copied
            object.__setattr__(self, "data", bytes(memoryview(self.data)))
        # operator.index refuses floats and stores numpy integers as int
        object.__setattr__(self, "pad_count", operator.index(self.pad_count))
        if not 0 <= self.pad_count <= PAD_WIDTH:
            raise CorruptionError(f"pad count {self.pad_count} outside 0..{PAD_WIDTH}")
        if len(self.data) < PAD_WIDTH:
            raise CorruptionError(f"padded message holds {len(self.data)} bytes, minimum is {PAD_WIDTH}")
        if self.pad_count:
            if len(self.data) != PAD_WIDTH:
                raise CorruptionError(f"a nonzero pad count requires exactly {PAD_WIDTH} bytes")
            if any(b != PAD_BYTE for b in self.data[-self.pad_count:]):
                raise CorruptionError("pad count inconsistent with trailing bytes")


def _padding(length: int) -> bytes:
    """The 0x20 bytes that bring a message of length bytes up to 10
    bytes: none from 10 bytes on. pad and encrypt both append these."""
    return bytes([PAD_BYTE]) * max(PAD_WIDTH - length, 0)


def pad(message: bytes) -> PaddedMessage:
    """Append 0x20 bytes until the message reaches 10 bytes.

    Messages of 10 bytes or more pass through untouched with a pad
    count of zero.
    """
    data = bytes(message)
    padding = _padding(len(data))
    return PaddedMessage(data + padding, len(padding))


def unpad(padded: PaddedMessage) -> bytes:
    """Drop exactly pad_count trailing bytes."""
    if padded.pad_count == 0:
        return padded.data
    return padded.data[:-padded.pad_count]


def substitute(data: bytes | bytearray, table: SubstitutionTable) -> bytes | bytearray:
    """Replace every byte through the forward table; the result has
    data's type, bytes or bytearray."""
    return data.translate(table.forward)


def unsubstitute(data: bytes | bytearray, table: SubstitutionTable) -> bytes | bytearray:
    """Replace every byte through the inverse table; the result has
    data's type, bytes or bytearray."""
    return data.translate(table.inverse)


def sliding_byte_permute(data: bytes, perm: WindowPermutation) -> bytes:
    """Apply perm to every width-wide byte window, left to right."""
    return sliding.apply_forward(np.frombuffer(data, dtype=np.uint8), perm.plan).tobytes()


def sliding_byte_unpermute(data: bytes, perm: WindowPermutation) -> bytes:
    """Exact inverse of sliding_byte_permute for the same perm."""
    return sliding.apply_backward(np.frombuffer(data, dtype=np.uint8), perm.plan).tobytes()


def sliding_bit_permute(bits: np.ndarray, perm: WindowPermutation) -> np.ndarray:
    """Apply perm to every width-wide bit window, left to right."""
    return sliding.apply_forward(np.asarray(bits, dtype=np.uint8), perm.plan)


def sliding_bit_unpermute(bits: np.ndarray, perm: WindowPermutation) -> np.ndarray:
    """Exact inverse of sliding_bit_permute for the same perm."""
    return sliding.apply_backward(np.asarray(bits, dtype=np.uint8), perm.plan)


def keystream_combine(bits: np.ndarray, rbs: RbsLoop, offset: int, rule: str) -> np.ndarray:
    """Combine a bit buffer with the loop fragment starting at offset.

    Rule B gives 1 where the bits differ (plain xor); rule A gives 1
    where they are equal, the bitwise complement of rule B. Either rule
    is its own inverse for a fixed (rbs, offset, rule), which is exactly
    how decryption undoes this stage. bits is left untouched.
    """
    if rule not in RULES:
        raise ValueError(f"rule must be one of {RULES}")
    bits = np.asarray(bits, dtype=np.uint8)
    out = rbs.fragment(offset, bits.size)
    out ^= bits
    if rule == RULE_A:
        out ^= 1
    return out


# Bytes at each end of a message that hold every fixup of either window.
_EDGE = max(BYTE_WINDOW, -(-BIT_WINDOW // 8))


def _window_shift(byte_perm: WindowPermutation, bit_perm: WindowPermutation) -> int:
    """8L + S, L and S being the byte and the bit window's slack: both
    windows move every bit of the interior back by that many places."""
    return 8 * byte_perm.plan.slack + bit_perm.plan.slack


def packed_combine(out: np.ndarray, rbs: RbsLoop, start: int, rule: str) -> None:
    """Keystream combine over packed bytes, in place: fill out with the
    loop's bits from bit start on, wrapping, complemented under rule A.

    out is a writable uint8 array of any size; start may be any integer
    and is taken modulo the loop's length. Under either rule, bit j of
    out ^ x is keystream_combine of x's bit j. RbsLoop.read realigns
    the loop's bits a block at a time, so the combine allocates no more
    than a block beside out. A rule outside RULES raises ValueError.
    """
    if rule not in RULES:
        raise ValueError(f"rule must be one of {RULES}")
    rbs.read(start % rbs.length, out)
    if rule == RULE_A:
        np.invert(out, out=out)


def packed_windows(out: np.ndarray, substituted: bytes | bytearray, byte_perm: WindowPermutation,
                   bit_perm: WindowPermutation) -> None:
    """Byte window, then bit window, of the substituted bytes t, xored
    into out in place.

    out is a writable uint8 array of t's size, at least 10 bytes; t is
    only read. Bit j of the windows' output is bit j + 8L + S of t
    (_window_shift) wherever no fixup of either window reaches it: from
    byte _EDGE on, and up to _EDGE + ceil(S / 8) bytes from the end, as
    the read runs ceil(S / 8) bytes ahead. That interior is one
    realigning xor. The edges run both windows in a small copy of t's
    first and last bytes, laid out as the in-place kernels expect, and
    are xored in apart; when the two ends meet, the copy is all of t.
    An out of another size raises ValueError, as does a t under 10
    bytes.
    """
    t = np.frombuffer(substituted, dtype=np.uint8)
    if out.size != t.size:
        raise ValueError(f"out holds {out.size} bytes, the substituted bytes {t.size}")
    n, lead, slack = t.size, byte_perm.plan.slack, bit_perm.plan.slack
    margin = -(-slack // 8)
    head, tail = _EDGE + margin + lead, _EDGE + margin
    if head + tail > n:
        head, tail = n, 0
    lo, hi = (_EDGE, n - tail) if tail else (n, n)  # the interior, read straight from t
    _shift_bits(t, 8 * lo + _window_shift(byte_perm, bit_perm), out[lo:hi], xor=True)
    # edges[:cells] stands for t, edges[lead:lead + cells] for the byte
    # window's output, and that output's bits from slack on for the bit
    # window's; the spare bytes after t take the shifts.
    cells = head + tail
    edges = np.empty(cells + lead + margin, dtype=np.uint8)
    edges[:head] = t[:head]
    edges[head:cells] = t[n - tail:]
    sliding.permute_in_place(edges[:cells + lead], byte_perm.plan, n)
    bits = np.unpackbits(edges[lead:])
    sliding.permute_in_place(bits[:8 * cells + slack], bit_perm.plan, 8 * n)
    edges = np.packbits(bits[slack:slack + 8 * cells])
    out[:lo] ^= edges[:lo]
    out[hi:] ^= edges[cells - (n - hi):]


def packed_unwindows(work: np.ndarray, ciphertext: bytes | memoryview, byte_perm: WindowPermutation,
                     bit_perm: WindowPermutation) -> np.ndarray:
    """Inverse bit window, then inverse byte window, of the ciphertext
    combined with the key held in work, in place; returns the
    substituted bytes as the view work[:n], n being the ciphertext's
    length, at least 10.

    work is a writable uint8 array of at least n + L + ceil(S / 8)
    bytes, which n + 19 always covers, L and S being the byte and the
    bit window's slack. On entry, bit 8L + S + j of work holds the key
    bit that ciphertext bit j was combined with; decrypt fills it with
    packed_combine from 8L + S bits before the envelope's offset. Its
    other bits are scratch. With those bits zero, the result is the
    inverse windows of the ciphertext alone. The ciphertext is only
    read.

    work stands for both inverse windows' buffers at once: work[a] is
    byte a of the inverse byte window's output, work[L + b] byte b of
    its input, and bit 8L + S + j of work bit j of the inverse bit
    window's input. So the ciphertext is xored in at that shift, and
    the in-place kernels then write only the fixups, from the unpacked
    edges of work for the bit window and within work for the byte
    window. A ciphertext under 10 bytes, or a shorter work, raises
    ValueError.
    """
    cipher = np.frombuffer(ciphertext, dtype=np.uint8)
    n, lead, slack = cipher.size, byte_perm.plan.slack, bit_perm.plan.slack
    whole, part = divmod(slack, 8)
    margin = whole + (part > 0)
    if n < BYTE_WINDOW:
        raise ValueError(f"the windows need at least {BYTE_WINDOW} bytes, got {n}")
    if work.size < n + lead + margin:
        raise ValueError(f"work holds {work.size} bytes, the windows need {n + lead + margin}")
    lo, hi = lead + margin, n + lead + whole  # the bytes the ciphertext covers in full
    _shift_bits(cipher, 8 * lo - _window_shift(byte_perm, bit_perm), work[lo:hi], xor=True)
    if part:  # the first and the last byte it covers in part
        work[lo - 1] ^= ciphertext[0] >> part
        work[hi] ^= ciphertext[-1] << (8 - part) & 0xFF
    # the bit window's buffer: its n + margin bytes, of which the edges
    # hold every fixup
    buf = work[lead:n + lead + margin]
    head, tail = _EDGE, _EDGE + margin
    if head + tail > buf.size:
        head, tail = buf.size, 0
    edges = np.unpackbits(np.concatenate((buf[:head], buf[buf.size - tail:])))
    sliding.unpermute_in_place(edges[:8 * (head + tail - margin) + slack], bit_perm.plan, 8 * n)
    edges = np.packbits(edges)
    buf[:head] = edges[:head]
    buf[buf.size - tail:] = edges[head:]
    return sliding.unpermute_in_place(work[:n + lead], byte_perm.plan, n)


def _check_offset(offset: int, rbs: RbsLoop) -> int:
    """offset as an int, if it lies inside the loop; a float raises TypeError."""
    offset = operator.index(offset)
    if not 0 <= offset < rbs.length:
        raise OffsetError(f"start offset {offset} outside the RBS loop of {rbs.length} bits")
    return offset


def encrypt(message: bytes, keyset: KeySet, offset: int) -> CipherEnvelope:
    """Run the full pipeline; offset picks where keystream drawing starts.

    Deterministic for a fixed (message, keyset, offset). Callers wanting
    distinct ciphertexts per send must draw a fresh offset each time. An
    offset outside the loop raises OffsetError, and one that is not an
    integer TypeError. The payload, a read-only memoryview, is the
    pipeline's one copy of the message: a bytearray, padded as pad
    pads, substituted, then overwritten by the combine and the windows.
    Changing message afterwards leaves it as it is.
    """
    offset = _check_offset(offset, keyset.rbs)
    work = bytearray(memoryview(message))  # memoryview refuses an int, which bytearray reads as a size
    padding = _padding(len(work))
    work += padding
    substituted = substitute(work, keyset.sub)
    payload = np.frombuffer(work, dtype=np.uint8)
    packed_combine(payload, keyset.rbs, offset, keyset.rule)
    packed_windows(payload, substituted, keyset.byte_perm, keyset.bit_perm)
    payload.setflags(write=False)
    return CipherEnvelope(
        rule_echo=keyset.rule,
        pad_count=len(padding),
        start_offset=offset,
        payload=memoryview(payload),
    )


def decrypt(envelope: CipherEnvelope, keyset: KeySet) -> bytes:
    """Exact inverse of encrypt under the same keyset.

    An envelope made under another rule raises RuleMismatchError; one
    whose start offset lies outside the loop raises OffsetError. The
    combine and the inverse windows run in one bytearray, which is then
    trimmed to the message and unsubstituted; PaddedMessage copies the
    result to the bytes returned.
    """
    if envelope.rule_echo != keyset.rule:
        raise RuleMismatchError(
            f"envelope was made under rule {envelope.rule_echo}, keyset holds rule {keyset.rule}")
    _check_offset(envelope.start_offset, keyset.rbs)
    # bytearray(k) allocates k + 1 bytes, so work's memory is the size
    # of a bytes object of n bytes: it covers the inverse windows' at
    # most 19 spare bytes, and lets the bytes returned, made once work is
    # freed, take its memory; at 1 MiB the heap would otherwise grow and
    # shrink by a page-faulted megabyte on every other call. Sized from
    # n, as the payload may be a view.
    n = len(envelope.payload)
    work = bytearray(n + sys.getsizeof(b"") - 1)
    view = np.frombuffer(work, dtype=np.uint8)
    packed_combine(view, keyset.rbs, envelope.start_offset - _window_shift(keyset.byte_perm, keyset.bit_perm),
                   keyset.rule)
    packed_unwindows(view, envelope.payload, keyset.byte_perm, keyset.bit_perm)
    del view, work[n:]  # a bytearray resizes only once no view holds it
    plain = unsubstitute(work, keyset.sub)
    del work  # before PaddedMessage copies plain to bytes, or the call peaks at 3x
    return unpad(PaddedMessage(plain, envelope.pad_count))
