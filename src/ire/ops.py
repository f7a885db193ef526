"""The invertible pipeline.

Six stages, each with an exact inverse: pad, substitute, sliding
byte-window permutation, sliding bit-window permutation, keystream
combine. encrypt composes them in that order; decrypt applies the
inverses in reverse order. Both run the bit window and the combine
together over packed bytes (_bit_permute_combine and
_combine_bit_unpermute): the window's fixups, which lie within W bits
of the ends, are moved in an unpacked copy of the edges only, and the
rest is one blocked pass of key reads and realigning reads. The public
stage functions compute the same stages one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sliding
from .envelope import CipherEnvelope
from .errors import CorruptionError, OffsetError, RuleMismatchError
from .keymat import RULE_A, RULES, KeySet, SubstitutionTable, WindowPermutation
from .keystream import RbsLoop, _read_bits, _xor_bits

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
    "encrypt",
    "decrypt",
]

PAD_BYTE = 0x20
PAD_WIDTH = 10


@dataclass(frozen=True)
class PaddedMessage:
    """A message brought up to the minimum window width.

    The pad count travels alongside the bytes (and later in the
    envelope header) so that removal is exact even for short messages
    that genuinely end in whitespace.
    """

    data: bytes
    pad_count: int

    def __post_init__(self):
        if not 0 <= self.pad_count <= PAD_WIDTH:
            raise CorruptionError(f"pad count {self.pad_count} outside 0..{PAD_WIDTH}")
        if len(self.data) < PAD_WIDTH:
            raise CorruptionError(f"padded message holds {len(self.data)} bytes, minimum is {PAD_WIDTH}")
        if self.pad_count:
            if len(self.data) != PAD_WIDTH:
                raise CorruptionError("a nonzero pad count requires exactly 10 bytes")
            if any(b != PAD_BYTE for b in self.data[-self.pad_count:]):
                raise CorruptionError("pad count inconsistent with trailing bytes")


def pad(message: bytes) -> PaddedMessage:
    """Append 0x20 bytes until the message reaches 10 bytes.

    Messages of 10 bytes or more pass through untouched with a pad
    count of zero.
    """
    if len(message) >= PAD_WIDTH:
        return PaddedMessage(bytes(message), 0)
    count = PAD_WIDTH - len(message)
    return PaddedMessage(bytes(message) + bytes([PAD_BYTE]) * count, count)


def unpad(padded: PaddedMessage) -> bytes:
    """Drop exactly pad_count trailing bytes."""
    if padded.pad_count == 0:
        return padded.data
    return padded.data[:-padded.pad_count]


def substitute(data: bytes, table: SubstitutionTable) -> bytes:
    """Replace every byte through the forward table."""
    return data.translate(table.forward)


def unsubstitute(data: bytes, table: SubstitutionTable) -> bytes:
    """Replace every byte through the inverse table."""
    return data.translate(table.inverse)


def sliding_byte_permute(data: bytes, perm: WindowPermutation) -> bytes:
    """Apply perm to every width-wide byte window, left to right."""
    return sliding.apply_forward(np.frombuffer(data, dtype=np.uint8), perm.map).tobytes()


def sliding_byte_unpermute(data: bytes, perm: WindowPermutation) -> bytes:
    """Exact inverse of sliding_byte_permute for the same perm."""
    return sliding.apply_backward(np.frombuffer(data, dtype=np.uint8), perm.map).tobytes()


def sliding_bit_permute(bits: np.ndarray, perm: WindowPermutation) -> np.ndarray:
    """Apply perm to every width-wide bit window, left to right."""
    return sliding.apply_forward(np.asarray(bits, dtype=np.uint8), perm.map)


def sliding_bit_unpermute(bits: np.ndarray, perm: WindowPermutation) -> np.ndarray:
    """Exact inverse of sliding_bit_permute for the same perm."""
    return sliding.apply_backward(np.asarray(bits, dtype=np.uint8), perm.map)


# Bytes handled at once by the bit stage of encrypt and decrypt: small
# enough that a block and its temporaries stay in cache, large enough
# that the per-block numpy calls cost little.
_BLOCK_BYTES = 1 << 17


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


def _edge_bytes(size: int, width: int) -> tuple[int, int]:
    """Bytes at the head and at the tail of a buffer of size >= W/8 bytes
    that hold every fixup of a W-bit window: ceil(W/8) at each end, or,
    when those would overlap, the whole buffer split between the two."""
    tail = -(-width // 8)
    return min(tail, size - tail), tail


def _bit_permute_combine(buf: np.ndarray, lead: int, out: np.ndarray, plan: sliding.ShiftPlan,
                         rbs: RbsLoop, offset: int, rule: str) -> None:
    """Bit window, then keystream combine, of the packed bytes at
    buf[lead:lead + out.size], written to out.

    Output bit j is input bit j + slack, except at the plan's fixups.
    So the fixups are first written into buf at the bits where that
    read fetches them, as the in-place kernels do; this unpacks only the
    edges of the input and the ceil(slack / 8) bytes after it, which
    buf must hold. Their contents do not matter: the read takes from
    them only the last slack output bits, and those are all fixups.
    After that each block is one key read and one realigning xor of
    packed bytes.
    """
    size, slack = out.size, plan.slack
    head, tail = _edge_bytes(size, plan.width)
    end, margin = lead + size, -(-slack // 8)
    edges = np.unpackbits(np.concatenate((buf[lead:lead + head], buf[end - tail:end + margin])))
    # Indexed from either end, edges[:cells] reads like the whole input,
    # and edges[slack:cells + slack] like the bits the read fetches.
    cells = 8 * (head + tail)
    src, dst = plan.fixups(8 * size)
    edges[slack:cells + slack][dst] = edges[:cells][src]
    edges = np.packbits(edges)
    buf[lead:lead + head] = edges[:head]
    buf[end - tail:end + margin] = edges[head:]
    for k0 in range(0, size, _BLOCK_BYTES):
        block = out[k0:k0 + _BLOCK_BYTES]
        rbs.read((offset + 8 * k0) % rbs.length, block)
        _xor_bits(buf, 8 * (lead + k0) + slack, block)
        if rule == RULE_A:
            np.invert(block, out=block)


def _combine_bit_unpermute(ciphertext: np.ndarray, combined: np.ndarray, lead: int, out: np.ndarray,
                           plan: sliding.ShiftPlan, rbs: RbsLoop, offset: int, rule: str) -> None:
    """Keystream combine, then inverse bit window, of ciphertext, written
    to out; the combined bits are left at combined[lead:].

    Each block of ciphertext is xored with the key into combined, and
    out reads it back realigned: output bit j is combined bit j - slack,
    except at the plan's fixups. The read of the first block starts up
    to ceil(slack / 8) bytes before combined[lead], whose contents do
    not matter: they reach only the first slack output bits, and the
    first W are all fixups. The fixups are then written into out from
    the edges of combined; no key is needed for them.
    """
    size, slack = out.size, plan.slack
    for k0 in range(0, size, _BLOCK_BYTES):
        block = out[k0:k0 + _BLOCK_BYTES]
        into = combined[lead + k0:lead + k0 + block.size]
        rbs.read((offset + 8 * k0) % rbs.length, into)
        into ^= ciphertext[k0:k0 + block.size]
        if rule == RULE_A:
            np.invert(into, out=into)
        _read_bits(combined, 8 * (lead + k0) - slack, block)
    head, tail = _edge_bytes(size, plan.width)
    end = lead + size
    edges = np.unpackbits(np.concatenate((combined[lead:lead + head], combined[end - tail:end],
                                          out[:head], out[size - tail:])))
    # Indexed from either end, edges[:cells] reads like the combined bits
    # and edges[cells:] like the output.
    cells = 8 * (head + tail)
    src, dst = plan.fixups(8 * size)
    edges[cells:][src] = edges[:cells][dst]
    edges = np.packbits(edges[cells:])
    out[:head] = edges[:head]
    out[size - tail:] = edges[head:]


def _check_offset(offset: int, rbs: RbsLoop) -> None:
    if not 0 <= offset < rbs.length:
        raise OffsetError(f"start offset {offset} outside the RBS loop of {rbs.length} bits")


def encrypt(message: bytes, keyset: KeySet, offset: int) -> CipherEnvelope:
    """Run the full pipeline; offset picks where keystream drawing starts.

    Deterministic for a fixed (message, keyset, offset). Callers wanting
    distinct ciphertexts per send must draw a fresh offset each time. An
    offset outside the loop raises OffsetError. The substituted bytes
    land in the bit stage's input buffer, where the byte window runs in
    place.
    """
    _check_offset(offset, keyset.rbs)
    padded = pad(message)
    byte_plan = sliding.shift_plan(keyset.byte_perm.map)
    bit_plan = sliding.shift_plan(keyset.bit_perm.map)
    n = len(padded.data)
    # The byte window reads the substituted bytes at buf[:n] and leaves
    # its output at buf[lead:lead + n]; the bit window reads up to
    # ceil(slack / 8) bytes past that, which it fills itself.
    lead = byte_plan.slack
    buf = np.empty(lead + n - (-bit_plan.slack // 8), dtype=np.uint8)
    buf[:n] = np.frombuffer(substitute(padded.data, keyset.sub), dtype=np.uint8)
    sliding.permute_in_place(buf[:lead + n], byte_plan)
    payload = np.empty(n, dtype=np.uint8)
    _bit_permute_combine(buf, lead, payload, bit_plan, keyset.rbs, offset, keyset.rule)
    return CipherEnvelope(
        rule_echo=keyset.rule,
        pad_count=padded.pad_count,
        start_offset=offset,
        payload=payload.tobytes(),
    )


def decrypt(envelope: CipherEnvelope, keyset: KeySet) -> bytes:
    """Exact inverse of encrypt under the same keyset.

    An envelope made under another rule raises RuleMismatchError; one
    whose start offset lies outside the loop raises OffsetError.
    """
    if envelope.rule_echo != keyset.rule:
        raise RuleMismatchError(
            f"envelope was made under rule {envelope.rule_echo}, keyset holds rule {keyset.rule}")
    _check_offset(envelope.start_offset, keyset.rbs)
    byte_plan = sliding.shift_plan(keyset.byte_perm.map)
    bit_plan = sliding.shift_plan(keyset.bit_perm.map)
    n = len(envelope.payload)
    lead = -(-bit_plan.slack // 8)
    buf = np.empty(byte_plan.slack + n, dtype=np.uint8)
    combined = np.empty(lead + n, dtype=np.uint8)
    _combine_bit_unpermute(np.frombuffer(envelope.payload, dtype=np.uint8), combined, lead,
                           buf[byte_plan.slack:], bit_plan, keyset.rbs, envelope.start_offset,
                           keyset.rule)
    del combined  # not held beside the copies below
    descrambled = sliding.unpermute_in_place(buf, byte_plan).tobytes()
    return unpad(PaddedMessage(unsubstitute(descrambled, keyset.sub), envelope.pad_count))
