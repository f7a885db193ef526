"""The invertible pipeline.

Six stages, each with an exact inverse: pad, substitute, sliding
byte-window permutation, sliding bit-window permutation, keystream
combine. encrypt composes them in that order; decrypt applies the
inverses in reverse order. Both run the bit window and the combine as
one pass over packed bytes (_bit_stage); the public stage functions
compute the same stages one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sliding
from .envelope import CipherEnvelope
from .errors import CorruptionError, OffsetError, RuleMismatchError
from .keymat import RULE_A, RULES, KeySet, SubstitutionTable, WindowPermutation
from .keystream import RbsLoop

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


def _check_length(size: int, perm: WindowPermutation, unit: str) -> None:
    if size < perm.width:
        raise ValueError(f"need at least {perm.width} {unit}, got {size}")


def sliding_byte_permute(data: bytes, perm: WindowPermutation) -> bytes:
    """Apply perm to every width-wide byte window, left to right."""
    _check_length(len(data), perm, "bytes")
    return sliding.apply_forward(np.frombuffer(data, dtype=np.uint8), perm.map).tobytes()


def sliding_byte_unpermute(data: bytes, perm: WindowPermutation) -> bytes:
    """Exact inverse of sliding_byte_permute for the same perm."""
    _check_length(len(data), perm, "bytes")
    return sliding.apply_backward(np.frombuffer(data, dtype=np.uint8), perm.map).tobytes()


def sliding_bit_permute(bits: np.ndarray, perm: WindowPermutation) -> np.ndarray:
    """Apply perm to every width-wide bit window, left to right."""
    _check_length(bits.size, perm, "bits")
    return sliding.apply_forward(np.asarray(bits, dtype=np.uint8), perm.map)


def sliding_bit_unpermute(bits: np.ndarray, perm: WindowPermutation) -> np.ndarray:
    """Exact inverse of sliding_bit_permute for the same perm."""
    _check_length(bits.size, perm, "bits")
    return sliding.apply_backward(np.asarray(bits, dtype=np.uint8), perm.map)


def _check_combine(rbs: RbsLoop, offset: int, rule: str) -> None:
    if rule not in RULES:
        raise ValueError(f"rule must be one of {RULES}")
    if not 0 <= offset < rbs.length:
        raise ValueError(f"offset {offset} outside [0, {rbs.length})")


# Bytes handled at once by the bit stage of encrypt and decrypt, and by
# keystream_combine: small enough that a block and its temporaries stay
# in cache, large enough that the per-block numpy calls cost little.
_BLOCK_BYTES = 1 << 17


def keystream_combine(bits: np.ndarray, rbs: RbsLoop, offset: int, rule: str) -> np.ndarray:
    """Combine a bit buffer with the loop fragment starting at offset.

    Rule B gives 1 where the bits differ (plain xor); rule A gives 1
    where they are equal, the bitwise complement of rule B. Either rule
    is its own inverse for a fixed (rbs, offset, rule), which is exactly
    how decryption undoes this stage. bits is left untouched; the copy
    is xored in place block by block against loop fragments, which
    unpack only the packed bytes of the loop they cover.
    """
    _check_combine(rbs, offset, rule)
    out = np.array(bits, dtype=np.uint8)
    for k0 in range(0, out.size, _BLOCK_BYTES):  # one bit per byte here
        block = out[k0:k0 + _BLOCK_BYTES]
        block ^= rbs.fragment((offset + k0) % rbs.length, block.size)
    if rule == RULE_A:
        out ^= 1
    return out


def _read_bits(src: np.ndarray, bit: int, out: np.ndarray) -> None:
    """Fill out[k] with the 8 bits of packed src that start at bit + 8k."""
    q, r = divmod(bit, 8)
    if r == 0:
        out[:] = src[q:q + out.size]
        return
    # a uint8 multiply is the left shift numpy vectorizes; it wraps like one
    np.multiply(src[q:q + out.size], 1 << r, out=out)
    out |= src[q + 1:q + out.size + 1] >> (8 - r)


def _read_key(rbs: RbsLoop, start: int, out: np.ndarray) -> None:
    """Fill out with the packed key bits from loop bit start on, wrapping."""
    room = rbs.length - start
    bits = 8 * out.size
    if bits <= room:
        _read_bits(rbs.packed, start, out)
    elif bits - room > rbs.length:  # a loop shorter than the block: many laps
        out[:] = np.packbits(rbs.fragment(start, bits))
    else:
        head, cut = divmod(room, 8)
        _read_bits(rbs.packed, start, out[:head])
        if cut:  # the byte that straddles the end of the loop
            out[head] = np.packbits(rbs.fragment(start + 8 * head, 8))[0]
            head += 1
        _read_bits(rbs.packed, 8 * head - room, out[head:])


def _bit_stage(padded: np.ndarray, lead: int, out: np.ndarray, plan: sliding.ShiftPlan,
               rbs: RbsLoop, offset: int, rule: str, ciphertext: np.ndarray | None = None) -> None:
    """Bit window and keystream combine of packed bytes, written to out.

    Encrypt (ciphertext None) permutes, then combines; its input already
    sits at padded[lead:lead + out.size]. Decrypt combines, then
    unpermutes: each block of ciphertext is xored with the key straight
    into that place in padded. lead is at least ceil(plan.slack / 8),
    and zero bytes follow the input to the end of padded, at least
    lead + 1 of them. Either way output bit j is input bit j + shift,
    combined with key bit offset + j forward and offset + j + shift
    backward, except at the plan's fixups. So the stage is a key xor and
    a realigning read of packed bytes per block, then one key-free xor
    patch over the first and last W output bits: at each fixup, the
    input bit it takes xored with the one the block read put there.
    """
    size = out.size
    forward = ciphertext is None
    shift = plan.slack if forward else -plan.slack
    key = np.empty(min(_BLOCK_BYTES, size), dtype=np.uint8)
    for k0 in range(0, size, _BLOCK_BYTES):
        block = out[k0:k0 + _BLOCK_BYTES]
        _read_key(rbs, (offset + 8 * k0) % rbs.length, key[:block.size])
        if not forward:  # the read below looks back into the combined input
            np.bitwise_xor(ciphertext[k0:k0 + block.size], key[:block.size],
                           out=padded[lead + k0:lead + k0 + block.size])
        _read_bits(padded, 8 * (lead + k0) + shift, block)
        if forward:
            block ^= key[:block.size]
        if rule == RULE_A:
            block ^= 0xFF
    src, dst = plan.fixups(8 * size)
    to, source = (dst, src) if forward else (src, dst)
    # The input bits at both ends, from lead bytes before the input to
    # lead bytes after it. Sliced from 8 * lead + s, edges reads input
    # bit j + s at index j >= 0 and bit n + j + s at index j < 0, which
    # is how the fixup tables count.
    reach = -(-(plan.width + plan.slack) // 8)
    edges = np.unpackbits(np.concatenate((
        padded[:lead + reach], padded[lead + size - reach:2 * lead + size])))
    inner = edges.size - 8 * lead
    delta = edges[8 * lead:inner][source] ^ edges[8 * lead + shift:inner + shift][to]
    half = -(-plan.width // 8)
    patch = np.zeros(16 * half, dtype=np.uint8)
    patch[to] = delta
    patch = np.packbits(patch)
    out[:half] ^= patch[:half]
    out[size - half:] ^= patch[half:]


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
    # room before the input for the byte window's slack and the bit window's
    lead = max(byte_plan.slack, -(-bit_plan.slack // 8))
    buf = np.empty(2 * lead + n + 1, dtype=np.uint8)
    buf[lead + n:] = 0
    start = lead - byte_plan.slack
    buf[start:start + n] = np.frombuffer(substitute(padded.data, keyset.sub), dtype=np.uint8)
    sliding.permute_in_place(buf[start:lead + n], byte_plan)
    payload = np.empty(n, dtype=np.uint8)
    _bit_stage(buf, lead, payload, bit_plan, keyset.rbs, offset, keyset.rule)
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
    padded = np.empty(2 * lead + n + 1, dtype=np.uint8)
    padded[:lead] = 0
    padded[lead + n:] = 0
    _bit_stage(padded, lead, buf[byte_plan.slack:], bit_plan, keyset.rbs, envelope.start_offset,
               keyset.rule, ciphertext=np.frombuffer(envelope.payload, dtype=np.uint8))
    del padded  # not held beside the copies below
    descrambled = sliding.unpermute_in_place(buf, byte_plan).tobytes()
    return unpad(PaddedMessage(unsubstitute(descrambled, keyset.sub), envelope.pad_count))
