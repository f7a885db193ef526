"""Key material: substitution table, window permutations, keyset file.

The keyset file format (IREK version 1, all integers little-endian):

    offset 0    magic "IREK"
    offset 4    version, 0x01
    offset 5    combine rule flag: 0x00 rule A, 0x01 rule B
    offset 6    substitution table, 256 bytes (forward direction only)
    offset 262  byte-window permutation, 10 bytes, values 0..9
    offset 272  bit-window permutation, 80 bytes, values 0..79
    offset 352  RBS bit length, u64
    offset 360  RBS bits, MSB-first packed, ceil(length/8) bytes;
                pad bits of the final byte are zero

The inverse substitution table is not stored; it is rebuilt on load.

An IRE1 envelope (envelope.py) opens with the same six bytes: magic,
version and rule flag. _read_header checks them for both formats, and
_RULE_FLAGS is the one statement of the flag's encoding.
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass
from functools import cached_property

from .entropy import resolve_rng
from .errors import KeyFormatError
from .keystream import DEFAULT_RBS_BITS, RbsLoop, generate_rbs
from .sliding import ShiftPlan, invert_map

__all__ = [
    "RULE_A",
    "RULE_B",
    "RULES",
    "BYTE_WINDOW",
    "BIT_WINDOW",
    "KEY_MAGIC",
    "KEY_VERSION",
    "SubstitutionTable",
    "WindowPermutation",
    "KeySet",
    "generate_substitution_table",
    "generate_window_permutation",
    "invert_window_permutation",
    "generate_keyset",
    "serialize_keyset",
    "parse_keyset",
    "keyset_fingerprint",
]

RULE_A = "A"  # equal bits combine to 1
RULE_B = "B"  # equal bits combine to 0
RULES = (RULE_A, RULE_B)

BYTE_WINDOW = 10
BIT_WINDOW = 80

KEY_MAGIC = b"IREK"
KEY_VERSION = 1

_RULE_FLAGS = {RULE_A: 0, RULE_B: 1}
_FLAG_RULES = {flag: rule for rule, flag in _RULE_FLAGS.items()}
_RBS_LENGTH_AT = 352
_RBS_AT = 360
_IDENTITY = bytes(range(256))


@dataclass(frozen=True)
class SubstitutionTable:
    """A bijection on the 256 byte values plus its inverse."""

    forward: bytes
    inverse: bytes

    def __post_init__(self):
        if len(self.forward) != 256 or len(set(self.forward)) != 256:
            raise ValueError("forward table must be a bijection on the 256 byte values")
        if len(self.inverse) != 256:
            raise ValueError("inverse table must hold 256 entries")
        if self.forward.translate(self.inverse) != _IDENTITY:
            raise ValueError("inverse table does not invert the forward table")

    @classmethod
    def from_forward(cls, forward: bytes) -> "SubstitutionTable":
        """Build the inverse; this is how a stored table is rehydrated."""
        if len(forward) != 256:
            raise ValueError("forward table must be a bijection on the 256 byte values")
        return cls(bytes(forward), bytes.maketrans(forward, _IDENTITY))

    @classmethod
    def identity(cls) -> "SubstitutionTable":
        return cls(_IDENTITY, _IDENTITY)


@dataclass(frozen=True)
class WindowPermutation:
    """Permutation applied inside each window: output[i] = input[map[i]].

    plan, the sliding pass's shift and fixups, is built on first use and
    kept; not being a field, it stays out of equality and hashing.
    """

    width: int
    map: tuple[int, ...]

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("window width must be positive")
        object.__setattr__(self, "map", tuple(self.map))
        if len(self.map) != self.width or sorted(self.map) != list(range(self.width)):
            raise ValueError(f"map must be a permutation of 0..{self.width - 1}")

    @cached_property
    def plan(self) -> ShiftPlan:
        return ShiftPlan(self.map)

    @classmethod
    def identity(cls, width: int) -> "WindowPermutation":
        return cls(width, tuple(range(width)))


@dataclass(frozen=True)
class KeySet:
    """The full shared secret.

    Both window permutations and the substitution table are fixed for
    the life of the keyset; only the start offset varies per message.
    """

    sub: SubstitutionTable
    byte_perm: WindowPermutation
    bit_perm: WindowPermutation
    rbs: RbsLoop
    rule: str

    def __post_init__(self):
        if self.byte_perm.width != BYTE_WINDOW:
            raise ValueError(f"byte-window permutation must have width {BYTE_WINDOW}")
        if self.bit_perm.width != BIT_WINDOW:
            raise ValueError(f"bit-window permutation must have width {BIT_WINDOW}")
        if self.rule not in RULES:
            raise ValueError(f"rule must be one of {RULES}")


def _fisher_yates(count: int, rng: random.Random) -> list[int]:
    # Swap-based shuffle with uniform index draws; randrange is
    # rejection-sampled, so every ordering is equally likely.
    order = list(range(count))
    for i in range(count - 1, 0, -1):
        j = rng.randrange(i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def generate_substitution_table(rng: random.Random | None = None) -> SubstitutionTable:
    """Draw a uniformly random byte bijection."""
    return SubstitutionTable.from_forward(bytes(_fisher_yates(256, resolve_rng(rng))))


def generate_window_permutation(rng: random.Random | None, width: int) -> WindowPermutation:
    """Draw a uniformly random window permutation of the given width."""
    if width < 1:
        raise ValueError("window width must be positive")
    return WindowPermutation(width, tuple(_fisher_yates(width, resolve_rng(rng))))


def invert_window_permutation(perm: WindowPermutation) -> WindowPermutation:
    """The permutation that undoes perm: inverse.map[perm.map[i]] == i."""
    return WindowPermutation(perm.width, invert_map(perm.map))


def generate_keyset(
    rng: random.Random | None = None,
    rbs_bits: int = DEFAULT_RBS_BITS,
    rule: str = RULE_B,
) -> KeySet:
    """Draw a complete fresh keyset."""
    rng = resolve_rng(rng)
    return KeySet(
        sub=generate_substitution_table(rng),
        byte_perm=generate_window_permutation(rng, BYTE_WINDOW),
        bit_perm=generate_window_permutation(rng, BIT_WINDOW),
        rbs=generate_rbs(rng, rbs_bits),
        rule=rule,
    )


def serialize_keyset(keyset: KeySet) -> bytes:
    """Produce the byte-exact IREK v1 image of a keyset.

    The packed loop is joined into the image straight from the keyset,
    so the image is the only loop-sized allocation.
    """
    return b"".join([
        KEY_MAGIC,
        bytes([KEY_VERSION, _RULE_FLAGS[keyset.rule]]),
        keyset.sub.forward,
        bytes(keyset.byte_perm.map),
        bytes(keyset.bit_perm.map),
        struct.pack("<Q", keyset.rbs.length),
        keyset.rbs.packed,
    ])


def _read_header(data, magic: bytes, version: int, min_len: int, error: type[Exception], kind: str) -> str:
    """Check the six bytes an IREK key file and an IRE1 envelope both
    open with, magic, version and rule flag, and that data holds the
    format's fixed-size header, min_len bytes; return the rule. A failed
    check raises error with a message that names kind, "key file" or
    "envelope".
    """
    if len(data) < len(magic):
        raise error(f"truncated {kind}: shorter than the magic")
    if data[:len(magic)] != magic:
        raise error(f"bad magic: not an {magic.decode()} {kind}")
    if len(data) < min_len:
        raise error(f"truncated {kind}: header cut short")
    if data[4] != version:
        raise error(f"unsupported {kind} version {data[4]}")
    if data[5] not in _FLAG_RULES:
        raise error(f"invalid rule flag {data[5]:#04x}")
    return _FLAG_RULES[data[5]]


def parse_keyset(data: bytes) -> KeySet:
    """Parse and validate an IREK v1 file.

    Total on arbitrary input: malformed bytes raise KeyFormatError,
    nothing else, and nothing larger than the input is ever allocated.
    The packed RBS is never unpacked. Parsed from bytes, the keyset's
    loop is a view of data past the header, not a copy, and keeps data
    alive; data given as a bytearray, or a view of one, is copied once,
    as RbsLoop.from_packed does.
    """
    rule = _read_header(data, KEY_MAGIC, KEY_VERSION, _RBS_AT, KeyFormatError, "key file")
    forward = data[6:262]
    if len(set(forward)) != 256:
        raise KeyFormatError("invalid substitution table: not a bijection")
    byte_map = tuple(data[262:272])
    if sorted(byte_map) != list(range(BYTE_WINDOW)):
        raise KeyFormatError("byte-window map is not a permutation of 0..9")
    bit_map = tuple(data[272:352])
    if sorted(bit_map) != list(range(BIT_WINDOW)):
        raise KeyFormatError("bit-window map is not a permutation of 0..79")

    (rbs_bits,) = struct.unpack_from("<Q", data, _RBS_LENGTH_AT)
    if rbs_bits < RbsLoop.MIN_BITS:
        raise KeyFormatError(f"RBS shorter than {RbsLoop.MIN_BITS} bits")
    expected = _RBS_AT + (rbs_bits + 7) // 8  # checked before any allocation
    if len(data) < expected:
        raise KeyFormatError("truncated key file: RBS section cut short")
    if len(data) > expected:
        raise KeyFormatError("declared RBS length inconsistent with file size")
    pad_bits = -rbs_bits % 8  # only the last byte holds any
    if data[-1] & ((1 << pad_bits) - 1):
        raise KeyFormatError("nonzero pad bits after the RBS")

    return KeySet(
        sub=SubstitutionTable.from_forward(forward),
        byte_perm=WindowPermutation(BYTE_WINDOW, byte_map),
        bit_perm=WindowPermutation(BIT_WINDOW, bit_map),
        rbs=RbsLoop.from_packed(memoryview(data)[_RBS_AT:], rbs_bits),
        rule=rule,
    )


def keyset_fingerprint(serialized: bytes) -> str:
    """Short digest for telling key files apart."""
    return hashlib.sha256(serialized).hexdigest()
