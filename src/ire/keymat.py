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

The fixed-size part, offsets 0 to 359, is the one struct format _HEADER;
serialize_keyset packs it and parse_keyset reads its fields back. The
inverse substitution table is not stored: SubstitutionTable derives it
from the forward table.

An IRE1 envelope (envelope.py) opens with the same six bytes: magic,
version and rule flag. _read_header checks them and unpacks the fixed
header for both formats, and _RULE_FLAGS is the one statement of the
flag's encoding.
"""

from __future__ import annotations

import hashlib
import operator
import random
import struct
from dataclasses import dataclass, field
from functools import cached_property

from .entropy import resolve_rng
from .errors import KeyFormatError
from .keystream import DEFAULT_RBS_BITS, RbsLoop, generate_rbs
from .sliding import ShiftPlan

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
# magic, version, rule flag, substitution table, byte-window map,
# bit-window map, RBS bit length; the packed RBS follows
_HEADER = struct.Struct("<4sBB256s10s80sQ")
_IDENTITY = bytes(range(256))


@dataclass(frozen=True)
class SubstitutionTable:
    """A bijection on the 256 byte values, built from forward alone.

    forward is held as bytes, so changing the source later never
    changes the table; inverse is derived from it.
    """

    forward: bytes
    inverse: bytes = field(init=False)

    def __post_init__(self):
        forward = bytes(self.forward)
        if len(forward) != 256 or len(set(forward)) != 256:
            raise ValueError("forward table must be a bijection on the 256 byte values")
        object.__setattr__(self, "forward", forward)
        object.__setattr__(self, "inverse", bytes.maketrans(forward, _IDENTITY))

    @classmethod
    def identity(cls) -> "SubstitutionTable":
        return cls(_IDENTITY)


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
        # operator.index refuses floats and stores numpy integers as int
        object.__setattr__(self, "map", tuple(map(operator.index, self.map)))
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
    A part of the wrong type raises TypeError at construction.
    """

    sub: SubstitutionTable
    byte_perm: WindowPermutation
    bit_perm: WindowPermutation
    rbs: RbsLoop
    rule: str

    def __post_init__(self):
        for name, kind in (("sub", SubstitutionTable), ("byte_perm", WindowPermutation),
                           ("bit_perm", WindowPermutation), ("rbs", RbsLoop)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise TypeError(f"{name} must be a {kind.__name__}, not {type(value).__name__}")
        if self.byte_perm.width != BYTE_WINDOW:
            raise ValueError(f"byte-window permutation must have width {BYTE_WINDOW}")
        if self.bit_perm.width != BIT_WINDOW:
            raise ValueError(f"bit-window permutation must have width {BIT_WINDOW}")
        if self.rule not in RULES:
            raise ValueError(f"rule must be one of {RULES}")


def generate_substitution_table(rng: random.Random | None = None) -> SubstitutionTable:
    """Draw a uniformly random byte bijection with Random.shuffle."""
    forward = list(range(256))
    resolve_rng(rng).shuffle(forward)
    return SubstitutionTable(bytes(forward))


def generate_window_permutation(rng: random.Random | None, width: int) -> WindowPermutation:
    """Draw a uniformly random window permutation of the given width
    with Random.shuffle."""
    order = list(range(width))
    resolve_rng(rng).shuffle(order)
    return WindowPermutation(width, tuple(order))


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

    The fixed header is packed through _HEADER, and the packed loop is
    joined after it straight from the keyset, so the image is the only
    loop-sized allocation.
    """
    return b"".join([
        _HEADER.pack(KEY_MAGIC, KEY_VERSION, _RULE_FLAGS[keyset.rule], keyset.sub.forward,
                     bytes(keyset.byte_perm.map), bytes(keyset.bit_perm.map), keyset.rbs.length),
        keyset.rbs.packed,
    ])


def _read_header(data, header: struct.Struct, magic: bytes, version: int, error: type[Exception], kind: str) -> tuple:
    """Read the fixed-size header of an IREK key file or an IRE1
    envelope, whose struct format header states, and return the rule
    followed by the format's fields after the rule flag.

    Both formats open with the same six bytes: magic, version and rule
    flag. The magic is checked first, then that data holds all
    header.size bytes, then the version and the flag. A failed check
    raises error with a message that names kind, "key file" or
    "envelope".
    """
    if len(data) < len(magic):
        raise error(f"truncated {kind}: shorter than the magic")
    if data[:len(magic)] != magic:
        raise error(f"bad magic: not an {magic.decode()} {kind}")
    if len(data) < header.size:
        raise error(f"truncated {kind}: header cut short")
    fields = header.unpack_from(data)  # magic, version, rule flag, then the format's own
    if fields[1] != version:
        raise error(f"unsupported {kind} version {fields[1]}")
    if fields[2] not in _FLAG_RULES:
        raise error(f"invalid rule flag {fields[2]:#04x}")
    return (_FLAG_RULES[fields[2]],) + fields[3:]


def parse_keyset(data: bytes) -> KeySet:
    """Parse and validate an IREK v1 file.

    Total on arbitrary input: malformed bytes raise KeyFormatError,
    nothing else, and nothing larger than the input is ever allocated.
    The packed RBS is never unpacked. Parsed from bytes, the keyset's
    loop is a view of data past the header, not a copy, and keeps data
    alive; data given as a bytearray, or a view of one, is copied once,
    as RbsLoop.from_packed does.
    """
    rule, forward, byte_map, bit_map, rbs_bits = _read_header(
        data, _HEADER, KEY_MAGIC, KEY_VERSION, KeyFormatError, "key file")
    if len(set(forward)) != 256:
        raise KeyFormatError("invalid substitution table: not a bijection")
    if sorted(byte_map) != list(range(BYTE_WINDOW)):
        raise KeyFormatError("byte-window map is not a permutation of 0..9")
    if sorted(bit_map) != list(range(BIT_WINDOW)):
        raise KeyFormatError("bit-window map is not a permutation of 0..79")

    if rbs_bits < RbsLoop.MIN_BITS:
        raise KeyFormatError(f"RBS shorter than {RbsLoop.MIN_BITS} bits")
    expected = _HEADER.size + (rbs_bits + 7) // 8  # checked before any allocation
    if len(data) < expected:
        raise KeyFormatError("truncated key file: RBS section cut short")
    if len(data) > expected:
        raise KeyFormatError("declared RBS length inconsistent with file size")
    pad_bits = -rbs_bits % 8  # only the last byte holds any
    if data[-1] & ((1 << pad_bits) - 1):
        raise KeyFormatError("nonzero pad bits after the RBS")

    return KeySet(
        sub=SubstitutionTable(forward),
        byte_perm=WindowPermutation(BYTE_WINDOW, byte_map),
        bit_perm=WindowPermutation(BIT_WINDOW, bit_map),
        rbs=RbsLoop.from_packed(memoryview(data)[_HEADER.size:], rbs_bits),
        rule=rule,
    )


def keyset_fingerprint(serialized: bytes) -> str:
    """Short digest for telling key files apart."""
    return hashlib.sha256(serialized).hexdigest()
