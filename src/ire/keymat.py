"""Key material: substitution table, window permutations, keyset file.

A keyset travels as an IREK version 1 key file. ire.formats states its
layout, its header struct KEY_HEADER and its rule flag, and holds
read_header, the one reader of both file formats' headers.
serialize_keyset packs the header and parse_keyset reads its fields
back, then checks those only it reads. The inverse substitution table
is not stored: SubstitutionTable derives it from the forward table.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field
from functools import cached_property

from .entropy import resolve_rng
from .errors import KeyFormatError
from .formats import (BIT_WINDOW, BYTE_WINDOW, KEY_HEADER, KEY_MAGIC, KEY_VERSION, RULE_A, RULE_B, RULES,
                      keyset_fingerprint, read_header)
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
        for name, perm, width in (("byte", self.byte_perm, BYTE_WINDOW), ("bit", self.bit_perm, BIT_WINDOW)):
            if perm.width != width:
                raise ValueError(f"{name}-window permutation must have width {width}")
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

    The fixed header is packed through KEY_HEADER, and the packed loop is
    joined after it straight from the keyset, so the image is the only
    loop-sized allocation.
    """
    return b"".join([
        KEY_HEADER.pack(KEY_MAGIC, KEY_VERSION, RULES.index(keyset.rule), keyset.sub.forward,
                     bytes(keyset.byte_perm.map), bytes(keyset.bit_perm.map), keyset.rbs.length),
        keyset.rbs.packed,
    ])


def parse_keyset(data: bytes) -> KeySet:
    """Parse and validate an IREK v1 file.

    Total on arbitrary input: malformed bytes raise KeyFormatError,
    nothing else, and nothing larger than the input is ever allocated.
    The packed RBS is never unpacked. Parsed from bytes, the keyset's
    loop is a view of data past the header, not a copy, and keeps data
    alive; data given as a bytearray, or a view of one, is copied once,
    as RbsLoop.from_packed does.
    """
    rule, forward, byte_map, bit_map, rbs_bits = read_header(
        data, KEY_HEADER, KEY_MAGIC, KEY_VERSION, KeyFormatError, "key file")
    if len(set(forward)) != 256:
        raise KeyFormatError("invalid substitution table: not a bijection")
    for name, window_map, width in (("byte", byte_map, BYTE_WINDOW), ("bit", bit_map, BIT_WINDOW)):
        if sorted(window_map) != list(range(width)):
            raise KeyFormatError(f"{name}-window map is not a permutation of 0..{width - 1}")

    if rbs_bits < RbsLoop.MIN_BITS:
        raise KeyFormatError(f"RBS shorter than {RbsLoop.MIN_BITS} bits")
    expected = KEY_HEADER.size + (rbs_bits + 7) // 8  # checked before any allocation
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
        rbs=RbsLoop.from_packed(memoryview(data)[KEY_HEADER.size:], rbs_bits),
        rule=rule,
    )
