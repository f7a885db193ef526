"""The looped random bit sequence (RBS) drawn on as keystream."""

from __future__ import annotations

import random
from functools import cached_property

import numpy as np

from .analysis import MIN_TEST_BITS, monobit_test
from .entropy import resolve_rng
from .errors import GenerationError

__all__ = ["DEFAULT_RBS_BITS", "RbsLoop", "choose_offset", "generate_rbs"]

DEFAULT_RBS_BITS = 1 << 23  # 1 MiB worth of loop
_MONOBIT_ATTEMPTS = 8


class RbsLoop:
    """A finite random bit sequence indexed modulo its length.

    The final bit wraps around to the first, so any amount of keystream
    can be drawn starting from any bit. Instances are immutable.
    """

    MIN_BITS = 80

    def __init__(self, bits: np.ndarray):
        arr = np.ascontiguousarray(bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if arr.size < self.MIN_BITS:
            raise ValueError(f"an RBS holds at least {self.MIN_BITS} bits, got {arr.size}")
        if np.any(arr > 1):
            raise ValueError("bits must be 0 or 1")
        arr.setflags(write=False)
        self._bits = arr

    @property
    def length(self) -> int:
        return self._bits.size

    @property
    def bits(self) -> np.ndarray:
        """The loop contents as a read-only bit buffer."""
        return self._bits

    def bit_at(self, index: int) -> int:
        """Bit at any non-negative index, wrapping past the end."""
        if index < 0:
            raise ValueError("bit index must be non-negative")
        return int(self._bits[index % self._bits.size])

    def fragment(self, offset: int, count: int) -> np.ndarray:
        """count bits starting at offset, wrapping as often as needed.

        offset must lie inside the loop; count may exceed the length.
        """
        size = self._bits.size
        if not 0 <= offset < size:
            raise ValueError(f"offset {offset} outside [0, {size})")
        if count < 0:
            raise ValueError("count must be non-negative")
        if offset + count <= size:
            return self._bits[offset:offset + count]
        pieces = [self._bits[offset:]]
        remaining = count - (size - offset)
        whole, tail = divmod(remaining, size)
        pieces.extend([self._bits] * whole)
        pieces.append(self._bits[:tail])
        return np.concatenate(pieces)

    @cached_property
    def packed(self) -> np.ndarray:
        """The loop as read-only MSB-first packed bytes, pad bits zero.

        Built on first use and kept: an eighth of the size of bits.
        """
        packed = np.packbits(self._bits)
        packed.setflags(write=False)
        return packed

    def to_packed(self) -> bytes:
        """MSB-first packed bytes; pad bits in the last byte are zero."""
        return self.packed.tobytes()

    @classmethod
    def from_packed(cls, data: bytes, bit_length: int) -> "RbsLoop":
        """Rebuild a loop from MSB-first packed bytes.

        Accepts raw bit files too: pass bit_length = 8 * len(data).
        """
        if (bit_length + 7) // 8 != len(data):
            raise ValueError(f"{len(data)} packed bytes cannot hold exactly {bit_length} bits")
        unpacked = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        return cls(unpacked[:bit_length])

    def __eq__(self, other) -> bool:
        if not isinstance(other, RbsLoop):
            return NotImplemented
        return self._bits.size == other._bits.size and bool(np.array_equal(self._bits, other._bits))

    def __repr__(self) -> str:
        return f"RbsLoop(length={self._bits.size})"


def choose_offset(rng: random.Random | None, bit_length: int) -> int:
    """Uniform start offset in [0, bit_length), free of modulo bias."""
    if bit_length < 1:
        raise ValueError("bit length must be positive")
    return resolve_rng(rng).randrange(bit_length)


def _random_bits(rng: random.Random, count: int) -> np.ndarray:
    nbytes = (count + 7) // 8
    raw = rng.getrandbits(count).to_bytes(nbytes, "big")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[8 * nbytes - count:]


def generate_rbs(rng: random.Random | None = None, bit_length: int = DEFAULT_RBS_BITS) -> RbsLoop:
    """Draw a fresh loop, gated on the monobit check.

    A candidate failing the gate is discarded and redrawn; repeated
    failure means the entropy source is broken and raises
    GenerationError. Loops shorter than the monobit minimum of
    100 bits are accepted ungated.
    """
    if bit_length < RbsLoop.MIN_BITS:
        raise ValueError(f"an RBS holds at least {RbsLoop.MIN_BITS} bits, got {bit_length}")
    rng = resolve_rng(rng)
    for _ in range(_MONOBIT_ATTEMPTS):
        loop = RbsLoop(_random_bits(rng, bit_length))
        if bit_length < MIN_TEST_BITS or monobit_test(loop.bits).passed:
            return loop
    raise GenerationError(
        f"monobit gate rejected {_MONOBIT_ATTEMPTS} candidate loops in a row; "
        "the entropy source looks broken"
    )
