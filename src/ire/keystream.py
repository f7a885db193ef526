"""The looped random bit sequence (RBS) drawn on as keystream."""

from __future__ import annotations

import random

import numpy as np

from .analysis import MIN_TEST_BITS, monobit_verdict
from .entropy import resolve_rng
from .errors import GenerationError

__all__ = ["DEFAULT_RBS_BITS", "RbsLoop", "choose_offset", "generate_rbs"]

DEFAULT_RBS_BITS = 1 << 23  # 1 MiB worth of loop
_MONOBIT_ATTEMPTS = 8


class RbsLoop:
    """A finite random bit sequence indexed modulo its length.

    The final bit wraps around to the first, so any amount of keystream
    can be drawn starting from any bit. The loop is stored only as
    MSB-first packed bytes, eight bits to a byte, with the pad bits of
    the last byte zero; bits and fragment unpack on demand. Instances
    are immutable.
    """

    MIN_BITS = 80

    def __init__(self, bits: np.ndarray):
        arr = np.ascontiguousarray(bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if np.any(arr > 1):
            raise ValueError("bits must be 0 or 1")
        self._store(np.packbits(arr), arr.size)

    def _store(self, packed: np.ndarray, length: int) -> None:
        if length < self.MIN_BITS:
            raise ValueError(f"an RBS holds at least {self.MIN_BITS} bits, got {length}")
        packed.setflags(write=False)
        self._packed = packed
        self._length = length

    @classmethod
    def _wrap(cls, packed: np.ndarray, length: int) -> "RbsLoop":
        """A loop over packed bytes this module owns, pad bits already zero."""
        loop = cls.__new__(cls)
        loop._store(packed, length)
        return loop

    @property
    def length(self) -> int:
        return self._length

    @property
    def packed(self) -> np.ndarray:
        """The loop as read-only MSB-first packed bytes, pad bits zero."""
        return self._packed

    @property
    def bits(self) -> np.ndarray:
        """The loop contents as a read-only bit buffer, one bit per byte.

        Unpacked on every access: each access allocates length bytes,
        eight times the stored loop. Hot paths read packed instead.
        """
        bits = np.unpackbits(self._packed, count=self._length)
        bits.setflags(write=False)
        return bits

    def bit_at(self, index: int) -> int:
        """Bit at any non-negative index, wrapping past the end."""
        if index < 0:
            raise ValueError("bit index must be non-negative")
        index %= self._length
        return int(self._packed[index >> 3]) >> (7 - (index & 7)) & 1

    def _unpack(self, start: int, count: int) -> np.ndarray:
        """Bits start .. start+count-1, unpacking only the bytes they cover."""
        first = start >> 3
        covered = self._packed[first:(start + count + 7) >> 3]
        return np.unpackbits(covered)[start - 8 * first:][:count]

    def fragment(self, offset: int, count: int) -> np.ndarray:
        """count bits starting at offset, wrapping as often as needed.

        offset must lie inside the loop; count may exceed the length.
        Only the packed bytes the fragment covers are unpacked; whole
        laps, if any, repeat the loop unpacked once.
        """
        size = self._length
        if not 0 <= offset < size:
            raise ValueError(f"offset {offset} outside [0, {size})")
        if count < 0:
            raise ValueError("count must be non-negative")
        if offset + count <= size:
            return self._unpack(offset, count)
        out = np.empty(count, dtype=np.uint8)
        head = size - offset
        out[:head] = self._unpack(offset, head)
        whole, tail = divmod(count - head, size)
        if whole:
            out[head:head + whole * size].reshape(whole, size)[:] = self.bits
        out[count - tail:] = self._unpack(0, tail)
        return out

    def to_packed(self) -> bytes:
        """MSB-first packed bytes; pad bits in the last byte are zero."""
        return self._packed.tobytes()

    @classmethod
    def from_packed(cls, data: bytes | bytearray | memoryview, bit_length: int) -> "RbsLoop":
        """Rebuild a loop from MSB-first packed bytes.

        Copies data once and zeroes any pad bits after bit_length.
        Accepts raw bit files too: pass bit_length = 8 * len(data).
        """
        if (bit_length + 7) // 8 != len(data):
            raise ValueError(f"{len(data)} packed bytes cannot hold exactly {bit_length} bits")
        packed = np.frombuffer(data, dtype=np.uint8).copy()
        if bit_length % 8:
            packed[-1] &= 0xFF << (8 - bit_length % 8) & 0xFF
        return cls._wrap(packed, bit_length)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RbsLoop):
            return NotImplemented
        return self._length == other._length and bool(np.array_equal(self._packed, other._packed))

    def __repr__(self) -> str:
        return f"RbsLoop(length={self._length})"


def choose_offset(rng: random.Random | None, bit_length: int) -> int:
    """Uniform start offset in [0, bit_length), free of modulo bias."""
    if bit_length < 1:
        raise ValueError("bit length must be positive")
    return resolve_rng(rng).randrange(bit_length)


def _random_bits(rng: random.Random, count: int) -> np.ndarray:
    """count random bits, MSB-first packed with the pad bits zero.

    The bits are those of getrandbits(count), most significant first.
    """
    nbytes = (count + 7) // 8
    raw = (rng.getrandbits(count) << (8 * nbytes - count)).to_bytes(nbytes, "big")
    return np.frombuffer(raw, dtype=np.uint8)


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
        packed = _random_bits(rng, bit_length)
        # pad bits are zero, so the ones of the packed bytes are the loop's
        if bit_length < MIN_TEST_BITS or monobit_verdict(
                int(np.bitwise_count(packed).sum()), bit_length).passed:
            return RbsLoop._wrap(packed, bit_length)
    raise GenerationError(
        f"monobit gate rejected {_MONOBIT_ATTEMPTS} candidate loops in a row; "
        "the entropy source looks broken"
    )
