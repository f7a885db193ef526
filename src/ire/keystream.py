"""The looped random bit sequence (RBS) drawn on as keystream."""

from __future__ import annotations

import math
import operator
import random

import numpy as np

from .analysis import MIN_TEST_BITS, count_ones, monobit_verdict
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
    the last byte zero. packed is that array, and from_packed builds a
    loop from such bytes. Its readers are read, which draws packed
    keystream, and bits and fragment, which unpack on demand. Instances
    are immutable.
    """

    MIN_BITS = 80

    def __init__(self, bits: np.ndarray):
        arr = np.asarray(bits)
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if not np.all((arr == 0) | (arr == 1)):  # before the cast, which would wrap 256 to 0
            raise ValueError("bits must be 0 or 1")
        self._store(np.packbits(arr.astype(np.uint8, copy=False)), arr.size)

    def _store(self, packed: np.ndarray, length: int) -> None:
        if length < self.MIN_BITS:
            raise ValueError(f"an RBS holds at least {self.MIN_BITS} bits, got {length}")
        packed.setflags(write=False)
        self._packed = packed
        self._length = length

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

    def read(self, start: int, out: np.ndarray) -> None:
        """Fill out with the loop's bits from start on, packed MSB-first.

        Byte k of out holds bits start + 8k .. start + 8k + 7, wrapping
        past the end of the loop as often as needed; start must lie
        inside the loop. The packed bytes repeat every
        length / gcd(length, 8) of them, so one such period is read and
        the rest of out is filled by doubling copies. The reads go
        through _shift_bits, a block at a time, so out of any size costs
        at most one block of temporaries beside it.
        """
        size, packed = self._length, self._packed
        if not 0 <= start < size:
            raise ValueError(f"offset {start} outside [0, {size})")
        if start + 8 * out.size <= size:  # short of the seam
            _shift_bits(packed, start, out)
            return
        period = size // math.gcd(size, 8)
        done = out.size if out.size < period else period
        k, bit = 0, start
        while k < done:
            whole = min((size - bit) >> 3, done - k)
            _shift_bits(packed, bit, out[k:k + whole])
            k += whole
            if k == done:
                break
            cut = size - bit - 8 * whole
            if cut:  # the byte over the seam: the loop's last cut bits, then its first
                last = (int(packed[-2]) << 8 | int(packed[-1])) >> (8 * packed.size - size)
                out[k] = last << (8 - cut) & 0xFF | int(packed[0]) >> cut
                k += 1
            bit = -cut % 8
        while done < out.size:
            step = min(done, out.size - done)
            out[done:done + step] = out[:step]
            done += step

    def fragment(self, offset: int, count: int) -> np.ndarray:
        """count bits starting at offset, wrapping as often as needed.

        offset must lie inside the loop; count may exceed the length.
        The bits are read packed and unpacked, one bit per byte.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        packed = np.empty(-(-count // 8), dtype=np.uint8)
        self.read(offset, packed)
        return np.unpackbits(packed, count=count)

    @classmethod
    def from_packed(cls, data: bytes | bytearray | memoryview, bit_length: int) -> "RbsLoop":
        """Build a loop from MSB-first packed bytes; the one route from
        packed bytes, which generate_rbs and parse_keyset both take.

        When data's memory belongs to a bytes object (data is bytes or a
        view of one) and the pad bits after bit_length are zero, the loop
        is a read-only view of that memory and keeps the bytes object
        alive. Anything else (a bytearray, a view of one, an mmap, or
        nonzero pad bits) is copied once and its pad bits zeroed, so
        changing the source later never changes the loop. Accepts raw
        bit files too: pass bit_length = 8 * len(data). A bit_length that
        is not an integer raises TypeError.
        """
        bit_length = operator.index(bit_length)  # refuses floats, stores numpy integers as int
        view = memoryview(data)
        if (bit_length + 7) // 8 != len(view):
            raise ValueError(f"{len(view)} packed bytes cannot hold exactly {bit_length} bits")
        packed = np.frombuffer(view, dtype=np.uint8)
        pad = -bit_length % 8
        if type(view.obj) is not bytes or (pad and packed[-1] & ((1 << pad) - 1)):
            packed = packed.copy()
            if pad:
                packed[-1] &= 0xFF << pad & 0xFF
        loop = cls.__new__(cls)
        loop._store(packed, bit_length)
        return loop

    def __eq__(self, other) -> bool:
        if not isinstance(other, RbsLoop):
            return NotImplemented
        return self._length == other._length and bool(np.array_equal(self._packed, other._packed))

    def __repr__(self) -> str:
        return f"RbsLoop(length={self._length})"


# Bytes that _shift_bits handles at once: small enough that a block and
# its temporaries stay in cache, large enough that the per-block numpy
# calls cost little.
_BLOCK_BYTES = 1 << 17

# Shifts by r bits as uint8 scalars: with a Python int operand numpy
# takes a slower path, on every call and, for some ufuncs, per element.
# A uint8 multiply is the left shift numpy vectorizes; it wraps like one.
# The right shift by 8 - r is a floor division by 2^(8 - r), exact on
# uint8 and about 1.6x faster than numpy's right_shift by a scalar.
_LEFT = tuple(np.uint8(1 << r) for r in range(8))
_RIGHT = (None,) + tuple(np.uint8(1 << 8 - r) for r in range(1, 8))


def _shift_bits(src: np.ndarray, bit: int, out: np.ndarray, xor: bool = False) -> None:
    """Write the 8 bits of packed src that start at bit + 8k into out[k],
    or xor them into it when xor is set, a block at a time.

    bit is non-negative and src holds every byte those bits touch.
    Temporaries never exceed one block, whatever out's size.
    """
    q, r = divmod(bit, 8)
    for k in range(0, out.size, _BLOCK_BYTES):
        dst = out[k:k + _BLOCK_BYTES]
        head = src[q + k:q + k + dst.size]
        if xor:
            dst ^= head * _LEFT[r] if r else head
        elif r:
            np.multiply(head, _LEFT[r], out=dst)
        else:
            dst[:] = head
        if r:  # the low bits, from the byte after head's
            dst ^= src[q + k + 1:q + k + dst.size + 1] // _RIGHT[r]


def choose_offset(rng: random.Random | None, bit_length: int) -> int:
    """Uniform start offset in [0, bit_length), free of modulo bias.

    An empty range raises ValueError, from randrange.
    """
    return resolve_rng(rng).randrange(bit_length)


def _random_bits(rng: random.Random, count: int) -> bytes:
    """count random bits, MSB-first packed with the pad bits zero.

    The bits are those of getrandbits(count), most significant first.
    A bytes object, so RbsLoop.from_packed views it instead of copying.
    """
    nbytes = (count + 7) // 8
    value = rng.getrandbits(count)
    if count % 8:  # a shift makes a copy of the int, even by 0
        value <<= 8 * nbytes - count
    return value.to_bytes(nbytes, "big")


def generate_rbs(rng: random.Random | None = None, bit_length: int = DEFAULT_RBS_BITS) -> RbsLoop:
    """Draw a fresh loop, gated on the monobit check.

    A candidate failing the gate is discarded and redrawn; repeated
    failure means the entropy source is broken and raises
    GenerationError. Loops shorter than the monobit minimum of
    100 bits are accepted ungated. A bit_length under RbsLoop.MIN_BITS
    raises ValueError, as RbsLoop does.
    """
    rng = resolve_rng(rng)
    for _ in range(_MONOBIT_ATTEMPTS):
        loop = RbsLoop.from_packed(_random_bits(rng, bit_length), bit_length)
        # pad bits are zero, so the ones of the packed bytes are the loop's
        if bit_length < MIN_TEST_BITS or monobit_verdict(count_ones(loop.packed), bit_length).passed:
            return loop
    raise GenerationError(
        f"monobit gate rejected {_MONOBIT_ATTEMPTS} candidate loops in a row; "
        "the entropy source looks broken"
    )
