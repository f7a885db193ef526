"""Bit-buffer helpers.

A bit buffer is a one-dimensional numpy uint8 array holding one bit per
element. Byte conversion is most-significant-bit first: bit 0 of a
buffer is the high bit of byte 0.
"""

import numpy as np

__all__ = [
    "bytes_to_bits",
    "bits_to_bytes",
    "bits_from_string",
    "bits_to_string",
]


def bytes_to_bits(data: bytes) -> np.ndarray:
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))


def bits_to_bytes(bits: np.ndarray) -> bytes:
    if bits.size % 8:
        raise ValueError(f"bit count {bits.size} is not a multiple of 8")
    return np.packbits(bits).tobytes()


def bits_from_string(text: str) -> np.ndarray:
    """Parse a literal like "1011001010"."""
    arr = np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")
    if np.any(arr > 1):
        raise ValueError("bit string may contain only 0 and 1")
    return arr.astype(np.uint8)


def bits_to_string(bits: np.ndarray) -> str:
    return (np.asarray(bits, dtype=np.uint8) + ord("0")).tobytes().decode("ascii")
