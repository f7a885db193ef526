"""Iterated random encryption (IRE).

Five invertible stages, pad, byte substitution, a sliding 10-byte window
permutation, a sliding 80-bit window permutation, and a keystream
combine over a looped random bit sequence, plus key-material tooling,
bit-exact key and ciphertext file formats, desk-scale randomness
checks, and a linear-scaling benchmark.

The package exports the encrypt and decrypt round trip and keyset
handling; everything else lives in its module: ire.ops (the stages),
ire.keymat, ire.keystream, ire.envelope, ire.formats (both file
formats, on the standard library alone), ire.errors, ire.analysis,
ire.sliding and ire.bits.
"""

__version__ = "0.1.0"

from .envelope import CipherEnvelope, decode_envelope, encode_envelope
from .errors import IreError
from .keymat import KeySet, generate_keyset, parse_keyset, serialize_keyset
from .keystream import choose_offset
from .ops import decrypt, encrypt

__all__ = [
    "__version__",
    "CipherEnvelope",
    "IreError",
    "KeySet",
    "choose_offset",
    "decode_envelope",
    "decrypt",
    "encode_envelope",
    "encrypt",
    "generate_keyset",
    "parse_keyset",
    "serialize_keyset",
]
