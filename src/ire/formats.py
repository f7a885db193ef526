"""The IREK key file and IRE1 envelope formats, on the standard library alone.

Both formats are version 1, with all integers little-endian, and open
with the same six bytes: a four-byte magic, the version, and the
combine rule flag. The flag is the rule's index in RULES, 0x00 for
rule A and 0x01 for rule B, so RULES alone states which rules exist and
how a file encodes them.

IREK key file, whose fixed-size part, offsets 0 to 359, is KEY_HEADER:

    offset 0    magic "IREK"
    offset 4    version, 0x01
    offset 5    combine rule flag
    offset 6    substitution table, 256 bytes (forward direction only)
    offset 262  byte-window permutation, 10 bytes, values 0..9
    offset 272  bit-window permutation, 80 bytes, values 0..79
    offset 352  RBS bit length, u64
    offset 360  RBS bits, MSB-first packed, ceil(length/8) bytes;
                pad bits of the final byte are zero

IRE1 envelope, whose header, offsets 0 to 22, is ENVELOPE_HEADER:

    offset 0   magic "IRE1"
    offset 4   version, 0x01
    offset 5   combine rule flag
    offset 6   pad count, u8, 0..10
    offset 7   keystream start offset, u64
    offset 15  payload byte length, u64
    offset 23  payload

keymat.serialize_keyset and envelope.encode_envelope pack these
headers; read_header is the one reader of both, which
keymat.parse_keyset and envelope.decode_envelope call before checking
the fields only they read.
"""

import hashlib
import struct

__all__ = ["RULE_A", "RULE_B", "RULES", "BYTE_WINDOW", "BIT_WINDOW", "KEY_MAGIC", "KEY_VERSION", "KEY_HEADER",
           "ENVELOPE_MAGIC", "ENVELOPE_VERSION", "ENVELOPE_HEADER", "HEADER_LEN", "read_header", "keyset_fingerprint"]

RULE_A = "A"  # equal bits combine to 1
RULE_B = "B"  # equal bits combine to 0
RULES = (RULE_A, RULE_B)  # a file stores a rule as its index here, so this order is on the wire

BYTE_WINDOW = 10
BIT_WINDOW = 80

KEY_MAGIC = b"IREK"
KEY_VERSION = 1
# magic, version, rule flag, substitution table, byte-window map,
# bit-window map, RBS bit length; the packed RBS follows
KEY_HEADER = struct.Struct("<4sBB256s10s80sQ")

ENVELOPE_MAGIC = b"IRE1"
ENVELOPE_VERSION = 1
# magic, version, rule flag, pad count, start offset, payload length
ENVELOPE_HEADER = struct.Struct("<4sBBBQQ")
HEADER_LEN = ENVELOPE_HEADER.size


def read_header(data, header: struct.Struct, magic: bytes, version: int, error: type[Exception], kind: str) -> tuple:
    """Read the fixed-size header of an IREK key file or an IRE1
    envelope, whose struct format header states, and return the rule
    followed by the format's fields after the rule flag.

    The magic is checked first, then that data holds all header.size
    bytes, then the version and the rule flag. A failed check raises
    error with a message that names kind, "key file" or "envelope".
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
    if fields[2] >= len(RULES):
        raise error(f"invalid rule flag {fields[2]:#04x}")
    return (RULES[fields[2]],) + fields[3:]


def keyset_fingerprint(serialized: bytes) -> str:
    """Short digest for telling key files apart."""
    return hashlib.sha256(serialized).hexdigest()
