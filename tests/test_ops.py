import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ire.bits import bits_from_string, bits_to_string
from ire.errors import CorruptionError
from ire.keymat import RULE_A, RULE_B, SubstitutionTable, WindowPermutation
from ire.keystream import RbsLoop
from ire.ops import (
    PAD_BYTE,
    PAD_WIDTH,
    PaddedMessage,
    keystream_combine,
    pad,
    sliding_bit_permute,
    sliding_bit_unpermute,
    sliding_byte_permute,
    sliding_byte_unpermute,
    substitute,
    unpad,
    unsubstitute,
)


# --- padding --------------------------------------------------------------

def test_pad_short_messages():
    for n in range(PAD_WIDTH):
        padded = pad(b"x" * n)
        assert len(padded.data) == PAD_WIDTH
        assert padded.pad_count == PAD_WIDTH - n
        assert padded.data == b"x" * n + b" " * (PAD_WIDTH - n)


def test_pad_long_messages_untouched():
    for n in range(PAD_WIDTH, 13):
        padded = pad(b"y" * n)
        assert padded.data == b"y" * n
        assert padded.pad_count == 0


def test_pad_unpad_exhaustive_with_trailing_spaces():
    # trailing spaces in the plaintext must survive; the count, not the
    # byte value, decides what comes off
    for n in range(13):
        for spaces in range(4):
            message = b"m" * n + b" " * spaces
            assert unpad(pad(message)) == message


def test_pad_empty_message():
    padded = pad(b"")
    assert padded.data == b" " * PAD_WIDTH
    assert padded.pad_count == PAD_WIDTH


def test_padded_message_invariants():
    with pytest.raises(CorruptionError):
        PaddedMessage(b"short", 5)  # under 10 bytes
    with pytest.raises(CorruptionError):
        PaddedMessage(b"x" * 11, 1)  # pad implies exactly 10 bytes
    with pytest.raises(CorruptionError):
        PaddedMessage(b"x" * 10, 11)  # count out of range
    with pytest.raises(CorruptionError):
        PaddedMessage(b"x" * 10, -1)
    with pytest.raises(CorruptionError, match="trailing bytes"):
        PaddedMessage(b"abcdefghij", 2)  # pad positions not 0x20
    PaddedMessage(b"abcdefgh  ", 2)  # consistent, accepted


def test_unpad_keeps_plain_spaces():
    assert unpad(PaddedMessage(b"hi        ", 8)) == b"hi"
    assert unpad(PaddedMessage(b"hi        ", 0)) == b"hi        "


# --- substitution ---------------------------------------------------------

def test_substitute_known_pair():
    forward = bytearray(range(256))
    forward[0x6C], forward[0x4D] = 0x4D, 0x6C
    table = SubstitutionTable.from_forward(bytes(forward))
    assert substitute(b"lM", table) == b"Ml"
    assert unsubstitute(b"Ml", table) == b"lM"


def test_substitute_identity():
    table = SubstitutionTable.identity()
    assert substitute(b"anything at all", table) == b"anything at all"


@given(data=st.binary(max_size=200), seed=st.integers(0, 2 ** 16))
def test_substitute_round_trip(data, seed):
    import random

    from ire.keymat import generate_substitution_table

    table = generate_substitution_table(random.Random(seed))
    assert unsubstitute(substitute(data, table), table) == data


# --- sliding wrappers -----------------------------------------------------

def test_byte_permute_round_trip():
    perm = WindowPermutation(10, (7, 2, 6, 3, 0, 9, 1, 8, 5, 4))
    data = bytes(range(37))
    assert sliding_byte_unpermute(sliding_byte_permute(data, perm), perm) == data


def test_byte_permute_rejects_short_input():
    perm = WindowPermutation.identity(10)
    with pytest.raises(ValueError):
        sliding_byte_permute(b"123456789", perm)
    with pytest.raises(ValueError):
        sliding_byte_unpermute(b"123456789", perm)


def test_bit_permute_round_trip(fixed_rng):
    perm_map = tuple(fixed_rng.sample(range(80), 80))
    perm = WindowPermutation(80, perm_map)
    bits = np.array([fixed_rng.randrange(2) for _ in range(200)], dtype=np.uint8)
    out = sliding_bit_permute(bits, perm)
    assert np.array_equal(sliding_bit_unpermute(out, perm), bits)


def test_bit_permute_rejects_short_input():
    perm = WindowPermutation.identity(80)
    with pytest.raises(ValueError):
        sliding_bit_permute(np.zeros(79, dtype=np.uint8), perm)


# --- keystream combine ----------------------------------------------------

def padded_loop(bit_string, length=80):
    bits = [int(c) for c in bit_string]
    bits += [0] * (length - len(bits))
    return RbsLoop(np.array(bits, dtype=np.uint8))


def test_combine_known_vector():
    plain = bits_from_string("1011001010")
    loop = padded_loop("1001100001")
    assert bits_to_string(keystream_combine(plain, loop, 0, RULE_B)) == "0010101011"
    assert bits_to_string(keystream_combine(plain, loop, 0, RULE_A)) == "1101010100"


def test_rules_are_complements():
    loop = padded_loop("1001100001")
    plain = bits_from_string("1011001010")
    b = keystream_combine(plain, loop, 0, RULE_B)
    a = keystream_combine(plain, loop, 0, RULE_A)
    assert np.array_equal(a, 1 - b)


@given(
    bit_list=st.lists(st.integers(0, 1), min_size=1, max_size=300),
    offset=st.integers(0, 79),
    rule=st.sampled_from([RULE_A, RULE_B]),
    seed=st.integers(0, 2 ** 16),
)
def test_combine_is_an_involution(bit_list, offset, rule, seed):
    import random

    rng = random.Random(seed)
    loop = RbsLoop(np.array([rng.randrange(2) for _ in range(80)], dtype=np.uint8))
    bits = np.array(bit_list, dtype=np.uint8)
    once = keystream_combine(bits, loop, offset, rule)
    assert np.array_equal(keystream_combine(once, loop, offset, rule), bits)


def test_combine_wraps_past_loop_end():
    loop = padded_loop("1" * 5, 80)  # bits 0..4 set, rest zero
    plain = np.zeros(10, dtype=np.uint8)
    out = keystream_combine(plain, loop, 75, RULE_B)
    assert bits_to_string(out) == "0000011111"


def test_combine_validation():
    loop = padded_loop("1", 80)
    bits = np.zeros(10, dtype=np.uint8)
    with pytest.raises(ValueError):
        keystream_combine(bits, loop, 80, RULE_B)  # offset == length
    with pytest.raises(ValueError):
        keystream_combine(bits, loop, -1, RULE_B)
    with pytest.raises(ValueError):
        keystream_combine(bits, loop, 0, "X")


def test_combine_spans_loop_more_than_twice():
    import random

    rng = random.Random(59)
    loop_bits = [rng.randrange(2) for _ in range(97)]
    loop = RbsLoop(np.array(loop_bits, dtype=np.uint8))
    bits = [rng.randrange(2) for _ in range(97 * 5 + 13)]
    for offset in (0, 1, 50, 96):
        for rule in (RULE_A, RULE_B):
            flip = 1 if rule == RULE_A else 0
            expected = [b ^ loop_bits[(offset + i) % 97] ^ flip for i, b in enumerate(bits)]
            got = keystream_combine(np.array(bits, dtype=np.uint8), loop, offset, rule)
            assert got.tolist() == expected


# --- the public stages leave their input alone ------------------------------

def test_public_stages_do_not_mutate_input(fixed_rng):
    byte_perm = WindowPermutation(10, tuple(fixed_rng.sample(range(10), 10)))
    bit_perm = WindowPermutation(80, tuple(fixed_rng.sample(range(80), 80)))
    data = bytearray(fixed_rng.randrange(256) for _ in range(300))
    bits = np.unpackbits(np.frombuffer(bytes(data), dtype=np.uint8))
    loop = RbsLoop(np.array([fixed_rng.randrange(2) for _ in range(500)], dtype=np.uint8))
    for stage in (sliding_byte_permute, sliding_byte_unpermute):
        before = bytes(data)
        stage(data, byte_perm)
        assert bytes(data) == before, stage.__name__
    for stage in (sliding_bit_permute, sliding_bit_unpermute):
        before = bits.copy()
        stage(bits, bit_perm)
        assert np.array_equal(bits, before), stage.__name__
    for rule in (RULE_A, RULE_B):
        before = bits.copy()
        keystream_combine(bits, loop, 123, rule)
        assert np.array_equal(bits, before)


def test_packed_key_read_matches_fragment():
    # the bit stage reads the key packed; across the end of the loop it
    # splits the read at the straddling byte, or falls back to the
    # unpacked fragment when the loop is shorter than the read
    import random

    from ire.ops import _read_key

    rng = random.Random(61)
    for length in (97, 1000, 4099):
        loop = RbsLoop(np.array([rng.randrange(2) for _ in range(length)], dtype=np.uint8))
        for nbytes in (1, 13, 124, 600):
            for start in {0, 1, 7, 8, length - 8 * nbytes - 1, length - 9, length - 8, length - 5, length - 1}:
                if not 0 <= start < length:
                    continue
                out = np.empty(nbytes, dtype=np.uint8)
                _read_key(loop, start, out)
                assert out.tobytes() == np.packbits(loop.fragment(start, 8 * nbytes)).tobytes(), \
                    (length, nbytes, start)
