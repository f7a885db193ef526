import gc
import hashlib
import random
import struct
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import ire.keymat
from ire.errors import KeyFormatError
from ire.keymat import (
    BIT_WINDOW,
    BYTE_WINDOW,
    KEY_MAGIC,
    RULE_A,
    RULE_B,
    RULES,
    KeySet,
    SubstitutionTable,
    WindowPermutation,
    generate_keyset,
    generate_substitution_table,
    generate_window_permutation,
    keyset_fingerprint,
    parse_keyset,
    serialize_keyset,
)
from ire.keystream import RbsLoop
from ire.ops import decrypt, encrypt, substitute, unsubstitute


class ZeroSwapRng(random.Random):
    """Entropy stub whose draws make every swap of shuffle a no-op."""

    def _randbelow(self, n):  # shuffle draws j = _randbelow(i + 1) to swap with i
        return n - 1


def identity_keyset(rule=RULE_B, rbs_bits=80):
    return KeySet(
        sub=SubstitutionTable.identity(),
        byte_perm=WindowPermutation.identity(BYTE_WINDOW),
        bit_perm=WindowPermutation.identity(BIT_WINDOW),
        rbs=RbsLoop(np.zeros(rbs_bits, dtype=np.uint8)),
        rule=rule,
    )


def test_zero_swap_entropy_gives_identity_table():
    table = generate_substitution_table(ZeroSwapRng())
    assert table.forward == bytes(range(256))
    assert table.inverse == bytes(range(256))


def test_zero_swap_entropy_gives_identity_permutation():
    perm = generate_window_permutation(ZeroSwapRng(), 10)
    assert perm.map == tuple(range(10))


def test_generated_table_is_bijection(fixed_rng):
    table = generate_substitution_table(fixed_rng)
    assert sorted(table.forward) == list(range(256))
    assert all(table.inverse[table.forward[b]] == b for b in range(256))


def test_known_substitution_pair_inverts():
    forward = bytearray(range(256))
    forward[0x6C], forward[0x4D] = 0x4D, 0x6C
    forward[0x55], forward[0x71] = 0x71, 0x55
    table = SubstitutionTable(bytes(forward))
    assert table.forward[0x6C] == 0x4D and table.forward[0x55] == 0x71
    assert table.inverse[0x4D] == 0x6C and table.inverse[0x71] == 0x55


def test_table_validation():
    for forward in (bytes(range(255)), bytes(range(256)) + b"\x00", bytes(256)):  # short, long, constant
        with pytest.raises(ValueError, match="must be a bijection"):
            SubstitutionTable(forward)
    source = bytearray(range(256))
    source[0], source[1] = 1, 0
    table = SubstitutionTable(source)
    assert type(table.forward) is bytes and hash(table) == hash(SubstitutionTable(bytes(source)))
    source[0] = 0  # a later change to the source leaves the table as it was
    assert table.forward[:2] == b"\x01\x00"
    assert unsubstitute(substitute(b"\x00\x01", table), table) == b"\x00\x01"
    for seed in range(5):
        table = generate_substitution_table(random.Random(seed))
        assert table.forward.translate(table.inverse) == bytes(range(256))


def test_window_permutation_validation():
    with pytest.raises(ValueError):
        WindowPermutation(0, ())
    with pytest.raises(ValueError):
        WindowPermutation(3, (0, 1))  # width mismatch
    with pytest.raises(ValueError):
        WindowPermutation(3, (0, 1, 1))  # repeated index
    with pytest.raises(ValueError):
        WindowPermutation(3, (0, 1, 3))  # out of range
    with pytest.raises(TypeError):
        WindowPermutation(10, tuple(float(i) for i in range(10)))
    with pytest.raises(TypeError):
        WindowPermutation(3, (0, 1.5, 2))
    numpy_map = WindowPermutation(3, tuple(np.array([2, 0, 1], dtype=np.uint8)))
    assert all(type(i) is int for i in numpy_map.map)
    assert numpy_map == WindowPermutation(3, (2, 0, 1))
    assert hash(numpy_map) == hash(WindowPermutation(3, (2, 0, 1)))
    for width in (0, -1):
        with pytest.raises(ValueError, match="window width must be positive"):
            generate_window_permutation(random.Random(0), width)


def test_generation_uniformity_width_three():
    rng = random.Random(99)
    counts = Counter(tuple(generate_window_permutation(rng, 3).map) for _ in range(60_000))
    assert len(counts) == 6
    _stat, p = scipy.stats.chisquare(list(counts.values()))
    assert p >= 0.001


def test_keyset_validation(fixed_rng):
    good = identity_keyset()
    with pytest.raises(ValueError):
        KeySet(good.sub, WindowPermutation.identity(9), good.bit_perm, good.rbs, RULE_B)
    with pytest.raises(ValueError):
        KeySet(good.sub, good.byte_perm, WindowPermutation.identity(79), good.rbs, RULE_B)
    with pytest.raises(ValueError):
        KeySet(good.sub, good.byte_perm, good.bit_perm, good.rbs, "C")


def test_generate_keyset_shape(fixed_rng):
    ks = generate_keyset(fixed_rng, rbs_bits=256, rule=RULE_A)
    assert ks.byte_perm.width == 10
    assert ks.bit_perm.width == 80
    assert ks.rbs.length == 256
    assert ks.rule == RULE_A


# --- serialization -------------------------------------------------------

def test_seeded_key_images_are_pinned():
    # every generated part (table, both window maps, loop) of seeded keys,
    # so a change to how key material is drawn cannot go unnoticed
    digest = hashlib.sha256()
    for seed in (0, 1, 7):
        for bits in (80, 1001, 1 << 16):
            for rule in RULES:
                digest.update(serialize_keyset(generate_keyset(random.Random(seed), rbs_bits=bits, rule=rule)))
    assert digest.hexdigest() == "830e5353ff24bdfa7b4c499be9a59ab9ae98d42d1a813adc6e9169818e70d3a1"


def test_minimal_keyset_byte_exact_image():
    blob = serialize_keyset(identity_keyset())
    expected = (
        b"IREK"
        + bytes([1, 1])
        + bytes(range(256))
        + bytes(range(10))
        + bytes(range(80))
        + struct.pack("<Q", 80)
        + bytes(10)
    )
    assert blob == expected
    assert len(blob) == 370


def test_rule_a_flag_byte():
    blob = serialize_keyset(identity_keyset(rule=RULE_A))
    assert blob[5] == 0


def test_key_file_size_for_large_loop(fixed_rng):
    ks = generate_keyset(fixed_rng, rbs_bits=1 << 20)
    assert len(serialize_keyset(ks)) == 4 + 1 + 1 + 256 + 10 + 80 + 8 + (1 << 20) // 8


def test_parse_round_trip(fixed_rng):
    for rule in (RULE_A, RULE_B):
        for bits in (80, 81, 100, 731):
            ks = generate_keyset(fixed_rng, rbs_bits=bits, rule=rule)
            blob = serialize_keyset(ks)
            again = parse_keyset(blob)
            assert again == ks
            assert serialize_keyset(again) == blob


@settings(max_examples=25)
@given(seed=st.integers(0, 2 ** 32 - 1), bits=st.integers(80, 400))
def test_parse_round_trip_property(seed, bits):
    ks = generate_keyset(random.Random(seed), rbs_bits=bits)
    assert parse_keyset(serialize_keyset(ks)) == ks


def test_keyset_parsed_from_bytes_shares_its_memory():
    image = serialize_keyset(generate_keyset(random.Random(3), rbs_bits=731))
    keyset = parse_keyset(image)
    assert np.shares_memory(keyset.rbs.packed, np.frombuffer(image, dtype=np.uint8))
    assert not keyset.rbs.packed.flags.writeable
    assert serialize_keyset(keyset) == image


@pytest.mark.parametrize("read_only_view", [False, True])
def test_keyset_parsed_from_a_bytearray_is_a_copy(read_only_view):
    image = serialize_keyset(generate_keyset(random.Random(4), rbs_bits=731))
    expected = parse_keyset(image)
    source = bytearray(image)
    keyset = parse_keyset(memoryview(source).toreadonly() if read_only_view else source)
    source[6:] = bytes(len(source) - 6)  # table, maps and every loop byte
    source.extend(b"\x00")  # resizable: the keyset holds no view of it
    assert keyset == expected
    assert serialize_keyset(keyset) == image


def test_parse_and_serialize_make_no_second_loop():
    image = serialize_keyset(generate_keyset(random.Random(6)))  # a 2^23-bit loop
    gc.collect()
    tracemalloc.start()
    try:
        keyset = parse_keyset(image)
        _, parse_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        again = serialize_keyset(keyset)
        _, serialize_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert again == image
    assert parse_peak <= 0.05 * len(image), f"parse peaked at {parse_peak / len(image):.3f}x the image"
    assert serialize_peak <= 1.1 * len(image), f"serialize peaked at {serialize_peak / len(image):.2f}x the image"


def test_parse_rejects_bad_magic():
    with pytest.raises(KeyFormatError, match="magic"):
        parse_keyset(b"NOPE" + bytes(400))
    with pytest.raises(KeyFormatError, match="truncated"):
        parse_keyset(b"IR")


def test_parse_rejects_unknown_version():
    blob = bytearray(serialize_keyset(identity_keyset()))
    blob[4] = 2
    with pytest.raises(KeyFormatError, match="version"):
        parse_keyset(bytes(blob))


def test_parse_rejects_bad_rule_flag():
    blob = bytearray(serialize_keyset(identity_keyset()))
    blob[5] = 7
    with pytest.raises(KeyFormatError, match="rule flag"):
        parse_keyset(bytes(blob))


def test_parse_rejects_duplicate_table_entry():
    blob = bytearray(serialize_keyset(identity_keyset()))
    blob[6] = blob[7]  # two table slots now map to the same byte
    with pytest.raises(KeyFormatError, match="substitution table"):
        parse_keyset(bytes(blob))


def test_parse_rejects_bad_window_maps():
    blob = bytearray(serialize_keyset(identity_keyset()))
    blob[262] = 9
    blob[263] = 9
    with pytest.raises(KeyFormatError, match="byte-window"):
        parse_keyset(bytes(blob))
    blob = bytearray(serialize_keyset(identity_keyset()))
    blob[272] = 200  # out of range for a width-80 map
    with pytest.raises(KeyFormatError, match="bit-window"):
        parse_keyset(bytes(blob))


def test_parse_rejects_short_rbs():
    blob = bytearray(serialize_keyset(identity_keyset()))
    struct.pack_into("<Q", blob, 352, 79)
    with pytest.raises(KeyFormatError, match="shorter than 80"):
        parse_keyset(bytes(blob))


def test_parse_rejects_truncated_rbs():
    blob = serialize_keyset(identity_keyset())
    with pytest.raises(KeyFormatError, match="truncated"):
        parse_keyset(blob[:-3])
    with pytest.raises(KeyFormatError, match="truncated"):
        parse_keyset(blob[:300])


def test_parse_rejects_trailing_data():
    blob = serialize_keyset(identity_keyset())
    with pytest.raises(KeyFormatError, match="inconsistent"):
        parse_keyset(blob + b"\x00")


def test_parse_rejects_nonzero_pad_bits(fixed_rng):
    ks = generate_keyset(fixed_rng, rbs_bits=81)  # 81 bits leave 7 pad bits
    blob = bytearray(serialize_keyset(ks))
    blob[-1] |= 0x01
    with pytest.raises(KeyFormatError, match="pad bits"):
        parse_keyset(bytes(blob))


def test_parse_declared_length_checked_before_allocation():
    blob = bytearray(serialize_keyset(identity_keyset()))
    struct.pack_into("<Q", blob, 352, 1 << 62)  # absurd length, tiny file
    with pytest.raises(KeyFormatError, match="truncated"):
        parse_keyset(bytes(blob))


def test_a_bug_past_the_checks_is_not_a_format_error(monkeypatch):
    # parse_keyset checks all it hands to KeySet, so a ValueError from
    # there is a bug and must surface as one
    def broken(**fields):
        raise ValueError("constructor bug")

    monkeypatch.setattr(ire.keymat, "KeySet", broken)
    with pytest.raises(ValueError, match="constructor bug"):
        parse_keyset(serialize_keyset(identity_keyset()))


def test_fingerprints_differ():
    a = serialize_keyset(generate_keyset(random.Random(1), rbs_bits=80))
    b = serialize_keyset(generate_keyset(random.Random(2), rbs_bits=80))
    assert keyset_fingerprint(a) != keyset_fingerprint(b)
    assert len(keyset_fingerprint(a)) == 64


def test_parse_keyset_memory_stays_near_the_image_size():
    # the packed loop is never unpacked, during the parse or by a later
    # encrypt and decrypt whose keystream wraps the loop end
    image = serialize_keyset(generate_keyset(random.Random(5)))  # a 2^23-bit loop
    gc.collect()
    tracemalloc.start()
    try:
        keyset = parse_keyset(image)
        _, peak = tracemalloc.get_traced_memory()
        envelope = encrypt(b"wraps the end", keyset, keyset.rbs.length - 50)
        assert decrypt(envelope, keyset) == b"wraps the end"
        del envelope
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * len(image), f"parse peaked at {peak / len(image):.2f}x the image"
    assert held <= 1.1 * len(image), f"keyset holds {held / len(image):.2f}x the image"
