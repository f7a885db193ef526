import gc
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ire import ops
from ire.bits import bits_to_bytes, bytes_to_bits
from ire.envelope import HEADER_LEN, decode_envelope, encode_envelope
from ire.errors import CorruptionError, OffsetError, RuleMismatchError
from ire.keymat import (
    RULE_A,
    RULE_B,
    KeySet,
    SubstitutionTable,
    WindowPermutation,
    generate_keyset,
    parse_keyset,
    serialize_keyset,
)
from ire.keystream import RbsLoop
from ire.ops import decrypt, encrypt
from test_sliding import _map_with_cycles


def identity_keyset(rule=RULE_B, rbs_bits=80):
    return KeySet(
        sub=SubstitutionTable.identity(),
        byte_perm=WindowPermutation.identity(10),
        bit_perm=WindowPermutation.identity(80),
        rbs=RbsLoop(np.zeros(rbs_bits, dtype=np.uint8)),
        rule=rule,
    )


# --- transparency under the degenerate keyset ------------------------------

def test_identity_keyset_rule_b_is_transparent():
    # every stage collapses: payload is the padded plaintext verbatim
    env = encrypt(b"hello world!", identity_keyset(), 0)
    assert env.payload == b"hello world!"
    env = encrypt(b"hi", identity_keyset(), 0)
    assert env.payload == b"hi" + b" " * 8


def test_identity_keyset_rule_a_complements():
    env = encrypt(b"hello world!", identity_keyset(rule=RULE_A), 0)
    assert env.payload == bytes(b ^ 0xFF for b in b"hello world!")


# --- agreement with the independent reference ------------------------------

def test_matches_reference_pipeline():
    rng = random.Random(0xFEED)
    for trial in range(40):
        keyset = generate_keyset(rng, rbs_bits=rng.choice([80, 96, 257]),
                                 rule=rng.choice([RULE_A, RULE_B]))
        message = bytes(rng.randrange(256) for _ in range(rng.randrange(40)))
        offset = rng.randrange(keyset.rbs.length)
        env = encrypt(message, keyset, offset)
        ref_payload, ref_pad = oracles.encrypt_reference(message, keyset, offset)
        assert env.payload == ref_payload, f"trial {trial}"
        assert env.pad_count == ref_pad
        assert env.start_offset == offset
        assert env.rule_echo == keyset.rule


# --- round trips ------------------------------------------------------------

def _composed_payload(message, keyset, offset):
    padded = ops.pad(message)
    data = ops.sliding_byte_permute(ops.substitute(padded.data, keyset.sub), keyset.byte_perm)
    bits = ops.sliding_bit_permute(bytes_to_bits(data), keyset.bit_perm)
    return bits_to_bytes(ops.keystream_combine(bits, keyset.rbs, offset, keyset.rule))


def _extreme_window_maps(rng):
    """(byte map, bit map) pairs at the ends of the shift range: no
    slack, all slack (every offset but W-1 a fixed point of the walk, or
    one cycle through all of them), and walk cycles of 1, 2 and 31."""
    def rotate_right(width):
        return (width - 1,) + tuple(range(width - 1))

    return [
        (tuple(range(10)), tuple(range(80))),
        (rotate_right(10), rotate_right(80)),
        (rotate_right(10), tuple(range(80))),
        (tuple(range(10)), _map_with_cycles(80, (79,), rng)),
        (tuple(rng.sample(range(10), 10)), _map_with_cycles(80, (1, 2, 31), rng)),
    ]


@pytest.mark.parametrize("rbs_bits", [97, 4096, 300_007, 1_500_007])
def test_pipeline_matches_public_stages_across_blocks(rbs_bits):
    # encrypt and decrypt fuse the bit window with the combine and work
    # through packed bytes a block at a time; lengths around the block
    # size, and loops shorter than a block, must give what the separate
    # public stages give; so must short messages, whose window edges
    # overlap, under maps with no shift and with the largest shifts
    rng = random.Random(71 + rbs_bits)
    block_bytes = ops._BLOCK_BYTES
    for rule in (RULE_A, RULE_B):
        keyset = generate_keyset(rng, rbs_bits=rbs_bits, rule=rule)
        for n in (10, 11, block_bytes - 1, block_bytes, block_bytes + 1, 2 * block_bytes + 77):
            message = rng.randbytes(n)
            offset = rng.randrange(rbs_bits)
            env = encrypt(message, keyset, offset)
            assert env.payload == _composed_payload(message, keyset, offset), (rule, n)
            assert decrypt(env, keyset) == message
        for byte_map, bit_map in _extreme_window_maps(rng):
            extreme = KeySet(keyset.sub, WindowPermutation(10, byte_map),
                             WindowPermutation(80, bit_map), keyset.rbs, rule)
            for n in (0, 9, 10, 11, 12, 19, 20, 21, 30, 1000, block_bytes + 1):
                message = rng.randbytes(n)
                offset = rng.randrange(rbs_bits)
                env = encrypt(message, extreme, offset)
                assert env.payload == _composed_payload(message, extreme, offset), (rule, n, bit_map)
                assert decrypt(env, extreme) == message


def test_round_trip_across_lengths(small_keyset):
    rng = random.Random(31337)
    for n in [0, 1, 9, 10, 11, 79, 80, 81, 100, 1000]:
        message = bytes(rng.randrange(256) for _ in range(n))
        offset = rng.randrange(small_keyset.rbs.length)
        assert decrypt(encrypt(message, small_keyset, offset), small_keyset) == message


def test_round_trip_through_wire_image(small_keyset):
    message = b"over the wire and back again"
    env = encrypt(message, small_keyset, 17)
    assert decrypt(decode_envelope(encode_envelope(env)), small_keyset) == message


@settings(max_examples=60)
@given(message=st.binary(max_size=600), offset=st.integers(0, 511), seed=st.integers(0, 2 ** 20))
def test_round_trip_property(message, offset, seed):
    keyset = generate_keyset(random.Random(seed), rbs_bits=512)
    assert decrypt(encrypt(message, keyset, offset), keyset) == message


def test_wrap_at_loop_end(small_keyset):
    # drawing starts 5 bits before the seam; a 100-byte message pulls the
    # keystream across it and around the loop many times
    offset = small_keyset.rbs.length - 5
    message = bytes(range(100))
    env = encrypt(message, small_keyset, offset)
    assert decrypt(env, small_keyset) == message
    ref_payload, _ = oracles.encrypt_reference(message, small_keyset, offset)
    assert env.payload == ref_payload


# --- failure modes ----------------------------------------------------------

def test_rule_mismatch_is_refused(small_keyset):
    env = encrypt(b"message", small_keyset, 3)
    other = KeySet(small_keyset.sub, small_keyset.byte_perm, small_keyset.bit_perm,
                   small_keyset.rbs, RULE_A if small_keyset.rule == RULE_B else RULE_B)
    with pytest.raises(RuleMismatchError):
        decrypt(env, other)


def test_offset_beyond_loop_is_refused(small_keyset):
    env = encrypt(b"message in range", small_keyset, 0)
    bad = type(env)(env.rule_echo, env.pad_count, small_keyset.rbs.length, env.payload)
    with pytest.raises(OffsetError, match="offset"):
        decrypt(bad, small_keyset)
    with pytest.raises(OffsetError, match="offset"):
        encrypt(b"message in range", small_keyset, small_keyset.rbs.length)


def test_bit_flip_changes_plaintext_silently(small_keyset):
    # no integrity layer: a long message (no pad bytes to trip over)
    # decrypts cleanly to something else
    message = bytes(range(64))
    env = encrypt(message, small_keyset, 11)
    tampered_payload = bytearray(env.payload)
    tampered_payload[40] ^= 0x10
    tampered = type(env)(env.rule_echo, env.pad_count, env.start_offset, bytes(tampered_payload))
    recovered = decrypt(tampered, small_keyset)
    assert len(recovered) == len(message)
    assert recovered != message


def test_tampered_pad_region_is_detected():
    # under the transparent keyset the pad bytes sit at the payload tail,
    # so flipping one reliably trips the pad-consistency check
    keyset = identity_keyset()
    env = encrypt(b"tiny", keyset, 0)
    assert env.pad_count == 6
    tampered_payload = bytearray(env.payload)
    tampered_payload[-1] ^= 0xFF
    tampered = type(env)(env.rule_echo, env.pad_count, env.start_offset, bytes(tampered_payload))
    with pytest.raises(CorruptionError):
        decrypt(tampered, keyset)


# --- size law ----------------------------------------------------------------

def test_ciphertext_size_law(small_keyset):
    for n in [0, 1, 9, 10, 11, 100]:
        env = encrypt(bytes(n), small_keyset, 0)
        assert len(env.payload) == max(n, 10)
        assert len(encode_envelope(env)) == HEADER_LEN + max(n, 10)


# --- memory ------------------------------------------------------------------

def test_wrapping_1mib_round_trip_peaks_under_4x_payload():
    # reading the key across the loop end must not expand the loop
    keyset = parse_keyset(serialize_keyset(generate_keyset(random.Random(73))))
    message = random.Random(79).randbytes(1 << 20)
    offset = keyset.rbs.length - 12_345
    envelope = encrypt(message, keyset, offset)
    assert decrypt(envelope, keyset) == message  # plans warm
    gc.collect()
    tracemalloc.start()
    try:
        encrypt(message, keyset, offset)
        _, enc_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        decrypt(envelope, keyset)
        _, dec_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert enc_peak <= 4 * len(message), f"encrypt peaked at {enc_peak / len(message):.2f}x"
    assert dec_peak - before <= 4 * len(message), f"decrypt peaked at {(dec_peak - before) / len(message):.2f}x"


def test_memory_held_does_not_grow_with_distinct_lengths():
    keyset = generate_keyset(random.Random(61), rbs_bits=4096)
    rng = random.Random(67)
    lengths = rng.sample(range(1024, (256 << 10) + 1), 39) + [256 << 10]
    decrypt(encrypt(b"warm-up message", keyset, 0), keyset)  # per-key state, built once
    gc.collect()
    tracemalloc.start()
    try:
        for length in lengths:
            message = rng.randbytes(length)
            assert decrypt(encrypt(message, keyset, rng.randrange(4096)), keyset) == message
        del message
        gc.collect()
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1_000_000, f"{held} bytes still held after {len(lengths)} lengths"
