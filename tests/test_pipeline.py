import dataclasses
import gc
import hashlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ire import keystream, ops
from ire.bits import bits_to_bytes, bytes_to_bits
from ire.envelope import HEADER_LEN, CipherEnvelope, decode_envelope, encode_envelope
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
from ire.sliding import ShiftPlan
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


# SHA-256 over the payloads of the sweep below, as ops.encrypt gave them
# when this test was written: no change to the code may change a
# ciphertext.
_PINNED_SWEEP_DIGEST = "7432abd7be18f1c5e6405062691ceaca5f7297f58f67f58151b0c1f478245710"


def test_ciphertexts_are_pinned():
    # every short length and lengths around one and two blocks, under
    # loops shorter than a block and longer, both rules, the least and
    # the most slack in either window, from the loop's start and across
    # its seam
    rng = random.Random(0x5EED)
    block_bytes = keystream._BLOCK_BYTES
    lengths = [*range(131), *(k * block_bytes + d for k in (1, 2) for d in (-1, 0, 1))]
    digest = hashlib.sha256()
    for rbs_bits in (97, 4099, 300_007):
        for rule in (RULE_A, RULE_B):
            base = generate_keyset(rng, rbs_bits=rbs_bits, rule=rule)
            for byte_cycles in ((), (9,)):
                for bit_cycles in ((), (8,), (79,)):
                    keyset = KeySet(base.sub, WindowPermutation(10, _map_with_cycles(10, byte_cycles, rng)),
                                    WindowPermutation(80, _map_with_cycles(80, bit_cycles, rng)),
                                    base.rbs, rule)
                    for n in lengths:
                        message = rng.randbytes(n)
                        for offset in (0, rbs_bits - 3):
                            digest.update(encrypt(message, keyset, offset).payload)
    assert digest.hexdigest() == _PINNED_SWEEP_DIGEST


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
    # encrypt and decrypt run the packed stages, which work through
    # packed bytes a block at a time; lengths around the block
    # size, and loops shorter than a block, must give what the separate
    # public stages give; so must short messages, whose window edges
    # overlap, under maps with no shift and with the largest shifts
    rng = random.Random(71 + rbs_bits)
    block_bytes = keystream._BLOCK_BYTES
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


@pytest.mark.parametrize("rule", [RULE_A, RULE_B])
@pytest.mark.parametrize("byte_cycles, bit_cycles", [((), ()), ((), (79,)), ((9,), ()), ((9,), (79,))],
                         ids=["slack 0 0", "slack 0 79", "slack 9 0", "slack 9 79"])
def test_edge_fixups_match_public_stages_and_reference(byte_cycles, bit_cycles, rule):
    # the bit window's fixups are written at the edges of packed bytes
    # (encrypt) or of the output (decrypt); check every short length,
    # where the edges meet, and lengths around one block, with the least
    # and the most slack in either window, at offsets near the loop's end
    rng = random.Random(97 + len(byte_cycles) + len(bit_cycles))
    base = generate_keyset(rng, rbs_bits=4099, rule=rule)
    keyset = KeySet(base.sub, WindowPermutation(10, _map_with_cycles(10, byte_cycles, rng)),
                    WindowPermutation(80, _map_with_cycles(80, bit_cycles, rng)), base.rbs, rule)
    assert ShiftPlan(keyset.byte_perm.map).slack == sum(byte_cycles)
    assert ShiftPlan(keyset.bit_perm.map).slack == sum(bit_cycles)
    loop = keyset.rbs.length
    offsets = [0, loop - 1, loop - 4, loop - 8]
    block_bytes = keystream._BLOCK_BYTES
    for n in [*range(10, 97), block_bytes - 1, block_bytes, block_bytes + 1, block_bytes + 10]:
        message = rng.randbytes(n)
        for offset in offsets:
            env = encrypt(message, keyset, offset)
            assert env.payload == _composed_payload(message, keyset, offset), (n, offset)
            assert decrypt(env, keyset) == message, (n, offset)
        if n <= 96:
            offset = offsets[n % len(offsets)]
            reference, _pad_count = oracles.encrypt_reference(message, keyset, offset)
            assert encrypt(message, keyset, offset).payload == reference, (n, offset)


@pytest.mark.parametrize("rule", [RULE_A, RULE_B])
@pytest.mark.parametrize("byte_cycles, bit_cycles",
                         [((), ()), ((), (79,)), ((9,), ()), ((9,), (79,)), ((9,), (8,))],
                         ids=["slack 0 0", "slack 0 79", "slack 9 0", "slack 9 79", "slack 9 8"])
def test_every_short_length_matches_reference_and_public_stages(byte_cycles, bit_cycles, rule):
    # encrypt reads the interior straight from the substituted bytes and
    # patches only the ends, and decrypt works in one array; below about
    # 50 bytes the ends meet and the whole message is edge, so check
    # every length up to 120 against the reference and the public stages
    rng = random.Random(113 + 2 * len(byte_cycles) + len(bit_cycles))
    base = generate_keyset(rng, rbs_bits=1031, rule=rule)
    keyset = KeySet(base.sub, WindowPermutation(10, _map_with_cycles(10, byte_cycles, rng)),
                    WindowPermutation(80, _map_with_cycles(80, bit_cycles, rng)), base.rbs, rule)
    loop = keyset.rbs.length
    offsets = [0, loop - 1, loop - 5, rng.randrange(loop)]
    for n in range(121):
        message = rng.randbytes(n)
        for offset in offsets:
            env = encrypt(message, keyset, offset)
            assert env.payload == _composed_payload(message, keyset, offset), (n, offset)
            assert decrypt(env, keyset) == message, (n, offset)
        offset = offsets[n % len(offsets)]
        env = encrypt(message, keyset, offset)
        assert (env.payload, env.pad_count) == oracles.encrypt_reference(message, keyset, offset), (n, offset)


# --- the packed stages, one at a time --------------------------------------

def _stage_lengths():
    block_bytes = keystream._BLOCK_BYTES
    return [*range(121), *(k * block_bytes + d for k in (1, 2) for d in (-1, 0, 1))]


@pytest.mark.parametrize("rbs_bits", [97, 4099, 300_007])
def test_packed_combine_matches_keystream_combine_over_zero_bits(rbs_bits):
    rng = random.Random(151 + rbs_bits)
    for rule in (RULE_A, RULE_B):
        rbs = generate_keyset(rng, rbs_bits=rbs_bits, rule=rule).rbs
        for n in _stage_lengths():
            for offset in (0, rbs_bits - 1, rbs_bits - 3, rbs_bits - 8, rng.randrange(rbs_bits)):
                expected = bits_to_bytes(ops.keystream_combine(np.zeros(8 * n, np.uint8), rbs, offset, rule))
                out = np.frombuffer(rng.randbytes(n), dtype=np.uint8).copy()
                ops.packed_combine(out, rbs, offset, rule)
                assert out.tobytes() == expected, (rule, n, offset)
            # a start before the loop's, as decrypt passes it, wraps
            ops.packed_combine(out, rbs, offset - 7 * rbs_bits, rule)
            assert out.tobytes() == expected, (rule, n, offset)


def _window_perms(rng):
    """(byte, bit) permutation pairs: the extreme maps, the least and
    the most slack in either window, and two drawn at random."""
    maps = _extreme_window_maps(rng) + [
        (_map_with_cycles(10, byte_cycles, rng), _map_with_cycles(80, bit_cycles, rng))
        for byte_cycles, bit_cycles in [((), ()), ((9,), (79,)), ((9,), (8,)), ((), (8,))]]
    maps += [(tuple(rng.sample(range(10), 10)), tuple(rng.sample(range(80), 80))) for _ in range(2)]
    return [(WindowPermutation(10, byte_map), WindowPermutation(80, bit_map)) for byte_map, bit_map in maps]


def test_packed_windows_match_the_unpacked_windows():
    # out starts nonzero, so the windows must be xored in, not written;
    # t is writable here, so a write to it would show
    rng = random.Random(157)
    for byte_perm, bit_perm in _window_perms(rng):
        for n in _stage_lengths():
            t = bytearray(rng.randbytes(n))
            kept = bytes(t)
            out = np.frombuffer(rng.randbytes(n), dtype=np.uint8).copy()
            before = out.copy()
            if n < 10:
                with pytest.raises(ValueError):
                    ops.packed_windows(out, t, byte_perm, bit_perm)
                continue
            ops.packed_windows(out, t, byte_perm, bit_perm)
            unpacked = ops.sliding_bit_permute(bytes_to_bits(ops.sliding_byte_permute(kept, byte_perm)), bit_perm)
            assert (out ^ before).tobytes() == bits_to_bytes(unpacked), (n, byte_perm.map, bit_perm.map)
            assert bytes(t) == kept


def test_packed_unwindows_match_the_unpacked_unpermutes():
    # work of the least size the stage asks for, its key bits zero and
    # its scratch bits not; the ciphertext is writable, so a write to it
    # would show
    rng = random.Random(163)
    for byte_perm, bit_perm in _window_perms(rng):
        lead, slack = byte_perm.plan.slack, bit_perm.plan.slack
        shift = 8 * lead + slack
        for n in _stage_lengths():
            ciphertext = bytearray(rng.randbytes(n))
            kept = bytes(ciphertext)
            work = np.unpackbits(np.frombuffer(rng.randbytes(n + lead + 10), dtype=np.uint8))
            work[shift:shift + 8 * n] = 0
            work = np.packbits(work)[:n + lead + -(-slack // 8)]
            if n < 10:  # shorter than any envelope's payload
                with pytest.raises(ValueError):
                    ops.packed_unwindows(work, ciphertext, byte_perm, bit_perm)
                continue
            substituted = ops.packed_unwindows(work, ciphertext, byte_perm, bit_perm)
            unpacked = ops.sliding_bit_unpermute(bytes_to_bits(kept), bit_perm)
            expected = ops.sliding_byte_unpermute(bits_to_bytes(unpacked), byte_perm)
            assert substituted.tobytes() == expected, (n, byte_perm.map, bit_perm.map)
            assert np.shares_memory(substituted, work) and substituted.size == n
            assert bytes(ciphertext) == kept


def _slack_keyset(seed):
    """A keyset whose byte and bit windows both have slack, the bit
    window's not a whole byte: 9 and 79."""
    rng = random.Random(seed)
    base = generate_keyset(rng, rbs_bits=997)
    return KeySet(base.sub, WindowPermutation(10, _map_with_cycles(10, (9,), rng)),
                  WindowPermutation(80, _map_with_cycles(80, (79,), rng)), base.rbs, base.rule)


def test_packed_combine_rejects_an_unknown_rule():
    out = np.zeros(20, dtype=np.uint8)
    with pytest.raises(ValueError, match="rule must be one of"):
        ops.packed_combine(out, _slack_keyset(167).rbs, 0, "C")


def test_packed_windows_reject_an_out_of_another_size():
    keyset = _slack_keyset(173)
    for size in (19, 21, 40):
        out = np.zeros(size, dtype=np.uint8)
        with pytest.raises(ValueError, match=f"out holds {size} bytes, the substituted bytes 20"):
            ops.packed_windows(out, bytes(20), keyset.byte_perm, keyset.bit_perm)
        assert not out.any()


def test_packed_unwindows_reject_a_ciphertext_under_ten_bytes():
    keyset = _slack_keyset(179)
    for n in range(10):
        work = np.zeros(n + 30, dtype=np.uint8)
        with pytest.raises(ValueError, match=f"at least 10 bytes, got {n}"):
            ops.packed_unwindows(work, bytes(n), keyset.byte_perm, keyset.bit_perm)
        assert not work.any()


def test_packed_unwindows_reject_a_short_work():
    # work needs n + L + ceil(S / 8) bytes: 20 + 9 + 10 here
    keyset = _slack_keyset(181)
    assert (keyset.byte_perm.plan.slack, keyset.bit_perm.plan.slack) == (9, 79)
    for size in (20, 38):
        work = np.zeros(size, dtype=np.uint8)
        with pytest.raises(ValueError, match=f"work holds {size} bytes, the windows need 39"):
            ops.packed_unwindows(work, bytes(20), keyset.byte_perm, keyset.bit_perm)
        assert not work.any()
    ops.packed_unwindows(np.zeros(39, dtype=np.uint8), bytes(20), keyset.byte_perm, keyset.bit_perm)


def _flipped_bits(a, b):
    return np.flatnonzero(np.unpackbits(np.frombuffer(a, dtype=np.uint8) ^ np.frombuffer(b, dtype=np.uint8)))


@pytest.mark.parametrize("seed", range(4))
def test_interior_changes_stay_local(seed):
    # away from the ends, each window is a fixed shift: message byte k
    # reaches only payload bits 8k - 8L - S .. 8k - 8L - S + 7, and
    # ciphertext bit j only plaintext byte (j + 8L + S) // 8, L and S
    # being the byte and the bit window's slack; streaming relies on it
    rng = random.Random(131 + seed)
    keyset = generate_keyset(rng, rbs_bits=rng.choice([97, 4099, 65_537]), rule=(RULE_A, RULE_B)[seed % 2])
    shift = 8 * ShiftPlan(keyset.byte_perm.map).slack + ShiftPlan(keyset.bit_perm.map).slack
    n = 400
    message = rng.randbytes(n)
    offset = rng.randrange(keyset.rbs.length)
    env = encrypt(message, keyset, offset)
    for k in rng.sample(range(64, n - 64), 12):
        changed = bytearray(message)
        changed[k] ^= 1 + rng.randrange(255)
        flipped = _flipped_bits(env.payload, encrypt(bytes(changed), keyset, offset).payload)
        assert flipped.size and flipped.min() >= 8 * k - shift and flipped.max() < 8 * k - shift + 8, k
    for j in rng.sample(range(8 * 64, 8 * (n - 64)), 12):
        payload = bytearray(env.payload)
        payload[j // 8] ^= 0x80 >> (j % 8)
        tampered = CipherEnvelope(env.rule_echo, env.pad_count, env.start_offset, bytes(payload))
        recovered = decrypt(tampered, keyset)
        assert [i for i in range(n) if recovered[i] != message[i]] == [(j + shift) // 8], j


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


NOT_AN_INT = "cannot be interpreted as an integer"  # operator.index's message

WRONG_TYPES = [  # (case, build under a good keyset, what the TypeError says)
    ("envelope start_offset 1.5", lambda ks: CipherEnvelope(RULE_B, 0, 1.5, b"0123456789"), NOT_AN_INT),
    ("envelope pad_count 1.0", lambda ks: CipherEnvelope(RULE_B, 1.0, 0, b"012345678 "), NOT_AN_INT),
    ("envelope start_offset '7'", lambda ks: CipherEnvelope(RULE_B, 0, "7", b"0123456789"), NOT_AN_INT),
    ("encrypt offset 1.5", lambda ks: encrypt(b"message in range", ks, 1.5), NOT_AN_INT),
    ("encrypt offset 2.0", lambda ks: encrypt(b"message in range", ks, 2.0), NOT_AN_INT),
    ("keyset rbs None", lambda ks: dataclasses.replace(ks, rbs=None), "rbs must be a RbsLoop"),
    ("keyset rbs bits", lambda ks: dataclasses.replace(ks, rbs=ks.rbs.bits), "rbs must be a RbsLoop"),
    ("keyset sub bytes", lambda ks: dataclasses.replace(ks, sub=bytes(range(256))), "sub must be a SubstitutionTable"),
    ("keyset byte_perm tuple", lambda ks: dataclasses.replace(ks, byte_perm=ks.byte_perm.map), "byte_perm must be a"),
    ("keyset bit_perm None", lambda ks: dataclasses.replace(ks, bit_perm=None), "bit_perm must be a"),
    ("padded message int", lambda ks: ops.PaddedMessage(10, 0), "bytes-like object"),
    ("padded message str", lambda ks: ops.PaddedMessage("0123456789", 0), "bytes-like object"),
    ("padded message pad_count 0.0", lambda ks: ops.PaddedMessage(b"0123456789", 0.0), NOT_AN_INT),
    ("padded message pad_count 2.0", lambda ks: ops.PaddedMessage(b"01234567  ", 2.0), NOT_AN_INT),
    ("loop from_packed bit_length 80.0", lambda ks: RbsLoop.from_packed(bytes(10), 80.0), NOT_AN_INT),
]


@pytest.mark.parametrize("build, says", [case[1:] for case in WRONG_TYPES], ids=[case[0] for case in WRONG_TYPES])
def test_wrong_types_are_refused_at_construction(build, says, small_keyset):
    # the constructor's or encrypt's own TypeError, not one raised later
    # in encode_envelope, a pipeline stage or decrypt
    with pytest.raises(TypeError, match=says):
        build(small_keyset)


def test_numpy_integers_are_stored_as_int(small_keyset):
    env = CipherEnvelope(RULE_B, np.uint8(2), np.uint64(6722), b"01234567  ")
    assert type(env.pad_count) is int and type(env.start_offset) is int
    assert env == CipherEnvelope(RULE_B, 2, 6722, b"01234567  ")
    assert hash(env) == hash(CipherEnvelope(RULE_B, 2, 6722, b"01234567  "))
    assert encrypt(b"message in range", small_keyset, np.int64(5)) == encrypt(b"message in range", small_keyset, 5)
    with pytest.raises(OffsetError, match="offset"):  # out of range keeps its error
        encrypt(b"message in range", small_keyset, np.int64(-1))
    padded = ops.PaddedMessage(b"01234567  ", np.uint8(2))
    assert type(padded.pad_count) is int and padded == ops.PaddedMessage(b"01234567  ", 2)
    assert ops.unpad(padded) == b"01234567"
    with pytest.raises(CorruptionError, match="pad count"):  # out of range keeps its error
        ops.PaddedMessage(b"01234567  ", np.int64(11))
    loop = RbsLoop.from_packed(bytes(10), np.int64(80))
    assert type(loop.length) is int and loop == RbsLoop.from_packed(bytes(10), 80)
    with pytest.raises(ValueError, match="cannot hold exactly"):
        RbsLoop.from_packed(bytes(10), np.int64(88))


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


def test_encrypt_hands_over_a_read_only_view(small_keyset):
    env = encrypt(b"a message of some length", small_keyset, 5)
    assert isinstance(env.payload, memoryview) and env.payload.readonly
    with pytest.raises(TypeError):
        env.payload[0] = 0
    with pytest.raises(ValueError):
        np.frombuffer(env.payload, dtype=np.uint8)[0] = 0
    assert decrypt(decode_envelope(encode_envelope(env)), small_keyset) == b"a message of some length"


@pytest.mark.parametrize("n", [3, 10, 100 << 10])
def test_decrypt_returns_exactly_bytes(small_keyset, n):
    message = random.Random(n).randbytes(n)
    plain = decrypt(encrypt(message, small_keyset, 7), small_keyset)
    assert type(plain) is bytes and plain == message


def test_changing_a_bytearray_message_after_encrypt_changes_no_envelope(small_keyset):
    original = random.Random(89).randbytes(300)
    message = bytearray(original)
    env = encrypt(message, small_keyset, 11)
    payload, wire = bytes(env.payload), encode_envelope(env)
    message[:] = bytes(len(message))
    assert bytes(env.payload) == payload and encode_envelope(env) == wire
    assert decrypt(env, small_keyset) == original


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


def test_1mib_calls_hold_one_working_array():
    # each direction allocates one payload-sized buffer beside the one it
    # must return: encrypt holds its copy of the message, which becomes
    # the payload the envelope keeps, and the substituted bytes; decrypt
    # holds its working buffer and the unsubstituted bytes, then those
    # and the bytes it returns.
    # The payload crosses the envelope as a view, so encode_envelope adds
    # only the wire bytes and decode_envelope adds nothing.
    keyset = parse_keyset(serialize_keyset(generate_keyset(random.Random(73))))
    message = random.Random(83).randbytes(1 << 20)
    offset = keyset.rbs.length - 77
    envelope = encrypt(message, keyset, offset)
    wire = encode_envelope(envelope)
    assert decrypt(decode_envelope(wire), keyset) == message  # plans warm
    for name, call, bound in (
        ("encrypt", lambda: encrypt(message, keyset, offset), 2.2),
        ("decrypt", lambda: decrypt(envelope, keyset), 2.1),
        ("encrypt + encode_envelope", lambda: encode_envelope(encrypt(message, keyset, offset)), 2.2),
        ("decode_envelope + decrypt", lambda: decrypt(decode_envelope(wire), keyset), 2.1),
    ):
        gc.collect()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1] / len(message)
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"{name} peaked at {peak:.2f}x"


def test_bytearray_message_is_copied_once():
    # encrypt copies any message once, straight into its working buffer,
    # so a bytearray peaks no higher than the same bytes
    keyset = generate_keyset(random.Random(89))
    message = random.Random(97).randbytes(256 << 10)
    encrypt(message, keyset, 5)  # plans warm
    peaks = {}
    for kind in (bytes, bytearray):
        given = kind(message)
        gc.collect()
        tracemalloc.start()
        try:
            payload = encrypt(given, keyset, 5).payload
            peaks[kind] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert payload == encrypt(message, keyset, 5).payload
    assert peaks[bytearray] <= peaks[bytes], {kind.__name__: peak / len(message) for kind, peak in peaks.items()}


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


def test_each_window_plan_is_built_once_per_keyset(monkeypatch):
    # the plans live on the keyset's permutations, so keysets used in
    # turn never evict each other's: six keysets build twelve plans in
    # all, on their first call, however many rounds follow
    keysets = [generate_keyset(random.Random(71 + i), rbs_bits=1024) for i in range(6)]
    hashes = [(hash(k.byte_perm), hash(k.bit_perm)) for k in keysets]
    built = []
    build = ShiftPlan.__init__

    def counted(self, pmap):
        built.append(tuple(pmap))
        build(self, pmap)

    monkeypatch.setattr(ShiftPlan, "__init__", counted)
    message = bytes(range(200))
    for _ in range(3):
        for keyset in keysets:
            assert decrypt(encrypt(message, keyset, 17), keyset) == message
    assert len(built) == 2 * len(keysets)
    # a built plan stays out of equality and hashing
    for keyset, before in zip(keysets, hashes):
        assert parse_keyset(serialize_keyset(keyset)) == keyset
        assert (hash(keyset.byte_perm), hash(keyset.bit_perm)) == before


def test_readme_library_example_runs():
    # the example imports only from the top-level package, so it breaks
    # when the README and the package's exports drift apart
    import re
    from pathlib import Path

    import ire

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    example = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    imported = re.search(r"from ire import \((.*?)\)", example, re.DOTALL).group(1)
    assert {name.strip() for name in imported.split(",") if name.strip()} <= set(ire.__all__)
    exec(compile(example, "README.md", "exec"), {})


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition goes breaks star imports
    import importlib
    import pkgutil

    import ire

    modules = [ire] + [importlib.import_module(f"ire.{info.name}") for info in pkgutil.iter_modules(ire.__path__)]
    exporting = [module for module in modules if hasattr(module, "__all__")]
    assert {module.__name__ for module in exporting} >= {"ire", "ire.keymat", "ire.keystream", "ire.ops"}
    for module in exporting:
        assert [name for name in module.__all__ if not hasattr(module, name)] == [], module.__name__
