import hashlib
import math
import mmap
import random
from collections import Counter

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from ire.analysis import monobit_test
from ire.bits import bits_from_string, bits_to_string
from ire.errors import GenerationError
from ire.keystream import DEFAULT_RBS_BITS, RbsLoop, choose_offset, generate_rbs


def make_loop(pattern, length):
    bits = [int(pattern[i % len(pattern)]) for i in range(length)]
    return RbsLoop(np.array(bits, dtype=np.uint8))


# --- RbsLoop basics -------------------------------------------------------

def test_loop_validation():
    with pytest.raises(ValueError):
        RbsLoop(np.zeros(79, dtype=np.uint8))  # below the bit-window width
    with pytest.raises(ValueError):
        RbsLoop(np.zeros((8, 10), dtype=np.uint8))
    with pytest.raises(ValueError):
        RbsLoop(np.full(80, 2, dtype=np.uint8))


def test_loop_is_immutable():
    arr = np.zeros(80, dtype=np.uint8)
    loop = RbsLoop(arr)
    with pytest.raises(ValueError):
        loop.bits[0] = 1


def test_bit_at_wraps():
    loop = make_loop("10", 80)
    assert loop.bit_at(0) == 1
    assert loop.bit_at(1) == 0
    assert loop.bit_at(80) == 1  # one full revolution
    assert loop.bit_at(163) == loop.bit_at(3)


def test_fragment_without_wrap():
    loop = make_loop("10010110", 96)
    frag = loop.fragment(3, 8)
    assert bits_to_string(frag) == "10110100"


def test_fragment_wraps_at_boundary():
    bits = np.zeros(100, dtype=np.uint8)
    bits[95:] = 1
    bits[:5] = [0, 1, 0, 1, 0]
    loop = RbsLoop(bits)
    frag = loop.fragment(95, 10)
    assert bits_to_string(frag) == "1111101010"


def test_fragment_longer_than_loop_repeats():
    loop = make_loop("10110", 80)
    frag = loop.fragment(0, 200)
    expected = np.array([loop.bit_at(i) for i in range(200)], dtype=np.uint8)
    assert np.array_equal(frag, expected)


def test_fragment_composability():
    loop = make_loop("1101000101101", 91)
    rng = random.Random(7)
    for _ in range(50):
        offset = rng.randrange(91)
        a, b = rng.randrange(1, 120), rng.randrange(1, 120)
        joined = np.concatenate([loop.fragment(offset, a), loop.fragment((offset + a) % 91, b)])
        assert np.array_equal(joined, loop.fragment(offset, a + b))


def test_fragment_validation():
    loop = make_loop("01", 80)
    with pytest.raises(ValueError):
        loop.fragment(-1, 4)
    with pytest.raises(ValueError):
        loop.fragment(80, 4)
    with pytest.raises(ValueError):
        loop.fragment(0, -1)
    assert loop.fragment(5, 0).size == 0


def test_packed_round_trip():
    rng = random.Random(11)
    for length in (80, 81, 88, 100, 731):
        bits = np.array([rng.randrange(2) for _ in range(length)], dtype=np.uint8)
        loop = RbsLoop(bits)
        packed = loop.to_packed()
        assert len(packed) == (length + 7) // 8
        assert RbsLoop.from_packed(packed, length) == loop


def test_from_packed_rejects_bad_length():
    with pytest.raises(ValueError):
        RbsLoop.from_packed(bytes(10), 81)  # needs 11 bytes
    with pytest.raises(ValueError):
        RbsLoop.from_packed(bytes(11), 80)  # one byte too many


def test_from_packed_zeroes_pad_bits_and_copies():
    loop = RbsLoop.from_packed(b"\xff" * 11, 81)  # a raw file read as 81 bits
    assert loop.to_packed() == b"\xff" * 10 + b"\x80"
    assert loop == RbsLoop(np.ones(81, dtype=np.uint8))
    source = bytearray(b"\x0f" * 10)
    loop = RbsLoop.from_packed(source, 80)
    source[0] = 0xFF
    assert loop.bit_at(0) == 0


def test_from_packed_views_bytes_and_copies_other_buffers():
    data = bytes(range(1, 12))  # 88 bits, no pad bits
    for source, length in ((data, 88), (memoryview(data)[1:], 80)):
        loop = RbsLoop.from_packed(source, length)
        assert np.shares_memory(loop.packed, np.frombuffer(data, dtype=np.uint8))
    with mmap.mmap(-1, len(data)) as source:  # closing fails while a view is held
        source[:] = data
        loop = RbsLoop.from_packed(source, 88)
        source[:] = bytes(len(data))
    assert loop.to_packed() == data


# --- the packed loop against its unpacked definition -------------------------

@pytest.mark.parametrize("length", [80, 81, 87, 96, 101, 1001])
def test_fragment_matches_unpacked_definition_at_seams(length):
    # offsets within 8 bits of either end; counts that stop short of the
    # end, reach it, and cross it once or several times
    rng = random.Random(length)
    bits = np.array([rng.randrange(2) for _ in range(length)], dtype=np.uint8)
    loop = RbsLoop(bits)
    for offset in [*range(9), *range(length - 9, length)]:
        room = length - offset
        for count in {0, 1, 7, 8, 9, room - 1, room, room + 1, room + 8,
                      room + length, room + 2 * length + 3}:
            expected = bits[(offset + np.arange(count)) % length]
            assert np.array_equal(loop.fragment(offset, count), expected), (offset, count)


def test_packed_read_matches_unpacked_definition():
    # starts within 8 bits of either end, and where a read ends one bit
    # short of the seam; reads of one byte up to past two periods of
    # length / gcd(length, 8) bytes, so the doubling fill runs
    rng = random.Random(61)
    for length in (80, 81, 97, 1000, 4099):
        bits = np.array([rng.randrange(2) for _ in range(length)], dtype=np.uint8)
        loop = RbsLoop(bits)
        period = length // math.gcd(length, 8)
        for nbytes in {1, 2, 13, 124, 600, period - 1, period, period + 1, 2 * period + 3}:
            for start in {*range(9), *range(length - 9, length), length - 8 * nbytes - 1}:
                if not 0 <= start < length:
                    continue
                out = np.empty(nbytes, dtype=np.uint8)
                loop.read(start, out)
                expected = np.packbits(bits[(start + np.arange(8 * nbytes)) % length])
                assert np.array_equal(out, expected), (length, nbytes, start)
        for start in (-1, length):
            with pytest.raises(ValueError):
                loop.read(start, np.empty(1, dtype=np.uint8))

def generate_rbs_unpacked(rng, length):
    """generate_rbs written over unpacked bits; returns its packed loop and the draws it took."""
    nbytes = (length + 7) // 8
    for draws in range(1, 9):
        raw = rng.getrandbits(length).to_bytes(nbytes, "big")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[8 * nbytes - length:]
        if length < 100 or monobit_test(bits).passed:
            return np.packbits(bits).tobytes(), draws
    raise AssertionError("no candidate passed")


@pytest.mark.parametrize("seed, length, draws", [
    (5, 80, 1), (5, 100, 1), (143, 100, 2), (7, 1001, 1), (390, 1001, 2),
    (11, (1 << 16) + 3, 1), (62, (1 << 16) + 3, 2),
])
def test_generate_rbs_matches_unpacked_definition(seed, length, draws):
    expected, used = generate_rbs_unpacked(random.Random(seed), length)
    assert used == draws  # the seeds with draws == 2 do take the redraw path
    loop = generate_rbs(random.Random(seed), length)
    assert loop.to_packed() == expected
    assert np.array_equal(loop.bits, np.unpackbits(np.frombuffer(expected, dtype=np.uint8), count=length))


# --- offset selection -----------------------------------------------------

def test_choose_offset_in_range():
    rng = random.Random(3)
    for _ in range(2000):
        assert 0 <= choose_offset(rng, 513) < 513


def test_choose_offset_unbiased():
    rng = random.Random(5)
    counts = Counter(choose_offset(rng, 4) for _ in range(100_000))
    _stat, p = scipy.stats.chisquare([counts[i] for i in range(4)])
    assert p >= 0.001


def test_choose_offset_validation():
    with pytest.raises(ValueError):
        choose_offset(random.Random(0), 0)


# --- generation -----------------------------------------------------------

def test_generate_rbs_rejects_short_request():
    with pytest.raises(ValueError):
        generate_rbs(random.Random(0), 79)


def test_generate_rbs_small_skips_balance_gate():
    # below the monobit sample-size floor the gate cannot run
    loop = generate_rbs(random.Random(0), 80)
    assert loop.length == 80


def test_generate_rbs_is_roughly_balanced():
    loop = generate_rbs(random.Random(42), DEFAULT_RBS_BITS >> 3)
    n = loop.length
    ones = int(loop.bits.sum())
    # 3.29 sigma two-sided bound, sigma = sqrt(n)/2 for a fair coin
    assert abs(ones - n / 2) <= 3.29 * math.sqrt(n) / 2


def test_generate_rbs_default_length_known_answer():
    # a seeded default-size loop stays bit-identical
    loop = generate_rbs(random.Random(5))
    assert loop.length == DEFAULT_RBS_BITS
    assert hashlib.sha256(loop.to_packed()).hexdigest() == (
        "8968dd967f8589e4d11dff3ba164545597d7e98f2d00270a2dc40939aa35bf24")


def test_generate_rbs_seeded_is_deterministic():
    a = generate_rbs(random.Random(123), 1024)
    b = generate_rbs(random.Random(123), 1024)
    assert a == b


def test_generate_rbs_successive_draws_differ():
    rng = random.Random(9)
    assert generate_rbs(rng, 1024) != generate_rbs(rng, 1024)


class AllZeroRng(random.Random):
    def getrandbits(self, k):
        return 0


def test_generate_rbs_gives_up_on_degenerate_entropy():
    with pytest.raises(GenerationError):
        generate_rbs(AllZeroRng(), 1024)


def test_degenerate_entropy_ok_below_gate_floor():
    # the gate is skipped, so even a pathological source yields a loop
    loop = generate_rbs(AllZeroRng(), 80)
    assert int(loop.bits.sum()) == 0


@settings(max_examples=30)
@given(seed=st.integers(0, 2 ** 32 - 1), length=st.integers(80, 300))
def test_generate_rbs_length_property(seed, length):
    assert generate_rbs(random.Random(seed), length).length == length
