import math
import random

import numpy as np
import pytest

import oracles
from ire.analysis import (
    ALPHA,
    MIN_TEST_BITS,
    TestVerdict,
    bench_linear,
    monobit_test,
    monobit_verdict,
    packed_bit_counts,
    runs_test,
    runs_verdict,
)
from ire.keystream import RbsLoop, generate_rbs


def bits_of(pattern, length):
    return np.array([int(pattern[i % len(pattern)]) for i in range(length)], dtype=np.uint8)


# --- monobit ----------------------------------------------------------------

def test_monobit_balanced_passes():
    verdict = monobit_test(bits_of("01", 10_000))
    assert verdict.statistic == 0.0
    assert verdict.p_value == 1.0
    assert verdict.passed and verdict.applicable


def test_monobit_constant_fails():
    verdict = monobit_test(np.ones(10_000, dtype=np.uint8))
    assert verdict.statistic == pytest.approx(100.0)
    assert verdict.p_value < 1e-300
    assert not verdict.passed


def test_monobit_single_extra_one():
    bits = bits_of("01", 10_000)
    bits[0] = 1  # 5001 ones, 4999 zeros
    verdict = monobit_test(bits)
    assert verdict.statistic == pytest.approx(2 / 100)
    assert verdict.passed


def test_monobit_needs_enough_bits():
    with pytest.raises(ValueError):
        monobit_test(np.zeros(MIN_TEST_BITS - 1, dtype=np.uint8))
    monobit_test(np.ones(MIN_TEST_BITS, dtype=np.uint8))


# --- runs -------------------------------------------------------------------

def test_runs_alternating_fails():
    # 0101... has the maximum possible run count, far above expectation
    verdict = runs_test(bits_of("01", 10_000))
    assert verdict.applicable
    assert not verdict.passed
    assert verdict.p_value < 1e-300


def test_runs_paired_pattern_values_are_frozen():
    # 0011 repeated over 10^4 bits: V = 5000 maximal runs, and with
    # pi = 1/2 the expectation 2*n*pi*(1-pi) is exactly 5000 as well,
    # so the statistic is identically zero. Direct computation, frozen.
    verdict = runs_test(bits_of("0011", 10_000))
    assert verdict.statistic == 0.0
    assert verdict.p_value == 1.0
    assert verdict.passed


def test_runs_grossly_biased_is_not_applicable():
    bits = np.zeros(10_000, dtype=np.uint8)
    bits[:100] = 1  # pi = 0.01, way past the 2/sqrt(n) cutoff
    verdict = runs_test(bits)
    assert not verdict.applicable
    assert not verdict.passed


def test_runs_applicability_cutoff_is_sharp():
    n = 10_000
    cutoff = 2.0 / math.sqrt(n)  # 0.02, so 5200 ones sits exactly on it
    bits = np.zeros(n, dtype=np.uint8)
    bits[: int(n * (0.5 + cutoff))] = 1
    assert not runs_test(bits).applicable
    bits = np.zeros(n, dtype=np.uint8)
    bits[: int(n * (0.5 + cutoff)) - 1] = 1
    assert runs_test(bits).applicable


def test_runs_needs_enough_bits():
    with pytest.raises(ValueError):
        runs_test(np.zeros(MIN_TEST_BITS - 1, dtype=np.uint8))


# --- agreement with the hand-written references -------------------------------

def test_agreement_with_reference_implementations():
    rng = random.Random(2024)
    for _ in range(100):
        n = rng.randrange(MIN_TEST_BITS, 4000)
        bits = np.array([rng.randrange(2) for _ in range(n)], dtype=np.uint8)
        m_stat, m_p = oracles.monobit_reference(bits.tolist())
        verdict = monobit_test(bits)
        assert verdict.statistic == pytest.approx(m_stat, abs=1e-10)
        assert verdict.p_value == pytest.approx(m_p, abs=1e-10)
        reference = oracles.runs_reference(bits.tolist())
        verdict = runs_test(bits)
        if reference is None:
            assert not verdict.applicable
        else:
            r_stat, r_p = reference
            assert verdict.statistic == pytest.approx(r_stat, abs=1e-10)
            assert verdict.p_value == pytest.approx(r_p, abs=1e-10)


def test_generated_loops_usually_pass_runs():
    passes = sum(
        runs_test(generate_rbs(random.Random(seed), 20_000).bits).passed
        for seed in range(5)
    )
    assert passes >= 4


# --- benchmark harness --------------------------------------------------------

def test_bench_smoke(small_keyset):
    report = bench_linear(small_keyset, [16, 64, 256], repetitions=3,
                          rng=random.Random(0))
    assert len(report.points) == 3
    assert [p.size for p in report.points] == [16, 64, 256]
    assert all(p.encrypt_seconds > 0 and p.decrypt_seconds > 0 for p in report.points)
    assert not report.degenerate
    assert 0.0 <= report.encrypt_fit.r_squared <= 1.0


def test_bench_single_size_is_degenerate(small_keyset):
    report = bench_linear(small_keyset, [64], repetitions=3, rng=random.Random(0))
    assert report.degenerate
    assert report.encrypt_fit.r_squared == 1.0
    assert "degenerate" in report.note


def test_bench_validation(small_keyset):
    with pytest.raises(ValueError):
        bench_linear(small_keyset, [])
    with pytest.raises(ValueError):
        bench_linear(small_keyset, [9, 64])
    with pytest.raises(ValueError):
        bench_linear(small_keyset, [64, 16])  # not increasing
    with pytest.raises(ValueError):
        bench_linear(small_keyset, [64, 64])  # duplicate
    with pytest.raises(ValueError):
        bench_linear(small_keyset, [16, 64], repetitions=2)


def test_verdict_is_frozen():
    verdict = TestVerdict(0.0, 1.0, True)
    with pytest.raises(AttributeError):
        verdict.passed = False
    assert ALPHA == 0.01


# --- verdicts from packed bytes ------------------------------------------------

@pytest.mark.parametrize("length", [100, 101, 1001, (1 << 16) + 3])
def test_packed_counts_give_the_unpacked_verdicts(length):
    rng = random.Random(length)
    cases = {
        "fair": [rng.randrange(2) for _ in range(length)],
        "biased": [int(rng.random() < 0.3) for _ in range(length)],  # runs: n/a
        "alternating": [i % 2 for i in range(length)],
        "ends in ones": [0] * (length - 9) + [1] * 9,
    }
    for name, bits in cases.items():
        arr = np.array(bits, dtype=np.uint8)
        ones, transitions = packed_bit_counts(RbsLoop(arr).packed, length)
        assert ones == int(arr.sum()), name
        assert transitions == int(np.count_nonzero(arr[1:] != arr[:-1])), name
        assert monobit_verdict(ones, length) == monobit_test(arr), name
        assert runs_verdict(ones, transitions, length) == runs_test(arr), name
    raw = rng.randbytes(-(-length // 8))  # whole bytes: no pad bits
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
    ones, transitions = packed_bit_counts(np.frombuffer(raw, dtype=np.uint8), bits.size)
    assert runs_verdict(ones, transitions, bits.size) == runs_test(bits)
