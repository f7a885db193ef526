"""Desk-scale randomness checks and the linear-scaling benchmark."""

from __future__ import annotations

import gc
import math
import os
import statistics
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ALPHA",
    "MIN_TEST_BITS",
    "TestVerdict",
    "monobit_test",
    "monobit_verdict",
    "runs_test",
    "runs_verdict",
    "packed_bit_counts",
    "LineFit",
    "BenchPoint",
    "BenchReport",
    "bench_linear",
]

ALPHA = 0.01
MIN_TEST_BITS = 100


@dataclass(frozen=True)
class TestVerdict:
    """Outcome of one statistical check.

    applicable is False when the test's own precondition ruled it out;
    that verdict is distinct from a failure.
    """

    __test__ = False  # keeps pytest from collecting the class by name

    statistic: float
    p_value: float
    passed: bool
    applicable: bool = True


def _verdict(statistic: float, p_value: float) -> TestVerdict:
    return TestVerdict(statistic=statistic, p_value=p_value, passed=p_value >= ALPHA)


def monobit_test(bits: np.ndarray) -> TestVerdict:
    """Frequency check.

    statistic = |#ones - #zeros| / sqrt(n), p = erfc(statistic / sqrt(2)).
    Passes at significance ALPHA when p >= ALPHA.
    """
    return monobit_verdict(int(np.count_nonzero(bits)), int(bits.size))


def monobit_verdict(ones: int, n: int) -> TestVerdict:
    """The frequency check of monobit_test, from the count of ones among n bits."""
    if n < MIN_TEST_BITS:
        raise ValueError(f"monobit test needs at least {MIN_TEST_BITS} bits, got {n}")
    statistic = abs(2 * ones - n) / math.sqrt(n)
    return _verdict(statistic, math.erfc(statistic / math.sqrt(2)))


def runs_test(bits: np.ndarray) -> TestVerdict:
    """Count of maximal runs against its expectation for the observed
    ones fraction pi.

    statistic = |V - 2*n*pi*(1-pi)| / (2*sqrt(2n)*pi*(1-pi)) where V is
    the number of maximal runs; p = erfc(statistic). Not applicable
    (distinct from failing) when |pi - 1/2| >= 2/sqrt(n), since the run
    count carries no information about a grossly biased sequence.
    """
    return runs_verdict(int(np.count_nonzero(bits)), int(np.count_nonzero(bits[1:] != bits[:-1])),
                        int(bits.size))


def runs_verdict(ones: int, transitions: int, n: int) -> TestVerdict:
    """The check of runs_test, from the count of ones among n bits and
    the count of adjacent pairs that differ (one less than the runs)."""
    if n < MIN_TEST_BITS:
        raise ValueError(f"runs test needs at least {MIN_TEST_BITS} bits, got {n}")
    pi = ones / n
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return TestVerdict(statistic=0.0, p_value=0.0, passed=False, applicable=False)
    runs = 1 + transitions
    statistic = abs(runs - 2.0 * n * pi * (1.0 - pi)) / (2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi))
    return _verdict(statistic, math.erfc(statistic))


def packed_bit_counts(packed: np.ndarray, n: int) -> tuple[int, int]:
    """Ones, and adjacent pairs that differ, among the first n bits of
    MSB-first packed bytes whose bits after the n-th are zero; the
    arguments monobit_verdict and runs_verdict take, without unpacking."""
    ones = int(np.bitwise_count(packed).sum())
    # the bits one place on; a uint8 multiply is the left shift numpy vectorizes
    later = np.multiply(packed, 2, dtype=np.uint8)
    later[:-1] |= packed[1:] >> 7
    later ^= packed
    later[-1] &= 0xFF << (8 - (n - 1) % 8) & 0xFF  # pairs (j, j+1) with j < n-1 only
    return ones, int(np.bitwise_count(later).sum())


@dataclass(frozen=True)
class LineFit:
    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class BenchPoint:
    size: int
    encrypt_seconds: float
    decrypt_seconds: float


@dataclass(frozen=True)
class BenchReport:
    points: tuple[BenchPoint, ...]
    encrypt_fit: LineFit
    decrypt_fit: LineFit
    degenerate: bool = False
    note: str = ""


def _fit(xs: Sequence[float], ys: Sequence[float]) -> LineFit:
    if len(xs) == 1:
        return LineFit(slope=0.0, intercept=float(ys[0]), r_squared=1.0)
    slope, intercept = np.polyfit(xs, ys, 1)
    predicted = np.polyval([slope, intercept], xs)
    residual = float(np.sum((np.asarray(ys) - predicted) ** 2))
    total = float(np.sum((np.asarray(ys) - np.mean(ys)) ** 2))
    r_squared = 1.0 if total == 0.0 else 1.0 - residual / total
    return LineFit(float(slope), float(intercept), max(0.0, min(1.0, r_squared)))


def bench_linear(keyset, sizes: Iterable[int], repetitions: int = 5, rng=None) -> BenchReport:
    """Median in-memory encrypt/decrypt time per payload size, with a
    least-squares line fit per direction.

    Key generation and file I/O stay outside the timed region, and one
    warm-up round per size keeps one-off work (the keyset's window shift
    plans, first page faults on fresh buffers) out of the medians. Runs
    single-threaded.
    """
    from .keystream import choose_offset
    from .ops import decrypt, encrypt  # imported here: ops -> keymat -> keystream -> this module

    size_list = [int(s) for s in sizes]
    if not size_list:
        raise ValueError("need at least one size")
    if any(s < 10 for s in size_list):
        raise ValueError("every size must be at least 10 bytes")
    if sorted(set(size_list)) != size_list:
        raise ValueError("sizes must be strictly increasing")
    if repetitions < 3:
        raise ValueError("need at least 3 repetitions")

    points: list[BenchPoint] = []
    note = ""
    for size in size_list:
        try:
            payload = os.urandom(size)
            offset = choose_offset(rng, keyset.rbs.length)
            envelope = encrypt(payload, keyset, offset)  # warm-up
            if decrypt(envelope, keyset) != payload:
                raise RuntimeError("warm-up round trip failed, refusing to time a broken pipeline")
            gc.collect()  # keep collector pauses out of the medians
            encrypt_times = []
            decrypt_times = []
            for _ in range(repetitions):
                t0 = time.perf_counter()
                envelope = encrypt(payload, keyset, offset)
                t1 = time.perf_counter()
                decrypt(envelope, keyset)
                t2 = time.perf_counter()
                encrypt_times.append(t1 - t0)
                decrypt_times.append(t2 - t1)
            points.append(BenchPoint(
                size=size,
                encrypt_seconds=statistics.median(encrypt_times),
                decrypt_seconds=statistics.median(decrypt_times),
            ))
        except MemoryError:
            note = f"stopped before size {size}: out of memory"
            break

    if not points:
        raise ValueError(f"no size could be measured ({note or 'empty size list'})")
    xs = [p.size for p in points]
    degenerate = len(points) == 1
    if degenerate and not note:
        note = "single size measured: fit is degenerate"
    return BenchReport(
        points=tuple(points),
        encrypt_fit=_fit(xs, [p.encrypt_seconds for p in points]),
        decrypt_fit=_fit(xs, [p.decrypt_seconds for p in points]),
        degenerate=degenerate,
        note=note,
    )
