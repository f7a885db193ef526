"""Seeded inputs for the ire benchmark.

Everything the program receives is made here from the workload seed: the
key images, the messages, their lengths and their keystream offsets. Bytes
come from SHAKE-256, which is fixed by its standard, and every other draw
from ``random.Random.random()``, whose sequence for a given seed Python
keeps across versions, so a committed digest stays valid on any
interpreter.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

WORKLOADS = ("bulk-1m", "mixed-len", "cli-small")
DEFAULT_SEED = 0

LOOP_BITS = 1 << 23  # the CLI's default loop length
BULK_LEN = 1 << 20
LENGTH_RANGES = {"mixed-len": (4096, 262144), "cli-small": (10, 4096)}

# A varied-length batch is ROUNDS rounds of BANDS messages. The log range
# is cut into BANDS equal bands and every round takes one length from each
# band, so the batch is log-uniform with far less seed-to-seed spread than
# independent draws would give.
BANDS = 32
ROUNDS = 2


def _shake(count: int, *label) -> bytes:
    return hashlib.shake_256("/".join(map(str, ("ire-bench",) + label)).encode()).digest(count)


def _rng(*label) -> random.Random:
    return random.Random("/".join(map(str, ("ire-bench",) + label)))


def _permutation(rng: random.Random, count: int) -> list[int]:
    keys = [rng.random() for _ in range(count)]
    return sorted(range(count), key=keys.__getitem__)


@lru_cache(maxsize=2)
def _loop(seed: int) -> bytes:
    return _shake(LOOP_BITS // 8, seed, "loop")


def key_image(seed: int, number: int = 0) -> bytes:
    """Key number of a seed: an IREK v1 key file with the default 2^23-bit loop.

    Written here byte by byte from the documented format rather than by
    keygen, so envelope digests depend on the file format and the pipeline
    only, never on how keygen draws its randomness. The keys of a seed
    share its loop; each has its own rule, substitution table and window
    permutations.
    """
    rng = _rng(seed, "key") if number == 0 else _rng(seed, "key", number)
    rule_flag = 0 if rng.random() < 0.5 else 1
    return b"".join([
        b"IREK",
        bytes([1, rule_flag]),
        bytes(_permutation(rng, 256)),
        bytes(_permutation(rng, 10)),
        bytes(_permutation(rng, 80)),
        struct.pack("<Q", LOOP_BITS),
        _loop(seed),
    ])


@dataclass(frozen=True)
class Batch:
    """Messages in encryption order, the order they are decrypted in, and the number of their key."""

    index: int
    messages: tuple[bytes, ...]
    offsets: tuple[int, ...]
    decrypt_order: tuple[int, ...]
    key: int = 0


def banded_lengths(rng: random.Random, lo: int, hi: int) -> list[list[int]]:
    """ROUNDS rounds of BANDS distinct lengths in [lo, hi), one per log band."""
    ratio = math.log(hi / lo) / BANDS
    seen: set[int] = set()
    rounds: list[list[int]] = [[] for _ in range(ROUNDS)]
    for band in range(BANDS):
        for chosen in rounds:
            while True:
                length = min(hi - 1, int(lo * math.exp(ratio * (band + rng.random()))))
                if length not in seen:
                    break
            seen.add(length)
            chosen.append(length)
    return rounds


def make_batch(workload: str, seed: int, index: int) -> Batch:
    """Batch number index of a workload; any batch can be rebuilt alone.

    bulk-1m runs every batch under key 0, so that its calls stay warm. A
    varied-length batch runs under key number index: the cost of a cold
    length depends on the key's window permutations (over the keys of
    seeds 0..20, the offset walks that sliding.global_index_map takes for
    the bit window total 1152 to 4197 steps), so with one key per run a
    run's speed would depend on which key its seed drew.
    """
    rng = _rng(seed, workload, index)
    if workload == "bulk-1m":
        lengths = [BULK_LEN]
        decrypt_order = [0]
        key = 0
    else:
        key = index
        lengths, decrypt_order = [], []
        for chosen in banded_lengths(rng, *LENGTH_RANGES[workload]):
            start = len(lengths)
            lengths.extend(chosen[i] for i in _permutation(rng, BANDS))
            # A receiver takes each round in ascending length order. Every
            # message is then at least (ROUNDS - 1) * BANDS calls away from
            # its own encryption, so a per-length cache holding fewer lengths
            # than that cannot make a call warm; and the lengths a cache holds
            # at the end are the same bands on every seed.
            decrypt_order.extend(sorted(range(start, len(lengths)), key=lengths.__getitem__))
    messages = tuple(_shake(n, seed, workload, index, i) for i, n in enumerate(lengths))
    offsets = tuple(int(rng.random() * LOOP_BITS) for _ in lengths)
    return Batch(index, messages, offsets, tuple(decrypt_order), key)


def batches(workload: str, seed: int) -> Iterator[Batch]:
    index = 0
    while True:
        yield make_batch(workload, seed, index)
        index += 1


def short_messages(workload: str, seed: int) -> list[tuple[bytes, int]]:
    """A few short messages for the oracle check, one of them across the loop seam."""
    rng = _rng(seed, workload, "short")
    lengths = (int(rng.random() * 10), 10 + int(rng.random() * 30), 40 + int(rng.random() * 24))
    offsets = (int(rng.random() * LOOP_BITS), LOOP_BITS - 1 - int(rng.random() * 64), 0)
    return [(_shake(n, seed, workload, "short", i), off)
            for i, (n, off) in enumerate(zip(lengths, offsets))]


def fresh_lengths(workload: str, seed: int, used: set[int], count: int) -> list[int]:
    """count lengths of the workload's kind that the run has not used yet."""
    rng = _rng(seed, workload, "fresh")
    lo, hi = LENGTH_RANGES.get(workload, (BULK_LEN, BULK_LEN + 4096))
    chosen: list[int] = []
    while len(chosen) < count:
        length = int(lo * (hi / lo) ** rng.random())
        if length not in used and length not in chosen:
            chosen.append(length)
    return chosen


def fresh_message(length: int, seed: int) -> bytes:
    return _shake(length, seed, "fresh", length)
