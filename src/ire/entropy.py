"""Randomness sources for key-material generation.

Everything that draws randomness takes a random.Random, or an instance
of a subclass of it: key generation calls its shuffle and getrandbits,
and choose_offset its randrange, so an object that only mimics some of
these will not do. The default is the operating system's CSPRNG. The
seeded variant exists so tests can be reproducible; it must never
protect real traffic.
"""

import random

__all__ = ["system_rng", "insecure_seeded_rng", "resolve_rng"]


def system_rng() -> random.SystemRandom:
    """OS cryptographic randomness, the default everywhere."""
    return random.SystemRandom()


def insecure_seeded_rng(seed: int) -> random.Random:
    """Deterministic generator for tests and debugging. NOT secure."""
    return random.Random(seed)


def resolve_rng(rng: random.Random | None) -> random.Random:
    return rng if rng is not None else system_rng()
