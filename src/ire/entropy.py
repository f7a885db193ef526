"""Randomness sources for key-material generation.

Everything that draws randomness takes a random.Random, or an instance
of a subclass of it: key generation calls its shuffle and getrandbits,
and choose_offset its randrange, so an object that only mimics some of
these will not do. The default is the operating system's CSPRNG.
`ire keygen --seed` builds a seeded random.Random so that tests can be
reproducible; such a key must never protect real traffic.
"""

import random

__all__ = ["system_rng", "resolve_rng"]


def system_rng() -> random.SystemRandom:
    """OS cryptographic randomness, the default everywhere."""
    return random.SystemRandom()


def resolve_rng(rng: random.Random | None) -> random.Random:
    return rng if rng is not None else system_rng()
