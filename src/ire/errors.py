"""Exception types shared across the package."""


class IreError(Exception):
    """Base class for every error this package raises on purpose."""


class KeyFormatError(IreError):
    """A key file is malformed or violates a key-material invariant."""


class EnvelopeFormatError(IreError):
    """A ciphertext envelope is malformed."""


class CorruptionError(IreError):
    """Recovered padding is inconsistent with the recorded pad count."""


class RuleMismatchError(IreError):
    """Envelope and keyset disagree on the combine rule."""


class GenerationError(IreError):
    """Key-material generation failed its quality gate."""


class OffsetError(IreError):
    """An envelope's start offset lies outside the keyset's RBS loop."""


class SampleSizeError(IreError):
    """Too few bits to run a randomness check on."""
