"""Exception taxonomy shared by all tiltchar modules."""


class TiltcharError(Exception):
    """Base class for all library errors."""


class InvalidSpec(TiltcharError):
    """Root-system series/rank combination is not a valid simple type."""


class DatumMismatch(TiltcharError):
    """Operands belong to different root data."""


class NotDominant(TiltcharError):
    """A dominant weight was required."""


class NotRestricted(TiltcharError):
    """Weight is not restricted for the given (p, r)."""


class NotPMinuscule(TiltcharError):
    """Hypothesis requires a p-minuscule weight."""


class NotWInvariant(TiltcharError):
    """Character is not Weyl-group invariant."""


class NotDivisible(TiltcharError):
    """No exact quotient exists in the character ring."""


class ResourceCap(TiltcharError):
    """A computation exceeded its configured resource cap."""


class OrbitTooLarge(ResourceCap):
    """Weyl-orbit enumeration exceeded the datum's orbit cap."""


class HypothesisViolated(TiltcharError):
    """Input violates a theorem hypothesis; the message names it."""


class Undetermined(TiltcharError):
    """No strategy could resolve the requested character."""


class ProviderUndetermined(Undetermined):
    """A character provider could not resolve a needed character."""


class NegativeCoefficient(TiltcharError):
    """A decomposition produced a negative multiplicity.

    Carries the offending weight in ``args[1]`` when available.
    """


class TermNotRestricted(TiltcharError):
    """A maximal dominant term fell outside the restricted region."""


class CarrierNotPrMinuscule(TiltcharError):
    """A decomposition carrier is not (p, r)-minuscule."""


class InternalMismatch(TiltcharError):
    """Two internally cross-checked forms disagreed (must never fire)."""
