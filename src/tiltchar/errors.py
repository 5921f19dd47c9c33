"""Exception taxonomy shared by all tiltchar modules.

Every input that violates a weight or datum hypothesis raises a
HypothesisViolated, whose subclasses name the hypothesis; the CLI maps
the whole family to exit code 3.
"""


class TiltcharError(Exception):
    """Base class for all library errors."""


class InvalidSpec(TiltcharError):
    """Root-system series/rank combination is not a valid simple type."""


class HypothesisViolated(TiltcharError):
    """Input violates a theorem hypothesis; the message names it."""


class DatumMismatch(HypothesisViolated):
    """Operands belong to different root data."""


class NotDominant(HypothesisViolated):
    """A dominant weight was required."""


class NotRestricted(HypothesisViolated):
    """Weight is not restricted for the given (p, r)."""


class NotPMinuscule(HypothesisViolated):
    """Hypothesis requires a p-minuscule weight."""


class NotWInvariant(HypothesisViolated):
    """Character is not Weyl-group invariant."""


class NotDivisible(TiltcharError):
    """No exact quotient exists in the character ring."""


class ResourceCap(TiltcharError):
    """A computation exceeded its configured resource cap."""


class OrbitTooLarge(ResourceCap):
    """Weyl-orbit enumeration exceeded the datum's orbit cap."""


class Undetermined(TiltcharError):
    """No strategy could resolve the requested character."""


class ProviderUndetermined(Undetermined):
    """A character provider could not resolve a needed character."""


class NegativeCoefficient(TiltcharError):
    """A decomposition produced a negative multiplicity.

    Carries the offending weight in ``args[1]`` when available; prints
    its message alone.
    """

    def __str__(self):
        return str(self.args[0]) if self.args else ""


class TermNotRestricted(HypothesisViolated):
    """A maximal dominant term fell outside the restricted region."""


class CarrierNotPrMinuscule(HypothesisViolated):
    """A decomposition carrier is not (p, r)-minuscule."""


class InternalMismatch(TiltcharError):
    """Two internally cross-checked forms disagreed (must never fire)."""
