"""Exception taxonomy shared by every module in the package.

Two families matter to callers: *usage* errors (you handed an operation
something outside its contract) and *verification* errors (the computation ran
fine but a claimed identity does not hold, or an internal cross-check broke).
The command-line driver maps VerificationFailure to exit code 1 and everything
else in this module to exit code 2.
"""


class ForgeError(Exception):
    """Base class for all package-specific errors."""


# ---- usage / contract errors -------------------------------------------------

class InverseOfNonUnit(ForgeError):
    """Inversion requested for an element that is not a unit in its ring."""


class AmbientMismatch(ForgeError):
    """Operands live in different rings (or rings with different parameters)."""


class NonIntegralCoefficient(ForgeError):
    """A coefficient with even denominator appeared where Z_(2) was required."""


class DegreeBoundExceeded(ForgeError):
    """A computation needed terms beyond the configured degree truncation."""


class UnassignedVariable(ForgeError):
    """A substitution or ring map left some variable without an image."""


class NonIntegralResult(ForgeError):
    """A result that must be 2-locally integral came out with even denominator."""


class NonTwoTypicalIso(ForgeError):
    """A strict isomorphism failed to be 2-typical (nonzero stray coordinates)."""


class SourceTargetMismatch(ForgeError):
    """Composite of isomorphisms whose target/source formal group laws differ."""


class HeightExceedsCutoff(ForgeError):
    """No nonzero coefficient found in the 2-series up to the configured cutoff."""


class NotQTorsion(ForgeError):
    """A field element required to lie in the q-torsion of k^x does not."""


class RankDeficient(ForgeError):
    """A matrix required to have full rank over the residue field does not."""


class TruncationOverflow(ForgeError):
    """An operation needed precision beyond the configured truncation order."""


# ---- verification / consistency errors --------------------------------------

class VerificationFailure(ForgeError):
    """A mathematical claim under test is false at the configured bounds.

    Verifiers attach the failed report (the same JSON document they would have
    returned on success, with status "failed" and a witness) as `.report`.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConsistencyFailure(ForgeError):
    """Two internally computed routes to the same value disagree."""
