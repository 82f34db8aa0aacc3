"""Exception taxonomy shared by every module in the package.

Two families matter to callers: *usage* errors (you handed an operation
something outside its contract) and *consistency* errors (two internal routes
to one value disagree, which signals a bug, never a false claim).  A false
claim is no exception: its verifier returns a failed report.  The
command line (`cli`) maps every error in this module to exit code 2.
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


class TruncationOverflow(ForgeError):
    """An operation needed precision beyond the configured truncation order."""


# ---- consistency errors ------------------------------------------------------

class ConsistencyFailure(ForgeError):
    """Two internally computed routes to the same value disagree."""
