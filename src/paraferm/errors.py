"""Exception types shared across the package."""


class ParafermError(Exception):
    """Base class for all errors raised by this package."""


class ZeroConstantTerm(ParafermError):
    """Inversion of a series whose constant term vanishes."""


class BadResidue(ParafermError):
    """Coset residue out of range for the given level."""


class BadLabel(ParafermError):
    """Module label outside the admissible range."""


class NonIntegralPairing(ParafermError):
    """Vertex operator mode applied across sectors with inconsistent
    fractional pairing, so single mode components are ill-defined."""


class IdentityFailed(ParafermError):
    """An exact identity check failed; the message names the identity."""


class AmbiguousIdentification(ParafermError):
    """The label-identification search found more candidates than the
    two admissible ones."""


class NoIdentification(ParafermError):
    """The label-identification search found no consistent assignment."""


class UnknownCheck(ParafermError):
    """Requested check name is not registered."""


class BadParams(ParafermError):
    """Check invoked with unusable parameters."""
