"""Exception types shared across the package."""


class HopfcheckError(Exception):
    pass


class NotSquare(HopfcheckError):
    pass


class NotInvertible(HopfcheckError):
    pass


class NotScalarMultiple(HopfcheckError):
    """B^t A^t B A is not a scalar multiple of the identity."""


class NotNormalized(HopfcheckError):
    """Operation requires lambda = 1."""


class NeedsFieldExtension(HopfcheckError):
    """The quadratic has no rational roots."""


class UnitCollapse(HopfcheckError):
    """1 reduces to 0: the ideal is the whole algebra."""


class NoRelations(HopfcheckError):
    """Completion was given no nonzero relation."""


class ExceedsCertifiedDegree(HopfcheckError):
    """Input weight exceeds the certified degree of the rewrite system."""


class ProbeInvalid(HopfcheckError):
    """The exactness probe cannot run on this complex (or d∘d ≠ 0)."""


class IdentityFailed(HopfcheckError):
    """An identity that a construction relies on does not hold: the twisting
    automorphism of a presentation, a comodule's axioms, or a complex's ranks."""


class UnexpectedHomDimension(HopfcheckError):
    """A Hom space, or the scalar complex built from them, is not what the
    pipeline expects."""


class ConfigInvalid(HopfcheckError):
    pass


class CacheCorrupt(HopfcheckError):
    pass


class VersionMismatch(HopfcheckError):
    pass
