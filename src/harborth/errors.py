"""Exception types shared across the package."""


class HarborthError(Exception):
    """Base class for all package-specific errors."""


class EntirelyNegative(HarborthError):
    """Square root of an interval lying entirely below zero."""


class NotDivisible(HarborthError):
    """Exact polynomial division left a nonzero remainder."""


class NotEven(HarborthError):
    """Even decomposition of a polynomial with odd-degree terms."""


class ZeroInput(HarborthError):
    """Resultant of an identically zero polynomial."""


class DegreeTooLarge(HarborthError):
    """Sylvester oracle called beyond its degree guard."""


class UnluckySpecializations(HarborthError):
    """Bivariate factorization ran out of usable sample points."""


class DegreeBoundExceeded(HarborthError):
    """No minimal-polynomial candidate survived within the degree bound."""


class Ambiguous(HarborthError):
    """Numeric factor selection could not separate two candidates."""


class EndpointRoot(HarborthError):
    """Sturm counting interval endpoint is a root after perturbation."""


class NotSquarefree(HarborthError):
    """Operation requires a squarefree polynomial."""


class NotIrreducible(HarborthError):
    """Operation requires an irreducibility certificate."""


class NoIntersection(HarborthError):
    """Two circles do not intersect."""


class TangentDegenerate(HarborthError):
    """Circle intersection discriminant straddles zero at max precision."""


class MissingAnchor(HarborthError):
    """Frame transform is missing required anchor data."""


class StageDependencyMissing(HarborthError):
    """Pipeline stage run before its prerequisites."""
