"""Exception types shared across the package.

Every failure mode named in the public contracts gets its own class so
callers can discriminate without string matching. All inherit from
SftGeomError.
"""

from __future__ import annotations


class SftGeomError(Exception):
    """Base class for all package errors."""


class NotPrimitive(SftGeomError):
    """No power of the transition matrix within the bound is positive."""


class InadmissibleBoundaryWord(SftGeomError):
    """A word referenced by boundary data is not admissible."""


class TooShallow(SftGeomError):
    """mother() asked to drop more symbols than the word can spare."""


class NonConvergentEigensolve(SftGeomError):
    """The Perron solve cannot vouch for its answer: the iterate lost
    positivity, no round settled within the squaring cap, or the error
    bound (residual over spectral gap) exceeds its tolerance."""


class WordTooShort(SftGeomError):
    """A scaling value was requested below its stabilization depth."""


class InadmissiblePair(SftGeomError):
    """A leaf/cylinder pair is empty, or synthesis data is inadmissible."""


class NotInDomain(SftGeomError):
    """The pair is not in the solenoid domain for this side."""


class NoCommonLeaf(SftGeomError):
    """Measure-ratio arguments do not share a leaf context."""


class DepthTooShallow(SftGeomError):
    """A realization is too shallow for the requested derivation."""


class MalformedInstance(SftGeomError):
    """A boundary-data instance violates its structural requirements."""


class MissingPairValue(SftGeomError):
    """A solenoid value needed by the scaling extension is absent."""


class MissingBoundaryData(SftGeomError):
    """The check requires boundary data that the system does not carry."""


class NegativeGap(SftGeomError):
    """A length assignment would make some gap non-positive."""


class NoRoot(SftGeomError):
    """The pressure equation has no root in the admissible range."""


class MismatchedSystems(SftGeomError):
    """Two objects built over different systems or sides were combined."""


class GapOnDualSide(SftGeomError):
    """Duality requested toward a side whose layout has gaps."""


class ParseError(SftGeomError):
    """An input file failed to parse or validate."""


class UnknownBuiltin(SftGeomError):
    """The requested builtin scenario name does not exist."""
