"""Exception hierarchy for the tropicalc package.

Every error raised by the library derives from :class:`TropicalcError` so
callers (in particular the CLI) can distinguish domain errors from bugs.
Manifest/CLI input problems derive from :class:`ManifestError`.
"""

from __future__ import annotations


class TropicalcError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------------------
# numeric


class ZeroPolynomial(TropicalcError):
    """An operation that needs a nonzero polynomial received the zero one."""


class EmptyWindow(TropicalcError):
    """A real interval (lo, hi) with lo >= hi where a nonempty one is needed."""


class NonPositiveEps(TropicalcError):
    """A refinement/enclosure width request that is not strictly positive."""


class PrecisionExhausted(TropicalcError):
    """Interval refinement hit its step limit before deciding a sign or order.

    Raised, for instance, for a sum of conjugate algebraic values that is
    exactly zero but whose zero-ness the enclosures cannot certify.
    """


# ---------------------------------------------------------------------------
# piecewise functions


class DiscontinuityDetected(TropicalcError):
    """Adjacent segments disagree at their shared breakpoint."""

    def __init__(self, location, left=None, right=None, name: str | None = None):
        self.location = location
        self.left = left
        self.right = right
        self.name = name
        where = f"function {name!r} at" if name else "at"
        super().__init__(
            f"segments disagree {where} x = {location}: "
            f"left value {left}, right value {right}"
        )


class AllNegInfinity(TropicalcError):
    """A tropical expression whose every term is the -infinity coefficient."""


# ---------------------------------------------------------------------------
# value distribution


class NonPositiveRadius(TropicalcError):
    """A disk radius r <= 0."""


class WindowOutOfRange(TropicalcError):
    """A counting window that is not contained in [-r, r]."""


class PointOutsideDisk(TropicalcError):
    """An evaluation point x with |x| >= r where |x| < r is required."""


class NotWellDefined(TropicalcError):
    """The function fails the parity/sign shape test required here."""


class RadiusBelowThreshold(TropicalcError):
    """The radius is below the validity threshold of the inequality."""

    def __init__(self, r, threshold):
        self.r = r
        self.threshold = threshold
        super().__init__(f"radius {r} is not above the required threshold {threshold}")


class ZeroShift(TropicalcError):
    """A shift amount c that must be nonzero was zero."""


class BadWindow(TropicalcError):
    """A construction window that does not straddle 0 or has bad bounds."""


class AlgebraicSingularity(TropicalcError, ValueError):
    """A closed-form profile met a singular point at an algebraic |z| < r_max.

    Its pieces would need coefficients in Q(|z|).  Also a ValueError, so
    callers that catch ValueError for unusable profile input still catch it.
    """

    def __init__(self, location):
        self.location = location
        super().__init__(
            "counting profiles need rational singularity data; "
            f"got an algebraic point at x = {location} inside the radius"
        )


class NonPositiveValues(TropicalcError):
    """Growth-scale estimates need profile values > 1 on the whole grid."""


# ---------------------------------------------------------------------------
# curves


class NotEntireComponent(TropicalcError):
    """A curve component has a pole (components must be entire)."""

    def __init__(self, index, location=None):
        self.index = index
        self.location = location
        at = f" (pole at x = {location})" if location is not None else ""
        super().__init__(f"component {index} is not entire{at}")


class ArityMismatch(TropicalcError):
    """A polynomial map expects a different number of variables."""

    def __init__(self, expected, got):
        self.expected = expected
        self.got = got
        super().__init__(f"map over {expected} variables applied to {got} components")


class TooManyComponents(TropicalcError):
    """The Casoratian is limited to 9 components (2^9 shift subsets)."""


class MissingPurePowers(TropicalcError):
    """A homogeneous map lacks a finite pure-power coefficient for some variable."""

    def __init__(self, variable):
        self.variable = variable
        super().__init__(f"no finite pure-power term for variable {variable}")


class NonLinearComponents(TropicalcError):
    """Power-sum bounds require every component to be piecewise affine."""


# ---------------------------------------------------------------------------
# manifests / CLI


class ManifestError(TropicalcError):
    """Base class for manifest parsing/validation problems."""


class ManifestSyntaxError(ManifestError):
    """Malformed manifest text; carries a position when one is known."""

    def __init__(self, message, position: int | None = None):
        self.position = position
        at = f" (at offset {position})" if position is not None else ""
        super().__init__(f"{message}{at}")


class UnknownReference(ManifestError):
    """A name referenced by the manifest or CLI is not defined."""

    def __init__(self, name, kind: str = "object"):
        self.name = name
        self.kind = kind
        super().__init__(f"unknown {kind} {name!r}")


class DuplicateName(ManifestError):
    """The same name is declared twice in one manifest."""

    def __init__(self, name):
        self.name = name
        super().__init__(f"name {name!r} declared more than once")
