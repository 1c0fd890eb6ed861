"""Exception types raised by the quador kernel.

Every error carries a stable ``code`` string so callers (and the CLI) can
match on failure kinds without parsing messages.  All but :class:`ParseError`
and :class:`ValidationError` take only a message, so ``type(e)(*e.args)``
copies one.
"""

from __future__ import annotations


class QuadorError(Exception):
    """Base class for all kernel errors."""

    code = "QUADOR_ERROR"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


class AllZeroError(QuadorError):
    """Every coefficient of a form is below the absolute zero threshold."""

    code = "ALL_ZERO"


class SingularPointError(QuadorError):
    """Curvature requested where the gradient vanishes."""

    code = "SINGULAR_POINT"


class UnsupportedClassError(QuadorError):
    """No closed-form chart exists for this quadric class."""

    code = "UNSUPPORTED_CLASS"


class ZeroGradientError(QuadorError):
    """A linear form with zero gradient does not define a plane."""

    code = "ZERO_GRADIENT"


class DegenerateBeamError(QuadorError):
    """Beam family parameter k is zero, not finite, or so small that its planes overflow."""

    code = "DEGENERATE_K"


class NonPositiveRadiusError(QuadorError, ValueError):
    code = "NONPOSITIVE_RADIUS"


class RadiusOverflowError(QuadorError, ValueError):
    """A hub radius so large that its square is not a finite float."""

    code = "RADIUS_OVERFLOW"


class CenterOverflowError(QuadorError, ValueError):
    """A hub center so far out that its squared norm is not a finite float."""

    code = "CENTER_OVERFLOW"


class CoincidentHubsError(QuadorError, ValueError):
    code = "COINCIDENT_HUBS"


class PlaneMissesSphereError(QuadorError):
    """A beam tangency plane does not cut its hub sphere."""

    code = "PLANE_MISSES_SPHERE"


class MissingIdError(QuadorError):
    """A beam or fillet names a hub or beam id the lattice does not define."""

    code = "MISSING_ID"


class UnknownHubError(QuadorError):
    code = "UNKNOWN_HUB"


class ParallelStubsError(QuadorError):
    """The two stub planes are parallel; there is no corner to fill."""

    code = "PARALLEL_STUBS"


class NonPositiveBetaError(QuadorError, ValueError):
    code = "NONPOSITIVE_BETA"


class FilletPairMismatchError(QuadorError):
    """A fillet names one beam twice, or a beam that does not meet its hub."""

    code = "FILLET_PAIR_MISMATCH"


class IdentityViolationError(QuadorError):
    """The two fillet expressions disagree; upstream data is corrupt."""

    code = "IDENTITY_VIOLATION"


class WedgeOrientationError(QuadorError):
    """The fillet wedge does not face the outward corner bisector."""

    code = "WEDGE_ORIENTATION"


class EmptyConicError(QuadorError):
    """The tangency plane misses the stub quador."""

    code = "EMPTY_CONIC"


class NotACurveError(QuadorError):
    """Sampling requested on a point/empty conic, or conic coefficients that are not finite."""

    code = "NOT_A_CURVE"


class PointOffSurfaceError(QuadorError):
    """A p-curve was requested for a conic that does not lie on the chart."""

    code = "POINT_OFF_SURFACE"


class NoBisectorIntersectionError(QuadorError):
    """The outward bisector ray misses the fillet surface."""

    code = "NO_BISECTOR_INTERSECTION"


class DegenerateBoundsError(QuadorError):
    code = "DEGENERATE_BOUNDS"


class StlRangeError(QuadorError):
    """A mesh coordinate does not fit in a binary STL float32."""

    code = "STL_RANGE"


class ParseError(QuadorError):
    """Strict lattice-file parsing failed.

    ``location`` is a JSON-pointer-style path to the offending element.
    """

    code = "PARSE_ERROR"

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


class ValidationError(QuadorError):
    """A lattice has a bad id or a part that fails to build; ``report`` holds
    the full findings of :func:`~quador.lattice.validate_lattice`, errors
    first, then warnings.  The message names the errors only."""

    code = "VALIDATION_ERROR"

    def __init__(self, report):
        self.report = report
        super().__init__(
            "lattice validation failed: "
            + "; ".join(f"{e.code} ({e.subject})" for e in report.errors)
        )


__all__ = [name for name, value in list(globals().items())  # every error class above
           if isinstance(value, type) and issubclass(value, QuadorError)]
