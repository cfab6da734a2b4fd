"""Error taxonomy for the polygonspaces package.

Every failure mode that callers are expected to catch carries a stable
machine-readable ``code`` string.  The CLI maps these codes onto exit
statuses, and tests assert on them, so the strings are part of the public
contract: never rename one.
"""

from __future__ import annotations


class PolygonSpacesError(Exception):
    """Base class for all package errors.

    Attributes:
        code: stable machine-readable identifier, e.g. ``"NON_GENERIC"``.
    """

    code = "ERROR"

    def __init__(self, message: str, **details: object) -> None:
        super().__init__(message)
        self.details = details


class NonGenericError(PolygonSpacesError):
    """A length vector admits a subset summing to exactly half the total.

    ``details["witness"]`` holds one offending subset (a sorted tuple of
    1-based indices).
    """

    code = "NON_GENERIC"


class InvalidCodeError(PolygonSpacesError):
    """A purported genetic code violates a structural requirement."""

    code = "INVALID_CODE"


class GroundSetTooLargeError(PolygonSpacesError):
    """The requested number of edges exceeds the supported range."""

    code = "GROUND_SET_TOO_LARGE"


class TooLargeError(PolygonSpacesError):
    """A combinatorial enumeration would exceed its size cap."""

    code = "TOO_LARGE"


class NotMeetSemilatticeError(PolygonSpacesError):
    """A poset expected to have pairwise meets does not."""

    code = "NOT_MEET_SEMILATTICE"


class FixedCellError(PolygonSpacesError):
    """A cell that must move freely under the involution is fixed."""

    code = "FIXED_CELL"


class NotApplicableError(PolygonSpacesError):
    """An operation was requested on an object outside its domain."""

    code = "NOT_APPLICABLE"


class Not2DError(PolygonSpacesError):
    """A surface-only routine received a complex of dimension != 2."""

    code = "NOT_2D"


class SphereNotEmbeddedError(PolygonSpacesError):
    """A subcomplex expected to be an embedded sphere fails its audit."""

    code = "SPHERE_NOT_EMBEDDED"


class ProjectionNotSimplicialError(PolygonSpacesError):
    """The frontier of a sphere neighborhood in the simplicial surgery
    model does not map simplicially onto the link of the sphere."""

    code = "PROJECTION_NOT_SIMPLICIAL"


class ChainInterferenceError(PolygonSpacesError):
    """A code needs a second surgery, which the simplicial model cannot
    make: the neighborhoods of any two spheres of a chain meet."""

    code = "CHAIN_INTERFERENCE"


class SphereRelocationFailedError(PolygonSpacesError):
    """After a surgery step, a tracked sphere could not be re-identified."""

    code = "SPHERE_RELOCATION_FAILED"


class AuditError(PolygonSpacesError):
    """An internal consistency audit failed.

    Audits guard invariants that should hold by construction; a failure
    indicates a bug rather than bad user input.  The CLI reports these with
    a distinct exit status.
    """

    code = "AUDIT"


#: Errors that indicate bad *input* rather than an internal bug.
USER_ERRORS = (
    NonGenericError,
    InvalidCodeError,
    GroundSetTooLargeError,
    TooLargeError,
    NotApplicableError,
    Not2DError,
    ChainInterferenceError,
)
