"""Exception and warning types shared across the package."""


class HexflowError(Exception):
    """Base class for all hexflow errors."""


class ParseError(HexflowError):
    """A surface or factor file is malformed (bad JSON, wrong shape, wrong types)."""


class ValidationError(HexflowError):
    """A combinatorial invariant of the triangulation is violated."""


class EtaOutOfRange(ValidationError):
    """An edge weight lies at or below the lower bound -1."""


class DomainError(HexflowError):
    """A numeric argument is outside the domain of an operation."""


class NotAdmissible(HexflowError):
    """A conformal factor violates the edge admissibility inequality.

    Carries the worst deficit ``cos(a_i + a_j) + eta`` for diagnostics, the
    offending edge id when known, and the full per-edge report when the
    failure was detected at surface level.
    """

    def __init__(self, message, *, deficit=None, edge_id=None, report=None):
        super().__init__(message)
        self.deficit = deficit
        self.edge_id = edge_id
        self.report = report


class LengthMismatch(HexflowError):
    """Two vectors that must share a length do not."""


class JacobianNotPD(HexflowError):
    """The curvature Jacobian lost positive definiteness (possible only when
    the structure condition fails); carries its minimum eigenvalue.

    When it ends a Newton solve it also carries the solve's log and last
    accepted iterate, as NotAttained does, and `hexflow solve` writes them
    before it exits 5."""

    def __init__(self, message, *, min_eigenvalue=None, log=None, factor=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue
        self.log = log
        self.factor = factor


class NotAttained(HexflowError):
    """The prescribed-curvature solve stalled against the admissible-region
    boundary; no admissible solution appears to exist for this target.

    Carries the solve's log and its last accepted iterate (a
    ConformalFactor) as factor, which `hexflow solve` writes to --log and
    --out before it exits 6."""

    def __init__(self, message, *, log=None, factor=None):
        super().__init__(message)
        self.log = log
        self.factor = factor


class QuadratureWarning(UserWarning):
    """A line integral hit the node cap before reaching the requested
    relative tolerance."""
