"""Exception types shared across the package."""


class CoverageRoutingError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateSegmentError(CoverageRoutingError, ValueError):
    """A segment with coincident endpoints was passed to a geometry routine."""


class TargetTooCloseError(CoverageRoutingError, ValueError):
    """A target sits on (or numerically on) an arc or waypoint, which makes
    the inverse-square indices singular."""


class SchemaError(CoverageRoutingError, ValueError):
    """An instance or solution document violates the file schema."""


class InfeasibleInstanceError(CoverageRoutingError):
    """No route fits the operational deadline (or no route can meet the
    coverage requirements, for the exact primal problem)."""


class BudgetExceededError(CoverageRoutingError):
    """An exhaustive-enumeration routine refused an instance larger than its
    fixed size limit."""


class CyclingError(CoverageRoutingError, RuntimeError):
    """The simplex pivot guard tripped even after falling back to Bland's
    rule."""


class MasterNumericsError(CoverageRoutingError, RuntimeError):
    """The projection subproblem of the dual loop failed numerically."""
