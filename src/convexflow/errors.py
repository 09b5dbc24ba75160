"""Exception types shared across the package."""


class ConvexFlowError(Exception):
    """Base class for errors raised by this package."""


class SchemaError(ConvexFlowError):
    """An instance or solution document violates the expected schema."""


class UnboundedProblemError(ConvexFlowError):
    """The primal objective is unbounded above (the dual is infeasible)."""


class InfeasibleProblemError(ConvexFlowError):
    """The primal is infeasible (the dual decreases without bound)."""


class EnumerationBudgetError(ConvexFlowError):
    """A brute-force enumeration would exceed its pattern budget."""
