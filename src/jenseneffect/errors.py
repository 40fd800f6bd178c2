"""Exception types shared across the package.

Input problems (bad shapes, bad values, bad configuration) raise ValueError
subclasses. Numerical breakdowns on structurally valid input raise
NumericalError subclasses. The command-line layer maps the two branches to
distinct exit codes, so the split is part of the public contract.
"""


class DegenerateIndexError(ValueError):
    """Index coefficients cannot be normalized (zero or non-finite vector)."""


class InfeasibleScenarioError(ValueError):
    """A simulation scenario produced means outside the family's mean space,
    or gaussian noise that overflows the responses."""


class NumericalError(RuntimeError):
    """Base class for numerical failures on structurally valid input."""


class NumericalOverflowError(NumericalError):
    """Objective or link evaluation produced a non-finite value."""


class DegreesOfFreedomError(NumericalError):
    """Residual degrees of freedom are non-positive; estimate refused."""


class SeparationError(NumericalError):
    """Logistic regression diverged, typically from separated data."""


class DegenerateVarianceError(NumericalError):
    """All smoothing-grid entries have non-positive estimated variance."""


class TestInfeasibleError(NumericalError):
    """No usable smoothing-grid entries remain to form a test statistic."""

    __test__ = False  # keep pytest from collecting this as a test class
