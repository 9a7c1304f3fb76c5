"""Exception types shared across the library."""


class StriplabError(Exception):
    """Base class for all library errors."""


class InvalidSpec(StriplabError, ValueError):
    """An input violates a documented constraint: a malformed set, target,
    polynomial or config, a fit the grid cannot carry, roots of a constant,
    unpaired root lists, zeta parameters out of range, or a zeta argument at
    the pole or outside the supported range.  It is a ValueError too, so
    callers that catch ValueError keep working."""


class BudgetExceeded(StriplabError):
    """A discretization would exceed the sample-count cap."""


class ResolutionExhausted(StriplabError):
    """No verified exterior point was found above the floating-point margin."""


class NoConvergence(StriplabError):
    """Root finding failed: the eigenvalue solve did not converge, or a root
    missed the backward-error tolerance."""


class BudgetNotMet(StriplabError):
    """Degree escalation hit its cap before reaching the error budget.

    Carries the best fit found so far in ``best``.
    """

    def __init__(self, best, budget):
        super().__init__(
            f"no degree <= cap reached budget {budget:g}; "
            f"best sup error {best.sup_error_on_samples:g} at degree {best.degree_used}"
        )
        self.best = best
        self.budget = budget


class BudgetInfeasible(StriplabError):
    """Root relocation cannot stay under the perturbation budget.

    ``required_delta`` reports the displacement scale the repair stopped at:
    still too large for the budget, or too small to resolve around a root.
    """

    def __init__(self, message, required_delta=None):
        super().__init__(message)
        self.required_delta = required_delta


class PrecisionExhausted(StriplabError):
    """The truncation-error estimate is above threshold, or the value not
    finite, at the largest N tried: 4 N0, four times the N that the zeta
    parameters give, which every point whose estimate at N0 and 2 N0 is
    above threshold is summed at.

    ``index`` identifies the offending grid point in batched evaluation,
    if applicable.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index
