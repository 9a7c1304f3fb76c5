"""Exception types shared across the library."""


class StriplabError(Exception):
    """Base class for all library errors."""


class InvalidSpec(StriplabError):
    """A set/target/config description violates a constructor constraint."""


class BudgetExceeded(StriplabError):
    """A discretization would exceed the sample-count cap."""


class ResolutionExhausted(StriplabError):
    """No verified exterior point was found above the floating-point margin."""


class DegreeZero(StriplabError):
    """Root extraction was requested for a constant polynomial."""


class NoConvergence(StriplabError):
    """Simultaneous root iteration failed to meet its residual tolerance."""

    def __init__(self, iterations):
        super().__init__(f"root iteration did not converge after {iterations} sweeps")
        self.iterations = iterations


class LengthMismatch(StriplabError):
    """Paired root lists have different lengths."""


class InsufficientSamples(StriplabError):
    """The sample grid is too small for the requested fit degree."""


class RankDeficient(StriplabError):
    """Basis orthogonalization collapsed (duplicate or too few distinct samples)."""


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

    ``required_delta`` reports the displacement scale that was still too large.
    """

    def __init__(self, message, required_delta=None):
        super().__init__(message)
        self.required_delta = required_delta


class PoleAtOne(StriplabError):
    """zeta was evaluated at (or too close to) its pole s = 1."""


class PrecisionExhausted(StriplabError):
    """The truncation-error estimate stayed above threshold after N-doubling.

    ``index`` identifies the offending grid point in batched evaluation,
    if applicable.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index
