"""Exception hierarchy for the toolkit.

Scenario-level problems (bad JSON, bad references, under-determined solver
configurations) are reported as ScenarioError / ConfigurationError and map to
CLI exit code 2.  Hard numeric breakdowns map to NumericalError and exit code
3.  A CheckFailure describes a check that failed on valid input; task
runners turn those into failing reports instead of aborting a run.
"""


class SpencerKitError(Exception):
    """Base class for all toolkit errors."""


class CheckFailure(SpencerKitError):
    """A check that failed on valid input: a failing report, not an abort."""


class DomainError(CheckFailure):
    """A point or box fell outside the region where an object is defined."""


class DegenerateStructureError(CheckFailure):
    """Eigenstructure of J(p) does not split into the expected (n, n) pair."""


class IndependenceError(CheckFailure):
    """Candidate coordinate functions are functionally dependent."""


class ChartError(CheckFailure):
    """No nondegenerate Spencer chart exists for the requested data."""


class OverlapError(CheckFailure):
    """Two charts have empty overlap."""


class FitError(CheckFailure):
    """A least-squares fit is too ill-conditioned to trust."""


class CompositionError(CheckFailure):
    """Two local maps have no composable sub-domain."""


class InversionError(CheckFailure):
    """A local map could not be inverted (degenerate Jacobian or failed root find)."""


class NumericalError(SpencerKitError):
    """Internal numerical failure (SVD breakdown, NaN propagation).  Exit code 3."""


class ScenarioError(SpencerKitError):
    """Invalid scenario input (parse or validation).  Exit code 2."""


class ConfigurationError(ScenarioError):
    """Sizes or parameters outside the supported envelope."""


class PolynomialParseError(ScenarioError):
    """Polynomial string rejected; carries the offending position."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position
