"""Exception hierarchy shared by all modules, with the CLI exit-code mapping.

Exit codes: 0 ok, 2 config/invalid input, 3 input parse, 4 numerical
failure, 5 domain/coverage.
"""

from __future__ import annotations


class AlpsError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(AlpsError):
    """Invalid run configuration (e.g. q >= p, alpha outside (0, 1))."""


class InvalidInputError(AlpsError):
    """Structurally invalid input data (too few unique epochs, bad shapes)."""


class InsufficientDataError(InvalidInputError):
    """Not enough samples to fit the requested model."""


class ParseError(AlpsError):
    """Malformed or empty input file."""


class NumericalError(AlpsError):
    """Numerical failure during fitting or evaluation."""


class DegenerateKnotsError(NumericalError):
    """Knot multiplicity beyond what the basis degree supports."""


class RankDeficiencyError(NumericalError):
    """Singular or indefinite normal matrix, beyond ridge repair."""


class NoValidLambdaError(NumericalError):
    """Every smoothing-parameter candidate produced a degenerate score."""


class FitFailureError(NumericalError):
    """No (section count, lambda) configuration produced a usable fit."""

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class InsufficientDataAfterRejectionError(NumericalError):
    """Outlier exclusions left too few points to refit."""

    def __init__(self, message: str, flagged_so_far=None):
        super().__init__(message)
        self.flagged_so_far = flagged_so_far


class DomainError(AlpsError):
    """Requested epochs outside the supported domain."""


class OutOfDomainError(DomainError):
    """Evaluation epoch outside the fitted knot domain (no extrapolation)."""


class CoverageError(DomainError):
    """Observation epochs not covered by the dense companion series."""


def exit_code_for(exc: BaseException) -> int:
    """Map an exception to the documented CLI exit code."""
    if isinstance(exc, (ConfigError, InvalidInputError)):
        return 2
    if isinstance(exc, ParseError):
        return 3
    if isinstance(exc, NumericalError):
        return 4
    if isinstance(exc, DomainError):
        return 5
    return 1
