"""Exception hierarchy shared by all modules, with the CLI exit-code
mapping (``exit_code_for``)."""

from __future__ import annotations

import numbers


class AlpsError(Exception):
    """Base class for the errors this package raises about its input,
    configuration and numerics. An output that cannot be written raises
    the OSError of the write."""


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


def _require_integer(value, name: str, error: type = InvalidInputError) -> None:
    """Raise ``error`` unless ``value`` is an integer; a bool, a float of
    integral value and a numeric string are not."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")


def exit_code_for(exc: BaseException) -> int:
    """The CLI exit code of an exception:

    - 0: success (no exception);
    - 1: an output that cannot be written (OSError), or any other
      exception that is not an AlpsError;
    - 2: ConfigError, InvalidInputError (invalid configuration or data);
    - 3: ParseError (an input file or model document that cannot be read);
    - 4: NumericalError (a numerical failure in fitting or rejection);
    - 5: DomainError (epochs outside the domain or the dense coverage).
    """
    if isinstance(exc, (ConfigError, InvalidInputError)):
        return 2
    if isinstance(exc, ParseError):
        return 3
    if isinstance(exc, NumericalError):
        return 4
    if isinstance(exc, DomainError):
        return 5
    return 1
