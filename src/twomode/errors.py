"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2, numerical failures with 3, and I/O failures with 4.
"""

from __future__ import annotations


class ParameterError(ValueError):
    """A physical parameter or drive value is out of its legal range."""


class ConfigError(ValueError):
    """A config document failed to parse or validate.

    Carries the offending key and 1-based line number when known so the
    CLI can point at the exact spot.
    """

    def __init__(self, message: str, *, key: str | None = None, line: int | None = None):
        self.key = key
        self.line = line
        prefix = ""
        if line is not None:
            prefix = f"line {line}: "
        super().__init__(prefix + message)


class PolynomialError(RuntimeError):
    """Root extraction failed or was handed an unusable polynomial."""


class SolverError(RuntimeError):
    """The steady-state solve produced an inconsistent result.  Nothing in
    the package raises it: the steady solve has no self-consistency
    ceiling, and every solve finds at least one branch."""


class ClassificationError(RuntimeError):
    """Eigenvalue classification failed: the eigenvalue iteration on a
    Jacobian did not converge or met a non-finite entry."""


class SweepError(RuntimeError):
    """A parameter sweep failed; carries the axis value where it happened."""

    def __init__(self, message: str, *, axis_value: float | None = None):
        self.axis_value = axis_value
        super().__init__(message)


class NoStableBranchError(SweepError):
    """Every branch at a sweep sample is unstable (self-oscillating regime)."""
