"""Exception types shared across the package, and the field checks.

The split mirrors how callers need to react: bad inputs (``DomainError``),
a threshold that admits no finite optimal noise level
(``NoCriticalPointError``), a numerical routine that failed to converge
(``SolverError``), and a Fock-space cutoff that is too small for the
requested accuracy (``CutoffError``).

The field checks below (finite real, non-negative, prior in [0, 1], a
strictly increasing non-negative σ grid) run once, where a validated type
or public entry point receives a value.  They accept Python or numpy real
scalars, raise ``DomainError`` otherwise, and return Python floats.
"""

import math
from numbers import Real

__all__ = ["DomainError", "NoCriticalPointError", "SolverError", "CutoffError"]


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class NoCriticalPointError(DomainError):
    """No finite critical noise variance exists for the given threshold."""


class SolverError(RuntimeError):
    """A root or optimum could not be bracketed or refined to tolerance."""


class CutoffError(RuntimeError):
    """A truncated Fock-space computation failed its accuracy contract."""


def _real(name: str, value) -> float:
    # a plain float skips the ABC check (about 0.5 us); str or complex fail it
    if type(value) is float:
        return value
    if not isinstance(value, Real):
        raise DomainError(f"{name} must be real, got {value!r}")
    return float(value)


def _finite(name: str, value) -> float:
    x = _real(name, value)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


def _nonnegative(name: str, value) -> float:
    x = _finite(name, value)
    if x < 0.0:
        raise DomainError(f"{name} must be >= 0, got {x!r}")
    return x


def _prior(name: str, value) -> float:
    x = _finite(name, value)
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {x!r}")
    return x


def _sigma_grid(values) -> tuple:
    """The one σ-axis rule, as floats: non-empty, each finite and >= 0, strictly increasing."""
    grid = tuple(_real("sigma values", x) for x in values)
    if not grid:
        raise DomainError("sigma_grid must be non-empty")
    for x in grid:
        if not (math.isfinite(x) and x >= 0.0):
            raise DomainError(f"sigma values must be finite and >= 0, got {x!r}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("sigma_grid must be strictly increasing")
    return grid


def _store(obj, check, *names: str) -> None:
    """Replace each named field of a frozen dataclass by check(name, value)."""
    for name in names:
        object.__setattr__(obj, name, check(name, getattr(obj, name)))
