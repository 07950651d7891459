"""Exception types shared across the package, and the field checks.

The split mirrors how callers need to react: bad inputs (``DomainError``),
a threshold that admits no finite optimal noise level
(``NoCriticalPointError``), a numerical routine that failed to converge
(``SolverError``), and a Fock-space cutoff that is too small for the
requested accuracy (``CutoffError``).

The field checks below run once, where a validated type or public entry
point receives a value, and raise ``DomainError`` on a bad one:

- scalars (finite real, non-negative, prior in [0, 1], a strictly
  increasing non-negative σ grid) accept Python or numpy reals and
  return Python floats;
- counts (``_count``) accept Python or numpy integers, never a bool, and
  return Python ints;
- matrices (``_matrix``) accept anything numpy turns into a square array
  and return a fresh complex one, finite and, when asked, Hermitian.
"""

import math
from numbers import Integral, Real

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


def _count(name: str, value, low: int) -> int:
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise DomainError(f"{name} must be >= {low}, got {value!r}")
    return int(value)


def _matrix(name: str, value, dim: int, herm_tol: float | None = None):
    """A new dim x dim complex C-ordered copy of value: finite, Hermitian to herm_tol if given."""
    import numpy as np

    try:
        m = np.array(value, dtype=complex, order="C")
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must be a {dim}x{dim} matrix of numbers: {exc}") from exc
    if m.shape != (dim, dim):
        raise DomainError(f"{name} must be a {dim}x{dim} matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise DomainError(f"{name} entries must be finite")
    if herm_tol is not None:
        defect = float(np.max(np.abs(m - m.conj().T)))
        if defect > herm_tol:
            raise DomainError(f"{name} must be Hermitian, defect {defect:.3e}")
    return m


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
