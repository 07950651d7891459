"""Bracketing solvers: a root by bisection, a maximum by golden section.

``bisect`` serves every boundary and critical-noise solve in ``schemes``:
the functions there are cheap, monotone on the bracket, and evaluated in
transformed coordinates where Newton steps buy nothing, and bisection
converges unconditionally.  ``golden_max`` serves only the private-rate
probe, which refines its maximising σ between two grid neighbours.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import SolverError

__all__ = ["bisect", "golden_max"]


def bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    xtol: float = 1e-14,
    maxit: int = 200,
) -> float:
    """Root of f on [lo, hi] by bisection.

    Requires a sign change across the bracket (an endpoint that is exactly
    zero is returned directly).  Stops when the bracket width falls below
    xtol (absolute) or after maxit halvings, whichever comes first, and
    returns the midpoint of the final bracket.
    """
    if not lo < hi:
        raise SolverError(f"invalid bracket [{lo!r}, {hi!r}]")
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise SolverError(
            f"no sign change on bracket [{lo!r}, {hi!r}]: f(lo)={flo!r}, f(hi)={fhi!r}"
        )
    for _ in range(maxit):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # bracket at floating-point resolution
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if math.copysign(1.0, fmid) == math.copysign(1.0, flo):
            lo, flo = mid, fmid
        else:
            hi = mid
        if hi - lo < xtol:
            break
    return 0.5 * (lo + hi)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    xtol: float = 1e-10,
    maxit: int = 400,
) -> float:
    """Location of a maximum of f on [lo, hi] by golden-section search.

    Assumes f is unimodal on the bracket.  Returns the midpoint of the
    final bracket once its width falls below xtol.
    """
    if not lo < hi:
        raise SolverError(f"invalid bracket [{lo!r}, {hi!r}]")
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(maxit):
        if b - a < xtol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)
