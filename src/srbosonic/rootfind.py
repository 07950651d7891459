"""Bracketing solvers: a root by bisection, a maximum by golden section.

``_bracket_and_bisect`` steps out from a point with a doubling step until
the sign changes, then ``bisect`` closes the last step; that walk serves
every boundary and critical-noise solve in ``schemes``.  The functions
there are cheap, monotone on the bracket, and evaluated in transformed
coordinates where Newton steps buy nothing, and bisection converges
unconditionally.  ``golden_max`` serves only the private-rate probe, which
refines its maximising σ between two grid neighbours.
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
        mid = 0.5 * lo + 0.5 * hi  # halved first, so brackets near the float range stay finite
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
    return 0.5 * lo + 0.5 * hi


def _bracket_and_bisect(
    f: Callable[[float], float], x0: float, f0: float, bound: float, step: float,
    *, xtol: float, maxit: int,
) -> float:
    """Root of f between x0 and bound, where f(x0) = f0 is nonzero.

    Steps out from x0 toward bound, doubling the step each time, until f is
    zero or has changed sign.  The last step is clamped to bound, and
    SolverError is raised only if f keeps its sign there too.  The final
    step is then bisected.
    """
    direction = math.copysign(1.0, bound - x0)
    inner = x0
    while True:
        outer = inner + direction * step
        if direction * (outer - bound) > 0.0:
            outer = bound
        f_out = f(outer)
        if f_out == 0.0 or (f_out > 0.0) != (f0 > 0.0):
            break
        if outer == bound:
            raise SolverError(
                f"bracketing failed: no sign change between {x0!r} and the "
                f"search bound {bound!r}"
            )
        inner, step = outer, 2.0 * step
    lo, hi = sorted((inner, outer))
    return bisect(f, lo, hi, xtol=xtol, maxit=maxit)


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
