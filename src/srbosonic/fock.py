"""Truncated Fock-space numerics for single-mode Gaussian states.

Quadrature convention: q = (a + a†)/√2, p = (a − a†)/(i√2), so the vacuum
variance is 1/2 in each quadrature.  Entropies are in bits.

Displacement and squeeze unitaries are exponentials of the truncated
generator G.  G is exactly anti-Hermitian, so iG is Hermitian and the
exponential is computed from its eigendecomposition iG = V diag(λ) V† as
exp(G) = V diag(e^{−iλ}) V†, which is unitary on the retained block to
machine precision; the 1e-8 unitarity check still runs on every result.
What truncation actually degrades is the fidelity of the represented
operation.  That is guarded where it matters: ``gaussian_to_fock``
refuses a state whose thermal core drops a tail above 1e-12 (a cutoff
below ``_thermal_cutoff``, which also sizes χ's Gram route) or whose
moments miss the request by more than 1e-6 (its 1e-8 trace-deficit check
guards unitarity only: a small cutoff does not trip it), and
``converged_fock_density`` returns the first build that passes, growing the
cutoff 25% at a time up to ``MAX_CUTOFF``; that tail certifies its entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import CutoffError, DomainError, _count, _matrix, _nonnegative, _real

if TYPE_CHECKING:  # annotations only; numpy loads where it is used
    import numpy as np

__all__ = [
    "FockDensity",
    "GaussianStateOneMode",
    "thermal_state",
    "symplectic_eigenvalue",
    "suggest_cutoff",
    "gaussian_to_fock",
    "converged_fock_density",
    "von_neumann_entropy",
    "gaussian_entropy",
    "MAX_CUTOFF",
]

UNITARITY_TOL = 1e-8
THERMAL_TAIL_TOL = 1e-12
TRACE_DEFICIT_TOL = 1e-8
MOMENT_TOL = 1e-6
ENTROPY_CLIP = 1e-14
CUTOFF_GROWTH = 1.25
MAX_CUTOFF = 4096


def _validate_dim(dim) -> int:
    dim = _count("cutoff dimension", dim, 2)
    if dim > MAX_CUTOFF:  # before any dim x dim array: 268 MB at 4097, 160 GB at 1e5
        raise DomainError(f"cutoff dimension must be <= MAX_CUTOFF = {MAX_CUTOFF}, got {dim}")
    return dim


@dataclass(frozen=True, eq=False)
class FockDensity:
    """A density matrix on the truncated number basis.

    Construction validates Hermiticity (to 1e-12), trace within a small
    window of 1, and spectrum above -1e-10.  The stored matrix is the
    Hermitian part of the input and is read-only.
    """

    dim: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        dim = _validate_dim(self.dim)
        arr = _matrix("density", self.entries, dim, herm_tol=1e-12)
        arr = 0.5 * (arr + arr.conj().T)
        trace = float(np.trace(arr).real)
        if not (1.0 - 1e-6 <= trace <= 1.0 + 1e-9):
            raise DomainError(f"density trace must be 1 up to truncation deficit, got {trace!r}")
        lo = float(np.linalg.eigvalsh(arr)[0])
        if lo < -1e-10:
            raise DomainError(f"density matrix has negative eigenvalue {lo:.3e}")
        arr.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", arr)


@dataclass(frozen=True, eq=False)
class GaussianStateOneMode:
    """First and second moments of a one-mode Gaussian state.

    mean is (q̄, p̄); cov is the 2x2 symmetric covariance matrix of
    (q, p) with vacuum = diag(1/2, 1/2).  det(cov) >= 1/4 is required.
    """

    mean: tuple
    cov: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        try:  # _real refuses a numpy complex, whose float() would drop the imaginary part
            mean = tuple(_real("mean", v) for v in self.mean)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"mean must be a real pair, got {self.mean!r}") from exc
        if len(mean) != 2 or not all(math.isfinite(v) for v in mean):
            raise DomainError(f"mean must be a finite real pair, got {self.mean!r}")
        try:
            if np.iscomplexobj(self.cov):  # numpy would drop the imaginary part with a warning
                raise TypeError("complex entries")
            cov = np.array(self.cov, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"cov must be a real 2x2 matrix: {exc}") from exc
        if cov.shape != (2, 2):
            raise DomainError(f"cov must be 2x2, got shape {cov.shape}")
        if not np.all(np.isfinite(cov)):
            raise DomainError("cov must be finite")
        # Python floats overflow to inf without a warning; halving first keeps b finite
        (a, b), (c, d) = cov.tolist()
        if abs(b - c) > 1e-12:
            raise DomainError(f"cov must be symmetric, off-diagonal gap {b - c:.3e}")
        b = 0.5 * b + 0.5 * c
        det = a * d - b * b
        if not math.isfinite(det):
            raise DomainError(f"cov is too large: its determinant overflows ({det!r})")
        if a <= 0.0 or det < 0.25 - 1e-12:
            raise DomainError(
                f"cov violates the uncertainty relation: det {det!r} must be >= 1/4"
            )
        cov = np.array([[a, b], [b, d]])
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def _ladder_arrays(dim: int) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    n = np.arange(1, dim)
    a = np.zeros((dim, dim), dtype=complex)
    a[n - 1, n] = np.sqrt(n)
    return a, a.conj().T


def _unitary_from_generator(gen: np.ndarray, what: str) -> np.ndarray:
    import numpy as np

    # gen is anti-Hermitian, so 1j*gen is Hermitian with real spectrum lam
    lam, vecs = np.linalg.eigh(1j * gen)
    u = (vecs * np.exp(-1j * lam)) @ vecs.conj().T
    dim = gen.shape[0]
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(dim))))
    if defect > UNITARITY_TOL:
        raise CutoffError(
            f"{what} at cutoff {dim} lost unitarity: defect {defect:.3e} exceeds {UNITARITY_TOL:g}"
        )
    return u


def _displacement(beta: complex, a: np.ndarray, adag: np.ndarray) -> np.ndarray:
    """exp(β a† − β* a) on the block spanned by the ladder arrays."""
    return _unitary_from_generator(beta * adag - beta.conjugate() * a, "displacement")


def _squeeze(xi: complex, a: np.ndarray, adag: np.ndarray) -> np.ndarray:
    """exp((ξ* a² − ξ a†²)/2) on the block spanned by the ladder arrays."""
    gen = 0.5 * (xi.conjugate() * (a @ a) - xi * (adag @ adag))
    return _unitary_from_generator(gen, "squeeze")


def _thermal_cutoff(nbar: float) -> float:
    """Smallest K whose thermal tail q^K, q = n̄/(n̄+1), is at most 1e-12 (1 at n̄ = 0).

    Past n̄ ≈ 1.8e16, q rounds to 1 and no cutoff passes: inf.
    """
    ratio = nbar / (nbar + 1.0)
    if not ratio < 1.0:
        return math.inf
    return math.ceil(math.log(THERMAL_TAIL_TOL) / math.log(ratio)) if ratio > 0.0 else 1


def _thermal_weights(nbar: float, dim: int) -> np.ndarray:
    """Thermal weights q^k/(n̄+1), q = n̄/(n̄+1), for k < dim, not renormalized or gated."""
    import numpy as np

    ratio = nbar / (nbar + 1.0)
    return ratio ** np.arange(dim) / (nbar + 1.0)


def _thermal_core(nbar: float, dim: int) -> np.ndarray:
    """The thermal weights renormalized on k < dim; below the thermal cutoff, a CutoffError."""
    if dim < _thermal_cutoff(nbar):
        tail = (nbar / (nbar + 1.0)) ** dim
        raise CutoffError(f"thermal tail {tail:.3e} at cutoff {dim} exceeds {THERMAL_TAIL_TOL:g}")
    weights = _thermal_weights(nbar, dim)
    return weights / weights.sum()


def thermal_state(nbar: float, dim: int) -> FockDensity:
    """Diagonal geometric (thermal) state with mean photon number nbar.

    The discarded tail mass ratio (nbar/(nbar+1))^dim must be at most
    1e-12, else CutoffError; the retained block is renormalized.
    """
    import numpy as np

    dim = _validate_dim(dim)
    nbar = _nonnegative("mean photon number", nbar)
    return FockDensity(dim, np.diag(_thermal_core(nbar, dim)))


def symplectic_eigenvalue(g: GaussianStateOneMode) -> float:
    """√det(cov); equals 1/2 for pure states, nbar + 1/2 for thermal."""
    cov = g.cov
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    return math.sqrt(max(det, 0.25))


def suggest_cutoff(g: GaussianStateOneMode) -> int:
    """converged_fock_density's first cutoff: 20 + 10|mean|² + 20·λ_max(cov), rounded up.

    λ_max, the largest quadrature variance, equals ν for an unsqueezed cov
    and, unlike ν, grows with squeezing.  A start past the float range is a
    CutoffError.
    """
    (a, b), (_, d) = g.cov.tolist()
    lam_max = 0.5 * (a + d) + math.hypot(0.5 * (a - d), b)
    start = 20.0 + 10.0 * (g.mean[0] * g.mean[0] + g.mean[1] * g.mean[1]) + 20.0 * lam_max
    if not math.isfinite(start):
        raise CutoffError(f"starting cutoff {start!r} exceeds MAX_CUTOFF {MAX_CUTOFF}; nothing built")
    return int(math.ceil(start))


def _moment_defect(rho: np.ndarray, g: GaussianStateOneMode, a: np.ndarray, adag: np.ndarray) -> float:
    import numpy as np

    rt2 = math.sqrt(2.0)
    q = (a + adag) / rt2
    p = -1j * (a - adag) / rt2

    def tr(op: np.ndarray) -> float:
        return float(np.einsum("ij,ji->", rho, op).real)

    mean_q, mean_p = tr(q), tr(p)
    var_q, var_p = tr(q @ q) - mean_q * mean_q, tr(p @ p) - mean_p * mean_p
    cov_qp = 0.5 * tr(q @ p + p @ q) - mean_q * mean_p
    want = (g.mean[0], g.mean[1], g.cov[0, 0], g.cov[1, 1], g.cov[0, 1])
    return max(abs(x - y) for x, y in zip((mean_q, mean_p, var_q, var_p, cov_qp), want))


def gaussian_to_fock(g: GaussianStateOneMode, dim: int) -> FockDensity:
    """Fock-basis density matrix with the requested Gaussian moments.

    One-mode synthesis in closed form: a thermal core at the symplectic
    eigenvalue, the rotated squeeze that whitens cov, then the
    displacement for the mean.  The cutoff is too small for this state, a
    CutoffError, when the core's tail exceeds 1e-12 or the moments miss
    by more than 1e-6; the 1e-8 trace-deficit check guards unitarity only.
    """
    import numpy as np

    dim = _validate_dim(dim)
    nu = symplectic_eigenvalue(g)
    rho = np.diag(_thermal_core(nu - 0.5, dim).astype(complex))
    a, adag = _ladder_arrays(dim)
    eigvals, eigvecs = np.linalg.eigh(g.cov / nu)
    s = 0.25 * math.log(eigvals[1] / eigvals[0])
    if s > 1e-14:
        # the small-eigenvalue direction of cov is the squeezed axis
        phi = math.atan2(eigvecs[1, 0], eigvecs[0, 0])
        xi = s * complex(math.cos(2.0 * phi), math.sin(2.0 * phi))
        u = _squeeze(xi, a, adag)
        rho = u @ rho @ u.conj().T
    delta = complex(g.mean[0], g.mean[1]) / math.sqrt(2.0)
    if delta != 0:
        u = _displacement(delta, a, adag)
        rho = u @ rho @ u.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    deficit = 1.0 - float(np.trace(rho).real)
    if deficit > TRACE_DEFICIT_TOL:
        raise CutoffError(
            f"trace deficit {deficit:.3e} at cutoff {dim} exceeds {TRACE_DEFICIT_TOL:g}"
        )
    worst = _moment_defect(rho, g, a, adag)
    if worst > MOMENT_TOL:
        raise CutoffError(
            f"moments off by {worst:.3e} at cutoff {dim}; the state needs a larger basis"
        )
    return FockDensity(dim, rho)


def converged_fock_density(g: GaussianStateOneMode) -> FockDensity:
    """gaussian_to_fock at the first cutoff that passes its gates.

    The cutoff starts at suggest_cutoff and grows 25% at a time up to
    MAX_CUTOFF; no cutoff passing is a CutoffError quoting the last gate
    failure.  A build u ρ_th u† has the spectrum of its renormalized core,
    q^k (1 − q)/(1 − ε) for k < K, so its entropy is g(ν) − h(ε)/(1 − ε)
    (chain rule), within 4.2e-11 bits of ``gaussian_entropy`` at ε ≤ 1e-12.
    """
    start = dim = suggest_cutoff(g)
    failure = f"starting cutoff {start} exceeds MAX_CUTOFF {MAX_CUTOFF}; nothing built"
    while dim <= MAX_CUTOFF:
        try:
            return gaussian_to_fock(g, dim)
        except CutoffError as exc:
            failure = f"no cutoff from {start} to {MAX_CUTOFF} passed; last: {exc}"
        dim = int(math.ceil(dim * CUTOFF_GROWTH))
    raise CutoffError(failure)


def _spectrum_entropy(lam: np.ndarray) -> float:
    """−Σ λ log₂ λ over the eigenvalues above 1e-14; the rest are dropped."""
    import numpy as np

    lam = lam[lam > ENTROPY_CLIP]
    return float(-(lam * np.log2(lam)).sum())


def von_neumann_entropy(rho: FockDensity) -> float:
    """−Σ λ log₂ λ over the spectrum, eigenvalues below 1e-14 dropped."""
    import numpy as np

    return max(0.0, _spectrum_entropy(np.linalg.eigvalsh(rho.entries)))


def gaussian_entropy(g: GaussianStateOneMode) -> float:
    """Closed-form entropy of a one-mode Gaussian state, in bits.

    (n̄+1)log₂(n̄+1) − n̄ log₂ n̄ with n̄ = ν − 1/2, ν = √det(cov), written as
    (log1p(n̄) + n̄·log1p(1/n̄))/ln 2 so that no two large terms cancel;
    the pure state n̄ = 0 gives 0.
    """
    nbar = symplectic_eigenvalue(g) - 0.5
    if nbar == 0.0:
        return 0.0
    return (math.log1p(nbar) + nbar * math.log1p(1.0 / nbar)) / math.log(2.0)
