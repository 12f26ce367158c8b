"""Finite spectral model of the state space.

The working Hilbert space is represented by coefficients against an
orthonormal eigenbasis that diagonalizes the generator, so a state vector is
just a 1-D float array of length ``n_modes`` (batched arrays with trailing
mode axis are accepted everywhere).  The semigroup, its bounded resolvent
approximation, and the finite-rank projections all act coefficientwise,
which keeps every flow exact and unconditionally stable.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, SingularResolventError


@dataclass(frozen=True)
class OperatorSpec:
    """Diagonal generator: eigenvalues (units 1/time)."""

    n_modes: int
    eigenvalues: np.ndarray

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        object.__setattr__(self, "eigenvalues", ev)
        if self.n_modes < 1:
            raise DomainError("n_modes must be >= 1")
        if ev.ndim != 1 or ev.size != self.n_modes:
            raise DimensionError(
                f"expected {self.n_modes} eigenvalues, got shape {ev.shape}"
            )
        if not np.all(np.isfinite(ev)):
            raise DomainError("eigenvalues must be finite")

    def check_vector(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape[-1] != self.n_modes:
            raise DimensionError(
                f"vector has {v.shape[-1]} modes, operator has {self.n_modes}"
            )
        return v


def make_dirichlet_laplacian(n_modes, length=1.0):
    """Dirichlet Laplacian on an interval: mu_k = -(k*pi/length)^2, k = 1..n."""
    if length <= 0:
        raise DomainError("length must be positive")
    k = np.arange(1, n_modes + 1, dtype=float)
    return OperatorSpec(n_modes, -((k * np.pi / length) ** 2))


def semigroup_apply(op, dt, v):
    """Apply the flow for time dt: coefficient k is scaled by exp(mu_k * dt).

    Self-adjoint in this diagonal model, so this also realizes the adjoint
    semigroup.  Broadcasts over any leading axes of ``v``.
    """
    if dt < 0:
        raise DomainError("dt must be nonnegative")
    v = op.check_vector(v)
    if dt == 0:
        return v.copy()
    return v * np.exp(op.eigenvalues * dt)


def yosida_generator(op, lam):
    """Bounded approximation of the generator: eigenvalue lam*mu/(lam - mu).

    Valid for any lam outside the spectrum; for dissipative spectra any
    lam > 0 qualifies.  The returned spec generates the approximating group
    through :func:`semigroup_apply`.
    """
    mu = op.eigenvalues
    if np.any(lam == mu):
        raise SingularResolventError(f"lambda = {lam} lies in the spectrum")
    return OperatorSpec(op.n_modes, lam * mu / (lam - mu))


def project(v, m):
    """Truncate to the first m coefficients (dimension drops to m)."""
    v = np.asarray(v, dtype=float)
    if m < 1 or m > v.shape[-1]:
        raise DomainError(f"cannot project dimension {v.shape[-1]} onto {m} modes")
    return v[..., :m].copy()


def embed(v, n):
    """Embed into n modes by zero-padding the tail."""
    v = np.asarray(v, dtype=float)
    m = v.shape[-1]
    if n < m:
        raise DomainError(f"cannot embed {m} modes into {n} < {m}")
    out = np.zeros(v.shape[:-1] + (n,))
    out[..., :m] = v
    return out
