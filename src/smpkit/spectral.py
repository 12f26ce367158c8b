"""Finite spectral model of the state space.

The working Hilbert space is represented by coefficients against an
orthonormal eigenbasis that diagonalizes the generator, so a state vector is
just a 1-D float array of length ``n_modes`` (batched arrays with trailing
mode axis are accepted everywhere).  The semigroup and the finite-rank
projections act coefficientwise, which keeps every flow exact and
unconditionally stable.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError


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


def make_dirichlet_laplacian(n_modes, length=1.0):
    """Dirichlet Laplacian on an interval: mu_k = -(k*pi/length)^2, k = 1..n."""
    if length <= 0:
        raise DomainError("length must be positive")
    k = np.arange(1, n_modes + 1, dtype=float)
    return OperatorSpec(n_modes, -((k * np.pi / length) ** 2))


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
