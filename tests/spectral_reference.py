"""Closed-form oracles of the diagonal spectral model.

The exact flow, its Yosida approximation and the deterministic first-adjoint
recursion.  Nothing in the package calls them; the tests compare the
simulators and the sweep against them."""

import numpy as np

from smpkit.errors import DimensionError, DomainError, SmpKitError
from smpkit.spectral import OperatorSpec


class SingularResolventError(SmpKitError):
    """Resolvent parameter collides with the spectrum."""


def check_vector(op, v):
    """``v`` as floats; DimensionError unless its trailing axis has ``op``'s modes."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != op.n_modes:
        raise DimensionError(f"vector has {v.shape[-1]} modes, operator has {op.n_modes}")
    return v


def semigroup_apply(op, dt, v):
    """Apply the flow for time dt: coefficient k is scaled by exp(mu_k * dt).

    Self-adjoint in this diagonal model, so this also realizes the adjoint
    semigroup.  Broadcasts over any leading axes of ``v``.
    """
    if dt < 0:
        raise DomainError("dt must be nonnegative")
    v = check_vector(op, v)
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


def deterministic_first_adjoint(op, y_terminal, f_path, grid):
    """Deterministic-data backward recursion: with the expectation dropped the
    sweep reduces to y_j = S*(dt) y_{j+1} - dt f_j, which telescopes into the
    semigroup representation of y against (y_T, f).  Returns (n_steps+1, n)."""
    N = grid.n_steps
    dt = grid.dt
    y_terminal = check_vector(op, y_terminal)
    decay = np.exp(op.eigenvalues * dt)
    out = np.empty((N + 1, op.n_modes))
    out[N] = y_terminal
    if f_path is None:
        f_path = np.zeros((N, op.n_modes))
    f_path = np.asarray(f_path, dtype=float)
    if f_path.shape != (N, op.n_modes):
        raise DimensionError(f"f_path must have shape {(N, op.n_modes)}")
    for j in range(N - 1, -1, -1):
        out[j] = decay * out[j + 1] - dt * f_path[j]
    return out
