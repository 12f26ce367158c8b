"""Per-tuple reference implementations of the duality checks.

These are the loop verifiers and array generators the stacked pass in
``smpkit.duality`` replaced: each tuple streams its own test dynamics
through the single-tuple iterators and rebuilds P_j and Q_j at every step.
The equivalence tests compare the stacked pass against them, handing the
loops ``spec.materialize(w)``.  Deterministic test tuples are built here
as descriptions, the only form the stacked pass takes.
"""

import numpy as np

from adjoint_reference import y_at
from smpkit.adjoint import check_same_ensemble
from smpkit.duality import ForcingSpec, IdentityReport, StartSpec, TupleSpec
from smpkit.forward import iter_linear_test, iter_linearized


def fixed_tuple(t_index, starts, forcings):
    """A ``TupleSpec`` with deterministic data: each start an (n,) vector,
    each forcing an (N, n) profile or None."""
    return TupleSpec(
        t_index,
        tuple(StartSpec(np.asarray(c0, dtype=float), np.zeros(len(c0))) for c0 in starts),
        tuple(None if f is None else ForcingSpec(np.asarray(f, dtype=float)) for f in forcings))


def deterministic_first_test(op, ens, rng, scale=1.0):
    """Deterministic-data tuple (t_index, eta, v1, v2): nonrandom eta and
    forcing profiles.  The identity residual is then a pure systematic of the
    solver and grid, which makes it the right probe for refinement studies
    (adapted tuples sit at the Monte Carlo noise floor, where a single
    residual draw has no dt-trend)."""
    t_index = int(rng.integers(0, ens.grid.n_steps // 2 + 1))
    eta = scale * rng.standard_normal(op.n_modes)
    v1 = _smooth_profile(op, ens, rng, scale)
    v2 = _smooth_profile(op, ens, rng, scale)
    return fixed_tuple(t_index, (eta,), (v1, v2))


def _proc_at(proc, j):
    if proc is None:
        return None
    if proc.ndim == 2:
        return proc[j]
    return proc[:, j]


def _coeff_at(coeff, j, n):
    """Step slice of a coefficient spec: None, (n,n), (N,n,n) or (P,N,n,n)."""
    if coeff is None:
        return None
    if coeff.ndim == 2:
        return coeff
    if coeff.ndim == 3:
        return coeff[j]
    return coeff[:, j]


def _pair(u, v):
    if u is None or v is None:
        return 0.0
    return np.sum(u * v, axis=-1)


def loop_first_identity(pair, op, test, ens, bias_budget=0.0, k_sigma=3.0):
    """Evaluate both sides of the first-order identity for one test tuple
    (t_index, eta, v1, v2); v1/v2 are (N, n) or (n_paths, N, n) arrays.
    The pair is read one step at a time, with its driver."""
    check_same_ensemble(pair.ens, ens)
    t_index, eta, v1, v2 = test
    grid = ens.grid
    N, dt, P = grid.n_steps, grid.dt, ens.n_paths
    v1 = None if v1 is None else np.asarray(v1, dtype=float)
    v2 = None if v2 is None else np.asarray(v2, dtype=float)

    lhs_acc = np.zeros(P)
    rhs_acc = np.zeros(P)
    rhs_acc += _pair(np.asarray(eta, dtype=float), y_at(pair, t_index))
    for j, z in iter_linear_test(op, t_index, eta, v1, v2, ens):
        if j == N:
            lhs_acc += _pair(z, pair.y_T)
            break
        y_j, Y_j, f_j = pair.at(j, with_driver=True)
        lhs_acc -= dt * _pair(z, f_j)
        # pair v1 against the pre-update conditional mean y_j + dt f_j: same
        # O(dt) quadrature of the integral, but the one the stepping scheme
        # telescopes exactly
        rhs_acc += dt * _pair(_proc_at(v1, j), y_j + dt * f_j)
        rhs_acc += dt * _pair(_proc_at(v2, j), Y_j)
    resid = lhs_acc - rhs_acc
    stderr = float(resid.std(ddof=1) / np.sqrt(P)) if P > 1 else 0.0
    return IdentityReport(
        "first", t_index, float(lhs_acc.mean()), float(rhs_acc.mean()),
        stderr, P, dt, bias_budget, k_sigma,
    )


def _matvec(mat, x):
    if mat is None:
        return None
    if mat.ndim == 2:
        return np.einsum("ij,pj->pi", mat, x)
    return np.einsum("pij,pj->pi", mat, x)


def loop_second_identity(sa, op, J, K, F, P_T, test, ens, bias_budget=0.0,
                           k_sigma=3.0):
    """Evaluate both sides of the second-order identity for one test tuple
    (t_index, xi1, xi2, u1, u2, v1, v2)."""
    check_same_ensemble(sa.ens, ens)
    t_index, xi1, xi2, u1, u2, v1, v2 = test
    grid = ens.grid
    N, dt, P = grid.n_steps, grid.dt, ens.n_paths
    n = op.n_modes
    J = None if J is None else np.asarray(J, dtype=float)
    K = None if K is None else np.asarray(K, dtype=float)
    F = None if F is None else np.asarray(F, dtype=float)
    P_T = np.asarray(P_T, dtype=float)
    if P_T.ndim == 2:
        P_T = np.broadcast_to(P_T, (P, n, n))
    procs = {
        name: None if arr is None else np.asarray(arr, dtype=float)
        for name, arr in (("u1", u1), ("u2", u2), ("v1", v1), ("v2", v2))
    }

    def batched(vec):
        if vec is None:
            return None
        vec = np.asarray(vec, dtype=float)
        return np.broadcast_to(vec, (P, n)) if vec.ndim == 1 else vec

    lhs_acc = np.zeros(P)
    rhs_acc = np.zeros(P)
    it1 = iter_linearized(op, J, K, t_index, xi1, procs["u1"], procs["v1"], ens)
    it2 = iter_linearized(op, J, K, t_index, xi2, procs["u2"], procs["v2"], ens)
    for (j, x1), (_, x2) in zip(it1, it2):
        if j == t_index:
            P_t = sa.P_paths(t_index)
            rhs_acc += _pair(np.einsum("pij,pj->pi", P_t, batched(xi1)), batched(xi2))
        if j == N:
            lhs_acc += _pair(np.einsum("pij,pj->pi", P_T, x1), x2)
            break
        Fj = _coeff_at(F, j, n)
        if Fj is not None:
            lhs_acc -= dt * _pair(_matvec(Fj, x1), x2)
        P_j = sa.P_paths(j)
        Q_j = sa.Q_paths(j)
        Kj = _coeff_at(K, j, n)
        u1j, u2j = batched(_proc_at(procs["u1"], j)), batched(_proc_at(procs["u2"], j))
        v1j, v2j = batched(_proc_at(procs["v1"], j)), batched(_proc_at(procs["v2"], j))
        if u1j is not None:
            rhs_acc += dt * _pair(np.einsum("pij,pj->pi", P_j, u1j), x2)
        if u2j is not None:
            rhs_acc += dt * _pair(np.einsum("pij,pj->pi", P_j, x1), u2j)
        if v2j is not None and Kj is not None:
            rhs_acc += dt * _pair(np.einsum("pij,pj->pi", P_j, _matvec(Kj, x1)), v2j)
        if v1j is not None:
            kx2 = _matvec(Kj, x2) if Kj is not None else 0.0
            partner = kx2 + (v2j if v2j is not None else 0.0)
            if v2j is not None or Kj is not None:
                rhs_acc += dt * _pair(np.einsum("pij,pj->pi", P_j, v1j), partner)
            rhs_acc += dt * _pair(np.einsum("pij,pj->pi", Q_j, v1j), x2)
        if v2j is not None:
            rhs_acc += dt * _pair(np.einsum("pij,pj->pi", Q_j, x1), v2j)
    resid = lhs_acc - rhs_acc
    stderr = float(resid.std(ddof=1) / np.sqrt(P)) if P > 1 else 0.0
    return IdentityReport(
        "second", t_index, float(lhs_acc.mean()), float(rhs_acc.mean()),
        stderr, P, dt, bias_budget, k_sigma,
    )


def _smooth_profile(op, ens, rng, scale):
    N = ens.grid.n_steps
    n = op.n_modes
    return scale * rng.standard_normal((1, n)) * np.cos(
        rng.uniform(0, 4) * np.linspace(0.0, 1.0, N) + rng.uniform(0, 2 * np.pi)
    )[:, None]


def _adapted_process(op, ens, rng, scale, w):
    """Random bounded adapted forcing: a smooth time profile modulated per
    path by a bounded function of the Brownian path so far."""
    N = ens.grid.n_steps
    profile = _smooth_profile(op, ens, rng, scale)
    modulation = np.sin(rng.uniform(0.5, 2.0) * w[:, :N] + rng.uniform(0, 2 * np.pi))
    return profile[None, :, :] * modulation[:, :, None]


def _forcing_set(op, ens, rng, scale, count):
    """`count` forcings with exactly one path-adapted member (the rest are
    deterministic profiles): exercises every pairing while keeping the large
    per-path arrays to one per tuple."""
    w = ens.brownian_paths()
    adapted_slot = int(rng.integers(0, count))
    out = []
    for k in range(count):
        if k == adapted_slot:
            out.append(_adapted_process(op, ens, rng, scale, w))
        else:
            out.append(np.ascontiguousarray(np.broadcast_to(
                _smooth_profile(op, ens, rng, scale), (ens.grid.n_steps, op.n_modes))))
    return w, out


def loop_random_first_test(op, ens, rng, scale=1.0):
    """Random tuple (t_index, eta, v1, v2) with eta measurable at t_index."""
    N = ens.grid.n_steps
    n = op.n_modes
    t_index = int(rng.integers(0, N // 2 + 1))
    c0 = scale * rng.standard_normal(n)
    c1 = scale * rng.standard_normal(n)
    w, (v1, v2) = _forcing_set(op, ens, rng, scale, 2)
    eta = c0 + c1 * np.tanh(w[:, t_index])[:, None]
    return t_index, eta, v1, v2


def loop_random_second_test(op, ens, rng, scale=1.0):
    """Random tuple (t_index, xi1, xi2, u1, u2, v1, v2)."""
    N = ens.grid.n_steps
    n = op.n_modes
    t_index = int(rng.integers(0, N // 2 + 1))
    w, (u1, u2, v1, v2) = _forcing_set(op, ens, rng, scale, 4)
    xis = []
    for _ in range(2):
        c0 = scale * rng.standard_normal(n)
        c1 = scale * rng.standard_normal(n)
        xis.append(c0 + c1 * np.tanh(w[:, t_index])[:, None])
    return t_index, xis[0], xis[1], u1, u2, v1, v2


