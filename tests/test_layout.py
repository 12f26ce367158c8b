"""Layout guards.  Every step-indexed path array keeps its path-first shape
and is stored step-major, so each step slice ``arr[:, j]`` is contiguous; a
control shared by every path is a read-only view of its one (N, m) block.
Every name the package exports is used inside the package or kept for a
stated reason, and every name a module imports is read in it."""

import ast
from pathlib import Path

import numpy as np

from smpkit.adjoint import solve_first_adjoint
from smpkit.forward import (
    OpenLoop,
    TimeGrid,
    sample_brownian,
    simulate_controlled,
    step_major,
)
from smpkit.maximum_principle import control_gradient, projected_gradient, second_order_data
from smpkit.scenarios import build_preset, load_preset, make_lq_scalar

from helpers import per_path_jacobians

N_STEPS, N_PATHS = 12, 200


def _assert_step_major(arr, shape):
    assert arr.shape == shape
    for j in (0, shape[1] // 2, shape[1] - 1):
        assert arr[:, j].flags.c_contiguous, f"step {j} slice is strided"


def _heat4():
    scenario, _ = build_preset(load_preset("heat4"))
    grid = TimeGrid(0.0, 1.0, N_STEPS)
    ens = sample_brownian(grid, N_PATHS, 5)
    control = OpenLoop(np.full((N_STEPS, scenario.control_dim), 0.1))
    traj = simulate_controlled(scenario, scenario.x0, control, ens)
    return scenario, grid, ens, traj


def test_step_major_allocator():
    arr = step_major((3, 5, 2))
    _assert_step_major(arr, (3, 5, 2))
    assert arr.swapaxes(0, 1).flags.c_contiguous


def test_brownian_increments_are_the_per_path_child_streams():
    grid = TimeGrid(0.0, 1.0, N_STEPS)
    n_paths, seed = 600, 17  # more paths than one sampling block
    ens = sample_brownian(grid, n_paths, seed)
    _assert_step_major(ens.increments, (n_paths, N_STEPS))
    _assert_step_major(ens.brownian_paths(), (n_paths, N_STEPS + 1))
    children = np.random.SeedSequence(seed).spawn(n_paths)
    for i in (0, 1, 255, 256, 511, 599):
        expected = np.random.default_rng(children[i]).standard_normal(N_STEPS) * np.sqrt(grid.dt)
        np.testing.assert_array_equal(ens.increments[i], expected)


def test_forward_simulators_store_step_major():
    scenario, grid, ens, traj = _heat4()
    n, m = scenario.n_modes, scenario.control_dim
    _assert_step_major(traj.states, (N_PATHS, N_STEPS + 1, n))
    # a shared control is stored once: a read-only view of its (N, m) block
    shared = traj.controls_used
    assert shared.shape == (N_PATHS, N_STEPS, m) and shared.strides[0] == 0
    assert not shared.flags.writeable
    # per-path values are recorded step-major
    per_path = OpenLoop(np.random.default_rng(1).uniform(-0.2, 0.2, (N_PATHS, N_STEPS, m)))
    traj = simulate_controlled(scenario, scenario.x0, per_path, ens)
    _assert_step_major(traj.controls_used, (N_PATHS, N_STEPS, m))


def test_control_gradient_stores_step_major():
    scenario, grid, ens, traj = _heat4()
    pair = solve_first_adjoint(scenario, traj, ens)
    _assert_step_major(control_gradient(scenario, traj, pair),
                       (N_PATHS, N_STEPS, scenario.control_dim))


def test_dense_second_order_data_and_sweep_store_step_major():
    scenario, grid, ens, traj = _heat4()
    scenario = per_path_jacobians(scenario)
    n = scenario.n_modes
    pair = solve_first_adjoint(scenario, traj, ens)
    J, K, F, P_T = second_order_data(scenario, traj, pair)
    for coeff in (J, K, F):
        _assert_step_major(coeff, (N_PATHS, N_STEPS, n, n))


def test_projected_gradient_iterate_is_step_major():
    scenario, _ = make_lq_scalar()
    grid = TimeGrid(0.0, 1.0, N_STEPS)
    ens = sample_brownian(grid, N_PATHS, 3)
    for init in (np.zeros((N_STEPS, 1)), np.zeros((N_PATHS, N_STEPS, 1))):
        final, _ = projected_gradient(scenario, scenario.x0, OpenLoop(init), ens, max_iters=2)
        _assert_step_major(final.values, (N_PATHS, N_STEPS, 1))


SRC = Path(__file__).resolve().parents[1] / "src" / "smpkit"

# exported names nothing in the package reads, each with the reason it stays
KEPT = {
    "lyapunov_oracle": "test oracle",
    "project": "mode-refinement study (ROADMAP item 6)",
    "embed": "mode-refinement study (ROADMAP item 6)",
    "lipschitz_probe": "criterion 7 API",
    "FiniteGrid": "control-set type",
    "verify_first_identity": "perfbench-pinned: the tracer wraps it",
    "verify_second_identity": "perfbench-pinned: the tracer wraps it",
}


def _exports():
    """(defining module, name) for every name smpkit/__init__.py imports."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [(node.module, alias.asname or alias.name)
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def _reads_and_imports(module):
    """The bare names a module reads, and the names it imports."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    reads = {n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    imports = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    return reads, imports


def test_every_export_is_used_in_the_package_or_kept():
    # used: read in its own module, or imported and read by another one (an
    # import kept only for the tracer's lookup does not count)
    modules = {p.stem: _reads_and_imports(p.stem) for p in SRC.glob("*.py")
               if p.stem != "__init__"}
    unused = {name for home, name in _exports()
              if name not in modules[home][0]
              and not any(name in reads and name in imports
                          for m, (reads, imports) in modules.items() if m != home)}
    assert sorted(unused - set(KEPT)) == [], "exported, but only tests call it"
    assert sorted(set(KEPT) - unused) == [], "kept for a reason, but used after all"


def test_every_import_is_read_in_its_module():
    # no linter runs on the package, so a deletion can leave an import
    # behind; __init__ only re-exports, and a statement marked noqa: F401
    # keeps names the benchmark tracer looks up
    stale = []
    for path in SRC.glob("*.py"):
        if path.stem == "__init__":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        reads = {n.id for n in ast.walk(tree)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in reads:
                    stale.append(f"{path.stem}: {name}")
    assert stale == [], "imported, but never read"
