"""One timed CLI invocation in a fresh process.

    python3 perfbench/child.py <src dir> <result.json> <workload> <mode> <checks> -- <cli argv>

``mode`` is ``plain``, ``traced`` or ``setup``.  The clock starts just
before ``import smpkit.cli`` and stops when ``main`` returns.  Everything
after that (references, output checks) is untimed.  The result file holds
the timings, ``ru_maxrss``, the check counts and, when traced, the
per-layer report.  A ``setup`` invocation stops ``main`` as soon as the
Brownian ensemble exists and records ``setup_s`` alone.
"""

import csv
import json
import os
import resource
import sys
import time

import tracing

# numpy and smpkit are imported inside functions: the clock starts before
# their import, which is part of what a user waits for


def _load_smpkit(src):
    """Import ``smpkit.cli`` from ``src``; returns the module."""
    sys.path.insert(0, src)
    import smpkit.cli

    where = os.path.realpath(smpkit.cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"smpkit imported from {where}, not from {src}")
    return smpkit.cli


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _option(argv, name):
    return argv[argv.index(name) + 1]


def check_duality(argv, outdir, captured, attempted):
    """One check per tuple: the ``pass`` column of both identity CSVs.
    A CSV without exactly ``--tuples`` rows fails all of its checks."""
    tuples = int(_option(argv, "--tuples"))
    passed = 0
    for name in ("duality_first.csv", "duality_second.csv"):
        path = os.path.join(outdir, name)
        rows = _read_csv(path) if os.path.exists(path) else []
        if len(rows) == tuples:
            passed += sum(1 for r in rows if r["pass"] == "1")
    return attempted - passed


def check_optimize(argv, outdir, captured, attempted):
    """Exit code 0, and final J within 2 % of the Riccati value at x0."""
    from smpkit.forward import TimeGrid
    from smpkit.scenarios import build_preset, load_preset, riccati_oracle

    cfg = load_preset(_option(argv, "--preset"))
    scenario, lq = build_preset(cfg)
    T = float(cfg.get("T", 1.0))
    grid = TimeGrid(0.0, T, int(round(T / float(_option(argv, "--dt")))))
    target = riccati_oracle(lq, grid).value_at(scenario.x0)
    path = os.path.join(outdir, "optimize_history.csv")
    rows = _read_csv(path) if os.path.exists(path) else []
    ok_exit = captured["exit_code"] == 0
    ok_value = bool(rows) and abs(float(rows[-1]["J"]) - target) / abs(target) < 0.02
    return int(not ok_exit) + int(not ok_value)


def check_second_adjoint(argv, outdir, captured, attempted):
    """One check per step: every P_mean entry within c_bias_second * dt of
    the deterministic Lyapunov sweep on the run's own J, K, F."""
    import numpy as np
    from smpkit.second_order import lyapunov_oracle, mat_to_vec

    path = os.path.join(outdir, "second_adjoint_stats.csv")
    if "second_order_data" not in captured or not os.path.exists(path):
        return attempted
    rows = _read_csv(path)
    op, c_bias, grid, (J, K, F, P_T) = captured["second_order_data"]
    if len(rows) != attempted or [int(r["step"]) for r in rows] != list(range(grid.n_steps + 1)):
        return attempted
    oracle = mat_to_vec(lyapunov_oracle(op, J, K, F, P_T.mean(axis=0), grid))
    bound = c_bias * grid.dt
    passed = 0
    for row in rows:
        got = np.array([float(row[f"P_mean_{k + 1}"]) for k in range(oracle.shape[1])])
        passed += int(np.all(np.abs(got - oracle[int(row["step"])]) <= bound))
    return attempted - passed


class _SetupDone(Exception):
    """Raised out of ``main`` once a setup invocation has its ensemble."""


CHECKS = {
    "duality-heat4": check_duality,
    "optimize-lq": check_optimize,
    "fine-heat4": check_second_adjoint,
}


def main():
    src, result_path, workload, mode, attempted = sys.argv[1:6]
    attempted = int(attempted)
    argv = sys.argv[sys.argv.index("--") + 1:]
    outdir = _option(argv, "--outdir")
    t0 = time.perf_counter()
    cli = _load_smpkit(src)
    t_import = time.perf_counter()

    tracer = tracing.Tracer() if mode == "traced" else None
    if tracer is not None:
        tracing.install(tracer)

    captured = {}
    sample_brownian = cli.sample_brownian
    second_order_data = cli.second_order_data

    def marked_sample_brownian(*args, **kwargs):
        ens = sample_brownian(*args, **kwargs)
        captured.setdefault("setup_end", time.perf_counter())
        if mode == "setup":
            raise _SetupDone
        return ens

    def kept_second_order_data(scenario, traj, pair):
        data = second_order_data(scenario, traj, pair)
        captured["second_order_data"] = (scenario.op, scenario.c_bias_second, traj.grid, data)
        return data

    cli.sample_brownian = marked_sample_brownian
    cli.second_order_data = kept_second_order_data

    if mode == "setup":
        try:
            cli.main(argv)
        except _SetupDone:
            pass
        with open(result_path, "w") as fh:
            json.dump({"setup_s": captured["setup_end"] - t0}, fh)
        return

    if tracer is not None:
        tracer.open(tracing.ROOT)
    try:
        code = cli.main(argv)
    finally:
        if tracer is not None:
            tracer.close()
    t_end = time.perf_counter()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    captured["exit_code"] = code

    # exit code 2 (unusable configuration) fails every check of the run
    failed = attempted if code == 2 else CHECKS[workload](argv, outdir, captured, attempted)
    record = {
        "exit_code": code,
        "wall_s": t_end - t0,
        "setup_s": captured.get("setup_end", t_end) - t0,
        "import_s": t_import - t0,
        "peak_rss_mb": rss_mb,
        "attempted": attempted,
        "failed": failed,
    }
    if tracer is not None:
        layers = tracer.report()
        layers["cli.import_s"] = t_import - t0
        record["layers"] = layers
    with open(result_path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
