"""smpkit benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload duality-heat4 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  Each invocation of
``smpkit.cli.main`` runs in a fresh process (perfbench/child.py), one at a
time, with ``--workers 1`` and BLAS threads left at their default.  The
loop starts invocations of the same seeded command until the next one
would end past ``--seconds``, and reports medians over them.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` interleaves
untraced and traced invocations and reports the per-layer metrics of the
traced ones plus the tracing overhead (traced over untraced ``wall_s``).
The last stdout line is the JSON result; the lines before it describe each
invocation and the environment.
See perfbench/NOTES.md for why the workloads and metrics are what they are.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170.0
SETUP_PROBES = 1

# name -> CLI argv without --seed/--outdir
WORKLOADS = {
    "duality-heat4": ["verify-duality", "--preset", "heat4", "--paths", "1500", "--dt", "0.005",
                      "--order", "both", "--tuples", "20", "--workers", "1"],
    "optimize-lq": ["optimize", "--preset", "lq_scalar", "--paths", "8000", "--dt", "0.005",
                    "--max-iters", "20", "--workers", "1"],
    "fine-heat4": ["solve-second-adjoint", "--preset", "heat4", "--paths", "8000",
                   "--dt", "0.0025", "--control", "zero", "--workers", "1"],
}


def option(argv, name):
    return argv[argv.index(name) + 1]


def preset_horizon(name):
    """``T`` of a preset file (smpkit's default is 1.0)."""
    text = (SRC / "smpkit" / "presets" / f"{name}.preset").read_text()
    for line in text.splitlines():
        key, _, value = line.partition("#")[0].partition("=")
        if key.strip() == "T":
            return float(value)
    return 1.0


def check_count(argv):
    """Output checks of one invocation, worked out from its argv."""
    if argv[0] == "verify-duality":
        orders = 2 if option(argv, "--order") == "both" else 1
        return orders * int(option(argv, "--tuples"))   # one per tuple and order
    if argv[0] == "optimize":
        return 2                                         # exit code, final J
    steps = round(preset_horizon(option(argv, "--preset")) / float(option(argv, "--dt")))
    return steps + 1                                     # one per row of the stats CSV


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    probe = subprocess.run([sys.executable, str(HERE / "envinfo.py"), str(SRC)], cwd=ROOT,
                           capture_output=True, text=True, timeout=60, check=True)
    env = json.loads(probe.stdout.strip().splitlines()[-1])
    env.update({
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "blas_threads_env": {k: os.environ[k] for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    })
    return env


def invoke(workload, seed, mode, index, started):
    """One CLI run in a fresh process; returns its record."""
    argv = WORKLOADS[workload]
    checks = check_count(argv)
    outdir = WORK / f"{workload}-{index}"
    result = WORK / f"{workload}-{index}.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(result), workload,
           mode, str(checks), "--", *argv,
           "--seed", str(seed), "--outdir", str(outdir)]
    timeout = max(1.0, DEADLINE_S - (time.perf_counter() - started))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        ok = proc.returncode == 0 and result.is_file()
        if not ok:
            sys.stderr.write(proc.stderr[-4000:])
        record = json.loads(result.read_text()) if ok else None
    except subprocess.TimeoutExpired:
        record = None
    shutil.rmtree(outdir, ignore_errors=True)
    if result.exists():
        result.unlink()
    if record is None:
        # a crash or a timeout fails every check of the invocation
        record = {"crashed": True, "attempted": checks, "failed": checks}
    record["traced"] = mode == "traced"
    return record


def run_workload(workload, seed, seconds, trace):
    """Invocations until the next one would end past ``seconds``.

    Untraced runs follow each invocation with SETUP_PROBES setup-only
    invocations, so that ``setup_s`` is a median over more samples."""
    WORK.mkdir(exist_ok=True)
    started = time.perf_counter()
    minimum = 2 if trace else 1   # a traced run needs one invocation of each kind
    records, probes, longest = [], [], 0.0
    while True:
        elapsed = time.perf_counter() - started
        if len(records) >= minimum and elapsed + longest > seconds:
            break
        if elapsed + longest > DEADLINE_S:
            break
        t0 = time.perf_counter()
        # untraced and traced in the order U T T U U T T U ..., so that a
        # drift during the run weighs on both kinds alike
        mode = "traced" if trace and len(records) % 4 in (1, 2) else "plain"
        rec = invoke(workload, seed, mode, len(records), started)
        records.append(rec)
        for _ in range(0 if trace or rec.get("crashed") else SETUP_PROBES):
            probe = invoke(workload, seed, "setup", f"{len(records)}-setup", started)
            if probe.get("crashed"):
                records.append(probe)
                break
            probes.append(probe["setup_s"])
        longest = max(longest, time.perf_counter() - t0)
        shown = {k: v for k, v in rec.items() if k != "layers"}
        print(f"invocation {len(records)}: {json.dumps(shown)}", flush=True)
        if records[-1].get("crashed"):
            break
    shutil.rmtree(WORK, ignore_errors=True)
    return records, probes


def median_of(records, key):
    return statistics.median(r[key] for r in records)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "smpkit" / "cli.py").is_file():
        sys.exit(f"error: no smpkit source under {SRC}; run from a source checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    env = environment(args.seed)
    print("environment: " + json.dumps(env), flush=True)
    records, probes = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if probes:
        print("setup probes: " + json.dumps(probes))
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(f"fail_frac: {failed / attempted:.6g} ({failed} of {attempted} checks failed)")

    plain = [r for r in records if not r.get("crashed") and not r["traced"]]
    traced = [r for r in records if not r.get("crashed") and r["traced"]]
    if not plain or (args.trace and not traced):
        # nothing to time: the checks alone are the result
        metrics = {} if args.trace else {
            "pass_frac": {"value": (attempted - failed) / attempted, "unit": "fraction"}}
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        sys.exit("error: no invocation completed")
    if args.trace:
        # median_low keeps a count a whole number when the sample count is even
        values = {k: statistics.median_low(r["layers"][k] for r in traced)
                  for k in traced[0]["layers"]}
        values["trace.wall_s"] = median_of(traced, "wall_s")
        values["trace.overhead_ratio"] = values["trace.wall_s"] / median_of(plain, "wall_s")
        wanted = spec["per_layer"]
        # every per-layer metric is in the result; a layer this workload
        # never reaches reads 0 there, so list the reached ones on their own
        reached = {m["name"]: values[m["name"]] for m in wanted if values[m["name"]]}
        print(f"layers reached on {args.workload}: " + json.dumps(reached))
        print(f"layers not reached on {args.workload}: "
              + json.dumps(sorted(m["name"] for m in wanted if m["name"] not in reached)))
    else:
        values = {key: median_of(plain, key) for key in ("wall_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median([r["setup_s"] for r in plain] + probes)
        values["pass_frac"] = (attempted - failed) / attempted
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))

if __name__ == "__main__":
    main()
