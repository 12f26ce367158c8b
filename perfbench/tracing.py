"""Span recording around smpkit's public names, from outside the package.

Every wrapper replaces a name at the module where the caller looks it up
(``smpkit.cli.solve_first_adjoint`` and ``smpkit.maximum_principle.
solve_first_adjoint`` are two lookups of one function), or a method on its
class.  A span is (metric, start, end, parent).  Spans nest through one
shared stack, which is correct because the benchmark drives the CLI with
``--workers 1``: at most one thread runs smpkit code at a time.

This module imports neither numpy nor smpkit, so that the child process
can import it before its clock starts.
"""

import importlib
import time

# (module, attribute, metric).  Several lookups may share one metric.
FUNCTIONS = (
    ("smpkit.cli", "sample_brownian", "forward.sample_brownian"),
    ("smpkit.cli", "simulate_controlled", "forward.simulate"),
    ("smpkit.maximum_principle", "simulate_controlled", "forward.simulate"),
    ("smpkit.cli", "cost_paths", "forward.cost_paths"),
    ("smpkit.maximum_principle", "cost_paths", "forward.cost_paths"),
    ("smpkit.cli", "solve_first_adjoint", "adjoint.solve_first"),
    ("smpkit.maximum_principle", "solve_first_adjoint", "adjoint.solve_first"),
    ("smpkit.cli", "solve_second_adjoint", "second_order.solve_second"),
    ("smpkit.maximum_principle", "solve_second_adjoint", "second_order.solve_second"),
    ("smpkit.duality", "solve_second_adjoint", "second_order.solve_second"),
    ("smpkit.cli", "verify_first_identity", "duality.verify_first"),
    ("smpkit.cli", "verify_second_identity", "duality.verify_second"),
    ("smpkit.cli", "random_first_test", "duality.test_gen"),
    ("smpkit.cli", "random_second_test", "duality.test_gen"),
    ("smpkit.cli", "projected_gradient", "maximum_principle.projected_gradient"),
    ("smpkit.maximum_principle", "control_gradient", "maximum_principle.control_gradient"),
    ("smpkit.cli", "second_order_data", "maximum_principle.second_order_data"),
    ("smpkit.maximum_principle", "second_order_data", "maximum_principle.second_order_data"),
    ("smpkit.cli", "load_preset", "scenarios.preset"),
    ("smpkit.cli", "build_preset", "scenarios.preset"),
    ("smpkit.cli", "write_csv", "cli.write"),
    ("smpkit.cli", "write_manifest", "cli.write"),
)

# generators: each next() is one span
GENERATORS = (
    ("smpkit.duality", "iter_linear_test", "forward.test_dynamics"),
    ("smpkit.duality", "iter_linearized", "forward.test_dynamics"),
)

# (module, class, method, metric)
METHODS = (
    ("smpkit.forward", "BrownianEnsemble", "brownian_paths", "forward.brownian_paths"),
    ("smpkit.adjoint", "RegressionBasis", "features", "adjoint.features"),
    ("smpkit.adjoint", "RidgeSolver", "__init__", "adjoint.ridge"),
    ("smpkit.adjoint", "RidgeSolver", "solve", "adjoint.ridge"),
    ("smpkit.second_order", "SecondOrderAdjoint", "P_paths", "second_order.paths"),
    ("smpkit.second_order", "SecondOrderAdjoint", "Q_paths", "second_order.paths"),
    ("smpkit.second_order", "SecondOrderAdjoint", "P_mean", "second_order.paths"),
)

ROOT = "cli.self"

# metrics reported as self time (<metric>_s) and as call counts (<metric>_calls)
TIMED = sorted({m for *_, m in FUNCTIONS + GENERATORS + METHODS} | {ROOT})
COUNTED = ("forward.simulate", "forward.brownian_paths", "adjoint.solve_first",
           "second_order.paths")


class Tracer:
    """Spans kept in memory; aggregated once the traced call has returned."""

    def __init__(self):
        self.spans = []   # [metric, start, end, parent index]
        self.stack = []
        self.counts = {"adjoint.regressions": 0, "duality.tuples": 0,
                       "duality.tuples_passed": 0, "maximum_principle.iterations": 0}
        self.mbytes = {"forward.states_mb": 0.0, "adjoint.history_mb": 0.0,
                       "second_order.storage_mb": 0.0}

    def open(self, metric):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([metric, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def call(self, metric, fn, args, kwargs):
        self.open(metric)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()

    def self_times(self):
        """Self time per metric: span duration minus its direct children's."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for (metric, start, end, _), child in zip(self.spans, covered):
            out[metric] = out.get(metric, 0.0) + (end - start) - child
        return out

    def calls(self):
        out = {}
        for metric, *_ in self.spans:
            out[metric] = out.get(metric, 0) + 1
        return out

    def note_bytes(self, key, *arrays):
        """Computed size of one returned object; the largest one is kept."""
        mb = sum(a.nbytes for a in arrays if a is not None) / 2**20
        self.mbytes[key] = max(self.mbytes[key], mb)

    def report(self):
        selfs, calls = self.self_times(), self.calls()
        out = {f"{m}_s": selfs.get(m, 0.0) for m in TIMED}
        out.update({f"{m}_calls": calls.get(m, 0) for m in COUNTED})
        out.update(self.counts)
        out.update(self.mbytes)
        return out


def _observe(tracer, metric, result):
    """Counts and computed bytes read off the values a layer returns."""
    if metric == "forward.simulate":
        tracer.note_bytes("forward.states_mb", result.states)
    elif metric == "adjoint.solve_first":
        tracer.note_bytes("adjoint.history_mb", result.y, result.Y, result.driver)
    elif metric == "second_order.solve_second":
        tracer.note_bytes("second_order.storage_mb", result.beta_P, result.beta_Q,
                          result.P_terminal, result.dense_P, result.dense_Q)
    elif metric in ("duality.verify_first", "duality.verify_second"):
        tracer.counts["duality.tuples"] += 1
        tracer.counts["duality.tuples_passed"] += int(result.passed)
    elif metric == "maximum_principle.projected_gradient":
        tracer.counts["maximum_principle.iterations"] += len(result[1].iterations)


def _wrap_function(tracer, fn, metric):
    def traced(*args, **kwargs):
        result = tracer.call(metric, fn, args, kwargs)
        _observe(tracer, metric, result)
        return result
    return traced


def _wrap_method(tracer, fn, metric, count_solves):
    def traced(*args, **kwargs):
        if count_solves:
            tracer.counts["adjoint.regressions"] += 1
        return tracer.call(metric, fn, args, kwargs)
    return traced


def _wrap_generator(tracer, fn, metric):
    def traced(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            tracer.open(metric)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tracer.close()
            yield item
    return traced


def install(tracer):
    """Replace every listed name by its traced wrapper."""
    for module, attr, metric in FUNCTIONS:
        mod = importlib.import_module(module)
        setattr(mod, attr, _wrap_function(tracer, getattr(mod, attr), metric))
    for module, attr, metric in GENERATORS:
        mod = importlib.import_module(module)
        setattr(mod, attr, _wrap_generator(tracer, getattr(mod, attr), metric))
    for module, cls_name, attr, metric in METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        count_solves = (cls_name, attr) == ("RidgeSolver", "solve")
        setattr(cls, attr, _wrap_method(tracer, getattr(cls, attr), metric, count_solves))
