"""The benchmark tracer (perfbench/tracing.py) resolves smpkit names with
getattr when it installs its wrappers.  A name that disappears crashes
every traced benchmark invocation, so each one it lists must resolve."""

import importlib

from helpers import load_tracing


def test_traced_names_resolve():
    tracing = load_tracing()
    missing = []
    for module, attr, _ in tracing.FUNCTIONS + tracing.GENERATORS:
        if not callable(getattr(importlib.import_module(module), attr, None)):
            missing.append(f"{module}.{attr}")
    for module, cls_name, attr, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(module), cls_name, None)
        if not callable(getattr(cls, attr, None)):
            missing.append(f"{module}.{cls_name}.{attr}")
    assert not missing, f"names the tracer wraps are gone: {missing}"
