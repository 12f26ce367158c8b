"""Print numpy and BLAS facts as one JSON line.

    python3 perfbench/envinfo.py <src dir>

Importing ``smpkit.cli`` here also compiles the package's bytecode before
any timed invocation.
"""

import ctypes
import glob
import json
import os
import sys

sys.path.insert(0, sys.argv[1])

import numpy as np  # noqa: E402
import smpkit.cli  # noqa: E402,F401


def openblas_threads():
    """Thread count the bundled OpenBLAS will use, or None if not found."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"numpy": np.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}",
                  "blas_threads": openblas_threads()}))
