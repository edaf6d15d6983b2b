"""One OpenBLAS thread for the process, unless the user chose a thread count.

A threaded GEMM splits its columns by their count, so its bits, and the
CLI's bytes, may follow the thread count.  At import, when none of
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS is set, every
OpenBLAS mapped into the process (on Linux, from /proc/self/maps) is set
to one thread.  REPORT says what was done: each library's path with its
thread count before and after, or why nothing was (a variable is set, or
no OpenBLAS was found: another BLAS, or another platform).
"""

from __future__ import annotations

import ctypes
import os

import numpy  # noqa: F401  (maps numpy's OpenBLAS before it is looked for)

_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the thread-count functions of scipy-openblas, 64-bit-integer and plain builds
_NAMES = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)


def _pin() -> dict:
    chosen = [var for var in _VARIABLES if var in os.environ]
    if chosen:
        return {"pinned": [], "left_alone": f"{chosen[0]} is set"}
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps}
    except OSError:  # no /proc
        paths = set()
    pinned = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p).lower()):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a path that does not load as read (it holds a space)
            continue
        name = next((n for n in _NAMES if hasattr(lib, n.format("get"))), None)
        if name is None or not hasattr(lib, name.format("set")):
            continue
        get, put = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        before = get()
        put(1)
        pinned.append({"library": path, "threads_before": before, "threads_after": get()})
    return {"pinned": pinned} if pinned else {"pinned": [], "left_alone": "no OpenBLAS found"}


REPORT = _pin()
