import os
import subprocess
import sys
from pathlib import Path

import qwclock as qc

_BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_PACKAGE_ROOT = str(Path(qc.__file__).parents[1])


def _run(code_or_argv, **variables):
    """Run python with no BLAS thread variable set beyond the given ones."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARIABLES}
    env |= {"PYTHONPATH": _PACKAGE_ROOT, **variables}
    result = subprocess.run(
        [sys.executable, *code_or_argv], capture_output=True, text=True, timeout=120, env=env
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_default_threads_give_the_one_thread_bytes():
    """With no BLAS variable set, import pins OpenBLAS to one thread, so the
    GEMM path prints the bytes of OPENBLAS_NUM_THREADS=1.  On a one-CPU host
    both runs have one thread, and this holds trivially."""
    argv = ["-m", "qwclock.cli", "bloch", "--mu", "7", "--s", "129"]
    assert _run(argv) == _run(argv, OPENBLAS_NUM_THREADS="1")


_USER_SET = """
import ctypes
import os
import numpy

def openblas_threads():
    if not os.path.exists("/proc/self/maps"):  # no way to find the library
        return None
    paths = sorted({line.split()[-1] for line in open("/proc/self/maps") if "/" in line})
    for path in (p for p in paths if "openblas" in p.rsplit("/", 1)[-1].lower()):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                get = getattr(lib, name)
                get.argtypes, get.restype = [], ctypes.c_int
                return get()
    return None

before = openblas_threads()
import qwclock._blas
print(before, openblas_threads(), qwclock._blas.REPORT)
"""


def test_a_user_set_variable_leaves_the_thread_count_alone():
    before, after, report = _run(["-c", _USER_SET], OPENBLAS_NUM_THREADS="2").split(" ", 2)
    assert after == before
    assert "OPENBLAS_NUM_THREADS is set" in report
    # and with none set, every OpenBLAS found ends at one thread
    before, after, report = _run(["-c", _USER_SET]).split(" ", 2)
    assert after in ("1", "None")
    assert ("'threads_after': 1" in report) == (after == "1")
