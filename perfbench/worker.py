"""One CLI call in a fresh process, as a user runs it.

    python3 perfbench/worker.py '{"src": ..., "argv": [...], "out": ..., "trace": 0, "workload": ...}'

Times the import of qwclock plus building the CLI parser (``setup_s``), then
one ``qwclock.cli.main(argv + ["--out", out])`` call (``wall_s``), and reads
the process's peak RSS.  A fixed pure-Python loop is timed first, before
any qwclock code is loaded (``calib_s``), so that the host's speed at the
time can be divided out.  With ``trace`` set, the call runs with spans
installed.  Prints one JSON object on its last line.
"""

from __future__ import annotations

import contextlib
import json
import resource
import statistics
import sys
import time
import traceback

CALIB_LOOPS = 200_000
CALIB_REPS = 10


def calibrate() -> float:
    """Median seconds of a fixed integer loop that involves no qwclock code."""
    times = []
    for _ in range(CALIB_REPS):
        start = time.perf_counter()
        total = 0
        for i in range(CALIB_LOOPS):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    job = json.loads(sys.argv[1])
    calib = calibrate()
    start = time.perf_counter()
    sys.path.insert(0, job["src"])
    import qwclock.cli

    qwclock.cli.build_parser()
    setup = time.perf_counter() - start

    spans = contextlib.nullcontext()
    if job["trace"]:
        import layers

        mods = layers.modules()
        tracer = layers.tracer(job["workload"], mods)
        spans = tracer.installed(mods, "qwclock")
    error = ""
    with spans:
        start = time.perf_counter()
        try:
            rc = qwclock.cli.main(job["argv"] + ["--out", job["out"]])
        except SystemExit as exc:  # argparse rejected the flags
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an operation that raises is a failed operation
            rc, error = None, traceback.format_exc()
        wall = time.perf_counter() - start

    result = {
        "setup_s": setup,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calib_s": calib,
        "rc": rc,
        "error": error,
        "qwclock": qwclock.__file__,
    }
    if job["trace"]:
        result["layers"] = layers.op_metrics(tracer.spans, tracer.counters[0])
        result["spans"] = [[s.id, s.name, s.start, s.end, s.parent] for s in tracer.spans]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
