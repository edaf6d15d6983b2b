"""qwclock benchmark: one CLI workload per run, timed from outside.

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, traced and not

A run starts fresh worker processes one after another for ``--seconds``
seconds.  Each worker imports qwclock from ``src/`` of the checkout that
holds this file and makes one ``qwclock.cli.main(argv)`` call, as a user's
CLI run does (cold lru caches, a fresh heap); the timer covers ``main``
only.  Every CSV is then checked, untimed.  With ``--trace 0`` the
run reports the end-to-end metrics named in BENCHMARK.json; with
``--trace 1`` it alternates untraced and traced workers and reports the
per-layer metrics from the spans.  The last line of standard output is one
JSON object.  Files go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
MIN_CALLS = 3  # per run, so that no figure rests on one call
BLAS_THREADS = 1  # one runnable thread per worker; the parent only waits
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# worker.calibrate's loop time at the reference host speed (a 2.1 GHz Xeon
# vCPU in a quiet spell); reported times are scaled to that speed
CALIB_REF_S = 0.013


@dataclass
class Op:
    """One cli.main call in its own worker process."""

    argv: list
    traced: bool
    seconds: float  # the whole worker process, start to exit
    result: dict
    text: str
    problems: tuple = ()

    @property
    def failed(self) -> bool:
        return self.result["rc"] != 0 or bool(self.problems)


def git_commit() -> str:
    """Commit of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "calib_ref_s": CALIB_REF_S,
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
        "default_seed": DEFAULT_SEED,
    }


def call(workload: str, argv: list, trace: bool) -> Op:
    """Run one worker process and collect its result and CSV."""
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{workload}-{os.getpid()}.csv"
    out.unlink(missing_ok=True)
    job = {"src": str(SRC), "argv": argv, "out": str(out), "trace": trace, "workload": workload}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                          capture_output=True, text=True, timeout=600)
    seconds = time.perf_counter() - start
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"rc": None, "error": f"worker exited {done.returncode}: {done.stderr[-2000:]}"}
    else:
        if Path(result["qwclock"]).resolve().parent != SRC / "qwclock":
            result["rc"], result["error"] = None, f"qwclock imported from {result['qwclock']}"
    text = out.read_text() if out.is_file() else ""
    out.unlink(missing_ok=True)
    return Op(argv, trace, seconds, result, text)


def run_workload(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list, dict]:
    """Worker calls of one workload for ``seconds``, then their checks.

    Returns the metrics, the operations (an untimed oracle-check preflight
    first) and the trace details.  Traced runs alternate untraced and traced
    workers.
    """
    preflight = call(workload.name, ["oracle-check"], False)
    params = workload.params(seed)
    argv = workload.argv(params)
    ops = []
    start = time.perf_counter()
    # start a worker only if it is expected to end within the run's seconds
    while len(ops) < MIN_CALLS or (
        time.perf_counter() - start + statistics.fmean(op.seconds for op in ops) <= seconds
    ):
        ops.append(call(workload.name, argv, trace and len(ops) % 2 == 1))

    ref = None
    for op in ops:
        if op.result["rc"] == 0:
            problems, ref = workload.check(params, op.text, ref)
            op.problems = tuple(problems)
    if preflight.result["rc"] != 0:
        preflight.problems = ("oracle-check failed",)

    plain = [op.result for op in ops if not op.traced and "wall_s" in op.result]
    # On a shared host, other tenants change the speed of every call by up to
    # a third for minutes at a time, so each time is scaled by the calibration
    # loop timed in the same worker.  The raw medians are kept beside them.
    metrics = {key: statistics.median(r[key] for r in plain) for key in ("peak_rss_mb", "calib_s")}
    for key in ("wall_s", "setup_s"):
        metrics[key] = statistics.median(r[key] * CALIB_REF_S / r["calib_s"] for r in plain)
        metrics[key.replace("_s", "_raw_s")] = statistics.median(r[key] for r in plain)
    details = {"params": params, "argv": argv}
    if trace:
        per_op, spans = [], []
        for index, op in enumerate(ops):
            if op.traced and "layers" in op.result:
                m = dict(op.result["layers"])
                m["cli.rows"] = float(max(op.text.count("\n") - 1, 0))
                m["cli.bytes"] = float(len(op.text.encode()))
                m["trace.wall_s"] = op.result["wall_s"]
                per_op.append(m)
                spans += [s + [index, workload.name] for s in op.result["spans"]]
        metrics.update({k: statistics.median(m[k] for m in per_op) for k in per_op[0]})
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["wall_raw_s"]
        details |= {"per_op": per_op, "spans": spans}
    return metrics, [preflight] + ops, details


def select(names_units, metrics: dict) -> dict:
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names_units}


def run_one(args, bench: dict) -> int:
    import scenarios

    workload = scenarios.WORKLOADS[args.workload]
    why = next(w["why"] for w in bench["workloads"] if w["name"] == workload.name)
    metrics, ops, details = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    failed = sum(op.failed for op in ops)
    record = {
        "workload": workload.name, "why": why, "hot_layer": workload.hot_layer,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "argv": details["argv"], "params": details["params"], "environment": environment(),
        "metrics": metrics,
        "ops": [{"argv": op.argv, "traced": op.traced, "process_s": op.seconds,
                 "problems": list(op.problems),
                 **{k: v for k, v in op.result.items() if k not in ("layers", "spans")}}
                for op in ops],
    }
    for op in ops:
        for problem in op.problems:
            print(f"check failed: {' '.join(op.argv)}: {problem}")
        if op.result.get("error"):
            print(op.result["error"], end="")

    print(f"workload {workload.name}  seed {args.seed}  qwclock {' '.join(details['argv'])}")
    print(f"  blas_threads {BLAS_THREADS}  calls {len(ops) - 1} (+1 oracle-check preflight)")
    if args.trace:
        record["per_op"] = details["per_op"]
        record["spans"] = details["spans"]  # [id, name, start, end, parent, op, workload]
        for layer in layers.REPORTED_LAYERS:
            print(f"  {layer + '.self_s':<22} {metrics[layer + '.self_s']:.4f} s")
        hot = workload.hot_layer + ".s"
        print(f"  {hot + ' share':<22} {metrics[hot] / metrics['trace.wall_s']:.4f}")
        print(f"  {'trace.coverage':<22} {metrics['trace.coverage']:.4f}")
        print(f"  {'trace.overhead_s':<22} {metrics['trace.overhead_s']:.4f} s")
        result_metrics = select(bench["per_layer"], metrics)
    else:
        result_metrics = select(bench["end_to_end"], metrics)
    calls = sum(not op.traced for op in ops[1:])
    for key in ("wall_s", "setup_s"):
        raw = metrics[key.replace("_s", "_raw_s")]
        print(f"  {key:<22} {metrics[key]:.4f} s (median of {calls}; unscaled {raw:.4f} s)")
    print(f"  {'calib_s':<22} {metrics['calib_s']:.4f} s (reference {CALIB_REF_S} s)")
    print(f"  {'peak_rss_mb':<22} {metrics['peak_rss_mb']:.1f} MB")
    print(f"  {'fail_ratio':<22} {failed / len(ops):.4f} ({failed}/{len(ops)})")
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(f"  record {OUT.name}/{name}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": result_metrics}))
    return 0


def run_all(args, bench: dict) -> int:
    """Every workload, untraced then traced."""
    rows = []
    for name in [w["name"] for w in bench["workloads"]]:
        result = {}
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                print(f"error: {name} --trace {trace} exited {done.returncode}", file=sys.stderr)
                return 1
            result[trace] = json.loads(done.stdout.strip().splitlines()[-1])
        rows.append((name, result))
    print()
    print(f"{'workload':<14} {'wall_s [s]':>11} {'setup_s [s]':>12} {'peak_rss_mb [MB]':>17} "
          f"{'fail_ratio':>11} {'coverage':>9} {'trace_overhead_s [s]':>21}")
    ok = True
    for name, result in rows:
        e2e, traced = result[0]["metrics"], result[1]["metrics"]
        failed = result[0]["failed"] + result[1]["failed"]
        attempted = result[0]["attempted"] + result[1]["attempted"]
        ok = ok and result[0]["correct"] and result[1]["correct"]
        print(f"{name:<14} {e2e['wall_s']['value']:>11.4f} {e2e['setup_s']['value']:>12.4f} "
              f"{e2e['peak_rss_mb']['value']:>17.1f} {failed / attempted:>11.4f} "
              f"{traced['trace.coverage']['value']:>9.4f} "
              f"{traced['trace.overhead_s']['value']:>21.4f}")
    return 0 if ok else 1


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qwclock" / "__init__.py").is_file():
        print(f"error: no qwclock sources under {SRC}", file=sys.stderr)
        return 2
    # inherited by every worker; BLAS reads it when numpy is first imported
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        return run_all(args, bench)
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
