"""Benchmark entry point for wamalgam.

    python3 bench/run.py --workload axb-relation --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout. The library is not installed: each
worker process gets the checkout's absolute ``src`` directory on
``PYTHONPATH`` and BLAS/OpenMP thread counts capped at the usable CPU
count. With ``--trace 0`` the setup is measured in several fresh
processes and the passes in one more; with ``--trace 1`` one process
alternates plain and traced passes. Reports go to a temporary directory
under ``.bench_out/`` that is removed at the end; the spans of a traced
run are kept there as ``trace-<workload>-seed<n>.jsonl``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units are
those of ``BENCHMARK.json``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def environment_record():
    """Machine and toolchain facts printed with every run."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "commit": commit}


def child_env(nproc):
    env = dict(os.environ)
    src = str(ROOT / "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    for var in THREAD_VARS:
        env[var] = str(nproc)
    return env


def run_worker(args, env, tmp, mode, deadline, spans_out=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, "--mode", mode,
           "--tmp", str(tmp)]
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise SystemExit("out of time before the worker could start")
    # run() kills the worker on timeout and waits for it before raising
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"worker ({mode}) exited with status {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the self-test smoke size")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # turn SIGTERM into an exception, so that the running worker is killed
    # and waited for and the temporary directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "wamalgam" / "__init__.py").is_file():
        print(f"no wamalgam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    env_record = environment_record()
    env = child_env(env_record["nproc"])
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    try:
        if args.trace:
            spans_out = out_root / f"trace-{args.workload}-seed{args.seed}.jsonl"
            result = run_worker(args, env, tmp, "run", deadline, spans_out)
            setups = [result["setup_s"]]
        else:
            setups = [run_worker(args, env, tmp, "setup", deadline)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            result = run_worker(args, env, tmp, "run", deadline)
            setups.append(result["setup_s"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    env_record["numpy"] = result["numpy"]
    print("env " + json.dumps(env_record, sort_keys=True))
    print(f"{args.workload} seed {args.seed}: passes "
          + ", ".join(f"{t:.3f}" for t in result["passes"])
          + (" | traced " + ", ".join(f"{t:.3f}" for t in result["traced_passes"])
             if args.trace else
             " | reference kernel ms " + ", ".join(f"{1e3 * t:.3f}"
                                                   for t in result["kernel_s"]))
          + " | setups " + ", ".join(f"{t:.3f}" for t in setups))
    for failure in result["failures"]:
        print("FAILED " + failure)

    attempted, failed = result["attempted"], result["failed"]
    measured = {
        "wall_ref": result["wall_ref"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": (attempted - failed) / attempted,
    }
    if args.trace:
        measured = result["per_layer"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
