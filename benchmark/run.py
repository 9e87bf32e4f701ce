"""Benchmark of the bca package: one command, three workloads.

    python3 benchmark/run.py --workload check --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.
The workloads (``check``, ``verdicts``, ``verify``) and the reason for
each are described in ``workloads.py``, the seeded inputs in
``corpus.py``.

The run has two parts, each in fresh child processes started one at a
time:

1. ``setup_s``: the median, over several interpreters, of the time from
   starting ``python3`` to ``import bca.cli`` being done (single spawns
   spread by about 12%, so one is not enough);
2. the workload, in one more process (``worker.py``), which measures
   the other end-to-end metrics (``--trace 0``) or the per-layer metrics
   of a traced run (``--trace 1``) and checks every output.

Every time is scaled to a nominal machine speed by the reference snippet
of ``reference.py``, which the run samples between operations (and
before and after each set-up spawn); raw wall times are printed too.
BLAS is held to one thread.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where ``attempted``
and ``failed`` count the timed operations.  Inputs on which the seed
shows a documented defect run once, untimed, in a probe whose failures
are listed by input name (see ``workloads.known``).  ``correct`` is false
when a timed operation fails or the probe shows a failure that is not
one of those defects.  Input files and span dumps go to ``.bench_out/``
in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_SPAWNS = 11
WORKER_TIMEOUT_S = 170
IMPORT_PROBE = "import sys, bca.cli; sys.stdout.write(bca.cli.__file__ + '\\n'); sys.stdout.flush()"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def import_time(env: dict) -> tuple[float, float]:
    """Seconds from spawning an interpreter to ``import bca.cli`` done, as
    wall time and scaled by the reference snippet timed before and after."""
    before = [reference.snippet() for _ in range(3)]
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = child.communicate()
    if child.returncode != 0 or not line.startswith(SRC + os.sep):
        raise RuntimeError(f"import bca.cli failed or came from outside {SRC}: {line.strip()} {err.strip()}")
    after = [reference.snippet() for _ in range(3)]
    return elapsed, elapsed * reference.NOMINAL_S / statistics.median(before + after)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bca benchmark")
    parser.add_argument("--workload", choices=("check", "verdicts", "verify"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bca", "__init__.py")):
        print(f"error: package source not found at {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    try:
        import_time(env)  # untimed: compiles the package's bytecode once
        setups = [import_time(env) for _ in range(SETUP_SPAWNS)]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", work,
        "--spans", os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"),
    ]
    try:
        worker = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"error: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = worker.stdout.splitlines()
    if worker.returncode != 0 or not lines:
        sys.stdout.write(worker.stdout)
        print(f"error: worker exited with code {worker.returncode}", file=sys.stderr)
        return 3
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if args.trace == 0:
        setup = statistics.median(scaled for _, scaled in setups)
        result["metrics"]["setup_s"] = {"value": setup, "unit": "s"}
        print(f"setup_s = {setup:.6g} s (median of {SETUP_SPAWNS} fresh interpreters, scaled: "
              + " ".join(f"{s:.4f}" for _, s in setups) + "; wall: "
              + " ".join(f"{w:.4f}" for w, _ in setups) + ")")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
