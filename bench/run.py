"""Benchmark of hemiradon's reconstruction and norm-estimate workloads.

    python3 bench/run.py --workload recon2d --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Each workload runs in fresh processes
(``worker.py``) that import ``hemiradon`` from the checkout's ``src`` with
BLAS and OpenMP pinned to one thread. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics: ``wall_s`` (median time of one
timed pass), ``setup_s`` (median over three fresh processes of the time from
process start to the first timed pass), ``peak_rss_mb`` and
``max_rel_err``. --trace 1 runs a fixed number of traced passes and
reports the per-layer metrics. Every run also writes its raw record (pass
times, output digests, metrics) to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("recon2d", "recon3d", "estimates")
SETUPS = 3             # processes whose set-up time is measured per run
DEADLINE_S = 170.0     # every process of one run ends within this

#: Thread pools pinned to one thread; with two, a 2-D sonar point on a
#: 2-core machine ran slower and less steadily (see README).
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # write no __pycache__ into the checkout
    "PYTHONDONTWRITEBYTECODE": "1",
}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update(PINNED_ENV)
    path = [SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def run_worker(args, deadline, setup_only=False):
    """Start worker.py, wait for it, return (its JSON record, its start time)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {remaining:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1]), t_spawn


def check_checkout():
    init = os.path.join(SRC, "hemiradon", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError(f"no hemiradon sources at {init}; run from a checkout")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    deadline = time.monotonic() + DEADLINE_S
    try:
        check_checkout()
        setups = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                rec, t_spawn = run_worker(args, deadline, setup_only=True)
                setups.append(rec["t_first"] - t_spawn)
        rec, t_spawn = run_worker(args, deadline)
        setups.append(rec["t_first"] - t_spawn)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = rec["layers"]
    else:
        metrics = {
            "wall_s": {"value": statistics.median(rec["pass_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
            "max_rel_err": {"value": rec["max_rel_err"], "unit": "rel"},
        }
    result = {"correct": rec["failed"] == 0 and rec["attempted"] > 0,
              "attempted": rec["attempted"], "failed": rec["failed"], "metrics": metrics}

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump({"args": vars(args), "setups_s": setups, "record": rec, "result": result},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
