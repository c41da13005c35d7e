"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 bench/spread.py --workload recon2d --seeds 1-10 [--seconds 20]

Runs ``run.py`` once per seed, one run at a time, and prints for each
end-to-end metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json. With ``--trace`` it instead
runs traced, and checks each traced run's per-pass output digests against
the untraced run of the same seed found in ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def record(workload, seed, trace):
    with open(os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        return json.load(fh)["record"]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]

    results = {}
    for seed in args.seeds:
        res = run(args.workload, seed, seconds, int(args.trace))
        results[seed] = res
        print(f"seed {seed}: attempted {res['attempted']} failed {res['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                         if not args.trace), flush=True)

    if args.trace:
        for seed in args.seeds:
            traced = record(args.workload, seed, 1)["digests"]
            try:
                plain = record(args.workload, seed, 0)["digests"]
            except FileNotFoundError:
                print(f"seed {seed}: no untraced record to compare")
                continue
            common = min(len(traced), len(plain))
            same = traced[:common] == plain[:common]
            print(f"seed {seed}: {common} passes compared, outputs "
                  f"{'bit-identical' if same else 'DIFFER'}")
        return 0

    shares = {res["failed"] / res["attempted"] for res in results.values()}
    print(f"failed share per run: {sorted(shares)}")
    for m in spec["end_to_end"]:
        vals = [res["metrics"][m["name"]]["value"] for res in results.values()]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{m['name']:12s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {(q3 - q1) / med:.4f} bound {m['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
