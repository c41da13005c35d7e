"""One workload in one process: set up, warm up, run timed passes, report.

Started by run.py, which pins the thread pools and puts the checkout's
``src`` on PYTHONPATH. Prints one JSON object as its last line. With
``--setup-only`` it stops where the first timed pass would start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback

import numpy as np

from tracing import Tracer
from workloads import KINDS, WORKLOADS

#: Passes of a traced run. Fixed, so its counts repeat exactly for a seed.
TRACE_PASSES = {"recon2d": 2, "recon3d": 1, "estimates": 3}


def run_pass(workload, i, summary):
    """Run pass ``i``; fold its operations into ``summary``. Returns its digest."""
    digest = hashlib.sha256()
    for name, op in workload.pass_ops(i):
        summary["attempted"] += 1
        try:
            res = op()
        except Exception:
            summary["failed"] += 1
            print(f"pass {i} {name} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            continue
        digest.update(np.ascontiguousarray(res.outputs, dtype=float).tobytes())
        if not res.ok:
            summary["failed"] += 1
            print(f"pass {i} {name} missed its check: rel err {res.rel_err}", file=sys.stderr)
        elif res.rel_err is not None:
            worst = summary["rel_err_by_op"]
            worst[name] = max(worst.get(name, 0.0), res.rel_err)
    return digest.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, tracer)
    workload.warm_up()
    t_first = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_first": t_first}))
        return 0

    summary = {"attempted": 0, "failed": 0, "rel_err_by_op": {}}
    pass_s, digests = [], []

    def timed_pass(i):
        t0 = time.perf_counter()
        digests.append(run_pass(workload, i, summary))
        pass_s.append(time.perf_counter() - t0)

    if tracer is not None:
        with tracer.patched():
            tracer.recording = True
            for i in range(TRACE_PASSES[args.workload]):
                timed_pass(i)
            tracer.recording = False
    else:
        start = time.perf_counter()
        while not pass_s or time.perf_counter() - start < args.seconds:
            timed_pass(len(pass_s))

    out = {
        "t_first": t_first,
        "pass_s": pass_s,
        "digests": digests,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "max_rel_err": max(summary["rel_err_by_op"].values(), default=0.0),
        "rel_err_by_op": summary["rel_err_by_op"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        layers = tracer.layer_metrics(KINDS)
        # estimates runs no inversion: both layers idle
        bp_err, lap_err = 0.0, 0.0
        if hasattr(workload, "layer_errors"):
            bp_err, lap_err = workload.layer_errors(tracer, len(pass_s))
        layers["inversion.bp_max_rel_err"] = (bp_err, "rel")
        layers["inversion.lap_rel_err"] = (lap_err, "rel")
        out["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
