#!/usr/bin/env python3
"""Self-test of coredis-bench's traced run.

For every workload it runs one traced pass and asserts that

  1. the traced layer self-times add up to the traced end-to-end time
     within the tolerance the benchmark states (trace.layer_sum_tolerance);
  2. the largest layer is the one the workload is built to stress:
     Algorithm 1 on cold_hetero, scans plus dispatch on wide_faulty and
     the serve request path (parse, lease, evaluate, render) on
     serve_mix;
  3. trace.overhead_frac is reported;

and, on cold_hetero, that Algorithm 1's share of one cold
IteratedGreedy+EndLocal run of an n=1000, p=10000 cell lies in the
65-86% band `coredis_sim --profile` shows, widened by ALG1_TOLERANCE.

    python3 coredis_bench/selftest.py [--seed N] [--seconds S]

Run it from the root of the checkout; it exits non-zero on a failure.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
INTENDED = {
    "cold_hetero": "core.alg1",
    "wide_faulty": "core.scan_dispatch",
    "serve_mix": "serve",
}
ALG1_BAND = (0.65, 0.86)
ALG1_TOLERANCE = 0.15


def traced(workload, seed, seconds):
    run = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        stdout=subprocess.PIPE, check=False, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload}: traced run failed ({run.returncode})")
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    options = parser.parse_args()

    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload, layer in INTENDED.items():
        context, result = traced(workload, options.seed, options.seconds)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        tolerance = context["trace.layer_sum_tolerance"]
        covered = metrics["trace.layer_sum_frac"]
        check(result["correct"], f"{workload}: outputs match their references")
        check(1.0 - tolerance <= covered <= 1.0 + 1e-9,
              f"{workload}: layers cover {covered:.4f} of the traced end-to-end "
              f"time (tolerance {tolerance})")
        check(context["trace.top_layer"] == layer,
              f"{workload}: largest layer {context['trace.top_layer']} "
              f"({metrics['trace.top_share']:.3f}), intended {layer}")
        check("trace.overhead_frac" in metrics,
              f"{workload}: trace.overhead_frac = "
              f"{metrics.get('trace.overhead_frac')}")
        if workload == "cold_hetero":
            share = metrics["core.alg1.cold_run_share"]
            low, high = ALG1_BAND
            check(low - ALG1_TOLERANCE <= share <= high + ALG1_TOLERANCE,
                  f"{workload}: Algorithm 1 takes {share:.3f} of a cold IG+EndLocal "
                  f"run (band {low}-{high} +/- {ALG1_TOLERANCE})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
