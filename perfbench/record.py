"""Record a baseline: every end-to-end metric on every workload over several
seeds, one traced run per workload, and the machine and library versions.

    python3 perfbench/record.py --out perfbench/baseline.json

Run from the root of a source checkout.  It runs seeds 1 to 10 for
``run_seconds`` (BENCHMARK.json) each.  For each metric it stores the value
of every run, the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread (quartile distance over the median) next to the metric's bound in
BENCHMARK.json, the failing operations by signature, and the known-defect
census (the same fixed inputs in every run; the last seed's is kept).
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

import run
import workloads


SEEDS = list(range(1, 11))


def _summary(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "bound": bound}


def _versions() -> dict:
    code = ("import json, sys, numpy, scipy; print(json.dumps({'python': sys.version.split()[0], "
            "'numpy': numpy.__version__, 'scipy': scipy.__version__}))")
    out = subprocess.run([sys.executable, "-c", code], env=workloads.worker_env(run.ROOT),
                         capture_output=True, text=True, check=True, timeout=120).stdout
    return json.loads(out)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = float(spec["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    env = workloads.worker_env(run.ROOT)
    record: dict = {
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": {"nproc": os.cpu_count(), "platform": platform.platform(),
                    "processor": platform.processor() or platform.machine()},
        "versions": _versions(),
        "thread_env": {v: env[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                           "MKL_NUM_THREADS")},
        "run_seconds": seconds,
        "seeds": SEEDS,
        "workloads": {},
    }
    for w in workloads.WORKLOADS:
        values: dict[str, list[float]] = {}
        failures: dict[str, int] = {}
        attempted = failed = 0
        runs = []
        for seed in SEEDS:
            metrics, info = run.end_to_end(w, seed, seconds)
            print(w, seed, {k: round(v, 4) for k, v in metrics.items()}, flush=True)
            for k, v in metrics.items():
                values.setdefault(k, []).append(v)
            run._add_counts(failures, info["failures"])
            attempted += info["attempted"]
            failed += info["failed"]
            runs.append({"seed": seed, "correct": info["correct"], "tasks": info["tasks"],
                         "aborted": info["aborted"], "tail_percentile": info["tail_percentile"],
                         "attempted": info["attempted"], "failed": info["failed"],
                         "speed_probe_s": info["speed_probe_s"], "unscaled": info["unscaled"]})
        layers, _ = run.per_layer(w, SEEDS[0], seconds)
        record["workloads"][w] = {
            "end_to_end": {k: _summary(v, bounds[k]) for k, v in values.items()},
            "failed_frac": {"attempted": attempted, "failed": failed,
                            "value": failed / attempted, "by_signature": failures},
            "known_defect_census": info["census"],
            "runs": runs,
            "per_layer_seed": SEEDS[0],
            "per_layer": layers,
        }
        for k, s in record["workloads"][w]["end_to_end"].items():
            print(f"{w:<11} {k:<12} median {s['median']:.5g} spread {s['spread']:.4f} "
                  f"bound {s['bound']}", flush=True)
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
