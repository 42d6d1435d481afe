"""qglattice benchmark: one command, standard library only.

    python3 perfbench/run.py --workload sheets|claims|membership|cli|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it loads the library from ``src/``).
Each workload runs in fresh worker processes, one closed-loop caller, no
threads.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
See README.md in this directory for what each workload and metric means.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SEGMENTS = 4
FRESH_SAMPLES = 3
RUN_TIMEOUT = 170.0    # seconds a workload's workers may take in all
# Times are scaled to a machine on which workloads.speed_probe takes this
# long, about the fast state of the machine the baseline was recorded on;
# see end_to_end.
SPEED_PROBE_REF_S = 2.0e-3

# Fixed per workload, so that the metric means the same thing on a faster
# commit: about the highest percentile with at least ten tasks beyond it in
# the slowest baseline run.  A run with too few tasks for it falls back to
# the highest percentile that still has ten beyond, and says so.
TAIL_PERCENTILE = {"sheets": 85, "claims": 70, "membership": 98, "cli": 70}


def _spawn_worker(workload: str, seed: int, seconds: float, trace: int,
                  first_block: int = 0, spans: str | None = None, census: bool = False):
    """Start a worker; return (process, seconds from spawn to its READY line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--first-block", str(first_block)]
    if spans:
        cmd += ["--spans", spans]
    if census:
        cmd.append("--census")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=workloads.worker_env(ROOT),
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker for {workload} failed during set-up")
    return proc, ready


def _finish(proc, deadline: float) -> dict:
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    lines = [l for l in out.splitlines() if l.startswith("RESULT ")]
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1][len("RESULT "):])


def _fresh(code: str) -> float:
    """Seconds from spawning ``python3 -c code`` until it exits.

    The exit is awaited on a pidfd: ``Popen.wait`` with a timeout polls in
    sleeps that grow to 50 ms, which would round the figure up to a step."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                            env=workloads.worker_env(ROOT))
    fd = os.pidfd_open(proc.pid)
    try:
        exited = select.select([fd], [], [], 120.0)[0]
    finally:
        os.close(fd)
    elapsed = time.perf_counter() - t0
    if not exited:
        proc.kill()
    if proc.wait() != 0 or not exited:
        raise RuntimeError(f"python3 -c {code!r} failed")
    return elapsed


def _fresh_reported(code: str) -> float:
    """A duration that a fresh ``python3 -c code`` measures and prints itself."""
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=workloads.worker_env(ROOT),
                         check=True, timeout=120, capture_output=True, text=True).stdout
    return float(out.strip().splitlines()[-1])


def tail(latencies: list[float], percentile: int) -> tuple[float, float]:
    """Nearest-rank percentile with at least ten tasks beyond it (never below p50)."""
    n = len(latencies)
    ordered = sorted(latencies)
    rank = math.ceil(percentile / 100.0 * n)
    if n - rank < 10:
        rank = max(n // 2 + 1, n - 10)
        percentile = 100.0 * rank / n
    return ordered[rank - 1], percentile


def _add_counts(total: dict[str, int], more: dict[str, int]) -> None:
    for k, v in more.items():
        total[k] = total.get(k, 0) + v


def _time_metrics(setups, tasks, percentile: int) -> tuple[dict, float]:
    """The time metrics from (seconds, probe) set-ups and (seconds, probe,
    completed) tasks; also the tail percentile used."""
    lat = [t for t, _, completed in tasks if completed]
    tail_s, pct = tail(lat, percentile)
    return {
        "setup_s": statistics.median(t for t, _ in setups),
        "tasks_per_s": len(lat) / sum(t for t, _, _ in tasks),
        "task_p50_s": statistics.median(lat),
        "task_tail_s": tail_s,
    }, pct


def _scaled(seconds: float, probe: float) -> float:
    return seconds * SPEED_PROBE_REF_S / probe


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The timed phase is split over SEGMENTS fresh workers that carry on one
    task stream, each until the run's measured time reaches its share
    (at least one block each).  Every worker's set-up is one set-up sample, so
    the samples are spread over the whole run; the last worker runs the
    known-defect census after its timed phase.  For ``cli``, whose worker does
    not import the library, a fresh ``import qglattice.cli`` is timed before
    each segment instead.

    The machine the benchmark runs on may be shared, and then runs up to
    twice as slow for seconds to minutes.  So each task time and each set-up
    time is scaled by SPEED_PROBE_REF_S over the speed probe taken right
    after it; the unscaled figures are printed too."""
    setups: list[tuple[float, float]] = []
    tasks: list[tuple[float, float, bool]] = []
    info: dict = {"attempted": 0, "failed": 0, "correct": True, "failures": {},
                  "unexpected": [], "maxrss_kb": 0}
    block = 0
    deadline = time.monotonic() + RUN_TIMEOUT
    for segment in range(1, SEGMENTS + 1):
        if workload == "cli":
            setup_s = _fresh("import qglattice.cli")
            setups.append((setup_s, statistics.median(workloads.speed_probe() for _ in range(3))))
        share = max(seconds * segment / SEGMENTS - sum(t for t, _, _ in tasks), 1e-9)
        proc, ready = _spawn_worker(workload, seed, share, 0, first_block=block,
                                    census=segment == SEGMENTS)
        res = _finish(proc, deadline)
        if res["census"] is not None:
            info["census"] = res["census"]
        if workload != "cli":
            setups.append((ready, res["setup_probe_s"]))
        block += res["blocks"]
        tasks += [tuple(t) for t in res["tasks"]]
        info["unexpected"] = (info["unexpected"] + res["unexpected"])[:20]
        for key in ("attempted", "failed"):
            info[key] += res[key]
        _add_counts(info["failures"], res["failures"])
        info["correct"] &= res["correct"]
        info["maxrss_kb"] = max(info["maxrss_kb"], res["maxrss_kb"])
    unscaled, pct = _time_metrics(setups, tasks, TAIL_PERCENTILE[workload])
    metrics, _ = _time_metrics([(_scaled(t, p), p) for t, p in setups],
                               [(_scaled(t, p), p, done) for t, p, done in tasks],
                               TAIL_PERCENTILE[workload])
    metrics["peak_rss_mb"] = info["maxrss_kb"] / 1024.0
    completed = sum(done for _, _, done in tasks)
    notes = {
        "tasks": completed,
        "aborted": len(tasks) - completed,
        "tail_percentile": pct,
        "failed_frac": info["failed"] / info["attempted"],
        "setup_samples": len(setups),
        "speed_probe_s": statistics.median(p for _, p, _ in tasks),
        "unscaled": unscaled,
    }
    return metrics, {**info, **notes}


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    out_dir = ROOT / ".perfbench_runs"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{workload}-seed{seed}.csv"
    proc, _ = _spawn_worker(workload, seed, seconds, 1, spans=str(spans))
    res = _finish(proc, time.monotonic() + RUN_TIMEOUT)
    interp = statistics.median(_fresh("pass") for _ in range(FRESH_SAMPLES))
    startup = statistics.median(_fresh("import qglattice.cli") for _ in range(FRESH_SAMPLES))
    scipy_opt = statistics.median(_fresh_reported(
        "import time, numpy; t = time.perf_counter(); import scipy.optimize; "
        "print(time.perf_counter() - t)") for _ in range(FRESH_SAMPLES))
    metrics = {
        "setup.interpreter_s": interp,
        "setup.import_qglattice_s": res["setup"]["import_qglattice_s"],
        "lattice.param_range.first_call_s": res["setup"]["param_range_first_call_s"],
        "setup.import_scipy_optimize_s": scipy_opt,
        "cli.startup_s": startup,
        **res["per_layer"],
    }
    return metrics, {**res, "spans_file": str(spans.relative_to(ROOT))}


def _report(workload: str, metrics: dict, info: dict, trace: int, units: dict) -> None:
    print(f"== {workload}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:.6g} {units[name]}")
    if not trace:
        print(f"  {'failed_frac':<44} {info['failed_frac']:.6g} ratio "
              f"({info['failed']} of {info['attempted']} operations failed)")
        print(f"  task_tail_s is p{info['tail_percentile']:.4g} of {info['tasks']} completed "
              f"tasks ({info['aborted']} aborted); "
              f"setup_s is the median of {info['setup_samples']} set-ups, one per segment")
        print(f"  each time is scaled by {SPEED_PROBE_REF_S:g} s over the speed probe after it "
              f"(median probe {info['speed_probe_s']:.6g} s); unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in info["unscaled"].items()))
    else:
        print(f"  spans written to {info['spans_file']}")
    for sig, count in sorted(info["failures"].items()):
        print(f"  failure {sig}: {count} (UNEXPECTED)")
    census = info["census"]
    if census["shows"]:
        print(f"  known-defect census (fixed inputs, untimed, not in the counts above): "
              f"{census['failed']} of {census['attempted']} operations failed")
        for name, shows in census["shows"].items():
            print(f"  known defect {name}: {'shows' if shows else 'no longer shows'}")
        for sig, count in sorted(census["failures"].items()):
            print(f"  census failure {sig}: {count}")
    for msg in info["unexpected"] + census["unexpected"]:
        print(f"  unexpected: {msg}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured task time per workload (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "qglattice" / "__init__.py").is_file():
        print("run from the root of a qglattice checkout: src/qglattice is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    seconds = float(spec["run_seconds"]) if args.seconds is None else args.seconds

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in names:
            measure = per_layer if args.trace else end_to_end
            metrics, info = measure(workload, args.seed, seconds)
            if set(metrics) != set(units):
                raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                                   "do not match BENCHMARK.json")
            _report(workload, metrics, info, args.trace, units)
            summary["correct"] &= info["correct"]
            summary["attempted"] += info["attempted"]
            summary["failed"] += info["failed"]
            prefix = "" if len(names) == 1 else f"{workload}."
            for name, value in metrics.items():
                summary["metrics"][prefix + name] = {"value": value, "unit": units[name]}
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
