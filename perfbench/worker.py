"""One fresh worker process of the benchmark.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 [--first-block B]
        [--census]

The worker imports qglattice, makes the workload's warm-up calls and prints
``READY``; the parent times set-up from spawning the process to that line.
It then times three speed probes (``workloads.speed_probe``) for scaling that
set-up time, runs the timed phase from block B of the task stream, then (with
``--census``, and always when traced) the untimed known-defect census, and
prints one ``RESULT <json>`` line.  The ``cli`` workload without tracing never imports
the library here: its tasks are fresh CLI processes.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()


def _per_layer(tracer, latencies_untraced, latencies_traced, extra_untraced,
               extra_traced, stdout_bytes, census_oracle_failed: int = 0) -> dict[str, float]:
    """Per-layer metrics, each per traced task (aborted tasks included), but
    for the oracle's failed calls: a count over the traced tasks and the census."""
    tot = tracer.totals()
    n = max(1, len(latencies_traced) + extra_traced["aborted"])

    def get(name: str, key: str) -> float:
        return tot.get(name, {}).get(key, 0)

    roots = get("numerics.find_root", "calls")
    m = min(len(latencies_untraced), len(latencies_traced))
    base = sum(latencies_untraced[:m])
    return {
        "cli.main.self_s": get("cli.main", "self_s") / n,
        "cli.stdout_bytes": stdout_bytes / n,
        "numerics.find_root.calls": roots / n,
        "numerics.find_root.evals": tracer.evals / n,
        "numerics.find_root.evals_per_root": tracer.evals / roots if roots else 0.0,
        "numerics.find_root.self_s": get("numerics.find_root", "self_s") / n,
        "lattice.dispersion_sheets.self_s": get("lattice.dispersion_sheets", "self_s") / n,
        "lattice.dispersion_sheets.bloch_points": tracer.bloch_points / n,
        "lattice.dispersion_sheets.roots": tracer.sheet_roots / n,
        "lattice.degenerate_band_lengths.calls": get("lattice.degenerate_band_lengths", "calls") / n,
        "lattice.degenerate_band_lengths.self_s": get("lattice.degenerate_band_lengths", "self_s") / n,
        "lattice.spectral_infimum.calls": get("lattice.spectral_infimum", "calls") / n,
        "lattice.spectral_infimum.self_s": get("lattice.spectral_infimum", "self_s") / n,
        "verify.verify_square.s": get("verify.verify_square", "s") / n,
        "verify.verify_hexagonal.s": get("verify.verify_hexagonal", "s") / n,
        "verify.verify_inconsistencies.s": get("verify.verify_inconsistencies", "s") / n,
        "lattice.brillouin_membership_oracle.calls":
            get("lattice.brillouin_membership_oracle", "calls") / n,
        "lattice.brillouin_membership_oracle.self_s":
            get("lattice.brillouin_membership_oracle", "self_s") / n,
        "lattice.brillouin_membership_oracle.failed":
            tracer.failed.get("lattice.brillouin_membership_oracle", 0) + census_oracle_failed,
        "lattice.is_member.self_s": get("lattice.is_member", "self_s") / n,
        "lattice.band_structure.calls": get("lattice.band_structure", "calls") / n,
        "lattice.band_structure.self_s": get("lattice.band_structure", "self_s") / n,
        "lattice.secular_determinant.self_s": get("lattice.secular_determinant", "self_s") / n,
        "numerics.det_complex.self_s": get("numerics.det_complex", "self_s") / n,
        "star.bound_states.self_s": get("star.bound_states", "self_s") / n,
        "vertex.s_matrix.self_s": get("vertex.s_matrix", "self_s") / n,
        "trace.tasks": float(n),
        "trace.tasks_per_s_traced": len(latencies_traced) / extra_traced["measured_s"],
        "trace.tasks_per_s_untraced": len(latencies_untraced) / extra_untraced["measured_s"],
        "trace.overhead_ratio": sum(latencies_traced[:m]) / base if base else 0.0,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-block", type=int, default=0)
    ap.add_argument("--spans", default=None, help="where the traced run writes its spans")
    ap.add_argument("--census", action="store_true", help="run the known-defect census at the end")
    args = ap.parse_args()

    setup: dict[str, float] = {}
    in_process = args.trace or args.workload != "cli"
    if in_process:
        t0 = time.perf_counter()
        import qglattice  # noqa: F401  (timed: the package import itself)
        t1 = time.perf_counter()
        from qglattice import lattice
        lattice.param_range("hexagonal")
        t2 = time.perf_counter()
        setup = {"import_qglattice_s": t1 - t0, "param_range_first_call_s": t2 - t1}

    import workloads  # after the timed import, so numpy is charged to qglattice

    if in_process:
        workloads.warm_up(args.workload)
    print("READY", flush=True)
    setup_probe = statistics.median(workloads.speed_probe() for _ in range(3))

    result: dict[str, object] = {"setup": setup}
    if args.trace:
        import tracing

        half = args.seconds / 2.0
        inproc = args.workload == "cli"
        lat_a, ledger_a, extra_a = workloads.run_timed(args.workload, args.seed, half,
                                                       inprocess_cli=inproc)
        tracer = tracing.Tracer()
        tracer.install()
        lat_b, ledger_b, extra_b = workloads.run_timed(args.workload, args.seed, half,
                                                       tracer=tracer, inprocess_cli=inproc)
        tracer.uninstall()
        if args.spans:
            tracer.write(args.spans)
        census = workloads.run_census(args.workload)
        oracle_failed = sum(v for k, v in census["failures"].items()
                            if "oracle." in k.split("/")[2])
        result["per_layer"] = _per_layer(tracer, lat_a, lat_b, extra_a, extra_b,
                                         ledger_b.stdout_bytes, oracle_failed)
        ledgers = (ledger_a, ledger_b)
    else:
        env = workloads.worker_env(ROOT)
        _, ledger, extra = workloads.run_timed(args.workload, args.seed, args.seconds, env=env,
                                               first_block=args.first_block)
        result.update(tasks=extra["tasks"], blocks=extra["blocks"], setup_probe_s=setup_probe)
        ledgers = (ledger,)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        result["maxrss_kb"] = resource.getrusage(who).ru_maxrss
        census = workloads.run_census(args.workload) if args.census else None
    by_sig: dict[str, int] = {}
    for led in ledgers:
        for k, v in led.by_signature.items():
            by_sig[k] = by_sig.get(k, 0) + v
    result.update({
        "attempted": sum(led.attempted for led in ledgers),
        "failed": sum(led.failed for led in ledgers),
        "correct": all(led.correct for led in ledgers) and (census is None or census["correct"]),
        "census": census,
        "failures": by_sig,
        "unexpected": [u for led in ledgers for u in led.unexpected][:20],
    })
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
