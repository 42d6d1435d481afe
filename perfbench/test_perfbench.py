"""Self-test of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py

Runs a tiny seed of every workload, untraced and traced, and checks that
every workload, metric and unit the benchmark promises is printed; then
checks that tracing a library without one of its public names records zero
calls instead of failing.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

END_TO_END = {"setup_s": "s", "tasks_per_s": "1/s", "task_p50_s": "s",
              "task_tail_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = (
    "cli.startup_s", "lattice.param_range.first_call_s", "cli.main.self_s",
    "cli.stdout_bytes", "numerics.find_root.calls", "numerics.find_root.evals",
    "numerics.find_root.evals_per_root", "numerics.find_root.self_s",
    "lattice.dispersion_sheets.self_s", "lattice.dispersion_sheets.bloch_points",
    "lattice.dispersion_sheets.roots", "lattice.degenerate_band_lengths.calls",
    "lattice.degenerate_band_lengths.self_s", "lattice.spectral_infimum.calls",
    "lattice.spectral_infimum.self_s", "verify.verify_square.s", "verify.verify_hexagonal.s",
    "verify.verify_inconsistencies.s", "lattice.brillouin_membership_oracle.calls",
    "lattice.brillouin_membership_oracle.self_s", "lattice.brillouin_membership_oracle.failed",
    "lattice.is_member.self_s", "lattice.band_structure.calls", "lattice.band_structure.self_s",
    "lattice.secular_determinant.self_s", "numerics.det_complex.self_s",
    "star.bound_states.self_s", "vertex.s_matrix.self_s", "setup.interpreter_s",
    "setup.import_qglattice_s", "setup.import_scipy_optimize_s", "trace.overhead_ratio",
)


def _run(trace_flag: int) -> tuple[str, dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "all",
                           "--seed", "7", "--seconds", "0.3", "--trace", str(trace_flag)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def test_end_to_end_report_names_every_workload_metric_and_unit():
    out, summary = _run(0)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    for name in workloads.WORKLOADS:
        assert f"== {name}" in out
        for metric, unit in END_TO_END.items():
            assert summary["metrics"][f"{name}.{metric}"]["unit"] == unit
            assert summary["metrics"][f"{name}.{metric}"]["value"] > 0
    assert summary["failed"] == 0
    assert out.count("failed_frac") == len(workloads.WORKLOADS)
    assert "ratio (0 of " in out and "operations failed)" in out
    assert out.count("known-defect census") == 2
    assert "no longer shows" not in out
    assert "task_tail_s is p" in out
    assert out.count("over the speed probe after it") == len(workloads.WORKLOADS)
    assert out.count("unscaled: setup_s") == len(workloads.WORKLOADS)


def test_traced_report_names_every_layer_metric():
    out, summary = _run(1)
    for name in workloads.WORKLOADS:
        for metric in PER_LAYER:
            assert f"{name}.{metric}" in summary["metrics"]
        assert summary["metrics"][f"{name}.cli.startup_s"]["value"] > 0
    assert summary["metrics"]["cli.cli.main.self_s"]["value"] > 0
    assert summary["metrics"]["sheets.numerics.find_root.evals"]["value"] > 0
    assert summary["metrics"]["membership.lattice.brillouin_membership_oracle.failed"]["value"] == 2


def test_missing_public_name_records_zero_calls(monkeypatch):
    from qglattice import lattice, numerics

    monkeypatch.delattr(numerics, "det_complex")
    monkeypatch.delattr(numerics, "scan_sign_changes")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin(0)
        lattice.secular_determinant(lattice.LatticeModel("square", 1.0), 1.3,
                                    lattice.BlochPoint(0.1, 0.2))
        tracer.end()
    finally:
        tracer.uninstall()
    assert "numerics.det_complex" not in tracer.wrapped
    extra = {"aborted": 0, "measured_s": 1.0}
    layers = worker._per_layer(tracer, [1.0], [1.0], extra, extra, 0)
    assert layers["numerics.det_complex.self_s"] == 0
    assert layers["lattice.secular_determinant.self_s"] > 0


SQ, HX = {"kind": "square", "window": (-4.0, 4.0)}, {"kind": "hexagonal", "window": (-4.0, 4.0)}
ZERO_DIV, SEGMENTS = "oracle.ZeroDivisionError", "segments.disagrees_with_is_member"


@pytest.mark.parametrize("workload, operation, failure, task, energy, correct", [
    ("sheets", "dispersion_sheets", "ValueError", {"kind": "square", "grid": 26}, None, True),
    ("sheets", "dispersion_sheets", "ValueError", {"kind": "square", "grid": 24}, None, False),
    ("membership", "probe", ZERO_DIV, {**SQ, "l": 1.0}, -1.0, True),
    ("membership", "probe", ZERO_DIV, {**SQ, "l": 1.0}, -1.5, False),
    ("membership", "probe", ZERO_DIV, {**HX, "l": 1.0}, -1.0, False),
    ("membership", "probe", f"{ZERO_DIV}+{SEGMENTS}", {**SQ, "l": 29.0}, -1.0, True),
    ("membership", "probe", f"{ZERO_DIV}+{SEGMENTS}", {**SQ, "l": 20.0}, -1.0, False),
    ("membership", "probe", SEGMENTS, {**HX, "l": 16.5}, -3.0, True),
    ("membership", "probe", SEGMENTS, {**HX, "l": 12.0}, -3.0, False),
    # a gap of about 0.0047 in momentum between two bands, with no scan point in it
    ("membership", "probe", SEGMENTS,
     {"kind": "hexagonal", "l": 14.887, "window": (-6.8967758341537655, 3.923900815761302)},
     3.147435125753348, True),
    ("membership", "probe", SEGMENTS, {**HX, "l": 2.0}, 2.0, False),
    ("membership", "probe", "is_member.disagrees_with_oracle", {**SQ, "l": 29.0}, -1.0, False),
    ("claims", "verify_square", "status_differs", None, None, False),
])
def test_known_defects_hold_only_on_their_inputs(workload, operation, failure, task, energy,
                                                 correct):
    census = workloads.Ledger(workload, census=True)
    census.op(operation, None)
    census.op(operation, failure, task=task, energy=energy)
    assert (census.attempted, census.failed) == (2, 1)
    assert census.correct is correct
    timed = workloads.Ledger(workload)
    timed.op(operation, failure, task=task, energy=energy)
    assert timed.correct is False


@pytest.mark.parametrize("workload", ["sheets", "membership"])
def test_census_shows_every_known_defect_of_the_seed(workload):
    census = workloads.run_census(workload)
    assert census["correct"] and census["shows"]
    assert all(census["shows"].values())
    assert census["failed"] == census["attempted"]


def test_timed_streams_avoid_known_defect_inputs():
    sheets = workloads.sheets_tasks(3)
    grids = {task["grid"] for _ in range(40) for task in next(sheets)}
    assert 26 not in grids and grids <= set(range(16, 34))
    membership = workloads.membership_tasks(3)
    lo, hi = workloads.HEX_UNSCANNED_ZONE
    for _ in range(40):
        for task in next(membership):
            probes = workloads.membership_probes(task)
            assert [e for _, e in probes[:3]] == [-1.0, -3.0, 1.0]
            if task["kind"] == "hexagonal":
                assert not any(lo < e < hi for probe, e in probes if probe == "random")
    assert workloads.defective_routes({"kind": "square", "l": 1.0}, -1.0) == {"oracle"}
    assert workloads.defective_routes({"kind": "square", "l": 27.0}, -1.0) == {"oracle", "segments"}
    assert workloads.defective_routes({"kind": "hexagonal", "l": 16.0}, -3.0) == {"segments"}
    assert workloads.defective_routes({"kind": "hexagonal", "l": 15.0}, -3.0) == set()
    assert workloads.defective_routes({"kind": "square", "l": 27.0}, -3.0) == set()


def test_output_comparison_allows_root_abs_only():
    assert workloads.same_output("a,1.0000000000001\n", "a,1.0\n")[0]
    assert not workloads.same_output("a,1.00001\n", "a,1.0\n")[0]
    assert not workloads.same_output("b,1.0\n", "a,1.0\n")[0]
