import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from qglattice.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestStar:
    def test_degree_four_single_level(self, capsys):
        code, out, _ = run(capsys, "star", "--degree", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,kappa,energy"
        assert len(lines) == 2
        m, kappa, energy = lines[1].split(",")
        assert m == "1"
        assert float(energy) == pytest.approx(-1.0, abs=1e-10)

    def test_degree_two_is_usage_error(self, capsys):
        code, _, err = run(capsys, "star", "--degree", "2")
        assert code == 1
        assert "usage" in err.lower()

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "star", "--degree", "6", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["degree"] == 6
        assert len(doc["levels"]) == 2

    def test_degree_past_polynomial_overflow(self, capsys):
        code, out, _ = run(capsys, "star", "--degree", "155")
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 77


class TestSmatrix:
    def test_k_one_gives_the_coupling_matrix(self, capsys):
        code, out, _ = run(capsys, "smatrix", "--degree", "3", "--k", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "i,j,re,im"
        entries = {}
        for line in lines[1:]:
            i, j, re, im = line.split(",")
            entries[(int(i), int(j))] = complex(float(re), float(im))
        u = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
        for (i, j), v in entries.items():
            assert v == u[i, j]

    def test_degree3_k3_values(self, capsys):
        code, out, _ = run(capsys, "smatrix", "--degree", "3", "--k", "3")
        assert code == 0
        first = out.strip().splitlines()[1]
        assert float(first.split(",")[2]) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_unitarity_residual_field(self, capsys):
        code, out, _ = run(capsys, "smatrix", "--degree", "5", "--k", "7.3",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["unitarity_residual"] < 1e-10

    def test_unitary_at_large_momentum(self, capsys):
        # a dense solve of the rational form printed 4.6e-5 here
        code, out, _ = run(capsys, "smatrix", "--degree", "4", "--k", "1e12",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["unitarity_residual"] <= 1e-15

    def test_nonpositive_momentum_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "smatrix", "--degree", "3", "--k", "-1")
        assert code == 1


class TestBands:
    def test_header_and_negative_band_reaching_zero(self, capsys):
        code, out, _ = run(capsys, "bands", "--lattice", "square", "--length", "1.5",
                           "--emin", "-5", "--emax", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,kind,degenerate,e_lo,e_hi"
        ac = [l.split(",") for l in lines[1:] if l.split(",")[1] == "ac"]
        assert len(ac) == 1
        assert abs(float(ac[0][4])) <= 1e-9

    def test_degenerate_segment_for_hexagonal_pi_third(self, capsys):
        code, out, _ = run(capsys, "bands", "--lattice", "hex",
                           "--length", str(math.pi / 3.0), "--emin", "0.5", "--emax", "1.5")
        assert code == 0
        rows = [l.split(",") for l in out.strip().splitlines()[1:]]
        degenerate = [r for r in rows if r[2] == "1"]
        assert len(degenerate) == 1
        assert float(degenerate[0][3]) == 1.0
        assert float(degenerate[0][4]) == 1.0

    def test_bad_window_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "bands", "--lattice", "square", "--length", "1",
                         "--emin", "2", "--emax", "1")
        assert code == 1


class TestDispersion:
    def test_grid_two_has_four_bloch_points(self, capsys):
        code, out, _ = run(capsys, "dispersion", "--lattice", "square", "--length", "1.0",
                           "--grid", "2", "--emax", "16")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta1,theta2,branch,momentum,energy,residual"
        points = {tuple(l.split(",")[:2]) for l in lines[1:]}
        assert len(points) == 4

    def test_residual_column_is_small(self, capsys):
        code, out, _ = run(capsys, "dispersion", "--lattice", "hex", "--length", "0.9",
                           "--grid", "3", "--emax", "9")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            assert float(line.split(",")[5]) < 1e-9

    def test_output_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "dispersion", "--lattice", "square", "--length", "1.3",
                          "--grid", "3", "--emax", "6")
        _, second, _ = run(capsys, "dispersion", "--lattice", "square", "--length", "1.3",
                           "--grid", "3", "--emax", "6")
        assert first == second


class TestVerify:
    def test_square_report_structure(self, capsys):
        code, out, _ = run(capsys, "verify", "--lattice", "square",
                           "--lengths", "1.5,3,10")
        assert code == 0
        doc = json.loads(out)
        assert doc["model"] == "square"
        assert len(doc["claims"]) >= 10
        ids = [c["claim_id"] for c in doc["claims"]]
        assert len(ids) == len(set(ids))
        for c in doc["claims"]:
            assert set(c) == {"claim_id", "paper_ref", "paper_value",
                              "computed_value", "tolerance", "status"}

    def test_hex_report_contains_range_informational_records(self, capsys):
        code, out, _ = run(capsys, "verify", "--lattice", "hex", "--lengths", "2")
        assert code == 0
        doc = json.loads(out)
        info = [c for c in doc["claims"] if c["status"] == "informational"]
        assert any("range=derived" in c["claim_id"] for c in info)

    def test_strict_mode_flags_known_deviations(self, capsys):
        code, _, _ = run(capsys, "verify", "--lattice", "square",
                         "--lengths", "1.5,3,10", "--strict")
        assert code == 3

    def test_bad_lengths_are_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--lattice", "square", "--lengths", "0,-1")
        assert code == 1


class TestDetcheck:
    @pytest.mark.parametrize("lattice", ["square", "hex"])
    def test_hundred_samples_pass(self, capsys, lattice):
        code, out, _ = run(capsys, "detcheck", "--lattice", lattice, "--length", "1.2",
                           "--samples", "100")
        assert code == 0
        label, value = out.strip().split(",")
        assert label == "max_scaled_deviation"
        assert float(value) < 1e-8

    def test_zero_samples_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "detcheck", "--lattice", "square", "--samples", "0")
        assert code == 1


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qglattice.cli", "star", "--degree", "3"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "m,kappa,energy"

    def test_unknown_command_exits_one(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qglattice.cli", "frobnicate"],
            capture_output=True, text=True)
        assert proc.returncode == 1


def run_module(*argv, **env):
    return subprocess.run([sys.executable, "-m", "qglattice.cli", *argv],
                          capture_output=True, text=True, env={**os.environ, **env})


class TestMalformedInput:
    @pytest.mark.parametrize("argv,env", [
        (("bands", "--lattice", "square", "--length", "nan", "--emin", "-1", "--emax", "1"), {}),
        (("bands", "--lattice", "square", "--length", "inf", "--emin", "-1", "--emax", "1"), {}),
        (("bands", "--lattice", "square", "--length", "1", "--emin=-inf", "--emax", "1"), {}),
        (("dispersion", "--lattice", "hex", "--length", "nan", "--grid", "3", "--emax", "4"), {}),
        (("verify", "--lattice", "square", "--lengths", "1,,2"), {}),
        (("verify", "--lattice", "square", "--lengths", "1,nan"), {}),
        (("star", "--degree", "4"), {"QGLATTICE_ROOT_ABS": "abc"}),
        (("star", "--degree", "4"), {"QGLATTICE_RESIDUAL_ZERO": "nan"}),
        (("star", "--degree", "4"), {"QGLATTICE_SCAN_DENSITY": "2"}),
        (("star", "--degree", "4"), {"QGLATTICE_SCAN_DENSITY": "1.5"}),
        (("star", "--degree", "1001"), {}),
        (("smatrix", "--degree", "1001", "--k", "1"), {}),
        (("smatrix", "--degree", "4", "--k", "inf"), {}),
        (("smatrix", "--degree", "4", "--k", "nan"), {}),
        (("dispersion", "--lattice", "hex", "--length", "1", "--grid", "257", "--emax", "4"), {}),
        (("star", "--degree", "4.0"), {}),
    ])
    def test_usage_error_without_traceback(self, argv, env):
        proc = run_module(*argv, **env)
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage error:")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_unresolved_negative_band_is_numeric_failure(self):
        proc = run_module("verify", "--lattice", "hex", "--lengths", "17")
        assert proc.returncode == 2
        assert proc.stderr.startswith("numeric failure:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        # 3e8 flat levels
        ("bands", "--lattice", "square", "--length", "1e6", "--emin", "-1", "--emax", "1e6"),
        # a scan grid of 5e12 points
        ("bands", "--lattice", "square", "--length", "1e9", "--emin=-1e6", "--emax", "-1"),
        ("dispersion", "--lattice", "hex", "--length", "1e9", "--grid", "2", "--emax", "1e6"),
        ("verify", "--lattice", "square", "--lengths", "1e9"),
    ])
    def test_oversized_scan_is_numeric_failure(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("numeric failure:")
        assert out == ""
