"""CLI output against the benchmark's recorded outputs.

The benchmark in perfbench/ checks every CLI process it times against a
recorded output under perfbench/golden/cli, by its own rule ``same_output``:
text equal, numbers equal within 4 root_abs.  Running its catalogue of
argv in-process here shows an output change before a benchmark run does.
The recorded outputs are only read.
"""
import importlib.util
import os
from pathlib import Path

import pytest

from qglattice.cli import main


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()

# every catalogue argv but the slow verify runs, plus one verify per lattice;
# hexagonal l = 6.945 prints the narrow bands near E = -3
ARGV = [argv for name, pool in workloads.cli_pool().items() if name != "verify" for argv in pool]
ARGV += [["verify", "--lattice", "square", "--lengths", "1.442"],
         ["verify", "--lattice", "hex", "--lengths", "6.945"]]


@pytest.mark.parametrize("argv", ARGV, ids=workloads.cli_name)
def test_output_matches_recorded_output(argv, capsys, monkeypatch):
    for name in list(os.environ):
        if name.startswith("QGLATTICE_"):
            monkeypatch.delenv(name)
    assert main(list(argv)) == 0
    ok, detail = workloads.same_output(capsys.readouterr().out, workloads.read_cli_golden(argv))
    assert ok, detail
