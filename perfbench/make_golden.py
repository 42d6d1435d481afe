"""Regenerate the seed reference outputs under perfbench/golden/.

    PYTHONPATH=src python3 perfbench/make_golden.py

The goldens record what the seed version of the library returns for every
entry of the fixed claims and CLI catalogues, which are the only inputs the
seeded ``claims`` and ``cli`` task streams draw from.  They define "the seed
reference" for those checks, so regenerate them only when the catalogues
change, and only from the seed code.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil

import workloads


def main() -> None:
    from qglattice import cli, verify

    out = workloads.GOLDEN
    out.mkdir(exist_ok=True)
    claims: dict[str, object] = {}
    for kind, regimes in workloads.claim_pool().items():
        fn = verify.verify_square if kind == "square" else verify.verify_hexagonal
        claims[kind] = {f"{l:.4g}": sorted([r.claim_id, r.status] for r in fn((l,)))
                        for values in regimes for l in values}
    claims["inconsistencies"] = sorted([r.claim_id, r.status]
                                       for r in verify.verify_inconsistencies())
    (out / "claims.json").write_text(json.dumps(claims, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")

    shutil.rmtree(out / "cli", ignore_errors=True)
    (out / "cli").mkdir()
    for entries in workloads.cli_pool().values():
        for argv in entries:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(argv))
            if code != 0:
                raise SystemExit(f"{argv} exited with {code}")
            (out / "cli" / f"{workloads.cli_name(argv)}.out").write_text(
                buf.getvalue(), encoding="utf-8")


if __name__ == "__main__":
    main()
