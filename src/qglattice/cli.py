"""Command-line interface: spectra, scattering matrices, bands, dispersion data.

Exit codes: 0 success, 1 usage error, 2 numeric failure, 3 ``verify --strict``
found a deviating claim.  All numeric output is serialized with 17 significant
digits and is locale independent and deterministic.  Tolerances can be
overridden through environment variables QGLATTICE_ROOT_ABS,
QGLATTICE_RESIDUAL_ZERO, QGLATTICE_DEGENERATE_WIDTH and QGLATTICE_SCAN_DENSITY.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import Callable, Iterable

import numpy as np

from . import lattice, star, verify, vertex
from .numerics import NumericError, ToleranceConfig

USAGE_ERROR = 1
NUMERIC_ERROR = 2

_MAX_DEGREE = 1000  # smatrix builds degree^2 entries
_MAX_GRID = 256     # dispersion builds grid^2 Bloch points

_DETCHECK_SEED = 20260809


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant conforming to the exit-code contract (1 on usage)."""

    def error(self, message: str):
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _finite(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _int_in(lo: int, hi: float = math.inf):
    """argparse type: an integer n with lo <= n <= hi."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if not lo <= value <= hi:
            bound = f"at least {lo}" if value < lo else f"at most {hi}"
            raise argparse.ArgumentTypeError(f"must be {bound}")
        return value
    return parse


def _tolerances() -> ToleranceConfig:
    kw = {}
    for field, env, parse in (
        ("root_abs", "QGLATTICE_ROOT_ABS", _finite),
        ("residual_zero", "QGLATTICE_RESIDUAL_ZERO", _finite),
        ("degenerate_width", "QGLATTICE_DEGENERATE_WIDTH", _finite),
        ("scan_density", "QGLATTICE_SCAN_DENSITY", int),
    ):
        if env in os.environ:
            try:
                kw[field] = parse(os.environ[env])
            except (ValueError, argparse.ArgumentTypeError):
                raise _UsageError(f"{env}: invalid value {os.environ[env]!r}") from None
    try:
        return ToleranceConfig(**kw)
    except ValueError as exc:
        raise _UsageError(f"QGLATTICE_* tolerances: {exc}") from None


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _model(lattice_name: str, length: float) -> lattice.LatticeModel:
    kind = {"square": "square", "hex": "hexagonal", "hexagonal": "hexagonal"}.get(lattice_name)
    if kind is None:
        raise _UsageError(f"unknown lattice '{lattice_name}'")
    if length <= 0.0:
        raise _UsageError("edge length must be positive")
    return lattice.LatticeModel(kind, length)


def _write(args, header: str, rows: Iterable[list], doc: Callable[[], dict]) -> int:
    """Emit rows as csv under header, or doc() as json; only the chosen side is built."""
    if args.format == "csv":
        lines = [header]
        for row in rows:
            lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit(json.dumps(doc(), sort_keys=True, indent=2) + "\n", args.output)
    return 0


def cmd_star(args) -> int:
    spectrum = star.bound_states(args.degree, _tolerances())
    rows = [[m + 1, kappa, energy]
            for m, (kappa, energy) in enumerate(zip(spectrum.kappas, spectrum.energies))]
    return _write(args, "m,kappa,energy", rows, lambda: {
        "degree": spectrum.degree,
        "levels": [{"m": r[0], "kappa": r[1], "energy": r[2]} for r in rows],
    })


def cmd_smatrix(args) -> int:
    if args.k <= 0.0:
        raise _UsageError("momentum must be positive")
    sm = vertex.s_matrix_closed_form(args.degree, args.k)
    re, im = sm.s.real.tolist(), sm.s.imag.tolist()
    rows = ([i, j, re[i][j], im[i][j]] for i in range(args.degree) for j in range(args.degree))
    return _write(args, "i,j,re,im", rows, lambda: {
        "degree": args.degree,
        "k": args.k,
        "unitarity_residual": sm.unitarity_residual(),
        "entries": [[list(v) for v in zip(re_row, im_row)] for re_row, im_row in zip(re, im)],
    })


def cmd_bands(args) -> int:
    model = _model(args.lattice, args.length)
    if not args.emin < args.emax:
        raise _UsageError("emin must be below emax")
    bands = lattice.band_structure(model, (args.emin, args.emax), args.range, _tolerances())
    rows = [[i, s.kind, int(s.degenerate), s.e_lo, s.e_hi]
            for i, s in enumerate(bands.segments)]
    return _write(args, "index,kind,degenerate,e_lo,e_hi", rows, lambda: {
        "model": model.kind,
        "edge_length": model.edge_length,
        "window": list(bands.window),
        "segments": [dataclasses.asdict(s) for s in bands.segments],
    })


def cmd_dispersion(args) -> int:
    model = _model(args.lattice, args.length)
    if args.emax <= 0.0:
        raise _UsageError("emax must be positive")
    emin = args.emin if args.emin is not None else -args.emax
    if not emin < args.emax:
        raise _UsageError("emin must be below emax")
    roots = lattice.dispersion_sheets(model, args.grid, (emin, args.emax), _tolerances())
    rows = [[r.point.theta1, r.point.theta2, r.branch, r.momentum, r.energy, r.residual]
            for r in roots]
    return _write(args, "theta1,theta2,branch,momentum,energy,residual", rows, lambda: {
        "model": model.kind,
        "edge_length": model.edge_length,
        "roots": [{"theta1": r[0], "theta2": r[1], "branch": r[2],
                   "momentum": r[3], "energy": r[4], "residual": r[5]} for r in rows],
    })


def cmd_verify(args) -> int:
    try:
        lengths = tuple(_finite(x) for x in args.lengths.split(","))
    except argparse.ArgumentTypeError:
        lengths = ()
    if not lengths or any(l <= 0.0 for l in lengths):
        raise _UsageError("lengths must be a comma-separated list of positive finite reals")
    tol = _tolerances()
    kind = _model(args.lattice, lengths[0]).kind
    if kind == "square":
        records = verify.verify_square(lengths, tol)
    else:
        records = verify.verify_hexagonal(lengths, tol)
    records = records + verify.verify_inconsistencies(tol)
    report = {
        "model": kind,
        "claims": [dataclasses.asdict(r) for r in records],
    }
    _emit(json.dumps(report, sort_keys=True, indent=2) + "\n", args.output)
    if args.strict:
        bad = [r for r in records if r.status == "deviation"]
        return 3 if bad else 0
    return 0


def cmd_detcheck(args) -> int:
    model = _model(args.lattice, args.length)
    rng = np.random.default_rng(_DETCHECK_SEED)
    cal = lattice.SECULAR_CALIBRATION[model.kind]
    worst = 0.0
    for _ in range(args.samples):
        k = float(rng.uniform(0.05, 6.0))
        t1, t2 = (float(x) for x in rng.uniform(-math.pi, math.pi, 2))
        point = lattice.BlochPoint(t1, t2)
        assembled = lattice.secular_determinant(model, k, point)
        factored = lattice.secular_determinant_factored(model, k, point)
        scale = max(1.0, abs(assembled), abs(factored))
        worst = max(worst, abs(assembled - cal * factored) / scale)
    sys.stdout.write(f"max_scaled_deviation,{_fmt(worst)}\n")
    return 0 if worst < 1e-8 else NUMERIC_ERROR


def _build_parser() -> _Parser:
    parser = _Parser(prog="qglattice",
                     description="Spectra of quantum-graph lattices with a "
                                 "rotation-preferring vertex coupling.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("star", help="bound states of the star graph")
    p.add_argument("--degree", type=_int_in(3, _MAX_DEGREE), required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_star)

    p = sub.add_parser("smatrix", help="on-shell scattering matrix")
    p.add_argument("--degree", type=_int_in(3, _MAX_DEGREE), required=True)
    p.add_argument("--k", type=_finite, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_smatrix)

    p = sub.add_parser("bands", help="band structure in an energy window")
    p.add_argument("--lattice", choices=("square", "hex", "hexagonal"), required=True)
    p.add_argument("--length", type=_finite, required=True)
    p.add_argument("--emin", type=_finite, required=True)
    p.add_argument("--emax", type=_finite, required=True)
    p.add_argument("--range", choices=("derived", "paper"), default="derived")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_bands)

    p = sub.add_parser("dispersion", help="dispersion sheet data over the Brillouin zone")
    p.add_argument("--lattice", choices=("square", "hex", "hexagonal"), required=True)
    p.add_argument("--length", type=_finite, required=True)
    p.add_argument("--grid", type=_int_in(2, _MAX_GRID), required=True)
    p.add_argument("--emax", type=_finite, required=True)
    p.add_argument("--emin", type=_finite, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_dispersion)

    p = sub.add_parser("verify", help="recompute the published band-structure claims")
    p.add_argument("--lattice", choices=("square", "hex", "hexagonal"), required=True)
    p.add_argument("--lengths", required=True, help="comma-separated edge lengths")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when any claim deviates")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("detcheck", help="assembled vs factored secular determinant")
    p.add_argument("--lattice", choices=("square", "hex", "hexagonal"), required=True)
    p.add_argument("--length", type=_finite, default=1.0)
    p.add_argument("--samples", type=_int_in(1), required=True)
    p.set_defaults(func=cmd_detcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    except NumericError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
