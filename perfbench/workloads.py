"""The four seeded workloads: task streams, timed operations and their checks.

A *task* is one unit of a workload's input stream; an *operation* is one
checked library call or CLI invocation inside a task.  Every task stream is
an endless generator of blocks seeded from ``(workload, seed)``: the same
seed always yields the same tasks in the same order.  Blocks are small and
stratified and a run executes whole blocks, so that the mix of cheap and
costly tasks in a run depends little on the seed and its medians are steady.

This module imports ``qglattice`` and numpy lazily, inside the functions that
need them, so the benchmark's parent process and the ``cli`` worker stay
small: a child process inherits its parent's peak RSS through exec.
"""
from __future__ import annotations

import functools
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"

ROOT_ABS = 1e-12          # the library's default root accuracy (momentum units)
ORACLE_GRID = 512
RANDOM_PROBES = 8
SPEED_PROBE_LOOPS = 30000
WORKLOADS = ("sheets", "claims", "membership", "cli")


def _last_phase_above_pi(task, energy) -> bool:
    """dispersion_sheets builds phases -pi + 2 pi (i + 1) / n; for n = 13, 26,
    47, ... the last one rounds above pi and BlochPoint rejects it."""
    import reference

    return reference.bloch_thetas(task["grid"])[-1] > math.pi


def _next_to_unscanned_feature(task, energy) -> bool:
    """The probe's band or gap, or one next to it, holds no seed scan point."""
    import reference
    from qglattice import lattice

    pr = lattice.param_range(task["kind"])
    return reference.next_to_unscanned_feature(task["kind"], task["l"], task["window"], energy,
                                               pr.lo, pr.hi)


# band_structure merges cuts closer than 4 root_abs.  The square band around
# kappa = 1 is about 4 exp(-l) wide, and the seed loses it at E = -1 from
# l = 27.2 on; the hexagonal band around kappa = sqrt(3), about
# 7 exp(-sqrt(3) l) wide, is lost at E = -3 from l = 16.1 on.
SQUARE_BAND_LOSS_L = 26.5
HEX_BAND_LOSS_L = 15.5
# Hexagonal bands and gaps near k = sqrt(3) can fall between two scan points
# of band_structure, which then misclassifies energies next to them.  Dense
# surveys of l in [0.05, 30] (1.8 million probes) found such energies only in
# [2.57, 3.42]; random hexagonal probes are drawn outside this wider interval.
HEX_UNSCANNED_ZONE = (2.25, 3.75)


def defective_routes(task, energy: float) -> set[str]:
    """The routes of a membership probe that a known defect breaks on these
    inputs.  The timed stream leaves them out; the census runs them."""
    routes = set()
    if task["kind"] == "square" and energy == -1.0:
        routes.add("oracle")
        if task["l"] >= SQUARE_BAND_LOSS_L:
            routes.add("segments")
    if task["kind"] == "hexagonal" and energy == -3.0 and task["l"] >= HEX_BAND_LOSS_L:
        routes.add("segments")
    return routes


class KnownDefect(NamedTuple):
    name: str
    workload: str
    operation: str
    failure: str                 # one failing part of an operation
    applies: Callable            # (task, probe energy or None) -> bool
    census: tuple                # fixed (task, energy) inputs on which the seed shows it


_SQ4 = {"kind": "square", "window": (-4.0, 4.0)}
_HX4 = {"kind": "hexagonal", "window": (-4.0, 4.0)}

# The failures the seed code shows, each tied to the inputs that trigger it.
# The timed task streams avoid these inputs, so that no timed operation fails
# on the seed code; the census runs each defect's fixed inputs once per run,
# untimed, and reports whether it still shows.  A failure outside these
# inputs, timed or in the census, marks the run incorrect.
KNOWN_DEFECTS = (
    KnownDefect("last-phase-above-pi", "sheets", "dispersion_sheets", "ValueError",
                _last_phase_above_pi,
                (({"kind": "square", "l": 1.0, "grid": 13, "e": 2.0}, None),
                 ({"kind": "hexagonal", "l": 1.0, "grid": 26, "e": 2.0}, None))),
    # the square oracle divides by 1 - x^2, which is zero at E = -1
    KnownDefect("square-oracle-at-minus-one", "membership", "probe", "oracle.ZeroDivisionError",
                lambda task, e: "oracle" in defective_routes(task, e),
                (({**_SQ4, "l": 1.0}, -1.0), ({**_SQ4, "l": 29.0}, -1.0))),
    KnownDefect("narrow-band-lost-at-large-l", "membership", "probe",
                "segments.disagrees_with_is_member",
                lambda task, e: "segments" in defective_routes(task, e),
                (({**_SQ4, "l": 29.0}, -1.0), ({**_HX4, "l": 16.5}, -3.0))),
    # a band or gap between two scan points is missed, and the merged cell
    # is classified at its midpoint (here a gap of about 0.0047 in momentum)
    KnownDefect("unscanned-feature", "membership", "probe",
                "segments.disagrees_with_is_member",
                _next_to_unscanned_feature,
                (({"kind": "hexagonal", "l": 14.887,
                   "window": (-6.8967758341537655, 3.923900815761302)}, 3.147435125753348),)),
)


def is_known_defect(workload: str, operation: str, failure: str, task, energy) -> bool:
    """Every part of a failure (parts joined by '+') is a known defect of these inputs."""
    return all(any(d.workload == workload and d.operation == operation and d.failure == part
                   and d.applies(task, energy) for d in KNOWN_DEFECTS)
               for part in failure.split("+"))


class Ledger:
    """Operation counts and failure signatures for one run, or for its census.

    In the timed stream every failure is unexpected; in the census a failure
    is expected when a known defect covers each of its parts."""

    def __init__(self, workload: str, census: bool = False) -> None:
        self.workload = workload
        self.census = census
        self.attempted = 0
        self.failed = 0
        self.by_signature: dict[str, int] = {}
        self.unexpected_by_signature: dict[str, int] = {}
        self.unexpected: list[str] = []
        self.stdout_bytes = 0  # what the CLI operations printed

    def op(self, operation: str, failure: str | None, lattice: str = "-",
           probe: str = "-", detail: str = "", task=None, energy: float | None = None) -> None:
        self.attempted += 1
        if failure is None:
            return
        self.failed += 1
        key = "/".join((self.workload, operation, failure, lattice, probe))
        self.by_signature[key] = self.by_signature.get(key, 0) + 1
        if not (self.census and is_known_defect(self.workload, operation, failure, task, energy)):
            self.unexpected_by_signature[key] = self.unexpected_by_signature.get(key, 0) + 1
            if len(self.unexpected) < 20:
                self.unexpected.append(f"{key}: {detail}"[:300])

    @property
    def correct(self) -> bool:
        return not self.unexpected_by_signature


def run_census(workload: str) -> dict:
    """Run the fixed inputs of this workload's known defects once each, untimed.

    Returns the census ledger's counts, failure signatures and unexpected
    failures, and for each defect whether it still shows on all its inputs."""
    ledger = Ledger(workload, census=True)
    defects = [d for d in KNOWN_DEFECTS if d.workload == workload]
    inputs = [inp for d in defects for inp in d.census]
    inputs = [inp for i, inp in enumerate(inputs) if inp not in inputs[:i]]
    parts = [_census_op(ledger, task, energy) for task, energy in inputs]
    shows = {d.name: all(d.failure in parts[inputs.index(inp)] for inp in d.census)
             for d in defects}
    return {"attempted": ledger.attempted, "failed": ledger.failed,
            "failures": ledger.by_signature, "unexpected": ledger.unexpected,
            "correct": ledger.correct, "shows": shows}


def _census_op(ledger: Ledger, task, energy) -> list[str]:
    """One census operation with every route; returns its failing parts."""
    before = dict(ledger.by_signature)
    if ledger.workload == "sheets":
        sheets_run(task, ledger, Timer(None, -1))
    else:
        _probe(task, energy, "census", ledger, Timer(None, -1), _segments_or_none(task), set())
    changed = [k for k, v in ledger.by_signature.items() if v != before.get(k, 0)]
    return [part for key in changed for part in key.split("/")[2].split("+")]


def _log_uniform(rng: random.Random, lo: float, hi: float, stratum: int = 0,
                 strata: int = 1) -> float:
    a, b = math.log(lo), math.log(hi)
    w = (b - a) / strata
    return math.exp(a + w * (stratum + rng.random()))


# --------------------------------------------------------------------------
# sheets: dispersion_sheets over Bloch grids

def sheets_tasks(seed: int):
    """Blocks of eight: both kinds x four log-strata of l, with grid size and
    energy window Latin-hypercube sampled within the block.  A grid size the
    seed rejects (26 in this range, see KNOWN_DEFECTS) is moved up by one."""
    import reference

    rng = random.Random(f"sheets:{seed}")
    while True:
        block = []
        for kind in ("square", "hexagonal"):
            grids, energies = rng.sample(range(4), 4), rng.sample(range(4), 4)
            for s in range(4):
                grid = 16 + 4 * grids[s] + rng.randint(0, 4)
                if reference.bloch_thetas(grid)[-1] > math.pi:
                    grid += 1
                block.append({
                    "kind": kind,
                    "l": _log_uniform(rng, 0.3, 5.0, s, 4),
                    "grid": grid,
                    "e": _log_uniform(rng, 2.0, 16.0, energies[s], 4),
                })
        rng.shuffle(block)
        yield block


def sheets_run(task, ledger: Ledger, timer) -> bool:
    from qglattice import lattice

    model = lattice.LatticeModel(task["kind"], task["l"])
    window = (-task["e"], task["e"])
    try:
        with timer:
            roots = lattice.dispersion_sheets(model, task["grid"], window)
    except Exception as exc:  # a raising operation is a failed operation
        ledger.op("dispersion_sheets", type(exc).__name__, task["kind"], detail=repr(exc),
                  task=task)
        return False
    failure, detail = _check_sheets(model, task, roots)
    ledger.op("dispersion_sheets", failure, task["kind"], detail=detail, task=task)
    return True


def _check_sheets(model, task, roots):
    """Every root is a spectral energy (within root_abs) and every root the seed
    code finds at a Bloch point is found again there within root_abs."""
    import reference
    from qglattice import lattice

    n = task["grid"]
    got: dict[tuple[int, int], list[tuple[bool, float]]] = {}
    for r in roots:
        key = (round((r.point.theta1 + math.pi) * n / (2.0 * math.pi)) - 1,
               round((r.point.theta2 + math.pi) * n / (2.0 * math.pi)) - 1)
        got.setdefault(key, []).append((r.energy > 0.0, r.momentum))
        x, sign = r.momentum, (1.0 if r.energy > 0.0 else -1.0)
        d = ROOT_ABS * max(1.0, x)
        if not any(lattice.is_member(model, sign * y * y) for y in (x, x - d, x + d)):
            return "root_not_member", f"{task} momentum={x!r} energy={r.energy!r}"
    thetas = reference.bloch_thetas(n)
    index = {t: i for i, t in enumerate(thetas)}
    expected = reference.sheet_roots(task["kind"], task["l"], n, (-task["e"], task["e"]))
    for (t1, t2), ref in expected.items():
        have = got.get((index[t1], index[t2]), [])
        for positive, x in ref:
            tol = ROOT_ABS * max(1.0, x) + 8.0 * math.ulp(x)
            if not any(p == positive and abs(y - x) <= tol for p, y in have):
                return "missing_root", f"{task} theta=({t1!r},{t2!r}) momentum={x!r}"
    return None, ""


# --------------------------------------------------------------------------
# claims: what `qglattice verify` computes

CLAIM_IDS = {
    "square": (
        "square-negative-band-location", "square-negative-strictly-below-zero",
        "square-negative-band-exponential", "square-negative-extends-to-zero",
        "square-infimum-small-length", "square-gaps-infinite", "square-gaps-centered",
        "square-degenerate-lengths", "square-gap-asymptotics",
    ),
    "hexagonal": (
        "hex-negative-band-location", "hex-negative-strictly-below-zero",
        "hex-negative-bands-exponential", "hex-first-band-small-length",
        "hex-positive-threshold", "hex-bands-in-pairs", "hex-degenerate-lengths",
        "hex-pair-asymptotics",
    ),
}


def expected_claim_ids(kind: str, lengths) -> set[str]:
    """Registry ids a verify run must report for these lengths."""
    ids = set(CLAIM_IDS[kind])
    if kind == "square":
        if not any(l > 2.0 for l in lengths):
            ids.discard("square-negative-strictly-below-zero")
        if not any(l <= 2.0 for l in lengths):
            ids.discard("square-negative-extends-to-zero")
        if not any(l >= 5.0 for l in lengths):
            ids.discard("square-negative-band-exponential")
    return ids


def claim_pool() -> dict[str, list[list[float]]]:
    """Fixed catalogue of edge lengths per kind and regime (the regimes the
    claims separate), drawn once from a fixed seed so goldens can cover it."""
    rng = random.Random("claims-catalogue")
    regimes = {
        "square": ((0.3, 2.0), (2.0001, 4.999), (5.0, 12.0)),
        "hexagonal": ((0.3, 2.0 / math.sqrt(3.0)), (1.1548, 4.999), (5.0, 12.0)),
    }
    pool: dict[str, list[list[float]]] = {}
    for kind, bounds in regimes.items():
        pool[kind] = []
        for lo, hi in bounds:
            values = set()
            while len(values) < 8:
                values.add(float(f"{_log_uniform(rng, lo, hi):.4g}"))
            pool[kind].append(sorted(values))
    return pool


def claims_tasks(seed: int):
    """Blocks of six: for each kind, three tasks with one, two and three
    lengths, whose regimes cover every regime exactly twice ({a}, {b, c},
    {a, b, c}).  The long-length regime costs most, so fixing its count per
    block keeps the cost mix of a run independent of the seed."""
    rng = random.Random(f"claims:{seed}")
    pool = claim_pool()
    while True:
        per_kind = []
        for kind in ("square", "hexagonal"):
            a, b, c = rng.sample(range(3), 3)
            tasks = [{"kind": kind,
                      "lengths": tuple(sorted(rng.choice(pool[kind][r]) for r in regimes))}
                     for regimes in ((a,), (b, c), (a, b, c))]
            rng.shuffle(tasks)
            per_kind.append(tasks)
        yield [task for pair in zip(*per_kind) for task in pair]  # kinds alternate


def _load_claims_golden():
    with open(GOLDEN / "claims.json", encoding="utf-8") as fh:
        return json.load(fh)


def _has_nan(value) -> bool:
    if isinstance(value, (list, tuple)):
        return any(_has_nan(v) for v in value)
    return isinstance(value, float) and math.isnan(value)


def claims_run(task, ledger: Ledger, timer, golden) -> bool:
    from qglattice import verify

    kind, lengths = task["kind"], task["lengths"]
    fn = verify.verify_square if kind == "square" else verify.verify_hexagonal
    completed = True
    try:
        with timer:
            records = fn(lengths)
    except Exception as exc:
        ledger.op(f"verify_{kind}", type(exc).__name__, kind, detail=f"{lengths} {exc!r}")
        records, completed = None, False
    if records is not None:
        expected = set()
        for l in lengths:
            expected.update(map(tuple, golden[kind][f"{l:.4g}"]))
        failure, detail = _check_claims(records, expected, expected_claim_ids(kind, lengths))
        ledger.op(f"verify_{kind}", failure, kind, detail=f"{lengths} {detail}")
    try:
        with timer:
            records = verify.verify_inconsistencies()
    except Exception as exc:
        ledger.op("verify_inconsistencies", type(exc).__name__, detail=repr(exc))
        return False
    expected = set(map(tuple, golden["inconsistencies"]))
    failure, detail = _check_claims(records, expected, {r[0] for r in expected})
    ledger.op("verify_inconsistencies", failure, detail=detail)
    return completed


def _check_claims(records, expected: set, ids: set):
    pairs = sorted((r.claim_id, r.status) for r in records)
    present = {cid.split("[")[0] for cid, _ in pairs}
    if not ids <= present:
        return "missing_claim", str(sorted(ids - present))
    for r in records:
        if _has_nan(r.paper_value) or _has_nan(r.computed_value):
            return "nan_value", r.claim_id
    if pairs != sorted(expected):
        diff = sorted(set(pairs) ^ expected)[:4]
        return "status_differs", str(diff)
    return None, ""


# --------------------------------------------------------------------------
# membership: is_member against the Brillouin oracle and the band segments

def membership_tasks(seed: int):
    """Blocks of eight: both kinds x four log-strata of l in [0.05, 30].

    Each window contains -3, -1 and 1, so the fixed probes are always inside.
    Random hexagonal probes are redrawn inside HEX_UNSCANNED_ZONE."""
    rng = random.Random(f"membership:{seed}")

    def draw(kind: str, e_lo: float, e_hi: float) -> float:
        while True:
            e = rng.uniform(e_lo, e_hi)
            if kind == "square" or not HEX_UNSCANNED_ZONE[0] < e < HEX_UNSCANNED_ZONE[1]:
                return e

    while True:
        block = []
        for kind in ("square", "hexagonal"):
            for s in range(4):
                e_lo = -rng.uniform(3.5, 12.0)
                e_hi = rng.uniform(1.5, 12.0)
                probes = [draw(kind, e_lo, e_hi) for _ in range(RANDOM_PROBES)]
                block.append({"kind": kind, "l": _log_uniform(rng, 0.05, 30.0, s, 4),
                              "window": (e_lo, e_hi), "random": probes})
        rng.shuffle(block)
        yield block


def membership_probes(task) -> list[tuple[str, float]]:
    """(probe class, energy): -1, -3, 1, the flat energies in the window, then
    the seeded random energies."""
    probes = [("E=-1", -1.0), ("E=-3", -3.0), ("E=1", 1.0)]
    l = task["l"]
    e_lo, e_hi = task["window"]
    m = 0
    while True:
        km = math.pi * m / l
        if km * km > e_hi:
            break
        if km * km >= e_lo:
            probes.append(("flat", km * km))
        m += 1
    probes.extend(("random", e) for e in task["random"])
    return probes


def _in_segments(segments, e: float, tol: float) -> tuple[bool, bool]:
    """(inside some segment, within tol of an ac band edge)."""
    inside, near_edge = False, False
    for s in segments:
        if s.kind == "flat" or s.degenerate:
            inside |= s.e_lo - tol <= e <= s.e_hi + tol
        else:
            inside |= s.e_lo <= e <= s.e_hi
            near_edge |= abs(e - s.e_lo) <= tol or abs(e - s.e_hi) <= tol
    return inside, near_edge


def _segments_or_none(task):
    from qglattice import lattice

    model = lattice.LatticeModel(task["kind"], task["l"])
    try:
        return lattice.band_structure(model, task["window"]).segments
    except Exception:
        return None


def membership_run(task, ledger: Ledger, timer) -> bool:
    """band_structure once, then one operation per probe: the oracle, is_member
    and a segment lookup, less the routes a known defect breaks on the
    probe's inputs (see defective_routes).  A probe fails when a call raises
    or the routes disagree; it records every failing part and the task goes on."""
    from qglattice import lattice

    kind = task["kind"]
    model = lattice.LatticeModel(kind, task["l"])
    try:
        with timer:
            segments = lattice.band_structure(model, task["window"]).segments
        ledger.op("band_structure", None, kind)
    except Exception as exc:
        ledger.op("band_structure", type(exc).__name__, kind, detail=repr(exc))
        segments = None
    for probe, e in membership_probes(task):
        _probe(task, e, probe, ledger, timer, segments, defective_routes(task, e))
    return True


def _probe(task, e: float, probe: str, ledger: Ledger, timer, segments, skip: set[str]) -> None:
    from qglattice import lattice

    kind = task["kind"]
    model = lattice.LatticeModel(kind, task["l"])
    parts: list[str] = []
    oracle = member = None
    if "oracle" not in skip:
        try:
            with timer:
                oracle = bool(lattice.brillouin_membership_oracle(model, e, ORACLE_GRID))
        except Exception as exc:
            parts.append(f"oracle.{type(exc).__name__}")
    try:
        with timer:
            member = bool(lattice.is_member(model, e))
    except Exception as exc:
        parts.append(f"is_member.{type(exc).__name__}")
    if member is not None and oracle is not None and member != oracle:
        parts.append("is_member.disagrees_with_oracle")
    truth = member if member is not None else oracle
    if "segments" not in skip:
        if segments is None:
            parts.append("segments.no_band_structure")
        elif truth is not None:
            inside, near_edge = _in_segments(segments, e, ROOT_ABS * 4.0 * max(1.0, abs(e)))
            if not near_edge and inside != truth:
                parts.append("segments.disagrees_with_is_member")
    ledger.op("probe", "+".join(parts) or None, kind, probe,
              f"l={task['l']!r} E={e!r} oracle={oracle} is_member={member}", task, e)


# --------------------------------------------------------------------------
# cli: fresh `python -m qglattice.cli` processes

def cli_pool() -> dict[str, list[list[str]]]:
    """Fixed catalogue of small inputs for each of the six subcommands."""
    rng = random.Random("cli-catalogue")

    def num(x: float) -> str:
        return f"{x:.4g}"

    pool: dict[str, list[list[str]]] = {k: [] for k in
                                        ("star", "smatrix", "bands", "dispersion", "verify", "detcheck")}
    for i in range(12):
        fmt = ("csv", "json")[i % 2]
        lat = ("square", "hex")[(i // 2) % 2]
        pool["star"].append(["star", "--degree", str(rng.randint(3, 40)), "--format", fmt])
        pool["smatrix"].append(["smatrix", "--degree", str(rng.randint(3, 8)),
                                "--k", num(_log_uniform(rng, 0.1, 10.0)), "--format", fmt])
        pool["bands"].append(["bands", "--lattice", lat, "--length", num(_log_uniform(rng, 0.3, 5.0)),
                              "--emin", num(-rng.uniform(1.0, 8.0)),
                              "--emax", num(rng.uniform(1.0, 40.0)), "--format", fmt])
        pool["dispersion"].append(["dispersion", "--lattice", lat,
                                   "--length", num(_log_uniform(rng, 0.3, 5.0)),
                                   "--grid", str(rng.randint(4, 8)),
                                   "--emax", num(rng.uniform(1.0, 9.0)), "--format", fmt])
        pool["verify"].append(["verify", "--lattice", lat,
                               "--lengths", num(_log_uniform(rng, 0.5, 8.0))])
        pool["detcheck"].append(["detcheck", "--lattice", lat,
                                 "--length", num(_log_uniform(rng, 0.3, 5.0)),
                                 "--samples", str(rng.randint(20, 200))])
    return pool


def cli_name(argv: list[str]) -> str:
    return "_".join(a.lstrip("-") for a in argv).replace(".", "p")


def cli_tasks(seed: int):
    """Blocks of six, one per subcommand in seeded order.  The lattices of
    `bands`, `dispersion` and `verify` alternate from block to block (a
    hexagonal `bands` or `verify` pays the first hexagonal parameter-range
    call), so every pair of blocks holds the same mix of cheap and costly
    processes."""
    rng = random.Random(f"cli:{seed}")
    pool = cli_pool()
    by_lat = {name: {lat: [a for a in entries if lat in a] for lat in ("square", "hex")}
              for name, entries in pool.items()}
    block_no = 0
    while True:
        odd = block_no % 2
        block = [
            rng.choice(pool["star"]),
            rng.choice(pool["smatrix"]),
            rng.choice(by_lat["bands"][("hex", "square")[odd]]),
            rng.choice(by_lat["dispersion"][("square", "hex")[odd]]),
            rng.choice(by_lat["verify"][("square", "hex")[odd]]),
            rng.choice(pool["detcheck"]),
        ]
        rng.shuffle(block)
        block_no += 1
        yield [{"argv": argv} for argv in block]


_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|NaN|-?Infinity|-?inf|nan)")


def same_output(out: str, golden: str) -> tuple[bool, str]:
    """Text equal, numbers equal within root_abs carried to the printed scale."""
    a, b = _NUMBER.split(out), _NUMBER.split(golden)
    if len(a) != len(b):
        return False, f"token count {len(a)} != {len(b)}"
    for i, (x, y) in enumerate(zip(a, b)):
        if x == y:
            continue
        if i % 2 == 0:
            return False, f"text {x[:40]!r} != {y[:40]!r}"
        fx, fy = float(x.replace("Infinity", "inf")), float(y.replace("Infinity", "inf"))
        if not abs(fx - fy) <= 4.0 * ROOT_ABS * max(1.0, abs(fy)):
            return False, f"number {x} != {y}"
    return True, ""


def read_cli_golden(argv: list[str]) -> str:
    return (GOLDEN / "cli" / f"{cli_name(argv)}.out").read_text(encoding="utf-8")


def _check_cli(ledger: Ledger, argv: list[str], code: int, out: str, err: str) -> None:
    if code:
        failure, detail = "nonzero_exit", f"exit {code}: {err[-200:]}"
    else:
        ok, detail = same_output(out, read_cli_golden(argv))
        failure = None if ok else "output_differs"
    ledger.op(argv[0], failure, detail=f"{' '.join(argv)} {detail}")
    ledger.stdout_bytes += len(out.encode())


def cli_run(task, ledger: Ledger, timer, env) -> bool:
    """One fresh CLI process.  A CLI task always runs to its end, so it always
    counts as completed."""
    argv = task["argv"]
    with timer:
        proc = subprocess.run([sys.executable, "-m", "qglattice.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
    _check_cli(ledger, argv, proc.returncode, proc.stdout, proc.stderr)
    return True


def cli_run_inprocess(task, ledger: Ledger, timer) -> bool:
    """The same CLI task replayed through ``qglattice.cli.main`` in this process."""
    import contextlib
    import io

    from qglattice import cli

    argv = task["argv"]
    out, err = io.StringIO(), io.StringIO()
    with timer, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    _check_cli(ledger, argv, code, out.getvalue(), err.getvalue())
    return True


# --------------------------------------------------------------------------
# warm-up: one minimal call to each public entry point a workload's tasks use

def warm_up(workload: str) -> None:
    from qglattice import lattice, star, verify  # noqa: F401  (verify: import cost)

    sq, hx = lattice.LatticeModel("square", 1.0), lattice.LatticeModel("hexagonal", 1.0)
    for model in (sq, hx):
        lattice.is_member(model, 0.5)
    if workload == "sheets":
        for model in (sq, hx):
            lattice.dispersion_sheets(model, 2, (-1.0, 1.0))
    elif workload == "claims":
        for model in (sq, hx):
            lattice.band_structure(model, (-1.0, 1.0))
            lattice.spectral_infimum(model)
        lattice.degenerate_band_lengths("square", (1.5, 1.6))
        star.bound_states(3)
    elif workload == "membership":
        for model in (sq, hx):
            lattice.band_structure(model, (-1.0, 1.0))
            lattice.brillouin_membership_oracle(model, 0.5, ORACLE_GRID)


def run_timed(workload: str, seed: int, seconds: float, tracer=None, inprocess_cli=False,
              env=None, first_block: int = 0):
    """Run whole blocks of the workload's task stream, from block
    ``first_block`` on, until at least ``seconds`` of task time are measured,
    so every run holds the same mix of tasks.

    Returns (latencies of completed tasks, ledger, extra).  A task that an
    exception aborts is not completed: its time counts as measured time but
    not as a latency, so fixing the defect does not lengthen tasks that only
    looked fast because they stopped early.  Checks, and one speed probe
    after each task, run outside the measured time; ``extra["tasks"]`` holds
    (seconds, speed probe seconds, completed) for every task.
    """
    ledger = Ledger(workload)
    latencies: list[float] = []
    extra = {"aborted": 0, "measured_s": 0.0, "blocks": 0, "tasks": []}
    blocks = {"sheets": sheets_tasks, "claims": claims_tasks,
              "membership": membership_tasks, "cli": cli_tasks}[workload](seed)
    for _ in range(first_block):
        next(blocks)
    if workload == "claims":
        run = functools.partial(claims_run, golden=_load_claims_golden())
    elif workload == "cli":
        run = cli_run_inprocess if inprocess_cli else functools.partial(cli_run, env=env)
    else:
        run = sheets_run if workload == "sheets" else membership_run
    task_id = 0
    while extra["measured_s"] < seconds:
        extra["blocks"] += 1
        for task in next(blocks):
            timer = Timer(tracer, task_id)
            task_id += 1
            completed = run(task, ledger, timer)
            extra["measured_s"] += timer.total
            extra["tasks"].append((timer.total, speed_probe(), completed))
            if completed:
                latencies.append(timer.total)
            else:
                extra["aborted"] += 1
    return latencies, ledger, extra


def speed_probe() -> float:
    """Seconds this process takes for a fixed pure-Python loop that calls no
    library code: the machine's speed at this moment.  Run right after a task
    or a set-up, it tracks the slow and fast states of a shared machine,
    which move the library's times alike."""
    t0 = time.perf_counter()
    s = 0
    for i in range(SPEED_PROBE_LOOPS):
        s += i * i
    return time.perf_counter() - t0


class Timer:
    """Accumulates the time of the operations of one task; turns tracing on
    only inside them, so checks between operations are never traced."""

    def __init__(self, tracer, task_id: int) -> None:
        self.tracer = tracer
        self.task_id = task_id
        self.total = 0.0
        self._t0 = 0.0

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.begin(self.task_id)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.total += time.perf_counter() - self._t0
        if self.tracer is not None:
            self.tracer.end()
        return False


def worker_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env
