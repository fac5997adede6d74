"""The benchmark's workloads: fixed ``mdopt`` command sequences and the checks
that their outputs must pass.

Each workload stresses different layers (see README.md):

* ``anneal``   -- ``minimize`` on every optimizer-relevant catalog problem;
  default 256^2 grids plus 1024^2 grids, whose 8 MiB f arrays exceed L2,
  and one Monte Carlo run.  Exercises ``nmd`` softmax passes and
  ``schedule``; never calls ``sets``.
* ``boundary`` -- ``sets`` and ``shrinkrate``: tens of thousands of small
  objective calls, scalar root solves and per-point moment recomputation.
* ``useq``     -- the uniform-sequence optimizer on grids up to 2048^2; grid
  construction and batch evaluation dominate.  Never calls ``nmd`` or
  ``sets``, so it is the control for changes to those modules.

This module uses only the standard library; the checks read the CSV/JSON
files each command writes.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

# Monte Carlo commands take the workload seed; every command receives it via
# --seed, and grid commands only record it in config.json.
_ANNEAL = [
    ["minimize", "--function", "paper1d"],
    ["minimize", "--function", "paper2d"],
    ["minimize", "--function", "rastrigin"],
    ["minimize", "--function", "ackley"],
    ["minimize", "--function", "doublewell"],
    ["minimize", "--function", "stability2d"],
    ["minimize", "--function", "paper2d", "--tau", "rational"],
    ["minimize", "--function", "paper2d", "--grid", "1024"],
    ["minimize", "--function", "rastrigin", "--grid", "1024"],
    ["minimize", "--function", "rastrigin", "--mc", "200000"],
]
_BOUNDARY = [
    ["sets", "--function", "paper2d", "--k", "0,1,4,16"],
    ["shrinkrate", "--function", "paper2d", "--k", "8"],
    ["shrinkrate", "--function", "stability2d", "--k", "8"],
    ["shrinkrate", "--function", "paper1d", "--k", "8"],
]
_USEQ = [
    ["useq", "--function", "paper2d", "--resolution", "1024"],
    ["useq", "--function", "paper2d", "--resolution", "2048"],
    ["useq", "--function", "rastrigin", "--resolution", "2048"],
    ["useq", "--function", "ackley", "--resolution", "2048"],
    ["useq", "--function", "paper1d", "--resolution", "65536"],
]
WORKLOADS = {"anneal": _ANNEAL, "boundary": _BOUNDARY, "useq": _USEQ}

# The reference kernel's parts that move with each workload's time as the
# host's speed moves (worker.Reference).  anneal's time is full-grid softmax
# passes, which the interpreter-bound parts track badly; boundary and useq
# mix Python loops, small numpy calls and large arrays.
REFERENCE_PARTS = {
    "anneal": ("l2", "large"),
    "boundary": ("scalar", "small", "l2", "large"),
    "useq": ("scalar", "small", "l2", "large"),
}

# Criterion 08's band for empirical/theoretical shrink rates.
RATIO_BAND = (0.95, 1.05)
# Slack for "estimate >= true minimum"; the oracle minima are accurate to
# about 1e-15, and every estimate is an average of f over member nodes.
FSTAR_SLACK = 1e-9


def commands(workload: str, seed: int) -> list[list[str]]:
    """The workload's CLI argument lists, without ``--out``."""
    return [[*argv, "--seed", str(seed)] for argv in WORKLOADS[workload]]


def true_fstar(oracles) -> dict[str, float]:
    """Global minima of the catalog problems the workloads run.

    paper1d and paper2d come from the frozen brute-force oracles; the others
    are analytic.
    """
    return {
        "paper1d": oracles.PAPER1D_FSTAR,
        "paper2d": oracles.PAPER2D_FSTAR,
        "rastrigin": 0.0,
        "ackley": 0.0,
        "doublewell": 0.0,
        "stability2d": 0.0,
    }


@dataclass(frozen=True)
class Check:
    """Outcome of one command's output check.

    ``fstar_err`` is |reported f* - true f*| for optimizer commands;
    ``ratio_err`` is the worst |empirical/theoretical - 1| for shrinkrate.
    Both are filled in whenever the outputs can be read, pass or fail.
    """

    ok: bool
    message: str = ""
    fstar_err: float | None = None
    ratio_err: float | None = None


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _function(argv: list[str]) -> str:
    return argv[argv.index("--function") + 1]


def check(argv: list[str], out: Path, fstar: dict[str, float]) -> Check:
    """Check the files one command wrote into ``out``."""
    command = argv[0]
    try:
        if command == "minimize":
            return _check_minimize(out, fstar[_function(argv)])
        if command == "sets":
            return _check_sets(out)
        if command == "shrinkrate":
            return _check_shrinkrate(out)
        if command == "useq":
            return _check_useq(out, fstar[_function(argv)])
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        return Check(False, f"unreadable output: {exc!r}")
    return Check(False, f"no check for command {command!r}")


def _check_minimize(out: Path, fstar: float) -> Check:
    """E^(k)(f) is non-increasing within twice the summed errors (criterion
    02) and the final value is not below the true minimum (lower bound)."""
    rows = _read_csv(out / "trace.csv")
    ef = [float(r["Ef"]) for r in rows]
    err = [float(r["Ef_error"]) for r in rows]
    reported = json.loads((out / "result.json").read_text())["fstar_estimate"]
    if not rows or not math.isfinite(reported):
        return Check(False, "empty trace or non-finite estimate")
    fstar_err = abs(reported - fstar)
    for j in range(1, len(ef)):
        if ef[j] - ef[j - 1] > 2.0 * (err[j - 1] + err[j]):
            return Check(False, f"Ef rises at stage {j}: {ef[j - 1]!r} -> {ef[j]!r}",
                         fstar_err=fstar_err)
    if ef[-1] < fstar - FSTAR_SLACK:
        return Check(False, f"final Ef {ef[-1]!r} below true f* {fstar!r}",
                     fstar_err=fstar_err)
    return Check(True, fstar_err=fstar_err)


def _check_sets(out: Path) -> Check:
    """Each set family's measure is non-increasing in k."""
    by_kind: dict[str, list[tuple[float, float]]] = {}
    for r in _read_csv(out / "measures.csv"):
        by_kind.setdefault(r["kind"], []).append((float(r["k"]), float(r["measure"])))
    if not by_kind:
        return Check(False, "measures.csv is empty")
    for kind, series in by_kind.items():
        series.sort()
        for (k0, m0), (k1, m1) in zip(series, series[1:]):
            if m1 > m0:
                return Check(False, f"{kind} measure grows from k={k0:g} to k={k1:g}")
    return Check(True)


def _check_shrinkrate(out: Path) -> Check:
    """Every measured/predicted boundary speed lies in criterion 08's band."""
    ratios = [float(r["ratio"]) for r in _read_csv(out / "shrinkrate.csv")]
    if not ratios:
        return Check(False, "shrinkrate.csv has no boundary samples")
    ratio_err = max(abs(q - 1.0) for q in ratios)
    lo, hi = RATIO_BAND
    bad = [q for q in ratios if not lo <= q <= hi]
    if bad:
        return Check(False, f"{len(bad)} ratios outside [{lo}, {hi}], e.g. {bad[0]!r}",
                     ratio_err=ratio_err)
    return Check(True, ratio_err=ratio_err)


def _check_useq(out: Path, fstar: float) -> Check:
    """Thresholds strictly decrease and the final one is not below f*."""
    thresholds = [float(r["threshold"]) for r in _read_csv(out / "useq.csv")]
    if not thresholds:
        return Check(False, "useq.csv is empty")
    final = thresholds[-1]
    fstar_err = abs(final - fstar)
    for j in range(1, len(thresholds)):
        if not thresholds[j] < thresholds[j - 1]:
            return Check(False, f"threshold does not decrease at iteration {j}",
                         fstar_err=fstar_err)
    if final < fstar - FSTAR_SLACK:
        return Check(False, f"final threshold {final!r} below true f* {fstar!r}",
                     fstar_err=fstar_err)
    return Check(True, fstar_err=fstar_err)
