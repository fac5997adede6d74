"""Command-line front end: minimize | sets | shrinkrate | useq | catalog.

Every command writes plot-friendly CSV plus a ``config.json`` with the fully
resolved parameters next to the outputs, so a run is reproducible from its
output directory alone.  Floats are written with 17 significant digits;
identical config and seed give byte-identical files.  One writer,
``_write_csv``, writes every CSV in blocks of rows and formats each distinct
float once per block, with the same bytes as formatting every cell.  ``_write_json``
writes JSON as ``json.dump(..., indent=2, sort_keys=True)`` does, but each integer
array (``masks.json``'s run lengths) from one ``%d`` template, not number by number.

Exit codes: 0 success, 2 usage error, 3 numerical failure (``error: <command>:
<message>`` on stderr).
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import schedule, sets as sets_mod, useq as useq_mod
from .integrate import IntegratorConfig, default_config
from .nmd import Exponential, NascentMD, Rational
from .objective import UnknownFunctionError, catalog_get, catalog_names


_ROWS = 4096  # rows formatted and written per block
_HOLE = "\x00ndarray\x00"  # where _write_json's stdlib text leaves out an array


def _cells(col: np.ndarray) -> list:
    """One block of a column as strings: each distinct float64 bit pattern
    formatted once with 17 significant digits, other values with ``str``.
    Deduplicating bits, not values, keeps ``-0.0`` apart from ``0.0``."""
    if col.dtype.kind != "f":
        return list(map(str, col.tolist()))
    bits, inverse = np.unique(col.astype(np.float64).view(np.int64), return_inverse=True)
    text = ("%.17g\n" * len(bits) % tuple(bits.view(np.float64).tolist())).split("\n")
    return np.array(text, dtype=object)[inverse].tolist()


def _write_csv(path: Path, columns: dict):
    """Write equal-length columns as CSV: floats with 17 significant digits,
    other values with ``str``, CRLF line ends (``csv.writer``'s bytes for
    values that need no quoting).  Rows go out in blocks of ``_ROWS``, so
    only one block's strings are held in memory."""
    cols = [np.asarray(col) for col in columns.values()]
    n = len(cols[0]) if cols else 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        for start in range(0, n, _ROWS):
            cells = [_cells(col[start:start + _ROWS]) for col in cols]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _array_template(shape: tuple, indent: int) -> str:
    """``json.dumps(..., indent=2)``'s layout of a nested list of this shape opened on a
    line indented by ``indent``, with ``%d`` for each number."""
    if not shape or shape[0] == 0:
        return "[]" if shape else "%d"
    pad = "\n" + " " * (indent + 2)
    row = _array_template(shape[1:], indent + 2)
    return "[" + pad + ("," + pad).join([row] * shape[0]) + "\n" + " " * indent + "]"


def _write_json(path: Path, payload):
    """Write ``json.dump(payload, indent=2, sort_keys=True)`` plus a newline, with each
    integer ndarray written as its ``tolist()`` would be.  The stdlib writes all but the
    arrays, each left as a placeholder; an array fills one ``%d`` template built from its
    shape and the indent of its placeholder's line.  Other ndarrays raise TypeError."""
    arrays = []

    def hole(a):
        if not (isinstance(a, np.ndarray) and a.dtype.kind in "iu"):
            raise TypeError(f"Object of type {type(a).__name__} is not JSON serializable")
        arrays.append(a)
        return _HOLE

    pieces = json.dumps(payload, indent=2, sort_keys=True, default=hole).split(json.dumps(_HOLE))
    if len(pieces) != len(arrays) + 1:  # a string in the payload is the placeholder
        pieces = [json.dumps(payload, indent=2, sort_keys=True,
                             default=lambda a: arrays.pop(0).tolist())]
    with open(path, "w") as fh:
        for head, a in zip(pieces, arrays):
            line = head[head.rfind("\n") + 1:]
            indent = len(line) - len(line.lstrip(" "))
            fh.write(head + _array_template(a.shape, indent) % tuple(a.ravel().tolist()))
        fh.write(pieces[-1] + "\n")


def _write_outputs(out: Path, files: dict, **resolved):
    """Create ``out`` and write the command's files (``.csv`` ones from columns,
    the others as JSON), then ``config.json``: the command name, its parsed
    options except ``--out``, and the values the command resolved from them."""
    ctx = click.get_current_context()
    out.mkdir(parents=True, exist_ok=True)
    for name, payload in files.items():
        (_write_csv if name.endswith(".csv") else _write_json)(out / name, payload)
    params = {k: v for k, v in ctx.params.items() if k != "out"}
    _write_json(out / "config.json", {"command": ctx.command.name, **params, **resolved})


def _rle(mask: np.ndarray) -> np.ndarray:
    """Run-length encode a boolean vector as an (n_runs, 2) int64 array of
    (value, run_length) rows; an empty mask gives no rows."""
    starts = np.flatnonzero(np.r_[mask.size > 0, mask[1:] != mask[:-1]])
    return np.stack([mask[starts], np.diff(starts, append=mask.size)], axis=1).astype(np.int64)


def _resolve(function, tau="exp", p=Rational.p, grid=None, mc=None, seed=0):
    if grid is not None and mc is not None:
        raise click.UsageError("--grid and --mc pick different integrators; give one")
    ctx = click.get_current_context()
    if tau != "rational" and ctx.get_parameter_source("p") is ParameterSource.COMMANDLINE:
        raise click.UsageError("--p applies only with --tau rational")
    try:
        obj, region = catalog_get(function)
    except UnknownFunctionError:
        raise click.UsageError(f"unknown function {function!r}; see `mdopt catalog`")
    tau_kind = Exponential() if tau == "exp" else Rational(p=p)
    if grid is not None:
        integ = IntegratorConfig(kind="grid", resolution=grid)
    elif mc is not None:
        integ = IntegratorConfig(kind="mc", n=mc, seed=seed)
    else:
        integ = default_config(region.dim, seed=seed)
    return obj, region, tau_kind, integ


def _finite(ctx, param, value):
    """Click callback: reject inf and nan, which the numeric ranges let through."""
    if not np.isfinite(value):
        raise click.BadParameter(f"{value} is not a finite number")
    return value


def common_options(f, density: bool = True):
    opts = [click.option("--function", required=True, help="catalog function name")]
    if density:
        opts += [
            click.option("--tau", type=click.Choice(["exp", "rational"]), default="exp",
                         show_default=True, help="density transform kind"),
            click.option("--p", type=click.FloatRange(0, min_open=True), default=Rational.p,
                         show_default=True, callback=_finite, help="rational transform offset"),
            click.option("--grid", type=click.IntRange(min=2), default=None,
                         help="grid resolution per axis (default picked per dimension)"),
            click.option("--mc", type=click.IntRange(min=100), default=None,
                         help="Monte Carlo sample count"),
        ]
    opts += [
        click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True),
        click.option("--out", type=click.Path(path_type=Path), default=Path("out"),
                     show_default=True, help="output directory"),
    ]
    for opt in reversed(opts):
        f = opt(f)

    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except click.ClickException:
            raise
        except Exception as exc:  # numerical/module failure -> exit 3
            click.echo(f"error: {click.get_current_context().command.name}: {exc}", err=True)
            sys.exit(3)
    return wrapper


def _config_defaults(ctx, param, path):
    """Click callback: the --config file as per-command defaults, a JSON object with one
    object per command; anything else is a usage error that names the file."""
    if path is None:
        return None
    try:
        with open(path) as fh:
            defaults = json.load(fh)
    except ValueError as exc:  # not JSON, or not text
        raise click.BadParameter(f"{path} is not valid JSON: {exc}")
    if not (isinstance(defaults, dict) and all(isinstance(v, dict) for v in defaults.values())):
        raise click.BadParameter(f"{path} must be a JSON object of one object per command")
    return defaults


@click.group()
@click.option("--config", "defaults", type=click.Path(exists=True), default=None,
              callback=_config_defaults,
              help="JSON file of per-command defaults; explicit flags win")
@click.pass_context
def main(ctx, defaults):
    """Global minimization via annealed densities on compact regions."""
    ctx.default_map = defaults


@main.command()
@common_options
@click.option("--k0", type=click.FloatRange(0, min_open=True),
              default=schedule.ContinuationConfig.k0, show_default=True, callback=_finite)
@click.option("--growth", type=click.FloatRange(1, min_open=True),
              default=schedule.ContinuationConfig.growth, show_default=True, callback=_finite)
@click.option("--stages", type=click.IntRange(min=1),
              default=schedule.ContinuationConfig.max_stages, show_default=True)
@click.option("--var-tol", type=click.FloatRange(0), default=schedule.ContinuationConfig.var_tol,
              show_default=True, callback=_finite)
def minimize(function, tau, p, grid, mc, seed, out, k0, growth, stages, var_tol):
    """Run the k-continuation and write trace.csv + result.json."""
    obj, region, tau_kind, integ = _resolve(function, tau, p, grid, mc, seed)
    cfg = schedule.ContinuationConfig(k0=k0, growth=growth, max_stages=stages,
                                      var_tol=var_tol, integrator=integ, tau=tau_kind)
    result = schedule.run_continuation(obj, region, cfg)
    trace = result.trace
    mean_x = np.array([rec.mean_x for rec in trace])
    _write_outputs(out, {
        "trace.csv": {
            "stage": range(len(trace)), "k": [rec.k for rec in trace],
            "Ef": [rec.Ef for rec in trace], "Ef_error": [rec.Ef_error for rec in trace],
            "Varf": [rec.Varf for rec in trace],
            **{f"mean_x{j}": mean_x[:, j] for j in range(region.dim)}},
        "result.json": {
            "fstar_estimate": result.fstar_estimate,
            "xstar_estimate": result.xstar_estimate.tolist(),
            "stop_reason": result.stop_reason,
            "stages": len(result.trace)},
    }, integrator=str(integ))
    click.echo(f"fstar_estimate={result.fstar_estimate:.17g} "
               f"stop={result.stop_reason} ({len(result.trace)} stages)")


@main.command("sets")
@common_options
@click.option("--k", required=True,
              help="comma-separated k values, e.g. 0,1,3,9")
@click.option("--profile-res", "profile_resolution", type=click.IntRange(min=2), default=None,
              help="resolution of the density profile output (default 1024 in 1-d, 128 in 2-d)")
def sets_cmd(function, tau, p, grid, mc, seed, out, k, profile_resolution):
    """Extract the three set families per k; write measures, masks, profiles."""
    try:
        ks = [float(s) for s in k.split(",") if s.strip() != ""]
    except ValueError as exc:
        raise click.UsageError(f"--k: {exc}")
    if not ks or not np.all(np.isfinite(ks)) or min(ks) < 0:
        raise click.UsageError("--k needs at least one value, none negative, all finite")
    obj, region, tau_kind, integ = _resolve(function, tau, p, grid, mc, seed)
    md0 = NascentMD(obj, region, tau=tau_kind, k=ks[0], integrator=integ)
    mesh = region.build_grid(integ.resolution)
    prof_res = profile_resolution or (1024 if region.dim == 1 else 128)
    prof_mesh = region.build_grid(prof_res)

    ms = [md0.with_k(k) for k in ks]
    found = [sets_mod.extract_set(m, kind, mesh) for m in ms for kind in sets_mod.SetKind]
    prof_f, log_tau = md0.mesh_values(prof_mesh), md0.resolved_tau().log_tau
    _write_outputs(out, {
        "measures.csv": {
            "k": [s.k for s in found], "kind": [s.kind.value for s in found],
            "measure": [s.measure for s in found], "threshold": [s.threshold for s in found]},
        "masks.json": [{"k": s.k, "kind": s.kind.value, "resolution": list(mesh.resolution),
                        "rle": _rle(s.mask)} for s in found],
        "density_profiles.csv": {
            "k": np.repeat(ks, prof_mesh.node_count),
            **{f"x{j}": np.tile(prof_mesh.nodes[:, j], len(ks)) for j in range(region.dim)},
            "density": np.concatenate([np.exp(log_tau(prof_f, m.k) - m.log_Z()) for m in ms])},
    }, k=ks, mesh_resolution=mesh.resolution[0], profile_resolution=prof_res)
    click.echo(f"wrote measures for k={ks} to {out}")


@main.command()
@common_options
@click.option("--k", type=click.FloatRange(0), default=8.0, show_default=True,
              callback=_finite)
@click.option("--dk", type=click.FloatRange(0, min_open=True), default=0.01, show_default=True,
              callback=_finite)
@click.option("--grad-min", type=float, default=0.1, show_default=True, callback=_finite,
              help="skip boundary points with smaller gradient norm")
def shrinkrate(function, tau, p, grid, mc, seed, out, k, dk, grad_min):
    """Compare predicted vs measured boundary speed of the D0 set."""
    if k + dk == k:
        raise click.UsageError(f"--dk {dk} leaves --k {k} unchanged: k + dk rounds to k")
    obj, region, tau_kind, integ = _resolve(function, tau, p, grid, mc, seed)
    m = NascentMD(obj, region, tau=tau_kind, k=k, integrator=integ)
    d0 = sets_mod.extract_set(m, sets_mod.SetKind.D0, region.build_grid(integ.resolution))
    pts, f = sets_mod._boundary_points(d0)  # f from the root solve, read by both rates
    g, gn = sets_mod._gradients(m, pts)
    keep = gn > grad_min
    pts, f, g, gn = pts[keep], f[keep], g[keep], gn[keep]
    descent = sets_mod._descent_rate(m, f)
    theo = np.abs(descent) / gn  # shrink_rate_theoretical, from norms already at hand
    emp = np.abs(sets_mod._boundary_move(m, pts, f, g, gn, dk)[0]) / dk
    ratio = np.divide(emp, theo, out=np.full_like(theo, np.nan), where=theo > 0)
    _write_outputs(out, {"shrinkrate.csv": {
        **{f"x{j}": pts[:, j] for j in range(region.dim)},
        "k": np.full(len(pts), k), "dk": np.full(len(pts), dk), "grad_norm": gn,
        "theoretical": theo, "empirical": emp, "ratio": ratio,
        "descent_rate": descent}}, mesh_resolution=integ.resolution)
    click.echo(f"{len(pts)} boundary samples written to {out}")


@main.command("useq")
@functools.partial(common_options, density=False)
@click.option("--resolution", type=click.IntRange(min=2), default=None,
              help="mesh resolution per axis (default 65536 in 1-d, 1024 in 2-d)")
@click.option("--max-iter", type=click.IntRange(min=1), default=64, show_default=True)
@click.option("--rel-tol", type=click.FloatRange(0), default=1e-6, show_default=True,
              callback=_finite)
def useq_cmd(function, seed, out, resolution, max_iter, rel_tol):
    """Run the shrinking-average optimizer and write the iteration trace.

    useq evaluates f on its own mesh (--resolution) and uses no density."""
    obj, region, _, _ = _resolve(function)
    res = resolution or (2 ** 16 if region.dim == 1 else 1024)
    states, fstar = useq_mod.useq_run(obj, region, res, max_iter=max_iter, rel_tol=rel_tol)
    _write_outputs(out, {"useq.csv": {
        name: [getattr(s, name) for s in states]
        for name in ("iteration", "threshold", "measure", "node_count", "best_value")}},
        resolution=res)
    click.echo(f"fstar_estimate={fstar:.17g} ({len(states)} states)")


@main.command()
def catalog():
    """List the registered functions with dimensions and default boxes."""
    for name in catalog_names():
        if name == "const<c>":
            click.echo("const<c>: dim 1, box [0, 1], constant value c")
            continue
        obj, region = catalog_get(name)
        bounds = ", ".join(f"[{lo:g}, {hi:g}]"
                           for lo, hi in zip(region.lower, region.upper))
        click.echo(f"{name}: dim {obj.dim}, box {bounds}")


if __name__ == "__main__":
    main()
