"""Command-line front end: minimize | sets | shrinkrate | useq | catalog.

Every command writes plot-friendly CSV plus a ``config.json`` with the fully
resolved parameters next to the outputs, so a run is reproducible from its
output directory alone.  Floats are written with 17 significant digits;
identical config and seed give byte-identical files.  One writer,
``_write_csv``, writes every CSV in blocks of rows and formats each distinct
float once per block, with the same bytes as formatting every cell.  A block with
at least ``_VECTOR_MIN`` distinct floats goes through ``_g17``, an exact vectorized
formatter whose bytes are those of ``format(v, ".17g")``; ``%`` formats smaller
blocks and the values ``_g17`` cannot prove.  ``_write_json`` writes JSON as
``json.dump(..., indent=2, sort_keys=True)`` does, but each integer array
(``masks.json``'s run lengths) from one ``%d`` template, not number by number.

Exit codes: 0 success, 2 usage error, 3 numerical failure (``error: <command>:
<message>`` on stderr).
"""

from __future__ import annotations

import functools
import json
import math
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
# distinct floats in a block from which _g17 formats them rather than %: it beats %
# from about 128 values on a 2-CPU x86-64 host, but its first call builds its
# tables (about 2 ms)
_VECTOR_MIN = 512
_WIDTH = 24  # bytes of the longest %.17g text, "-2.2250738585072014e-308"
_HOLE = "\x00ndarray\x00"  # where _write_json's stdlib text leaves out an array

# _g17 scales |x| by 10^e for e = 16 - X, X = floor(log10|x|) give or take one
_SCALES = range(16 - 281, 16 + 282)
# byte offsets in the 32-byte row that _g17 lays each value out from: 17 digits,
# ".0-e", the exponent's sign and three digits, then NUL
_DIGIT0, _DOT, _ZERO, _MINUS, _EXP_E, _EXP_SIGN, _NUL = 3, 20, 21, 22, 23, 24, 28


def _g17_layout(exponent: int | None, digits: int, exp_digits: int = 2) -> bytes:
    """Source-byte offsets of one unsigned %.17g shape, padded with NUL to ``_WIDTH``:
    fixed notation at decimal ``exponent`` (None: d.ddde±XX with ``exp_digits``
    exponent digits) with ``digits`` significant digits."""
    run = list(range(_DIGIT0, _DIGIT0 + digits))
    if exponent is None:
        out = run[:1] + [_DOT] * (digits > 1) + run[1:] + [_EXP_E, _EXP_SIGN]
        out += [_EXP_SIGN + 1, _EXP_SIGN + 2, _EXP_SIGN + 3][-exp_digits:]
    elif exponent >= 0:  # the integer digits, zeros included, then any fraction
        whole = exponent + 1
        out = run[:whole] + [_ZERO] * (whole - digits) + [_DOT] * (digits > whole) + run[whole:]
    else:
        out = [_ZERO, _DOT] + [_ZERO] * (-exponent - 1) + run
    return bytes(out + [_NUL] * (_WIDTH - len(out)))


@functools.cache
def _g17_tables() -> tuple:
    """_g17's lookup tables, built on its first call from Python ints.

    10^e for e in ``_SCALES`` as a double-double hi + lo (relative error below 2^-105),
    with hi also split in Dekker's 26-bit halves; every 4-digit group as a
    little-endian word of ASCII digits and its count of trailing zeros; each decimal
    exponent in [-300, 300) as a word of its sign and three digits; and the layout of
    every shape: fixed notation (exponent -4..16, 1..17 digits), then exponent
    notation (1..17 digits, 2 or 3 exponent digits), all unsigned, then all signed."""
    hi, lo = [], []
    for e in _SCALES:
        if e >= 0:
            p = 10 ** e
            hi.append(float(p))
            lo.append(float(p - int(hi[-1])))
        else:  # 2^k // 10^-e has at least 117 bits
            k = 117 + (-e * 3322 + 999) // 1000
            q = (1 << k) // 10 ** -e
            hi.append(math.ldexp(float(q), -k))
            lo.append(math.ldexp(float(q - int(float(q))), -k))
    hi, lo = np.array(hi), np.array(lo)
    split = hi * 134217729.0
    hi_h = split - (split - hi)
    ascii4 = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                      axis=-1).reshape(10000, 4)
    i = np.arange(10000)
    group_tz = sum(i % 10 ** j == 0 for j in range(1, 5))
    e = np.arange(-300, 300)
    sign = np.where(e < 0, ord("-"), ord("+")).astype(np.uint8)
    exp_word = np.concatenate([sign[:, None], ascii4[np.abs(e), 1:]], axis=1)
    layout = [_g17_layout(x, d) for x in range(-4, 17) for d in range(1, 18)]
    layout += [_g17_layout(None, d, ed) for d in range(1, 18) for ed in (2, 3)]
    layout = np.frombuffer(b"".join(layout), dtype=np.uint8).reshape(-1, _WIDTH)
    signed = np.concatenate([np.full((len(layout), 1), _MINUS, np.uint8), layout[:, :-1]], axis=1)
    return (hi, hi_h, hi - hi_h, lo, ascii4.view("<u4").ravel(), group_tz,
            exp_word.view("<u4").ravel(), np.concatenate([layout, signed]).astype(np.intp))


def _g17_percent(x: np.ndarray) -> np.ndarray:
    """``('%.17g' % v).encode()`` for each v of float64 ``x``, as the rows of a
    (len(x), ``_WIDTH``) uint8 array padded with NUL."""
    text = ("%.17g\n" * len(x) % tuple(x.tolist())).split("\n")[:-1]
    return np.array(text, dtype=f"S{_WIDTH}").view(np.uint8).reshape(len(x), _WIDTH)


def _g17_digits(x: np.ndarray) -> tuple:
    """(n, X, ok) for each v of float64 ``x``: X = floor(log10|v|) and the 17 digits
    n = |v|·10^(16-X) rounded to an integer, where ``ok``.

    |v| times 10^(16-X) as a double-double is exact to within 1e-14 there: Dekker's
    TwoProduct gives |v|·hi exactly as the double h plus a remainder, and |v|·lo adds
    the rest.  ``ok`` is False for zeros, inf and nan; for |v| outside [1e-280, 1e280],
    where lo leaves the normal range; for a log10 that misses the decade (n outside
    [10^16, 10^17), which includes a carry to 10^17: that needs v within 5e-18 below
    a power of ten and a log10 an ulp low there); and for fractions within 1e-9 of 1/2,
    which hold every exact tie that rounds half to even."""
    hi, hi_h, hi_l, lo = _g17_tables()[:4]
    a = np.abs(x)
    ok = (a >= 1e-280) & (a <= 1e280)
    a[~ok] = 1.0
    exponent = np.floor(np.log10(a)).astype(np.int64)
    i = (16 - _SCALES.start) - exponent
    h = a * hi[i]
    split = a * 134217729.0
    a_h = split - (split - a)
    a_l = a - a_h
    bh, bl = hi_h[i], hi_l[i]
    frac = ((a_h * bh - h) + a_h * bl + a_l * bh) + a_l * bl  # a·hi - h, exactly
    frac += a * lo[i]
    whole = np.floor(frac)
    frac -= whole
    n = h.astype(np.int64) + whole.astype(np.int64)  # h >= 2^53 is an integer
    ok &= (n >= 10 ** 16) & (np.abs(frac - 0.5) > 1e-9)
    n += frac > 0.5
    ok &= n < 10 ** 17
    return n, exponent, ok


def _g17(x: np.ndarray) -> np.ndarray:
    """``_g17_percent(x)``, the bytes of ``'%.17g' % v`` for each v, vectorized: the
    digits of ``_g17_digits`` laid out by shape (sign, fixed or exponent notation, X,
    significant digits), and the rows it cannot prove formatted with %."""
    group, group_tz, exp_word, layout = _g17_tables()[4:]
    n, exponent, ok = _g17_digits(x)
    head = n // 10 ** 8  # the first 9 digits
    n -= head * 10 ** 8
    d0 = head // 10 ** 8
    head -= d0 * 10 ** 8
    g = (head // 10 ** 4, head % 10 ** 4, n // 10 ** 4, n % 10 ** 4)
    src = np.empty((len(x), 8), dtype="<u4")  # the 32-byte rows, as words
    src[:, 0] = (d0 + ord("0")) << 24
    for j in range(4):
        src[:, j + 1] = group[g[j]]
    src[:, 5] = np.frombuffer(b".0-e", dtype="<u4")[0]
    src[:, 6] = exp_word[exponent + 300]
    src[:, 7] = 0
    zeros = group_tz[g[3]] + (g[3] == 0) * (group_tz[g[2]] + (g[2] == 0) * (
        group_tz[g[1]] + (g[1] == 0) * group_tz[g[0]]))
    fixed = (exponent >= -4) & (exponent < 17)
    shape = np.where(fixed, (exponent + 4) * 17 + 16 - zeros,
                     21 * 17 + (16 - zeros) * 2 + (np.abs(exponent) >= 100))
    shape[np.signbit(x)] += len(layout) // 2
    out = np.empty((len(x), _WIDTH), dtype=np.uint8)
    for start in range(0, len(x), 1024):  # the byte offsets of 1024 rows take 192 KiB
        rows = slice(start, start + 1024)
        index = layout[shape[rows]]
        index += np.arange(32 * start, 32 * start + 32 * len(index), 32)[:, None]
        src.view(np.uint8).ravel().take(index, out=out[rows], mode="clip")
    bad = np.flatnonzero(~ok)
    out[bad] = _g17_percent(x[bad])
    return out


def _block(cols: list) -> bytes:
    """One block of rows as CSV bytes.  Each column's cells are the NUL-padded rows
    of a byte array, floats from their distinct bit patterns (so ``-0.0`` stays apart
    from ``0.0``), all formatted in one call.  They fill a line array between
    commas, ending in CRLF, and the padding is dropped, so no cell may hold a NUL."""
    rows = len(cols[0])
    keys = [np.unique(col.astype(np.float64).view(np.int64), return_inverse=True)
            if col.dtype.kind == "f" else None for col in cols]
    distinct = np.concatenate([np.empty(0, np.int64)]
                              + [key[0] for key in keys if key is not None]).view(np.float64)
    text = (_g17 if len(distinct) >= _VECTOR_MIN else _g17_percent)(distinct)
    fields, start = [], 0
    for col, key in zip(cols, keys):
        if key is None:
            cells = np.array([s.encode() for s in map(str, col.tolist())])
            fields.append((cells.view(np.uint8).reshape(rows, -1), np.arange(rows)))
        else:
            bits, inverse = key
            cells = text[start:start + len(bits)]
            start += len(bits)
            fields.append((cells[:, :np.count_nonzero(cells.any(axis=0))], inverse))
    lines = np.full((rows, sum(c.shape[1] + 1 for c, _ in fields) + 1), ord(","), np.uint8)
    at = 0
    for cells, inverse in fields:  # "clip" takes into the strided out without a buffer
        cells.take(inverse, axis=0, out=lines[:, at:at + cells.shape[1]], mode="clip")
        at += cells.shape[1] + 1
    lines[:, -2:] = np.frombuffer(b"\r\n", dtype=np.uint8)
    return lines.tobytes().translate(None, b"\0")


def _write_csv(path: Path, columns: dict):
    """Write equal-length columns as CSV: floats as ``format(v, ".17g")``, other values
    with ``str``, CRLF line ends (``csv.writer``'s bytes for values that need no
    quoting).  Rows go out in blocks of ``_ROWS``, so only one block's bytes are held
    in memory."""
    cols = [np.asarray(col) for col in columns.values()]
    n = len(cols[0]) if cols else 0
    with open(path, "wb") as fh:
        fh.write(",".join(columns).encode() + b"\r\n")
        for start in range(0, n, _ROWS):
            fh.write(_block([col[start:start + _ROWS] for col in cols]))


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
