import csv
import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import mdopt.cli
import mdopt.sets
from mdopt.cli import _HOLE, _ROWS, _rle, _write_csv, _write_json, main
from mdopt.integrate import IntegratorConfig, default_config
from mdopt.nmd import Exponential, NascentMD, Rational
from mdopt.objective import Objective, catalog_get
from mdopt.region import box


@pytest.fixture
def runner():
    return CliRunner()


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_catalog_lists_functions(runner):
    result = runner.invoke(main, ["catalog"])
    assert result.exit_code == 0
    for name in ("paper1d", "paper2d", "stability1d"):
        assert name in result.output


def test_minimize_const_single_row(runner, tmp_path):
    out = tmp_path / "run"
    result = runner.invoke(main, ["minimize", "--function", "const3",
                                  "--out", str(out)])
    assert result.exit_code == 0
    rows = read_csv(out / "trace.csv")
    assert len(rows) == 1
    assert float(rows[0]["Ef"]) == pytest.approx(3.0)
    payload = json.loads((out / "result.json").read_text())
    assert payload["stop_reason"] == "var_tol"


def test_minimize_paper1d_monotone(runner, tmp_path):
    out = tmp_path / "run"
    result = runner.invoke(main, ["minimize", "--function", "paper1d",
                                  "--grid", "1024", "--stages", "8",
                                  "--var-tol", "0", "--out", str(out)])
    assert result.exit_code == 0
    efs = [float(r["Ef"]) for r in read_csv(out / "trace.csv")]
    assert all(b < a for a, b in zip(efs, efs[1:]))
    assert (out / "config.json").exists()
    with open(out / "trace.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["stage", "k", "Ef", "Ef_error", "Varf", "mean_x0"]
    assert len(rows) == 8 and all(len(r) == len(header) for r in rows)


def test_minimize_missing_function_usage_error(runner, tmp_path):
    result = runner.invoke(main, ["minimize", "--out", str(tmp_path)])
    assert result.exit_code == 2


def test_minimize_unknown_function_usage_error(runner, tmp_path):
    result = runner.invoke(main, ["minimize", "--function", "nope",
                                  "--out", str(tmp_path)])
    assert result.exit_code == 2


def test_sets_outputs(runner, tmp_path):
    out = tmp_path / "run"
    result = runner.invoke(main, ["sets", "--function", "paper1d",
                                  "--k", "0,1,3,9", "--grid", "1024",
                                  "--out", str(out)])
    assert result.exit_code == 0
    rows = read_csv(out / "measures.csv")
    assert len(rows) == 12  # 4 k values x 3 kinds
    for kind in ("Df", "Dtau", "D0"):
        measures = [float(r["measure"]) for r in rows if r["kind"] == kind]
        assert all(b <= a for a, b in zip(measures, measures[1:]))
    masks = json.loads((out / "masks.json").read_text())
    assert len(masks) == 12
    assert all(sum(run[1] for run in m["rle"]) == 1024 for m in masks)
    profiles = read_csv(out / "density_profiles.csv")
    assert {r["k"] for r in profiles} == {"0", "1", "3", "9"}


def test_sets_density_concentrates(runner, tmp_path):
    out = tmp_path / "run"
    runner.invoke(main, ["sets", "--function", "paper1d", "--k", "0,9",
                         "--grid", "1024", "--out", str(out)])
    rows = read_csv(out / "density_profiles.csv")
    peak = {k: max(float(r["density"]) for r in rows if r["k"] == k)
            for k in ("0", "9")}
    assert peak["9"] > 5 * peak["0"]


def _wrap_catalog(monkeypatch, record):
    """Make the CLI's catalog functions hand each batch of points to ``record``
    before evaluating f there."""
    def wrapped(name):
        obj, region = catalog_get(name)

        def fn(p):
            record(p)
            return obj.fn(p)
        return dataclasses.replace(obj, fn=fn), region
    monkeypatch.setattr(mdopt.cli, "catalog_get", wrapped)


@pytest.fixture
def f_evals(monkeypatch):
    """The number of points at which the CLI's catalog functions evaluate f."""
    count = [0]

    def add(p):
        count[0] += p.shape[0]
    _wrap_catalog(monkeypatch, add)
    return count


@pytest.fixture
def fn_batches(monkeypatch):
    """A copy of each batch of points at which the CLI's catalog functions
    evaluate f (a mesh slab's buffer is reused)."""
    batches = []
    _wrap_catalog(monkeypatch, lambda p: batches.append(p.copy()))
    return batches


def test_sets_evaluates_f_only_on_the_density_levels(runner, tmp_path, f_evals,
                                                     level_meshes):
    """The set mesh and the profile mesh have the two levels' layouts (256^2, 128^2),
    and every k and kind reads f from each level's one evaluation."""
    result = runner.invoke(main, ["sets", "--function", "paper2d", "--k", "0,1,4,16",
                                  "--out", str(tmp_path / "run")])
    assert result.exit_code == 0, result.output
    assert sorted(level_meshes) == [(128, 128), (256, 256)]
    assert f_evals[0] == 128 ** 2 + 256 ** 2 == 81_920


def test_shrinkrate_evaluates_the_finest_level_and_its_rate_points_once(
        runner, tmp_path, fn_batches, level_meshes):
    """log Z, the D0 mask and E log tau are read from the finest level alone, so the
    256^2 mesh is the one mesh evaluated; f at each boundary point that the rates are
    written for is evaluated once, by the root solve that found it, and both rates
    read that f."""
    out = tmp_path / "run"
    result = runner.invoke(main, ["shrinkrate", "--function", "paper2d", "--k", "8",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert level_meshes == [(256, 256)]
    rows = read_csv(out / "shrinkrate.csv")
    pts = np.array([[float(r["x0"]), float(r["x1"])] for r in rows])
    assert len(pts) > 0
    evaluated = Counter(map(bytes, np.concatenate(fn_batches)))
    assert all(evaluated[x.tobytes()] == 1 for x in pts)


@pytest.mark.parametrize("argv, repeats, points", [
    (["minimize", "--function", "paper2d"], 0, None),
    (["minimize", "--function", "rastrigin", "--mc", "20000", "--seed", "3"], 0, None),
    (["minimize", "--function", "paper1d", "--tau", "rational"], 0, None),
    (["sets", "--function", "paper2d", "--k", "0,1,4,16"], 0, None),
    (["sets", "--function", "paper1d", "--k", "0,1,3", "--mc", "3000"], 0, None),
    (["sets", "--function", "paper2d", "--tau", "rational", "--k", "0,4,16"], 0, None),
    (["sets", "--function", "paper2d", "--k", "0,1", "--grid", "64", "--profile-res", "48"],
     0, None),
    (["shrinkrate", "--function", "paper2d", "--k", "8"], 0, 71_658),
    (["shrinkrate", "--function", "stability2d", "--k", "8"], 0, 72_598),
    (["shrinkrate", "--function", "paper1d", "--k", "8"], 0, 1_072),
    (["shrinkrate", "--function", "ackley", "--k", "8"], 0, None),
    # three points' scan brackets close on the same crossing of the 1-d level, and
    # their rows step onto 4 of the same points; a solve holds points per row
    (["shrinkrate", "--function", "paper1d", "--dk", "16"], 4, None),
    (["shrinkrate", "--function", "paper1d", "--tau", "rational", "--grid", "256"], 0, None),
    (["shrinkrate", "--function", "paper1d", "--mc", "2000"], 0, None),
    (["useq", "--function", "paper2d", "--resolution", "256"], 0, None),
], ids=lambda v: ("-".join(a.lstrip("-") for a in v if a != "--function")
                  if isinstance(v, list) else None))
def test_each_command_evaluates_f_once_per_point(runner, tmp_path, fn_batches, argv,
                                                 repeats, points):
    """No row that fn receives during a command repeats an earlier one: the root
    solves take f at a point they hold, the rates read f from the solve that found
    their points, and the scan reads f at its own point from the caller.  The
    ``boundary`` benchmark's shrinkrate commands evaluate exactly ``points`` rows."""
    result = runner.invoke(main, [*argv, "--out", str(tmp_path / "run")])
    assert result.exit_code == 0, result.output
    rows = np.concatenate(fn_batches)
    assert len(rows) - len(np.unique(rows, axis=0)) == repeats
    assert points is None or len(rows) == points


def test_sets_evaluates_its_mc_set_mesh_once(runner, tmp_path, f_evals):
    """Under --mc the 1024^2 set mesh serves every k and kind from one evaluation,
    and the 128^2 profile mesh gets one more."""
    result = runner.invoke(main, ["sets", "--function", "paper2d", "--k", "0,1,4",
                                  "--mc", "1000", "--out", str(tmp_path / "run")])
    assert result.exit_code == 0, result.output
    assert f_evals[0] == 1024 ** 2 + 128 ** 2 + 1000


def test_set_meshes_off_the_density_levels(runner, tmp_path):
    """A profile resolution that no level has gets its own grid; under --mc the
    set mesh is a grid at the integrator's resolution."""
    out = tmp_path / "sets"
    result = runner.invoke(main, ["sets", "--function", "paper2d", "--k", "0,1", "--grid", "64",
                                  "--profile-res", "48", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert len(read_csv(out / "density_profiles.csv")) == 2 * 48 ** 2
    out = tmp_path / "shrinkrate"
    result = runner.invoke(main, ["shrinkrate", "--function", "paper1d", "--mc", "2000",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert json.loads((out / "config.json").read_text())["mesh_resolution"] == 1024


def test_sets_profile_round_trips_bit_for_bit(runner, tmp_path):
    """The profile's 2 x 16,384 rows span several writer blocks; every cell
    parses back to the exact float the command computed."""
    out = tmp_path / "run"
    result = runner.invoke(main, ["sets", "--function", "paper2d", "--k", "0,1",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = read_csv(out / "density_profiles.csv")
    assert len(rows) > 2 * _ROWS
    got = {name: np.array([float(r[name]) for r in rows]) for name in rows[0]}
    obj, region = catalog_get("paper2d")
    md0 = NascentMD(obj, region, k=0.0, integrator=default_config(2))
    mesh = region.build_grid(128)
    ks = [0.0, 1.0]
    log_tau = md0.resolved_tau().log_tau(md0.mesh_values(mesh))
    want = {"k": np.repeat(ks, len(mesh.nodes)),
            **{f"x{j}": np.tile(mesh.nodes[:, j], len(ks)) for j in range(2)},
            "density": np.concatenate([np.exp(m.k * log_tau - m.log_Z())
                                       for m in map(md0.with_k, ks)])}
    assert list(got) == list(want)
    for name, value in want.items():
        assert np.array_equal(got[name].view(np.int64), value.view(np.int64)), name


@pytest.mark.parametrize("argv", [
    ["minimize", "--function", "paper1d", "--grid", "1"],
    ["minimize", "--function", "paper1d", "--mc", "50"],
    ["minimize", "--function", "paper1d", "--stages", "0"],
    ["minimize", "--function", "paper1d", "--growth", "1"],
    ["minimize", "--function", "paper1d", "--k0", "0"],
    ["minimize", "--function", "paper1d", "--tau", "rational", "--p", "0"],
    ["minimize", "--function", "paper1d", "--mc", "1000", "--seed", "-1"],
    ["minimize", "--function", "paper1d", "--var-tol", "-1"],
    ["useq", "--function", "paper1d", "--resolution", "1"],
    ["useq", "--function", "paper1d", "--max-iter", "0"],
    ["useq", "--function", "paper1d", "--rel-tol", "-1"],
    ["sets", "--function", "paper1d", "--k", "1", "--profile-res", "1"],
    ["shrinkrate", "--function", "paper1d", "--dk", "0"],
    ["shrinkrate", "--function", "paper1d", "--k", "-1"],
], ids=lambda argv: argv[-2])
def test_out_of_range_option_usage_error(runner, tmp_path, argv):
    result = runner.invoke(main, [*argv, "--out", str(tmp_path / "run")])
    assert result.exit_code == 2, result.output
    assert argv[-2] in result.output
    assert not (tmp_path / "run").exists()


def test_shrinkrate_dk_that_leaves_k_unchanged_usage_error(runner, tmp_path):
    """--dk 1e-300 at the default --k 8 passes the range check, but k + dk rounds to k,
    so the measured move would be 0 divided by dk."""
    result = runner.invoke(main, ["shrinkrate", "--function", "paper1d", "--dk", "1e-300",
                                  "--out", str(tmp_path / "run")])
    assert result.exit_code == 2, result.output
    assert "--dk" in result.output and "unchanged" in result.output
    assert not (tmp_path / "run").exists()


_RATIONAL = (["--tau", "rational", "--p", "2"], {"tau": "rational", "p": 2.0})


@pytest.mark.parametrize("argv, parsed", [
    (["minimize", *_RATIONAL[0], "--mc", "200", "--k0", "2", "--growth", "3", "--stages", "2",
      "--var-tol", "0.001"],
     {**_RATIONAL[1], "grid": None, "mc": 200, "k0": 2.0, "growth": 3.0, "stages": 2,
      "var_tol": 0.001}),
    (["sets", *_RATIONAL[0], "--grid", "64", "--k", "0,2", "--profile-res", "32"],
     {**_RATIONAL[1], "grid": 64, "mc": None, "k": [0.0, 2.0], "profile_resolution": 32}),
    (["shrinkrate", *_RATIONAL[0], "--mc", "200", "--k", "4", "--dk", "0.02",
      "--grad-min", "0.2"],
     {**_RATIONAL[1], "grid": None, "mc": 200, "k": 4.0, "dk": 0.02, "grad_min": 0.2}),
    (["useq", "--resolution", "64", "--max-iter", "5", "--rel-tol", "0.001"],
     {"resolution": 64, "max_iter": 5, "rel_tol": 0.001}),
], ids=["minimize", "sets", "shrinkrate", "useq"])
def test_config_records_every_option(runner, tmp_path, argv, parsed):
    """config.json holds the command name and each option but --out, as parsed."""
    out = tmp_path / "run"
    result = runner.invoke(main, [*argv, "--function", "paper1d", "--seed", "3",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    config = json.loads((out / "config.json").read_text())
    assert "out" not in config
    assert config["command"] == argv[0]
    for name, value in {"function": "paper1d", "seed": 3, **parsed}.items():
        assert config[name] == value, name


@pytest.mark.parametrize("command", [["minimize"], ["sets", "--k", "1"], ["shrinkrate"]],
                         ids=lambda argv: argv[0])
@pytest.mark.parametrize("extra, named", [(["--grid", "64", "--mc", "500"], "--grid and --mc"),
                                          (["--p", "2"], "--p"),
                                          (["--tau", "exp", "--p", "2"], "--p")],
                         ids=["grid-and-mc", "p", "p-with-exp"])
def test_ignored_density_options_usage_error(runner, tmp_path, command, extra, named):
    """An option the run would drop is an error: one integrator at a time, and
    --p only with --tau rational."""
    result = runner.invoke(main, [*command, "--function", "paper1d", *extra,
                                  "--out", str(tmp_path / "run")])
    assert result.exit_code == 2, result.output
    assert named in result.output
    assert not (tmp_path / "run").exists()


def test_p_from_a_config_file_is_a_default(runner, tmp_path):
    """--p in a --config file is a per-command default, so an exp run takes it silently."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"minimize": {"p": 2.0}}))
    result = runner.invoke(main, ["--config", str(cfg), "minimize", "--function", "const3",
                                  "--out", str(tmp_path / "run")])
    assert result.exit_code == 0, result.output


def test_minimize_mc_integrator(runner, tmp_path):
    out = tmp_path / "run"
    result = runner.invoke(main, ["minimize", "--function", "paper1d", "--mc", "2000",
                                  "--stages", "3", "--out", str(out)])
    assert result.exit_code == 0, result.output
    integrator = json.loads((out / "config.json").read_text())["integrator"]
    assert "kind='mc'" in integrator and "n=2000" in integrator


def test_numerical_failure_exits_3_naming_the_point(runner, tmp_path, monkeypatch):
    obj = Objective(name="halfnan", dim=1,
                    fn=lambda p: np.where(p[:, 0] > 0.5, np.nan, p[:, 0]))
    monkeypatch.setattr(mdopt.cli, "catalog_get", lambda name: (obj, box(0.0, 1.0)))
    result = runner.invoke(main, ["minimize", "--function", "halfnan",
                                  "--out", str(tmp_path / "run")])
    assert result.exit_code == 3
    assert result.stderr.startswith("error: minimize: ")
    assert result.stderr.startswith("error: minimize: stage 0 (k = 1): ")
    assert "halfnan returned non-finite value at [" in result.stderr
    point = float(result.stderr.split("[")[1].split("]")[0])
    assert 0.5 < point <= 1.0


def test_shrinkrate_computes_gradients_once(runner, tmp_path, monkeypatch):
    """One gradient pass serves the --grad-min filter, the theoretical rate and
    the empirical rate's search direction; the CLI takes it from ``sets``."""
    calls = []
    gradient = mdopt.sets.gradient

    def counting(*args, **kwargs):
        calls.append(1)
        return gradient(*args, **kwargs)
    monkeypatch.setattr(mdopt.sets, "gradient", counting)
    result = runner.invoke(main, ["shrinkrate", "--function", "paper2d", "--k", "8",
                                  "--out", str(tmp_path / "run")])
    assert result.exit_code == 0, result.output
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["--function", "paper2d", "--k", "8"],
    ["--function", "stability2d", "--k", "8"],
    ["--function", "ackley", "--k", "8"],
    ["--function", "paper1d", "--dk", "16"],
    ["--function", "paper1d", "--tau", "rational", "--grid", "256"],
], ids=lambda v: "-".join(a.lstrip("-") for a in v if a != "--function"))
def test_shrinkrate_writes_the_public_rates(runner, tmp_path, argv):
    """The command hands f and the gradient at its boundary points to the rates' private
    cores; the columns it writes are, bit for bit, what ``shrink_rate_theoretical``,
    ``shrink_rate_empirical`` and ``descent_rate`` give at the written points (paper1d
    at --dk 16 roots some rows from the scan fallback)."""
    out = tmp_path / "run"
    result = runner.invoke(main, ["shrinkrate", *argv, "--out", str(out)])
    assert result.exit_code == 0, result.output
    cfg = json.loads((out / "config.json").read_text())
    obj, region = catalog_get(cfg["function"])
    tau = Rational(p=cfg["p"]) if cfg["tau"] == "rational" else Exponential()
    integ = (default_config(region.dim, seed=cfg["seed"]) if cfg["grid"] is None
             else IntegratorConfig(kind="grid", resolution=cfg["grid"]))
    m = NascentMD(obj, region, tau=tau, k=cfg["k"], integrator=integ)
    rows = read_csv(out / "shrinkrate.csv")
    assert len(rows) > 0
    pts = np.array([[float(r[f"x{j}"]) for j in range(region.dim)] for r in rows])
    col = {name: np.array([float(r[name]) for r in rows])
           for name in ("theoretical", "empirical", "descent_rate")}
    assert np.array_equal(col["theoretical"], mdopt.sets.shrink_rate_theoretical(m, pts))
    assert np.array_equal(col["empirical"], mdopt.sets.shrink_rate_empirical(m, pts, cfg["dk"]))
    assert np.array_equal(col["descent_rate"], mdopt.sets.descent_rate(m, pts))


@pytest.mark.parametrize("argv, passes", [
    (["shrinkrate", "--function", "paper2d", "--k", "8"], 3),
    (["sets", "--function", "paper2d", "--k", "0,1,4,16"], 16),
    (["minimize", "--function", "paper2d"], 20),
])
def test_weight_passes_per_command(runner, tmp_path, monkeypatch, argv, passes):
    """Every density sum is a weight pass, one per level for each reduction and one
    over the finest level for log Z at a k that no pass has seen or for E log tau:
    shrinkrate sums log Z at k and at k + dk and reduces E log tau at k once, over
    the finest level only; sets reduces E f and log E tau at each of its four k, and
    its D0 set reads log Z from the E f pass; minimize reduces its moments once per
    stage for ten stages."""
    calls = []
    reduce = NascentMD._reduce

    def counting(self, *args, **kwargs):
        calls.append(self.k)
        return reduce(self, *args, **kwargs)
    monkeypatch.setattr(NascentMD, "_reduce", counting)
    result = runner.invoke(main, [*argv, "--out", str(tmp_path / "run")])
    assert result.exit_code == 0, result.output
    assert len(calls) == passes


@pytest.mark.parametrize("argv, name", [
    (["minimize", "--k0", "inf"], "--k0"),
    (["minimize", "--growth", "inf"], "--growth"),
    (["minimize", "--var-tol", "nan"], "--var-tol"),
    (["sets", "--k", "0,inf"], "--k"),
    (["sets", "--k", "0,nan"], "--k"),
    (["sets", "--k", "0,one"], "--k"),
    (["shrinkrate", "--k", "inf"], "--k"),
    (["shrinkrate", "--dk", "inf"], "--dk"),
    (["shrinkrate", "--grad-min", "nan"], "--grad-min"),
    (["useq", "--rel-tol", "nan"], "--rel-tol"),
    *[([command, *extra, "--tau", "rational", "--p", p], "--p")
      for command, extra in (("minimize", []), ("sets", ["--k", "1"]), ("shrinkrate", []))
      for p in ("nan", "inf")],
], ids=["k0-inf", "growth-inf", "var-tol-nan", "sets-k-inf", "sets-k-nan", "sets-k-text",
        "shrinkrate-k-inf", "shrinkrate-dk-inf", "shrinkrate-grad-min-nan", "useq-rel-tol-nan",
        *[f"{command}-p-{p}" for command in ("minimize", "sets", "shrinkrate")
          for p in ("nan", "inf")]])
def test_non_finite_or_malformed_option_usage_error(runner, tmp_path, argv, name):
    result = runner.invoke(main, [*argv, "--function", "paper1d",
                                  "--out", str(tmp_path / "run")])
    assert result.exit_code == 2, result.output
    assert name in result.output
    assert not (tmp_path / "run").exists()


def test_overflowing_ladder_exits_3_naming_stage_and_k(runner, tmp_path):
    result = runner.invoke(main, ["minimize", "--function", "paper1d", "--growth", "1e300",
                                  "--var-tol", "0", "--stages", "3",
                                  "--out", str(tmp_path / "run")])
    assert result.exit_code == 3
    assert "stage 2: k = 1 * 1e+300^2 is not a finite float" in result.stderr


def test_sets_empty_k_usage_error(runner, tmp_path):
    result = runner.invoke(main, ["sets", "--function", "paper1d",
                                  "--k", "", "--out", str(tmp_path)])
    assert result.exit_code == 2


def test_sets_negative_k_usage_error(runner, tmp_path):
    result = runner.invoke(main, ["sets", "--function", "paper1d",
                                  "--k", "0,-1", "--out", str(tmp_path / "run")])
    assert result.exit_code == 2
    assert "none negative" in result.output
    assert not (tmp_path / "run").exists()


def test_shrinkrate_ratios(runner, tmp_path):
    out = tmp_path / "run"
    result = runner.invoke(main, ["shrinkrate", "--function", "paper1d",
                                  "--k", "8", "--dk", "0.01", "--grid", "2048",
                                  "--out", str(out)])
    assert result.exit_code == 0
    rows = read_csv(out / "shrinkrate.csv")
    assert rows
    for r in rows:
        assert 0.95 <= float(r["ratio"]) <= 1.05


def test_useq_strictly_decreasing(runner, tmp_path):
    out = tmp_path / "run"
    result = runner.invoke(main, ["useq", "--function", "paper2d",
                                  "--resolution", "256", "--out", str(out)])
    assert result.exit_code == 0
    rows = read_csv(out / "useq.csv")
    ts = [float(r["threshold"]) for r in rows]
    assert all(b <= a for a, b in zip(ts, ts[1:]))
    assert sum(b < a for a, b in zip(ts, ts[1:])) >= len(ts) - 2


def test_config_file_defaults(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"minimize": {"function": "const3",
                                            "out": str(tmp_path / "cfgout")}}))
    result = runner.invoke(main, ["--config", str(cfg), "minimize"])
    assert result.exit_code == 0
    assert (tmp_path / "cfgout" / "trace.csv").exists()


@pytest.mark.parametrize("text", ["{bad", "[1]", '{"minimize": 3}'],
                         ids=["not-json", "list", "section-not-object"])
def test_malformed_config_file_usage_error(runner, tmp_path, text):
    """A --config file that is not JSON, not an object, or has a command section that
    is not an object exits 2 with a message naming the file, before any command runs."""
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    result = runner.invoke(main, ["--config", str(cfg), "minimize", "--function", "const3",
                                  "--out", str(tmp_path / "run")])
    assert result.exit_code == 2, result.output
    assert "--config" in result.output and str(cfg) in result.output
    assert not (tmp_path / "run").exists()


def test_byte_identical_reruns(runner, tmp_path):
    args = ["minimize", "--function", "paper1d", "--grid", "512",
            "--stages", "5", "--var-tol", "0"]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert runner.invoke(main, args + ["--out", str(out)]).exit_code == 0
        outs.append(out)
    for fname in ("trace.csv", "result.json", "config.json"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        if fname == "config.json":
            a = a.replace(str(outs[0]).encode(), b"OUT")
            b = b.replace(str(outs[1]).encode(), b"OUT")
        assert a == b, fname


@pytest.mark.parametrize("extra", [["--grid", "64"], ["--mc", "1000"],
                                   ["--tau", "rational"], ["--p", "2"]])
def test_useq_rejects_density_options(runner, tmp_path, extra):
    result = runner.invoke(main, ["useq", "--function", "paper2d", "--resolution", "64",
                                  *extra, "--out", str(tmp_path / "run")])
    assert result.exit_code == 2
    assert extra[0] in result.output
    assert not (tmp_path / "run").exists()


def test_useq_records_seed(runner, tmp_path):
    out = tmp_path / "run"
    result = runner.invoke(main, ["useq", "--function", "paper2d", "--resolution", "64",
                                  "--seed", "5", "--out", str(out)])
    assert result.exit_code == 0
    assert json.loads((out / "config.json").read_text())["seed"] == 5


def test_shrinkrate_k0_writes_header_only(runner, tmp_path):
    out = tmp_path / "run"
    result = runner.invoke(main, ["shrinkrate", "--function", "paper2d", "--k", "0",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = (out / "shrinkrate.csv").read_text().splitlines()
    assert lines == ["x0,x1,k,dk,grad_norm,theoretical,empirical,ratio,descent_rate"]


def test_cli_import_loads_no_scipy():
    code = ("import sys, mdopt.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("n", [6, 0])
def test_write_csv_matches_csv_writer(tmp_path, n):
    floats = [-0.0, float("inf"), float("nan"), 1e16, 5e-324, 0.1][:n]
    ints = [0, -3, 7, 2 ** 40, 12, 1][:n]
    strs = ["Df", "Dtau", "D0", "a b", "x", ""][:n]
    columns = {"i": ints, "s": strs, "f": floats, "ai": np.array(ints, dtype=np.int64),
               "af": np.array(floats, dtype=float)}
    _write_csv(tmp_path / "new.csv", columns)
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(list(columns))
        for row in zip(ints, strs, floats, ints, floats):
            w.writerow([format(v, ".17g") if isinstance(v, float) else str(v) for v in row])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# values that format alike but differ in bits, and the ends of the float range
_SPECIAL = [0.0, -0.0, float(np.copysign(np.nan, -1.0)), np.nan, np.inf, -np.inf, 5e-324]


@settings(derandomize=True, deadline=None, max_examples=30)
@given(n=st.sampled_from([0, 1, _ROWS - 1, _ROWS, _ROWS + 1, 2 * _ROWS + 3]),
       floats=st.lists(st.floats(), max_size=6), words=st.lists(
           st.text("abcDf0 _-.", max_size=4), min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_write_csv_matches_csv_writer_across_blocks(tmp_path_factory, n, floats, words, seed):
    """Block by block, with values repeating inside and across blocks, the
    writer's bytes equal csv.writer's with format(v, ".17g") and str cells."""
    rng = np.random.default_rng(seed)
    pool = np.array(_SPECIAL + floats)
    f64 = pool[rng.integers(len(pool), size=n)]
    f64[:len(_SPECIAL)] = _SPECIAL[:n]  # 0.0 and -0.0 in the first block
    with np.errstate(over="ignore"):  # float32 overflows to inf, a value like any other
        f32 = f64.astype(np.float32)
    columns = {"f64": f64, "f32": f32,
               "i": rng.integers(-3, 3, size=n) * 2 ** 40, "b": rng.random(n) < 0.5,
               "s": [words[i] for i in rng.integers(len(words), size=n)], "r": range(n)}
    path = tmp_path_factory.mktemp("csv")
    _write_csv(path / "new.csv", columns)
    cells = []
    for col in map(np.asarray, columns.values()):
        fmt = (lambda v: format(v, ".17g")) if col.dtype.kind == "f" else str
        cells.append(map(fmt, col.tolist()))
    with open(path / "ref.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(list(columns))
        w.writerows(zip(*cells))
    assert (path / "new.csv").read_bytes() == (path / "ref.csv").read_bytes()


def _listed(payload):
    """``payload`` with every ndarray replaced by its ``tolist()``."""
    if isinstance(payload, np.ndarray):
        return payload.tolist()
    if isinstance(payload, dict):
        return {k: _listed(v) for k, v in payload.items()}
    if isinstance(payload, list):
        return [_listed(v) for v in payload]
    return payload


_INT_ARRAYS = hnp.arrays(
    dtype=st.sampled_from([np.int8, np.int16, np.int32, np.int64,
                           np.uint8, np.uint16, np.uint32, np.uint64]),
    shape=st.one_of(st.sampled_from([(0,), (0, 2)]), st.tuples(st.integers(1, 6)),
                    st.tuples(st.integers(1, 6), st.just(2)),
                    st.tuples(st.integers(1, 3), st.integers(1, 3), st.just(2))))
# the placeholder string itself too, which sends the writer down the stdlib path
_JSON_LEAVES = st.one_of(_INT_ARRAYS, st.text(max_size=6), st.just(_HOLE), st.floats(),
                         st.integers(), st.none(), st.booleans())


@pytest.fixture(scope="module")
def json_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("json")


@settings(derandomize=True, deadline=None, max_examples=300)
@given(payload=st.recursive(_JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12))
def test_write_json_matches_stdlib_indenter(json_dir, payload):
    """Integer arrays of any int dtype, negative values, empty and nested shapes,
    under dict keys and in lists next to strings, floats, None and bools: the
    bytes equal the stdlib's indent=2, sort_keys=True dump of the tolist() form."""
    path = json_dir / "out.json"
    _write_json(path, payload)
    want = json.dumps(_listed(payload), indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == want.encode()


@pytest.mark.parametrize("leaf", [np.array([0.5, 1.0]), np.array([True, False]),
                                  np.array([[1.0]]), np.int64(3)])
def test_write_json_rejects_non_integer_arrays(tmp_path, leaf):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        _write_json(tmp_path / "out.json", {"a": [1, leaf]})


def _check_rle(mask):
    """_rle's rows are maximal runs of 0 or 1 that decode back to ``mask``."""
    runs = _rle(mask)
    assert runs.dtype == np.int64 and runs.shape == (len(runs), 2)
    assert np.array_equal(np.repeat(runs[:, 0].astype(bool), runs[:, 1]), mask)
    assert np.isin(runs[:, 0], [0, 1]).all() and np.all(runs[:, 1] > 0)
    assert np.all(runs[1:, 0] != runs[:-1, 0])


@pytest.mark.parametrize("mask", [[], [True], [False], [True] * 5, [False] * 5,
                                  [True, False] * 4, [False, True] * 4 + [False]])
def test_rle_round_trips_simple_masks(mask):
    _check_rle(np.array(mask, dtype=bool))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(n=st.integers(0, 300), p=st.floats(0, 1), seed=st.integers(0, 2 ** 32 - 1))
def test_rle_round_trips_random_masks(n, p, seed):
    _check_rle(np.random.default_rng(seed).random(n) < p)


@pytest.mark.parametrize("function, extra, integ", [
    ("paper2d", ["--k", "0,1,4,16", "--grid", "128"], IntegratorConfig("grid", resolution=128)),
    ("paper1d", ["--k", "0,1,3", "--mc", "2000"], IntegratorConfig("mc", n=2000, seed=0)),
])
def test_masks_json_bytes_are_the_indented_list_of_pairs(runner, tmp_path, function, extra,
                                                         integ):
    """masks.json is the stdlib's indent=2, sort_keys=True dump of a list of
    {k, kind, resolution, rle} records, each rle a list of [value, run_length]
    pairs, plus a newline."""
    out = tmp_path / "run"
    result = runner.invoke(main, ["sets", "--function", function, *extra, "--out", str(out)])
    assert result.exit_code == 0, result.output
    obj, region = catalog_get(function)
    ks = [float(k) for k in extra[1].split(",")]
    mesh = region.build_grid(integ.resolution)
    md0 = NascentMD(obj, region, k=ks[0], integrator=integ)
    records = []
    for m in map(md0.with_k, ks):
        for kind in mdopt.sets.SetKind:
            s = mdopt.sets.extract_set(m, kind, mesh)
            v = s.mask.astype(int)
            starts = np.flatnonzero(np.diff(v, prepend=-1))
            runs = np.diff(starts, append=v.size)
            records.append({"k": s.k, "kind": s.kind.value, "resolution": list(mesh.resolution),
                            "rle": [[int(v[i]), int(n)] for i, n in zip(starts, runs)]})
    assert max(len(r["rle"]) for r in records) > 3
    want = json.dumps(records, indent=2, sort_keys=True) + "\n"
    assert (out / "masks.json").read_bytes() == want.encode()
