import csv
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from mdopt.cli import main
from mdopt.integrate import IntegratorConfig
from mdopt import nmd
from mdopt.nmd import NascentMD, Rational
from mdopt.objective import Objective, catalog_get, catalog_names
from mdopt.region import box
from mdopt.schedule import ContinuationConfig, run_continuation

import oracles


GRID_1D = IntegratorConfig(kind="grid", resolution=4096)


def test_constant_stops_immediately():
    obj, region = catalog_get("const3")
    result = run_continuation(obj, region)
    assert result.stop_reason == "var_tol"
    assert len(result.trace) == 1
    assert result.fstar_estimate == pytest.approx(3.0, abs=1e-12)


def test_paper1d_monotone_and_converged(paper1d_oracle):
    _, fs = paper1d_oracle
    obj, region = catalog_get("paper1d")
    cfg = ContinuationConfig(max_stages=13, var_tol=0.0, integrator=GRID_1D)
    result = run_continuation(obj, region, cfg)
    efs = [r.Ef for r in result.trace]
    assert all(b < a for a, b in zip(efs, efs[1:]))
    assert abs(result.fstar_estimate - fs) < 0.05
    assert result.fstar_estimate == result.trace[-1].Ef


def test_lower_bound_along_trace(paper1d_oracle):
    _, fs = paper1d_oracle
    obj, region = catalog_get("paper1d")
    cfg = ContinuationConfig(max_stages=10, integrator=GRID_1D)
    result = run_continuation(obj, region, cfg)
    for rec in result.trace:
        assert rec.Ef >= fs - rec.Ef_error - 1e-9


def test_schedule_is_geometric():
    obj, region = catalog_get("paper1d")
    cfg = ContinuationConfig(k0=2.0, growth=3.0, max_stages=5, var_tol=0.0,
                             integrator=GRID_1D)
    result = run_continuation(obj, region, cfg)
    ks = [r.k for r in result.trace]
    for a, b in zip(ks, ks[1:]):
        assert b / a == pytest.approx(3.0, rel=1e-15)


def test_quadratic_mean_converges_to_origin():
    obj, region = catalog_get("quadratic")
    cfg = ContinuationConfig(max_stages=10, var_tol=0.0,
                             integrator=IntegratorConfig(kind="grid", resolution=256))
    result = run_continuation(obj, region, cfg)
    assert np.linalg.norm(result.xstar_estimate) < 0.05


@pytest.mark.parametrize("name", [n for n in catalog_names() if n != "const<c>"])
def test_xstar_is_no_worse_than_fstar(name):
    """x* is the max-weight node, and min f never exceeds a weighted mean of f;
    the weights can sum to 1 - eps, hence the slack."""
    obj, region = catalog_get(name)
    result = run_continuation(obj, region)
    fstar = result.fstar_estimate
    assert obj(result.xstar_estimate) <= fstar + 1e-12 * max(1.0, abs(fstar))
    md = NascentMD(obj, region)
    fine = md.levels()[-1]
    assert result.xstar_estimate.tobytes() == fine.nodes[np.argmin(fine.f)].tobytes()
    log_tau = md.resolved_tau().log_tau(fine.f)
    assert result.xstar_estimate.tobytes() == fine.nodes[np.argmax(log_tau)].tobytes()


@pytest.mark.parametrize("on_disk", [False, True])
def test_continuation_builds_no_node_array(monkeypatch, paper2d_disk, on_disk):
    """E x, x* and the support cuts read the meshes' axes, so neither level's mesh
    builds its (N, dim) node array; x* has the bits of the max-weight node."""
    obj, region = paper2d_disk if on_disk else catalog_get("paper2d")
    densities, levels = [], NascentMD.levels
    monkeypatch.setattr(NascentMD, "levels", lambda self: densities.append(self) or levels(self))
    result = run_continuation(obj, region)
    monkeypatch.undo()
    md = densities[-1]
    assert set(md._shared["support"]) == {0, 1}  # both levels were cut
    for lv in md.levels():
        assert "nodes" not in vars(lv.mesh)
    fine = md.levels()[-1]
    log_tau = md.resolved_tau().log_tau(fine.f)
    assert result.xstar_estimate.tobytes() == fine.nodes[np.argmax(log_tau)].tobytes()


def test_rastrigin_at_1024_peaks_below_36_mib():
    """A level keeps f as its only per-node array, so annealing rastrigin on a
    1024^2 grid (8 MiB per array) peaks at about four such arrays."""
    obj, region = catalog_get("rastrigin")
    cfg = ContinuationConfig(integrator=IntegratorConfig(kind="grid", resolution=1024))
    tracemalloc.start()
    try:
        run_continuation(obj, region, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 36 * 2 ** 20


def test_rational_tau_also_monotone():
    obj, region = catalog_get("paper1d")
    cfg = ContinuationConfig(max_stages=8, var_tol=0.0, tau=Rational(p=1.0),
                             integrator=GRID_1D)
    result = run_continuation(obj, region, cfg)
    efs = [r.Ef for r in result.trace]
    for a, b in zip(efs, efs[1:]):
        assert b <= a + 1e-12


def test_trace_rows_shape(tmp_path):
    obj, region = catalog_get("paper1d")
    cfg = ContinuationConfig(max_stages=3, var_tol=0.0, integrator=GRID_1D)
    result = run_continuation(obj, region, cfg)
    assert len(result.trace) == 3
    assert all(np.shape(rec.mean_x) == (region.dim,) for rec in result.trace)
    out = tmp_path / "run"
    done = CliRunner().invoke(main, ["minimize", "--function", "paper1d", "--grid", "4096",
                                     "--stages", "3", "--var-tol", "0", "--out", str(out)])
    assert done.exit_code == 0, done.output
    with open(out / "trace.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert len(rows) == 3
    assert header[:5] == ["stage", "k", "Ef", "Ef_error", "Varf"]
    assert "mean_x0" in header
    assert all(len(r) == len(header) for r in rows)
    assert [float(r[2]) for r in rows] == [rec.Ef for rec in result.trace]


def test_config_validation():
    with pytest.raises(ValueError):
        ContinuationConfig(k0=0.0)
    with pytest.raises(ValueError):
        ContinuationConfig(growth=1.0)
    with pytest.raises(ValueError):
        ContinuationConfig(max_stages=0)


@pytest.mark.parametrize("name", ["k0", "growth", "var_tol"])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ContinuationConfig(**{name: value})


def test_overflowing_ladder_names_stage_and_k():
    obj, region = catalog_get("paper1d")
    cfg = ContinuationConfig(growth=1e300, var_tol=0.0, max_stages=3)
    with pytest.raises(OverflowError, match=r"stage 2: k = 1 \* 1e\+300\^2"):
        run_continuation(obj, region, cfg)


def test_one_weight_pass_per_level_per_stage(monkeypatch):
    calls = []
    reduce = nmd.NascentMD._reduce

    def counting(self, level, *args, **kwargs):
        calls.append(level.f.shape)
        return reduce(self, level, *args, **kwargs)
    monkeypatch.setattr(nmd.NascentMD, "_reduce", counting)
    obj, region = catalog_get("paper2d")
    result = run_continuation(obj, region)
    levels = len(nmd.NascentMD(obj, region).levels())
    assert levels == 2
    assert len(calls) == levels * len(result.trace)


def test_coarse_quadrature_stops_stalled():
    """On a 4-point grid the E f decreases soon fall below the level error."""
    obj, region = catalog_get("paper1d")
    cfg = ContinuationConfig(var_tol=0.0, integrator=IntegratorConfig(kind="grid", resolution=4))
    result = run_continuation(obj, region, cfg)
    assert result.stop_reason == "stalled"
    assert len(result.trace) == 4
    for prev, rec in zip(result.trace[-4:], result.trace[-3:]):
        assert prev.Ef - rec.Ef < rec.Ef_error


def _offset_square(c: float) -> Objective:
    return Objective(name=f"{c}+x^2", dim=1, fn=lambda p: c + p[:, 0] ** 2)


@pytest.mark.parametrize("offset", [1e6, 1e8])
def test_variance_does_not_move_with_a_constant_offset(offset):
    """Var^(k)(f) is taken about the finest level's min f, so adding a constant
    to f leaves the run alone; E f^2 - (E f)^2 lost it to cancellation (at 1e8
    it read 2.0 at k = 1 and stopped the run after 2 stages)."""
    var = [NascentMD(_offset_square(c), box(0.0, 1.0), k=1.0).variance_f().value
           for c in (0.0, offset)]
    assert var[1] == pytest.approx(var[0], rel=1e-6)
    stop = ContinuationConfig(max_stages=16, var_tol=1e-8)  # not the defaults, which may move
    base, shifted = (run_continuation(_offset_square(c), box(0.0, 1.0), stop)
                     for c in (0.0, offset))
    assert len(shifted.trace) == len(base.trace) == 10
    assert shifted.stop_reason == base.stop_reason == "var_tol"
    assert abs(shifted.fstar_estimate - offset) < 1e-4
    for a, b in zip(base.trace, shifted.trace):
        assert b.Varf == pytest.approx(a.Varf, rel=1e-3)
