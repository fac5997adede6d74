import numpy as np
import pytest

from mdopt.objective import (BLOCK_ROWS, EvaluationError, Objective, StencilError,
                             UnknownFunctionError, catalog_get, catalog_names,
                             evaluate_batch, gradient)

from mdopt import objective, region as region_mod
from mdopt.integrate import IntegratorConfig
from mdopt.nmd import NascentMD
from mdopt.region import CompactRegion, DimensionMismatchError, box
from mdopt.sets import descent_rate

import oracles


def test_paper1d_value():
    obj, region = catalog_get("paper1d")
    assert obj(np.array([0.0])) == pytest.approx(2.0)
    assert region.lower[0] == 0.0 and region.upper[0] == 5.0


def test_paper2d_value():
    obj, _ = catalog_get("paper2d")
    assert obj(np.array([0.0, 0.0])) == pytest.approx(4.0)


def test_stability1d():
    obj, region = catalog_get("stability1d")
    assert obj(np.array([0.0])) == pytest.approx(2.0)  # cos(0)+1
    assert region.upper[0] == 5.0
    # both registered minimizers sit at f = 0
    for x in obj.oracle_minimizers:
        assert obj(np.array([x])) == pytest.approx(0.0, abs=1e-12)


def test_const_parsing():
    obj, _ = catalog_get("const3")
    assert obj(np.array([0.42])) == pytest.approx(3.0)
    obj2, _ = catalog_get("const-1.5")
    assert obj2(np.array([0.9])) == pytest.approx(-1.5)


def test_unknown_name():
    with pytest.raises(UnknownFunctionError):
        catalog_get("nope")


def test_catalog_names_mandatory():
    names = catalog_names()
    for required in ("paper1d", "paper2d", "stability1d", "stability2d",
                     "quadratic", "rastrigin", "ackley"):
        assert required in names


def test_evaluate_batch_order_preserved():
    obj, _ = catalog_get("paper1d")
    xs = np.array([[0.0], [1.0], [2.0]])
    vals = evaluate_batch(obj, xs)
    assert vals[0] == pytest.approx(2.0)
    assert np.array_equal(vals, obj(xs))


def test_evaluate_batch_nonfinite():
    bad = Objective(name="bad", dim=1,
                    fn=lambda p: np.where(p[:, 0] > 0.5, np.inf, 0.0))
    with pytest.raises(EvaluationError) as err:
        evaluate_batch(bad, np.array([[0.1], [0.9]]))
    assert err.value.point is not None


def test_evaluate_batch_in_blocks_matches_one_call():
    obj, _ = catalog_get("rastrigin")
    rows = []

    def fn(p):
        rows.append(p.shape[0])
        return obj.fn(p)
    xs = np.random.default_rng(0).uniform(-5.12, 5.12, (2 * BLOCK_ROWS + 5, 2))
    vals = evaluate_batch(Objective(name="blocks", dim=2, fn=fn), xs)
    assert BLOCK_ROWS == 2 ** 14
    assert rows == [BLOCK_ROWS, BLOCK_ROWS, 5]
    assert np.array_equal(vals, obj.fn(xs))


def test_evaluate_batch_nan_in_last_block_names_the_point():
    xs = np.linspace(0.0, 1.0, 2 * BLOCK_ROWS + 5)[:, None]
    bad = xs[-3]
    obj = Objective(name="late_nan", dim=1,
                    fn=lambda p: np.where(p[:, 0] == bad[0], np.nan, p[:, 0]))
    with pytest.raises(EvaluationError, match="late_nan") as err:
        evaluate_batch(obj, xs)
    assert np.array_equal(err.value.point, bad)


@pytest.mark.parametrize("fn", [lambda p: 3.0, lambda p: p[:, :1]],
                         ids=["scalar", "column"])
def test_evaluate_batch_rejects_results_not_one_per_row(fn):
    obj = Objective(name="misshapen", dim=1, fn=fn)
    with pytest.raises(ValueError, match="misshapen"):
        evaluate_batch(obj, np.linspace(0.0, 1.0, BLOCK_ROWS + 5)[:, None])


def _disk(p):
    return 0.25 - np.sum((p - 0.5) ** 2, axis=1)


def _catalog_obj(name, dim=None):
    obj, region = catalog_get(name)
    if dim is None:
        return obj, region
    # rastrigin's fn reads the dimension from its input
    return (Objective(name=f"{name}{dim}", dim=dim, fn=obj.fn),
            box([-5.12] * dim, [5.12] * dim))


# (objective, region, resolution, rows per slab): 1-, 2- and 3-d lattices, a
# constrained disk, resolutions that do not divide BLOCK_ROWS, and slabs shorter
# than one lattice row
MESH_CASES = [
    (*_catalog_obj("paper1d"), 65536, BLOCK_ROWS),
    (*_catalog_obj("paper1d"), 1000, 64),
    (*_catalog_obj("paper2d"), 300, BLOCK_ROWS),
    (*_catalog_obj("rastrigin"), 1000, BLOCK_ROWS),
    (*_catalog_obj("ackley"), 300, BLOCK_ROWS),
    (*_catalog_obj("rastrigin"), 300, 128),
    (*_catalog_obj("rastrigin", 3), 30, BLOCK_ROWS),
    (*_catalog_obj("rastrigin", 3), 30, 7),
    (Objective(name="disk_paper2d", dim=2, fn=catalog_get("paper2d")[0].fn),
     CompactRegion(np.zeros(2), np.ones(2), (_disk,)), 1000, BLOCK_ROWS),
    (Objective(name="disk_paper2d", dim=2, fn=catalog_get("paper2d")[0].fn),
     CompactRegion(np.zeros(2), np.ones(2), (_disk,)), 300, 100),
]


@pytest.mark.parametrize("obj, region, res, rows", MESH_CASES,
                         ids=[f"{c[0].name}-{c[2]}-{c[3]}" for c in MESH_CASES])
def test_mesh_evaluation_is_bit_identical_to_nodes(monkeypatch, obj, region, res, rows):
    """f from the mesh's slabs equals f on its node array bit for bit, with no
    node array made and no fn call longer than a slab."""
    want_mask = region.build_grid(res).lattice_mask
    monkeypatch.setattr(objective, "BLOCK_ROWS", rows)
    monkeypatch.setattr(region_mod, "BLOCK_ROWS", rows)
    mesh = region.build_grid(res)
    assert np.array_equal(mesh.lattice_mask, want_mask)  # the mask, slab by slab
    sizes = []

    def fn(p):
        sizes.append(len(p))
        return obj.fn(p)
    got = evaluate_batch(Objective(name=obj.name, dim=obj.dim, fn=fn), mesh)
    assert "nodes" not in vars(mesh)
    want = evaluate_batch(obj, mesh.nodes)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert sum(sizes) == mesh.node_count == len(mesh.nodes)
    assert max(sizes) <= rows
    if not region.constraints and res ** region.dim > rows:
        # whole rows of the last axis per slab, as many as fit, or a piece of one row
        assert sizes[0] == (rows // res * res if res <= rows else rows)


def _error(call):
    with pytest.raises(ValueError) as err:
        call()
    return err


@pytest.mark.parametrize("rows", [BLOCK_ROWS, 100])
def test_mesh_evaluation_names_the_first_non_finite_point(monkeypatch, rows):
    monkeypatch.setattr(objective, "BLOCK_ROWS", rows)
    region = CompactRegion(np.zeros(2), np.ones(2), (_disk,))
    mesh = region.build_grid(256)
    nodes = mesh.nodes
    first, later = nodes[len(nodes) // 2], nodes[-3]  # in different slabs

    def fn(p):
        hit = np.all(p == first, axis=1) | np.all(p == later, axis=1)
        return np.where(hit, np.nan, p[:, 0])
    obj = Objective(name="nan_at", dim=2, fn=fn)
    got = _error(lambda: evaluate_batch(obj, mesh))
    want = _error(lambda: evaluate_batch(obj, nodes))
    assert got.type is want.type is EvaluationError
    assert str(got.value) == str(want.value)
    assert np.array_equal(got.value.point, first) and np.array_equal(want.value.point, first)


def test_mesh_evaluation_shape_errors_match_nodes():
    """256^2 slabs are BLOCK_ROWS long, so both paths name the same row count; a
    misshapen block wins over a non-finite value in an earlier one, as before."""
    mesh = box([0.0, 0.0], [1.0, 1.0]).build_grid(256)
    for fn in (lambda p: 3.0, lambda p: p[:, :1],
               lambda p: np.full(len(p) - (p[0, 0] > 0.5), np.nan)):
        obj = Objective(name="misshapen", dim=2, fn=fn)
        got = _error(lambda: evaluate_batch(obj, mesh))
        want = _error(lambda: evaluate_batch(obj, mesh.nodes))
        assert got.type is want.type is ValueError
        assert str(got.value) == str(want.value)
    with pytest.raises(DimensionMismatchError):
        evaluate_batch(catalog_get("paper1d")[0], mesh)


def test_non_finite_f_raises_naming_the_point():
    # sqrt(x): finite on the nodes of [0, 1], NaN left of 0
    obj = Objective(name="sqrt", dim=1,
                    fn=lambda p: np.where(p[:, 0] >= 0.0, p[:, 0], np.nan) ** 0.5)
    with pytest.raises(EvaluationError) as err:
        obj(np.array([-1.0]))
    assert np.array_equal(err.value.point, [-1.0])
    with pytest.raises(EvaluationError) as err:
        gradient(obj, np.array([[0.5], [0.0]]))  # the stencil of 0 reaches -h
    assert err.value.point[0] < 0.0 and "sqrt" in str(err.value)
    m = NascentMD(obj, box(0.0, 1.0), k=2.0, integrator=IntegratorConfig(resolution=64))
    for call in (lambda: descent_rate(m, np.array([[0.5], [-1.0]])),
                 lambda: m.grad_density(np.array([-1.0]))):
        with pytest.raises(EvaluationError) as err:
            call()
        assert err.value.point[0] < 0.0


def test_gradient_fd_quadratic():
    obj = Objective(name="sq", dim=1, fn=lambda p: p[:, 0] ** 2)
    g = gradient(obj, np.array([0.5]), h=1e-5)
    assert g[0] == pytest.approx(1.0, abs=1e-8)


def test_gradient_constant_zero():
    obj, _ = catalog_get("const3")
    g = gradient(obj, np.array([0.3]))
    assert np.allclose(g, 0.0)


def test_gradient_paper1d_analytic():
    obj, _ = catalog_get("paper1d")
    g = gradient(obj, np.array([1.0]))
    assert g[0] == pytest.approx(-2.0 * np.sin(1.0) + 0.2, rel=1e-12)


@pytest.mark.parametrize("name", ["paper1d", "paper2d", "stability1d",
                                  "stability2d", "quadratic", "doublewell",
                                  "rastrigin"])
def test_analytic_matches_finite_difference(name):
    obj, region = catalog_get(name)
    assert obj.grad is not None
    rng = np.random.Generator(np.random.Philox(42))
    span = region.upper - region.lower
    pts = region.lower + 0.1 * span + 0.8 * span * rng.random((20, obj.dim))
    fd_obj = Objective(name=name + "_fd", dim=obj.dim, fn=obj.fn)
    for x in pts:
        ga = gradient(obj, x)
        gf = gradient(fd_obj, x)
        assert np.linalg.norm(ga - gf) <= 1e-5 * max(1.0, np.linalg.norm(ga))


def test_gradient_stencil_error():
    obj, region = catalog_get("ackley")  # no analytic gradient registered
    assert obj.grad is None
    with pytest.raises(StencilError):
        gradient(obj, region.lower.copy(), h=1e-3, region=region)


def test_paper1d_oracle_brute_force(paper1d_oracle):
    xs, fs = paper1d_oracle
    obj, _ = catalog_get("paper1d")
    assert obj(np.array([xs])) == pytest.approx(fs, abs=1e-14)
    # derivative vanishes at the refined minimizer
    assert gradient(obj, np.array([xs]))[0] == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("name", ["paper2d", "ackley"])  # analytic, finite differences
def test_gradient_batch_rows_match_single_points(name):
    obj, region = catalog_get(name)
    rng = np.random.Generator(np.random.Philox(3))
    span = region.upper - region.lower
    pts = region.lower + 0.1 * span + 0.8 * span * rng.random((25, obj.dim))
    batch = gradient(obj, pts)
    assert batch.shape == pts.shape
    for x, row in zip(pts, batch):
        np.testing.assert_allclose(row, gradient(obj, x), rtol=1e-12, atol=0.0)


def test_gradient_batch_stencil_error_names_point():
    obj, region = catalog_get("ackley")
    pts = np.array([[0.0, 0.0], [region.lower[0], 0.0]])
    with pytest.raises(StencilError, match="-5"):
        gradient(obj, pts, h=1e-3, region=region)
