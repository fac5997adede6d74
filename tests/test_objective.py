import numpy as np
import pytest

from mdopt.objective import (BLOCK_ROWS, EvaluationError, Objective, StencilError,
                             UnknownFunctionError, catalog_get, catalog_names,
                             evaluate_batch, gradient)

from mdopt.integrate import IntegratorConfig
from mdopt.nmd import NascentMD
from mdopt.region import box
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
