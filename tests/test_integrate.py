import numpy as np
import pytest
from scipy.special import erf, logsumexp as scipy_logsumexp, softmax as scipy_softmax

from mdopt.integrate import (DegenerateIntegrandError, Estimate, IntegratorConfig,
                             default_config, integrate, levels, log_integrate_exp,
                             logsumexp, softmax)
from mdopt.nmd import NascentMD
from mdopt.objective import Objective
from mdopt.region import CompactRegion, box

import oracles


UNIT = box(0.0, 1.0)
FIVE = box(0.0, 5.0)
# disk of radius 1/2 centred in the unit square, area pi/4
DISK = CompactRegion(np.zeros(2), np.ones(2),
                     (lambda p: 0.25 - np.sum((p - 0.5) ** 2, axis=1),))


def test_constant_integral():
    est = integrate(UNIT, lambda p: np.ones(p.shape[0]))
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_linear_integral():
    cfg = IntegratorConfig(kind="grid", resolution=1024)
    est = integrate(FIVE, lambda p: p[:, 0], cfg)
    assert abs(est.value - 12.5) <= max(est.error, 1e-10)


def test_paper1d_integral_vs_dense_oracle():
    cfg = IntegratorConfig(kind="grid", resolution=4096)
    est = integrate(FIVE, lambda p: np.cos(p[:, 0] ** 2) + p[:, 0] / 5.0 + 1.0, cfg)
    assert abs(est.value - oracles.PAPER1D_INT_F) <= max(est.error, 1e-6)


def test_linearity():
    cfg = IntegratorConfig(kind="grid", resolution=512)
    g = lambda p: np.sin(p[:, 0])
    h = lambda p: p[:, 0] ** 2
    combined = integrate(FIVE, lambda p: 2.0 * g(p) + 3.0 * h(p), cfg)
    parts = 2.0 * integrate(FIVE, g, cfg).value + 3.0 * integrate(FIVE, h, cfg).value
    assert combined.value == pytest.approx(parts, abs=1e-9)


def test_grid_vs_mc_agreement():
    f = lambda p: np.cos(p[:, 0] ** 2) + p[:, 0] / 5.0 + 1.0
    grid = integrate(FIVE, f, IntegratorConfig(kind="grid", resolution=2048))
    mc = integrate(FIVE, f, IntegratorConfig(kind="mc", n=200_000, seed=5))
    assert abs(grid.value - mc.value) <= grid.error + mc.error


def test_mc_deterministic():
    f = lambda p: p[:, 0]
    cfg = IntegratorConfig(kind="mc", n=10_000, seed=11)
    assert integrate(FIVE, f, cfg) == integrate(FIVE, f, cfg)


def test_log_integrate_constant():
    val = log_integrate_exp(UNIT, lambda p: np.zeros(p.shape[0]))
    assert val == pytest.approx(0.0, abs=1e-12)


def test_log_integrate_sharp_gaussian():
    # closed form: int_0^1 exp(-1000 x^2) dx = sqrt(pi/1000)/2 * erf(sqrt(1000))
    cfg = IntegratorConfig(kind="grid", resolution=8192)
    val = log_integrate_exp(UNIT, lambda p: -1000.0 * p[:, 0] ** 2, cfg)
    exact = np.log(np.sqrt(np.pi / 1000.0) / 2.0 * erf(np.sqrt(1000.0)))
    assert val == pytest.approx(exact, abs=1e-5)


def test_log_integrate_no_overflow_at_huge_scale():
    cfg = IntegratorConfig(kind="grid", resolution=4096)
    val = log_integrate_exp(UNIT, lambda p: -1e6 * p[:, 0] ** 2, cfg)
    assert np.isfinite(val)


def test_log_shift_identity():
    cfg = IntegratorConfig(kind="grid", resolution=1024)
    ell = lambda p: -3.0 * p[:, 0] ** 2
    base = log_integrate_exp(UNIT, ell, cfg)
    for c in (1.0, -50.0, 700.0):
        shifted = log_integrate_exp(UNIT, lambda p: ell(p) + c, cfg)
        assert shifted - base == pytest.approx(c, abs=1e-10)


def test_degenerate_integrand():
    with pytest.raises(DegenerateIntegrandError):
        log_integrate_exp(UNIT, lambda p: np.full(p.shape[0], -np.inf))


def test_default_config_by_dimension():
    assert default_config(1).kind == "grid"
    assert default_config(2).kind == "grid"
    assert default_config(4).kind == "mc"


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(kind="bogus")
    with pytest.raises(ValueError):
        IntegratorConfig(kind="mc", n=10)
    with pytest.raises(ValueError):
        IntegratorConfig(resolution=1)
    with pytest.raises(ValueError):
        IntegratorConfig(kind="mc", seed=-1)


@pytest.mark.parametrize("cfg", [IntegratorConfig(kind="grid", resolution=256),
                                 IntegratorConfig(kind="mc", n=20_000, seed=4)],
                         ids=["grid", "mc"])
def test_constrained_measure_and_normalization(cfg):
    obj = Objective(name="bowl", dim=2, fn=lambda p: np.sum((p - 0.3) ** 2, axis=1))
    m = NascentMD(obj, DISK, k=3.0, integrator=cfg)
    nodesets, mu = levels(DISK, cfg)
    finest = nodesets[-1]
    assert m.region_measure() == mu.value
    assert mu.value == pytest.approx(np.exp(finest.log_node_weight) * finest.nodes.shape[0],
                                     rel=1e-12)
    assert abs(mu.value - np.pi / 4.0) <= max(mu.error, 1e-3)
    est = integrate(DISK, m.density, cfg)
    assert abs(est.value - 1.0) <= est.error


def test_constrained_grid_vs_mc_agreement():
    f = lambda p: 1.0 + p[:, 0] ** 2
    grid = integrate(DISK, f, IntegratorConfig(kind="grid", resolution=512))
    mc = integrate(DISK, f, IntegratorConfig(kind="mc", n=50_000, seed=2))
    assert abs(grid.value - mc.value) <= grid.error + mc.error
    # the Monte Carlo error carries the measure's own 3-sigma term
    mu = DISK.measure(mc_n=50_000, seed=2)
    assert mc.error > abs(mc.value) / mu.value * mu.error > 0.0


def test_ball_4d_measure_builds_no_grid(monkeypatch):
    ball = CompactRegion(-np.ones(4), np.ones(4), (lambda p: 1.0 - np.sum(p ** 2, axis=1),))

    def no_grid(self, resolution):
        raise AssertionError("a 4-d Monte Carlo density must not build a grid")
    monkeypatch.setattr(CompactRegion, "build_grid", no_grid)
    obj = Objective(name="sq4", dim=4, fn=lambda p: np.sum(p ** 2, axis=1))
    m = NascentMD(obj, ball, k=1.0)
    assert m.integrator.kind == "mc"
    err = ball.measure(mc_n=m.integrator.n, seed=m.integrator.seed).error
    assert abs(m.region_measure() - np.pi ** 2 / 2.0) <= err


def _kernel_inputs():
    rng = np.random.Generator(np.random.Philox(9))
    tied = rng.normal(size=10_000) * 30.0
    tied[[5, 700, 9000]] = tied.max()
    return [np.array([0.0]), np.array([1.0, 1.0, 1.0]), np.array([-np.inf, 2.0, -np.inf]),
            np.full(4, -np.inf), -1e6 * rng.random(65_536) ** 2, tied]


@pytest.mark.parametrize("a", _kernel_inputs())
def test_kernels_reproduce_scipy(a):
    # scipy is the reference: the same arithmetic gives the same bits
    assert logsumexp(a) == scipy_logsumexp(a)
    if np.isfinite(a.max()):
        assert np.array_equal(softmax(a), scipy_softmax(a))


@pytest.mark.parametrize("a", [a for a in _kernel_inputs() if np.isfinite(a.max())])
def test_softmax_is_the_textbook_formula_and_leaves_its_input(a):
    before = a.copy()
    e = np.exp(a - a.max())
    assert np.array_equal(softmax(a), e / np.sum(e))
    assert np.array_equal(a, before)


def test_package_attribute_is_the_module():
    """``mdopt.integrate`` is the module; its function is ``mdopt.integrate.integrate``."""
    import mdopt
    import mdopt.integrate as module
    assert mdopt.integrate is module
    assert mdopt.integrate.Estimate is Estimate
    assert mdopt.integrate.integrate is integrate
