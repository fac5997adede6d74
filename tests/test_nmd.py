import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import softmax

from mdopt import nmd
from mdopt.integrate import IntegratorConfig, integrate, logsumexp
from mdopt.nmd import DomainError, Exponential, InvalidShiftError, NascentMD, Rational
from mdopt.objective import Objective, catalog_get
from mdopt.region import GridMesh, box
from mdopt.schedule import ContinuationConfig, run_continuation

import oracles


GRID_1D = IntegratorConfig(kind="grid", resolution=4096)
GRID_2D = IntegratorConfig(kind="grid", resolution=256)


@pytest.fixture(scope="module")
def paper1d_md():
    obj, region = catalog_get("paper1d")
    return NascentMD(obj, region, k=1.0, integrator=GRID_1D)


def test_log_tau_exponential():
    obj, region = catalog_get("const2")
    m = NascentMD(obj, region, k=1.0)
    assert m.log_tau(np.array([0.5])) == pytest.approx(-2.0)


def test_log_tau_rational_zero_shift():
    obj, region = catalog_get("const0")
    m = NascentMD(obj, region, tau=Rational(p=1.0, L=0.0), k=1.0)
    assert m.log_tau(np.array([0.5])) == pytest.approx(0.0)


def test_log_tau_rational_at_minimum(paper1d_oracle):
    xs, fs = paper1d_oracle
    obj, region = catalog_get("paper1d")
    m = NascentMD(obj, region, tau=Rational(p=1.0, L=fs), k=1.0, integrator=GRID_1D)
    assert m.log_tau(np.array([xs])) == pytest.approx(0.0, abs=1e-12)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(f=st.lists(st.floats(-1e12, 1e12), min_size=1, max_size=40),
       k=st.one_of(st.just(0.0), st.floats(0.0, 1e6)), p=st.floats(0.1, 10.0))
def test_log_tau_scales_by_k_bit_for_bit(f, k, p):
    """k log tau in one pass has the bits of k times log tau, signed zeros included,
    and a shift that leaves f - L + p <= 0 still raises."""
    f = np.array(f)
    for tau in (Exponential(), Rational(p=p).resolved(f)):
        assert tau.log_tau(f, k).tobytes() == (k * tau.log_tau(f)).tobytes()
    with pytest.raises(InvalidShiftError):
        Rational(p=p, L=float(np.max(f)) + 2.0 * p).log_tau(f, k)


@pytest.mark.parametrize("tau", [Exponential(), Rational(p=0.5, L=-1.0)])
def test_dlog_tau_df_matches_central_difference(tau):
    f = np.linspace(-0.4, 3.0, 9)
    h = 1e-6
    fd = (tau.log_tau(f + h) - tau.log_tau(f - h)) / (2.0 * h)
    assert np.allclose(tau.dlog_tau_df(f), fd, rtol=1e-7, atol=0.0)


def test_rational_shift_resolved_from_finest_level():
    obj, region = catalog_get("paper1d")
    m = NascentMD(obj, region, tau=Rational(p=1.0), k=2.0, integrator=GRID_1D)
    f = m.levels()[-1].f
    fmin, fmax = float(np.min(f)), float(np.max(f))
    assert m.resolved_tau() == Rational(p=1.0, L=fmin - max(1.0, 0.1 * (fmax - fmin)))
    assert m.with_k(5.0).resolved_tau() is m.resolved_tau()


@pytest.mark.parametrize("kwargs", [dict(p=np.nan), dict(p=np.inf), dict(p=1.0, L=np.nan),
                                    dict(p=1.0, L=-np.inf)])
def test_rational_rejects_non_finite_parameters(kwargs):
    with pytest.raises(ValueError, match="finite"):
        Rational(**kwargs)


def test_coarse_level_is_built_when_a_pass_first_reads_it(level_meshes):
    """log Z, E log tau, mu and f on the finest mesh read the finest level alone; the
    first pass over the coarse level evaluates its f, once, and levels() holds both."""
    obj, region = catalog_get("paper2d")
    m = NascentMD(obj, region, k=3.0, integrator=GRID_2D)
    m.log_Z(), m.expect_log_tau(), m.region_measure(), m.mesh_values(region.build_grid(256))
    m.with_k(5.0).expect_log_tau()
    assert level_meshes == [(256, 256)]
    m.log_expect_tau(), m.moments(), m.levels()
    assert level_meshes == [(256, 256), (128, 128)]
    assert [lv.mesh.resolution for lv in m.levels()] == [(128, 128), (256, 256)]


def test_rational_invalid_shift():
    obj, region = catalog_get("paper1d")
    m = NascentMD(obj, region, tau=Rational(p=0.1, L=10.0), k=1.0, integrator=GRID_1D)
    with pytest.raises(InvalidShiftError):
        m.expect_f()


def test_log_density_k0_uniform(paper1d_md):
    m = paper1d_md.with_k(0.0)
    for x in (0.3, 2.0, 4.9):
        assert m.log_density(np.array([x])) == pytest.approx(np.log(1.0 / 5.0), abs=1e-12)


def test_log_density_constant_any_k():
    obj, region = catalog_get("const3")
    for k in (0.0, 2.0, 50.0):
        m = NascentMD(obj, region, k=k, integrator=IntegratorConfig(kind="grid", resolution=256))
        assert m.log_density(np.array([0.7])) == pytest.approx(0.0, abs=1e-12)  # mu=1


def test_density_ranks_argmin_over_argmax(paper1d_md, paper1d_oracle):
    xs, _ = paper1d_oracle
    m = paper1d_md.with_k(9.0)
    obj, region = catalog_get("paper1d")
    grid = np.linspace(0.0, 5.0, 2001)[:, None]
    argmax = grid[np.argmax(obj(grid))]
    assert m.density(np.array([xs])) > m.density(argmax)


def test_expectation_k0_is_plain_average(paper1d_md):
    e = paper1d_md.with_k(0.0).expect_f()
    assert e.value == pytest.approx(oracles.PAPER1D_INT_F / 5.0, abs=1e-6)


def test_expectation_constant():
    obj, region = catalog_get("const3")
    for k in (0.0, 7.0):
        m = NascentMD(obj, region, k=k)
        assert m.expect_f().value == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("k", [1.0, 3.0, 9.0])
def test_expectation_matches_dense_oracle(paper1d_md, k):
    e = paper1d_md.with_k(k).expect_f()
    assert abs(e.value - oracles.PAPER1D_EF[k]) <= e.error + 1e-8


def test_expectation_shift_argument():
    obj, region = catalog_get("paper1d")
    m = NascentMD(obj, region, k=0.0, integrator=GRID_1D)
    # with k=0 and unit shift, E(h(shift + t)) is the average of h over [1, 6]
    e = m.expectation(h=lambda p: p[:, 0], shift=[1.0])
    assert e.value == pytest.approx(3.5, abs=1e-9)


def test_expectation_domain_error():
    obj, region = catalog_get("paper1d")
    m = NascentMD(obj, region, k=1.0, integrator=GRID_1D)
    with pytest.raises(DomainError):
        m.expectation(h=lambda p: p[:, 0] - 10.0, nu=0.5)


def test_variance_constant_zero():
    obj, region = catalog_get("const3")
    assert NascentMD(obj, region, k=4.0).variance_f().value == 0.0


def test_variance_uniform_linear():
    obj = Objective(name="lin", dim=1, fn=lambda p: p[:, 0])
    m = NascentMD(obj, box(0.0, 1.0), k=0.0,
                  integrator=IntegratorConfig(kind="grid", resolution=4096))
    v = m.variance_f()
    assert abs(v.value - 1.0 / 12.0) <= max(v.error, 1e-7)


def test_variance_matches_dense_oracle(paper1d_md):
    v = paper1d_md.with_k(3.0).variance_f()
    assert abs(v.value - oracles.PAPER1D_VARF[3.0]) <= v.error + 1e-8


def test_grad_density_k0_zero(paper1d_md):
    g = paper1d_md.with_k(0.0).grad_density(np.array([2.0]))
    assert np.allclose(g, 0.0)


def test_grad_density_zero_at_interior_minimizer():
    obj, region = catalog_get("quadratic")
    m = NascentMD(obj, region, k=5.0, integrator=GRID_2D)
    assert np.allclose(m.grad_density(np.zeros(2)), 0.0)


@pytest.mark.parametrize("tau", [Exponential(), Rational(p=1.0)])
def test_grad_density_matches_finite_difference(paper1d_md, tau):
    obj, region = catalog_get("paper1d")
    m = NascentMD(obj, region, tau=tau, k=3.0, integrator=GRID_1D)
    x = np.array([1.0])
    h = 1e-5
    fd = (m.density(x + h) - m.density(x - h)) / (2.0 * h)
    g = m.grad_density(x)[0]
    assert g == pytest.approx(fd, rel=1e-5)


def test_ddk_constant_zero():
    obj, region = catalog_get("const3")
    m = NascentMD(obj, region, k=2.0)
    assert m.ddk_density(np.array([0.5])) == pytest.approx(0.0, abs=1e-12)


def test_ddk_integrates_to_zero(paper1d_md):
    m = paper1d_md.with_k(3.0)
    est = integrate(m.region, lambda p: np.array([m.ddk_density(x) for x in p]),
                    IntegratorConfig(kind="grid", resolution=512))
    assert abs(est.value) <= max(est.error, 1e-6)


@pytest.mark.parametrize("tau", [Exponential(), Rational(p=1.0)])
def test_ddk_matches_finite_difference(tau):
    obj, region = catalog_get("paper1d")
    m = NascentMD(obj, region, tau=tau, k=3.0, integrator=GRID_1D)
    x = np.array([2.0])
    d = 1e-4
    fd = (m.with_k(3.0 + d).density(x) - m.with_k(3.0 - d).density(x)) / (2.0 * d)
    assert m.ddk_density(x) == pytest.approx(fd, rel=1e-3)


def test_mean_location_k0_centroid(paper1d_md):
    assert paper1d_md.with_k(0.0).mean_location()[0] == pytest.approx(2.5, abs=1e-9)


def test_mean_location_symmetry():
    obj = Objective(name="sym", dim=2, fn=lambda p: np.sum(p ** 2, axis=1),
                    grad=lambda p: 2.0 * p)
    m = NascentMD(obj, box([-1.0, -1.0], [1.0, 1.0]), k=4.0, integrator=GRID_2D)
    assert np.allclose(m.mean_location(), 0.0, atol=1e-10)


def test_mean_location_concentrates(paper1d_md, paper1d_oracle):
    xs, _ = paper1d_oracle
    mean = paper1d_md.with_k(512.0).mean_location()
    assert abs(mean[0] - xs) < 0.05


@pytest.mark.parametrize("tau", [Exponential(), Rational(p=1.0)])
@pytest.mark.parametrize("k", [0.0, 1.0, 9.0, 1000.0])
def test_normalization(tau, k):
    obj, region = catalog_get("paper1d")
    m = NascentMD(obj, region, tau=tau, k=k, integrator=GRID_1D)
    est = integrate(region, m.density, GRID_1D)
    assert est.value == pytest.approx(1.0, abs=1e-6)


def test_monotone_in_k(paper1d_md):
    values = [paper1d_md.with_k(k).expect_f().value for k in (0.0, 1.0, 2.0, 4.0, 8.0, 16.0)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_lower_bound(paper1d_md, paper1d_oracle):
    _, fs = paper1d_oracle
    for k in (0.0, 1.0, 10.0, 100.0, 1000.0):
        assert paper1d_md.with_k(k).expect_f().value >= fs - 1e-9


def test_mass_concentration(paper1d_md, paper1d_oracle, support_weights):
    xs, _ = paper1d_oracle
    m = paper1d_md.with_k(1000.0)
    fine, w = support_weights(m, 1)
    nodes = fine.nodes[:, 0]
    assert np.sum(w[np.abs(nodes - xs) <= 0.1]) > 0.99


@pytest.mark.parametrize("tau", [Exponential(), Rational(p=0.5)])
def test_a_cut_holds_f_and_points_per_kept_node(tau):
    """m^(k) depends on a node only through f: a grid level and the mesh that
    mesh_values holds keep no other array with one entry per node, and a cut support
    is a level of explicit points, with no mesh: f and the f-contiguous ``(n, dim)``
    coordinates of each kept node."""
    obj, region = catalog_get("paper2d")
    m = NascentMD(obj, region, tau=tau, k=0.0, integrator=GRID_2D)
    level = m.levels()[1]
    m_cut = m.with_k(np.exp(10.0))
    m_cut.moments()  # the pass that clips at e^10 cuts
    sub = m_cut._support(1)
    m.mesh_values(region.build_grid(100))
    (mesh, *held), = m._shared["mesh"]

    def arrays(record):
        return [name for name, v in vars(record).items() if isinstance(v, np.ndarray)]
    assert sub.size < level.size
    assert arrays(level) == ["f"] and level.f.shape == (level.size,)
    assert arrays(sub) == ["points", "f"] and sub.mesh is None and sub.f.shape == (sub.size,)
    assert sub.points.shape == (sub.size, 2) and sub.points.flags.f_contiguous
    assert len(held) == 1 and held[0].shape == (mesh.node_count,)


def test_a_stage_reduces_only_what_it_reports(monkeypatch):
    """moments() reduces E f, E (f - c)^2 and E x in one weight pass per level; E log
    tau, which no stage reports, is reduced only when first read, once per k, in one
    pass over the finest level."""
    counts, pass_ = [], NascentMD._pass

    def spy(self, i, integrands, *args, **kwargs):
        counts.append((i, len(integrands)))
        return pass_(self, i, integrands, *args, **kwargs)
    monkeypatch.setattr(NascentMD, "_pass", spy)
    obj, region = catalog_get("paper1d")
    m = NascentMD(obj, region, k=3.0, integrator=GRID_1D)
    m.variance_f(), m.mean_location(), m.expect_f()
    assert counts == [(0, 3), (1, 3)]
    m.expect_log_tau()
    assert counts == [(0, 3), (1, 3), (1, 1)]
    m.with_k(3.0).expect_log_tau()
    assert counts == [(0, 3), (1, 3), (1, 1)]


def test_with_k_shares_caches(paper1d_md):
    m2 = paper1d_md.with_k(5.0)
    assert m2._shared is paper1d_md._shared


@pytest.mark.parametrize("tau", [Exponential(), Rational(p=0.5)])
def test_mesh_values_hold_one_mesh_off_the_levels(tau):
    """Under Monte Carlo no level has a mesh: a mesh is evaluated once for all
    with_k clones, and a second mesh replaces it, so at most one is held."""
    obj, region = catalog_get("paper1d")
    calls = []

    def fn(p):
        calls.append(p.shape[0])
        return obj.fn(p)
    m = NascentMD(Objective(obj.name, obj.dim, fn), region, tau=tau, k=1.0,
                  integrator=IntegratorConfig(kind="mc", n=500, seed=1))
    a, b = region.build_grid(300), region.build_grid(200)
    f = m.mesh_values(a)
    assert np.array_equal(f, obj(a.nodes))
    assert sum(calls) == 500 + 300
    assert m.with_k(9.0).mesh_values(region.build_grid(300)) is f
    assert sum(calls) == 500 + 300
    m.mesh_values(b)
    m.mesh_values(a)
    assert sum(calls) == 500 + 300 + 200 + 300
    assert len(m._shared["mesh"]) == 1


def test_mesh_values_under_concurrent_clones():
    """Threads that swap the held mesh under each other still each get their own
    mesh's values."""
    obj, region = catalog_get("paper1d")
    m = NascentMD(obj, region, integrator=IntegratorConfig(kind="mc", n=500, seed=1))
    meshes = [region.build_grid(n) for n in (200, 300, 400)]
    want = [obj(mesh.nodes) for mesh in meshes]
    wrong = []

    def work(i):
        for j in range(60):
            mesh_i = (i + j) % len(meshes)
            f = m.with_k(float(i)).mesh_values(meshes[mesh_i])
            if not np.array_equal(f, want[mesh_i]):
                wrong.append((i, j))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def _count_passes(monkeypatch) -> list:
    """Spy on ``NascentMD._reduce``, the one weight pass: (k, level f) per call."""
    calls, reduce = [], NascentMD._reduce

    def counting(self, level, *args, **kwargs):
        calls.append((self.k, level.f))
        return reduce(self, level, *args, **kwargs)
    monkeypatch.setattr(NascentMD, "_reduce", counting)
    return calls


def test_log_Z_and_log_expect_tau_share_log_sums(monkeypatch):
    """log E(tau) makes one pass per level at k and none at k + 1, and its pass over
    the finest level leaves log Z(k), which log Z then reads; log Z(k + 1) - log Z(k)
    equals log E(tau)."""
    calls = _count_passes(monkeypatch)
    obj, region = catalog_get("paper1d")
    m = NascentMD(obj, region, k=3.0, integrator=GRID_1D)
    first = m.log_expect_tau()
    assert [(k, f.size) for k, f in calls] == [(3.0, lv.size) for lv in m.levels()]
    log_Z = m.log_Z()
    assert len(calls) == 2
    assert m.with_k(4.0).log_Z() - log_Z == pytest.approx(first.value, rel=0, abs=1e-12)
    assert len(calls) == 3


def test_log_expect_tau_error_survives_a_large_shift():
    """log E tau and its levels' difference stay finite when f is shifted by -1e3,
    where E tau itself overflows, or by +1e3, where it underflows: the value moves by
    the shift and the error matches the unshifted run's within 1e-5 relative (4.8e-6
    here).  Each level's value is c + log E exp(log tau - c), c the finest level's max
    log tau, so the shift cancels inside the exponent; what is left is the rounding of
    f + shift itself, which sets the floor above about 1e5 (5e-4 relative there)."""
    obj, region = catalog_get("paper1d")
    plain = NascentMD(obj, region, k=3.0).log_expect_tau()
    for shift in (-1000.0, 1000.0):
        moved = Objective(f"paper1d{shift:+g}", 1, lambda p, c=shift: obj.fn(p) + c)
        got = NascentMD(moved, region, k=3.0).log_expect_tau()
        assert np.isfinite(got.error) and got.error > 0.0
        assert got.value == pytest.approx(plain.value - shift, rel=1e-15)
        assert got.error == pytest.approx(plain.error, rel=1e-5)


def test_grid_levels_evaluate_f_through_their_meshes(monkeypatch):
    """The f pass of a grid density hands ``evaluate_batch`` each level's mesh, the
    finest first."""
    args = []
    evaluate_batch = nmd.evaluate_batch

    def spy(obj, xs):
        args.append(xs)
        return evaluate_batch(obj, xs)
    monkeypatch.setattr(nmd, "evaluate_batch", spy)
    obj, region = catalog_get("paper2d")
    levels = NascentMD(obj, region, integrator=GRID_2D).levels()
    assert [type(xs) for xs in args] == [GridMesh, GridMesh]
    assert all(xs is lv.mesh for xs, lv in zip(args, levels[::-1]))
    for lv in levels:
        assert np.array_equal(lv.f, obj(lv.nodes))


def test_log_Z_alone_sums_only_the_finest_level(monkeypatch):
    """log Z at a fresh k makes one pass, over the finest level: the coarse level's
    sum is not read; after moments() at the same k it makes none."""
    calls = _count_passes(monkeypatch)
    obj, region = catalog_get("paper1d")
    m = NascentMD(obj, region, k=3.0, integrator=GRID_1D)
    m.log_Z()
    assert len(calls) == 1 and calls[0][0] == 3.0 and calls[0][1] is m.levels()[-1].f
    m7 = m.with_k(7.0)
    m7.moments()
    assert len(calls) == 3
    m7.log_Z()
    assert len(calls) == 3


@pytest.mark.parametrize("method", ["grad_density", "ddk_density"])
def test_pointwise_derivatives_reject_batches(paper1d_md, method):
    m = paper1d_md.with_k(3.0)
    single = getattr(m, method)(np.array([1.0]))
    assert np.array_equal(getattr(m, method)(np.array([[1.0]])), single)
    with pytest.raises(ValueError, match="single point"):
        getattr(m, method)(np.array([[1.0], [2.0]]))


@pytest.mark.parametrize("tau", [Exponential(), Rational(p=1.0)])
@pytest.mark.parametrize("integrator", [IntegratorConfig(kind="grid", resolution=64),
                                        IntegratorConfig(kind="mc", n=4000, seed=3)])
def test_moments_record_matches_generic_path(tau, integrator):
    obj, region = catalog_get("paper2d")
    base = NascentMD(obj, region, tau=tau, k=1.0, integrator=integrator)
    for k in (2.0, 7.0):
        m = base.with_k(k)
        ef = m.expectation()
        c = float(np.min(m.levels()[1].f))  # the shift: the finest level's min f
        efc2 = m._estimates(lambda f, *_: (f - c) ** 2.0)[0]
        elt = m._estimates(lambda f, *_: m.resolved_tau().log_tau(f))[0]
        for got, want in ((m.expect_f(), ef), (m.moments().fc2, efc2)):
            assert (got.value, got.error) == (want.value, want.error)
        assert m.expect_log_tau() == elt.value  # the finest level's value
        assert m.moments().c == c
        var = m.variance_f()
        assert var.value == max(efc2.value - (ef.value - c) ** 2, 0.0)
        assert var.error == efc2.error + 2.0 * abs(ef.value - c) * ef.error

        mean, mean_err = m.mean_location(with_error=True)
        coords = [m.expectation(h=lambda p, j=j: p[:, j]) for j in range(region.dim)]
        assert mean == pytest.approx([c.value for c in coords], rel=1e-13)
        levels = m.levels()
        means = [softmax(k * m.resolved_tau().log_tau(lv.f)) @ lv.nodes for lv in levels]
        assert mean_err == pytest.approx(float(np.linalg.norm(means[-1] - means[-2])),
                                         rel=1e-12)
        # one record per k, shared by every clone at that k
        assert base.with_k(k).moments() is m.moments()
    assert base.with_k(2.0).moments() is not base.with_k(7.0).moments()


def test_negative_k_rejected(paper1d_md):
    obj, region = catalog_get("paper1d")
    with pytest.raises(ValueError, match="non-negative"):
        NascentMD(obj, region, k=-1.0)
    with pytest.raises(ValueError, match="non-negative"):
        paper1d_md.with_k(-1e-300)


@pytest.mark.parametrize("k", [np.inf, np.nan])
def test_non_finite_k_rejected(paper1d_md, k):
    obj, region = catalog_get("paper1d")
    with pytest.raises(ValueError, match="k=(inf|nan)"):
        NascentMD(obj, region, k=k)
    with pytest.raises(ValueError, match="k=(inf|nan)"):
        paper1d_md.with_k(k)


LADDER = (0.0, *np.exp(np.arange(13.0)))  # 0, 1, e, ..., e^12


def _dense_moments(m: NascentMD) -> dict:
    """E f, E (f - c)^2, E log tau and E x with their errors from softmax(k log tau)
    over every node of both levels, the reference for the support path, the
    finest level's E|h| and the larger of the two levels' E|h|, the size of the
    summands that rounding follows in the value and in the levels' difference, and
    N e^-CLIP max|h|, the most that the weights clipped to 0 can carry (the bound that
    ``nmd`` documents for its clip): E (f - c)^2 is 0 at the top weights, so at large k
    it is that tail alone."""
    avgs = []
    c = float(np.min(m.levels()[1].f))
    for lv in m.levels():
        log_tau = m.resolved_tau().log_tau(lv.f)
        a = m.k * log_tau
        e = np.exp(a - a.max())
        w = e / np.sum(e)
        hs = {"f": lv.f, "fc2": (lv.f - c) ** 2.0, "log_tau": log_tau, "x": lv.nodes}
        avgs.append({name: (w @ h, w, h) for name, h in hs.items()})
    out = {}
    for name, (fine, w, h) in avgs[1].items():
        coarse, w0, h0 = avgs[0][name]
        if name == "x":
            err = float(np.linalg.norm(fine - coarse))
        elif m.integrator.kind == "mc":
            err = 3.0 * float(np.sqrt(np.sum(w ** 2 * (h - fine) ** 2)))
        else:
            err = abs(float(fine) - float(coarse))
        clip = h.shape[0] * np.exp(-nmd.CLIP) * np.max(np.abs(h))
        abs_mean = np.max(w @ np.abs(h))
        out[name] = (fine, err, abs_mean, max(abs_mean, np.max(w0 @ np.abs(h0))), clip)
    return out


def _got(m: NascentMD, mom, name: str):
    """The value and error that ``_dense_moments`` names: a field of ``mom``, or E log
    tau, the finest level's value, whose error is None (it is not estimated)."""
    if name == "log_tau":
        return m.expect_log_tau(), None
    est = getattr(mom, name)
    return est.value, est.error


def _complex_rows(nodes: np.ndarray) -> np.ndarray:
    """2-d nodes as complex numbers, so np.isin can match rows."""
    return nodes[:, 0] + 1j * nodes[:, 1]


def _check_support_ladder(function, tau, integrator, scale_of):
    """Up, down and up the k ladder, each pass starting from the support the
    last one left: the moments equal the dense ones within 1e-13 of
    ``scale_of(value, E|h|)``, their errors within 1e-13 of the larger level's
    E|h| (an error is a difference of the two levels' values), and no node that the
    pass weighs, k log tau >= max - CLIP, is ever dropped."""
    obj, region = catalog_get(function)
    base = NascentMD(obj, region, tau=tau, k=0.0, integrator=integrator)
    for ks in (LADDER, LADDER[::-1], LADDER):
        base._shared["moments"].clear()  # recompute from the current support
        for k in ks:
            m = base.with_k(k)
            mom, ref = m.moments(), _dense_moments(m)
            for name, (value, err, abs_mean, both_abs_mean, clip) in ref.items():
                got, got_err = _got(m, mom, name)
                tol = 1e-13 * np.max(scale_of(value, abs_mean)) + clip
                assert np.max(np.abs(got - value)) <= tol, (k, name)
                if got_err is not None:
                    assert abs(got_err - err) <= 1e-13 * both_abs_mean + clip, (k, name)
            for i, lv in enumerate(m.levels()):
                sub = m._support(i)
                a = k * m.resolved_tau().log_tau(lv.f)
                weighted = lv.nodes[a >= a.max() - nmd.CLIP]
                assert np.all(np.isin(_complex_rows(weighted), _complex_rows(sub.nodes)))
                (mass,), *_ = m._reduce(sub, [lambda f, *_: np.ones(f.size)])
                assert mass == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("tau", [Exponential(), Rational(p=1.0)])
@pytest.mark.parametrize("integrator", [GRID_2D, IntegratorConfig(kind="mc", n=4000, seed=3)])
def test_support_moments_match_dense_reference(tau, integrator):
    """The support path's moments equal the dense ones up to summation order."""
    _check_support_ladder("paper2d", tau, integrator, lambda value, abs_mean: np.abs(value))


@pytest.mark.parametrize("tau", [Exponential(), Rational(p=1.0)])
def test_support_moments_match_dense_reference_rastrigin(tau):
    """As above on rastrigin, where E x is 0 by symmetry up to rounding, so the
    tolerance scales with E|h| instead of |E h|."""
    _check_support_ladder("rastrigin", tau, GRID_2D, lambda value, abs_mean: abs_mean)


@pytest.mark.parametrize("tau", [Exponential(), Rational(p=1.0)])
def test_support_is_whole_at_k0_and_smaller_at_large_k(tau, support_weights):
    obj, region = catalog_get("paper2d")
    m = NascentMD(obj, region, tau=tau, k=0.0, integrator=GRID_2D)
    m_cut = m.with_k(np.exp(10.0))
    m_cut.moments()  # the pass that clips at e^10 cuts
    for i, lv in enumerate(m.levels()):
        sub, w = support_weights(m, i)
        assert sub is lv
        assert np.all(w == 1.0 / lv.f.size)
        sub = m_cut._support(i)
        assert sub.size < lv.size and sub.mesh is None and sub.f.shape == (sub.size,)
        assert sub.nodes.shape == (sub.size, 2) and sub.nodes.flags.f_contiguous


@pytest.mark.parametrize("on_disk", [False, True])
def test_location_from_points_matches_dense(paper2d_disk, on_disk, support_weights):
    """E x on a grid level is summed slab by slab as the weights dotted with the slab's
    points, written from the axes; it equals w @ nodes within 1e-14 of E|x|, for the
    dense softmax weights and for the support's, which at k = 300 clip nodes to 0 on
    the whole level."""
    obj, region = paper2d_disk if on_disk else catalog_get("paper2d")
    clipped = 0
    for k in (0.0, 1.0, np.e ** 2, np.e ** 4, 300.0):
        m = NascentMD(obj, region, k=k, integrator=GRID_2D)
        for i, lv in enumerate(m.levels()):
            nodes = region.build_grid(lv.mesh.resolution[0]).nodes
            sub, w_support = support_weights(m, i)
            assert sub.mesh is not None
            clipped += np.count_nonzero(w_support == 0.0)
            (got,), *_ = m._reduce(sub, [lambda f, points: points])
            for w in (softmax(k * m.resolved_tau().log_tau(lv.f)), w_support):
                assert np.all(np.abs(got - w @ nodes) <= 1e-14 * (w @ np.abs(nodes))), (k, i)
            assert "nodes" not in vars(lv.mesh)
    assert clipped > 0


@pytest.mark.parametrize("case", ["grid1000", "grid1d", "disk", "mc"])
def test_blocked_pass_matches_dense_reference_across_block_boundaries(paper2d_disk, case):
    """E f, E (f - c)^2, E log tau and E x, and the errors of all but E log tau, equal
    the dense softmax(k log tau) ones, and log Z and log E tau the dense logsumexp(k log tau)
    ones, where blocks split the level unevenly: 1000^2 slabs of 16,000 nodes, a
    1-d grid whose slabs are pieces of its one row, the disk's slabs scattered onto
    the lattice, and Monte Carlo slices with 3 sigma errors."""
    obj, region = paper2d_disk if case == "disk" else catalog_get(
        {"grid1000": "paper2d", "grid1d": "paper1d", "mc": "rastrigin"}[case])
    integrator = {"grid1000": IntegratorConfig(kind="grid", resolution=1000),
                  "grid1d": IntegratorConfig(kind="grid", resolution=40_000),
                  "disk": GRID_2D,
                  "mc": IntegratorConfig(kind="mc", n=50_000, seed=7)}[case]
    base = NascentMD(obj, region, k=0.0, integrator=integrator)
    for k in (0.0, 1.0, np.e ** 3, np.e ** 5, np.e ** 7):
        m = base.with_k(k)
        mom = m.moments()
        for name, (value, err, abs_mean, both_abs_mean, clip) in _dense_moments(m).items():
            got, got_err = _got(m, mom, name)
            assert np.max(np.abs(got - value)) <= 1e-13 * abs_mean + clip, (k, name)
            if got_err is not None:
                assert abs(got_err - err) <= 1e-13 * both_abs_mean + clip, (k, name)
        # log-sums L_i(k) of k log tau on each level, the dense reference for log Z and
        # log E tau = L(k + 1) - L(k), whose subtraction rounds at eps (|L(k)| + |L(k + 1)|);
        # the 1 stands for logsumexp's own log1p and log rounding when L is near 0
        log_sums = [[logsumexp(kk * m.resolved_tau().log_tau(lv.f)) for kk in (k, k + 1.0)]
                    for lv in m.levels()]
        log_Z = log_sums[1][0] + m.levels()[1].log_node_weight
        assert abs(m.log_Z() - log_Z) <= 4 * np.spacing(abs(log_Z)), k
        coarse, fine = (b - a for a, b in log_sums)
        rounding = [4 * np.finfo(float).eps * (1.0 + abs(a) + abs(b)) for a, b in log_sums]
        log_e_tau = m.log_expect_tau()
        assert abs(log_e_tau.value - fine) <= rounding[1], k
        assert abs(log_e_tau.error - abs(fine - coarse)) <= sum(rounding), k


def test_moments_make_no_level_sized_float_array():
    """A stage walks each 1024^2 level in blocks: moments(), and log Z and log E tau at
    a fresh k, each allocate under 1 MiB at their peak without clipping (k = 1), and
    with clipping but no cut (k = 20 puts k log tau's range above CLIP, and 815,584
    nodes, more than N/4, within CLIP of the max) only the bool mask in which the pass
    marks, before it walks, the nodes that it will weigh, N bytes, more.  One
    level-sized float array is 8 MiB."""
    obj, region = catalog_get("paper2d")
    m = NascentMD(obj, region, integrator=IntegratorConfig(kind="grid", resolution=1024))
    n = m.levels()[1].f.size
    for k, bound in ((1.0, 2 ** 20), (20.0, n + 2 ** 20)):
        for name in ("moments", "log_Z", "log_expect_tau"):
            m._shared["moments"].clear()  # a fresh k: no pass at k is cached
            m._shared["log_Z"].clear()
            tracemalloc.start()
            try:
                getattr(m.with_k(k), name)()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (k, name, peak)
    lv = m.levels()[1]
    assert 20.0 * lv.log_tau_min < 20.0 * lv.log_tau_max - nmd.CLIP  # k = 20 clips
    assert not m._shared["support"]  # and cuts neither level


def test_support_cut_allocates_its_mask_and_copies_alone():
    """On paper2d's 1024^2 level, 811,201 nodes lie within CLIP of the max at k = e^3,
    more than N/4, so the log Z pass there walks the whole level; 131,861 do at e^4,
    between N/8 and N/4, so the pass there cuts the level to them and walks the cut.
    On rastrigin's 200,000 Monte Carlo points the pass at k = 2 walks the whole level
    and the pass at e cuts it to 36,765 points, gathered from the sample's rows block
    by block.  Each cutting pass allocates the bool mask in which it marks the kept
    nodes from f, N bytes, the copies of their f and points, 24 bytes per kept node,
    and under 1 MiB more (32 bytes per kept node for slack)."""
    for name, integrator, ks, size in [
            ("paper2d", IntegratorConfig(kind="grid", resolution=1024),
             (np.exp(3.0), np.exp(4.0)), 131_861),
            ("rastrigin", IntegratorConfig(kind="mc", n=200_000, seed=0), (2.0, np.e), 36_765)]:
        obj, region = catalog_get(name)
        m = NascentMD(obj, region, integrator=integrator)
        level = m.levels()[1]
        m.with_k(ks[0]).log_Z()
        assert m.with_k(ks[0])._support(1) is level
        tracemalloc.start()
        try:
            m.with_k(ks[1]).log_Z()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sub = m.with_k(ks[1])._support(1)
        assert sub.size == size
        assert peak < level.size + 32 * sub.size + 2 ** 20, (name, peak)


def test_a_cut_holds_exactly_the_nodes_its_pass_weighed():
    """The pass at k = e^4 over paper2d's 1024^2 level cuts it, before it walks, to the
    nodes that a walk of the whole level would weigh, k log tau >= k max log tau - CLIP:
    131,861 nodes, with the f and the point bits of the compressed level, and with log
    tau at their own largest f as the cut's min, so the walk of the cut at e^4 clips
    nothing."""
    obj, region = catalog_get("paper2d")
    m = NascentMD(obj, region, k=np.exp(4.0),
                  integrator=IntegratorConfig(kind="grid", resolution=1024))
    m.moments()
    lv = m.levels()[1]
    a = m.resolved_tau().log_tau(lv.f, m.k)
    want = a >= m.k * lv.log_tau_max - nmd.CLIP
    assert np.count_nonzero(want) == 131_861
    sub = m._support(1)
    assert sub.f.tobytes() == lv.f[want].tobytes()
    assert sub.points.tobytes(order="A") == region.build_grid(1024).nodes[want].tobytes(order="F")
    assert sub.log_tau_min == m.resolved_tau().log_tau(np.max(lv.f[want]), 1.0) > lv.log_tau_min
    assert m.k * sub.log_tau_min >= m.k * sub.log_tau_max - nmd.CLIP


def test_a_pass_cuts_when_at_most_a_quarter_of_its_nodes_weigh():
    """On rastrigin's 1024^2 level, 394,556 nodes lie within CLIP of the max at k = 2,
    more than N/4, so the pass at 2 walks the whole level; 192,744 do at k = e, between
    N/8 and N/4, so the pass at e cuts the level to them before it walks, and the pass
    at e^2 cuts that cut again to 20,200."""
    obj, region = catalog_get("rastrigin")
    base = NascentMD(obj, region, integrator=IntegratorConfig(kind="grid", resolution=1024))
    lv = base.levels()[1]
    sizes = []
    for k in (2.0, np.e, np.exp(2.0)):
        m = base.with_k(k)
        m.moments()
        sizes.append(m._support(1).size)
    a = base.resolved_tau().log_tau(lv.f, 2.0)
    assert np.count_nonzero(a >= 2.0 * lv.log_tau_max - nmd.CLIP) == 394_556
    assert sizes == [lv.size, 192_744, 20_200]


@pytest.mark.parametrize("case", ["grid1024", "mc20000"])
def test_clipped_nodes_carry_at_most_n_e_minus_clip(case):
    """At k = e^2 ... e^8, each k starting from the cut the last one left, the nodes
    that the weight pass clips (k log tau more than CLIP below its max) carry at most
    N e^-CLIP of each level's dense softmax(k log tau) mass, and the pass's E f,
    E (f - c)^2 and E x equal the unclipped dense ones within 1e-13 of E|h| plus that
    tail times max|h|: paper2d at 1024^2, and rastrigin under Monte Carlo at 20,000."""
    function, integrator = {
        "grid1024": ("paper2d", IntegratorConfig(kind="grid", resolution=1024)),
        "mc20000": ("rastrigin", IntegratorConfig(kind="mc", n=20_000, seed=7))}[case]
    base = NascentMD(*catalog_get(function), k=0.0, integrator=integrator)
    clipped = 0
    for k in np.exp(np.arange(2.0, 9.0)):
        m = base.with_k(k)
        mom = m.moments()
        for lv in m.levels():
            a = m.resolved_tau().log_tau(lv.f, k)
            e = np.exp(a - a.max())
            out = a < a.max() - nmd.CLIP
            clipped += np.count_nonzero(out)
            assert np.sum(e[out]) <= lv.size * np.exp(-nmd.CLIP) * np.sum(e), k
        for name, (value, _, abs_mean, _, clip) in _dense_moments(m).items():
            if name != "log_tau":
                got = getattr(mom, name).value
                assert np.max(np.abs(got - value)) <= 1e-13 * abs_mean + clip, (k, name)
    assert clipped > 0 and base._shared["support"]


def test_paper2d_1024_continuation_walks_its_cuts(monkeypatch):
    """Annealing paper2d at 1024^2 reduces levels of 5,464,988 nodes in all (6,775,547
    when a pass cut its level only after walking it, 10,610,180 when k log tau was also
    clipped at 650 below its max and a level cut at 1/8): the fine passes walk the whole
    level four times, then cuts of 131,861, 29,415, 7,193, 953 and 129 nodes, each
    walked by the stage that makes it, 7,193 and 953 twice, since a stage that would
    keep more than a quarter of its support does not cut."""
    reduced = []
    reduce = NascentMD._reduce

    def spy_reduce(self, level, *args, **kwargs):
        reduced.append(level.size)
        return reduce(self, level, *args, **kwargs)
    monkeypatch.setattr(NascentMD, "_reduce", spy_reduce)
    run_continuation(*catalog_get("paper2d"),
                     ContinuationConfig(integrator=IntegratorConfig(kind="grid", resolution=1024)))
    assert reduced[1::2] == [1024 ** 2] * 4 + [131_861, 29_415, 7_193, 7_193, 953, 953, 129]
    assert sum(reduced) == 5_464_988


@pytest.mark.parametrize("case", ["paper2d1024", "rastrigin1024", "paper2d-rational",
                                  "rastrigin-mc200000"])
def test_every_walk_weighs_over_a_quarter_of_what_it_walks(case, quarter_walks):
    """Annealing paper2d and rastrigin at 1024^2, paper2d under rational tau and rastrigin
    under Monte Carlo at 200,000 points, every walk that clips weighs more than a quarter
    of the nodes it walks: a pass that would weigh fewer cuts its support from f before
    it walks.  At each k where a cut is made, the moments from the cut equal the dense
    ones over every node of both levels within 1e-13 of E|h|."""
    function, integrator, tau = {
        "paper2d1024": ("paper2d", IntegratorConfig(kind="grid", resolution=1024), Exponential()),
        "rastrigin1024": ("rastrigin", IntegratorConfig(kind="grid", resolution=1024),
                          Exponential()),
        "paper2d-rational": ("paper2d", None, Rational()),
        "rastrigin-mc200000": ("rastrigin", IntegratorConfig(kind="mc", n=200_000, seed=7),
                               Exponential())}[case]
    with quarter_walks() as walks:
        run_continuation(*catalog_get(function),
                         ContinuationConfig(integrator=integrator, tau=tau))
    cut_at = {m.k: m for m, _, cut in walks if cut}
    assert cut_at
    for k, m in cut_at.items():
        mom = m.moments()
        for name, (value, err, abs_mean, both_abs_mean, clip) in _dense_moments(m).items():
            if name != "log_tau":
                got = getattr(mom, name)
                assert np.max(np.abs(got.value - value)) <= 1e-13 * abs_mean + clip, (k, name)
                assert abs(got.error - err) <= 1e-13 * both_abs_mean + clip, (k, name)


def test_a_weight_pass_is_the_one_walk_over_its_level(monkeypatch):
    """Annealing paper2d at 256^2 walks the nodes only in weight passes, each once: the
    f entries that ``DensityLevel.blocks()`` yields add up to the sizes of the levels
    that ``_reduce`` reduced."""
    walked, reduced = [], []
    blocks, reduce = nmd.DensityLevel.blocks, NascentMD._reduce

    def spy_blocks(level):
        for block in blocks(level):
            walked.append(block[0].size)
            yield block

    def spy_reduce(self, level, *args, **kwargs):
        reduced.append(level.size)
        return reduce(self, level, *args, **kwargs)
    monkeypatch.setattr(nmd.DensityLevel, "blocks", spy_blocks)
    monkeypatch.setattr(NascentMD, "_reduce", spy_reduce)
    run_continuation(*catalog_get("paper2d"))
    assert reduced and sum(walked) == sum(reduced)


@pytest.fixture(scope="module")
def cut_levels(paper2d_disk):
    """The finest level of paper2d's density on its box (256^2), on the disk, whose
    members a cut reads through the mesh's int32 map to lattice positions, and under
    Monte Carlo, each with a copy of its nodes from a twin mesh or its points, so
    that no level's mesh builds its own node array."""
    obj, region = catalog_get("paper2d")
    out = {}
    for name, (o, r, integrator) in {
            "box": (obj, region, GRID_2D), "disk": (*paper2d_disk, GRID_2D),
            "mc": (obj, region, IntegratorConfig(kind="mc", n=40_000, seed=3))}.items():
        m = NascentMD(o, r, k=5.0, integrator=integrator)
        level = m.levels()[1]
        nodes = level.points if level.mesh is None else r.build_grid(GRID_2D.resolution).nodes
        out[name] = m, level, nodes
    return out


@settings(derandomize=True, deadline=None, max_examples=30)
@given(name=st.sampled_from(["box", "disk", "mc"]), p=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_cut_gathers_kept_nodes_bit_for_bit(cut_levels, name, p, seed):
    """A cut copies its nodes block by block from their positions: the bits of the
    compressed node array, coordinate-major; its moments have the bits of the same
    pass over a level that holds those nodes' f and points as arrays; and a cut of a
    cut has the f and points bytes of the cut of the composed mask."""
    m, level, nodes = cut_levels[name]
    rng = np.random.default_rng(seed)
    keep = rng.random(level.size) < p
    keep[np.argmin(level.f)] = True  # a node where log tau is maximal
    sub = level.restrict(keep, m.resolved_tau())
    want = np.compress(keep, nodes.T, axis=1).T
    assert sub.nodes.flags.f_contiguous and sub.nodes.tobytes() == want.tobytes()
    assert sub.node(sub.size - 1).tobytes() == want[-1].tobytes()
    dense = nmd.DensityLevel(want, level.log_node_weight, None, level.f[keep],
                             level.log_tau_max, level.log_tau_min)
    moments = [lambda f, *_: f, lambda f, *_: np.square(f - 1.0),
               lambda f, points: points]
    got, ref = m._reduce(sub, moments)[0], m._reduce(dense, moments)[0]
    assert all(np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(got, ref))
    again = rng.random(sub.size) < 0.5
    again[np.argmin(sub.f)] = True  # a cut keeps a node where log tau is maximal
    both = np.zeros_like(keep)
    both[np.flatnonzero(keep)[again]] = True
    twice, once = sub.restrict(again, m.resolved_tau()), level.restrict(both, m.resolved_tau())
    assert twice.f.tobytes() == once.f.tobytes()
    assert twice.points.tobytes(order="A") == once.points.tobytes(order="A")
    assert level.mesh is None or "nodes" not in vars(level.mesh)


def test_weight_pass_stays_on_exp_fast_path(monkeypatch):
    """Annealing rastrigin at 256^2 reaches k where many k log tau lie more than
    708 below the maximum, where np.exp leaves its fast path.  The weight pass
    never hands exp such an input, no weight is subnormal, and the moments
    still equal the dense ones."""
    obj, region = catalog_get("rastrigin")
    exp, support = np.exp, NascentMD._support
    exp_min, normal, by_k = [], [], {}

    def spy_exp(x, *args, **kwargs):
        exp_min.append(float(np.min(x)))
        e = exp(x, *args, **kwargs)
        normal.append(bool(np.all((e == 0.0) | (e >= np.finfo(float).tiny))))
        return e

    def spy_support(self, i):
        by_k[self.k] = self
        return support(self, i)
    with monkeypatch.context() as mp:
        mp.setattr(np, "exp", spy_exp)
        mp.setattr(NascentMD, "_support", spy_support)
        run_continuation(obj, region)
    assert exp_min and min(exp_min) >= -708.0
    assert normal and all(normal)
    slow = 0
    for k, m in by_k.items():
        for lv in m.levels():
            slow += np.count_nonzero(k * m.resolved_tau().log_tau(lv.f)
                                     < k * lv.log_tau_max - 708.0)
        mom = m.moments()
        # scaled by E|h|: E x is 0 by symmetry, up to rounding
        for name, (value, err, scale, _, clip) in _dense_moments(m).items():
            got, got_err = _got(m, mom, name)
            assert np.max(np.abs(got - value)) <= 1e-13 * scale + clip, (k, name)
            # and the error by the larger of E|h| and itself, which rounds with it
            if got_err is not None:
                assert abs(got_err - err) <= 1e-13 * max(scale, abs(err)) + clip, (k, name)
    assert slow > 0  # the dense pass would have taken the slow path
