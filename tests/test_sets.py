import dataclasses

import numpy as np
import pytest

import mdopt.sets as sets_mod
from mdopt.integrate import IntegratorConfig
from mdopt.nmd import NascentMD, Rational
from mdopt.objective import Objective, catalog_get, gradient
from mdopt.region import box
from mdopt.sets import (BasinError, BracketingError, MeshMismatchError,
                        NearCriticalPointError, SetKind, SignificantSet, _boundary_points,
                        basin_masses, boundary_points, brentq, containment_check,
                        descent_rate, equivalence_check_dtau, extract_set,
                        shrink_rate_empirical, shrink_rate_theoretical,
                        solve_boundary_move)

import oracles


GRID_1D = IntegratorConfig(kind="grid", resolution=4096)


@pytest.fixture(scope="module")
def paper1d_md():
    obj, region = catalog_get("paper1d")
    return NascentMD(obj, region, k=1.0, integrator=GRID_1D)


@pytest.fixture(scope="module")
def paper1d_mesh():
    _, region = catalog_get("paper1d")
    return region.build_grid(4096)


def test_constant_sets_are_whole_region():
    obj, region = catalog_get("const3")
    m = NascentMD(obj, region, k=5.0)
    mesh = region.build_grid(64)
    for kind in SetKind:
        s = extract_set(m, kind, mesh)
        assert np.all(s.mask)
        assert s.measure == pytest.approx(1.0, abs=1e-12)


def test_d0_at_k0_is_whole_region(paper1d_md, paper1d_mesh):
    s = extract_set(paper1d_md.with_k(0.0), SetKind.D0, paper1d_mesh)
    assert np.all(s.mask)


def test_df_shrinks(paper1d_md, paper1d_mesh):
    s3 = extract_set(paper1d_md.with_k(3.0), SetKind.DF, paper1d_mesh)
    s9 = extract_set(paper1d_md.with_k(9.0), SetKind.DF, paper1d_mesh)
    ok, violations = containment_check(s9, s3)
    assert ok and violations == 0
    assert s9.measure < s3.measure


def test_containment_self(paper1d_md, paper1d_mesh):
    s = extract_set(paper1d_md.with_k(2.0), SetKind.D0, paper1d_mesh)
    assert containment_check(s, s) == (True, 0)


def test_containment_swapped_fails(paper1d_md, paper1d_mesh):
    s1 = extract_set(paper1d_md.with_k(1.0), SetKind.D0, paper1d_mesh)
    s2 = extract_set(paper1d_md.with_k(2.0), SetKind.D0, paper1d_mesh)
    ok, violations = containment_check(s2, s1)
    assert ok and violations == 0
    ok_rev, violations_rev = containment_check(s1, s2)
    assert not ok_rev and violations_rev > 0


def test_containment_mesh_mismatch(paper1d_md, paper1d_mesh):
    _, region = catalog_get("paper1d")
    other = region.build_grid(2048)
    a = extract_set(paper1d_md, SetKind.DF, paper1d_mesh)
    b = extract_set(paper1d_md, SetKind.DF, other)
    with pytest.raises(MeshMismatchError):
        containment_check(a, b)


def test_nested_chain_all_kinds(paper1d_md, paper1d_mesh):
    for kind in SetKind:
        prev = None
        for k in (0.0, 1.0, 2.0, 4.0, 8.0):
            s = extract_set(paper1d_md.with_k(k), kind, paper1d_mesh)
            if prev is not None:
                ok, v = containment_check(s, prev)
                assert ok, f"{kind} not nested at k={k}: {v} violations"
            prev = s


def test_argmin_in_every_set(paper1d_md, paper1d_mesh):
    obj, _ = catalog_get("paper1d")
    i_star = int(np.argmin(obj(paper1d_mesh.nodes)))
    for kind in SetKind:
        for k in (0.0, 1.0, 4.0, 16.0):
            s = extract_set(paper1d_md.with_k(k), kind, paper1d_mesh)
            assert s.mask[i_star]


def test_equivalence_dtau_constant():
    obj, region = catalog_get("const3")
    m = NascentMD(obj, region, k=2.0)
    assert equivalence_check_dtau(m, region.build_grid(128)) == 0


def test_equivalence_dtau_paper1d(paper1d_md, paper1d_mesh):
    assert equivalence_check_dtau(paper1d_md.with_k(3.0), paper1d_mesh) == 0


def test_equivalence_dtau_paper2d():
    obj, region = catalog_get("paper2d")
    m = NascentMD(obj, region, k=1.0, integrator=IntegratorConfig(kind="grid", resolution=256))
    assert equivalence_check_dtau(m, region.build_grid(256)) == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tau", [None, Rational()], ids=["exponential", "rational"])
@pytest.mark.parametrize("name", ["paper1d", "paper2d", "stability2d", "rastrigin", "ackley",
                                  "doublewell"])
def test_each_set_is_one_f_threshold_with_the_log_space_bits(name, tau):
    """Every family's {f <= level} mask on the finest level's mesh has the bits of its
    inequality in log tau (``oracles.log_space_set_masks``), from k = 0, where D0 is
    everything, through k = 1e-300, where a rational tau's inverse overflows to +inf."""
    obj, region = catalog_get(name)
    m0 = NascentMD(obj, region, tau=tau, k=0.0)
    mesh = m0.levels()[-1].mesh
    f, rt = m0.mesh_values(mesh), m0.resolved_tau()
    shift = {} if tau is None else dict(L=rt.L, p=rt.p)
    for k in (0.0, 1e-300, 1e-12, 1.0, 4.0, 16.0, 64.0):
        m = m0.with_k(k)
        want = oracles.log_space_set_masks(f, k, m.expect_f().value, m.log_expect_tau().value,
                                           m.log_Z(), m.region_measure(), **shift)
        for kind in SetKind:
            assert np.array_equal(extract_set(m, kind, mesh).mask, want[kind.value]), (kind, k)
        if k == 0.0:
            assert np.all(want["D0"])


def test_boundary_points_k0_empty(paper1d_md, paper1d_mesh):
    s = extract_set(paper1d_md.with_k(0.0), SetKind.D0, paper1d_mesh)
    assert boundary_points(s) == []


def test_boundary_points_on_level(paper1d_md, paper1d_mesh):
    m = paper1d_md.with_k(8.0)
    s = extract_set(m, SetKind.D0, paper1d_mesh)
    pts = boundary_points(s)
    assert len(pts) > 0
    mu = m.region_measure()
    for x in pts:
        assert abs(m.density(x) * mu - 1.0) <= 1e-10


def test_boundary_points_circle():
    obj, region = catalog_get("quadratic")
    m = NascentMD(obj, region, k=8.0, integrator=IntegratorConfig(kind="grid", resolution=256))
    s = extract_set(m, SetKind.D0, region.build_grid(256))
    radii = np.array([np.linalg.norm(p) for p in boundary_points(s)])
    assert radii.size > 0
    assert (radii.max() - radii.min()) / radii.mean() < 0.05


def test_boundary_points_wrong_kind(paper1d_md, paper1d_mesh):
    s = extract_set(paper1d_md, SetKind.DF, paper1d_mesh)
    with pytest.raises(ValueError):
        boundary_points(s)


def test_shrink_rate_scaling_identity(paper1d_md):
    # rate * k * |grad f| reproduces |E - f|, the explicit 1/k dependence
    m = paper1d_md.with_k(8.0)
    obj, _ = catalog_get("paper1d")
    x = np.array([1.5])
    rate = shrink_rate_theoretical(m, x)
    gn = np.linalg.norm(gradient(obj, x))
    assert rate * m.k * gn == pytest.approx(abs(m.expect_f().value - obj(x)), rel=1e-12)


def test_shrink_rate_near_critical(paper1d_md):
    obj, _ = catalog_get("quadratic")
    _, region = catalog_get("quadratic")
    m = NascentMD(obj, region, k=4.0, integrator=IntegratorConfig(kind="grid", resolution=128))
    with pytest.raises(NearCriticalPointError, match=r"^gradient vanishes at x = \[0\. 0\.\] "
                                                     r"\(k = 4\); shrink rate undefined$"):
        shrink_rate_theoretical(m, np.zeros(2))


def test_shrink_rate_empirical_matches_theoretical(paper1d_md, paper1d_mesh):
    m = paper1d_md.with_k(8.0)
    obj, _ = catalog_get("paper1d")
    s = extract_set(m, SetKind.D0, paper1d_mesh)
    checked = 0
    for x in boundary_points(s):
        if np.linalg.norm(gradient(obj, x)) <= 0.1:
            continue
        theo = shrink_rate_theoretical(m, x)
        ratio_01 = shrink_rate_empirical(m, x, 0.01) / theo
        ratio_001 = shrink_rate_empirical(m, x, 0.001) / theo
        assert 0.95 <= ratio_01 <= 1.05
        # first-order limit: agreement does not degrade as dk shrinks
        assert abs(ratio_001 - 1.0) <= abs(ratio_01 - 1.0) + 1e-6
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("tau", [None, Rational(p=1.0)])
def test_descent_rate_cross_check(tau, paper1d_mesh):
    obj, region = catalog_get("paper1d")
    kwargs = {} if tau is None else {"tau": tau}
    m = NascentMD(obj, region, k=8.0, integrator=GRID_1D, **kwargs)
    s = extract_set(m, SetKind.D0, paper1d_mesh)
    dk = 0.01
    for x in boundary_points(s):
        if np.linalg.norm(gradient(obj, x)) <= 0.1:
            continue
        rate = descent_rate(m, x)
        t, d = solve_boundary_move(m, x, dk)
        measured = (obj(x) - obj(x + t * d)) / dk
        assert measured == pytest.approx(rate, rel=0.05)


@pytest.mark.parametrize("dk", [0.0, -0.01, 1e-300, np.nan])
def test_boundary_move_needs_a_dk_that_changes_k(paper1d_md, dk):
    """A delta_k that is not positive, or so small that k + delta_k rounds to k, would
    divide a zero move by delta_k; it is rejected before any root is sought."""
    with pytest.raises(ValueError, match="delta_k"):
        solve_boundary_move(paper1d_md.with_k(8.0), np.array([1.0]), dk)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rates_need_k_above_zero(paper1d_md):
    """At k = 0 the density is uniform and D0 has no boundary: the public rates raise
    instead of returning inf."""
    m = paper1d_md.with_k(0.0)
    for rate in (descent_rate, shrink_rate_theoretical):
        with pytest.raises(ValueError, match=r"^descent_rate needs k > 0: at k = 0 "):
            rate(m, [1.0])


def test_descent_rate_sign(paper1d_md):
    m = paper1d_md.with_k(8.0)
    obj, _ = catalog_get("paper1d")
    e = m.expect_f().value
    for x in (np.array([0.2]), np.array([1.7])):
        assert np.sign(descent_rate(m, x)) == np.sign(obj(x) - e)


def test_basin_mass_single_minimizer(paper1d_md, paper1d_oracle):
    xs, _ = paper1d_oracle
    rep = basin_masses(paper1d_md.with_k(1000.0), [[xs]], 0.25)
    assert rep.masses[0] > 0.99


def test_basin_mass_stability_ordering():
    obj, region = catalog_get("stability1d")
    md = NascentMD(obj, region, k=3.0, integrator=GRID_1D)
    flat, sharp = np.sqrt(2.0 * np.pi), np.sqrt(6.0 * np.pi)
    for k in (3.0, 9.0):
        rep = basin_masses(md.with_k(k), [[flat], [sharp]], 0.25)
        assert rep.masses[0] > rep.masses[1]


def test_basin_mass_symmetric_double_well():
    obj, region = catalog_get("doublewell")
    m = NascentMD(obj, region, k=5.0, integrator=GRID_1D)
    rep = basin_masses(m, [[-1.0], [1.0]], 0.25)
    assert rep.masses[0] == pytest.approx(rep.masses[1], abs=1e-10)


def test_basin_mass_overlap_rejected(paper1d_md):
    with pytest.raises(BasinError):
        basin_masses(paper1d_md, [[2.0], [2.3]], 0.25)


def test_basin_mass_boundary_rejected(paper1d_md):
    with pytest.raises(BasinError):
        basin_masses(paper1d_md, [[0.1]], 0.25)


@pytest.mark.parametrize("radius", [0.0, -1.0, np.nan, np.inf])
def test_basin_mass_radius_must_be_finite_and_positive(radius):
    """A radius that is not finite and positive is rejected by name: 0, -1 and NaN
    used to report masses of 0, and inf a ball that touches the boundary."""
    obj, region = catalog_get("doublewell")
    m = NascentMD(obj, region, k=50.0, integrator=GRID_1D)
    with pytest.raises(BasinError, match="radius"):
        basin_masses(m, [[-1.0], [1.0]], radius)


def test_rational_rates_match_closed_forms(paper1d_mesh):
    obj, region = catalog_get("paper1d")
    m = NascentMD(obj, region, tau=Rational(p=1.0), k=8.0, integrator=GRID_1D)
    tau = m.resolved_tau()
    elt = m.expect_log_tau()
    pts = boundary_points(extract_set(m, SetKind.D0, paper1d_mesh))
    assert len(pts) > 0
    for x in pts:
        # tau = 1/(f - L + p): the closed forms in terms of tau and |grad tau|
        denom = obj(x) - tau.L + tau.p
        lt = -np.log(denom)
        grad_tau_norm = np.linalg.norm(gradient(obj, x)) / denom ** 2
        theo = np.exp(lt) * abs(elt - lt) / (m.k * grad_tau_norm)
        assert shrink_rate_theoretical(m, x) == pytest.approx(theo, rel=1e-12)
        assert descent_rate(m, x) == pytest.approx(denom / m.k * (elt - lt), rel=1e-12)


def test_extract_set_reuses_finest_level_f():
    """A mesh with a level's layout reads that level's f, whatever region object
    built it; any other mesh is evaluated once for every k and kind.  The coarse
    level is built, once, by the first pass that reads it."""
    obj, region = catalog_get("paper1d")
    calls = []

    def fn(p):
        calls.append(p.shape[0])
        return obj.fn(p)
    counted = dataclasses.replace(obj, fn=fn)
    base = NascentMD(counted, region, k=1.0,
                     integrator=IntegratorConfig(kind="grid", resolution=1024))
    base.region_measure()  # builds the finest level alone
    assert calls == [1024]
    twin = type(region)(region.lower, region.upper)  # same layout, another object
    # the 1024 case's first E f pass builds the coarse level, which the 512 mesh reads
    cases = [(region.build_grid(1024), 512), (region.build_grid(512), 0),
             (twin.build_grid(1024), 0), (region.build_grid(300), 300)]
    for mesh, evals in cases:
        before = sum(calls)
        for k in (1.0, 4.0):
            for kind in SetKind:
                extract_set(base.with_k(k), kind, mesh)
            equivalence_check_dtau(base.with_k(k), mesh)
        assert sum(calls) - before == evals
    # the cached f is the f a fresh evaluation gives
    twin_mesh = cases[2][0]
    assert np.array_equal(base.mesh_values(twin_mesh), obj(twin_mesh.nodes))


@pytest.mark.parametrize("name, tau", [("paper2d", None), ("paper1d", Rational(p=1.0))])
def test_rates_on_a_batch_equal_single_points(name, tau):
    obj, region = catalog_get(name)
    kwargs = {} if tau is None else {"tau": tau}
    m = NascentMD(obj, region, k=8.0, **kwargs)
    mesh = region.build_grid(m.integrator.resolution)
    pts = np.array(boundary_points(extract_set(m, SetKind.D0, mesh)))
    assert len(pts) > 0
    t, d = solve_boundary_move(m, pts, 0.01)
    batched = {
        "theoretical": shrink_rate_theoretical(m, pts),
        "empirical": shrink_rate_empirical(m, pts, 0.01),
        "descent": descent_rate(m, pts),
    }
    for i, x in enumerate(pts):
        assert batched["theoretical"][i] == shrink_rate_theoretical(m, x)
        assert batched["empirical"][i] == shrink_rate_empirical(m, x, 0.01)
        assert batched["descent"][i] == descent_rate(m, x)
        t1, d1 = solve_boundary_move(m, x, 0.01)
        assert t[i] == t1 and np.array_equal(d[i], d1)


def test_rates_reject_a_batch_with_a_critical_point():
    obj, region = catalog_get("quadratic")
    m = NascentMD(obj, region, k=4.0, integrator=IntegratorConfig(kind="grid", resolution=128))
    with pytest.raises(NearCriticalPointError, match=r"at x = \[0\. 0\.\] \(k = 4\)"):
        shrink_rate_theoretical(m, np.array([[0.3, 0.2], [0.0, 0.0]]))


def test_boundary_solver_evaluation_counts():
    obj, region = catalog_get("paper2d")
    calls = []

    def fn(p):
        calls.append(p.shape[0])
        return obj.fn(p)
    m = NascentMD(dataclasses.replace(obj, fn=fn), region, k=8.0)
    s = extract_set(m, SetKind.D0, region.build_grid(256))
    before = sum(calls)
    pts = boundary_points(s)
    assert len(pts) > 0
    assert (sum(calls) - before) / len(pts) <= 7.0
    before = sum(calls)
    solve_boundary_move(m, np.array(pts), 0.01)
    assert (sum(calls) - before) / len(pts) <= 7.0



@pytest.mark.parametrize("name, tau", [("paper2d", None), ("stability2d", None),
                                       ("paper1d", Rational(p=1.0))])
def test_boundary_points_come_with_f_at_each_point(name, tau):
    """The core behind ``boundary_points`` returns f at each point, from the root
    solve's last step or a node's mesh f: bit for bit what f gives there."""
    obj, region = catalog_get(name)
    m = NascentMD(obj, region, k=8.0, **({} if tau is None else {"tau": tau}))
    s = extract_set(m, SetKind.D0, region.build_grid(m.integrator.resolution))
    pts, f = _boundary_points(s)
    assert len(pts) > 0
    assert np.array_equal(pts, boundary_points(s))
    assert np.array_equal(f, obj(pts))


def test_boundary_points_evaluate_f_at_no_mesh_node():
    """The gaps at the straddling edges' ends come from ``mesh_values``: every f
    evaluation in ``boundary_points`` is a root-solver step between nodes."""
    obj, region = catalog_get("paper2d")
    seen = []

    def fn(p):
        seen.append(p.copy())
        return obj.fn(p)
    m = NascentMD(dataclasses.replace(obj, fn=fn), region, k=8.0)
    mesh = region.build_grid(256)
    s = extract_set(m, SetKind.D0, mesh)
    seen.clear()
    assert len(boundary_points(s)) > 0
    points = np.concatenate(seen)
    assert len(points) > 0
    nodes = mesh.nodes[:, 0] + 1j * mesh.nodes[:, 1]
    assert not np.any(np.isin(points[:, 0] + 1j * points[:, 1], nodes))


@pytest.mark.parametrize("name, centers, ks", [
    ("doublewell", [[-1.0], [1.0]], (1.0, 5.0, 1e4)),
    ("stability1d", [[np.sqrt(2.0 * np.pi)], [np.sqrt(6.0 * np.pi)]], (3.0, 9.0, 1e3)),
])
def test_basin_masses_are_support_weight_sums(name, centers, ks, support_weights):
    """Each mass is the expectation of the ball's indicator: the finest support's
    weights summed over the ball, up to summation order."""
    obj, region = catalog_get(name)
    md = NascentMD(obj, region, integrator=GRID_1D)
    for k in ks:
        m = md.with_k(k)
        rep = basin_masses(m, centers, 0.25)
        fine, w = support_weights(m, 1)
        for c, mass in zip(centers, rep.masses):
            ball = np.linalg.norm(fine.nodes - np.asarray(c), axis=1) <= 0.25
            assert mass == pytest.approx(float(np.sum(w[ball])), rel=0, abs=1e-14)


@pytest.mark.parametrize("on_disk", [False, True])
def test_basin_masses_build_no_node_array(paper2d_disk, on_disk, support_weights):
    """The ball's indicator reaches an uncut grid level slab by slab from its mesh,
    so neither level builds its node array, and the mass is the weights summed
    over the ball's nodes of a twin mesh."""
    obj, region = paper2d_disk if on_disk else catalog_get("paper2d")
    m = NascentMD(obj, region, k=1.0, integrator=IntegratorConfig(kind="grid", resolution=256))
    centre = (region.lower + region.upper) / 2.0
    rep = basin_masses(m, [centre], 0.3)
    for lv in m.levels():
        assert "nodes" not in vars(lv.mesh)
    fine, w = support_weights(m, 1)
    assert fine.mesh is not None
    ball = np.linalg.norm(region.build_grid(256).nodes - centre, axis=1) <= 0.3
    assert rep.masses[0] == pytest.approx(float(np.sum(w[ball])), rel=0, abs=1e-14)


def test_containment_rejects_meshes_with_different_members():
    # same box and resolution, complementary halves of 2,048 nodes each
    obj, region = catalog_get("quadratic")
    left = dataclasses.replace(region, constraints=(lambda p: 0.25 - p[:, 0],))
    right = dataclasses.replace(region, constraints=(lambda p: p[:, 0] - 0.25,))
    sets = []
    for r in (left, right):
        mesh = r.build_grid(64)
        assert mesh.nodes.shape[0] == 2048
        sets.append(extract_set(NascentMD(obj, r, k=2.0), SetKind.DF, mesh))
    assert not sets[0].mesh.same_layout(sets[1].mesh)
    assert sets[0].mesh.same_layout(left.build_grid(64))
    with pytest.raises(MeshMismatchError):
        containment_check(*sets)


def test_solve_boundary_move_takes_one_gradient(monkeypatch):
    import mdopt.sets as sets_mod
    obj, region = catalog_get("ackley")
    assert obj.grad is None  # finite differences: 2 * dim f-evaluations per point
    m = NascentMD(obj, region, k=8.0)
    pts = np.array(boundary_points(extract_set(m, SetKind.D0, m.levels()[-1].mesh)))
    g = gradient(obj, pts)
    pts = pts[np.sqrt(np.vecdot(g, g)) > 0.1][:50]
    assert len(pts) > 0
    calls = []

    def counting(*args, **kwargs):
        calls.append(np.shape(args[1]))
        return gradient(*args, **kwargs)
    monkeypatch.setattr(sets_mod, "gradient", counting)
    t, _ = solve_boundary_move(m, pts, 0.01)
    assert calls == [pts.shape]
    monkeypatch.undo()
    assert np.array_equal(t, [solve_boundary_move(m, x, 0.01)[0] for x in pts])


def _steep_boundary_points(name, k):
    """D0 boundary points at k on the default grid where |grad f| > 0.1, and |grad f|."""
    obj, region = catalog_get(name)
    m = NascentMD(obj, region, k=k)
    pts = np.reshape(boundary_points(extract_set(m, SetKind.D0, m.levels()[-1].mesh)),
                     (-1, region.dim))
    g = gradient(obj, pts)
    gn = np.sqrt(np.vecdot(g, g))
    return m, pts[gn > 0.1], gn[gn > 0.1]


def _scan_move(m, pts, d, gn, delta_k):
    """The boundary move from a 65-point scan over 10x the predicted move on both
    sides alone, rooted in the bracket of the sign change nearest t = 0."""
    m2 = m.with_k(m.k + delta_k)
    level = sets_mod._level(m2)
    t_max = 10.0 * (np.abs(descent_rate(m, pts)) / gn) * delta_k
    ts = np.linspace(-t_max, t_max, 65)
    scan = pts + ts[:, :, None] * d
    f = m.objective(scan.reshape(-1, pts.shape[1])).reshape(ts.shape)
    vals = f - level
    crosses = np.sign(vals[:-1]) * np.sign(vals[1:]) < 0
    assert np.all(np.any(crosses, axis=0))
    near = np.where(crosses, np.minimum(np.abs(ts[:-1]), np.abs(ts[1:])), np.inf)
    i, cols = np.argmin(near, axis=0), np.arange(ts.shape[1])
    return brentq(m2, level, pts, d, (ts[i, cols], scan[i, cols], f[i, cols]),
                  (ts[i + 1, cols], scan[i + 1, cols], f[i + 1, cols]))[0]


def test_boundary_move_falls_back_to_the_scan():
    """paper1d at k = 8, dk = 16: twice the Newton step from t = 0 brackets no
    crossing of the f-level of m^(k+dk) on some rows; those rows get the scan's
    root, bit for bit, and every row lands on the density level."""
    m, pts, gn = _steep_boundary_points("paper1d", 8.0)
    dk, log_level = 16.0, -np.log(m.region_measure())
    m2 = m.with_k(m.k + dk)
    t, d = solve_boundary_move(m, pts, dk)
    gap = m2.log_density(pts + t[:, None] * d) - log_level
    assert np.all(np.abs(np.expm1(gap)) <= 1e-10)
    assert np.array_equal(t, [solve_boundary_move(m, x, dk)[0] for x in pts])
    level = sets_mod._level(m2)
    g0 = m.objective(pts) - level
    t1 = -2.0 * g0 / gn
    miss = g0 * (m.objective(pts + t1[:, None] * d) - level) >= 0.0
    assert 0 < np.count_nonzero(miss) < len(pts)
    assert np.array_equal(t[miss], _scan_move(m, pts[miss], d[miss], gn[miss], dk))


def test_boundary_move_without_a_crossing_raises():
    """paper2d at k = 8, dk = 4: on some row neither the Newton bracket nor the scan
    crosses.  The error names k + dk and the first such row, to numpy's 8 decimals."""
    m, pts, _ = _steep_boundary_points("paper2d", 8.0)
    with pytest.raises(BracketingError, match=r"^no level crossing at k = 12 within 10x the "
                                              r"predicted move from x = \[") as err:
        solve_boundary_move(m, pts, 4.0)
    named = np.array(str(err.value).split("[")[1].rstrip("]").split(), dtype=float)
    assert np.any(np.all(np.abs(pts - named) <= 1e-8, axis=1))


def _identity_level(inside):
    """f(x) = x on [0, 1] at 8 nodes, the binary-exact (2i + 1)/16, under m^(0), which
    is 1/mu everywhere; a D0 set whose mask is ``inside`` of the nodes, and the list
    that records every f call."""
    calls = []

    def fn(p):
        calls.append(p.copy())
        return p[:, 0]
    region = box(0.0, 1.0)
    m = NascentMD(Objective(name="identity", dim=1, fn=fn), region, k=0.0,
                  integrator=IntegratorConfig(kind="grid", resolution=8))
    mesh = region.build_grid(8)
    f = m.mesh_values(mesh)
    calls.clear()
    sset = SignificantSet(kind=SetKind.D0, k=m.k, mesh=mesh, mask=inside(f), measure=0.0,
                          threshold=0.0, source=m)
    return sset, calls


@pytest.mark.parametrize("inside", [lambda f: f <= 0.5625, lambda f: f >= 0.5625],
                         ids=["a-end", "b-end"])
def test_boundary_points_keep_a_node_on_the_level(monkeypatch, inside):
    """With the D0 f-level faked as 9/16, the one straddling edge has its a end (mask
    f <= 9/16) or its b end (f >= 9/16) exactly on it: that node comes back with its
    mesh f, and f is not evaluated.  At k = 0 the node passes the density check."""
    sset, calls = _identity_level(inside)
    monkeypatch.setattr(sets_mod, "_level", lambda m, slack=False: 0.5625)
    pts, f = _boundary_points(sset)
    assert pts.tolist() == [[0.5625]] and f.tolist() == [0.5625]
    assert calls == []


def test_level_crossing_returns_an_end_on_the_level():
    """A row whose lo end has f on the level 9/16 steps onto that end, and a row whose hi
    end does stops at once; each returns the end's t, point and f as passed, without
    calling f."""
    sset, calls = _identity_level(lambda f: f <= 0.5625)
    x0, v = np.array([[0.5625], [0.4375]]), np.array([[0.125], [0.125]])
    lo = (0.0, x0, np.array([0.5625, 0.4375]))
    hi = (1.0, np.array([[0.6875], [0.5625]]), np.array([0.6875, 0.5625]))
    t, x, f = brentq(sset.source, 0.5625, x0, v, lo, hi)
    assert t.tolist() == [0.0, 1.0]
    assert x.tolist() == [[0.5625], [0.5625]] and f.tolist() == [0.5625, 0.5625]
    assert calls == []


def test_level_crossing_that_does_not_converge_names_its_line_and_k():
    """A lo end held with f = -3e299 against the level 0.3 keeps every false-position
    step on the hi end for 100 halvings; the error names k and the row's x0."""
    sset, _ = _identity_level(lambda f: f <= 0.5625)
    x0, v = np.array([[0.0]]), np.array([[1.0]])
    with pytest.raises(RuntimeError, match=r"^level crossing at k = 0 did not converge in 100 "
                                           r"steps on the line from x = \[0\.\]$"):
        brentq(sset.source, 0.3, x0, v, (0.0, x0, np.array([-3e299])),
               (1.0, x0 + v, np.ones(1)))
