import hashlib

import numpy as np
import pytest

from mdopt.integrate import IntegratorConfig, levels
from mdopt.region import (DOT_ROWS, CompactRegion, DimensionMismatchError, EmptyRegionError,
                          InfeasibleRegionError, RegionError, _dot, box)


def disk_constraint(p):
    return 0.25 - np.sum((p - 0.5) ** 2, axis=1)


@pytest.fixture
def disk_region():
    return CompactRegion(np.zeros(2), np.ones(2), (disk_constraint,))


def test_contains_interior_and_boundary():
    r = box(0.0, 5.0)
    assert r.contains(np.array([2.5]))
    assert r.contains(np.array([5.0]))  # closed box
    assert not r.contains(np.array([5.0000001]))


def test_contains_disk(disk_region):
    assert not disk_region.contains(np.array([0.0, 0.0]))
    assert disk_region.contains(np.array([0.5, 0.5]))


def test_contains_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        box(0.0, 5.0).contains(np.array([1.0, 2.0]))


def test_invalid_bounds():
    with pytest.raises(RegionError):
        box(1.0, 1.0)


def test_measure_box_exact():
    est = box(0.0, 5.0).measure()
    assert est.value == 5.0 and est.error == 0.0
    est2 = CompactRegion(np.zeros(2), np.full(2, 3.5)).measure()
    assert est2.value == pytest.approx(12.25) and est2.error == 0.0


def test_measure_disk(disk_region):
    est = levels(disk_region, IntegratorConfig(resolution=512))[1]
    assert abs(est.value - np.pi / 4.0) <= max(est.error, 1e-3)


def test_measure_refinement_converges(disk_region):
    coarse = levels(disk_region, IntegratorConfig(resolution=256))[1]
    fine = levels(disk_region, IntegratorConfig(resolution=512))[1]
    assert abs(fine.value - coarse.value) < max(coarse.error, 1e-4)


def test_measure_constrained_needs_mc_n(disk_region):
    with pytest.raises(RegionError):
        disk_region.measure()
    est = disk_region.measure(mc_n=20_000, seed=1)
    assert abs(est.value - np.pi / 4.0) <= est.error


def test_empty_region_rejected():
    with pytest.raises(EmptyRegionError):
        CompactRegion(np.zeros(1), np.ones(1), (lambda p: -np.ones(p.shape[0]),))


def test_build_grid_cell_centers():
    mesh = box(0.0, 1.0).build_grid(4)
    assert np.allclose(mesh.nodes[:, 0], [0.125, 0.375, 0.625, 0.875])
    assert mesh.cell_volume == pytest.approx(0.25)


def test_build_grid_counts():
    mesh = box(0.0, 5.0).build_grid(10)
    assert mesh.nodes.shape == (10, 1)
    assert mesh.cell_volume == pytest.approx(0.5)


def test_build_grid_filters_members(disk_region):
    mesh = disk_region.build_grid(32)
    assert mesh.nodes.shape[0] < 32 * 32
    assert np.all(disk_region.contains(mesh.nodes))


def _meshgrid_nodes(region, res):
    """The nodes of a meshgrid + stack build (the former construction)."""
    widths = (region.upper - region.lower) / res
    axes = [region.lower[j] + (np.arange(res) + 0.5) * widths[j] for j in range(region.dim)]
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    return pts[region.contains(pts)] if region.constraints else pts


@pytest.mark.parametrize("region, res", [
    (box(-1.0, 2.0), 37),
    (box([0.0, -1.0], [3.5, 2.0]), 33),
    (box([0.0, -1.0, 2.0], [1.0, 1.0, 3.0]), 9),
    (CompactRegion(np.zeros(2), np.ones(2), (disk_constraint,)), 64),
], ids=["1d", "2d", "3d", "disk"])
def test_build_grid_coordinate_major_nodes(region, res):
    mesh = region.build_grid(res)
    want = _meshgrid_nodes(region, res)
    assert mesh.nodes.shape == want.shape
    assert np.array_equal(mesh.nodes, want)
    assert all(mesh.nodes[:, j].flags.c_contiguous for j in range(region.dim))
    assert mesh.lattice_mask.shape == (res,) * region.dim
    assert np.count_nonzero(mesh.lattice_mask) == mesh.node_count == want.shape[0]
    # a box's mask is every lattice point, held as one broadcast element
    assert (mesh.lattice_mask.strides == (0,) * region.dim) == (not region.constraints)


def test_build_grid_bad_resolution():
    with pytest.raises(RegionError):
        box(0.0, 1.0).build_grid(1)


def test_sample_deterministic():
    r = box(0.0, 1.0)
    a = r.sample_uniform(3, seed=7)
    b = r.sample_uniform(3, seed=7)
    assert np.array_equal(a, b)
    c = r.sample_uniform(3, seed=8)
    assert not np.array_equal(a, c)


def test_sample_uniform_moments():
    pts = box(0.0, 5.0).sample_uniform(10**4, seed=1)
    assert abs(pts.mean() - 2.5) < 3.0 * 5.0 / np.sqrt(12.0 * 10**4)


def test_sample_members_only(disk_region):
    pts = disk_region.sample_uniform(500, seed=3)
    assert pts.shape == (500, 2)
    assert np.all(disk_region.contains(pts))


def test_sample_infeasible():
    # band of width 1e-9 centered on a probe node, so construction succeeds
    # but rejection sampling cannot
    sliver = CompactRegion(np.zeros(1), np.ones(1),
                           (lambda p: 5e-10 - np.abs(p[:, 0] - 0.53125),))
    with pytest.raises(InfeasibleRegionError):
        sliver.sample_uniform(100, seed=0)


def test_high_dimensional_ball_constructs():
    # the probe samples the box instead of building a 16^d or 4^d lattice
    ball = CompactRegion(-np.ones(12), np.ones(12), (lambda p: 1.0 - np.sum(p ** 2, axis=1),))
    assert ball.dim == 12
    with pytest.raises(EmptyRegionError):
        CompactRegion(-np.ones(12), np.ones(12), (lambda p: -np.ones(p.shape[0]),))


def _small_disk(p):
    return 0.01 - np.sum((p - 0.5) ** 2, axis=1)


def test_seeded_box_draws_keep_their_bits():
    """Sampling and the Monte Carlo measure read one Philox stream per seed; these
    digests pin its bits, so a refactor of the draws cannot move them."""
    def digest(a):
        return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]
    thin = CompactRegion(np.zeros(2), np.ones(2), (_small_disk,))  # several batches
    assert digest(thin.sample_uniform(100, seed=11)) == "45fbce2e1412f70a"
    assert digest(box([-1.0, 0.0], [2.0, 3.0]).sample_uniform(500, seed=11)) == "5adb22fb5b3c109c"
    mu = thin.measure(mc_n=5000, seed=3)
    assert (mu.value.hex(), mu.error.hex()) == ("0x1.0624dd2f1a9fcp-5", "0x1.e95c45479d814p-8")


@pytest.mark.parametrize("cols", [None, 2])
def test_dot_sums_chunks_of_at_most_dot_rows(cols):
    """_dot is one ``@`` up to DOT_ROWS rows, and past that the sum, in order, of the
    chunks' ``@``: no BLAS call sees more rows than OpenBLAS keeps thread-independent."""
    rng = np.random.default_rng(5)
    a = rng.random(2 * DOT_ROWS + 100)
    b = rng.random(a.shape if cols is None else (a.size, cols))
    short = slice(0, DOT_ROWS)
    assert np.asarray(_dot(a[short], b[short])).tobytes() == (a[short] @ b[short]).tobytes()
    chunks = [a[i:i + DOT_ROWS] @ b[i:i + DOT_ROWS] for i in range(0, a.size, DOT_ROWS)]
    assert np.asarray(_dot(a, b)).tobytes() == ((chunks[0] + chunks[1]) + chunks[2]).tobytes()
    assert DOT_ROWS <= 10_000
