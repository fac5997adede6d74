import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdopt.objective import Objective, catalog_get
from mdopt.region import box
from mdopt.useq import useq_init, useq_run, useq_step

import oracles


def test_constant_stops_immediately():
    obj, region = catalog_get("const3")
    states, fstar = useq_run(obj, region, 256)
    assert fstar == pytest.approx(3.0, abs=1e-12)
    assert states[-1].stopped
    assert states[-1].iteration == 0


def test_linear_thresholds_halve():
    obj = Objective(name="lin", dim=1, fn=lambda p: p[:, 0])
    states, _ = useq_run(obj, box(0.0, 1.0), 2 ** 16)
    thresholds = [s.threshold for s in states if not s.stopped]
    for i, t in enumerate(thresholds[:6]):
        assert t == pytest.approx(0.5 ** (i + 1), rel=1e-3)


def test_masks_nested_and_counts_decrease():
    obj, region = catalog_get("paper1d")
    states, _ = useq_run(obj, region, 2 ** 16)
    for a, b in zip(states, states[1:]):
        if b.stopped:
            break
        assert np.all(b.mask <= a.mask)
        assert b.node_count < a.node_count


def test_thresholds_strictly_decrease():
    obj, region = catalog_get("paper1d")
    states, _ = useq_run(obj, region, 2 ** 16)
    ts = [s.threshold for s in states if not s.stopped]
    assert all(b < a for a, b in zip(ts, ts[1:]))


def test_sandwich_lower_bound(paper1d_oracle):
    _, fs = paper1d_oracle
    obj, region = catalog_get("paper1d")
    states, _ = useq_run(obj, region, 2 ** 16)
    for s in states:
        assert s.threshold >= fs


def test_paper1d_converges(paper1d_oracle):
    _, fs = paper1d_oracle
    obj, region = catalog_get("paper1d")
    _, fstar = useq_run(obj, region, 2 ** 16, rel_tol=1e-6)
    assert abs(fstar - fs) < 1e-2


def test_paper2d_survivors_near_minimizer(paper2d_oracle):
    x2, fs2 = paper2d_oracle
    obj, region = catalog_get("paper2d")
    states, fstar = useq_run(obj, region, 1024, rel_tol=1e-6)
    assert abs(fstar - fs2) < 5e-2
    final = states[-1]
    survivors = final.mesh.nodes[final.mask]
    assert np.all(np.linalg.norm(survivors - x2, axis=1) < 0.1)


def test_step_constant_sets_flag():
    obj, region = catalog_get("const3")
    state = useq_init(obj, region, 64)
    nxt = useq_step(state)
    assert nxt.stopped
    assert nxt.threshold == pytest.approx(3.0)
    assert nxt.node_count == state.node_count


def test_best_value_tracks_minimum():
    obj, region = catalog_get("paper1d")
    states, _ = useq_run(obj, region, 4096)
    best = [s.best_value for s in states]
    assert all(b >= best[0] - 1e-15 for b in best)  # argmin survives every step
    assert best[-1] == best[0]


def test_rel_tol_stops_after_small_improvement():
    obj, region = catalog_get("paper1d")
    states, fstar = useq_run(obj, region, 4096, rel_tol=1.0)
    assert len(states) == 2
    assert not any(s.stopped for s in states)
    assert fstar == states[-1].threshold


@pytest.mark.parametrize("max_iter", [0, -3])
def test_run_rejects_max_iter_below_one(max_iter):
    obj, region = catalog_get("paper1d")
    with pytest.raises(ValueError, match="max_iter"):
        useq_run(obj, region, 64, max_iter=max_iter)


def _mask_recurrence(obj, region, res, max_iter=64, rel_tol=1e-6):
    """(threshold, measure, node_count, best_value, mask) per state, from a
    boolean mask over all nodes narrowed step by step (the former recurrence)."""
    mesh = region.build_grid(res)
    f = obj.fn(mesh.nodes)
    mask = np.ones(f.shape[0], dtype=bool)
    rows = [(np.mean(f[mask]), mesh.cell_volume * np.count_nonzero(mask),
             np.count_nonzero(mask), np.min(f[mask]), mask)]
    for _ in range(max_iter):
        new = mask & (f <= rows[-1][0])
        count = np.count_nonzero(new)
        if count == 0 or count == rows[-1][2] or count < 16:
            break
        rows.append((np.mean(f[new]), mesh.cell_volume * count, count, np.min(f[new]), new))
        mask = new
        if abs(rows[-2][0] - rows[-1][0]) < rel_tol * max(abs(rows[-1][0]), 1.0):
            break
    return rows


@pytest.mark.parametrize("name", ["paper2d", "rastrigin"])
def test_states_match_mask_recurrence(name):
    obj, region = catalog_get(name)
    states, _ = useq_run(obj, region, 256)
    want = _mask_recurrence(obj, region, 256)
    assert len(states) == len(want) > 5
    for s, (threshold, measure, count, best, mask) in zip(states, want):
        assert (s.threshold, s.measure, s.node_count, s.best_value) == (
            threshold, measure, count, best)
        assert np.array_equal(s.mask, mask)


def test_states_share_f_and_hold_only_their_values():
    obj, region = catalog_get("rastrigin")
    states, _ = useq_run(obj, region, 256)
    n = 256 * 256
    assert states[0].values is states[0].fvals and states[0].node_count == n
    for s in states:
        assert s.fvals is states[0].fvals
        held = [v for v in vars(s).values() if isinstance(v, np.ndarray) and v is not s.fvals]
        assert all(v.shape[0] < n for v in held)
        assert np.array_equal(s.values, s.fvals[s.mask])
        assert s.values.shape[0] == s.node_count


# ties, -0.0 against 0.0, the smallest subnormal, a huge value, and 0.1, whose
# mean over three copies rounds above 0.1
TABLE_VALUES = (0.1, 0.1 + 2.0 ** -56, 1.0 / 3.0, -0.0, 0.0, 5e-324, 1e300, -2.5)


@st.composite
def tables(draw):
    """n from 2 to 300 values from a palette of one to three pool values: long
    runs of ties, so that a set mean often lands exactly on a table value."""
    n = draw(st.integers(2, 300))
    palette = draw(st.lists(st.sampled_from(TABLE_VALUES), min_size=1, max_size=3))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return np.random.default_rng(seed).choice(np.array(palette), n)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(tables())
def test_sets_are_sublevel_sets_of_the_mask_recurrence(table):
    """On f = table[floor(x)] over [0, n] at resolution n (one node per cell),
    every state's numbers and mask equal the boolean-mask recurrence's."""
    n = table.shape[0]
    obj = Objective(name="table", dim=1, fn=lambda p: table[np.floor(p[:, 0]).astype(np.intp)])
    region = box(0.0, float(n))
    states, _ = useq_run(obj, region, n)
    want = _mask_recurrence(obj, region, n)
    assert len(states) == len(want)
    for s, (threshold, measure, count, best, mask) in zip(states, want):
        assert (s.threshold, s.measure, s.node_count, s.best_value) == (
            threshold, measure, count, best)
        assert np.array_equal(s.mask, mask)
        assert np.array_equal(s.values, s.fvals[mask])


def test_useq_holds_no_node_array():
    """The mesh keeps its axes and mask; f is evaluated from them, so the run's
    peak is about f plus the history's first set, not the (N, 2) nodes: at most
    3 x 8N bytes (the node array alone would be 2 x 8N)."""
    obj, region = catalog_get("rastrigin")
    mesh = region.build_grid(64)
    assert "nodes" not in vars(mesh)
    assert mesh.nodes.shape == (64 * 64, 2) and "nodes" in vars(mesh)
    n = 512 ** 2
    tracemalloc.start()
    try:
        states, _ = useq_run(obj, region, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "nodes" not in vars(states[0].mesh)
    assert peak <= 3 * 8 * n
