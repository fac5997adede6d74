import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdopt.objective import Objective, catalog_get, evaluate_batch
from mdopt.region import BLOCK_ROWS, box
from mdopt.useq import MIN_NODES, useq_init, useq_run, useq_step

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
    state, buf = useq_init(obj, region, 64)
    nxt = useq_step(state, buf)
    assert nxt.stopped
    assert nxt.threshold == pytest.approx(3.0)
    assert nxt.node_count == state.node_count
    assert np.array_equal(buf, evaluate_batch(obj, state.mesh))


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


@pytest.mark.parametrize("rel_tol", [-1e-12, -1.0, np.nan])
def test_run_rejects_negative_rel_tol(rel_tol):
    obj, region = catalog_get("paper1d")
    with pytest.raises(ValueError, match="rel_tol"):
        useq_run(obj, region, 64, rel_tol=rel_tol)


def test_run_accepts_zero_rel_tol():
    obj, region = catalog_get("paper1d")
    states, _ = useq_run(obj, region, 4096, rel_tol=0.0)
    assert states[-1].stopped or len(states) == 65


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


def _states_match_mask_recurrence(obj, region, res) -> int:
    """Check every state of a run against the recurrence's, numbers exactly;
    returns the number of states."""
    states, _ = useq_run(obj, region, res)
    want = _mask_recurrence(obj, region, res)
    assert len(states) == len(want)
    for s, (threshold, measure, count, best, mask) in zip(states, want):
        assert (s.threshold, s.measure, s.node_count, s.best_value) == (
            threshold, measure, count, best)
        assert np.array_equal(s.mask, mask)
    return len(states)


def _table_problem(table):
    """f = table[floor(x)] over [0, n] at resolution n: node i has f = table[i]."""
    n = table.shape[0]
    obj = Objective(name="table", dim=1, fn=lambda p: table[np.floor(p[:, 0]).astype(np.intp)])
    return obj, box(0.0, float(n)), n


@pytest.mark.parametrize("name", ["paper2d", "rastrigin"])
def test_states_match_mask_recurrence(name):
    obj, region = catalog_get(name)
    assert _states_match_mask_recurrence(obj, region, 256) > 5


def test_states_hold_no_node_array():
    """A state is a row of scalars next to the run's shared mesh, objective and
    f holder, which stays empty until a mask is read: its set is {f <= level},
    level the previous threshold (inf for the mesh)."""
    obj, region = catalog_get("rastrigin")
    states, _ = useq_run(obj, region, 256)
    assert states[0].node_count == 256 * 256 and states[0].level == np.inf
    assert states[0].mesh_f == []
    for prev, s in zip([None, *states], states):
        assert s.mesh is states[0].mesh and s.objective is obj
        assert s.mesh_f is states[0].mesh_f
        held = {k: v for k, v in vars(s).items() if k not in ("mesh", "objective", "mesh_f")}
        assert all(isinstance(v, (int, float, bool)) for v in held.values()), held
        assert prev is None or s.level == prev.threshold
        assert np.count_nonzero(s.mask) == s.node_count


def test_reading_every_mask_of_a_run_evaluates_f_once():
    """The first mask read of a run evaluates f on the mesh; every later read, on
    any state of that run, compares the same f with its own level."""
    obj, region = catalog_get("paper2d")
    points = [0]

    def fn(p):
        points[0] += p.shape[0]
        return obj.fn(p)
    states, _ = useq_run(replace(obj, fn=fn), region, 128)
    assert len(states) > 2 and points[0] == 128 * 128
    masks = [s.mask for s in states] + [s.mask for s in states]
    assert points[0] == 2 * 128 * 128
    assert [np.count_nonzero(m) for m in masks] == 2 * [s.node_count for s in states]


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
    _states_match_mask_recurrence(*_table_problem(table))


@pytest.mark.parametrize("seed", range(4))
def test_compaction_across_block_edges_matches_mask_recurrence(seed):
    """More than two compaction blocks, the last one partial, with runs of ties
    from the table palette and a few integers straddling every block edge."""
    rng = np.random.default_rng(seed)
    n = 2 * BLOCK_ROWS + 1237
    palette = np.concatenate([TABLE_VALUES, rng.integers(-30, 30, 12).astype(float)])
    lengths = rng.integers(1, 3000, n)
    table = np.repeat(rng.choice(palette, n), lengths)[:n]
    for edge in (BLOCK_ROWS, 2 * BLOCK_ROWS):
        table[edge - 700:edge + 700] = rng.choice(palette)
    assert _states_match_mask_recurrence(*_table_problem(table)) > 2


@pytest.mark.parametrize("low_at", [[5, BLOCK_ROWS + 3, 2 * BLOCK_ROWS + 400],
                                    [2 * BLOCK_ROWS + 10 + 7 * j for j in range(MIN_NODES)]])
def test_stopping_step_leaves_its_set_in_the_buffer(low_at):
    """A step with fewer than MIN_NODES survivors stops, after a step that moved
    values across block edges, and buf[:node_count] still holds its set; with
    MIN_NODES survivors, all in the last, partial block, the step goes on."""
    n = 2 * BLOCK_ROWS + 1000
    table = np.ones(n)
    table[::3] = 2.0  # the first step drops every third node
    table[low_at] = 0.0
    obj, region, n = _table_problem(table)
    state, buf = useq_init(obj, region, n)
    first = useq_step(state, buf)
    assert not first.stopped and first.node_count == np.count_nonzero(table <= 1.0)
    assert np.array_equal(buf[:first.node_count], table[table <= first.level])
    second = useq_step(first, buf)
    assert np.array_equal(buf[:second.node_count], table[table <= second.level])
    if len(low_at) < MIN_NODES:
        assert second.stopped and second == replace(first, stopped=True)
    else:
        assert not second.stopped and second.node_count == MIN_NODES
        assert np.all(buf[:MIN_NODES] == 0.0)


def test_useq_holds_no_node_array():
    """The mesh keeps its axes and mask; f is evaluated from them, and each step
    compacts the set's values within f, so a run's peak is about f alone, not
    the (N, 2) nodes or a per-state copy: at most 1.5 x 8N bytes (the node array
    alone would be 2 x 8N)."""
    obj, region = catalog_get("rastrigin")
    mesh = region.build_grid(64)
    assert "nodes" not in vars(mesh)
    assert mesh.nodes.shape == (64 * 64, 2) and "nodes" in vars(mesh)
    n = 1024 ** 2
    for name in ("paper2d", "rastrigin", "ackley"):
        obj, region = catalog_get(name)
        tracemalloc.start()
        try:
            states, _ = useq_run(obj, region, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "nodes" not in vars(states[0].mesh)
        assert peak <= 1.5 * 8 * n, name
