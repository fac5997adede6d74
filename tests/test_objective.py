import os
import sys
import threading
import time

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
    assert sorted(rows) == [5, BLOCK_ROWS, BLOCK_ROWS]  # calls may arrive out of row order
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
    (*_catalog_obj("paper1d"), 100_000, BLOCK_ROWS),
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
    sizes = {}  # fn calls may arrive out of mesh order: key each by its first point

    def fn(p):
        sizes[p[0].tobytes()] = len(p)
        return obj.fn(p)
    got = evaluate_batch(Objective(name=obj.name, dim=obj.dim, fn=fn), mesh)
    assert "nodes" not in vars(mesh)
    want = evaluate_batch(obj, mesh.nodes)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert sum(sizes.values()) == mesh.node_count == len(mesh.nodes)
    assert max(sizes.values()) <= rows
    if not region.constraints and res ** region.dim > rows:
        # whole rows of the last axis per slab, as many as fit, or a piece of one row
        first = sizes[mesh.nodes[0].tobytes()]
        assert first == (rows // res * res if res <= rows else rows)


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


WORKER_COUNTS = [1, 2, 3, 7]


def _evaluate_sized(obj, xs):
    """``evaluate_batch`` with the sorted sizes of the fn calls it made."""
    sizes = []

    def fn(p):
        sizes.append(len(p))
        return obj.fn(p)
    vals = evaluate_batch(Objective(name=obj.name, dim=obj.dim, fn=fn), xs)
    return vals.view(np.uint64).tolist(), sorted(sizes)


@pytest.mark.parametrize("obj, region, res, rows", MESH_CASES,
                         ids=[f"{c[0].name}-{c[2]}-{c[3]}" for c in MESH_CASES])
def test_mesh_evaluation_has_the_same_bits_at_any_worker_count(monkeypatch, obj, region,
                                                               res, rows):
    """However many threads share a mesh's slabs, f has the same bits and fn sees the
    same blocks."""
    monkeypatch.setattr(objective, "BLOCK_ROWS", rows)
    mesh = region.build_grid(res)
    results = []
    for workers in WORKER_COUNTS:
        monkeypatch.setattr(objective, "WORKERS", workers)
        results.append(_evaluate_sized(obj, mesh))
    assert all(r == results[0] for r in results[1:])
    assert sum(results[0][1]) == mesh.node_count


@pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 7])
def test_batch_evaluation_has_the_same_bits_at_any_worker_count(monkeypatch, n):
    obj, _ = catalog_get("rastrigin")
    xs = np.random.default_rng(n).uniform(-5.12, 5.12, (n, 2))
    results = []
    for workers in WORKER_COUNTS:
        monkeypatch.setattr(objective, "WORKERS", workers)
        results.append(_evaluate_sized(obj, xs))
    assert all(r == results[0] for r in results[1:])
    assert results[0][0] == obj.fn(xs).view(np.uint64).tolist()
    assert sum(results[0][1]) == n and all(s <= BLOCK_ROWS for s in results[0][1])


class _Boom(RuntimeError):
    """Raised by a test's fn, naming the first point of its block."""


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_failures_under_threads(monkeypatch, workers):
    """At any thread count, a failed call raises what one thread raises today: the
    exception of the lowest block that raised (a misshapen result included, even after
    a non-finite value in an earlier block), else the first non-finite point in mesh
    order; and it leaves no thread running."""
    monkeypatch.setattr(objective, "BLOCK_ROWS", 100)
    monkeypatch.setattr(objective, "WORKERS", workers)
    mesh = CompactRegion(np.zeros(2), np.ones(2), (_disk,)).build_grid(256)
    nodes = mesh.nodes
    bad = nodes[[len(nodes) // 3, len(nodes) // 2, len(nodes) - 3]]  # three slabs
    threads = threading.active_count()

    def nan_at(p):
        return np.where((p[:, None] == bad).all(axis=2).any(axis=1), np.nan, p[:, 0])

    def boom_from(x0, first):
        def fn(p):
            if p[0, 0] >= x0:
                if np.array_equal(p[0], first):
                    time.sleep(0.05)  # later blocks raise first
                raise _Boom(p[0].tolist())
            return p[:, 0]
        return fn

    def misshapen_from(x0):
        return lambda p: (p[:, 0] if p[0, 0] < x0 else p[:-1, 0]) * np.nan

    assert len(evaluate_batch(Objective("ok", 2, lambda p: p[:, 0]), mesh)) == len(nodes)
    assert threading.active_count() == threads
    with pytest.raises(EvaluationError) as err:
        evaluate_batch(Objective("nan_at", 2, nan_at), mesh)
    assert np.array_equal(err.value.point, bad[0])
    assert str(err.value) == f"nan_at returned non-finite value at {bad[0]}"
    assert threading.active_count() == threads
    x0 = nodes[len(nodes) // 2, 0]
    first = nodes[np.argmax(nodes[:, 0] >= x0)]  # the first point of the first raising slab
    with pytest.raises(_Boom) as err:
        evaluate_batch(Objective("boom", 2, boom_from(x0, first)), mesh)
    assert err.value.args[0] == first.tolist()
    assert threading.active_count() == threads
    with pytest.raises(ValueError, match=r"misshapen returned shape \(\d+,\) for \d+ rows"):
        evaluate_batch(Objective("misshapen", 2, misshapen_from(x0)), mesh)
    assert threading.active_count() == threads


@pytest.mark.parametrize("workers", WORKER_COUNTS[1:])
def test_an_exception_in_a_helper_reaches_the_caller(monkeypatch, workers):
    """The caller holds its first block until a helper has raised in one of its own;
    the helper's exception, or its misshapen result, is what the caller raises."""
    monkeypatch.setattr(objective, "WORKERS", workers)
    xs = np.linspace(0.0, 1.0, 4 * BLOCK_ROWS)[:, None]
    threads = threading.active_count()
    for fail, want in [(lambda p: _Boom(threading.current_thread().name), _Boom),
                       (lambda p: p[:-1, 0], ValueError)]:
        helper_ran = threading.Event()

        def fn(p):
            if threading.current_thread() is threading.main_thread():
                assert helper_ran.wait(10)
                return p[:, 0]
            helper_ran.set()
            out = fail(p)
            if isinstance(out, BaseException):
                raise out
            return out
        with pytest.raises(want) as err:
            evaluate_batch(Objective("helper", 1, fn), xs)
        assert threading.active_count() == threads
        if want is _Boom:
            assert err.value.args[0] != threading.main_thread().name
        else:
            assert "helper returned shape" in str(err.value)


@pytest.mark.parametrize("interrupter, interrupt", [("caller", KeyboardInterrupt),
                                                    ("helper", SystemExit)])
def test_an_interrupt_is_raised_ahead_of_every_block(monkeypatch, interrupter, interrupt):
    """One thread raises an interrupt in its block while the other raises an ordinary
    exception in its own, which is the lower block whenever the interrupter took block 0
    and went on: the caller raises the interrupt, and leaves no thread running."""
    monkeypatch.setattr(objective, "WORKERS", 2)
    xs = np.arange(8 * BLOCK_ROWS, dtype=float)[:, None]
    threads = threading.active_count()
    waiting, boomed = threading.Event(), threading.Event()

    def fn(p):
        if (threading.current_thread() is threading.main_thread()) == (interrupter == "caller"):
            if p[0, 0] == 0.0:
                return p[:, 0]
            waiting.set()
            assert boomed.wait(10)
            raise interrupt()
        assert waiting.wait(10)
        boomed.set()
        raise _Boom()
    with pytest.raises(interrupt):
        evaluate_batch(Objective("interrupt", 1, fn), xs)
    assert threading.active_count() == threads


def test_workers_is_at_most_two():
    """Time and memory were measured at two threads, so no more are started."""
    assert objective.WORKERS == min(2, len(os.sched_getaffinity(0)))


def test_no_block_is_claimed_after_a_failure(monkeypatch):
    """The first of 64 blocks raises at once while every other block takes 50 ms, so each
    thread evaluates at most about two blocks before it sees the failure and stops."""
    xs = np.arange(BLOCK_ROWS, dtype=float)[:, None]
    monkeypatch.setattr(objective, "BLOCK_ROWS", BLOCK_ROWS // 64)
    for workers in WORKER_COUNTS:
        monkeypatch.setattr(objective, "WORKERS", workers)
        calls = []

        def fn(p):
            calls.append(len(p))
            if p[0, 0] == 0.0:
                raise _Boom()
            time.sleep(0.05)
            return p[:, 0]
        with pytest.raises(_Boom):
            evaluate_batch(Objective("boom", 1, fn), xs)
        assert 1 <= len(calls) <= 2 * workers


def test_slab_claims_under_thread_switches_lose_no_block(monkeypatch):
    """Seven threads on a 30^3 mesh cut into 4,500 slabs of at most seven points,
    switching every microsecond: every slab is evaluated exactly once, and f keeps
    its bits."""
    obj, region = _catalog_obj("rastrigin", 3)
    monkeypatch.setattr(objective, "BLOCK_ROWS", 7)
    mesh = region.build_grid(30)
    want = evaluate_batch(obj, mesh.nodes)
    firsts = []

    def fn(p):
        firsts.append(p[0].tobytes())
        return obj.fn(p)
    monkeypatch.setattr(objective, "WORKERS", 7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = evaluate_batch(Objective(obj.name, 3, fn), mesh)
    finally:
        sys.setswitchinterval(interval)
    assert len(firsts) == len(set(firsts)) == 30 * 30 * 5
    assert got.tobytes() == want.tobytes()


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
