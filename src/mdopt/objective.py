"""Target functions on compact regions, plus a registry of stock problems.

Objectives are vectorized and row-wise: ``fn`` maps an ``(N, dim)`` array to
an ``(N,)`` array whose i-th value depends on row i only, since batches are
evaluated in blocks of ``BLOCK_ROWS`` rows and grid meshes slab by slab.  Those
blocks are shared out among ``WORKERS`` threads (two, or one on a process pinned
to one CPU), so ``fn`` may be called from several threads at once on disjoint
blocks and must keep no mutable state; numpy's ufuncs release the interpreter
lock, so the calls overlap.  Gradients are analytic when registered, central
finite differences otherwise.
"""

from __future__ import annotations

import itertools
import os
import re
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .region import (BLOCK_ROWS, CompactRegion, DimensionMismatchError, GridMesh, _as_points,
                     _slab_buffer, box)


class EvaluationError(ValueError):
    """Objective produced a non-finite value at a member point."""

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


class UnknownFunctionError(KeyError):
    """Requested name is not in the catalog."""


class StencilError(ValueError):
    """Finite-difference stencil would leave the region."""


# threads that share one evaluate_batch call's blocks: the CPUs this process may run on,
# at most 2, the count whose time and memory were measured (each thread holds one
# block's buffer and fn's temporaries); the BLAS thread variables do not apply
WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


@dataclass(frozen=True)
class Objective:
    """Scalar field on a region, with optional gradient and test oracle data.

    ``fn`` is row-wise and may be called from several threads at once, each on its
    own block of rows: it must keep no mutable state."""

    name: str
    dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    oracle_minimizers: Optional[tuple] = None

    def __call__(self, x) -> float | np.ndarray:
        """f at a point or each row of a batch; non-finite values raise."""
        pts, single = _as_points(x, self.dim)
        vals = evaluate_batch(self, pts)
        return float(vals[0]) if single else vals


def evaluate_batch(obj: Objective, xs) -> np.ndarray:
    """f per row of a batch, one fn call per BLOCK_ROWS rows, or per node of a grid
    mesh, one fn call per slab of at most BLOCK_ROWS lattice points written from
    its axes (no node array is made); rejects non-finite or misshapen values and
    names the first non-finite point in row or mesh order.

    The caller and up to WORKERS - 1 helper threads, started only when there is more
    than one block, claim blocks by index and write each block's values at its offset,
    so every value has the same bits at any thread count.  A block that raises (a
    misshapen result too) stops further claims, and the caller raises the exception of
    the lowest such block; failing that, a non-finite value is named from the lowest
    block that holds one, after every block has been evaluated.  An interrupt
    (``KeyboardInterrupt``, or ``SystemExit`` from fn) stops the claims too and is
    raised ahead of any block's exception."""
    if isinstance(xs, GridMesh):
        if xs.region.dim != obj.dim:
            raise DimensionMismatchError(
                f"expected points of dimension {obj.dim}, got a mesh of dimension {xs.region.dim}")
        vals, (starts, offsets) = np.empty(xs.node_count), xs.slabs(BLOCK_ROWS)
    else:
        xs, _ = _as_points(xs, obj.dim)
        vals, starts = np.empty(xs.shape[0]), range(0, xs.shape[0], BLOCK_ROWS)
        offsets = starts
    errors, bad = {}, {}
    work = (obj, xs, starts, offsets, vals, itertools.count(), errors, bad)
    helpers = min(WORKERS, len(starts)) - 1
    threads = ([threading.Thread(target=_evaluate_blocks, args=work) for _ in range(helpers)]
               if helpers > 0 else ())
    for t in threads:
        t.start()
    _evaluate_blocks(*work)  # records what it raises, so the helpers are always joined
    for t in threads:
        t.join()
    if errors:
        raise errors[min(errors)]
    if bad:
        point = bad[min(bad)]
        raise EvaluationError(f"{obj.name} returned non-finite value at {point}", point=point)
    return vals


def _evaluate_blocks(obj, xs, starts, offsets, vals, claim, errors, bad) -> None:
    """Evaluate the blocks whose indices this thread claims from ``claim`` until none is
    left or a block has raised: block b's points (a mesh slab written into this thread's
    buffer, or rows of the batch) go to fn, its values to ``vals`` at ``offsets[b]``, its
    exception to ``errors[b]`` and its first non-finite point to ``bad[b]``.  An
    interrupt, wherever it lands in the loop, goes to ``errors[-1]``, ahead of every
    block."""
    try:
        mesh = isinstance(xs, GridMesh)
        buf = _slab_buffer(xs.axes, BLOCK_ROWS) if mesh else None
        for b in claim:
            if b >= len(starts) or errors:
                return
            try:
                i = starts[b]
                block = xs.slab(BLOCK_ROWS, i, buf) if mesh else xs[i:i + BLOCK_ROWS]
                if not len(block):
                    continue
                out = np.asarray(obj.fn(block), dtype=float)
                if out.shape != (len(block),):
                    raise ValueError(f"{obj.name} returned shape {out.shape} for {len(block)} rows")
            except Exception as e:  # re-raised by the caller of evaluate_batch
                errors[b] = e
                return
            vals[offsets[b]:offsets[b] + len(block)] = out
            if not np.isfinite(out).all():
                bad[b] = block[np.argmin(np.isfinite(out))].copy()
    except BaseException as e:  # an interrupt: re-raised by the caller after the join
        errors[-1] = e


def gradient(obj: Objective, x, h: float | None = None,
             region: CompactRegion | None = None) -> np.ndarray:
    """Gradient at a point or each row of an (N, dim) batch: analytic if
    available, else central differences.

    ``h`` scales per axis as h*max(1, |x_j|).  When a region is given, the
    stencil must stay inside its box.
    """
    pts, single = _as_points(x, obj.dim)
    if obj.grad is not None:
        g = np.asarray(obj.grad(pts), dtype=float)
        return g[0] if single else g
    step = (_FD_STEP if h is None else h) * np.maximum(1.0, np.abs(pts))
    if region is not None:
        outside = np.any((pts - step < region.lower) | (pts + step > region.upper), axis=1)
        if np.any(outside):
            x0 = pts[np.argmax(outside)]
            raise StencilError(f"point {x0} is within one step of the box boundary")
    g = np.empty_like(pts)
    for j in range(obj.dim):
        e = np.zeros_like(pts)
        e[:, j] = step[:, j]
        g[:, j] = (obj(pts + e) - obj(pts - e)) / (2.0 * step[:, j])
    return g[0] if single else g


# --- catalog -----------------------------------------------------------------

_CATALOG: dict[str, Callable[[], tuple[Objective, CompactRegion]]] = {}


def register(name: str):
    def deco(factory):
        _CATALOG[name] = factory
        return factory
    return deco


def catalog_get(name: str) -> tuple[Objective, CompactRegion]:
    """Look up a registered problem by name; ``constC`` is parsed numerically."""
    if name in _CATALOG:
        return _CATALOG[name]()
    m = re.fullmatch(r"const(-?\d+(?:\.\d+)?)", name)
    if m:
        c = float(m.group(1))
        obj = Objective(
            name=name, dim=1,
            fn=lambda p, c=c: np.full(p.shape[0], c),
            grad=lambda p: np.zeros_like(p),
        )
        return obj, box(0.0, 1.0)
    raise UnknownFunctionError(name)


def catalog_names() -> list[str]:
    return sorted(_CATALOG) + ["const<c>"]


@register("paper1d")
def _paper1d():
    obj = Objective(
        name="paper1d", dim=1,
        fn=lambda p: np.cos(p[:, 0] ** 2) + p[:, 0] / 5.0 + 1.0,
        grad=lambda p: (-2.0 * p[:, 0] * np.sin(p[:, 0] ** 2) + 0.2)[:, None],
    )
    return obj, box(0.0, 5.0)


@register("paper2d")
def _paper2d():
    def fn(p):
        return (np.cos(p[:, 0] ** 2) + np.cos(p[:, 1] ** 2)
                + p[:, 0] / 5.0 + p[:, 1] / 5.0 + 2.0)

    def grad(p):
        return -2.0 * p * np.sin(p ** 2) + 0.2

    obj = Objective(name="paper2d", dim=2, fn=fn, grad=grad)
    return obj, box([0.0, 0.0], [3.5, 3.5])


@register("stability1d")
def _stability1d():
    # two global minima at x = sqrt(2*pi) and sqrt(6*pi), curvatures x*^2
    obj = Objective(
        name="stability1d", dim=1,
        fn=lambda p: np.cos(0.5 * p[:, 0] ** 2) + 1.0,
        grad=lambda p: (-p[:, 0] * np.sin(0.5 * p[:, 0] ** 2))[:, None],
        oracle_minimizers=(np.sqrt(2.0 * np.pi), np.sqrt(6.0 * np.pi)),
    )
    return obj, box(0.0, 5.0)


@register("stability2d")
def _stability2d():
    def fn(p):
        return np.cos(p[:, 0] ** 2) + np.cos(p[:, 1] ** 2) + 2.0

    def grad(p):
        return -2.0 * p * np.sin(p ** 2)

    obj = Objective(name="stability2d", dim=2, fn=fn, grad=grad)
    return obj, box([0.0, 0.0], [3.5, 3.5])


@register("quadratic")
def _quadratic():
    obj = Objective(
        name="quadratic", dim=2,
        fn=lambda p: np.sum(p ** 2, axis=1),
        grad=lambda p: 2.0 * p,
        oracle_minimizers=((0.0, 0.0),),
    )
    return obj, box([-0.5, -0.5], [1.0, 1.0])


@register("doublewell")
def _doublewell():
    obj = Objective(
        name="doublewell", dim=1,
        fn=lambda p: (p[:, 0] ** 2 - 1.0) ** 2,
        grad=lambda p: (4.0 * p[:, 0] * (p[:, 0] ** 2 - 1.0))[:, None],
        oracle_minimizers=(-1.0, 1.0),
    )
    return obj, box(-2.0, 2.0)


@register("rastrigin")
def _rastrigin():
    def fn(p):
        return 10.0 * p.shape[1] + np.sum(p ** 2 - 10.0 * np.cos(2.0 * np.pi * p), axis=1)

    def grad(p):
        return 2.0 * p + 20.0 * np.pi * np.sin(2.0 * np.pi * p)

    obj = Objective(name="rastrigin", dim=2, fn=fn, grad=grad,
                    oracle_minimizers=((0.0, 0.0),))
    return obj, box([-5.12, -5.12], [5.12, 5.12])


@register("ackley")
def _ackley():
    a, b, c = 20.0, 0.2, 2.0 * np.pi

    def fn(p):
        n = p.shape[1]
        s1 = np.sqrt(np.sum(p ** 2, axis=1) / n)
        s2 = np.mean(np.cos(c * p), axis=1)
        return -a * np.exp(-b * s1) - np.exp(s2) + a + np.e

    obj = Objective(name="ackley", dim=2, fn=fn,
                    oracle_minimizers=((0.0, 0.0),))
    return obj, box([-5.0, -5.0], [5.0, 5.0])
