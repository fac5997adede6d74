"""Uniform-sequence optimizer: shrink the region to the sublevel set of its
own average until the average stops improving.

Each step replaces the current node set by the nodes at or below the mean of
f over that set.  Thresholds decrease strictly for non-constant f and are
always lower-bounded by the true minimum, since every surviving set contains
the mesh argmin.  A set that shrinks is {f <= previous threshold}, so a state
is a row of scalars, and a run lives in the one f array that ``useq_init``
evaluates: each step moves the values at or below the threshold to its front.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from .objective import Objective, evaluate_batch
from .region import BLOCK_ROWS, CompactRegion, GridMesh


MIN_NODES = 16  # below this the set mean is unreliable; stop and keep the best


@dataclass(frozen=True)
class UniformSeqState:
    iteration: int
    objective: Objective
    mesh: GridMesh
    level: float  # the set is {f <= level}: the previous threshold, inf for the whole mesh
    threshold: float
    measure: float
    node_count: int
    best_value: float
    stopped: bool = False
    mesh_f: list = field(default_factory=list, compare=False, repr=False)

    @property
    def mask(self) -> np.ndarray:
        """Membership of every mesh node in the set.  A run's first read puts f on the
        mesh in ``mesh_f``, which its states share, each comparing it with its level."""
        if not self.mesh_f:
            self.mesh_f.append(evaluate_batch(self.objective, self.mesh))
        return self.mesh_f[0] <= self.level


def _state(iteration: int, obj: Objective, mesh: GridMesh, level: float, values: np.ndarray,
           mesh_f: list):
    """The state whose set {f <= level} holds f ``values``, its numbers read from them."""
    return UniformSeqState(iteration, obj, mesh, level, threshold=float(np.mean(values)),
                           measure=float(mesh.cell_volume * values.shape[0]),
                           node_count=values.shape[0], best_value=float(np.min(values)),
                           mesh_f=mesh_f)


def useq_init(obj: Objective, region: CompactRegion,
              mesh_resolution) -> tuple[UniformSeqState, np.ndarray]:
    """Initial state, the whole mesh with threshold = mean of f over the region,
    and f on every mesh node: the buffer that the run's steps compact."""
    mesh = region.build_grid(mesh_resolution)
    buf = evaluate_batch(obj, mesh)
    return _state(0, obj, mesh, np.inf, buf, []), buf


def useq_step(state: UniformSeqState, buf: np.ndarray) -> UniformSeqState:
    """One shrink: move f on the nodes at or below the set average to the front of ``buf``,
    whose first node_count values are f on the set in mesh order.  A set that would not
    shrink (constant f) or would drop below MIN_NODES comes back stopped, buf intact."""
    values, t = buf[:state.node_count], state.threshold
    blocks = range(0, values.shape[0], BLOCK_ROWS)
    passed = accumulate(np.count_nonzero(values[i:i + BLOCK_ROWS] <= t) for i in blocks)
    if all(n < MIN_NODES for n in passed):  # counts until MIN_NODES pass: one block, mostly
        return replace(state, stopped=True)
    count = 0
    for i in blocks:
        block = values[i:i + BLOCK_ROWS]
        kept = block[block <= t]
        values[count:count + kept.shape[0]] = kept
        count += kept.shape[0]
    if count == state.node_count:
        return replace(state, stopped=True)
    return _state(state.iteration + 1, state.objective, state.mesh, t, values[:count],
                  state.mesh_f)


def useq_run(obj: Objective, region: CompactRegion, mesh_resolution, max_iter: int = 64,
             rel_tol: float = 1e-6) -> tuple[list[UniformSeqState], float]:
    """Iterate until the stop flag, max_iter, or small relative improvement.
    Returns the state history and the final threshold as the minimum estimate."""
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not rel_tol >= 0:
        raise ValueError(f"rel_tol must be non-negative, got {rel_tol}")
    state, buf = useq_init(obj, region, mesh_resolution)
    history = [state]
    for _ in range(max_iter):
        prev, state = state, useq_step(state, buf)
        if state.stopped:
            history[-1] = state
            break
        history.append(state)
        if abs(prev.threshold - state.threshold) < rel_tol * max(abs(state.threshold), 1.0):
            break
    return history, history[-1].threshold
