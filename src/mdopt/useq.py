"""Uniform-sequence optimizer: shrink the region to the sublevel set of its
own average until the average stops improving.

Each step replaces the current node set by the nodes at or below the mean of
f over that set.  Thresholds decrease strictly for non-constant f and are
always lower-bounded by the true minimum, since every surviving set contains
the mesh argmin.  By induction every set is a sublevel set {f <= l} of the
mesh, so a state holds only f on its set (in mesh order) and a step's work
falls with the set.  Its mask {f <= max of f on the set} is exact: every node
of the set passes, and a node that passes has f <= l, so it is in the set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .objective import Objective, evaluate_batch
from .region import CompactRegion, GridMesh


MIN_NODES = 16  # below this the set mean is unreliable; stop and keep the best


@dataclass(frozen=True)
class UniformSeqState:
    iteration: int
    mesh: GridMesh
    fvals: np.ndarray  # f on every mesh node, shared by all states of a run
    values: np.ndarray  # f on the set's nodes in mesh order; fvals itself for every node
    threshold: float
    measure: float
    best_value: float
    stopped: bool = False

    @property
    def node_count(self) -> int:
        return len(self.values)

    @property
    def mask(self) -> np.ndarray:
        """Membership of every mesh node in the set, the sublevel set of its max."""
        return self.fvals <= np.max(self.values)


def _state(iteration: int, mesh: GridMesh, fvals: np.ndarray,
           values: np.ndarray) -> UniformSeqState:
    """The state whose set holds f ``values``: threshold their mean, measure
    their cell volume, best value their minimum."""
    return UniformSeqState(
        iteration=iteration, mesh=mesh, fvals=fvals, values=values,
        threshold=float(np.mean(values)),
        measure=float(mesh.cell_volume * values.shape[0]),
        best_value=float(np.min(values)),
    )


def useq_init(obj: Objective, region: CompactRegion, mesh_resolution) -> UniformSeqState:
    """Initial state: the whole mesh, threshold = mean of f over the region."""
    mesh = region.build_grid(mesh_resolution)
    fvals = evaluate_batch(obj, mesh)
    return _state(0, mesh, fvals, fvals)


def useq_step(state: UniformSeqState) -> UniformSeqState:
    """One shrink: keep the nodes at or below the current set average.

    If the set would not shrink (constant f) or would drop below MIN_NODES,
    the state comes back with the stop flag set instead of raising.
    """
    values = state.values[state.values <= state.threshold]
    if values.shape[0] == state.node_count or values.shape[0] < MIN_NODES:
        return replace(state, stopped=True)
    return _state(state.iteration + 1, state.mesh, state.fvals, values)


def useq_run(obj: Objective, region: CompactRegion, mesh_resolution,
             max_iter: int = 64, rel_tol: float = 1e-6,
             ) -> tuple[list[UniformSeqState], float]:
    """Iterate until the stop flag, max_iter, or small relative improvement.

    Returns the state history and the final threshold as the minimum estimate.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    state = useq_init(obj, region, mesh_resolution)
    history = [state]
    for _ in range(max_iter):
        nxt = useq_step(state)
        if nxt.stopped:
            history[-1] = nxt
            break
        small = abs(state.threshold - nxt.threshold) < rel_tol * max(abs(nxt.threshold), 1.0)
        history.append(nxt)
        state = nxt
        if small:
            break
    return history, history[-1].threshold
