"""Uniform-sequence optimizer: shrink the region to the sublevel set of its
own average until the average stops improving.

Each step replaces the current node set by the nodes at or below the mean of
f over that set.  Thresholds decrease strictly for non-constant f and are
always lower-bounded by the true minimum, since every surviving set contains
the mesh argmin.
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
    fvals: np.ndarray
    mask: np.ndarray
    threshold: float
    measure: float
    best_value: float
    stopped: bool = False

    @property
    def node_count(self) -> int:
        return int(np.count_nonzero(self.mask))


def _state(iteration: int, mesh: GridMesh, fvals: np.ndarray,
           mask: np.ndarray) -> UniformSeqState:
    """The state whose set is the masked nodes: threshold its mean of f, measure
    its cell volume, best value its minimum of f."""
    kept = fvals[mask]
    return UniformSeqState(
        iteration=iteration, mesh=mesh, fvals=fvals, mask=mask,
        threshold=float(np.mean(kept)),
        measure=float(mesh.cell_volume * kept.shape[0]),
        best_value=float(np.min(kept)),
    )


def useq_init(obj: Objective, region: CompactRegion, mesh_resolution) -> UniformSeqState:
    """Initial state: the whole mesh, threshold = mean of f over the region."""
    mesh = region.build_grid(mesh_resolution)
    fvals = evaluate_batch(obj, mesh.nodes)
    return _state(0, mesh, fvals, np.ones(fvals.shape[0], dtype=bool))


def useq_step(state: UniformSeqState) -> UniformSeqState:
    """One shrink: keep the nodes at or below the current set average.

    If the mask would not shrink (constant f) or would drop below MIN_NODES,
    the state comes back with the stop flag set instead of raising.
    """
    new_mask = state.mask & (state.fvals <= state.threshold)
    count = int(np.count_nonzero(new_mask))
    if count == 0 or count == state.node_count or count < MIN_NODES:
        return replace(state, stopped=True)
    return _state(state.iteration + 1, state.mesh, state.fvals, new_mask)


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
        improvement = abs(state.threshold - nxt.threshold)
        scale = max(abs(nxt.threshold), 1.0)
        history.append(nxt)
        state = nxt
        if improvement < rel_tol * scale:
            break
    return history, history[-1].threshold
