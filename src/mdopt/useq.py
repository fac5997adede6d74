"""Uniform-sequence optimizer: shrink the region to the sublevel set of its
own average until the average stops improving.

Each step replaces the current node set by the nodes at or below the mean of
f over that set.  Thresholds decrease strictly for non-constant f and are
always lower-bounded by the true minimum, since every surviving set contains
the mesh argmin.  States share one f array and hold survivor indices, so a
step's work falls with the set; a state's mask is rebuilt when asked for.
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
    survivors: np.ndarray | None  # ascending node indices of the set; None: every node
    threshold: float
    measure: float
    best_value: float
    stopped: bool = False

    @property
    def node_count(self) -> int:
        return len(self.fvals if self.survivors is None else self.survivors)

    @property
    def mask(self) -> np.ndarray:
        """Membership of every mesh node in the set, rebuilt from the indices."""
        mask = np.zeros(self.fvals.shape[0], dtype=bool)
        mask[slice(None) if self.survivors is None else self.survivors] = True
        return mask


def _state(iteration: int, mesh: GridMesh, fvals: np.ndarray,
           survivors: np.ndarray | None, kept: np.ndarray) -> UniformSeqState:
    """The state whose set is the survivors, with f values ``kept`` on them:
    threshold their mean, measure their cell volume, best value their minimum."""
    return UniformSeqState(
        iteration=iteration, mesh=mesh, fvals=fvals, survivors=survivors,
        threshold=float(np.mean(kept)),
        measure=float(mesh.cell_volume * kept.shape[0]),
        best_value=float(np.min(kept)),
    )


def useq_init(obj: Objective, region: CompactRegion, mesh_resolution) -> UniformSeqState:
    """Initial state: the whole mesh, threshold = mean of f over the region."""
    mesh = region.build_grid(mesh_resolution)
    fvals = evaluate_batch(obj, mesh.nodes)
    return _state(0, mesh, fvals, None, fvals)


def useq_step(state: UniformSeqState) -> UniformSeqState:
    """One shrink: keep the nodes at or below the current set average.

    If the set would not shrink (constant f) or would drop below MIN_NODES,
    the state comes back with the stop flag set instead of raising.
    """
    kept = state.fvals if state.survivors is None else state.fvals[state.survivors]
    passed = np.flatnonzero(kept <= state.threshold)
    count = passed.shape[0]
    if count == 0 or count == state.node_count or count < MIN_NODES:
        return replace(state, stopped=True)
    survivors = passed if state.survivors is None else state.survivors[passed]
    return _state(state.iteration + 1, state.mesh, state.fvals, survivors, kept[passed])


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
