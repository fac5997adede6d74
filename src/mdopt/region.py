"""Compact feasible regions: membership, measure, grid meshes, uniform sampling.

A region is an axis-aligned box optionally intersected with inequality
constraints ``g_i(x) >= 0``.  Constraint callables must be vectorized:
they take an ``(N, dim)`` array and return an ``(N,)`` array.  A grid mesh
holds its axes and membership mask (one broadcast element on a box); its points
are written from the axes slab by slab (``_slab``, the one lattice writer: any slab,
by its start, into a given buffer) and read in mesh order through ``blocks``, or one
slab at a time through ``slab``, or by position; its node array is built only when
read, coordinate-major: each ``nodes[:, j]`` is contiguous.  Slabs are independent:
``objective.evaluate_batch`` writes a mesh's slabs from several threads at once, each
into its own buffer, and calls the objective's ``fn`` on them concurrently, so ``fn``
must keep no mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

BLOCK_ROWS = 2 ** 14  # lattice points per slab: keeps each block's temporaries cache-sized
DOT_ROWS = 2 ** 13  # OpenBLAS ddot keeps its bits across thread counts up to 10,000 entries


class RegionError(ValueError):
    """Invalid region specification or use."""


class DimensionMismatchError(RegionError):
    """Point dimension does not match the region dimension."""


class EmptyRegionError(RegionError):
    """No member point could be found in the region."""


class InfeasibleRegionError(RegionError):
    """Rejection sampling acceptance rate is effectively zero."""


def _as_points(x, dim: int) -> tuple[np.ndarray, bool]:
    """Coerce a point or batch of points to an (N, dim) array.

    Returns the array and a flag telling whether the input was a single point.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        if arr.shape[0] != dim:
            raise DimensionMismatchError(
                f"point has dimension {arr.shape[0]}, region has dimension {dim}"
            )
        return arr[None, :], True
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DimensionMismatchError(
            f"expected points of dimension {dim}, got array of shape {arr.shape}"
        )
    return arr, False


def _dot(a: np.ndarray, b: np.ndarray):
    """``a @ b`` summed over chunks of at most DOT_ROWS rows, one ``@`` for a short a:
    the same bits at any BLAS thread count."""
    s = a[:DOT_ROWS] @ b[:DOT_ROWS]
    for i in range(DOT_ROWS, len(a), DOT_ROWS):
        s = s + a[i:i + DOT_ROWS] @ b[i:i + DOT_ROWS]
    return s


@dataclass(frozen=True)
class Estimate:
    """A derived number with an absolute error bound: a measure, an integral,
    or an expectation under the density."""

    value: float
    error: float


def _slab_shape(res: int, rows: int) -> tuple[int, int]:
    """Lattice rows per slab and points per row piece: whole rows of the last axis, as
    many as fit in ``rows`` points, or a piece of one row when a row is longer."""
    return max(rows // res, 1), min(res, rows)


def _slab_starts(axes: tuple[np.ndarray, ...], rows: int) -> np.ndarray:
    """The lattice position of each slab's first point, in row-major order."""
    dim, res = len(axes), len(axes[0])
    per, width = _slab_shape(res, rows)
    return (np.arange(0, res ** (dim - 1), per)[:, None] * res
            + np.arange(0, res, width)).reshape(-1)


def _slab(axes: tuple[np.ndarray, ...], rows: int, start: int, buf: np.ndarray) -> np.ndarray:
    """The slab of the lattice of ``axes`` that begins at lattice position ``start`` (one of
    ``_slab_starts``), written into ``buf`` as a ``(dim, n)`` view, lattice points start ..
    start + n - 1: each axis by broadcasting, the leading coordinates once per row, then
    the piece of the last axis that each row crosses.  Slabs are independent, so each
    thread may write its own into its own buffer."""
    dim, res = len(axes), len(axes[0])
    per, width = _slab_shape(res, rows)
    g, c = divmod(int(start), res)
    row = np.arange(g, min(g + per, res ** (dim - 1)))
    lead = np.array([axes[j][row // res ** (dim - 2 - j) % res] for j in range(dim - 1)])
    last = axes[-1][c:c + width]
    coords = buf[:, :len(row) * len(last)]
    grid = coords.reshape(dim, len(row), len(last))
    grid[:-1] = lead.reshape(dim - 1, len(row), 1)
    grid[-1] = last
    return coords


def _slab_buffer(axes: tuple[np.ndarray, ...], rows: int) -> np.ndarray:
    """A buffer that holds any slab of at most ``rows`` lattice points."""
    return np.empty((len(axes), min(rows, len(axes[0]) ** len(axes))))


@dataclass(frozen=True)
class GridMesh:
    """Cell-centered tensor grid restricted to region members.

    The mesh holds its ``axes`` and ``lattice_mask``, the membership mask over
    the full lattice (shape ``resolution``; on a box, one broadcast True), needed
    for neighbor queries.  Its member points are taken in row-major order over the
    full lattice, so masks from two meshes of identical resolution line up
    index-by-index; ``blocks`` writes them slab by slab from the axes, and ``nodes``,
    their ``(N, dim)`` array, is built on first read as the transpose of a C-ordered
    ``(dim, N)`` array (coordinate-major).
    """

    region: "CompactRegion"
    resolution: tuple[int, ...]
    axes: tuple[np.ndarray, ...]
    lattice_mask: np.ndarray
    cell_volume: float

    @cached_property
    def node_count(self) -> int:
        """The number of member points."""
        if not self.region.constraints:
            return int(np.prod(self.resolution))
        return int(np.count_nonzero(self.lattice_mask))

    @cached_property
    def nodes(self) -> np.ndarray:
        """The member points, coordinate-major, built when first read."""
        return next(self.blocks(self.lattice_mask.size), np.empty((0, len(self.axes))))

    def blocks(self, rows: int) -> Iterator[np.ndarray]:
        """The member points in mesh order as ``(n, dim)`` blocks, one per slab of at most
        ``rows`` lattice points that holds a member (see ``slab``), each valid until the
        next is made."""
        buf = _slab_buffer(self.axes, rows)
        for start in _slab_starts(self.axes, rows):
            block = self.slab(rows, start, buf)
            if len(block):
                yield block

    def slabs(self, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """Each slab's lattice start (see ``_slab_starts``) and the mesh position of its
        first member, the count of members before it (the start itself on a box)."""
        starts = _slab_starts(self.axes, rows)
        if not self.region.constraints:
            return starts, starts
        counts = np.add.reduceat(self.lattice_mask.reshape(-1), starts, dtype=np.intp)
        return starts, np.cumsum(counts) - counts

    def slab(self, rows: int, start: int, buf: np.ndarray) -> np.ndarray:
        """The member points of the slab at lattice position ``start``, ``(n, dim)``, in
        mesh order: the slab written into ``buf`` (see ``_slab``), a constrained slab
        compressed by its slice of ``lattice_mask`` into a new array."""
        coords = _slab(self.axes, rows, start, buf)
        if self.region.constraints:
            member = self.lattice_mask.reshape(-1)[start:start + coords.shape[1]]
            coords = np.compress(member, coords, axis=1)
        return coords.T

    @cached_property
    def lattice_index(self) -> np.ndarray:
        """The lattice position of each member point, int32, built when first read."""
        return np.flatnonzero(self.lattice_mask).astype(np.int32)

    def points_at(self, ix) -> np.ndarray:
        """The member points at positions ``ix`` in mesh order (or the point at one), read
        from the axes into a new coordinate-major ``(n, dim)`` array: the bits of ``nodes[ix]``."""
        if self.region.constraints:
            ix = self.lattice_index[ix]
        lattice = np.unravel_index(ix, self.resolution)
        return np.array([ax[j] for ax, j in zip(self.axes, lattice)]).T

    def same_layout(self, other: "GridMesh") -> bool:
        """Same lattice and same member nodes, so masks line up index by index."""
        return (
            self.resolution == other.resolution
            and np.array_equal(self.region.lower, other.region.lower)
            and np.array_equal(self.region.upper, other.region.upper)
            and np.array_equal(self.lattice_mask, other.lattice_mask)
        )


@dataclass(frozen=True)
class CompactRegion:
    """Axis-aligned box intersected with constraints ``g_i(x) >= 0``.

    Immutable after construction; safe to share across threads.
    """

    lower: np.ndarray
    upper: np.ndarray
    constraints: tuple[Callable[[np.ndarray], np.ndarray], ...] = ()

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise RegionError("lower and upper must be 1-d arrays of equal length")
        if not np.all(lower < upper):
            raise RegionError("need lower[j] < upper[j] for every coordinate")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.constraints and not self._probe_nonempty():
            raise EmptyRegionError("no member point found; region appears empty")

    def _probe_nonempty(self) -> bool:
        """Any member among 16^d cell centers (d <= 3), else 2^16 seeded box points."""
        if self.dim <= 3:
            return self.build_grid(16).node_count > 0
        return bool(np.any(self.contains(next(self._box_draws(0, 2 ** 16)))))

    def _box_draws(self, seed: int, n: int) -> Iterator[np.ndarray]:
        """Batches of n uniform box points from one Philox stream of the seed."""
        rng = np.random.Generator(np.random.Philox(seed))
        while True:
            pts = rng.random((n, self.dim))
            yield np.add(np.multiply(pts, self.upper - self.lower, out=pts), self.lower, out=pts)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def box_volume(self) -> float:
        return float(np.prod(self.upper - self.lower))

    def contains(self, x) -> bool | np.ndarray:
        """Membership test; accepts a single point or an (N, dim) batch."""
        pts, single = _as_points(x, self.dim)
        ok = np.all((pts >= self.lower) & (pts <= self.upper), axis=1)
        for g in self.constraints:
            ok &= np.asarray(g(pts)) >= 0.0
        return bool(ok[0]) if single else ok

    def measure(self, *, mc_n: int | None = None, seed: int = 0) -> Estimate:
        """Lebesgue measure of the region.

        Exact (error 0) for plain boxes.  With constraints, Monte Carlo over
        ``mc_n`` box points with a 3-sigma binomial error; the grid measure is
        the one ``integrate.levels`` reads off its meshes.
        """
        if not self.constraints:
            return Estimate(self.box_volume, 0.0)
        if mc_n is None or mc_n < 100:
            raise RegionError("Monte Carlo measure needs mc_n >= 100 samples")
        p = float(np.mean(self.contains(next(self._box_draws(seed, mc_n)))))
        if p == 0.0:
            raise EmptyRegionError("no member points in Monte Carlo measure sample")
        err = 3.0 * self.box_volume * np.sqrt(p * (1.0 - p) / mc_n)
        return Estimate(self.box_volume * p, float(err))

    def build_grid(self, resolution: int) -> GridMesh:
        """Deterministic cell-centered mesh with ``resolution`` cells on every axis,
        filtered by membership, which is tested slab by slab; no node array is made."""
        res = int(resolution)
        if res < 2:
            raise RegionError("grid resolution must be at least 2")
        widths = (self.upper - self.lower) / res
        axes = tuple(lo + (np.arange(res) + 0.5) * w for lo, w in zip(self.lower, widths))
        shape = (res,) * self.dim
        mask = np.ones(shape, dtype=bool) if self.constraints else np.broadcast_to(np.True_, shape)
        if self.constraints:
            member, buf = mask.reshape(-1), _slab_buffer(axes, BLOCK_ROWS)
            for start in _slab_starts(axes, BLOCK_ROWS):
                coords = _slab(axes, BLOCK_ROWS, start, buf)
                member[start:start + coords.shape[1]] = self.contains(coords.T)
        return GridMesh(region=self, resolution=shape, axes=axes, lattice_mask=mask,
                        cell_volume=float(np.prod(widths)))

    def sample_uniform(self, n: int, seed: int = 0) -> np.ndarray:
        """n i.i.d.-uniform member points by rejection from the box.

        Deterministic for a fixed seed: the proposal stream is a pure function
        of (seed, draw index) via counter-based Philox bits.
        """
        if n < 1:
            raise RegionError("need n >= 1")
        if not self.constraints:
            return next(self._box_draws(seed, n))
        out, got, tried = [], 0, 0
        draws = self._box_draws(seed, max(1024, 2 * n))
        while got < n:
            pts = next(draws)
            keep = pts[self.contains(pts)]
            tried += len(pts)
            got += keep.shape[0]
            out.append(keep)
            if tried >= 10**6 and got / tried < 1e-6:
                raise InfeasibleRegionError(
                    f"acceptance rate {got / tried:.2e} below 1e-6; region too thin to sample"
                )
        return np.concatenate(out, axis=0)[:n]


def box(lower, upper, constraints=()) -> CompactRegion:
    """Convenience constructor accepting scalars for 1-d regions."""
    return CompactRegion(np.atleast_1d(lower), np.atleast_1d(upper), tuple(constraints))
