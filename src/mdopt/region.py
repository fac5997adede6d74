"""Compact feasible regions: membership, measure, grid meshes, uniform sampling.

A region is an axis-aligned box optionally intersected with inequality
constraints ``g_i(x) >= 0``.  Constraint callables must be vectorized:
they take an ``(N, dim)`` array and return an ``(N,)`` array.  A grid mesh
holds its axes and membership mask; its points are written slab by slab from
the axes (``GridMesh.blocks``), and its node array is built only when read,
coordinate-major: each ``nodes[:, j]`` is contiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

BLOCK_ROWS = 2 ** 14  # lattice points per slab: keeps each block's temporaries cache-sized


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


@dataclass(frozen=True)
class Estimate:
    """A derived number with an absolute error bound: a measure, an integral,
    or an expectation under the density."""

    value: float
    error: float


def _spans(axes: tuple[np.ndarray, ...], rows: int
           ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The lattice of ``axes`` in row-major order as (start, lead, last) slabs of at most
    ``rows`` points, lattice points start .. start + n - 1: whole rows of the last axis,
    as many as fit, or a piece of one row when a row is longer than ``rows``.  The
    slab's r rows have leading coordinates ``lead`` (dim - 1, r); each crosses ``last``.
    """
    dim, res = len(axes), len(axes[0])
    per, width = max(rows // res, 1), min(res, rows)  # rows per slab, points per row piece
    n_rows = res ** (dim - 1)
    for g in range(0, n_rows, per):
        row = np.arange(g, min(g + per, n_rows))
        lead = np.array([axes[j][row // res ** (dim - 2 - j) % res] for j in range(dim - 1)])
        for c in range(0, res, width):
            yield g * res + c, lead.reshape(dim - 1, len(row)), axes[-1][c:c + width]


def _coords(lead: np.ndarray, last: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """A slab's lattice points as a ``(dim, n)`` view of the head of ``buf``, each axis
    written by broadcasting: the leading coordinates once per row, then ``last``."""
    r, w = lead.shape[1], len(last)
    coords = buf[:, :r * w]
    grid = coords.reshape(-1, r, w)
    grid[:-1] = lead[:, :, None]
    grid[-1] = last
    return coords


@dataclass(frozen=True)
class GridMesh:
    """Cell-centered tensor grid restricted to region members.

    The mesh holds its ``axes`` and ``lattice_mask``, the membership mask over
    the full lattice (shape ``resolution``), needed for neighbor queries.  Its
    member points are taken in row-major order over the full lattice, so masks
    from two meshes of identical resolution line up index-by-index; ``blocks``
    writes them slab by slab from the axes, and ``nodes``, their ``(N, dim)``
    array, is built on first read as the transpose of a C-ordered ``(dim, N)``
    array (coordinate-major).
    """

    region: "CompactRegion"
    resolution: tuple[int, ...]
    axes: tuple[np.ndarray, ...]
    lattice_mask: np.ndarray
    cell_volume: float

    @cached_property
    def node_count(self) -> int:
        """The number of member points."""
        return int(np.count_nonzero(self.lattice_mask))

    @cached_property
    def nodes(self) -> np.ndarray:
        """The member points, coordinate-major, built when first read."""
        return next(self.blocks(self.lattice_mask.size), np.empty((0, len(self.axes))))

    def slabs(self, rows: int) -> Iterator[tuple[int, Callable[[], np.ndarray],
                                                 Callable[[np.ndarray], np.ndarray]]]:
        """The member points in mesh order, one slab of at most ``rows`` lattice points
        that holds a member at a time, as (n, points, weighted_sum): the member count,
        a map to the ``(n, dim)`` points, valid until the next slab's are made, and a
        map from one weight per member to sum_i w_i x_i, each axis's lattice marginal
        of the weights (0 off the region) dotted with that axis, with no points made."""
        member, cut = self.lattice_mask.reshape(-1), bool(self.region.constraints)
        buf = np.empty((len(self.axes), min(rows, member.size)))
        for start, lead, last in _spans(self.axes, rows):
            sel = member[start:start + lead.shape[1] * len(last)]
            n = np.count_nonzero(sel) if cut else sel.size
            if n == 0:
                continue

            def points(lead=lead, last=last, sel=sel):
                coords = _coords(lead, last, buf)
                return (np.compress(sel, coords, axis=1) if cut else coords).T

            def weighted_sum(w, lead=lead, last=last, sel=sel):
                if cut:
                    lat = np.zeros(sel.size)
                    lat[sel] = w
                    w = lat
                w = w.reshape(lead.shape[1], len(last))
                return np.append(lead @ np.sum(w, axis=1), last @ np.sum(w, axis=0))
            yield n, points, weighted_sum

    def blocks(self, rows: int) -> Iterator[np.ndarray]:
        """The member points in mesh order as ``(n, dim)`` blocks, one per slab that
        holds a member (see ``slabs``)."""
        return (points() for _, points, _ in self.slabs(rows))

    def compress(self, keep: np.ndarray) -> np.ndarray:
        """The member points where ``keep`` (one flag per member) holds, as a
        coordinate-major ``(count, dim)`` array written slab by slab from ``blocks``."""
        out = np.empty((len(self.axes), np.count_nonzero(keep)))
        i = n = 0
        for block in self.blocks(BLOCK_ROWS):
            sel = keep[i:i + len(block)]
            i, m = i + len(block), np.count_nonzero(sel)
            np.compress(sel, block.T, axis=1, out=out[:, n:n + m])
            n += m
        return out.T

    def node(self, i: int) -> np.ndarray:
        """Member point i in mesh order, read from the axes: the bits of ``nodes[i]``."""
        if self.region.constraints:
            i = np.flatnonzero(self.lattice_mask)[i]
        return np.array([ax[j] for ax, j in zip(self.axes, np.unravel_index(i, self.resolution))])

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
            yield self.lower + rng.random((n, self.dim)) * (self.upper - self.lower)

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
        mask = np.ones(shape, dtype=bool)
        if self.constraints:
            member = mask.reshape(-1)
            buf = np.empty((self.dim, min(BLOCK_ROWS, mask.size)))
            for start, lead, last in _spans(axes, BLOCK_ROWS):
                coords = _coords(lead, last, buf)
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
