"""Quadrature node sets over a region, integration, and a log-domain variant.

``levels`` builds every node set that ``integrate``, ``log_integrate_exp`` and
the density engine use, always two rungs, coarsest first: cell-centered grid
meshes at resolutions max(res // 2, 2) and res (midpoint rule; error from the
difference of the two), held as meshes whose node arrays are built only when
read, or the first n/2 and all n points of one seeded uniform member sample
weighted mu/n (Monte Carlo; 3-sigma error, plus the measure's own on
constrained regions).  The max-shifted ``logsumexp`` serves ``log_integrate_exp``
and is the tests' reference for the density engine's log-sums; ``softmax`` is the
dense form of its weights, which the engine forms block by block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .region import CompactRegion, EmptyRegionError, Estimate, GridMesh


class DegenerateIntegrandError(ValueError):
    """All log-integrand values are -inf; nothing to normalize."""


class IntegrandError(ValueError):
    """Integrand produced a non-finite value on a member point."""


def logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a 1-d array, max-shifted, with the maximal terms
    summed apart through log1p as scipy.special.logsumexp (1.17) does."""
    a_max = np.max(a)
    if not np.isfinite(a_max):
        return float(a_max)
    at_max = a == a_max
    n_max = np.count_nonzero(at_max)
    s = np.sum(np.exp(np.where(at_max, -np.inf, a) - a_max)) / n_max
    return float(np.log1p(s) + np.log(n_max) + a_max)


def softmax(x: np.ndarray) -> np.ndarray:
    """exp(x) / sum(exp(x)) of a 1-d array, max-shifted, in one new array."""
    e = x - np.max(x)
    np.exp(e, out=e)
    e /= np.sum(e)
    return e


@dataclass(frozen=True)
class IntegratorConfig:
    """Backend selection: kind "grid" (``resolution`` cells on every axis) or
    "mc" (n, seed).  Under Monte Carlo, ``resolution`` is the set commands' mesh."""

    kind: str = "grid"
    resolution: int = 1024
    n: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("grid", "mc"):
            raise ValueError(f"unknown integrator kind {self.kind!r}")
        if self.kind == "mc" and self.n < 100:
            raise ValueError("Monte Carlo needs n >= 100")
        if self.resolution < 2:
            raise ValueError("grid resolution must be at least 2")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def default_config(dim: int, seed: int = 0) -> IntegratorConfig:
    """Grid for low dimension (exactness matters), Monte Carlo above 3-d."""
    if dim == 1:
        return IntegratorConfig(kind="grid", resolution=1024)
    if dim == 2:
        return IntegratorConfig(kind="grid", resolution=256)
    if dim == 3:
        return IntegratorConfig(kind="grid", resolution=64)
    return IntegratorConfig(kind="mc", n=200_000, seed=seed)


@dataclass(frozen=True)
class Level:
    """A node set and its log node weight: a grid mesh with ``points`` None, or
    explicit member ``points`` (a Monte Carlo sample or a density's support cut)
    with ``mesh`` None."""

    points: np.ndarray | None
    log_node_weight: float
    mesh: GridMesh | None

    @property
    def nodes(self) -> np.ndarray:
        """The member points; a grid level's are the mesh's, built when first read."""
        return self.points if self.mesh is None else self.mesh.nodes

    def node(self, i: int) -> np.ndarray:
        """Member point i as a new array, read from the axes on a grid mesh."""
        return self.points[i].copy() if self.mesh is None else self.mesh.points_at(i)


def levels(region: CompactRegion,
           cfg: IntegratorConfig | None = None) -> tuple[list[Level], Estimate]:
    """The two quadrature levels, coarsest first, and the region's measure mu.

    Grid: meshes at max(res // 2, 2) and res cells per axis, mu from the finest.
    Monte Carlo: the first n/2 and all n points of one uniform member sample,
    with mu from a Monte Carlo measure of the same seed.
    """
    cfg = cfg or default_config(region.dim)
    if cfg.kind == "mc":
        pts = region.sample_uniform(cfg.n, cfg.seed)
        mu = region.measure(mc_n=max(cfg.n, 1000), seed=cfg.seed)
        return [Level(pts[:m], float(np.log(mu.value) - np.log(m)), None)
                for m in (cfg.n // 2, cfg.n)], mu
    out = []
    for res in (max(cfg.resolution // 2, 2), cfg.resolution):
        mesh = region.build_grid(res)
        if mesh.node_count == 0:
            raise EmptyRegionError("no member nodes at grid resolution")
        out.append(Level(None, float(np.log(mesh.cell_volume)), mesh))
    if not region.constraints:
        return out, Estimate(region.box_volume, 0.0)
    vols = [lv.mesh.cell_volume * lv.mesh.node_count for lv in out]
    return out, Estimate(vols[-1], abs(vols[-1] - vols[-2]))


def integrate(region: CompactRegion, integrand: Callable[[np.ndarray], np.ndarray],
              cfg: IntegratorConfig | None = None) -> Estimate:
    """Integral of a vectorized integrand over the region."""
    cfg = cfg or default_config(region.dim)
    nodesets, mu = levels(region, cfg)
    if cfg.kind == "mc":
        nodesets = nodesets[-1:]
    values = []
    for level in nodesets:
        vals = np.asarray(integrand(level.nodes), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise IntegrandError("non-finite integrand value on a member point")
        values.append(float(np.exp(level.log_node_weight) * np.sum(vals)))
    if cfg.kind == "mc":
        sem = float(np.std(vals, ddof=1) / np.sqrt(vals.shape[0]))
        err = 3.0 * mu.value * sem + abs(values[-1]) / mu.value * mu.error
    else:
        err = abs(values[-1] - values[-2])
    return Estimate(values[-1], err)


def log_integrate_exp(region: CompactRegion,
                      log_integrand: Callable[[np.ndarray], np.ndarray],
                      cfg: IntegratorConfig | None = None) -> float:
    """log of the integral of exp(log_integrand) on the finest level, max-shifted."""
    finest = levels(region, cfg)[0][-1]
    ell = np.asarray(log_integrand(finest.nodes), dtype=float)
    if np.all(np.isneginf(ell)):
        raise DegenerateIntegrandError("all log-integrand values are -inf")
    return float(logsumexp(ell) + finest.log_node_weight)
