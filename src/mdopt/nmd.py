"""Annealed density engine: m^(k)(x) = tau(x)^k / Z(k) on a compact region.

tau is a positive, decreasing transform of f (exponential e^{-f} or the
rational 1/(f - L + p)), so m^(k) concentrates on the global minimizers as k
grows.  Each tau kind owns ``log_tau(f, k)`` (k log tau in one pass), its inverse
``f_at(log_tau)``, ``dlog_tau_df(f)`` and ``resolved(f)``, which fixes a
data-dependent shift once.
Everything is evaluated in log space on the two levels of ``integrate.levels``,
held as frozen ``DensityLevel`` records (points or mesh, weight, f, and log tau at
the level's min and max f): m^(k) depends on a node only through f, and a grid level
keeps no node array.  Each level is built once, when first read, the finest first,
whose f fixes the resolved tau and mu; a coarse grid level's f is evaluated only when
a pass or ``mesh_values`` asks for it, so log Z and E log tau never evaluate it.
One pass per level (``_reduce``) serves every density sum: it walks the level in (f, points)
blocks of at most BLOCK_ROWS nodes (a grid mesh's slabs, written from its axes into
one reused buffer, or slices of the points) and sums e = exp(k log tau - top),
top = k max log tau, and e h per integrand, h a map from the block to its node
values: f, (f - c)^2, or the points themselves for E x.  It gives E f, E (f - c)^2
(c the finest level's min f, so Var^(k)(f) does not move when a constant is added
to f) and E x, with the levels' difference as error, and
top + log sum e: the first pass over the finest level at k leaves log Z(k).
log E^(k)(tau) is c' + log E^(k)(exp(log tau - c')), c' the finest level's max
log tau, so an offset in f cancels inside the exponent.  ``with_k`` clones share
the levels, log Z, ``Moments``, E log tau (a finest-level value, reduced when first
read) and the f that ``mesh_values`` held for the latest mesh without a level's layout.
k log tau is clipped at CLIP = 64 below its max, the clipped nodes weighing exactly 0: the
mass dropped is at most N e^-64 ~ N 1.6e-28 of Z, under one rounding of Z (2^-53)
for N < 2^39, and exp sees no input below -64, well inside numpy's SIMD fast path
(inputs > -708).  Before a pass that clips walks, it marks the nodes it would weigh
from the level's f alone, and when at most 1/4 are, cuts the level to them and walks
the cut: a level of explicit points that copies their f and coordinates, the support
of m^(k) at every larger k, where the clipped nodes stay clipped.  A larger k starts
from the last cut, a smaller one from the whole level.
Dot products sum chunks of at most 8,192 nodes (``region._dot``), so no output
follows the BLAS thread count.
``expectation(h)``, E h with no power or shift of its own, evaluates h block by block on
the support.  k must be finite and >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional

import numpy as np

from .integrate import IntegratorConfig, Level, default_config, levels as quadrature_levels
from .integrate import logsumexp, softmax  # noqa: F401  bench/tracer.py wraps both by name
from .objective import Objective, evaluate_batch, gradient
from .region import BLOCK_ROWS, CompactRegion, Estimate, GridMesh, _as_points, _dot

CLIP = 64.0  # k log tau below its max by more than this weighs 0: e^-64 ~ 1.6e-28


class InvalidShiftError(ValueError):
    """Rational tau hit f(x) - L + p <= 0."""


@dataclass(frozen=True)
class Exponential:
    """tau(x) = exp(-f(x))."""

    def resolved(self, f: np.ndarray) -> "Exponential":
        return self

    def log_tau(self, f, k: float = 1.0):
        return f * -k

    def f_at(self, log_tau):
        return -log_tau

    def dlog_tau_df(self, f) -> float:
        """d log tau / df, which is -1 everywhere."""
        return -1.0


@dataclass(frozen=True)
class Rational:
    """tau(x) = 1 / (f(x) - L + p); L=None resolves a safe shift from node data.

    The automatic shift is (best f seen on the nodes) - max(p, 0.1 * range),
    which keeps f - L + p strictly positive everywhere on the node set.
    """

    p: float = 1.0
    L: Optional[float] = None

    def __post_init__(self):
        if not (np.isfinite(self.p) and self.p > 0):
            raise ValueError(f"rational tau needs a finite p > 0, got p={self.p}")
        if self.L is not None and not np.isfinite(self.L):
            raise ValueError(f"rational tau needs a finite L, got L={self.L}")

    def resolved(self, f: np.ndarray) -> "Rational":
        """This kind with L fixed from node values f when it was left automatic."""
        if self.L is not None:
            return self
        fmin, fmax = float(np.min(f)), float(np.max(f))
        return Rational(self.p, fmin - max(self.p, 0.1 * (fmax - fmin)))

    def _arg(self, f):
        arg = f - self.L + self.p
        if np.any(arg <= 0.0):
            raise InvalidShiftError(
                "rational tau requires f(x) - L + p > 0 on all evaluated points"
            )
        return arg

    def log_tau(self, f, k: float = 1.0):
        """k log tau on an array f, the log taken and scaled in place: ``k * -log(arg)``."""
        arg = self._arg(f)
        return np.multiply(np.log(arg, out=arg), -k, out=arg)

    def f_at(self, log_tau):
        """The f where log tau is ``log_tau``; +inf, without a warning, where exp overflows."""
        with np.errstate(over="ignore"):
            return np.exp(-log_tau) + self.L - self.p

    def dlog_tau_df(self, f):
        return -1.0 / self._arg(f)


TauKind = Exponential | Rational


@dataclass(frozen=True)
class DensityLevel(Level):
    """A quadrature level with f on its nodes, and the max and min of log tau
    (resolved tau) over them; a cut (``restrict``) is a level of explicit points,
    copies of the kept nodes' f and coordinates, with its own min."""

    f: np.ndarray
    log_tau_max: float
    log_tau_min: float

    @property
    def size(self) -> int:
        return self.f.size

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The nodes in level order as (f, points) blocks of at most BLOCK_ROWS, points
        ``(n, dim)``: a grid level's mesh slabs, each valid until the next is made, else
        slices of the points."""
        points = (self.mesh.blocks(BLOCK_ROWS) if self.mesh is not None else
                  (self.points[i:i + BLOCK_ROWS] for i in range(0, self.size, BLOCK_ROWS)))
        i = 0
        for pts in points:
            yield self.f[i:i + len(pts)], pts
            i += len(pts)

    def restrict(self, keep: np.ndarray, tau: TauKind) -> "DensityLevel":
        """The cut to the nodes where ``keep`` (one flag per node) holds, which must include
        a node where log tau is maximal: their f and their coordinates, copied coordinate-major
        at most BLOCK_ROWS at a time, and the min of log tau (``tau``, the resolved kind)
        over the kept nodes, so a pass over a fresh cut at its own k clips nothing."""
        f, n = self.f[keep], 0
        coords = np.empty((self.points.shape[1] if self.mesh is None else self.mesh.region.dim,
                           f.size))
        for i in range(0, keep.size, BLOCK_ROWS):
            ix = np.flatnonzero(keep[i:i + BLOCK_ROWS]) + i
            coords[:, n:n + ix.size] = (self.points[ix].T if self.mesh is None
                                        else self.mesh.points_at(ix).T)
            n += ix.size
        (lo,) = tau.log_tau(np.array([np.max(f)]))
        return replace(self, points=coords.T, mesh=None, f=f, log_tau_min=float(lo))


@dataclass(frozen=True)
class Moments:
    """The moments of m^(k) that a continuation stage reports, at one k."""

    f: Estimate
    fc2: Estimate  # E (f - c)^2
    c: float  # the finest level's min f, the shift that keeps Var free of cancellation
    x: Estimate  # a read-only vector value


class NascentMD:
    """The density m^(k) bound to (objective, region, tau kind, integrator).

    Immutable except for internal caches; any cache state gives the same values
    (up to summation order, for the support) so concurrent use is safe.
    """

    def __init__(self, objective: Objective, region: CompactRegion,
                 tau: TauKind | None = None, k: float = 1.0,
                 integrator: IntegratorConfig | None = None,
                 _shared: dict | None = None):
        if objective.dim != region.dim:
            raise ValueError("objective and region dimensions differ")
        if not (np.isfinite(k) and k >= 0):
            raise ValueError(f"k must be finite and non-negative, got k={k}")
        self.objective = objective
        self.region = region
        self.tau = tau if tau is not None else Exponential()
        self.k = float(k)
        self.integrator = integrator or default_config(region.dim)
        # shared across with_k clones (one tau kind): quadrature node sets, density levels
        # (each built when first read), measure, resolved tau, per-k log Z (from a finest
        # pass), moments and E log tau, per-level support, one mesh's f
        self._shared = _shared or dict(levels=[None, None], log_Z={}, moments={}, log_tau={},
                                       support={}, mesh=[])

    def with_k(self, k: float) -> "NascentMD":
        """Same density family at a different k, sharing all node caches."""
        return NascentMD(self.objective, self.region, self.tau, k,
                         self.integrator, _shared=self._shared)

    # --- node caches ---------------------------------------------------------

    def level(self, i: int) -> DensityLevel:
        """Quadrature level i (0 coarse, 1 finest) with f, built when first read.  The
        finest comes first and fixes mu, the resolved tau and its min f; a coarse grid
        level's f is evaluated when a pass or ``mesh_values`` first reads it.  Under Monte
        Carlo f is evaluated once on the whole sample, and the coarse level, its prefix,
        is built with the finest."""
        shared, built = self._shared, self._shared["levels"]
        if built[1] is None:
            nodesets, mu = quadrature_levels(self.region, self.integrator)
            coarse, fine = nodesets
            mc = self.integrator.kind == "mc"
            f = evaluate_batch(self.objective, fine.points if mc else fine.mesh)
            shared.update(mu=mu.value, tau=self.tau.resolved(f), f_min=float(np.min(f)),
                          nodesets=nodesets)
            if mc:  # the coarse level is a prefix of the sample
                built[0] = self._with_f(coarse, f[:len(coarse.points)])
            built[1] = self._with_f(fine, f)
        if built[i] is None:  # a coarse grid level
            coarse = shared["nodesets"][0]
            built[0] = self._with_f(coarse, evaluate_batch(self.objective, coarse.mesh))
        return built[i]

    def _with_f(self, lv: Level, f: np.ndarray) -> DensityLevel:
        """Level ``lv`` holding f, with log tau at its min and max f: tau decreases in f,
        so log tau is extreme where f is (a rational tau checks its shift there)."""
        hi, lo = self._shared["tau"].log_tau(np.array([np.min(f), np.max(f)]))
        return DensityLevel(lv.points, lv.log_node_weight, lv.mesh, f, hi, lo)

    def levels(self) -> list[DensityLevel]:
        """The two quadrature levels with f, coarsest first (see ``level``)."""
        return [self.level(0), self.level(1)]

    def resolved_tau(self) -> TauKind:
        """The tau kind with its shift fixed from the finest level's f values."""
        self.level(1)
        return self._shared["tau"]

    def _support(self, i: int) -> DensityLevel:
        """Level i (0 coarse, 1 finest) or the cut that a pass at k0 <= k left: a node
        with k0 (log tau - max) < -CLIP stays below -CLIP at any k >= k0, so it weighs 0."""
        k0, cut = self._shared["support"].get(i, (np.inf, None))
        return cut if self.k >= k0 else self.level(i)

    def _reduce(self, level: DensityLevel, integrands, spread: bool = False):
        """E^(k) on ``level`` of each integrand, a map from a block (f, points) of
        ``level.blocks()`` to its node values, one row per node (the location x: points),
        from one walk over the blocks: the one place weights meet node values.
        A block's weights are e = exp(k log tau - top), top = k max log tau, 0 where k log
        tau is more than CLIP below top; sums are divided by sum e at the end, and
        top + log sum e follows.
        With ``spread``, also sum w^2 (h - E h)^2 per scalar integrand (else None), from
        each block's sums of e^2 (h - b)^j, j = 0, 1, 2, about its own mean b."""
        tau, k = self._shared["tau"], self.k
        top = k * level.log_tau_max
        clips = k * level.log_tau_min < top - CLIP
        z, sums, parts = 0.0, [0.0] * len(integrands), []
        for f, points in level.blocks():
            e = tau.log_tau(f, k)
            if clips:
                kept = e >= top - CLIP
                np.maximum(e, top - CLIP, out=e)
            np.exp(np.subtract(e, top, out=e), out=e)
            if clips:
                np.multiply(e, kept, out=e)
            z_block = np.sum(e)
            z += z_block
            for j, v in enumerate(h(f, points) for h in integrands):
                ev = _dot(e, v)
                sums[j] += ev
                if spread and v.ndim == 1 and z_block > 0.0:
                    d = np.multiply(v - ev / z_block, e)
                    parts.append((j, ev / z_block, _dot(e, e), _dot(d, e), _dot(d, d)))
        means = [t / z for t in sums]
        out = np.zeros(len(integrands))
        for j, b, q0, q1, q2 in parts:
            out[j] += q2 - 2.0 * (means[j] - b) * q1 + (means[j] - b) ** 2 * q0
        return means, out / z ** 2 if spread else None, float(top + np.log(z))

    def _pass(self, i: int, integrands, spread: bool = False):
        """``_reduce`` on level i's support, first cut to the nodes that the walk would
        weigh, k log tau >= top - CLIP, when k log tau clips there and at most 1/4 of them
        survive: marked from the support's f alone, block by block, and the cut cached at
        k.  The first pass over the finest at k keeps log Z."""
        level, tau, k = self._support(i), self._shared["tau"], self.k
        top = k * level.log_tau_max
        if k * level.log_tau_min < top - CLIP:
            keep = np.empty(level.size, dtype=bool)
            for n in range(0, level.size, BLOCK_ROWS):
                np.greater_equal(tau.log_tau(level.f[n:n + BLOCK_ROWS], k), top - CLIP,
                                 out=keep[n:n + BLOCK_ROWS])
            if 4 * np.count_nonzero(keep) <= keep.size:
                level = level.restrict(keep, tau)
                self._shared["support"][i] = (k, level)
            del keep
        means, out, log_sum = self._reduce(level, integrands, spread)
        if i == 1:
            self._shared["log_Z"].setdefault(k, log_sum + self.level(1).log_node_weight)
        return means, out

    def log_Z(self) -> float:
        """log of the normalizer at the finest level, from the first pass over it at k."""
        if self.k not in self._shared["log_Z"]:
            self._pass(1, [])
        return self._shared["log_Z"][self.k]

    def region_measure(self) -> float:
        """mu(Omega) as the quadrature levels measure it."""
        self.level(1)
        return self._shared["mu"]

    def mesh_values(self, mesh: GridMesh) -> np.ndarray:
        """f on the mesh (k log tau is ``resolved_tau().log_tau(f, k)``): a level's when
        ``GridMesh.same_layout`` matches its mesh, the finest's first, so a coarse level is
        built only when its own layout is asked for; else evaluated once and held, the
        latest only."""
        self.level(1)
        for i in (1, 0):
            other = self._shared["nodesets"][i].mesh
            if other is not None and other.same_layout(mesh):
                return self.level(i).f
        for other, f in self._shared["mesh"]:
            if other.same_layout(mesh):
                return f
        f = evaluate_batch(self.objective, mesh)
        self._shared["mesh"] = [(mesh, f)]
        return f  # not read back from the cache, which another thread may replace

    # --- pointwise evaluation ------------------------------------------------

    def log_tau(self, x):
        """log tau at a point or (N, dim) batch."""
        pts, single = _as_points(x, self.region.dim)
        vals = self.resolved_tau().log_tau(evaluate_batch(self.objective, pts))
        return float(vals[0]) if single else vals

    def log_density(self, x):
        """k log tau(x) - log Z at a point or (N, dim) batch."""
        pts, single = _as_points(x, self.region.dim)
        vals = (self.resolved_tau().log_tau(evaluate_batch(self.objective, pts), self.k)
                - self.log_Z())
        return float(vals[0]) if single else vals

    def density(self, x):
        return np.exp(self.log_density(x))

    def _one_point(self, x) -> np.ndarray:
        pts, _ = _as_points(x, self.region.dim)
        if pts.shape[0] != 1:
            raise ValueError(f"expected a single point, got a batch of {pts.shape[0]}")
        return pts[0]

    def grad_density(self, x) -> np.ndarray:
        """Gradient of m^(k): k m^(k) (d log tau/df) grad f, at a single point."""
        x0 = self._one_point(x)
        g = gradient(self.objective, x0)
        dens = self.density(x0)
        return self.k * dens * self.resolved_tau().dlog_tau_df(self.objective(x0)) * g

    def ddk_density(self, x) -> float:
        """d/dk of m^(k) at a single point: m^(k)(x) (log tau(x) - E(log tau))."""
        x0 = self._one_point(x)
        return self.density(x0) * (self.log_tau(x0) - self.expect_log_tau())

    # --- expectations --------------------------------------------------------

    def _estimates(self, *integrands: Callable[..., np.ndarray]) -> list[Estimate]:
        """E^(k) of each integrand (see ``_reduce``) from one pass per level.

        The error is the two levels' difference, or 3 sigma on the finest level
        under Monte Carlo.  A vector-valued integrand (the location x) gets a
        read-only vector value and the norm of the difference.
        """
        mc = self.integrator.kind == "mc"
        coarse = self._pass(0, integrands)[0]
        fine, spread = self._pass(1, integrands, spread=mc)
        out = []
        for j, (c, v) in enumerate(zip(coarse, fine)):
            if np.ndim(v):
                v.setflags(write=False)
                out.append(Estimate(v, float(np.linalg.norm(v - c))))
            else:
                err = 3.0 * np.sqrt(max(spread[j], 0.0)) if mc else abs(v - c)
                out.append(Estimate(float(v), float(err)))
        return out

    def moments(self) -> Moments:
        """E f, E (f - c)^2 and E x from one pass per level, cached per k for ``with_k`` clones."""
        cache = self._shared["moments"]
        if self.k not in cache:
            self.level(1)
            c = self._shared["f_min"]
            f, fc2, x = self._estimates(lambda f, *_: f, lambda f, *_: np.square(f - c),
                                        lambda f, points: points)
            cache[self.k] = Moments(f=f, fc2=fc2, c=c, x=x)
        return cache[self.k]

    def expectation(self, h: Callable[[np.ndarray], np.ndarray] | None = None) -> Estimate:
        """E^(k) of h, ``h=None`` meaning the objective itself (its node values are cached).

        h must be row-wise, like ``Objective.fn``: it is handed the nodes block by block.
        """
        if h is None:
            return self._estimates(lambda f, *_: f)[0]
        return self._estimates(lambda f, points: np.asarray(h(points), float))[0]

    def expect_f(self) -> Estimate:
        return self.moments().f

    def expect_log_tau(self) -> float:
        """E^(k)(log tau) on the finest level, from one pass when first read (no
        continuation stage reports it), cached per k and shared by ``with_k`` clones."""
        cache, tau = self._shared["log_tau"], self.resolved_tau()
        if self.k not in cache:
            cache[self.k] = float(self._pass(1, [lambda f, *_: tau.log_tau(f)])[0][0])
        return cache[self.k]

    def log_expect_tau(self) -> Estimate:
        """log E^(k)(tau) = c + log E^(k)(exp(log tau - c)), c the finest level's max log
        tau, from one pass per level, with the levels' difference of it as the error."""
        tau, c = self.resolved_tau(), self.level(1).log_tau_max
        h = [lambda f, *_: np.exp(tau.log_tau(f) - c)]
        coarse, fine = (c + np.log(self._pass(i, h)[0][0]) for i in (0, 1))
        return Estimate(float(fine), float(abs(fine - coarse)))

    def variance_f(self) -> Estimate:
        """Var^(k)(f) = E (f - c)^2 - (E f - c)^2 with c the finest level's min f,
        clamped at zero; unlike E f^2 - (E f)^2 it does not cancel when f is large."""
        mom = self.moments()
        value = max(mom.fc2.value - (mom.f.value - mom.c) ** 2, 0.0)
        err = mom.fc2.error + 2.0 * abs(mom.f.value - mom.c) * mom.f.error
        return Estimate(value, err)

    def mean_location(self, with_error: bool = False):
        """Component-wise E^(k)(x); optionally also the error norm."""
        x = self.moments().x
        return (x.value.copy(), x.error) if with_error else x.value.copy()
