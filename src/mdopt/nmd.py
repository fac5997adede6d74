"""Annealed density engine: m^(k)(x) = tau(x)^k / Z(k) on a compact region.

tau is a positive, decreasing transform of f (exponential e^{-f} or the
rational 1/(f - L + p)), so m^(k) concentrates on the global minimizers as k
grows.  Each tau kind owns ``log_tau(f, k)`` (k log tau in one pass),
``dlog_tau_df(f)`` and ``resolved(f)``, which fixes a data-dependent shift once.
Everything is evaluated in log space on the two levels of ``integrate.levels``,
held as frozen ``DensityLevel`` records (points or mesh, weight, f, and log tau at
the level's min and max f, its max and min) built once with the resolved tau and
mu: m^(k) depends on a node only through f, and a grid level keeps no node array.
A log-sum of k log tau per (k, level), made when first read, gives log Z(k)
(finest level) and log E^(k)(tau) = log Z(k+1) - log Z(k).  One pass per level
(``_reduce``) walks it in blocks of at most BLOCK_ROWS nodes, a grid mesh's slabs
or slices of the points, and sums e = exp(k log tau - k max log tau) and e h for
each integrand, so no weight array is made; it gives E f, E (f - c)^2 and E x (on
a grid, from each slab's lattice marginals), each with the levels' difference as
its error, where c is the finest level's min f, so Var^(k)(f) = E (f - c)^2 -
(E f - c)^2 does not move when a constant is added to f.  E log tau is reduced
when first read.  ``with_k`` clones share the levels, the log-sums, ``Moments``,
E log tau and the f that ``mesh_values`` held for the latest mesh without a
level's layout, so each f is evaluated once.  The pass runs on the support of
m^(k), the nodes whose weight is not exactly 0 (exp underflows below -745.13), and
a larger k starts from the last support; a level is cut only when at most half
its nodes survive.  k log tau is clipped at 650 below its max, the clipped nodes
weighing exactly 0, so every e is 0 or a normal float, exp stays on numpy's SIMD
fast path (inputs > -708; with numpy 2.4 it costs 1.7 ms per 10^6 at -700 and 239
ms at -709) and the mass dropped is at most N e^-650 ~ 1e-273 of Z.
``expectation(h)`` evaluates h, and checks ``DomainError``, block by block on the
support.  k must be finite and >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .integrate import (IntegratorConfig, Level, default_config,
                        levels as quadrature_levels, logsumexp)
from .integrate import softmax  # noqa: F401  bench/tracer.py wraps nmd.softmax by name
from .objective import Objective, evaluate_batch, gradient
from .region import BLOCK_ROWS, CompactRegion, Estimate, GridMesh, _as_points


class InvalidShiftError(ValueError):
    """Rational tau hit f(x) - L + p <= 0."""


class DomainError(ValueError):
    """h^nu undefined: h <= 0 somewhere with non-integer nu."""


@dataclass(frozen=True)
class Exponential:
    """tau(x) = exp(-f(x))."""

    def resolved(self, f: np.ndarray) -> "Exponential":
        return self

    def log_tau(self, f, k: float = 1.0):
        return f * -k

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
        if self.p <= 0:
            raise ValueError("rational tau needs p > 0")

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

    def dlog_tau_df(self, f):
        return -1.0 / self._arg(f)


TauKind = Exponential | Rational


@dataclass(frozen=True)
class DensityLevel(Level):
    """A quadrature level with f on its nodes, and the max and min of log tau
    (resolved tau) over the whole level."""

    f: np.ndarray
    log_tau_max: float
    log_tau_min: float

    def blocks(self) -> Iterator[tuple[np.ndarray, Callable, Callable]]:
        """The nodes in level order as (f, points, weighted_sum) blocks of at most BLOCK_ROWS:
        f, a map to the ``(n, dim)`` points and one from a weight per node to sum_i w_i x_i;
        a grid level's mesh slabs (the sum from lattice marginals), else ``points`` slices."""
        if self.mesh is not None:
            i = 0
            for n, points, weighted_sum in self.mesh.slabs(BLOCK_ROWS):
                yield self.f[i:i + n], points, weighted_sum
                i += n
            return
        for i in range(0, self.f.size, BLOCK_ROWS):
            pts = self.points[i:i + BLOCK_ROWS]
            yield self.f[i:i + BLOCK_ROWS], lambda pts=pts: pts, lambda w, pts=pts: w @ pts

    def restrict(self, keep: np.ndarray) -> "DensityLevel":
        """The nodes where ``keep`` holds as coordinate-major points, with no mesh (a
        grid level's are compressed slab by slab, without its node array); ``keep``
        must hold at a node where log tau is maximal.  f is the only per-node array
        kept; the min stays the whole level's, a lower bound."""
        points = (np.compress(keep, self.points.T, axis=1).T if self.mesh is None
                  else self.mesh.compress(keep))
        return DensityLevel(points, self.log_node_weight, None, self.f[keep],
                            self.log_tau_max, self.log_tau_min)


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
        # shared across with_k clones (one tau kind): density levels, measure, resolved tau,
        # per-(k, level) log-sums, per-k moments and E log tau, per-level support, one mesh's f
        self._shared = _shared or dict(log_sums={}, moments={}, log_tau={}, support={}, mesh=[])

    def with_k(self, k: float) -> "NascentMD":
        """Same density family at a different k, sharing all node caches."""
        return NascentMD(self.objective, self.region, self.tau, k,
                         self.integrator, _shared=self._shared)

    # --- node caches ---------------------------------------------------------

    def levels(self) -> list[DensityLevel]:
        """The two quadrature levels, coarsest first, with f; fills mu and tau."""
        levels = self._shared.get("levels")
        if levels is not None:
            return levels
        nodesets, mu = quadrature_levels(self.region, self.integrator)
        if self.integrator.kind == "mc":  # levels are prefixes of one sample
            f = evaluate_batch(self.objective, nodesets[-1].points)
            fs = [f[:len(lv.points)] for lv in nodesets]
        else:
            fs = [evaluate_batch(self.objective, lv.mesh) for lv in nodesets]
        tau = self.tau.resolved(fs[-1])
        levels = []
        for lv, f in zip(nodesets, fs):  # tau decreases in f: log tau is extreme where f is
            hi, lo = tau.log_tau(np.array([np.min(f), np.max(f)]))
            levels.append(DensityLevel(lv.points, lv.log_node_weight, lv.mesh, f, hi, lo))
        self._shared.update(mu=mu.value, tau=tau, levels=levels, f_min=float(np.min(fs[-1])))
        return levels

    def resolved_tau(self) -> TauKind:
        """The tau kind with its shift fixed from the finest level's f values."""
        self.levels()
        return self._shared["tau"]

    def _support(self, i: int) -> DensityLevel:
        """Level i (0 coarse, 1 finest) or its support, starting from the support cut at
        k0 <= k (k log tau < max - 746 weighs 0 at any k >= k0).  When the pass will clip,
        it cuts, and caches the cut, if at most half has k log tau >= max - 746."""
        k0, level = self._shared["support"].get(i, (np.inf, None))
        level = level if self.k >= k0 else self.levels()[i]
        top = self.k * level.log_tau_max  # == max(k log tau): rounding is monotone, k >= 0
        if self.k * level.log_tau_min >= top - 650.0:  # nothing to drop or clip
            return level
        tau, keep = self._shared["tau"], np.empty(level.f.size, dtype=bool)
        for j in range(0, keep.size, BLOCK_ROWS):
            np.greater_equal(tau.log_tau(level.f[j:j + BLOCK_ROWS], self.k), top - 746.0,
                             out=keep[j:j + BLOCK_ROWS])
        if 2 * np.count_nonzero(keep) <= keep.size:
            level = level.restrict(keep)
            self._shared["support"][i] = (self.k, level)
        return level

    def _reduce(self, level: DensityLevel, integrands, spread: bool = False):
        """E^(k) on ``level`` of each integrand, a map from a block of ``level.blocks()`` to
        its node values or to a map from the block's weights to their weighted sum (the
        location x), from one walk over the blocks: the one place weights meet node values.
        A block's weights are e = exp(k log tau - k max log tau), 0 where k log tau is
        clipped; sums are divided by sum e at the end.  With ``spread``, also sum w^2 (h -
        E h)^2 per scalar integrand (else None), from each block's sums of e^2 (h - b)^j,
        j = 0, 1, 2, about its own mean b."""
        tau, k = self._shared["tau"], self.k
        top = k * level.log_tau_max
        clip = k * level.log_tau_min < top - 650.0
        z, sums, parts = 0.0, [0.0] * len(integrands), []
        for block in level.blocks():
            e = tau.log_tau(block[0], k)  # block = (f, points, weighted_sum)
            if clip:
                clipped = e < top - 650.0
                np.maximum(e, top - 650.0, out=e)
            np.exp(np.subtract(e, top, out=e), out=e)
            if clip:
                np.putmask(e, clipped, 0.0)
            z_block = np.sum(e)
            z += z_block
            for j, v in enumerate(h(*block) for h in integrands):
                ev = v(e) if callable(v) else e @ v
                sums[j] += ev
                if spread and not callable(v) and z_block > 0.0:
                    d = np.multiply(v - ev / z_block, e)
                    parts.append((j, ev / z_block, e @ e, d @ e, d @ d))
        means = [t / z for t in sums]
        out = np.zeros(len(integrands))
        for j, b, q0, q1, q2 in parts:
            out[j] += q2 - 2.0 * (means[j] - b) * q1 + (means[j] - b) ** 2 * q0
        return means, out / z ** 2 if spread else None

    def _log_sum(self, k: float, level: int) -> float:
        """logsumexp(k log tau) on level 0 (coarse) or 1 (finest), made when first read."""
        cache = self._shared["log_sums"]
        if (k, level) not in cache:
            f = self.levels()[level].f
            cache[k, level] = float(logsumexp(self._shared["tau"].log_tau(f, k)))
        return cache[k, level]

    def log_Z(self) -> float:
        """log of the normalizer at the finest level."""
        return self._log_sum(self.k, 1) + self.levels()[1].log_node_weight

    def region_measure(self) -> float:
        """mu(Omega) as the quadrature levels measure it."""
        self.levels()
        return self._shared["mu"]

    def mesh_values(self, mesh: GridMesh) -> np.ndarray:
        """f on the mesh (k log tau is ``resolved_tau().log_tau(f, k)``): a level's when
        ``GridMesh.same_layout`` matches its mesh, else evaluated once and held, the latest only."""
        held = [(lv.mesh, lv.f) for lv in self.levels() if lv.mesh is not None]
        for other, f in held + self._shared["mesh"]:
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
        return self.density(x0) * (self.log_tau(x0) - self.expect_log_tau().value)

    # --- expectations --------------------------------------------------------

    def _estimates(self, *integrands: Callable[..., np.ndarray | Callable]) -> list[Estimate]:
        """E^(k) of each integrand (see ``_reduce``) from one pass per level.

        The error is the two levels' difference, or 3 sigma on the finest level
        under Monte Carlo.  A vector-valued integrand (the location x) gets a
        read-only vector value and the norm of the difference.
        """
        mc = self.integrator.kind == "mc"
        coarse, _ = self._reduce(self._support(0), integrands)
        fine, spread = self._reduce(self._support(1), integrands, spread=mc)
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
        """E f, E (f - c)^2 and E x from one pass per level.

        Cached per k and shared by ``with_k`` clones.
        """
        cache = self._shared["moments"]
        if self.k not in cache:
            self.levels()
            c = self._shared["f_min"]
            f, fc2, x = self._estimates(lambda f, *_: f, lambda f, *_: np.square(f - c),
                                        lambda f, points, weighted_sum: weighted_sum)
            cache[self.k] = Moments(f=f, fc2=fc2, c=c, x=x)
        return cache[self.k]

    def expectation(self, h: Callable[[np.ndarray], np.ndarray] | None = None,
                    nu: float = 1.0, shift=None) -> Estimate:
        """E^(k) of h^nu, optionally with the integration variable shifted.

        ``h=None`` means the objective itself (its node values are cached).  h must be
        row-wise, like ``Objective.fn``: it is handed the nodes block by block.
        """
        if h is None and shift is None:
            return self._estimates(lambda f, *_: self._power(f, nu))[0]
        off = np.zeros(self.region.dim) if shift is None else np.asarray(shift, float)
        fn = h if h is not None else (lambda p: evaluate_batch(self.objective, p))
        return self._estimates(
            lambda f, points, _: self._power(np.asarray(fn(points() + off), float), nu))[0]

    @staticmethod
    def _power(vals: np.ndarray, nu: float) -> np.ndarray:
        if nu == 1.0:
            return vals
        if not float(nu).is_integer() and np.any(vals <= 0.0):
            raise DomainError("h <= 0 somewhere with non-integer exponent")
        return vals ** nu

    def expect_f(self) -> Estimate:
        return self.moments().f

    def expect_log_tau(self) -> Estimate:
        """E^(k)(log tau), reduced when first read (no continuation stage reports it)
        and cached per k, shared by ``with_k`` clones."""
        cache, tau = self._shared["log_tau"], self.resolved_tau()
        if self.k not in cache:
            cache[self.k] = self._estimates(lambda f, *_: tau.log_tau(f))[0]
        return cache[self.k]

    def log_expect_tau(self) -> Estimate:
        """log E^(k)(tau), with the levels' difference of it as the error."""
        coarse, fine = (self._log_sum(self.k + 1.0, i) - self._log_sum(self.k, i) for i in (0, 1))
        return Estimate(fine, abs(fine - coarse))

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
