"""Annealed density engine: m^(k)(x) = tau(x)^k / Z(k) on a compact region.

tau is a positive, decreasing transform of f (exponential e^{-f} or the
rational 1/(f - L + p)), so m^(k) concentrates on the global minimizers as k
grows.  Each tau kind owns ``log_tau(f, k)`` (k log tau in one pass),
``dlog_tau_df(f)`` and ``resolved(f)``, which fixes a data-dependent shift once.
Everything is evaluated in log space on the two levels of ``integrate.levels``,
held as frozen ``DensityLevel`` records (points or mesh, weight, f, max and min
log tau) built once with the resolved tau and mu: m^(k) depends on a node only
through f, its one per-node array, and a grid level keeps no node array.  A
log-sum of k log tau per (k, level), made when first read, gives log Z(k)
(finest level) and log E^(k)(tau) = log Z(k+1) - log Z(k); one softmax pass per
level gives E f, E (f - c)^2 and E x (on a grid level, from the weights' lattice
marginals), each with the levels' difference as its error, where c is the
finest level's min f, so Var^(k)(f) = E (f - c)^2 - (E f - c)^2 does not move
when a constant is added to f; E log tau is reduced only when read.  ``with_k``
clones share the levels, the log-sums, ``Moments`` and the f that ``mesh_values``
held for the latest mesh without a level's layout, so each f is evaluated once.
Weights are formed on the support of m^(k), the nodes whose weight is not exactly
0 (exp underflows below -745.13), and a larger k starts from the last support.
A level is cut only when at most half its nodes survive, so no copy of a barely
smaller level sits next to the full-size temporaries.  On the support, k log tau
is clipped at 650 below its maximum (k times the level's cached max log tau)
before the softmax, and the clipped nodes get weight exactly 0; when k times the
level's min log tau is above that floor neither pass is made.  numpy's SIMD exp
leaves its fast path at inputs <= -708 (with numpy 2.4, per 10^6 inputs: 1.7 ms
at -700, 28 ms at -708, 239 ms at -709 where the result is subnormal), and the
mass dropped is at most N e^-650 ~ 1e-273 of Z.  Every weight is 0 or a normal
float (>= e^-650 / N) for N < 2^31.  ``expectation(h)`` evaluates h, and checks
``DomainError``, on the support (slab by slab on a grid).  k must be finite and >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .integrate import (IntegratorConfig, Level, default_config,
                        levels as quadrature_levels, logsumexp, softmax)
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
        # shared across with_k clones (one tau kind): density levels, measure, resolved
        # tau, per-(k, level) log-sums, per-k moments, per-level support, one other mesh's f
        self._shared = _shared or {"log_sums": {}, "moments": {}, "support": {}, "mesh": []}

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
        for lv, f in zip(nodesets, fs):
            log_tau = tau.log_tau(f)
            levels.append(DensityLevel(lv.points, lv.log_node_weight, lv.mesh, f,
                                       float(np.max(log_tau)), float(np.min(log_tau))))
        self._shared.update(mu=mu.value, tau=tau, levels=levels, f_min=float(np.min(fs[-1])))
        return levels

    def resolved_tau(self) -> TauKind:
        """The tau kind with its shift fixed from the finest level's f values."""
        self.levels()
        return self._shared["tau"]

    def _support(self, i: int) -> tuple[DensityLevel, np.ndarray]:
        """Level i (0 coarse, 1 finest) or its support, and the weights; the one place
        weights are made.  Starts from the cached support if cut at k0 <= k (k log tau <
        max - 746 weighs 0 at any k >= k0); caches a cut when at most half survives.
        Weights below e^-650 of the largest are set to exactly 0, so exp never sees
        an input below -650 and no weight is subnormal."""
        k0, level = self._shared["support"].get(i, (np.inf, None))
        level = level if self.k >= k0 else self.levels()[i]
        top = self.k * level.log_tau_max  # == max(k log tau): rounding is monotone, k >= 0
        floor = top - 650.0
        a = self._shared["tau"].log_tau(level.f, self.k)
        if self.k * level.log_tau_min >= floor:  # nothing to drop or clip
            return level, softmax(a)
        keep = a >= top - 746.0
        if 2 * np.count_nonzero(keep) <= keep.size:
            del a  # the full-size array goes before the copies are made
            level = level.restrict(keep)
            self._shared["support"][i] = (self.k, level)
            a = self._shared["tau"].log_tau(level.f, self.k)
        clipped = np.less(a, floor, out=keep[:a.size])
        np.maximum(a, floor, out=a)
        w = softmax(a)
        np.putmask(w, clipped, 0.0)
        return level, w

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

    def _estimates(self, *integrands: Callable[[DensityLevel], np.ndarray | Callable]
                   ) -> list[Estimate]:
        """E^(k) of each integrand, a map from a level to its node values or to a
        map from the weights to the weighted sum (the location x, which a grid
        level sums from its lattice marginals), from one softmax pass per level;
        the one place where weights meet node values.

        The error is the two levels' difference, or 3 sigma on the finest level
        under Monte Carlo.  A vector-valued integrand (the location x) gets a
        read-only vector value and the norm of the difference.
        """
        avgs = []
        for i in (0, 1):
            level, w = self._support(i)
            hs = [h(level) for h in integrands]
            avgs.append([h(w) if callable(h) else w @ h for h in hs])
        w2 = w ** 2 if self.integrator.kind == "mc" else None
        return [self._estimate(coarse, fine, w2, h) for coarse, fine, h in zip(*avgs, hs)]

    @staticmethod
    def _estimate(coarse, fine, w2: np.ndarray | None, h: np.ndarray) -> Estimate:
        """A vector value with the norm of the levels' difference; a scalar with
        3 sigma from the squared finest weights ``w2`` (Monte Carlo) or the levels'
        difference (``w2`` None)."""
        if np.ndim(fine):
            fine.setflags(write=False)
            return Estimate(fine, float(np.linalg.norm(fine - coarse)))
        if w2 is not None:
            return Estimate(float(fine), 3.0 * float(np.sqrt(np.sum(w2 * (h - fine) ** 2))))
        return Estimate(float(fine), abs(float(fine) - float(coarse)))

    def moments(self) -> Moments:
        """E f, E (f - c)^2 and E x from one weight pass per level.

        Cached per k and shared by ``with_k`` clones.
        """
        cache = self._shared["moments"]
        if self.k not in cache:
            self.levels()
            c = self._shared["f_min"]
            f, fc2, x = self._estimates(
                lambda lv: lv.f, lambda lv: self._square(lv.f - c), lambda lv: lv.weighted_sum)
            cache[self.k] = Moments(f=f, fc2=fc2, c=c, x=x)
        return cache[self.k]

    def expectation(self, h: Callable[[np.ndarray], np.ndarray] | None = None,
                    nu: float = 1.0, shift=None) -> Estimate:
        """E^(k) of h^nu, optionally with the integration variable shifted.

        ``h=None`` means the objective itself (its node values are cached).  h must be
        row-wise, like ``Objective.fn``: a grid level's nodes reach it slab by slab.
        """
        if h is None and shift is None:
            return self._estimates(lambda lv: self._power(lv.f, nu))[0]
        off = np.zeros(self.region.dim) if shift is None else np.asarray(shift, float)
        fn = h if h is not None else (lambda p: evaluate_batch(self.objective, p))

        def values(lv: DensityLevel) -> np.ndarray:
            blocks = [lv.points] if lv.mesh is None else lv.mesh.blocks(BLOCK_ROWS)
            vals = np.concatenate([np.asarray(fn(b + off), float) for b in blocks])
            return self._power(vals, nu)
        return self._estimates(values)[0]

    @staticmethod
    def _square(d: np.ndarray) -> np.ndarray:
        """d^2 in place, so a level's moments make one new array."""
        return np.multiply(d, d, out=d)

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
        """E^(k)(log tau), reduced when read: no continuation stage reports it."""
        return self._estimates(lambda lv: self.resolved_tau().log_tau(lv.f))[0]

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
