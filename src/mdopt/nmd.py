"""Annealed density engine: m^(k)(x) = tau(x)^k / Z(k) on a compact region.

tau is a positive, decreasing transform of f (exponential e^{-f} or the
rational 1/(f - L + p)), so m^(k) concentrates on the global minimizers as k
grows.  Each tau kind owns ``log_tau(f, k)`` (k log tau in one pass),
``dlog_tau_df(f)`` and ``resolved(f)``, which fixes a data-dependent shift once.
Everything is evaluated in log space on the two levels of ``integrate.levels``,
held as frozen ``DensityLevel`` records (points or mesh, weight, f, and log tau at
the level's min and max f) built once with the resolved tau and mu: m^(k) depends
on a node only through f, and a grid level keeps no node array.  One pass per
level (``_reduce``) serves every density sum: it walks the level in blocks of at
most BLOCK_ROWS nodes (a grid mesh's slabs or slices of the points) and sums
e = exp(k log tau - top), top = k max log tau, and e h per integrand.  It gives
E f, E (f - c)^2 (c the finest level's min f, so Var^(k)(f) does not move when a
constant is added to f) and E x, with the levels' difference as error, and
top + log sum e: the first pass over the finest level at k leaves log Z(k).
log E^(k)(tau) is c' + log E^(k)(exp(log tau - c')), c' the finest level's max
log tau, so an offset in f cancels inside the exponent.  ``with_k`` clones share
the levels, log Z, ``Moments``, E log tau (reduced when first read) and the f
that ``mesh_values`` held for the latest mesh without a level's layout.  The pass
runs on the support of m^(k), the nodes whose weight is not exactly 0; a larger k
starts from the last support, and a level is cut, to the int32 positions of its
nodes, only when at most half of them survive.  k log tau is clipped at 650 below
its max, the clipped nodes weighing exactly 0, so exp stays on numpy's SIMD fast
path (inputs > -708) and the mass dropped is at most N e^-650 ~ 1e-273 of Z.
``expectation(h)`` evaluates h, and checks ``DomainError``, block by block on the
support.  k must be finite and >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional

import numpy as np

from .integrate import IntegratorConfig, Level, default_config, levels as quadrature_levels
from .integrate import logsumexp, softmax  # noqa: F401  bench/tracer.py wraps both by name
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

    def log_tau(self, f, k: float = 1.0, checked: bool = False):
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

    def _arg(self, f, checked: bool = False):
        arg = f - self.L + self.p
        if not checked and np.any(arg <= 0.0):
            raise InvalidShiftError(
                "rational tau requires f(x) - L + p > 0 on all evaluated points"
            )
        return arg

    def log_tau(self, f, k: float = 1.0, checked: bool = False):
        """k log tau on an array f, the log taken and scaled in place: ``k * -log(arg)``.
        ``checked``: f is (part of) a level's, whose min f was checked when it was built."""
        arg = self._arg(f, checked)
        return np.multiply(np.log(arg, out=arg), -k, out=arg)

    def dlog_tau_df(self, f):
        return -1.0 / self._arg(f)


TauKind = Exponential | Rational


@dataclass(frozen=True)
class DensityLevel(Level):
    """A quadrature level with f on its nodes, and the max and min of log tau
    (resolved tau) over the whole level; a cut (``restrict``) is the level plus
    ``index``, the int32 positions of its nodes, and shares the level's arrays."""

    f: np.ndarray
    log_tau_max: float
    log_tau_min: float
    index: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.f.size if self.index is None else self.index.size

    @property
    def nodes(self) -> np.ndarray:
        return super().nodes if self.index is None else self._gather(self.index)

    def node(self, i: int) -> np.ndarray:
        return super().node(i if self.index is None else int(self.index[i]))

    def _gather(self, ix: np.ndarray) -> np.ndarray:
        """The nodes at positions ``ix`` as a coordinate-major ``(n, dim)`` array."""
        return self.mesh.points_at(ix) if self.mesh is not None else np.take(
            self.points.T, ix, axis=1).T

    def blocks(self) -> Iterator[tuple[np.ndarray, Callable, Callable]]:
        """The nodes in level order as (f, points, weighted_sum) blocks of at most BLOCK_ROWS:
        f, a map to the ``(n, dim)`` points and one from a weight per node to sum_i w_i x_i;
        a whole grid level's slabs (the sum from lattice marginals), else nodes by position."""
        if self.mesh is not None and self.index is None:
            i = 0
            for n, points, weighted_sum in self.mesh.slabs(BLOCK_ROWS):
                yield self.f[i:i + n], points, weighted_sum
                i += n
            return
        for i in range(0, self.size, BLOCK_ROWS):
            if self.index is None:
                pts = self.points[i:i + BLOCK_ROWS]
                f, points = self.f[i:i + BLOCK_ROWS], lambda pts=pts: pts
            else:
                ix = self.index[i:i + BLOCK_ROWS]
                f, points = self.f[ix], lambda ix=ix: self._gather(ix)
            yield f, points, lambda w, points=points: w @ points()

    def restrict(self, keep: np.ndarray) -> "DensityLevel":
        """The cut to the nodes where ``keep`` (one flag per node) holds, which must include
        a node where log tau is maximal; the min stays the whole level's, a lower bound."""
        index, n = np.empty(np.count_nonzero(keep), dtype=np.int32), 0
        for i in range(0, keep.size, BLOCK_ROWS):
            pos = np.flatnonzero(keep[i:i + BLOCK_ROWS]) + i
            index[n:n + pos.size] = pos if self.index is None else self.index[pos]
            n += pos.size
        return replace(self, index=index)


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
        # per-k log Z (from a finest pass), moments and E log tau, per-level support, one mesh's f
        self._shared = _shared or dict(log_Z={}, moments={}, log_tau={}, support={}, mesh=[])

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
        tau, keep, j = self._shared["tau"], np.empty(level.size, dtype=bool), 0
        for f, *_ in level.blocks():
            np.greater_equal(tau.log_tau(f, self.k, checked=True), top - 746.0,
                             out=keep[j:j + f.size])
            j += f.size
        if 2 * np.count_nonzero(keep) <= keep.size:
            level = level.restrict(keep)
            self._shared["support"][i] = (self.k, level)
        return level

    def _reduce(self, level: DensityLevel, integrands, spread: bool = False):
        """E^(k) on ``level`` of each integrand, a map from a block of ``level.blocks()`` to
        its node values or to a map from the block's weights to their weighted sum (the
        location x), from one walk over the blocks: the one place weights meet node values.
        A block's weights are e = exp(k log tau - top), top = k max log tau, 0 where k log
        tau is clipped; sums are divided by sum e at the end, and top + log sum e is last.
        With ``spread``, also sum w^2 (h - E h)^2 per scalar integrand (else None), from
        each block's sums of e^2 (h - b)^j, j = 0, 1, 2, about its own mean b."""
        tau, k = self._shared["tau"], self.k
        top = k * level.log_tau_max
        clip = k * level.log_tau_min < top - 650.0
        z, sums, parts = 0.0, [0.0] * len(integrands), []
        for block in level.blocks():
            e = tau.log_tau(block[0], k, checked=True)  # block = (f, points, weighted_sum)
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
        return means, out / z ** 2 if spread else None, float(top + np.log(z))

    def _pass(self, i: int, integrands, spread: bool = False):
        """``_reduce`` on level i's support; the first pass over the finest at k keeps log Z."""
        means, out, log_sum = self._reduce(self._support(i), integrands, spread)
        if i == 1:
            self._shared["log_Z"].setdefault(self.k, log_sum + self.levels()[1].log_node_weight)
        return means, out

    def log_Z(self) -> float:
        """log of the normalizer at the finest level, from the first pass over it at k."""
        if self.k not in self._shared["log_Z"]:
            self._pass(1, [])
        return self._shared["log_Z"][self.k]

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
            cache[self.k] = self._estimates(lambda f, *_: tau.log_tau(f, checked=True))[0]
        return cache[self.k]

    def log_expect_tau(self) -> Estimate:
        """log E^(k)(tau) = c + log E^(k)(exp(log tau - c)), c the finest level's max log
        tau, from one pass per level, with the levels' difference of it as the error."""
        tau, c = self.resolved_tau(), self.levels()[1].log_tau_max
        h = [lambda f, *_: np.exp(tau.log_tau(f, checked=True) - c)]
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
