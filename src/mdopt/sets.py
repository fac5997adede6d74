"""Significant sets of the annealed density, shrink rates, basin masses.

Three set families, realized as boolean masks on a shared grid mesh:

* ``Df``   — sublevel set  f(x) <= E^(k)(f)
* ``Dtau`` — superlevel set  tau(x) >= E^(k)(tau)
* ``D0``   — where the density is at least the uniform level 1/mu(Omega)

Each family shrinks monotonically in k from the whole region down to the
global minimizer set.  The boundary of ``D0`` supports a closed-form shrink
rate, checked here against a root-finding measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .nmd import NascentMD
from .objective import evaluate_batch, gradient
from .region import GridMesh, _as_points


class MeshMismatchError(ValueError):
    """Containment requires identical mesh layout on both sides."""


class NearCriticalPointError(ValueError):
    """Shrink rate undefined where the objective gradient vanishes."""


class BracketingError(RuntimeError):
    """No density level crossing found within the search bracket."""


class BasinError(ValueError):
    """Basin balls overlap or touch the region boundary."""


class SetKind(str, Enum):
    DF = "Df"
    DTAU = "Dtau"
    D0 = "D0"


@dataclass(frozen=True)
class SignificantSet:
    kind: SetKind
    k: float
    mesh: GridMesh
    mask: np.ndarray
    measure: float
    threshold: float
    source: NascentMD


@dataclass(frozen=True)
class BasinReport:
    minimizers: list[np.ndarray]
    radius: float
    masses: list[float]
    k: float


def extract_set(m: NascentMD, kind: SetKind, mesh: GridMesh) -> SignificantSet:
    """Mask of the set's defining inequality on the mesh nodes.

    Inequalities are inclusive; threshold ties are members, so comparisons
    carry a machine-precision slack (exact ties such as m^(0) = 1/mu land a
    few ulps off after the log-domain round trip).  f is read from
    ``m.mesh_values(mesh)``, which evaluates a mesh once for the density family.
    """
    kind = SetKind(kind)
    f, tau = m.mesh_values(mesh), m.resolved_tau()
    if kind is SetKind.DF:
        thr = m.expect_f().value
        tie = 1e-12 * max(1.0, abs(thr))
        mask = f <= thr + tie
    elif kind is SetKind.DTAU:
        log_thr = m.log_expect_tau().value
        tie = 1e-12 * max(1.0, abs(log_thr))
        mask = tau.log_tau(f) >= log_thr - tie
        thr = float(np.exp(log_thr))
    else:
        mu = m.region_measure()
        thr = 1.0 / mu
        log_thr = -np.log(mu)
        tie = 1e-12 * max(1.0, abs(log_thr), abs(m.log_Z()))
        mask = tau.log_tau(f, m.k) - m.log_Z() >= log_thr - tie
    return SignificantSet(
        kind=kind, k=m.k, mesh=mesh, mask=mask,
        measure=float(mesh.cell_volume * np.count_nonzero(mask)),
        threshold=float(thr), source=m,
    )


def containment_check(inner: SignificantSet, outer: SignificantSet) -> tuple[bool, int]:
    """True iff every node of the inner mask is in the outer mask."""
    if not inner.mesh.same_layout(outer.mesh):
        raise MeshMismatchError("sets live on different mesh layouts")
    violations = int(np.count_nonzero(inner.mask & ~outer.mask))
    return violations == 0, violations


def equivalence_check_dtau(m: NascentMD, mesh: GridMesh) -> int:
    """Nodes where [tau >= E^(k)(tau)] disagrees with [m^(k+1) >= m^(k)].

    The two conditions are analytically the same set; disagreements are only
    counted outside a band of twice the threshold's integrator error.
    """
    lt = m.resolved_tau().log_tau(m.mesh_values(mesh))
    thr_a = m.log_expect_tau()
    log_thr_b = m.with_k(m.k + 1.0).log_Z() - m.log_Z()
    band = 2.0 * thr_a.error
    cond_a = lt >= thr_a.value
    cond_b = lt >= log_thr_b
    decisive = (np.abs(lt - thr_a.value) > band) & (np.abs(lt - log_thr_b) > band)
    return int(np.count_nonzero((cond_a != cond_b) & decisive))


def _gap(m: NascentMD, f: np.ndarray) -> np.ndarray:
    """log m^(k) - log(1/mu), the gap to the D0 level, from f as ``log_density`` forms it."""
    return m.resolved_tau().log_tau(f, m.k) - m.log_Z() + np.log(m.region_measure())


def _level_crossing(m: NascentMD, x0, v, lo, hi):
    """Per row, (t, gap, point, f) at t in [lo, hi] where m^(k)(x0 + t v) meets 1/mu.

    Each end is a triple (t, point, f) whose gaps have opposite signs or a zero; the
    point is the one the caller evaluated, which x0 + t v need not equal bit for bit.
    Illinois false position (Dowell & Jarratt, BIT 11, 1971) steps the rows whose gap
    at t is non-zero and bracket wider than brentq's 1e-15 + 8.9e-16 |t|: on a sign
    change s takes t's end, and t takes the step's.  A step onto a held end, bit for
    bit, takes its f (so an end on the level comes back as passed); f is evaluated,
    in one batch, only at the other rows' steps.
    """
    (s, xs, f_s), (t, xt, f_t) = lo, hi
    s, t = (np.array(np.broadcast_to(e, len(x0)), dtype=float) for e in (s, t))
    xs, f_s, xt, f_t = (np.array(e, dtype=float) for e in (xs, f_s, xt, f_t))
    fs, ft = _gap(m, f_s), _gap(m, f_t)  # fs is halved by Illinois, f_s keeps the truth
    live = np.arange(len(t))
    for _ in range(100):
        wide = np.abs(t[live] - s[live]) >= 1e-15 + 8.9e-16 * np.abs(t[live])
        live = live[wide & (ft[live] != 0.0)]
        if live.size == 0:
            return t, ft, xt, f_t
        c = t[live] - ft[live] * (t[live] - s[live]) / (ft[live] - fs[live])
        xc = x0[live] + c[:, None] * v[live]
        on_s, on_t = (np.all(xc.view(np.int64) == x[live].view(np.int64), axis=1)
                      for x in (xs, xt))
        fc = np.where(on_t, f_t[live], f_s[live])
        new = ~(on_s | on_t)
        if np.any(new):
            fc[new] = evaluate_batch(m.objective, xc[new])
        gc = _gap(m, fc)
        flip = gc * ft[live] < 0.0
        j = live[flip]
        s[j], fs[j], xs[j], f_s[j] = t[j], ft[j], xt[j], f_t[j]
        fs[live[~flip]] *= 0.5  # same side twice: halve the retained end
        t[live], ft[live], xt[live], f_t[live] = c, gc, xc, fc
    raise RuntimeError(f"level crossing at k = {m.k:g} did not converge in 100 steps "
                       f"on the line from x = {x0[live[0]]}")


# the benchmark tracer counts and times root solves under this name
brentq = _level_crossing


def boundary_points(sset: SignificantSet) -> list[np.ndarray]:
    """Discrete boundary of D0, refined onto the exact density level set.

    Solves the level crossing on every lattice edge whose member ends straddle
    the set (axis by axis, row-major) and keeps |m^(k)(x) * mu - 1| <= 1e-10.
    """
    return list(_boundary_points(sset)[0])


def _boundary_points(sset: SignificantSet) -> tuple[np.ndarray, np.ndarray]:
    """``boundary_points`` as an (n, dim) array, and f at each point.

    Each straddling edge whose end gaps have opposite signs or a zero is solved
    from its nodes with their f from ``m.mesh_values``, so f is evaluated only
    between nodes, once per point; a node on the level keeps its mesh f.
    """
    if sset.kind is not SetKind.D0:
        raise ValueError("boundary extraction is defined for D0 sets only")
    m, member = sset.source, sset.mesh.lattice_mask
    inside, f = np.zeros(member.shape, dtype=bool), np.zeros(member.shape)
    inside[member], f[member] = sset.mask, m.mesh_values(sset.mesh)
    ends = []  # lattice indices of the straddling edges' ends, axis by axis
    for d, step in enumerate(np.eye(member.ndim, dtype=int)):
        both = np.delete(member, -1, axis=d) & np.delete(member, 0, axis=d)
        ix = np.argwhere(both & np.diff(inside, axis=d))  # bool diff: the ends differ
        ends.append((ix, ix + step))
    ia, ib = map(np.concatenate, zip(*ends))
    a, b = (np.stack([ax[ix[:, j]] for j, ax in enumerate(sset.mesh.axes)], axis=1)
            for ix in (ia, ib))
    fa, fb = f[tuple(ia.T)], f[tuple(ib.T)]
    e = np.sign(_gap(m, fa)) * np.sign(_gap(m, fb)) <= 0.0  # opposite signs, or a zero
    _, gap, x, fx = brentq(m, a[e], (b - a)[e], (0.0, a[e], fa[e]), (1.0, b[e], fb[e]))
    on_level = np.abs(np.expm1(gap)) <= 1e-10
    return x[on_level], fx[on_level]


def _gradients(m: NascentMD, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """grad f per row and its norm (a BLAS dot, as np.linalg.norm of one row)."""
    g = gradient(m.objective, pts)
    return g, np.sqrt(np.vecdot(g, g))


def _require_slope(m: NascentMD, pts: np.ndarray, gn: np.ndarray) -> np.ndarray:
    """The gradient norms at ``pts``, unless one vanishes: NearCriticalPointError."""
    if np.any(gn < 1e-8):
        raise NearCriticalPointError(f"gradient vanishes at x = {pts[np.argmax(gn < 1e-8)]} "
                                     f"(k = {m.k:g}); shrink rate undefined")
    return gn


def shrink_rate_theoretical(m: NascentMD, x):
    """Limiting boundary speed |dx|/dk at a point (or each row of a batch) of
    the D0 boundary: |descent_rate| / |grad f(x)|.

    For exponential tau this is |E^(k)(f) - f(x)| / (k |grad f(x)|).
    """
    pts, single = _as_points(x, m.region.dim)
    rate = np.abs(descent_rate(m, pts)) / _require_slope(m, pts, _gradients(m, pts)[1])
    return float(rate[0]) if single else rate


def solve_boundary_move(m: NascentMD, x, delta_k: float):
    """Signed step t and unit direction d with m^(k+dk)(x + t d) on the level,
    for a point or each row of a batch.

    The level set of the density moves along the objective gradient to first
    order, so the root is searched on the line through x with direction
    d = grad f / |grad f|.  Twice the Newton step of the gap at t = 0, from f
    and |grad f| at x, gives t1; a row whose gap changes sign on [0, t1] is
    solved there.  Any other row falls back to a 65-point scan over 10x the
    predicted move on both sides, which brackets the sign change nearest t = 0.
    """
    if not m.k + delta_k > m.k:
        raise ValueError(f"delta_k = {delta_k} must be positive and change k = {m.k}")
    pts, single = _as_points(x, m.region.dim)
    t_root, d = _boundary_move(m, pts, m.objective(pts), *_gradients(m, pts), delta_k)
    return (float(t_root[0]), d[0]) if single else (t_root, d)


def _boundary_move(m: NascentMD, pts: np.ndarray, f: np.ndarray, g: np.ndarray,
                   gn: np.ndarray, delta_k: float):
    """``solve_boundary_move`` on the rows of ``pts`` from f, grad f and |grad f|
    there, for a positive ``delta_k`` that changes k.  The root solve holds each
    bracket end at the point evaluated for it: ``pts`` itself, the point at t1,
    or a scan point.  A failure names the first failing point and k + delta_k."""
    m2, tau = m.with_k(m.k + delta_k), m.resolved_tau()
    d = g / _require_slope(m2, pts, gn)[:, None]
    lo, g_lo = np.zeros(len(pts)), _gap(m2, f)
    hi = -2.0 * g_lo / (m2.k * tau.dlog_tau_df(f) * gn)  # the divisor: the gap's slope at 0
    x_lo, f_lo, x_hi = pts.copy(), f.copy(), pts + hi[:, None] * d
    f_hi = evaluate_batch(m.objective, x_hi)
    miss = ~(g_lo * _gap(m2, f_hi) < 0.0)
    if np.any(miss):
        t_max = 10.0 * (np.abs(_descent_rate(m, f[miss])) / gn[miss]) * delta_k
        ts = np.linspace(-t_max, t_max, 65)  # one column per point
        scan = pts[miss] + ts[:, :, None] * d[miss]
        f_scan = np.broadcast_to(f[miss], ts.shape).copy()  # t = 0 lands on the point itself
        fresh = np.any(scan.view(np.int64) != pts[miss].view(np.int64), axis=2)
        f_scan[fresh] = evaluate_batch(m.objective, scan[fresh])
        vals = _gap(m2, f_scan)
        crosses = np.sign(vals[:-1]) * np.sign(vals[1:]) < 0
        found = np.any(crosses, axis=0)
        if not np.all(found):
            raise BracketingError(f"no level crossing at k = {m2.k:g} within 10x the "
                                  f"predicted move from x = {pts[miss][np.argmin(found)]}")
        near = np.where(crosses, np.minimum(np.abs(ts[:-1]), np.abs(ts[1:])), np.inf)
        i, cols = np.argmin(near, axis=0), np.arange(ts.shape[1])
        lo[miss], x_lo[miss], f_lo[miss] = ts[i, cols], scan[i, cols], f_scan[i, cols]
        hi[miss], x_hi[miss], f_hi[miss] = ts[i + 1, cols], scan[i + 1, cols], f_scan[i + 1, cols]
    return brentq(m2, pts, d, (lo, x_lo, f_lo), (hi, x_hi, f_hi))[0], d


def shrink_rate_empirical(m: NascentMD, x, delta_k: float):
    """Measured boundary displacement per unit k: |t| / delta_k from the
    root-found level crossing of m^(k+dk) along the gradient direction."""
    t_root, _ = solve_boundary_move(m, x, delta_k)
    return abs(t_root) / delta_k


def descent_rate(m: NascentMD, x):
    """Limiting objective decrease per unit k as the D0 boundary moves inward,
    at a point or each row of a batch: (E^(k)(log tau) - log tau(x)) / (k |d log tau/df|).

    Exponential tau: (f(x) - E^(k)(f)) / k.
    """
    pts, single = _as_points(x, m.region.dim)
    rate = _descent_rate(m, m.objective(pts))
    return float(rate[0]) if single else rate


def _descent_rate(m: NascentMD, f: np.ndarray) -> np.ndarray:
    """``descent_rate`` from f at the points."""
    tau = m.resolved_tau()
    return (m.expect_log_tau() - tau.log_tau(f)) / (m.k * np.abs(tau.dlog_tau_df(f)))


def basin_masses(m: NascentMD, minimizers, radius: float) -> BasinReport:
    """Density mass inside disjoint balls around the given minimizers."""
    if not (np.isfinite(radius) and radius > 0):
        raise BasinError(f"basin radius must be finite and positive, got {radius}")
    centers = [np.atleast_1d(np.asarray(c, dtype=float)) for c in minimizers]
    for c in centers:
        if c.shape[0] != m.region.dim:
            raise BasinError("minimizer dimension mismatch")
        if np.any(c - radius < m.region.lower) or np.any(c + radius > m.region.upper):
            raise BasinError(f"ball around {c} touches the region boundary")
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            if np.linalg.norm(centers[i] - centers[j]) <= 2.0 * radius:
                raise BasinError("basin balls overlap")
    masses = [m.expectation(lambda p, c=c: np.linalg.norm(p - c, axis=1) <= radius).value
              for c in centers]
    return BasinReport(minimizers=centers, radius=radius, masses=masses, k=m.k)
