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
from scipy.optimize import brentq

from .nmd import NascentMD
from .objective import gradient
from .region import GridMesh


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
    few ulps off after the log-domain round trip).  f comes from the density's
    finest level when the mesh has that level's layout.
    """
    kind = SetKind(kind)
    f = m.mesh_f(mesh)
    if kind is SetKind.DF:
        thr = m.expect_f().value
        tie = 1e-12 * max(1.0, abs(thr))
        mask = f <= thr + tie
    elif kind is SetKind.DTAU:
        log_thr, _ = m.log_expect_tau()
        tie = 1e-12 * max(1.0, abs(log_thr))
        mask = m.resolved_tau().log_tau(f) >= log_thr - tie
        thr = float(np.exp(log_thr))
    else:
        mu = m.region_measure()
        thr = 1.0 / mu
        log_thr = -np.log(mu)
        tie = 1e-12 * max(1.0, abs(log_thr), abs(m.log_Z()))
        mask = m.k * m.resolved_tau().log_tau(f) - m.log_Z() >= log_thr - tie
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
    lt = m.resolved_tau().log_tau(m.mesh_f(mesh))
    log_thr_a, err_tau = m.log_expect_tau()
    m_next = m.with_k(m.k + 1.0)
    log_thr_b = m_next.log_Z() - m.log_Z()
    # error on the tau scale converts to a log-band by dividing by E(tau)
    band = 2.0 * err_tau / max(np.exp(log_thr_a), np.finfo(float).tiny)
    cond_a = lt >= log_thr_a
    cond_b = lt >= log_thr_b
    decisive = (np.abs(lt - log_thr_a) > band) & (np.abs(lt - log_thr_b) > band)
    return int(np.count_nonzero((cond_a != cond_b) & decisive))


def boundary_points(sset: SignificantSet, rel_tol: float = 1e-10) -> list[np.ndarray]:
    """Discrete boundary of D0, refined onto the exact density level set.

    Finds lattice edges whose endpoints straddle the uniform density level and
    bisects each edge until |m^(k)(x) * mu - 1| <= rel_tol.
    """
    if sset.kind is not SetKind.D0:
        raise ValueError("boundary extraction is defined for D0 sets only")
    m = sset.source
    mesh = sset.mesh
    mu = m.region_measure()
    log_level = -np.log(mu)

    shape = mesh.resolution
    member = mesh.lattice_mask
    lattice_mask = np.zeros(shape, dtype=bool)
    lattice_mask[member] = sset.mask
    idx = np.argwhere(member)
    # lattice index -> coordinates
    axes = mesh.axes

    def node_at(ix):
        return np.array([axes[d][ix[d]] for d in range(len(shape))])

    def log_gap(x):
        return m.log_density(x) - log_level

    points: list[np.ndarray] = []
    for d in range(len(shape)):
        sl_a = [slice(None)] * len(shape)
        sl_b = [slice(None)] * len(shape)
        sl_a[d] = slice(0, shape[d] - 1)
        sl_b[d] = slice(1, shape[d])
        both_member = member[tuple(sl_a)] & member[tuple(sl_b)]
        differs = lattice_mask[tuple(sl_a)] != lattice_mask[tuple(sl_b)]
        for ix in np.argwhere(both_member & differs):
            a = node_at(ix)
            ixb = ix.copy()
            ixb[d] += 1
            b = node_at(ixb)
            ga, gb = log_gap(a), log_gap(b)
            if ga == 0.0:
                points.append(a)
                continue
            if gb == 0.0 or ga * gb > 0:
                if gb == 0.0:
                    points.append(b)
                continue
            t = brentq(lambda s: log_gap(a + s * (b - a)), 0.0, 1.0,
                       xtol=1e-15, rtol=8.9e-16)
            x = a + t * (b - a)
            if abs(np.expm1(log_gap(x))) <= rel_tol:
                points.append(x)
    return points


def _tau_at(m: NascentMD, x) -> tuple[float, float]:
    """(log tau(x), d log tau/df at x) for a single point."""
    tau = m.resolved_tau()
    f = m.objective(x)
    return tau.log_tau(f), tau.dlog_tau_df(f)


def shrink_rate_theoretical(m: NascentMD, x) -> float:
    """Limiting boundary speed |dx|/dk at a point of the D0 boundary:
    |E^(k)(log tau) - log tau(x)| / (k |d log tau/df| |grad f(x)|).

    For exponential tau this is |E^(k)(f) - f(x)| / (k |grad f(x)|).
    """
    g = gradient(m.objective, x)
    gn = np.linalg.norm(g)
    if gn < 1e-8:
        raise NearCriticalPointError("gradient vanishes; shrink rate undefined")
    lt, dlt = _tau_at(m, x)
    return abs(m.expect_log_tau().value - lt) / (m.k * abs(dlt) * gn)


def solve_boundary_move(m: NascentMD, x, delta_k: float) -> tuple[float, np.ndarray]:
    """Signed step t and unit direction d with m^(k+dk)(x + t d) on the level.

    The level set of the density moves along the objective gradient to first
    order, so the root is searched on the line through x with direction
    grad f / |grad f|, bracketed by 10x the predicted move on both sides.
    """
    if delta_k <= 0:
        raise ValueError("delta_k must be positive")
    g = gradient(m.objective, x)
    gn = np.linalg.norm(g)
    if gn < 1e-8:
        raise NearCriticalPointError("gradient vanishes; shrink rate undefined")
    d = g / gn
    t_max = 10.0 * shrink_rate_theoretical(m, x) * delta_k
    m2 = m.with_k(m.k + delta_k)
    log_level = -np.log(m.region_measure())

    def gap(t):
        return m2.log_density(x + t * d) - log_level

    ts = np.linspace(-t_max, t_max, 65)
    vals = np.array([gap(t) for t in ts])
    sign_change = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    if sign_change.size == 0:
        raise BracketingError("no level crossing within 10x the predicted move")
    # take the crossing nearest t = 0
    i = sign_change[np.argmin(np.minimum(np.abs(ts[sign_change]),
                                         np.abs(ts[sign_change + 1])))]
    t_root = brentq(gap, ts[i], ts[i + 1], xtol=1e-15, rtol=8.9e-16)
    return float(t_root), d


def shrink_rate_empirical(m: NascentMD, x, delta_k: float) -> float:
    """Measured boundary displacement per unit k: |t| / delta_k from the
    root-found level crossing of m^(k+dk) along the gradient direction."""
    t_root, _ = solve_boundary_move(m, x, delta_k)
    return abs(t_root) / delta_k


def descent_rate(m: NascentMD, x) -> float:
    """Limiting objective decrease per unit k as the D0 boundary moves inward:
    (E^(k)(log tau) - log tau(x)) / (k |d log tau/df|).

    Exponential tau: (f(x) - E^(k)(f)) / k.
    """
    lt, dlt = _tau_at(m, x)
    return (m.expect_log_tau().value - lt) / (m.k * abs(dlt))


def basin_masses(m: NascentMD, minimizers, radius: float) -> BasinReport:
    """Density mass inside disjoint balls around the given minimizers."""
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
    levels = m._levels()
    nodes = levels[-1]["nodes"]
    w = m._weights(len(levels) - 1)
    masses = []
    for c in centers:
        inside = np.linalg.norm(nodes - c, axis=1) <= radius
        masses.append(float(np.sum(w[inside])))
    return BasinReport(minimizers=centers, radius=radius, masses=masses, k=m.k)
