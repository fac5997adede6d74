"""Independent brute-force oracles for the test suite.

These routines never touch the library's density or quadrature code paths:
minima come from dense grids plus trisection, expectations from direct
max-shifted midpoint sums.  The frozen constants below were produced by
``regenerate()`` at the stated resolutions.
"""

import numpy as np


def trisect(fn, a: float, b: float, iters: int = 200) -> float:
    """Trisection refinement of a unimodal bracket."""
    for _ in range(iters):
        m1, m2 = a + (b - a) / 3.0, b - (b - a) / 3.0
        if fn(m1) < fn(m2):
            b = m2
        else:
            a = m1
    return 0.5 * (a + b)


def brute_min_1d(fn, a: float, b: float, n: int = 10**6) -> tuple[float, float]:
    """(x*, f*) by dense grid then trisection around the best node."""
    xs = np.linspace(a, b, n)
    vals = fn(xs)
    i = int(np.argmin(vals))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, n - 1)]
    x = trisect(lambda t: float(fn(np.array([t]))[0]), lo, hi)
    return x, float(fn(np.array([x]))[0])


def brute_min_nd(fn, lower, upper, n_axis: int = 201, zooms: int = 12):
    """(x*, f*) by repeated grid zoom; fn takes an (N, dim) array."""
    lower = np.asarray(lower, float).copy()
    upper = np.asarray(upper, float).copy()
    dim = lower.shape[0]
    for _ in range(zooms):
        axes = [np.linspace(lower[d], upper[d], n_axis) for d in range(dim)]
        grid = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grid], axis=1)
        vals = fn(pts)
        best = pts[int(np.argmin(vals))]
        span = (upper - lower) / 10.0
        lower = np.maximum(lower, best - span)
        upper = np.minimum(upper, best + span)
    center = 0.5 * (lower + upper)
    return center, float(fn(center[None, :])[0])


def gibbs_expect_1d(fn, a: float, b: float, k: float, n: int = 10**6,
                    h=None) -> float:
    """E of h under the exp(-k f) density by direct midpoint summation."""
    x = (np.arange(n) + 0.5) * (b - a) / n + a
    fv = fn(x)
    e = -k * fv
    w = np.exp(e - e.max())
    hv = fv if h is None else h(x)
    return float(np.sum(hv * w) / np.sum(w))


def gibbs_var_1d(fn, a: float, b: float, k: float, n: int = 10**6) -> float:
    ef = gibbs_expect_1d(fn, a, b, k, n)
    ef2 = gibbs_expect_1d(fn, a, b, k, n, h=lambda x: fn(x) ** 2)
    return ef2 - ef ** 2


def midpoint_1d(fn, a: float, b: float, n: int = 10**7) -> float:
    x = (np.arange(n) + 0.5) * (b - a) / n + a
    return float(np.mean(fn(x)) * (b - a))


def log_space_set_masks(f, k: float, ef: float, log_e_tau: float, log_Z: float,
                        mu: float, L: float | None = None, p: float | None = None) -> dict:
    """The three significant-set masks on node values f as inequalities in log tau,
    with their tie slacks: Df f <= E f, Dtau log tau >= log E tau, and D0
    k log tau - log Z >= -log mu.  tau is exp(-f), or 1/(f - L + p) when L is given;
    k log tau is formed as the density engine forms it, log(f - L + p) * -k."""
    def log_tau(k):
        return f * -k if L is None else np.log(f - L + p) * -k
    log_thr = -np.log(mu)
    return {
        "Df": f <= ef + 1e-12 * max(1.0, abs(ef)),
        "Dtau": log_tau(1.0) >= log_e_tau - 1e-12 * max(1.0, abs(log_e_tau)),
        "D0": (log_tau(k) - log_Z
               >= log_thr - 1e-12 * max(1.0, abs(log_thr), abs(log_Z))),
    }


def _paper1d(x):
    return np.cos(x ** 2) + x / 5.0 + 1.0


# frozen from regenerate(): brute_min_1d at n=1e6, gibbs_* at n=1e7,
# midpoint_1d at n=1e7, brute_min_nd at n_axis=201
PAPER1D_XSTAR = 1.7563098511326127
PAPER1D_FSTAR = 0.3528842284599585
PAPER1D_INT_F = 8.111466766396445
PAPER1D_EF = {1.0: 1.15519934420214, 3.0: 0.6667649900732544, 9.0: 0.42874944393876335}
PAPER1D_VARF = {1.0: 0.4113570134148816, 3.0: 0.1193105360461339, 9.0: 0.012046933570586033}
PAPER2D_XSTAR = (1.7563098506465167, 1.7563098506465167)
PAPER2D_FSTAR = 0.705768456919917


def regenerate() -> dict:
    """Recompute every frozen constant; used to audit the literals above."""
    xs, fs = brute_min_1d(_paper1d, 0.0, 5.0)
    out = {"PAPER1D_XSTAR": xs, "PAPER1D_FSTAR": fs,
           "PAPER1D_INT_F": midpoint_1d(_paper1d, 0.0, 5.0)}
    out["PAPER1D_EF"] = {k: gibbs_expect_1d(_paper1d, 0.0, 5.0, k, n=10**7)
                         for k in (1.0, 3.0, 9.0)}
    out["PAPER1D_VARF"] = {k: gibbs_var_1d(_paper1d, 0.0, 5.0, k, n=10**7)
                           for k in (1.0, 3.0, 9.0)}

    def f2(p):
        return (np.cos(p[:, 0] ** 2) + np.cos(p[:, 1] ** 2)
                + p[:, 0] / 5.0 + p[:, 1] / 5.0 + 2.0)
    x2, fs2 = brute_min_nd(f2, [0.0, 0.0], [3.5, 3.5])
    out["PAPER2D_XSTAR"] = tuple(x2)
    out["PAPER2D_FSTAR"] = fs2
    return out
