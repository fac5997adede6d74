"""k-continuation driver: geometric k ladder, monotone E^(k)(f) trace.

The default growth factor is e, which makes the per-stage boundary shrinkage
roughly k-independent (the shrink rate scales as 1/k, and the integral of
1/s over [k, e*k] is 1).  Stops on small variance, since dE/dk = -Var for the
exponential transform, or on a quadrature-floor stall.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .integrate import IntegratorConfig
from .nmd import Exponential, NascentMD, TauKind
from .objective import Objective
from .region import CompactRegion


@dataclass(frozen=True)
class ContinuationConfig:
    k0: float = 1.0
    growth: float = float(np.e)
    max_stages: int = 16
    var_tol: float = 1e-8
    integrator: Optional[IntegratorConfig] = None
    tau: TauKind = field(default_factory=Exponential)

    def __post_init__(self):
        for name in ("k0", "growth", "var_tol"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.k0 <= 0:
            raise ValueError("k0 must be positive")
        if self.var_tol < 0:
            raise ValueError("var_tol must be non-negative")
        if self.growth <= 1.0:
            raise ValueError("growth must exceed 1")
        if self.max_stages < 1:
            raise ValueError("max_stages must be at least 1")


@dataclass(frozen=True)
class TraceRecord:
    k: float
    Ef: float
    Ef_error: float
    Varf: float
    mean_x: np.ndarray


@dataclass(frozen=True)
class MinimizeResult:
    fstar_estimate: float
    xstar_estimate: np.ndarray
    trace: list[TraceRecord]
    stop_reason: str  # var_tol | max_stages | stalled


def run_continuation(obj: Objective, region: CompactRegion,
                     cfg: ContinuationConfig | None = None) -> MinimizeResult:
    """Anneal k geometrically and record E^(k)(f), Var^(k)(f), mean location.

    x* is the finest level's node of least f, where log tau and so m^(k) are
    largest at every k > 0, the first in mesh order on ties, read from a grid
    mesh's axes (the bits of that node, with no node array built); f* is the last
    stage's E^(k)(f).  A stage that fails with an ArithmeticError or ValueError
    re-raises it with ``stage j (k = ...): `` before its message.
    """
    cfg = cfg or ContinuationConfig()
    md = NascentMD(obj, region, tau=cfg.tau, k=cfg.k0, integrator=cfg.integrator)
    trace: list[TraceRecord] = []
    stop_reason = "max_stages"
    stall = 0
    for j in range(cfg.max_stages):
        try:
            k = cfg.k0 * cfg.growth ** j
        except OverflowError:
            k = np.inf
        if not np.isfinite(k):
            raise OverflowError(f"stage {j}: k = {cfg.k0:g} * {cfg.growth:g}^{j} "
                                "is not a finite float")
        m = md.with_k(k)
        try:
            ef, var, mean_x = m.expect_f(), m.variance_f(), m.mean_location()
        except (ArithmeticError, ValueError) as exc:  # same type and attributes, stage named
            exc.args = (f"stage {j} (k = {k:g}): {exc}",)
            raise
        trace.append(TraceRecord(k=m.k, Ef=ef.value, Ef_error=ef.error, Varf=var.value,
                                 mean_x=mean_x))
        if var.value < cfg.var_tol:
            stop_reason = "var_tol"
            break
        if len(trace) > 1 and trace[-2].Ef - trace[-1].Ef < ef.error:
            stall += 1
            if stall >= 3:
                stop_reason = "stalled"
                break
        else:
            stall = 0
    fine = md.level(1)
    return MinimizeResult(
        fstar_estimate=trace[-1].Ef,
        xstar_estimate=fine.node(int(np.argmin(fine.f))),
        trace=trace,
        stop_reason=stop_reason,
    )
