import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import oracles  # noqa: E402
from mdopt.objective import catalog_get  # noqa: E402
from mdopt.region import CompactRegion  # noqa: E402


@pytest.fixture(scope="session")
def paper1d_oracle():
    """(x*, f*) for paper1d, recomputed by the brute-force routine."""
    xs, fs = oracles.brute_min_1d(lambda x: np.cos(x ** 2) + x / 5.0 + 1.0, 0.0, 5.0)
    assert abs(xs - oracles.PAPER1D_XSTAR) < 1e-9
    assert abs(fs - oracles.PAPER1D_FSTAR) < 1e-12
    return xs, fs


@pytest.fixture(scope="session")
def paper2d_oracle():
    """(x*, f*) for paper2d, recomputed by the zooming grid search."""
    def f2(p):
        return (np.cos(p[:, 0] ** 2) + np.cos(p[:, 1] ** 2)
                + p[:, 0] / 5.0 + p[:, 1] / 5.0 + 2.0)
    x2, fs2 = oracles.brute_min_nd(f2, [0.0, 0.0], [3.5, 3.5])
    assert abs(fs2 - oracles.PAPER2D_FSTAR) < 1e-10
    return x2, fs2


@pytest.fixture(scope="session")
def paper2d_disk():
    """paper2d's objective on the disk of radius 0.7 about its box's centre: of the
    four slabs of BLOCK_ROWS lattice points at 256^2, the first and last hold no member."""
    obj, region = catalog_get("paper2d")
    centre = (region.lower + region.upper) / 2.0
    return obj, CompactRegion(region.lower, region.upper,
                              (lambda p: 0.49 - np.sum((p - centre) ** 2, axis=1),))


@pytest.fixture(scope="session")
def support_weights():
    """A map from a density m and a level index i to ``m._support(i)`` and the dense
    weights over its nodes that the blocked pass sums without forming: softmax of
    k log tau, where k log tau more than 650 below its max weighs exactly 0."""
    def weights(m, i):
        sub = m._support(i)
        a = m.resolved_tau().log_tau(sub.f, m.k)
        top = m.k * sub.log_tau_max
        e = np.where(a < top - 650.0, 0.0, np.exp(np.maximum(a, top - 650.0) - top))
        return sub, e / np.sum(e)
    return weights
