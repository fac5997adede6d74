import contextlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import oracles  # noqa: E402
from mdopt import nmd  # noqa: E402
from mdopt.nmd import CLIP, NascentMD  # noqa: E402
from mdopt.objective import catalog_get  # noqa: E402
from mdopt.region import CompactRegion, GridMesh  # noqa: E402


@pytest.fixture
def level_meshes(monkeypatch):
    """The resolution of every mesh that the density engine hands ``evaluate_batch``."""
    meshes, evaluate_batch = [], nmd.evaluate_batch

    def spy(obj, xs):
        if isinstance(xs, GridMesh):
            meshes.append(xs.resolution)
        return evaluate_batch(obj, xs)
    monkeypatch.setattr(nmd, "evaluate_batch", spy)
    return meshes


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
    k log tau, where k log tau more than ``nmd.CLIP`` below its max weighs exactly 0.
    A cut holds its own f."""
    def weights(m, i):
        sub = m._support(i)
        a = m.resolved_tau().log_tau(sub.f, m.k)
        top = m.k * sub.log_tau_max
        e = np.where(a < top - CLIP, 0.0, np.exp(np.maximum(a, top - CLIP) - top))
        return sub, e / np.sum(e)
    return weights


@pytest.fixture(scope="session")
def quarter_walks():
    """A context manager that spies on ``NascentMD._reduce``, the one walk over a level,
    and yields the list of its walks as (density, level, whether the level is the cut
    made at the density's k).  On exit it checks that every walk that clips, k log tau
    more than CLIP below its max somewhere, weighs more than a quarter of its nodes:
    a pass that would weigh fewer cuts its support first and walks the cut."""
    @contextlib.contextmanager
    def spy():
        walks, reduce = [], NascentMD._reduce

        def spy_reduce(self, level, *args, **kwargs):
            cut = any(k0 == self.k and sub is level
                      for k0, sub in self._shared["support"].values())
            walks.append((self, level, cut))
            return reduce(self, level, *args, **kwargs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(NascentMD, "_reduce", spy_reduce)
            yield walks
        for m, level, _ in walks:
            top = m.k * level.log_tau_max
            if m.k * level.log_tau_min < top - CLIP:
                weighed = np.count_nonzero(m.resolved_tau().log_tau(level.f, m.k) >= top - CLIP)
                assert 4 * weighed > level.size, (m.k, weighed, level.size)
    return spy
