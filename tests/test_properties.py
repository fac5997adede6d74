"""Property tests of the paper's invariants on random smooth 1-d objectives.

Over both rungs of the density's node set: E^(k)(f) is non-increasing in k
and never below the smallest node value of f, and each of the three significant
set families (Df, Dtau, D0) is nested in k.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mdopt.integrate import IntegratorConfig, softmax  # noqa: E402
from mdopt.nmd import Exponential, NascentMD, Rational  # noqa: E402
from mdopt.objective import Objective  # noqa: E402
from mdopt.region import box  # noqa: E402
from mdopt.sets import SetKind, containment_check, extract_set  # noqa: E402

KS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0, 1024.0)

terms = st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.5, 8.0),
                           st.floats(0.0, 2.0 * np.pi)), min_size=1, max_size=4)
densities = st.fixed_dictionaries({
    "terms": terms,
    "q": st.floats(0.0, 2.0),
    "tau": st.sampled_from([Exponential(), Rational(p=1.0), Rational(p=0.1)]),
    "res": st.sampled_from([64, 256, 1024]),
})
SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)


def _density(terms, q, tau, res) -> NascentMD:
    """m^(k) of f(x) = sum a cos(b x + c) + q x^2 on [-1, 2]."""
    def fn(p):
        x = p[:, 0]
        return sum(a * np.cos(b * x + c) for a, b, c in terms) + q * x ** 2
    obj = Objective(name="random_smooth", dim=1, fn=fn)
    return NascentMD(obj, box(-1.0, 2.0), tau=tau,
                     integrator=IntegratorConfig(kind="grid", resolution=res))


def _slack(v) -> float:
    return 1e-12 * max(1.0, abs(v))


@SETTINGS
@given(densities)
def test_expectation_non_increasing_in_k(d):
    m = _density(**d)
    levels = m.levels()
    assert len(levels) == 2
    for lv in levels:
        ef = [float(softmax(k * m.resolved_tau().log_tau(lv.f)) @ lv.f) for k in KS]
        for a, b in zip(ef, ef[1:]):
            assert b <= a + _slack(a)
    finest = [m.with_k(k).expect_f().value for k in KS]
    assert finest == pytest.approx(ef, rel=1e-12, abs=1e-12)


@SETTINGS
@given(densities)
def test_expectation_above_node_minimum(d):
    m = _density(**d)
    for lv in m.levels():
        fmin = float(np.min(lv.f))
        for k in KS:
            assert float(softmax(k * m.resolved_tau().log_tau(lv.f)) @ lv.f) >= fmin - _slack(fmin)
    fmin = float(np.min(m.levels()[-1].f))
    assert all(m.with_k(k).expect_f().value >= fmin - _slack(fmin) for k in KS)


@pytest.mark.parametrize("kind", list(SetKind), ids=lambda kind: kind.value)
@SETTINGS
@given(d=densities)
def test_sets_nested(kind, d):
    m = _density(**d)
    for lv in m.levels():
        sets = [extract_set(m.with_k(k), kind, lv.mesh) for k in KS]
        for inner, outer in zip(sets[1:], sets):
            ok, violations = containment_check(inner, outer)
            assert ok, (inner.k, outer.k, violations)


@SETTINGS
@given(d=densities, ks=st.permutations(KS))
def test_support_expectation_matches_dense_in_any_k_order(quarter_walks, d, ks):
    """E f on the support of m^(k), each k starting from whatever support the
    previous one left, equals softmax(k log tau) @ f over every finest node, and
    every walk that clips weighs more than a quarter of the nodes it walks."""
    m = _density(**d)
    fine = m.levels()[-1]
    with quarter_walks():
        for k in ks:
            dense = float(softmax(k * m.resolved_tau().log_tau(fine.f)) @ fine.f)
            got = m.with_k(k).expect_f().value
            assert abs(got - dense) <= _slack(dense), k
