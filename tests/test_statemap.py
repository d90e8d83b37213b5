"""Moments <-> parameters map, reduced coordinates, and the x inversion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import ngstate
from ngstate import (
    GaussianMoments,
    OperatorParams,
    ReducedState,
    occupation,
    params_from_moments,
    moments_from_params,
    x_from_c4,
)
from ngstate import observables, statemap
from ngstate.coherence import CoherencePair, WignerWidths, overlap_displaced
from ngstate.densmat import PhasePoint, ln_d, u_c_sq
from ngstate.errors import HeisenbergViolation, NonPositiveA, PrecisionLoss, Unreachable
from ngstate.observables import (c4_half_ratio_nx, entropy_per_dof,
                                 purity_limit_large_n)


def test_occupation_basics():
    assert occupation(GaussianMoments(1.0, 1.0, 0.0)) == pytest.approx(0.5, abs=1e-15)
    assert occupation(GaussianMoments(0.5, 0.5, 0.0)) == pytest.approx(0.0, abs=1e-12)
    assert occupation(GaussianMoments(10.5, 10.5, 0.0)) == pytest.approx(10.0, rel=1e-14)
    with pytest.raises(HeisenbergViolation):
        occupation(GaussianMoments(1.0, 0.2, 0.0))
    with pytest.raises(HeisenbergViolation):
        occupation(GaussianMoments(1.0, 1.0, 0.9))
    # F*K overflows: n comes from the scaled form, finite
    assert occupation(GaussianMoments(1e200, 1e200)) == pytest.approx(1e200 - 0.5, rel=1e-15)
    with pytest.raises(HeisenbergViolation):
        occupation(GaussianMoments(1e200, 1e200, 1e200))


def test_moments_validation():
    with pytest.raises(ValueError):
        GaussianMoments(F=-1.0, K=1.0)
    with pytest.raises(ValueError):
        GaussianMoments(F=1.0, K=0.0)


@pytest.mark.parametrize("call", [
    lambda: c4_half_ratio_nx(-1.0, 1.0),
    lambda: c4_half_ratio_nx(math.nan, 1.0),
    lambda: c4_half_ratio_nx(1.0, math.nan),
    lambda: x_from_c4(-1.0, -0.3),
    lambda: x_from_c4(math.nan, -0.3),
    lambda: entropy_per_dof(math.nan),
    lambda: entropy_per_dof(math.inf),
    lambda: purity_limit_large_n(math.nan),
    lambda: purity_limit_large_n(math.inf),
    lambda: params_from_moments(GaussianMoments(1.0, 1.0), math.nan),
    lambda: OperatorParams(A=1.0, B=1.0, C=0.0, eta=math.nan),
    lambda: GaussianMoments(1.0, 1.0, R=math.inf),
    lambda: GaussianMoments(math.inf, 1.0),
    lambda: GaussianMoments(1.0, math.nan),
])
def test_scalar_entry_points_refuse_negative_or_nan(call):
    # a negative n was read as the small-n limit, and NaN or inf passed
    # through to a NaN or inf result or a misleading error
    with pytest.raises(ValueError):
        call()


_ST = ReducedState.from_nx(10.0, 15.0)
_PAIR = CoherencePair(1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("call", [
    lambda: CoherencePair(math.nan, 1.0, 1.0, 1.0),
    lambda: CoherencePair(1.0, 1.0, math.inf, 1.0),
    lambda: WignerWidths(math.inf, 1.0),
    lambda: WignerWidths(1.0, math.inf),
    lambda: overlap_displaced(_PAIR, WignerWidths(1.0, 1.0), math.inf, 4),
    lambda: OperatorParams(A=math.inf, B=1.0, C=0.0, eta=0.0),
    lambda: OperatorParams(A=1.0, B=math.nan, C=0.0, eta=0.0),
    lambda: OperatorParams(A=1.0, B=1.0, C=0.0, eta=math.inf),
    lambda: params_from_moments(GaussianMoments(1.0, 1.0), math.inf),
    lambda: u_c_sq(_ST, -5.0),
    lambda: u_c_sq(_ST, math.nan),
    lambda: ln_d(_ST, PhasePoint(1.0, 1.0), c_coeff=math.nan),
], ids=["pair-nan", "pair-inf", "widths-phi-inf", "widths-pi-inf",
        "displaced-phi0-inf", "params-A-inf", "params-B-nan", "params-eta-inf",
        "from-moments-x-inf", "u_c_sq-negative", "u_c_sq-nan", "ln_d-c-nan"])
def test_last_scalar_entry_points_refuse_non_finite(call):
    # each was accepted and gave an inf or NaN result, or a value for a
    # negative v^2
    with pytest.raises(ValueError):
        call()


def test_params_from_moments_gaussian_point():
    p = params_from_moments(GaussianMoments(1.0, 1.0, 0.0), x=0.0)
    half_ln3 = 0.54930614433405485  # kappa at n = 1/2
    assert p.A == pytest.approx(half_ln3, rel=1e-14)
    assert p.B == pytest.approx(half_ln3, rel=1e-14)
    assert p.C == 0.0
    assert p.eta == 0.0


def test_params_from_moments_quartic_point():
    p = params_from_moments(GaussianMoments(10.5, 10.5, 0.0), x=15.0)
    assert p.eta == pytest.approx(0.068078699860232043, rel=1e-13)
    assert p.A == pytest.approx(10.5 * 0.0045385799906821362, rel=1e-13)


def test_params_from_moments_rejects_pure_boundary():
    with pytest.raises(ValueError):
        params_from_moments(GaussianMoments(0.5, 0.5, 0.0), x=1.0)


def test_operator_params_validation():
    with pytest.raises(NonPositiveA):
        OperatorParams(A=0.0, B=1.0, C=0.0, eta=0.0)
    with pytest.raises(ValueError):
        OperatorParams(A=1.0, B=1.0, C=0.0, eta=-1e-9)


@pytest.mark.parametrize("n", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("x", [0.0, 0.5, 5.0])
def test_roundtrip_moments_params_moments(n, x):
    m = GaussianMoments(F=n + 0.5, K=n + 0.5, R=0.0)
    m2, c4 = moments_from_params(params_from_moments(m, x))
    assert m2.F == pytest.approx(m.F, rel=1e-10)
    assert m2.K == pytest.approx(m.K, rel=1e-10)
    assert abs(m2.R - m.R) < 1e-10 * m.F
    assert c4 == pytest.approx(c4_half_ratio_nx(n, x), rel=1e-9, abs=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=hst.floats(0.01, 100.0), a=hst.floats(-1.0, 1.0),
       b=hst.floats(-1.0, 1.0), x=hst.floats(0.0, 40.0))
def test_roundtrip_property(n, a, b, x):
    # valid (F, K, R) with occupation n: F = (n+1/2) e^a, R = (n+1/2) b;
    # the map goes through one gap solve, good to ~1e-12 relative here
    F, R = (n + 0.5) * math.exp(a), (n + 0.5) * b
    m = GaussianMoments(F=F, K=((n + 0.5) ** 2 + R * R) / F, R=R)
    m2, c4 = moments_from_params(params_from_moments(m, x))
    assert m2.F == pytest.approx(m.F, rel=1e-10)
    assert m2.K == pytest.approx(m.K, rel=1e-10)
    assert abs(m2.R - m.R) <= 1e-10 * m.F
    assert occupation(m2) == pytest.approx(occupation(m), rel=1e-10)
    expected = c4_half_ratio_nx(occupation(m), x) if x > 0 else 0.0
    assert c4 == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_roundtrip_with_cross_correlation():
    m = GaussianMoments(F=2.0, K=1.0, R=0.6)
    m2, _ = moments_from_params(params_from_moments(m, 2.0))
    assert m2.F == pytest.approx(2.0, rel=1e-10)
    assert m2.K == pytest.approx(1.0, rel=1e-10)
    assert m2.R == pytest.approx(0.6, rel=1e-10)


def test_roundtrip_recovers_occupation():
    m = GaussianMoments(F=1.5, K=1.5, R=0.0)  # n = 1
    m2, _ = moments_from_params(params_from_moments(m, 1.0))
    assert occupation(m2) == pytest.approx(1.0, rel=1e-10)


def test_moments_from_params_gaussian_branch():
    p = OperatorParams(A=0.5, B=0.5, C=0.0, eta=0.0)
    m, c4 = moments_from_params(p)
    assert c4 == 0.0
    assert m.F == pytest.approx(m.K, rel=1e-14)
    bad = OperatorParams(A=1.0, B=-0.5, C=0.0, eta=0.0)
    with pytest.raises(ValueError):
        moments_from_params(bad)


def test_reduced_state_identities():
    for n in (0.1, 1.0, 10.0):
        for x in (1e-3, 0.5, 5.0, 15.0):
            st = ReducedState.from_nx(n, x)
            z = math.log1p(1 / n)
            assert st.z_gauss == pytest.approx(z, rel=1e-15)
            assert st.kappa == pytest.approx(z / (2 * n + 1), rel=1e-15)
            assert st.zeta == pytest.approx(1 + 2 * st.kappa * n * (n + 1), rel=1e-15)
            assert st.z0_sq == pytest.approx(z * z * (1 - 2 * x), rel=1e-12, abs=1e-15)
            assert st.z0_sq / st.xi == pytest.approx(
                (1 / st.kappa) * (1 / (2 * x) - 1), rel=1e-12, abs=1e-12)


def test_reduced_state_validation():
    with pytest.raises(ValueError):
        ReducedState.from_nx(0.0, 1.0)
    with pytest.raises(ValueError):
        ReducedState.from_nx(1.0, -0.1)
    with pytest.raises(ValueError):
        ReducedState.from_nx(math.inf, 1.0)


@pytest.mark.parametrize("n,x", [
    (1e308, 0.0),      # kappa = 0
    (1e155, 0.0),      # kappa subnormal
    (1e120, 0.5),      # xi underflows to 0
    (10.0, 5e-324),    # xi underflows to 0
])
def test_reduced_state_refuses_underflow(n, x):
    # purity, ln d and d_surface raised ValueError, ZeroDivisionError or
    # OverflowError on these states
    with pytest.raises(PrecisionLoss):
        ReducedState.from_nx(n, x)


@pytest.mark.parametrize("n,x", [
    (10.0, 1e308),     # 1 - 2x = -inf
    (1e-310, 0.0),     # 1/n = inf, so kappa = inf
])
def test_reduced_state_refuses_overflow(n, x):
    # purity and d_surface ended in a ValueError from specfun on these
    with pytest.raises(PrecisionLoss):
        ReducedState.from_nx(n, x)


def test_moments_params_refuse_underflow():
    # xi = 8 A^2 eta underflowed into a bare ValueError from the solver
    p = params_from_moments(GaussianMoments(F=1e150, K=1e150), 0.5)
    assert p.eta > 0.0 and p.xi == 0.0
    with pytest.raises(PrecisionLoss):
        moments_from_params(p)
    # kappa underflow surfaced as NonPositiveA ("A must be > 0")
    with pytest.raises(PrecisionLoss):
        params_from_moments(GaussianMoments(F=1e155, K=1e155), 0.5)


def test_c4_relation_has_one_home():
    # statemap owns both directions of C4 <-> x; the other names re-export
    for name in ("c4_half_ratio_nx", "c4_ratio_large_n", "c4_ratio_small_n"):
        home = getattr(statemap, name)
        assert home.__module__ == "ngstate.statemap"
        assert getattr(observables, name) is home is getattr(ngstate, name)


def test_x_from_c4_roundtrip_and_window():
    assert x_from_c4(10.0, 0.0) == 0.0
    target = -30.0 / 31.0
    x = x_from_c4(10.0, target)
    assert abs(c4_half_ratio_nx(10.0, x) - target) <= 1e-14
    # the large-n inversion of this target would give exactly 15
    assert 13.0 < x < 17.0
    for n, tgt in [(0.3, -0.2), (1.0, -0.6), (10.0, -0.96)]:
        xr = x_from_c4(n, tgt)
        assert abs(c4_half_ratio_nx(n, xr) - tgt) <= 1e-14


def test_x_from_c4_unreachable_and_invalid():
    with pytest.raises(Unreachable):
        x_from_c4(10.0, -0.99999999999999)
    with pytest.raises(Unreachable):
        x_from_c4(10.0, -1.0)
    with pytest.raises(ValueError):
        x_from_c4(10.0, 0.2)
    with pytest.raises(ValueError):
        x_from_c4(10.0, -1.2)


def test_c4_monotone_decreasing_in_x():
    xs = np.linspace(0.0, 100.0, 201)
    for n in (0.01, 0.1, 1.0, 10.0, 100.0):
        vals = np.array([c4_half_ratio_nx(n, float(x)) for x in xs])
        assert np.all(np.diff(vals) < 0.0), n
