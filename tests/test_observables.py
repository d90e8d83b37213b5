"""Closed-form observables against frozen high-precision references."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ngstate import ReducedState
from ngstate import densmat as dm
from ngstate import observables as obs
from ngstate.errors import PrecisionLoss
from ngstate.statemap import x_from_c4


def test_ln_z_values():
    assert obs.ln_z_per_dof(ReducedState.from_nx(1.0, 0.0)) == pytest.approx(
        0.5 * math.log(2.0), rel=1e-15)
    assert obs.ln_z_per_dof(ReducedState.from_nx(1.0, 4.0)) == pytest.approx(
        2.4260151319598086, rel=1e-14)  # ln sqrt(2) + 3 ln 2
    for n in (0.2, 3.0, 50.0):
        st0 = ReducedState.from_nx(n, 0.0)
        assert obs.ln_z_per_dof(st0) == pytest.approx(
            0.5 * math.log(n * (n + 1)), rel=1e-15)


def test_entropy_values():
    assert obs.entropy_per_dof(0.0) == 0.0
    assert obs.entropy_per_dof(1.0) == pytest.approx(2 * math.log(2), rel=1e-15)
    assert obs.entropy_per_dof(10.0) == pytest.approx(3.3509970708416191, rel=1e-14)
    with pytest.raises(ValueError):
        obs.entropy_per_dof(-0.1)


@pytest.mark.parametrize("n", [1e-300, 1e-16, 1e-8, 0.5, 1.0, 1.5, 1e8, 1e15,
                               1e16, 5e153, 1.7e308])
def test_entropy_against_mpmath(n):
    # (n+1) ln(n+1) - n ln n cancels at large n: 1e16 read 0.0, not 37.84
    with mpmath.workdps(40):
        m = mpmath.mpf(n)
        ref = float(mpmath.log1p(m) + m * mpmath.log1p(1 / m))
    assert obs.entropy_per_dof(n) == pytest.approx(ref, rel=1e-15, abs=0.0)


C4_GOLDEN = [
    (10.0, 0.5, -0.49905564898593116),
    (10.0, 1.0, -0.665491742190107),
    (10.0, 15.0, -0.96626871867987249),
    (1.0, 1.0, -0.61106192104107643),
    (0.1, 5.0, -0.65668173822189521),
    (100.0, 2.0, -0.79998547910986923),
]


@pytest.mark.parametrize("n,x,ref", C4_GOLDEN)
def test_c4_frozen_values(n, x, ref):
    assert obs.c4_half_ratio_nx(n, x) == pytest.approx(ref, rel=1e-13)
    assert obs.c4_ratio(ReducedState.from_nx(n, x)) == pytest.approx(ref, rel=1e-13)


def test_c4_displayed_digits_of_standard_states():
    # the three standard quartic strengths used across the surface figures
    assert abs(abs(obs.c4_half_ratio_nx(10.0, 0.5)) - 0.50) < 0.01
    assert abs(abs(obs.c4_half_ratio_nx(10.0, 1.0)) - 0.67) < 0.01
    assert abs(abs(obs.c4_half_ratio_nx(10.0, 15.0)) - 0.96) < 0.01


def test_c4_exact_points_and_limits():
    assert obs.c4_half_ratio_nx(5.0, 0.0) == 0.0
    # below n = 1e-18 the small-n limit is exact to the last bit; above it
    # the closed form keeps the O(n) term (-0.5 - 8.75e-10 at n = 1e-9)
    assert obs.c4_half_ratio_nx(0.0, 3.0) == obs.c4_half_ratio_nx(1e-19, 3.0) == -0.5
    assert obs.c4_half_ratio_nx(1e-9, 3.0) == pytest.approx(
        _c4_reference(1e-9, 3.0), rel=1e-15, abs=0.0)
    for x in np.linspace(0.05, 30.0, 40):
        big = obs.c4_half_ratio_nx(1e4, float(x))
        assert big == pytest.approx(obs.c4_ratio_large_n(x), rel=1e-3)
        small = obs.c4_half_ratio_nx(1e-6, float(x))
        assert small == pytest.approx(obs.c4_ratio_small_n(x), rel=1e-3)


def test_c4_large_n_limit_past_2x_overflow():
    # -2x/(1+2x) is NaN once 2x overflows; -x/(1/2+x) has its bits elsewhere
    assert obs.c4_ratio_large_n(1e308) == obs.c4_ratio_large_n(1.7976931348623157e308) == -1.0
    for x in np.logspace(-320, 307, 2000):
        assert obs.c4_ratio_large_n(x) == -2.0 * x / (1.0 + 2.0 * x), x


def test_c4_perturbative_dispatch_is_smooth():
    for n in (0.1, 1.0, 10.0):
        # compare per-x slopes so the O(x) trend across x = 1e-6 drops out
        lo = obs.c4_half_ratio_nx(n, 0.9999e-6) / 0.9999e-6
        hi = obs.c4_half_ratio_nx(n, 1.0001e-6) / 1.0001e-6
        assert lo == pytest.approx(hi, rel=1e-4)
        slope = obs.c4_half_ratio_nx(n, 1e-8) / 1e-8
        z = math.log1p(1 / n)
        kappa = z / (2 * n + 1)
        zeta = 1 + 2 * kappa * n * (n + 1)
        pred = -(1 + 2 * n * (n + 1) * (3 * zeta + 2)) / (2 * (2 * n + 1) ** 2)
        assert slope == pytest.approx(pred, rel=1e-6)


def _c4_reference(n, x, dps=50):
    """The closed form at dps digits, where the 0/0 at small x costs nothing
    while log10(1/x) stays well below dps."""
    with mpmath.workdps(dps):
        n, x = mpmath.mpf(n), mpmath.mpf(x)
        if n == 0:
            return float(-x / (1 + x + mpmath.sqrt(1 + x)))
        z = mpmath.log1p(1 / n)
        zeta = 1 + 2 * z / (2 * n + 1) * n * (n + 1)

        def f(y):
            return 1 / (2 * y * mpmath.tanh(y * z))

        bracket = (2 / x) * (f(1) - f(mpmath.sqrt(1 + x))) + (
            zeta ** 2 / (1 + zeta * x) - 1 / (1 + x)) / z
        return float(-(x / (2 * n + 1)) * bracket)


@pytest.mark.parametrize("n", [0.01, 1.0, 10.0, 100.0])
def test_c4_small_x_against_50_digits(n):
    # both sides of x = 1e-6
    xs = [*np.geomspace(1e-9, 1e-3, 25), 0.999e-6, 0.9999999e-6, 1e-6, 1.0000001e-6]
    for x in xs:
        ref = _c4_reference(n, float(x))
        assert obs.c4_half_ratio_nx(n, float(x)) == pytest.approx(ref, rel=1e-9, abs=0.0), x


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=hst.floats(0.01, 100.0), log_x=hst.floats(-9.0, 3.0),
       step=hst.floats(0.0, 0.01))
def test_c4_non_increasing_in_x(n, log_x, step):
    # the second pair straddles x = 1e-6
    for lo, hi in ((10.0 ** log_x, 10.0 ** log_x * (1.0 + step)),
                   (1e-6 * (1.0 - step), 1e-6 * (1.0 + step))):
        c_lo, c_hi = obs.c4_half_ratio_nx(n, lo), obs.c4_half_ratio_nx(n, hi)
        assert c_hi <= c_lo + 1e-9 * abs(c_lo), (lo, hi)


def test_c4_refuses_kappa_underflow():
    # the closed form drifted to -0.167 at n = 1e200 and -0.0 at 1e308
    # (the limit at x = 0.5 is -0.5)
    assert obs.c4_half_ratio_nx(1e150, 0.5) == pytest.approx(-0.5, rel=1e-12)
    for n in (1e155, 1e200, 1e308):
        with pytest.raises(PrecisionLoss):
            obs.c4_half_ratio_nx(n, 0.5)


def test_c4_refuses_zeta_x_overflow():
    # zeta*x overflows at x = 1e308, but zeta/(1 + zeta*x) = 0 then costs
    # nothing: the ratio stays finite, near -1, up to the largest double
    for x in (5e307, 1e308, 1.7976931348623157e308):
        assert obs.c4_half_ratio_nx(10.0, x) == pytest.approx(
            _c4_reference(10.0, x), rel=1e-15, abs=0.0)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(log_n=hst.one_of(hst.just(None), hst.floats(-323.3, 153.67)),
       log_x=hst.floats(-200.0, 308.25))
def test_c4_closed_form_against_260_digits(log_n, log_x):
    # n = 0 or log-uniform n up to kappa's underflow, x up to the largest
    # double; below x/(2n+1) = 1e-290 the product z x/(w+1) nears underflow
    n, x = 0.0 if log_n is None else 10.0 ** log_n, min(10.0 ** log_x, 1.7976931348623157e308)
    if x / (2.0 * n + 1.0) < 1e-290:
        return
    ref = _c4_reference(n, x, dps=260)
    assert obs.c4_half_ratio_nx(n, x) == pytest.approx(ref, rel=1e-14, abs=0.0), (n, x)


@pytest.mark.parametrize("n", [5e-9, 9.99e-9])
def test_x_from_c4_roundtrip_below_1e_8(n):
    # just below n = 1e-8 the small-n limit puts x 5e-8 off
    assert x_from_c4(n, _c4_reference(n, 1.0)) == pytest.approx(1.0, rel=1e-13)


def test_c4_global_bounds():
    for n in (1e-6, 0.01, 0.5, 1.0, 10.0, 1e3):
        for x in (0.0, 1e-7, 0.3, 2.0, 50.0, 1e4):
            val = obs.c4_half_ratio_nx(n, x)
            assert -1.0 <= val <= 0.0, (n, x)


def test_purity_gaussian_point():
    rep = obs.purity(ReducedState.from_nx(10.0, 0.0))
    assert rep.p == 1.0 / 21.0
    assert rep.ratio == 1.0
    assert rep.p_gaussian == 1.0 / 21.0
    assert rep.n_tilde == 10.0


def test_purity_frozen_value():
    rep = obs.purity(ReducedState.from_nx(10.0, 15.0))
    assert rep.p == pytest.approx(0.04102898874760617, rel=1e-11)
    assert rep.n_tilde == pytest.approx(14.215927614212589, rel=1e-11)
    assert rep.ratio == pytest.approx(rep.p / rep.p_gaussian, rel=1e-14)


def test_purity_bounds_and_small_n():
    for n in (0.1, 1.0, 10.0):
        for x in (0.0, 0.5, 1.0, 5.0, 15.0, 100.0):
            rep = obs.purity(ReducedState.from_nx(n, x))
            assert 0.0 < rep.p <= 1.0
            assert rep.ratio <= 1.0 + 1e-12
    assert obs.purity(ReducedState.from_nx(1e-6, 10.0)).p == pytest.approx(1.0, abs=1e-3)


def test_purity_matches_large_n_closed_form():
    for x in (0.5, 1.0, 5.0, 20.0):
        rep = obs.purity(ReducedState.from_nx(100.0, x))
        _, ratio_limit = obs.purity_limit_large_n(x)
        assert rep.ratio == pytest.approx(ratio_limit, rel=0.01)


@pytest.mark.parametrize("form, args", [
    (obs.c4_ratio_large_n, (math.inf,)),
    (obs.c4_ratio_large_n, (math.nan,)),
    (obs.c4_ratio_large_n, (-1.0,)),
    (obs.c4_ratio_small_n, (math.inf,)),
    (obs.c4_ratio_small_n, (-2.0,)),
    (dm.delta_u_sq_large_n, (10.0, 0.5)),
    (dm.delta_u_sq_large_n, (10.0, 0.2)),
    (dm.delta_u_sq_large_n, (math.nan, 1.0)),
], ids=["c4-large-inf", "c4-large-nan", "c4-large-negative", "c4-small-inf",
        "c4-small-negative", "width-at-pole", "width-below-pole", "width-n-nan"])
def test_limit_forms_refuse_bad_input(form, args):
    # refused like purity_limit_large_n: not NaN, a value off the curve,
    # ZeroDivisionError or a math domain error
    with pytest.raises(ValueError, match="must be finite and"):
        form(*args)


@pytest.mark.parametrize("n, x", [(math.inf, 0.0), (10.0, math.inf),
                                  (math.inf, 1.0), (0.0, math.inf)],
                         ids=["n-inf-x0", "x-inf", "n-inf", "n0-x-inf"])
def test_c4_ratio_refuses_infinite_input(n, x):
    # one ValueError naming the pair, whatever branch n would take: not
    # 0.0, PrecisionLoss or the small-n form's own error
    with pytest.raises(ValueError, match=r"n and x must be finite and >= 0, "
                                         r"got \((inf, .*|.*, inf)\)$"):
        obs.c4_half_ratio_nx(n, x)


def test_purity_limit_values():
    assert obs.purity_limit_large_n(0.0) == (1.0, 1.0)
    r, _ = obs.purity_limit_large_n(1.0)
    assert r * r == pytest.approx(1.6180339887498949, rel=1e-13)
    _, ratio = obs.purity_limit_large_n(1e8)
    assert ratio == pytest.approx(math.sqrt(2 / math.e), rel=1e-7)
    assert ratio > math.sqrt(2 / math.e)
    # sqrt(1 + 4x^2) overflowed to (inf, inf) from x ~ 1e154
    r, ratio = obs.purity_limit_large_n(1e200)
    assert r == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert ratio == pytest.approx(math.sqrt(2 / math.e), rel=1e-15)
    # the old forms cancelled: 3e-9 relative at x = 1e-8, 4e-5 at x = 1e12
    with mpmath.workdps(40):
        for x in (1e-8, 1e12):
            xm = mpmath.mpf(x)
            r_sq = (mpmath.sqrt(1 + 4 * xm * xm) + 2 * xm - 1) / (2 * xm)
            want = mpmath.sqrt(r_sq) * mpmath.exp(-xm * (1 - r_sq * r_sq / 4))
            assert obs.purity_limit_large_n(x)[1] == pytest.approx(float(want), rel=1e-15)


def _purity_mp(n, x):
    """50-digit purity: the doubled gap equation solved in mpmath, then the
    closed form with q and kappa~ as written in the paper."""
    with mpmath.workdps(50):
        n, x = mpmath.mpf(n), mpmath.mpf(x)
        z = mpmath.log1p(1 / n)
        kappa = z / (2 * n + 1)
        z0_sq, xi = z * z * (1 - 2 * x), 2 * x * kappa * z * z

        def gap(s):
            y = mpmath.sqrt(s)
            return (s - z0_sq) / xi - 1 / (y * mpmath.tanh(y))

        s = mpmath.findroot(gap, (z * z * mpmath.mpf(10) ** -30, z * z),
                            solver="anderson")
        zt = mpmath.sqrt(s)
        nt = 1 / mpmath.expm1(zt)
        q = (1 + 2 * nt * (nt + 1)) / (1 + 4 * nt * (nt + 1))
        brace = 1 - (kappa / (zt * mpmath.tanh(zt / 2))) ** 2 * q * q
        return (nt * (nt + 1) / (2 * nt + 1) / (n * (n + 1))
                * mpmath.exp(-x / 2 * kappa * (2 * n + 1) ** 2 * brace))


@pytest.mark.parametrize("n,x", [
    (10.0, 15.0), (0.1, 0.5), (1.0, 5.0), (0.5, 20.0), (10.0, 1e-9),
    (10.0, 1e12), (10.0, 1e15),     # 1 - (kappa/kappa~)^2 q^2 cancelled
    (1e12, 1.0), (1e15, 1.0),       # 1 - e^-z~ cancelled
])
def test_purity_against_mpmath(n, x):
    want = _purity_mp(n, x)
    rep = obs.purity(ReducedState.from_nx(n, x))
    assert abs(rep.p - want) <= 1e-13 * want
    assert abs(rep.ratio - want * (2 * n + 1)) <= 1e-13 * want * (2 * n + 1)


def test_purity_many_matches_purity():
    nx = [(10.0, 0.0), (0.1, 0.3), (1.0, 1.0), (10.0, 15.0), (1e-6, 10.0),
          (0.5, 0.0), (1e12, 1.0), (3.0, 1e-9), (10.0, 1e15), (2.0, 0.999)]
    states = [ReducedState.from_nx(n, x) for n, x in nx]
    many = obs.purity_many(states)
    for i, st in enumerate(states):
        one = obs.purity(st)
        for field, value in vars(one).items():
            assert type(value) is float
            assert value == getattr(many, field)[i], (nx[i], field)
    assert obs.purity_many([]).p.shape == (0,)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(log_n=hst.floats(-8.0, 150.0), log_x=hst.floats(-300.0, 307.0))
def test_purity_bounded_or_refused(log_n, log_x):
    # the old assembly gave purities above the Gaussian one, or 0, on
    # about 6 % of this range
    try:
        rep = obs.purity(ReducedState.from_nx(10.0 ** log_n, 10.0 ** log_x))
    except PrecisionLoss:
        return
    assert 0.0 < rep.p <= 1.0
    assert rep.ratio <= 1.0 + 1e-12
