import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from ngstate import densmat as dm
from ngstate import observables as obs
from ngstate import saddle as sd
from ngstate import specfun as sf
from ngstate import wigner as wg
from ngstate.errors import NgStateError, PrecisionLoss, RegimeError
from ngstate.statemap import ReducedState


def lnd(state, u, v):
    return dm.ln_d(state, dm.PhasePoint(u * u, v * v)).ln_d


def test_phasepoint_validation():
    dm.PhasePoint(1.0, 4.0, 2.0)  # w^2 == u^2 v^2 allowed
    dm.PhasePoint(0.0, 0.0)
    with pytest.raises(ValueError):
        dm.PhasePoint(1.0, 4.0, 2.0000001)
    with pytest.raises(ValueError):
        dm.PhasePoint(-1.0, 0.0)
    with pytest.raises(ValueError):
        dm.PhasePoint(0.0, -2.0)
    with pytest.raises(ValueError):
        dm.PhasePoint(0.0, 1.0, 1e-8)  # u = 0 forces w = 0


def test_phase_is_linear_in_w_and_c():
    st = ReducedState.from_nx(2.0, 3.0)
    for c in (0.0, 0.37, -1.2):
        for w in (0.0, 0.5, -2.0):
            val = dm.ln_d(st, dm.PhasePoint(4.0, 4.0, w), c_coeff=c)
            assert val.phase_per_N == -2.0 * c * w
    # amplitude ignores both w and c
    a = dm.ln_d(st, dm.PhasePoint(4.0, 4.0, 0.0), c_coeff=0.0).ln_d
    b = dm.ln_d(st, dm.PhasePoint(4.0, 4.0, -3.9), c_coeff=5.0).ln_d
    assert a == b


def test_gaussian_closed_form():
    # x = 0: no saddle correction, s pinned at z0^2
    for n in (0.1, 1.0, 10.0):
        st = ReducedState.from_nx(n, 0.0)
        f0, fu, fv = sf.big_f(st.z0_sq)
        for u, v in [(0.0, 0.0), (1.4, 0.0), (2.0, 0.7), (0.3, 3.0)]:
            ref = -(f0 + fu * u * u + fv * v * v) - math.log(math.sqrt(n * (n + 1)))
            assert lnd(st, u, v) == pytest.approx(ref, abs=1e-8)


def test_ln_d_attaches_saddle():
    st = ReducedState.from_nx(10.0, 15.0)
    val = dm.ln_d(st, dm.PhasePoint(0.0, 0.0))
    assert val.saddle.s < 0.0
    assert math.isfinite(val.ln_d)


def test_classify_regime():
    # kappa(0.01) ~ 4.53 >= 3: monotone whatever x
    for x in (0.0, 1.0, 100.0, 1e6):
        assert dm.classify_regime(ReducedState.from_nx(0.01, x)) is dm.Regime.MONOTONE
    assert dm.classify_regime(ReducedState.from_nx(10.0, 15.0)) is dm.Regime.PEAKED
    assert dm.classify_regime(ReducedState.from_nx(10.0, 0.1)) is dm.Regime.MONOTONE
    assert dm.peak_threshold_x(10.0) == pytest.approx(0.5007575761050309, rel=1e-12)
    assert dm.peak_threshold_x(0.01) == math.inf


def test_classifier_flips_exactly_at_threshold():
    for n in (1.0, 10.0):
        x_c = dm.peak_threshold_x(n)
        below = ReducedState.from_nx(n, x_c - 1e-6)
        above = ReducedState.from_nx(n, x_c + 1e-6)
        assert dm.classify_regime(below) is dm.Regime.MONOTONE
        assert dm.classify_regime(above) is dm.Regime.PEAKED


def test_u_c_sq_values():
    st = ReducedState.from_nx(10.0, 15.0)
    kappa = math.log1p(0.1) / 21.0
    ref = (1.0 / kappa) * (1.0 - 1.0 / 30.0) - 1.0 / 3.0
    assert dm.u_c_sq(st, 0.0) == pytest.approx(ref, rel=1e-12)
    assert dm.u_c_sq(st, 0.0) == pytest.approx(212.65545801798518, rel=1e-12)
    # ridge shrinks linearly in v^2 and ends where it hits zero
    v_end = -3.0 * st.z0_sq / st.xi - 1.0
    assert dm.u_c_sq(st, v_end) == pytest.approx(0.0, abs=1e-9)
    assert dm.u_c_sq(st, v_end + 1.0) is None


def test_u_c_sq_regime_error():
    with pytest.raises(RegimeError):
        dm.u_c_sq(ReducedState.from_nx(10.0, 0.1), 0.0)
    with pytest.raises(RegimeError):
        dm.u_c_sq(ReducedState.from_nx(0.01, 50.0), 0.0)


def test_ridge_at_the_threshold_state():
    # at x on the ridge threshold classify_regime says PEAKED while
    # -z0_sq/xi - 1/3 rounds to -1.9e-12: the ridge sits at u = 0 there,
    # not past its end, so ridge_u is 0 where it raised TypeError on
    # math.sqrt(None); so for every threshold state from n = 1e-3 to 1e4
    st = ReducedState.from_nx(112.88378916846884, 0.5000064822423872)
    assert dm.classify_regime(st) is dm.Regime.PEAKED
    assert dm.u_c_sq(st, 0.0) == 0.0 and dm.ridge_u(st) == 0.0
    with pytest.raises(RegimeError, match="degenerates"):
        dm.peak_fit(st)
    for n in np.geomspace(1e-3, 1e4, 1200):
        x = dm.peak_threshold_x(n)
        if x < math.inf:
            st = ReducedState.from_nx(n, x)
            assert dm.classify_regime(st) is dm.Regime.PEAKED
            assert dm.ridge_u(st) >= 0.0


def test_saddle_vanishes_on_ridge():
    st = ReducedState.from_nx(10.0, 15.0)
    for v_sq in (0.0, 10.0, 100.0):
        sol = dm.ln_d(st, dm.PhasePoint(dm.u_c_sq(st, v_sq), v_sq)).saddle
        assert abs(sol.s) < 1e-10


def test_derivative_identities_random_points():
    """d(ln d)/dU = -Fu(s*), d(ln d)/dV = -Fv(s*) (envelope theorem)."""
    rng = np.random.default_rng(1723)
    h = 1e-5
    for n, x in [(10.0, 15.0), (1.0, 2.0), (0.5, 40.0)]:
        st = ReducedState.from_nx(n, x)
        for _ in range(20):
            u_sq = float(rng.uniform(h, 40.0))
            v_sq = float(rng.uniform(h, 12.0))
            sol = dm.ln_d(st, dm.PhasePoint(u_sq, v_sq)).saddle
            _, fu_big, fv_big = sf.big_f(sol.s)
            d_u = (dm.ln_d(st, dm.PhasePoint(u_sq + h, v_sq)).ln_d
                   - dm.ln_d(st, dm.PhasePoint(u_sq - h, v_sq)).ln_d) / (2 * h)
            d_v = (dm.ln_d(st, dm.PhasePoint(u_sq, v_sq + h)).ln_d
                   - dm.ln_d(st, dm.PhasePoint(u_sq, v_sq - h)).ln_d) / (2 * h)
            assert abs(d_u + fu_big) < 1e-6, (n, x, u_sq, v_sq)
            assert abs(d_v + fv_big) < 1e-6, (n, x, u_sq, v_sq)


def test_peak_fit_frozen_values():
    pf = dm.peak_fit(ReducedState.from_nx(10.0, 15.0))
    assert pf.u0 == pytest.approx(math.sqrt(212.65545801798518), rel=1e-12)
    assert pf.delta_u_sq == pytest.approx(3.968696990955569, rel=1e-12)
    assert pf.delta_v_sq == 0.5
    assert pf.third_u == pytest.approx(-0.04759239832023225, rel=1e-12)
    assert pf.cross_uv == pytest.approx(-0.000324488995212353, rel=1e-9)
    assert pf.fourth_v == pytest.approx(-0.00039496105073022665, rel=1e-12)


def test_peak_fit_regime_error():
    with pytest.raises(RegimeError):
        dm.peak_fit(ReducedState.from_nx(10.0, 0.2))


def test_peak_fit_against_finite_differences():
    """All expansion coefficients vs central differences of ln_d itself."""
    st = ReducedState.from_nx(10.0, 15.0)
    pf = dm.peak_fit(st)
    u0 = pf.u0

    h = 1e-4  # second derivative: small step is fine
    d2 = (lnd(st, u0 + h, 0) - 2 * lnd(st, u0, 0) + lnd(st, u0 - h, 0)) / h ** 2
    assert d2 == pytest.approx(-1.0 / pf.delta_u_sq, rel=1e-4)

    # v-width: ln d ~ -v^2/(2 delta_v_sq) near v = 0 after removing quartic
    k = 1e-3
    d2v = (lnd(st, u0, k) - 2 * lnd(st, u0, 0) + lnd(st, u0, -k)) / k ** 2
    assert d2v == pytest.approx(-1.0 / pf.delta_v_sq, rel=1e-4)

    h = 0.02  # third derivative drowns in roundoff below this
    d3 = (lnd(st, u0 + 2 * h, 0) - 2 * lnd(st, u0 + h, 0)
          + 2 * lnd(st, u0 - h, 0) - lnd(st, u0 - 2 * h, 0)) / (2 * h ** 3)
    assert d3 == pytest.approx(pf.third_u, rel=1e-2)

    h, k = 0.05, 0.2
    def d2_in_v(u):
        return 2.0 * (lnd(st, u, k) - lnd(st, u, 0)) / k ** 2
    cross = (d2_in_v(u0 + h) - 2 * d2_in_v(u0) + d2_in_v(u0 - h)) / h ** 2
    assert cross == pytest.approx(pf.cross_uv, rel=0.05)

    k = 0.3
    d4 = (2 * lnd(st, u0, 2 * k) - 8 * lnd(st, u0, k) + 6 * lnd(st, u0, 0)) / k ** 4
    assert d4 == pytest.approx(pf.fourth_v, rel=0.05)


def test_peak_fit_large_n_asymptotics():
    # exact value at n=10 sits ~10% above the large-n shortcut
    pf = dm.peak_fit(ReducedState.from_nx(10.0, 15.0))
    assert dm.delta_u_sq_large_n(10.0, 15.0) == pytest.approx(3.61, abs=0.01)
    assert 0.05 < pf.delta_u_sq / dm.delta_u_sq_large_n(10.0, 15.0) - 1.0 < 0.15
    # and converges onto it as n grows at fixed x/n^2
    for n in (100.0, 1000.0):
        x = 15.0 * (n / 10.0) ** 2
        pf_n = dm.peak_fit(ReducedState.from_nx(n, x))
        assert pf_n.delta_u_sq == pytest.approx(dm.delta_u_sq_large_n(n, x),
                                                rel=30.0 / n)


def test_peak_fit_coefficient_scaling():
    # third_u ~ 1/n, cross_uv ~ 1/n^2, fourth_v ~ 1/n^2 at fixed x/n^2
    vals = []
    for n in (50.0, 100.0, 200.0):
        pf = dm.peak_fit(ReducedState.from_nx(n, 10.0 * n * n))
        vals.append((n * pf.third_u, n * n * pf.cross_uv, n * n * pf.fourth_v))
    for a, b in zip(vals[:-1], vals[1:]):
        for p, q in zip(a, b):
            assert p == pytest.approx(q, rel=0.05)


def test_gaussian_fit_residual_deep_quartic():
    # x >> n^2: the ridge cross-section is Gaussian to better than 1%
    st = ReducedState.from_nx(10.0, 1000.0)
    pf = dm.peak_fit(st)
    du = math.sqrt(pf.delta_u_sq)
    base = lnd(st, pf.u0, 0)
    for t in np.linspace(-1.0, 1.0, 9):
        u = pf.u0 + t * du
        fit = base - (u - pf.u0) ** 2 / (2.0 * pf.delta_u_sq)
        act = lnd(st, u, 0)
        assert abs(act - fit) < 0.01 * abs(act), t


def test_d_surface_gaussian_monotone():
    st = ReducedState.from_nx(10.0, 0.0)
    u, v = np.linspace(0.0, 1.5 * dm.ridge_u(st), 61), np.linspace(0.0, 4.0, 41)
    surf = dm.d_surface(st, u, v)
    assert surf.ln_d_norm.shape == (61, 41)
    assert float(surf.ln_d_norm.max()) == 0.0
    i, j = np.unravel_index(np.argmax(surf.ln_d_norm), surf.ln_d_norm.shape)
    assert (i, j) == (0, 0)
    assert np.all(np.diff(surf.ln_d_norm[:, 0]) < 0)  # decay in u
    assert np.all(np.diff(surf.ln_d_norm, axis=1) < 0)  # decay in v


def test_d_surface_peaked_structure():
    st = ReducedState.from_nx(10.0, 15.0)
    u, v = np.linspace(0.0, 1.5 * dm.ridge_u(st), 201), np.linspace(0.0, 4.0, 41)
    surf = dm.d_surface(st, u, v)
    i, j = np.unravel_index(np.argmax(surf.ln_d_norm), surf.ln_d_norm.shape)
    assert j == 0
    u_peak = math.sqrt(dm.u_c_sq(st, 0.0))
    assert abs(surf.u[i] - u_peak) <= surf.u[1] - surf.u[0]
    row0 = surf.ln_d_norm[:, 0]
    assert row0[0] < row0[1]  # local minimum at u = 0
    assert np.all(np.diff(surf.ln_d_norm, axis=1) < 0)


def test_d_surface_validation():
    st = ReducedState.from_nx(1.0, 1.0)
    surf = dm.d_surface(st, np.linspace(0, 2, 3), np.linspace(0, 1, 2))
    assert surf.ln_d_norm.shape == (3, 2)
    with pytest.raises(ValueError):
        dm.d_surface(st, np.array([-0.1, 1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        dm.d_surface(st, np.array([0.0, np.inf]), np.array([0.0]))


@pytest.mark.parametrize("call", [
    lambda st: dm.ln_d(st, dm.PhasePoint(1e308, 1e308)),
    lambda st: dm.ln_d_many(st, [0.0, 1e300], 0.0),
    lambda st: dm.d_surface(st, [0.0, 1e154], [0.0, 1.0]),
    lambda st: wg.ln_w(st, 1e300, 0.0),
], ids=["ln_d", "ln_d_many", "d_surface", "ln_w"])
def test_overflowing_terms_raise_precision_loss(call):
    # finite coordinates whose Fu u^2 or Fv v^2 overflows: a typed error,
    # not NaN, a numpy warning or a misleading bracket failure
    with pytest.raises(PrecisionLoss, match="phase-space coordinates overflow"):
        call(ReducedState.from_nx(10.0, 15.0))


def test_ln_d_many_matches_scalar():
    st = ReducedState.from_nx(2.0, 7.0)
    u_sq = np.array([0.0, 1.0, 9.0])
    v_sq = np.array([0.5, 0.0, 4.0])
    arr = dm.ln_d_many(st, u_sq, v_sq)
    for k in range(3):
        assert arr[k] == dm.ln_d(st, dm.PhasePoint(u_sq[k], v_sq[k])).ln_d


@pytest.mark.parametrize("u_shape, v_shape", [
    ((3000,), (3000,)),     # 1-D: blocks of elements
    ((40, 1), (1, 97)),     # 2-D: blocks of rows
    ((3, 1), (1, 5000)),    # rows longer than a block: one row at a time
], ids=["1-D", "rows", "long-rows"])
def test_ln_d_blocks_match_one_pass(monkeypatch, u_shape, v_shape):
    # ln d taken in blocks equals one big_f pass bit for bit; the points
    # cross the ridge, so s takes both signs and the series branch
    st = ReducedState.from_nx(10.0, 15.0)
    rng = np.random.default_rng(7)
    u_sq = rng.uniform(0.0, 400.0, u_shape)
    v_sq = rng.uniform(0.0, 4.0, v_shape)
    monkeypatch.setattr(dm, "_LN_D_CHUNK", 10 ** 9)
    one = dm.ln_d_many(st, u_sq, v_sq)
    monkeypatch.setattr(dm, "_LN_D_CHUNK", 100)
    blocked = dm.ln_d_many(st, u_sq, v_sq)
    assert blocked.shape == one.shape
    assert blocked.tobytes() == one.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=hst.floats(1e-3, 1e4), x=hst.floats(0.0, 1e4),
       u_max=hst.floats(1e-3, 100.0), v_max=hst.floats(1e-3, 100.0))
def test_d_surface_finite_or_typed(n, x, u_max, v_max):
    try:
        surf = dm.d_surface(ReducedState.from_nx(n, x),
                            np.linspace(0.0, u_max, 5), np.linspace(0.0, v_max, 4))
    except NgStateError:
        return
    assert np.all(np.isfinite(surf.ln_d_norm)) and math.isfinite(surf.ln_d_max)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=hst.floats(1e-3, 1e6), x=hst.floats(0.0, 1e8))
def test_peak_fit_finite_or_typed(n, x):
    try:
        fit = dm.peak_fit(ReducedState.from_nx(n, x))
    except NgStateError:
        return
    assert all(math.isfinite(c) for c in (fit.u0, fit.delta_u_sq, fit.delta_v_sq,
                                          fit.third_u, fit.cross_uv, fit.fourth_v))


def _exponent(state, s, u_sq, v_sq):
    """(Phi(s), scale): Phi = -(F0 + Fu u^2 + Fv v^2) + (s - z0_sq)^2/(8 xi)
    - ln z, whose minimum over s > -pi^2 is ln d (dPhi/ds = g/4 and g
    increases, saddle module docstring), and the sum of its terms' sizes."""
    terms = _exponent_terms(state, s, u_sq, v_sq)
    return math.fsum(terms), math.fsum(map(abs, terms))


def _exponent_terms(state, s, u_sq, v_sq):
    """Phi's five terms at s (numbers or arrays)."""
    big_f0, big_fu, big_fv = sf.big_f(s)
    return [-big_f0, -big_fu * u_sq, -big_fv * v_sq,
            (s - state.z0_sq) ** 2 / (8.0 * state.xi), -obs.ln_z_per_dof(state)]


_UV = hst.tuples(hst.floats(0.01, 31.6), hst.floats(0.01, 31.6))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(log_n=hst.floats(-1.0, 2.0), log_x=hst.floats(-3.0, 3.0), a=_UV, b=_UV,
       t=hst.floats(0.0, 1.0), log_step=hst.floats(-8.0, -0.1), above=hst.booleans())
def test_ln_d_is_the_minimum_of_a_convex_exponent(log_n, log_x, a, b, t, log_step, above):
    # ln d = min_s Phi(s): every s bounds it from above, it is concave in
    # (u^2, v^2) as a minimum of affine functions, and its gradient is
    # (-Fu(s*), -Fv(s*)) (the envelope theorem).  A copy whose root moves
    # by delta (1 + |s*|) fails the bound from delta = 1e-7 and the
    # gradient from 1e-6, and stays concave up to 1e-1; one that moves by
    # delta cos(997 u^2) (1 + |s*|) fails the gradient from 1e-8, the bound
    # from 1e-7 and concavity from 1e-6
    st = ReducedState.from_nx(10.0 ** log_n, 10.0 ** log_x)
    at = dm.ln_d(st, dm.PhasePoint(*a))
    s_star = at.saddle.s
    step = 10.0 ** log_step
    s = (s_star + step * (math.pi ** 2 + abs(s_star)) if above
         else -math.pi ** 2 + (s_star + math.pi ** 2) * (1.0 - step))
    phi, scale = _exponent(st, s, *a)
    assert phi >= at.ln_d - 1e-14 * scale
    ends = (1.0 - t) * at.ln_d + t * dm.ln_d(st, dm.PhasePoint(*b)).ln_d
    mid = dm.ln_d(st, dm.PhasePoint(*(p + t * (q - p) for p, q in zip(a, b)))).ln_d
    assert mid >= ends - 1e-14 * scale
    for i, big in enumerate(sf.big_f(s_star)[1:]):
        h = 1e-4 * a[i]
        up, down = list(a), list(a)
        up[i], down[i] = a[i] + h, a[i] - h
        slope = (dm.ln_d(st, dm.PhasePoint(*up)).ln_d
                 - dm.ln_d(st, dm.PhasePoint(*down)).ln_d) / (2.0 * h)
        assert slope == pytest.approx(-big, rel=1e-7, abs=1e-7)


def _axis(top, size):
    """size values from 0 to top, or top alone."""
    return np.linspace(0.0, top, size) if size > 1 else np.array([top])


def _within_table_bound(state, u_sq, v_sq, got):
    """A table's ln d over the grid u_sq x v_sq (1-D axes, x > 0) against
    per-point ln_d_many: the table's ln d is Phi at its s, so it lies
    within the stated bound 4 eps max(1, |ln d|) above ln d (and not below
    it: ln d is Phi's minimum), up to 4 eps of the terms' sizes at the
    root for the rounding of either."""
    u_sq, v_sq = u_sq[:, None], v_sq[None, :]
    ref = dm.ln_d_many(state, u_sq, v_sq)
    terms = _exponent_terms(state, sd.solve_saddle_uv_many(state, u_sq, v_sq).s,
                            u_sq, v_sq)
    eps = np.finfo(float).eps
    slack = 4.0 * eps * sum(np.abs(t) for t in terms)
    assert np.all(got >= ref - slack)
    assert np.all(got <= ref + 4.0 * eps * np.maximum(1.0, np.abs(ref)) + slack)


def _check_table(state, u, v):
    """d_surface's one table within its bound (_within_table_bound);
    returns its fallbacks."""
    got, fallbacks = dm._surface_table(state, u * u, v * v)
    _within_table_bound(state, u * u, v * v, got)
    fallbacks = int(fallbacks.sum())
    surf = dm.d_surface(state, u, v)
    assert surf.fallbacks == fallbacks
    assert surf.ln_d_norm.tobytes() == (got - np.max(got)).tobytes()
    return fallbacks


_POWER = hst.floats(-3.0, 4.0).map(lambda e: 10.0 ** e)
_WINDOW = hst.floats(-3.0, 2.0).map(lambda e: 10.0 ** e)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=_POWER, x=_POWER, u_max=_WINDOW, v_max=_WINDOW,
       nu=hst.integers(1, 24), nv=hst.integers(1, 24))
# test_d_surface_finite_or_typed's grid where an unclamped secant step
# left (-pi^2, inf)
@example(n=0.5, x=10.0, u_max=0.5, v_max=91.0, nu=5, nv=4)
# roots from 0.02 to 1.7 above the pole, where the low node brackets curve
# strongly: 7 of 100 points fall back, and a bound 1e6 times looser shows
@example(n=10.0, x=1000.0, u_max=2.0, v_max=3.0, nu=10, nv=10)
# u^2 to 1.9e169 at x = 2e-64: the bracket's own chord, 4e17 times g's
# slope at its upper node, accepted ln d = 6.9e191 for -1.9e180
@example(n=151069.8078327193, x=2.046919550504046e-64, u_max=4.324815978739248e84,
         v_max=2.0757517714121313e78, nu=3, nv=2)
@example(n=10.0, x=15.0, u_max=20.0, v_max=4.0, nu=1, nv=100_000)  # one row
@example(n=10.0, x=15.0, u_max=20.0, v_max=4.0, nu=100_000, nv=1)  # one column
@example(n=10.0, x=15.0, u_max=20.0, v_max=4.0, nu=1, nv=1)  # axes of one value
@example(n=2.0, x=1.0, u_max=3.0, v_max=0.0, nu=1, nv=1)
def test_d_surface_table_within_its_bound(n, x, u_max, v_max, nu, nv):
    st = ReducedState.from_nx(n, x)
    u, v = _axis(u_max, nu), _axis(v_max, nv)
    try:
        dm.ln_d_many(st, (u * u)[:, None], (v * v)[None, :])
    except NgStateError:
        with pytest.raises(NgStateError):
            dm.d_surface(st, u, v)
        return
    _check_table(st, u, v)


def test_d_surface_table_falls_back_over_a_huge_span():
    # u^2 from 0 to 1e300 at a nearly Gaussian state, where ln d stays
    # finite: the roots span 0.009 to 4e10, too far for one node bracket
    # each, so points go to the root-finder, with no numpy warning
    st = ReducedState.from_nx(10.0, 1e-280)
    assert _check_table(st, np.linspace(0.0, 1e150, 7), np.array([0.0, 1.0])) > 0


@pytest.mark.parametrize("shape", [(1, 100_000), (100_000, 1)], ids=["row", "column"])
def test_d_surface_table_blocks_split_rows(monkeypatch, shape):
    # blocks of _LN_D_CHUNK points, a single row split too: the same bits
    # as one block, and temporaries of a block, not of the grid
    st = ReducedState.from_nx(10.0, 15.0)
    u, v = _axis(20.0, shape[0]), _axis(4.0, shape[1])
    tracemalloc.start()
    blocked = dm.d_surface(st, u, v).ln_d_norm
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    monkeypatch.setattr(dm, "_LN_D_CHUNK", 10 ** 9)
    assert dm.d_surface(st, u, v).ln_d_norm.tobytes() == blocked.tobytes()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(n=hst.floats(-1.0, 2.0).map(lambda e: 10.0 ** e),
       x=hst.floats(-3.0, 3.5).map(lambda e: 10.0 ** e),
       u_max=hst.floats(0.1, 3.0), nu=hst.integers(1, 12))
# fig7's state and window (n = 10, x = 3000, u to 1.4 times the ridge):
# the rows near u = 0 send points to the root-finder
@example(n=10.0, x=3000.0, u_max=1.4, nu=9)
@example(n=10.0, x=0.0, u_max=1.5, nu=7)  # x = 0: ln_d_many's rows, bit for bit
def test_wigner_mesh_rows_within_the_table_bound(n, x, u_max, nu):
    # every ln d row of the quadrature's mesh, as the memo keeps it, lies
    # within d_surface's stated bound of per-point ln_d_many, and the grid
    # counts the fallbacks its rows keep
    st = ReducedState.from_nx(n, x)
    u = np.linspace(0.0, u_max * max(1.0, dm.ridge_u(st)), nu)
    memo = {}
    grid = wg.wigner_grid(st, u, [0.0], memo=memo)
    (_, mesh), rows = memo["ln_d"]
    v, _ = wg._gl_mesh(*mesh)
    u_sq = np.array(sorted(rows))
    got = np.array([rows[key][0] for key in u_sq.tolist()])
    if x == 0.0:
        ref = dm.ln_d_many(st, u_sq[:, None], (v * v)[None, :])
        assert got.tobytes() == ref.tobytes()
    else:
        _within_table_bound(st, u_sq, v * v, got)
    counts = [rows[key][1] for key in u_sq.tolist()]
    assert grid.fallbacks == sum(counts)
    assert (n, x, nu) != (10.0, 3000.0, 9) or grid.fallbacks > 0


@pytest.mark.parametrize("x", [15.0, 3000.0])
def test_a_wigner_mesh_row_alone_is_the_same_bits(monkeypatch, x):
    # one table per u^2 row: a row built alone, in a call of many rows or
    # in blocks of one row each has the same bits and fallback count; at
    # x = 3000 rows fall back
    st = ReducedState.from_nx(10.0, x)
    u_sq = (np.linspace(0.0, 1.5, 9) * dm.ridge_u(st)) ** 2
    v, _ = wg._gl_mesh(wg._auto_v_max(st, u_sq), 24)
    many, counts = dm._surface_table(st, u_sq, v * v, per_row=True)
    assert (counts.sum() > 0) == (x == 3000.0)
    for i in range(u_sq.size):
        alone, [count] = dm._surface_table(st, u_sq[i:i + 1], v * v, per_row=True)
        assert alone.tobytes() == many[i:i + 1].tobytes() and count == counts[i]
    monkeypatch.setattr(dm, "_LN_D_CHUNK", 1)
    blocked, blocked_counts = dm._surface_table(st, u_sq, v * v, per_row=True)
    assert blocked.tobytes() == many.tobytes()
    assert blocked_counts.tolist() == counts.tolist()


def test_wigner_mesh_tables_are_built_by_blocks_of_rows(monkeypatch):
    # 800 u rows of 384 nodes: the assembly holds about five (rows, nodes)
    # arrays (13.9 MiB in all), and the rows' tables add a block's
    # temporaries, not the grid's (85 MiB as one block); one block of every
    # row gives the same bits
    st = ReducedState.from_nx(10.0, 15.0)
    u, r = np.linspace(0.0, 25.0, 800), np.array([0.0, 1.0])
    tracemalloc.start()
    grid = wg.wigner_grid(st, u, r)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert grid.quad_points == 384
    assert peak < 8 * u.size * grid.quad_points * 8 + 2 ** 21
    monkeypatch.setattr(dm, "_LN_D_CHUNK", 10 ** 9)
    assert wg.wigner_grid(st, u, r).ln_w_norm.tobytes() == grid.ln_w_norm.tobytes()


def test_small_f_kernels_are_positive_falling_and_convex():
    # fu, fv > 0 on the whole domain: the root rises in u^2 and v^2, so the
    # roots of a grid's two extreme points bracket every other one.  f0, fu
    # and fv fall and are convex, so g is concave with slope >= 1/xi: the
    # lower slope that d_surface's table error bound takes
    s = np.concatenate([-math.pi ** 2 + np.geomspace(1e-12, math.pi ** 2, 4000),
                        -np.geomspace(1e-300, 1.0, 400), [0.0],
                        np.geomspace(1e-300, 1.7e308, 4000)])
    _, fu, fv = sf.small_f(s)
    assert np.all(fu > 0.0) and np.all(fv > 0.0)
    s = -math.pi ** 2 + np.geomspace(1e-4, 1e8, 1500)
    for f in sf.small_f(s):
        slope = np.diff(f) / np.diff(s)
        assert np.all(slope < 0.0) and np.all(np.diff(slope) > 0.0)
