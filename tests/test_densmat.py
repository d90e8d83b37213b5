import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ngstate import densmat as dm
from ngstate import specfun as sf
from ngstate.errors import NgStateError, RegimeError
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
    u, v = dm.default_grid(st, nu=61, nv=41)
    surf = dm.d_surface(st, u, v)
    assert surf.ln_d_norm.shape == (61, 41)
    assert float(surf.ln_d_norm.max()) == 0.0
    i, j = np.unravel_index(np.argmax(surf.ln_d_norm), surf.ln_d_norm.shape)
    assert (i, j) == (0, 0)
    assert np.all(np.diff(surf.ln_d_norm[:, 0]) < 0)  # decay in u
    assert np.all(np.diff(surf.ln_d_norm, axis=1) < 0)  # decay in v


def test_d_surface_peaked_structure():
    st = ReducedState.from_nx(10.0, 15.0)
    u, v = dm.default_grid(st, nu=201, nv=41)
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


def test_default_grid_extent():
    st = ReducedState.from_nx(10.0, 15.0)
    u, v = dm.default_grid(st)
    assert u.size == 201 and v.size == 201
    assert u[-1] == pytest.approx(1.5 * math.sqrt(212.65545801798518), rel=1e-12)
    assert v[-1] == 4.0
    u2, _ = dm.default_grid(ReducedState.from_nx(10.0, 0.0))
    assert u2[-1] == 1.5


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
