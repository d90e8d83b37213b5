"""Tests for the finite-N Wigner engine and physical projections.

The load-bearing oracle: at x = 0 the defining integral is a Weber
integral, so ln w at finite N equals the closed Gaussian form minus
exactly ln(2)/N.  That pins the quadrature, both Bessel paths, and the
extrapolation in one shot.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from ngstate import densmat as dm
from ngstate import saddle as sd
from ngstate import wigner as wg
from ngstate.errors import (BracketError, NgStateError, NotConverged,
                            QuadratureNonPositive)
from ngstate.statemap import ReducedState, x_from_c4


def gaussian_state(n=10.0):
    return ReducedState.from_nx(n, 0.0)


# ---------------------------------------------------------------------------
# N-list and squeeze-parameter validation


_ST = ReducedState.from_nx(10.0, 15.0)
_SQ = wg.SqueezeParams(n=10.0, gamma=0.3, phi=0.0)
_PARA = wg.ProjectionMode.PARA


def _project_with(n_list):
    return wg.project_physical(_SQ, 15.0, _PARA, [0.5], [0.0], n_list)


def test_settings_validation():
    # project_physical's n_list is the one settable N list
    for bad in [(4, 8, 12),              # three entries
                (4, 8, 12, 16, 20),      # five entries
                (4, 7, 10, 12),          # odd entry
                (2, 4, 6, 8),            # below minimum
                (8, 4, 12, 16)]:         # not ascending
        with pytest.raises(ValueError):
            _project_with(bad)
    assert wg.N_LIST == (28, 32, 36, 40)


@pytest.mark.parametrize("bad", [4.5, 28.7, math.nan, math.inf])
def test_non_integer_n_refused(bad):
    # one check for N lists and single-N calls: a fractional N was
    # truncated to the even integer below it
    with pytest.raises(ValueError, match="even integer"):
        _project_with((bad, 32, 36, 40))
    with pytest.raises(ValueError, match="even integer"):
        wg.ln_w_at_N(_ST, 1.0, 1.0, bad)


@pytest.mark.parametrize("call", [
    lambda: wg.ln_w(_ST, 1.0, math.nan),
    lambda: wg.ln_w(_ST, 1.0, math.inf),
    lambda: wg.ln_w(_ST, math.nan, 1.0),
    lambda: wg.ln_w_at_N(_ST, math.inf, 1.0, 8),
    lambda: wg.wigner_grid(_ST, [0.0, 1.0], [0.0, math.nan]),
    lambda: wg.wigner_grid(_ST, [math.inf], [0.0]),
    lambda: wg.project_physical(_SQ, 15.0, _PARA, [0.5], [0.0, math.nan]),
    lambda: wg.project_physical(_SQ, 15.0, _PARA, [math.nan], [0.0]),
    lambda: dm.PhasePoint(math.nan, 1.0),
    lambda: dm.PhasePoint(1.0, math.inf),
    lambda: dm.PhasePoint(1.0, 1.0, math.nan),
], ids=["ln_w-r-nan", "ln_w-r-inf", "ln_w-u-nan", "ln_w_at_N-u-inf",
        "grid-r-nan", "grid-u-inf", "project-pi-nan", "project-phi-nan",
        "point-u-nan", "point-v-inf", "point-w-nan"])
def test_non_finite_inputs_refused(call):
    # as d_surface does: a typed refusal, not the r = 0 value or a crash
    with pytest.raises(ValueError):
        call()


def test_squeeze_params():
    with pytest.raises(ValueError):
        wg.SqueezeParams(n=1.0, gamma=1.0, phi=0.0)
    with pytest.raises(ValueError):
        wg.SqueezeParams(n=1.0, gamma=-0.1, phi=0.0)
    with pytest.raises(ValueError):
        wg.SqueezeParams(n=1.0, gamma=0.5, phi=7.0)
    with pytest.raises(ValueError):
        wg.SqueezeParams(n=-1.0, gamma=0.5, phi=0.0)
    # the polar family preserves the symplectic area at every angle
    for n in (0.3, 1.0, 10.0):
        for gamma in (0.0, 0.5, 0.9):
            for phi in (0.0, 1.1, math.pi, 4.9):
                m = wg.SqueezeParams(n=n, gamma=gamma, phi=phi).moments()
                assert m.F * m.K - m.R * m.R == pytest.approx(
                    (n + 0.5) ** 2, rel=1e-12)
    iso = wg.SqueezeParams(n=2.0, gamma=0.0, phi=0.0).moments()
    assert iso.F == iso.K == pytest.approx(2.5)
    assert iso.R == 0.0


# ---------------------------------------------------------------------------
# x = 0: Weber-integral anchor


def test_finite_n_matches_weber_shift():
    # at x = 0 every finite-N value is the analytic Wigner exponent
    # minus exactly ln(2)/N, for the r = 0 path and the Bessel path alike
    st = gaussian_state(10.0)
    for u_sq, r_sq in [(0.0, 0.0), (1.3, 0.0), (0.0, 2.1), (2.0, 3.5)]:
        ana = float(wg.ln_w_gaussian_exact(st, u_sq, r_sq))
        for N in (4, 12, 40):
            got = wg.ln_w_at_N(st, u_sq, r_sq, N)
            assert got == pytest.approx(ana - math.log(2.0) / N, abs=5e-11)


def test_finite_n_matches_weber_shift_small_n():
    st = gaussian_state(0.5)
    for u_sq, r_sq in [(0.4, 0.0), (0.8, 1.5)]:
        ana = float(wg.ln_w_gaussian_exact(st, u_sq, r_sq))
        for N in (6, 20):
            got = wg.ln_w_at_N(st, u_sq, r_sq, N)
            assert got == pytest.approx(ana - math.log(2.0) / N, abs=1e-10)


def test_extrapolated_matches_gaussian():
    st = gaussian_state(10.0)
    for u_sq, r_sq in [(0.0, 0.0), (1.3, 0.0), (2.0, 3.5)]:
        val, spread = wg.ln_w(st, u_sq, r_sq)
        ana = float(wg.ln_w_gaussian_exact(st, u_sq, r_sq))
        assert abs(val - ana) < 1e-8
        assert spread < 1e-6


def test_extrapolated_grid_matches_gaussian():
    st = gaussian_state(10.0)
    u = np.linspace(0.0, 2.0, 11)
    r = np.linspace(0.0, 2.0, 11)
    grid = wg.wigner_grid(st, u, r)
    ana = wg.ln_w_gaussian_exact(st, (u * u)[:, None], (r * r)[None, :])
    # far corners sit ~40 e-folds below the envelope at N = 40, where
    # Richardson amplifies the quadrature noise floor to ~1e-7
    assert np.abs((grid.ln_w_norm + grid.ln_w_max) - ana).max() < 1e-6
    assert grid.ln_w_norm.max() == 0.0


def test_invalid_point_arguments():
    st = gaussian_state()
    with pytest.raises(ValueError):
        wg.ln_w_at_N(st, -0.1, 0.0, 8)
    with pytest.raises(ValueError):
        wg.ln_w_at_N(st, 0.0, 0.0, 7)
    with pytest.raises(ValueError):
        wg.ln_w_at_N(st, 0.0, 0.0, 2)
    with pytest.raises(ValueError):
        wg.ln_w(st, 0.0, -1.0)
    with pytest.raises(ValueError):
        wg.wigner_grid(st, np.array([[0.1]]), np.array([0.0]))
    with pytest.raises(ValueError):
        wg.wigner_grid(st, np.array([0.1]), np.array([-0.5]))


# ---------------------------------------------------------------------------
# non-Gaussian states


def test_r_zero_path_is_continuous():
    # the exact r = 0 branch must join the Bessel branch smoothly
    st = ReducedState.from_nx(10.0, 15.0)
    for N in (8, 24):
        at_zero = wg.ln_w_at_N(st, 3.0, 0.0, N)
        near_zero = wg.ln_w_at_N(st, 3.0, 1e-8, N)
        assert near_zero == pytest.approx(at_zero, abs=1e-6)


def test_plateau_in_window():
    # the N-sequence has settled by N in [12, 24]: the extrapolation
    # spread over that window alone is far below 1e-3
    st = ReducedState.from_nx(10.0, 15.0)
    u0_sq = dm.u_c_sq(st)
    for u_sq, r_sq in [(u0_sq, 0.0), (0.25 * u0_sq, 1.0), (u0_sq, 4.0)]:
        window = wg._normalised(st, np.array([u_sq]), np.array([[math.sqrt(r_sq)]]),
                                (12, 16, 20, 24))
        assert window["spread"][0, 0] < 1e-3
    # and the raw finite-N steps are dominated by a point-independent
    # 1/N term: normalized differences settle to ~1e-7
    seq_pt = np.array([wg.ln_w_at_N(st, u0_sq, 1.0, N) for N in (12, 16, 20, 24)])
    seq_rf = np.array([wg.ln_w_at_N(st, 0.0, 0.0, N) for N in (12, 16, 20, 24)])
    rel = seq_pt - seq_rf
    assert np.abs(np.diff(rel)).max() < 1e-5


def test_scheme_agreement_on_normalized_grid():
    # the Richardson grid and the N = 40 values agree after normalization
    # because the leading finite-N correction is shared by every grid point
    st = ReducedState.from_nx(10.0, 15.0)
    u = np.linspace(0.0, 1.5 * math.sqrt(dm.u_c_sq(st)), 21)
    r = np.linspace(0.0, 2.0, 21)
    rich = wg.wigner_grid(st, u, r)
    per_n, _, _ = wg._mesh_and_assemble(st, u * u, r[None, :], wg.N_LIST,
                                        wg.N_LIST[-1])
    last = per_n[-1] - per_n[-1].max()
    assert np.abs(rich.ln_w_norm - last).max() < 5e-3


def test_grid_matches_scalar_with_pinned_mesh(monkeypatch):
    # with the mesh pinned (32 panels of 16 nodes on [0, 6]), the batch
    # engine and the scalar entry point are the same computation
    monkeypatch.setattr(wg, "_panel_count", lambda *a: 32)
    monkeypatch.setattr(wg, "_auto_v_max", lambda *a: 6.0)
    st = ReducedState.from_nx(10.0, 15.0)
    u = np.array([0.7, 2.4])
    r = np.array([0.0, 1.1])
    grid = wg.wigner_grid(st, u, r)
    for i, ui in enumerate(u):
        for k, rk in enumerate(r):
            val, _ = wg.ln_w(st, ui * ui, rk * rk)
            assert grid.ln_w_norm[i, k] + grid.ln_w_max == pytest.approx(
                val, abs=1e-13)
    # projection rows too: without tilt, para maps pi to r = 2 sqrt(A)|pi|,
    # so each row mixes r = 0, a repeated r and a distinct r
    sq = wg.SqueezeParams(n=10.0, gamma=0.0, phi=0.0)
    big_a = st.kappa * sq.moments().F
    phi = np.array([0.7, 2.4]) * math.sqrt(big_a)
    pi = np.array([0.0, 0.55, -0.55, 1.1]) / (2.0 * math.sqrt(big_a))
    proj = wg.project_physical(sq, 15.0, wg.ProjectionMode.PARA, phi, pi)
    full = proj.ln_w_norm + proj.ln_w_max
    for i, ph in enumerate(phi):
        for k, pk in enumerate(pi):
            val, _ = wg.ln_w(st, ph * ph / big_a, 4.0 * big_a * pk * pk)
            assert full[i, k] == pytest.approx(val, abs=1e-13)
    # a row computed alone equals the same row of the full call
    alone = wg.project_physical(sq, 15.0, wg.ProjectionMode.PARA, phi[1:], pi)
    np.testing.assert_array_equal(alone.ln_w_norm[0] + alone.ln_w_max, full[1])


def test_envelope_cut_does_not_read_the_list():
    # the cut is sized at the smallest N accepted, whatever N are listed
    st = ReducedState.from_nx(10.0, 15.0)
    u, r = np.linspace(0.0, 3.0, 5), np.linspace(0.0, 2.0, 3)
    default = wg.wigner_grid(st, u, r)
    window = wg._normalised(st, u * u, r[None, :], (12, 16, 20, 24))
    assert window["v_max"] == default.v_max == wg._auto_v_max(st, u * u, 4)


def _spy_bessel(monkeypatch):
    """Record each Bessel kernel call the engine makes, as the (order, rows)
    of every table it holds: one order per row of the argument."""
    calls = []
    real = wg._sf._bessel_rows

    def spy(orders, argument):
        assert len(orders) == argument.shape[0]
        calls.append([(order, orders.count(order)) for order in dict.fromkeys(orders)])
        return real(orders, argument)

    monkeypatch.setattr(wg._sf, "_bessel_rows", spy)
    return calls


def _symmetric_projection(n_list):
    """A para projection without tilt, so r = 2 sqrt(A)|pi| in every row:
    each row holds r = 0 and each positive r twice, all rows the same."""
    sq = wg.SqueezeParams(n=10.0, gamma=0.5, phi=0.0)
    phi = np.linspace(-1.0, 1.0, 5)
    pi = np.array([-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3])
    return wg.project_physical(sq, 15.0, wg.ProjectionMode.PARA, phi, pi,
                               n_list)


def test_bessel_table_once_per_distinct_r(monkeypatch):
    # each N builds its table once per distinct positive r, not per row
    calls = _spy_bessel(monkeypatch)
    n_list = (4, 8, 12, 16)
    proj = _symmetric_projection(n_list)
    for N in n_list:
        rows = [rows for call in calls for order, rows in call if order == N // 2 - 1]
        assert sum(rows) == 3
        assert max(rows) <= max(1, wg._TABLE_ELEMS // proj.quad_points)


def test_only_the_extrapolated_n_are_assembled(monkeypatch):
    # a Bessel table is built for each N of the list, which _extrapolate
    # reads whole, and for no other N
    st = ReducedState.from_nx(10.0, 15.0)
    read = wg.N_LIST
    calls = _spy_bessel(monkeypatch)
    value, spread = wg.ln_w(st, 1.0, 2.0)
    assert sorted({order for call in calls for order, _ in call}) == [N // 2 - 1 for N in read]
    # the four one-row tables fit one chunk, so one kernel call holds them all
    assert calls == [[(N // 2 - 1, 1) for N in read]]
    per_n = np.array([wg.ln_w_at_N(st, 1.0, 2.0, N) for N in read])
    assert (value, spread) == tuple(map(float, wg._extrapolate(per_n, read)))


def test_tables_above_one_chunk_take_one_call_per_n(monkeypatch):
    # a fig5-sized table (100 positive r) is larger than a chunk for each N
    calls = _spy_bessel(monkeypatch)
    grid = wg.wigner_grid(ReducedState.from_nx(10.0, 15.0), np.linspace(0.0, 3.0, 4),
                          np.linspace(0.0, 2.0, 101))
    assert 100 * grid.quad_points > wg._sf._BESSEL_CHUNK
    assert calls == [[(N // 2 - 1, 100)] for N in wg.N_LIST]


def test_bessel_blocks_match_one_table(monkeypatch):
    # a table cut into blocks gives the values of the single table
    one = _symmetric_projection((4, 8, 12, 16))
    calls = _spy_bessel(monkeypatch)
    monkeypatch.setattr(wg, "_TABLE_ELEMS", 2 * one.quad_points)
    blocked = _symmetric_projection((4, 8, 12, 16))
    assert [rows for call in calls for order, rows in call if order == 1] == [2, 1]
    np.testing.assert_allclose(blocked.ln_w_norm, one.ln_w_norm,
                               rtol=0.0, atol=1e-12)


def test_peak_and_widths_far_regime():
    # x >> n^2: the Wigner peak sits at the matrix-element ridge and the
    # widths match the Gaussian-fit predictions
    st = ReducedState.from_nx(10.0, 3000.0)
    fit = dm.peak_fit(st)
    # r-profile through the peak: slope in r^2 gives delta_r^2 = 2
    r_vals = np.array([0.0, 0.3, 0.6, 0.9, 1.2])
    lnw = [wg.ln_w(st, fit.u0 ** 2, r * r)[0] for r in r_vals]
    slope = np.polyfit(r_vals ** 2, lnw, 1)[0]
    assert -1.0 / (2.0 * slope) == pytest.approx(2.0, rel=0.05)
    # u-profile curvature matches the matrix-element peak fit
    du = math.sqrt(fit.delta_u_sq)
    us = fit.u0 + du * np.linspace(-0.6, 0.6, 7)
    lnw_u = [wg.ln_w(st, uu * uu, 0.0)[0] for uu in us]
    curv = np.polyfit(us - fit.u0, lnw_u, 2)[0]
    assert -1.0 / (2.0 * curv) == pytest.approx(fit.delta_u_sq, rel=0.05)


def test_quadrature_positivity_raises():
    # far tail at large N: the oscillatory integral dips below the
    # machine noise floor and the engine must refuse, not fabricate
    st = ReducedState.from_nx(10.0, 15.0)
    with pytest.raises(QuadratureNonPositive):
        wg.ln_w_at_N(st, 0.0, 16.0, 16)


def test_not_converged_raises(monkeypatch):
    # a healthy state refused once its spread (1.1e-13 here) is above the
    # tolerance; the error carries the refused value and its spread
    monkeypatch.setattr(wg, "SPREAD_TOL", 1e-15)
    st = ReducedState.from_nx(10.0, 15.0)
    with pytest.raises(NotConverged) as info:
        wg.ln_w(st, 1.0, 0.0)
    assert info.value.spread > wg.SPREAD_TOL
    assert math.isfinite(info.value.value)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=hst.floats(0.3, 20.0), x=hst.floats(0.0, 40.0),
       u_sq=hst.floats(0.0, 4.0), r_sq=hst.floats(0.0, 4.5))
def test_ln_w_finite_or_typed(n, x, u_sq, r_sq):
    # inside the README window (N r^2 / 4 <= 45 at N = 40) every call
    # returns a finite value or raises the library's own error; for n below
    # about 2 the quadrature can fail there (NotConverged or
    # QuadratureNonPositive), which is typed
    try:
        value, spread = wg.ln_w(ReducedState.from_nx(n, x), u_sq, r_sq)
    except NgStateError:
        return
    assert math.isfinite(value) and math.isfinite(spread)


@pytest.mark.parametrize("n, c4, u_sq, r_sq, error, match", [
    (0.3, -0.77, 0.0, 1.0, NotConverged, None),
    (0.1, -0.77, 0.0, 2.0, QuadratureNonPositive, "N = 28"),
    (1.0, -0.9, 1.0, 4.0, NotConverged, None),
    (0.3035, -0.7656, 0.094, 2.036, NotConverged, None),
])
def test_small_n_fails_inside_window(n, c4, u_sq, r_sq, error, match):
    # the README's caveat: for n below about 2 with strong C4 the
    # quadrature fails inside N r^2/4 <= 45, with a typed error
    state = ReducedState.from_nx(n, x_from_c4(n, c4))
    with pytest.raises(error, match=match):
        wg.ln_w(state, u_sq, r_sq)


@pytest.mark.parametrize("r_sq", [1e-40, 1e-50, 1e-62])
def test_tiny_r_takes_the_exact_r0_path(r_sq):
    # J_{N/2-1}(N r v) underflows here; the points take the r = 0 limit,
    # which the Bessel path meets to rounding once N r^2 v^2 / 2 < 2^-53
    state = ReducedState.from_nx(10.0, 15.0)
    at_zero, _ = wg.ln_w(state, 1.0, 0.0)
    assert wg.ln_w(state, 1.0, r_sq)[0] == pytest.approx(at_zero, abs=1e-12)


def test_envelope_cut_failure_is_typed(monkeypatch):
    # a flat ln d never drops below the cut, however far the probe widens
    monkeypatch.setattr(dm, "ln_d_many", lambda state, u_sq, v_sq:
                        np.zeros(np.broadcast_shapes(np.shape(u_sq), np.shape(v_sq))))
    with pytest.raises(BracketError):
        wg._auto_v_max(ReducedState.from_nx(10.0, 1.0), 1.0, 4)


def _dense_v_max(state, u_sq, n_min):
    """Reference envelope cut: g = ln v + ln d on all 1025 probe points."""
    u_sq = np.atleast_1d(np.asarray(u_sq, dtype=float))
    probe_hi = 48.0
    while True:
        v = np.linspace(1e-3, probe_hi, 1025)
        g = np.log(v)[None, :] + dm.ln_d_many(state, u_sq[:, None],
                                              (v * v)[None, :])
        g_max = g.max(axis=1)
        past_peak = np.arange(v.size)[None, :] > np.argmax(g, axis=1)[:, None]
        dropped = past_peak & (n_min * (g - g_max[:, None]) < -45.0)
        if np.all(dropped.any(axis=1)):
            return float(v[np.argmax(dropped, axis=1)].max())
        probe_hi *= 2.0
        if probe_hi > 1e4:
            raise BracketError("envelope failed to decay below the quadrature cut")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=hst.floats(0.05, 1e4),
       x=hst.one_of(hst.just(0.0), hst.floats(1e-8, 1e4)),
       u_sq=hst.lists(hst.floats(0.0, 400.0), min_size=1, max_size=4),
       n_min=hst.sampled_from([4, 8, 20]))
@example(n=10.0, x=0.5, u_sq=[0.0, 2.0], n_min=4)      # monotone in u
@example(n=10.0, x=15.0, u_sq=[0.0, 212.0], n_min=4)   # peaked, on the ridge
@example(n=30.0, x=3e4, u_sq=[0.0], n_min=4)           # widens past 48
@example(n=10.0, x=3000.0, u_sq=[0.0, 212.0], n_min=4)  # u^2 = 0 unsettled
@example(n=30.0, x=3e4, u_sq=[400.0, 0.0], n_min=4)     # split, then widens
def test_envelope_cut_matches_dense_scan(n, x, u_sq, n_min):
    state = ReducedState.from_nx(n, x)
    assert wg._auto_v_max(state, u_sq, n_min) == _dense_v_max(state, u_sq,
                                                               n_min)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=hst.floats(0.05, 1e4),
       x=hst.one_of(hst.just(0.0), hst.floats(1e-8, 1e4)),
       u_sq=hst.lists(hst.floats(0.0, 400.0), min_size=1, max_size=4),
       n_min=hst.sampled_from([4, 8, 20]))
def test_envelope_cut_first_pass_settles_rows_with_s_nonnegative(n, x, u_sq,
                                                                n_min):
    # Fv(s*) >= 1 at a peak with s* >= 0 puts the cut at v <= 3.67, inside
    # the first pass's 96 indices, whatever the rest of the row does
    state = ReducedState.from_nx(n, x)
    u_sq = np.asarray(u_sq)
    v = np.linspace(1e-3, 48.0, 1025)
    near = v[:wg._PROBE_NEAR]
    g = np.log(near) + dm.ln_d_many(state, u_sq[:, None], near * near)
    peak, cut, settled = wg._peak_and_cut(g, n_min)
    s_peak = sd.solve_saddle_uv_many(state, u_sq, v[peak] ** 2).s
    assert np.all(settled[s_peak >= 0.0])
    assert np.all(cut[s_peak >= 0.0] <= 80)


def _spy_ln_d(monkeypatch, fake=None):
    """Record the element count of every ln_d_many call."""
    sizes = []
    real = fake or dm.ln_d_many

    def spy(state, u_sq, v_sq):
        sizes.append(np.broadcast(u_sq, v_sq).size)
        return real(state, u_sq, v_sq)

    monkeypatch.setattr(dm, "ln_d_many", spy)
    return sizes


@pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 15.0, 3000.0])
def test_envelope_cut_probe_budget(monkeypatch, x):
    # over the u range of the fig5 and fig7 states: the first pass of 96
    # indices settles every row up to x = 15; at x = 3000 the rows near
    # u = 0 go on to the 30 coarse points above it and the two windows
    # (126), and the rows near the ridge do not
    st = ReducedState.from_nx(10.0, x)
    u_sq = np.linspace(0.0, 1.5 * max(1.0, dm.ridge_u(st)), 101) ** 2
    sizes = _spy_ln_d(monkeypatch)
    wg._auto_v_max(st, u_sq, 4)
    if x <= 15.0:
        assert sizes == [96 * u_sq.size]
    else:
        assert len(sizes) <= 3 and sizes[0] == 96 * u_sq.size
        assert sum(sizes) <= (96 + 30 + 126) * u_sq.size
        assert sizes[1] < 30 * u_sq.size


def _spike(slope):
    """ln d whose g = ln v + ln d is a spike of height 8 and width 0.1
    midway between two coarse points, on a slope falling away from it."""
    v0 = np.linspace(1e-3, 48.0, 1025)[336]

    def fake(state, u_sq, v_sq):
        v = np.sqrt(v_sq) + 0.0 * u_sq
        return (-np.log(v) - slope * np.abs(v - v0)
                + 8.0 * np.exp(-((v - v0) / 0.1) ** 2))
    return fake


def test_envelope_cut_scans_rows_the_windows_miss(monkeypatch):
    # on a slope of 1: the first pass ends on the rise, the coarse maximum
    # sits 8.75 below the true one, so the coarse drop lands ~9 past the
    # cut, below the drop window; the row is then scanned whole, each point
    # solved once, and still gives the dense cut
    st = ReducedState.from_nx(10.0, 1.0)
    sizes = _spy_ln_d(monkeypatch, _spike(1.0))
    got = wg._auto_v_max(st, [1.0], 4)
    assert len(sizes) == 4 and sum(sizes) == 1025
    assert got == _dense_v_max(st, [1.0], 4)


def test_envelope_cut_waits_for_the_true_peak(monkeypatch):
    # on a slope of 0.2, g(48) is 6.3 below the coarse maximum, short of
    # the drop of 45/4, but 14.45 below the spike: the row must not settle
    # while its peak's neighbours are unsampled, or the range would widen;
    # the peak window finds the spike, and the cut lands at v ~ 32
    st = ReducedState.from_nx(10.0, 1.0)
    sizes = _spy_ln_d(monkeypatch, _spike(0.2))
    got = wg._auto_v_max(st, [1.0], 4)
    assert len(sizes) == 4 and sum(sizes) == 1025
    assert got == _dense_v_max(st, [1.0], 4) < 48.0


# ---------------------------------------------------------------------------
# physical projections


def test_projection_matches_tilted_gaussian():
    # x = 0 with R != 0: both modes must reproduce the exact Gaussian
    # Wigner function of the correlators, including the tilt
    sq = wg.SqueezeParams(n=1.0, gamma=0.9, phi=1.1)
    m = sq.moments()
    det = m.F * m.K - m.R * m.R
    rho = m.R / m.F
    phi = np.linspace(-1.2, 1.2, 9)
    pi = np.linspace(-0.9, 0.9, 9)
    big_p, big_q = np.meshgrid(phi, pi, indexing="ij")
    for mode, exact in [
        (wg.ProjectionMode.PARA,
         -m.F * (big_q - rho * big_p) ** 2 / (2 * det) - big_p ** 2 / (2 * m.F)),
        (wg.ProjectionMode.PERP,
         -m.F * (big_q ** 2 + (rho * big_p) ** 2) / (2 * det) - big_p ** 2 / (2 * m.F)),
    ]:
        proj = wg.project_physical(sq, 0.0, mode, phi, pi, (4, 6, 8, 10))
        err = np.abs(proj.ln_w_norm - (exact - exact.max()))
        if mode is wg.ProjectionMode.PARA:
            # the two corners of largest r (N r^2/4 = 28 at N = 10): there
            # |int E J| / int |E J| = 5e-9, so rounding leaves ~5e-9 in
            # ln w_10, which the extrapolation weight 12.5 carries over
            corners = (np.array([0, -1]), np.array([-1, 0]))
            assert err[corners].max() < 1e-7
            err[corners] = 0.0
        assert err.max() < 1e-8
        assert proj.mode is mode


def test_projection_modes_coincide_without_tilt():
    sq = wg.SqueezeParams(n=1.0, gamma=0.9, phi=0.0)  # R = 0
    phi = np.linspace(-1.2, 1.2, 7)
    pi = np.linspace(-0.9, 0.9, 7)
    pa = wg.project_physical(sq, 0.0, wg.ProjectionMode.PARA, phi, pi, (4, 6, 8, 10))
    pe = wg.project_physical(sq, 0.0, wg.ProjectionMode.PERP, phi, pi, (4, 6, 8, 10))
    assert np.abs(pa.ln_w_norm - pe.ln_w_norm).max() < 1e-12


def test_projection_physical_widths():
    # x >> n^2 and isotropic correlators F = K = n + 1/2: the physical
    # position width approaches F/(12 n^2) and the momentum width K
    n, x = 10.0, 3000.0
    st = ReducedState.from_nx(n, x)
    fit = dm.peak_fit(st)
    big_f = n + 0.5
    big_a = st.kappa * big_f
    du = math.sqrt(fit.delta_u_sq)
    us = fit.u0 + du * np.linspace(-0.5, 0.5, 5)
    lnw = [wg.ln_w(st, uu * uu, 0.0)[0] for uu in us]
    curv = np.polyfit(us - fit.u0, lnw, 2)[0]
    delta_phi_sq = big_a * (-1.0 / (2.0 * curv))
    assert delta_phi_sq == pytest.approx(big_f / (12.0 * n * n), rel=0.05)
    r_vals = np.array([0.0, 0.4, 0.8, 1.2])
    lnw_r = [wg.ln_w(st, fit.u0 ** 2, r * r)[0] for r in r_vals]
    slope = np.polyfit(r_vals ** 2, lnw_r, 1)[0]
    delta_pi_sq = (-1.0 / (2.0 * slope)) / (4.0 * big_a)
    assert delta_pi_sq == pytest.approx(n + 0.5, rel=0.05)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(n=hst.floats(0.05, 20.0), gamma=hst.floats(0.0, 0.95),
       angle=hst.floats(0.0, 6.28), x=hst.floats(0.0, 40.0),
       mode=hst.sampled_from(list(wg.ProjectionMode)))
def test_projection_finite_or_typed(n, gamma, angle, x, mode):
    sq = wg.SqueezeParams(n=n, gamma=gamma, phi=angle)
    try:
        proj = wg.project_physical(sq, x, mode, np.linspace(-1.0, 1.0, 3),
                                   np.linspace(-0.5, 0.5, 3),
                                   (4, 6, 8, 10))
    except NgStateError:
        return
    assert np.all(np.isfinite(proj.ln_w_norm)) and math.isfinite(proj.ln_w_max)
    assert np.all(np.isfinite(proj.spread))


def test_projection_input_validation():
    sq = wg.SqueezeParams(n=1.0, gamma=0.0, phi=0.0)
    with pytest.raises(ValueError):
        wg.project_physical(sq, 0.0, wg.ProjectionMode.PARA,
                            np.zeros((2, 2)), np.array([0.0]))


def _project(mode):
    sq = wg.SqueezeParams(n=1.0, gamma=0.0, phi=0.0)
    return lambda st, phi, pi: wg.project_physical(sq, 0.0, mode, phi, pi)


_AXES = pytest.mark.parametrize("grid, axis", [
    (dm.d_surface, "u"), (dm.d_surface, "v"),
    (wg.wigner_grid, "u"), (wg.wigner_grid, "r"),
    (_project(wg.ProjectionMode.PARA), "phi"), (_project(wg.ProjectionMode.PERP), "pi"),
], ids=["d_surface-u", "d_surface-v", "wigner_grid-u", "wigner_grid-r",
        "project_physical-phi", "project_physical-pi"])


def _with_axis(axis, values):
    """(first, second) grid axes with the named one set to values."""
    return (values, [0.0, 0.5]) if axis in ("u", "phi") else ([0.0, 0.5], values)


@_AXES
def test_empty_axis_is_refused_by_name(grid, axis):
    # numpy's own message ("zero-size array to reduction ...") names no axis
    with pytest.raises(ValueError, match=rf"^{axis} axis is empty"):
        grid(ReducedState.from_nx(1.0, 1.0), *_with_axis(axis, []))


@_AXES
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_axis_is_refused_by_name(grid, axis, bad):
    # densmat.grid_axes is the one finiteness check of every grid
    with pytest.raises(ValueError, match=rf"^{axis} values must be finite"):
        grid(ReducedState.from_nx(1.0, 1.0), *_with_axis(axis, [0.5, bad]))
