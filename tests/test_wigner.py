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
    with pytest.raises(ValueError, match="n must be finite"):
        wg.SqueezeParams(n=math.inf, gamma=0.1, phi=0.0)
    # n = 0 has no reduced state: refused here, not by project_physical
    with pytest.raises(ValueError, match="n must be finite and > 0"):
        wg.SqueezeParams(n=0.0, gamma=0.5, phi=0.0)
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


@pytest.mark.parametrize("u_sq,r_sq", [
    (-1.0, 0.0),                          # above the oracle's own maximum
    (0.0, math.inf),                      # read -inf
    (math.nan, 0.0),
    (np.array([0.0, 1.0]), np.array([0.5, -0.1])),
    (np.array([[0.0], [math.nan]]), np.array([0.0, 1.0])),
])
def test_gaussian_oracle_refuses_bad_coordinates(u_sq, r_sq):
    with pytest.raises(ValueError, match="u_sq and r_sq"):
        wg.ln_w_gaussian_exact(gaussian_state(), u_sq, r_sq)


def test_gaussian_oracle_keeps_its_types():
    st = gaussian_state()
    top = wg.ln_w_gaussian_exact(st, 0.0, 0.0)
    assert isinstance(top, np.float64)
    assert top == math.log(2.0 / 21.0)
    grid = wg.ln_w_gaussian_exact(st, np.array([0.0, 1.0])[:, None],
                                  np.array([0.0, 2.0, 3.0]))
    assert grid.shape == (2, 3) and grid[0, 0] == top


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
    assert window["v_max"] == default.v_max == wg._auto_v_max(st, u * u)


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


@pytest.mark.parametrize("nx, r_size, chunk", [
    ((10.0, 15.0), 101, None),  # fig5-sized: 100 positive r, 4 x 38,400 entries
    ((10.0, 1.0), 5, None),     # 4 r x 384 nodes: two such tables fit a chunk
    ((10.0, 1.0), 5, 8),        # the kernel's chunk does not size the call
], ids=["fig5", "5x5", "chunk8"])
def test_a_block_fills_its_rows_in_one_kernel_call(monkeypatch, nx, r_size, chunk):
    # every N's missing rows of a block go to one call, whatever its size;
    # a kernel chunk of 8 elements changes neither the call nor a bit
    st, u, r = ReducedState.from_nx(*nx), np.linspace(0.0, 3.0, 5), np.linspace(0.0, 2.0, r_size)
    want = wg.wigner_grid(st, u, r)
    calls = _spy_bessel(monkeypatch)
    if chunk:
        monkeypatch.setattr(wg._sf, "_BESSEL_CHUNK", chunk)
    grid = wg.wigner_grid(st, u, r)
    assert r_size * grid.quad_points <= wg._TABLE_ELEMS  # one block
    assert calls == [[(N // 2 - 1, r_size - 1) for N in wg.N_LIST]]
    assert grid.ln_w_norm.tobytes() == want.ln_w_norm.tobytes()
    assert grid.spread.tobytes() == want.spread.tobytes()


def _grouped_rows(n_list, r_key, v, per_call):
    """The rows (N, r) -> J_{N/2-1}(N r v), per_call N to a kernel call,
    each argument row built on its own: the reference for _fill_bessel."""
    rows = {}
    for at in range(0, len(n_list), per_call):
        todo = [(N, r) for N in n_list[at:at + per_call] for r in r_key]
        arg = np.array([N * (r * v) for N, r in todo])
        rows.update(zip(todo, wg._sf._bessel_rows([N // 2 - 1 for N, _ in todo], arg)))
    return rows


def test_a_block_is_the_same_bits_from_any_call():
    # one call for the block, one per N, two N a call, and an earlier
    # call's memo with half the rows all give each row the same bits
    v, _ = wg._gl_mesh(3.7, 24)
    r_key = np.linspace(0.02, 2.0, 7).tolist()
    one = {}
    wg._fill_bessel(wg.N_LIST, r_key, v, one)
    memo = _grouped_rows(wg.N_LIST[::2], r_key[::2], v, 4)
    kept = dict(memo)
    wg._fill_bessel(wg.N_LIST, r_key, v, memo)
    assert all(memo[key] is row for key, row in kept.items())  # found, not rebuilt
    for rows in (memo, *(_grouped_rows(wg.N_LIST, r_key, v, k) for k in (1, 2))):
        assert sorted(rows) == sorted(one)
        assert all(rows[key].tobytes() == one[key].tobytes() for key in one)


def test_bessel_blocks_match_one_table(monkeypatch):
    # a table cut into blocks gives the values of the single table
    one = _symmetric_projection((4, 8, 12, 16))
    calls = _spy_bessel(monkeypatch)
    monkeypatch.setattr(wg, "_TABLE_ELEMS", 2 * one.quad_points)
    blocked = _symmetric_projection((4, 8, 12, 16))
    assert [rows for call in calls for order, rows in call if order == 1] == [2, 1]
    np.testing.assert_allclose(blocked.ln_w_norm, one.ln_w_norm,
                               rtol=0.0, atol=1e-12)


def _spy_rows(monkeypatch):
    """Record each Bessel row the engine builds, as (order, argument row),
    and each u^2 whose ln d row an assembly solves: the assembly passes
    v^2 as one row of the mesh, the envelope probe as a 1-D array."""
    built = {"bessel": [], "ln_d": []}
    bessel, ln_d = wg._sf._bessel_rows, wg._dm.ln_d_many

    def spy_bessel(orders, argument):
        built["bessel"] += [(order, row.tobytes()) for order, row in zip(orders, argument)]
        return bessel(orders, argument)

    def spy_ln_d(state, u_sq, v_sq):
        if np.ndim(v_sq) == 2:
            built["ln_d"] += np.ravel(u_sq).tolist()
        return ln_d(state, u_sq, v_sq)

    monkeypatch.setattr(wg._sf, "_bessel_rows", spy_bessel)
    monkeypatch.setattr(wg._dm, "ln_d_many", spy_ln_d)
    return built


def _pair_projections(memo, phi=np.linspace(-1.0, 1.0, 9)):
    """The para and perp projections of one untilted squeeze (rho = 0), so
    both see the same state, u^2 rows and mesh."""
    sq = wg.SqueezeParams(n=10.0, gamma=0.5, phi=0.0)
    pi = np.array([-0.2, -0.1, 0.0, 0.1, 0.2])
    return [wg.project_physical(sq, 15.0, mode, phi, pi, (8, 12, 16, 20), memo=memo)
            for mode in (wg.ProjectionMode.PARA, wg.ProjectionMode.PERP)]


def test_memo_shares_rows_of_a_para_perp_pair(monkeypatch):
    # the symmetric phi axis of 9 points has 5 distinct u^2: a projection
    # solves 5 ln d rows, not 9, and a pair sharing a memo solves them
    # once; a second pair finds every ln d and Bessel row in the memo
    built = _spy_rows(monkeypatch)
    alone = _pair_projections(None)
    assert len(built["ln_d"]) == 2 * 5
    del built["ln_d"][:], built["bessel"][:]
    memo = {}
    shared = _pair_projections(memo)
    assert len(built["ln_d"]) == len(set(built["ln_d"])) == 5
    assert len(built["bessel"]) == len(set(built["bessel"]))
    once = {key: list(rows) for key, rows in built.items()}
    again = _pair_projections(memo)
    assert built == once
    for a, b in zip(alone + alone, shared + again):
        assert a.ln_w_norm.tobytes() == b.ln_w_norm.tobytes()
        assert a.spread.tobytes() == b.spread.tobytes()
        assert (a.ln_w_max, a.quad_points, a.v_max) == (b.ln_w_max, b.quad_points, b.v_max)


def test_calls_without_a_memo_share_nothing(monkeypatch):
    # each call builds its rows anew; a memo spares the second call all
    # of them, and keeps the rows of the most recent state's mesh only
    st = ReducedState.from_nx(10.0, 1.0)
    u, r = np.linspace(0.0, 3.0, 4), np.linspace(0.0, 2.0, 5)
    built = _spy_rows(monkeypatch)
    first = wg.wigner_grid(st, u, r)
    once = {key: list(rows) for key, rows in built.items()}
    assert len(once["bessel"]) == 4 * 4 and len(once["ln_d"]) == 4
    second = wg.wigner_grid(st, u, r)
    assert built == {key: rows * 2 for key, rows in once.items()}
    memo = {}
    for _ in range(2):
        shared = wg.wigner_grid(st, u, r, memo=memo)
        assert shared.ln_w_norm.tobytes() == first.ln_w_norm.tobytes()
    assert built == {key: rows * 3 for key, rows in once.items()}
    assert second.ln_w_norm.tobytes() == first.ln_w_norm.tobytes()
    assert sorted(memo) == ["bessel", "ln_d"]
    assert memo["ln_d"][0] == (st, (first.v_max, first.quad_points // 16))
    wg.wigner_grid(ReducedState.from_nx(10.0, 2.0), u, r, memo=memo)
    assert memo["ln_d"][0][0] == ReducedState.from_nx(10.0, 2.0)


def test_without_a_memo_a_block_keeps_only_its_own_rows(monkeypatch):
    # blocks of two r: without a memo each block's Bessel rows are held in
    # a dict of their own, freed with the block, so a call's table memory
    # stays one block's; a memo holds the rows of every block
    held = []
    real = wg._fill_bessel

    def spy(n_list, r_key, v, rows):
        held.append(rows)
        return real(n_list, r_key, v, rows)

    monkeypatch.setattr(wg, "_fill_bessel", spy)
    monkeypatch.setattr(wg, "_TABLE_ELEMS", 2 * 384)
    st = ReducedState.from_nx(10.0, 1.0)
    u, r = np.linspace(0.0, 3.0, 5), np.linspace(0.0, 2.0, 9)
    alone = wg.wigner_grid(st, u, r)
    assert alone.quad_points == 384
    assert [len(rows) for rows in held] == [4 * 2] * 4
    del held[:]
    shared = wg.wigner_grid(st, u, r, memo={})
    assert len({id(rows) for rows in held}) == 1 and len(held[0]) == 4 * 8
    assert shared.ln_w_norm.tobytes() == alone.ln_w_norm.tobytes()


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
        wg._auto_v_max(ReducedState.from_nx(10.0, 1.0), 1.0)


def _dense_v_max(state, u_sq):
    """Reference envelope cut: g = ln v + ln d on all 1025 probe points,
    cut where the N = 4 envelope exp(4 (g - g_max)) falls below e^-45."""
    u_sq = np.atleast_1d(np.asarray(u_sq, dtype=float))
    probe_hi = 48.0
    while True:
        v = np.linspace(1e-3, probe_hi, 1025)
        g = np.log(v)[None, :] + dm.ln_d_many(state, u_sq[:, None],
                                              (v * v)[None, :])
        g_max = g.max(axis=1)
        past_peak = np.arange(v.size)[None, :] > np.argmax(g, axis=1)[:, None]
        dropped = past_peak & (4.0 * (g - g_max[:, None]) < -45.0)
        if np.all(dropped.any(axis=1)):
            return float(v[np.argmax(dropped, axis=1)].max())
        probe_hi *= 2.0
        if probe_hi > 1e4:
            raise BracketError("envelope failed to decay below the quadrature cut")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=hst.floats(0.05, 1e4),
       x=hst.one_of(hst.just(0.0), hst.floats(1e-8, 1e4)),
       u_sq=hst.lists(hst.floats(0.0, 400.0), min_size=1, max_size=8))
@example(n=10.0, x=0.5, u_sq=[0.0, 2.0])      # monotone in u
@example(n=10.0, x=15.0, u_sq=[0.0, 212.0])   # peaked, on the ridge
@example(n=30.0, x=3e4, u_sq=[0.0])           # widens past 48
@example(n=10.0, x=3000.0, u_sq=[0.0, 212.0])  # u^2 = 0 unsettled
@example(n=30.0, x=3e4, u_sq=[400.0, 0.0])     # split, then widens
def test_envelope_cut_matches_dense_scan(n, x, u_sq):
    state = ReducedState.from_nx(n, x)
    assert wg._auto_v_max(state, u_sq) == _dense_v_max(state, u_sq)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=hst.floats(0.05, 1e4),
       x=hst.one_of(hst.just(0.0), hst.floats(1e-8, 1e4)),
       u_sq=hst.lists(hst.floats(0.0, 400.0), min_size=1, max_size=4))
def test_envelope_cut_first_pass_settles_rows_with_s_nonnegative(n, x, u_sq):
    # Fv(s*) >= 1 at a peak with s* >= 0 puts the cut at v <= 3.67: such a
    # row settles in its first solve of 96 indices, whatever the rest of
    # the row does
    state = ReducedState.from_nx(n, x)
    v = np.linspace(1e-3, 48.0, 1025)
    for u in u_sq:
        with pytest.MonkeyPatch.context() as mp:
            sizes = _spy_ln_d(mp)
            (peak,), (cut,) = wg._settle(state, np.array([u]), np.log(v), v * v)
        if sd.solve_saddle_uv_many(state, u, v[peak] ** 2).s >= 0.0:
            assert sizes == [wg._PROBE_NEAR] and cut <= 80


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
    # over the u range of the fig5 and fig7 states: only u = 0 is settled,
    # and every other u is checked at its peak and cut in one call of two
    # per row.  Its first prefix of 96 indices settles it up to x = 15; at
    # x = 3000 (peak 287, cut 440) the prefix grows 96 at a time to 480
    st = ReducedState.from_nx(10.0, x)
    u_sq = np.linspace(0.0, 1.5 * max(1.0, dm.ridge_u(st)), 101) ** 2
    sizes = _spy_ln_d(monkeypatch)
    wg._auto_v_max(st, u_sq)
    if x <= 15.0:
        assert sizes == [96, 200]
    else:
        settle = sizes[:-1]
        assert sizes[-1] == 200 and 1 < len(settle) <= 5 and set(settle) == {96}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=hst.floats(0.05, 1e4),
       x=hst.one_of(hst.just(0.0), hst.floats(1e-8, 1e4)),
       u_sq=hst.lists(hst.floats(0.0, 400.0), min_size=2, max_size=6))
@example(n=10.0, x=3000.0, u_sq=[0.0, 1.0, 212.0])  # s* < 0 near u = 0
def test_dense_cut_is_non_increasing_in_u(n, x, u_sq):
    # the premise of the probe's two-sample check: dg/dv = 1/v - 2v Fv(s*)
    # falls as u^2 raises s*, so a larger u^2 peaks and cuts no later
    state = ReducedState.from_nx(n, x)
    cuts = [_dense_v_max(state, [u]) for u in sorted(u_sq)]
    assert all(b <= a for a, b in zip(cuts, cuts[1:]))


def test_envelope_cut_settles_rows_that_fail_the_check(monkeypatch):
    # on a fake ln d whose g = ln v - 2 v^2 / (1 + u^2) peaks at
    # v = sqrt(1 + u^2) / 2 and cuts 5.18 times further out, later at
    # larger u^2, the two samples of the u^2 = 0 row (cut at index 56)
    # cannot bound the others: both are settled together, and the cut is
    # still the dense scan's
    st = ReducedState.from_nx(10.0, 1.0)
    sizes = _spy_ln_d(monkeypatch, lambda state, u_sq, v_sq:
                      -2.0 * v_sq / (1.0 + u_sq))
    got = wg._auto_v_max(st, [4.0, 0.0, 1.0, 4.0])
    assert sizes[:3] == [96, 4, 2 * 96]
    assert got == _dense_v_max(st, [0.0, 1.0, 4.0]) > _dense_v_max(st, [0.0])


def _spike(slope):
    """ln d whose g = ln v + ln d is a spike of height 8 and width 0.1 at
    index 336 of the first probe grid, on a slope falling away from it."""
    v0 = np.linspace(1e-3, 48.0, 1025)[336]

    def fake(state, u_sq, v_sq):
        v = np.sqrt(v_sq) + 0.0 * u_sq
        return (-np.log(v) - slope * np.abs(v - v0)
                + 8.0 * np.exp(-((v - v0) / 0.1) ** 2))
    return fake


def test_envelope_cut_grows_the_prefix_to_a_late_peak(monkeypatch):
    # on a slope of 1: g rises to the spike at index 336 and drops 45/4
    # below it at index 406, so the prefix grows in five solves of 96, each
    # point solved once, and gives the dense cut
    st = ReducedState.from_nx(10.0, 1.0)
    sizes = _spy_ln_d(monkeypatch, _spike(1.0))
    got = wg._auto_v_max(st, [1.0])
    assert sizes == [96] * 5
    assert got == _dense_v_max(st, [1.0])


def test_envelope_cut_waits_for_the_true_peak(monkeypatch):
    # on a slope of 0.2, g(48) is 6.3 below the slope's top, short of the
    # drop of 45/4, but 14.45 below the spike: the cut is measured from the
    # spike, at index 683 (v ~ 32), so the prefix grows in eight solves
    st = ReducedState.from_nx(10.0, 1.0)
    sizes = _spy_ln_d(monkeypatch, _spike(0.2))
    got = wg._auto_v_max(st, [1.0])
    assert sizes == [96] * 8
    assert got == _dense_v_max(st, [1.0]) < 48.0


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
