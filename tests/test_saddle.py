"""Solver contracts: residuals, uniqueness, branch logic, vectorization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ngstate import ReducedState, purity
from ngstate import cli, saddle
from ngstate import specfun as sf
from ngstate.errors import BracketError


def gap_residual(state, s, kernel):
    return (s - state.z0_sq) / state.xi - 1.0 / kernel(s)


def residual_bound(state, s):
    """The SaddleSolution.residual contract: 1e-12 plus what two ulps of s
    change in the scaled left-hand side."""
    scale = np.maximum(1.0, np.abs((s - state.z0_sq) / state.xi))
    return 1e-12 + 2.0 * np.spacing(np.abs(s)) / state.xi / scale


def test_solve_gap_self_consistency():
    # the construction pins the solution at ln(1+1/n)^2 for every x
    for n, x in [(1.0, 5.0), (0.1, 0.5), (10.0, 15.0), (10.0, 1000.0)]:
        st = ReducedState.from_nx(n, x)
        sol = saddle.solve_trace_raw(st.z0_sq, st.xi, sf.h_trace)
        assert sol.s == pytest.approx(st.z_gauss ** 2, rel=1e-12)
        assert abs(sol.residual) < 1e-12
        assert sol.s > 0.0


def test_solve_gap_negative_bare_frequency():
    st = ReducedState.from_nx(2.0, 3.0)  # z0_sq < 0 once x > 1/2
    assert st.z0_sq < 0
    sol = saddle.solve_trace_raw(st.z0_sq, st.xi, sf.h_trace)
    assert sol.s > 0
    assert abs(gap_residual(st, sol.s, sf.h_trace)) < 1e-10


def test_solve_gap_tilde_orders():
    for n, x in [(0.1, 0.5), (1.0, 5.0), (10.0, 15.0), (100.0, 1.0)]:
        st = ReducedState.from_nx(n, x)
        sol = saddle.solve_trace_raw(st.z0_sq, st.xi, sf.h2)
        assert 0 < sol.s < st.z_gauss ** 2  # tilde frequency always drops
        lhs = (sol.s - st.z0_sq) / st.xi
        assert abs(gap_residual(st, sol.s, sf.h2)) < 1e-12 * max(1.0, abs(lhs))
        assert abs(sol.residual) < 1e-12
        n_tilde = 1.0 / math.expm1(math.sqrt(sol.s))
        assert n_tilde > n


def test_solve_gap_tilde_large_n_quadratic_limit():
    st = ReducedState.from_nx(100.0, 1.0)
    sol = saddle.solve_trace_raw(st.z0_sq, st.xi, sf.h2)
    n_tilde = 1.0 / math.expm1(math.sqrt(sol.s))
    # golden-ratio value of the limiting quadratic at x = 1
    assert n_tilde / 100.0 == pytest.approx(math.sqrt(1.6180339887498949), rel=2e-3)


def test_batched_trace_solve_matches_single_solves():
    rng = np.random.default_rng(7)
    n = 10.0 ** rng.uniform(-3.0, 3.0, saddle._BLOCK + 404)
    x = 10.0 ** rng.uniform(-6.0, 6.0, n.size)
    states = [ReducedState.from_nx(a, b) for a, b in zip(n, x)]
    z0_sq = np.array([st.z0_sq for st in states])
    xi = np.array([st.xi for st in states])
    for kernel in (sf.h2, sf.h_trace):
        sol = saddle.solve_trace_raw(z0_sq, xi, kernel)
        assert sol.s.shape == sol.residual.shape == sol.iterations.shape == n.shape
        assert np.all(sol.s > 0.0)
        scale = np.maximum(1.0, np.abs((sol.s - z0_sq) / xi))
        assert np.all(np.abs(sol.residual)
                      <= 1e-12 + 2.0 * np.spacing(sol.s) / xi / scale)
        # a run across the block boundary, solved on its own from index 0
        part = slice(saddle._BLOCK - 300, None)
        alone = saddle.solve_trace_raw(z0_sq[part], xi[part], kernel)
        assert np.array_equal(alone.s, sol.s[part])
        assert np.array_equal(alone.iterations, sol.iterations[part])
        for i in [*range(0, n.size, 97), saddle._BLOCK, n.size - 1]:
            one = saddle.solve_trace_raw(z0_sq[i], xi[i], kernel)
            assert type(one.s) is float and type(one.iterations) is int
            assert (one.s, one.residual, one.iterations) == (
                sol.s[i], sol.residual[i], sol.iterations[i]), i
        # 2-D input keeps its shape and broadcasts a scalar xi
        grid = saddle.solve_trace_raw(z0_sq[:6].reshape(2, 3), xi[0], kernel)
        assert grid.s.shape == (2, 3)
    with pytest.raises(ValueError):  # xi > 0 is checked element by element
        saddle.solve_trace_raw([0.5, 0.5], [1.0, 0.0])


@pytest.mark.parametrize("n, x, most", [
    # root ~3e-290, far below max(s0, z0_sq + xi/kernel(s0)) ~ 1: the
    # closed-form upper end from 1/kernel(s) <= 2/s + 1/3 spares the ~950
    # linear bisections down to it
    (4.2e144, 1.4e272, 20),
    # z0_sq ~ -1.3e308: q + |b| in that cap overflows unless halved, and a
    # zero cap leaves the upper end at lo, climbing a double at a time
    (0.5, 5.4e307, 20),
    # xi ~ 1.6e308: 2 xi in the lower end overflows unless halved (NaN);
    # the root (~85) is far below that cap (~4e307) but not the one from
    # 1/kernel(s) <= 2/s + 1/sqrt(s) at -z0_sq/xi > 0
    (1e-4, 1e305, 20),
    # small n at huge x: -z0_sq/xi < 1/3, so the first cap ~ |z0_sq| ~ 1e202
    # sat far above the root (~48) and linear bisection took ~675 steps
    (1e-3, 1e200, 20),
    # h2 root ~1e-307, below the smallest normal double: the search must
    # go on into the subnormals to meet the residual contract
    (2.2458580377286905e153, 3.806654343036798e293, 20),
])
def test_trace_bracket_ends(n, x, most):
    st = ReducedState.from_nx(n, x)
    for kernel in (sf.h_trace, sf.h2):
        sol = saddle.solve_trace_raw(st.z0_sq, st.xi, kernel)
        assert sol.iterations <= most, kernel
        assert abs(sol.residual) <= residual_bound(st, sol.s), kernel
    assert 0.0 < purity(st).p <= 1.0


def test_solve_trace_raw_validation():
    with pytest.raises(ValueError):
        saddle.solve_trace_raw(0.5, 0.0)
    # the shared root-finder refuses ends without a sign change
    with pytest.raises(BracketError):
        saddle._find_root(lambda s: s - 2.0, np.array([3.0]), np.array([4.0]))


def test_saddle_uv_center_point():
    st = ReducedState.from_nx(10.0, 15.0)
    sol = saddle.solve_saddle_uv_many(st, 0.0, 0.0)
    assert sol.s < 0.0  # on the imaginary continuation
    assert sol.s == pytest.approx(-0.26301717967147564, rel=1e-10)
    assert abs(sol.residual) < 1e-12


def test_saddle_uv_gaussian_limit():
    st = ReducedState.from_nx(10.0, 0.0)
    for u_sq, v_sq in [(0.0, 0.0), (3.0, 1.0), (50.0, 4.0)]:
        sol = saddle.solve_saddle_uv_many(st, u_sq, v_sq)
        assert sol.s == st.z0_sq


def test_saddle_uv_zero_crossing_on_peak_locus():
    st = ReducedState.from_nx(10.0, 15.0)
    for v_sq in (0.0, 10.0, 60.0):
        u_c_sq = -st.z0_sq / st.xi - 1.0 / 3.0 - v_sq / 3.0
        assert u_c_sq > 0
        sol = saddle.solve_saddle_uv_many(st, u_c_sq, v_sq)
        assert abs(sol.s) < 1e-10
        assert saddle.solve_saddle_uv_many(st, u_c_sq + 1e-6, v_sq).s > 0
        assert saddle.solve_saddle_uv_many(st, u_c_sq - 1e-6, v_sq).s < 0


def test_saddle_uv_real_branch_condition():
    st = ReducedState.from_nx(10.0, 15.0)
    thresh = -st.z0_sq / st.xi
    for u_sq, v_sq in [(0.0, 0.0), (100.0, 30.0), (250.0, 0.0), (0.0, 700.0)]:
        sol = saddle.solve_saddle_uv_many(st, u_sq, v_sq)
        real_expected = (1.0 / 3.0 + u_sq + v_sq / 3.0) >= thresh
        assert (sol.s >= 0) == real_expected


def test_saddle_uv_uniqueness_scan():
    rng = np.random.default_rng(20240811)
    for _ in range(100):
        n = float(rng.uniform(0.05, 30.0))
        x = float(rng.uniform(0.01, 40.0))
        u_sq = float(rng.uniform(0.0, 50.0))
        v_sq = float(rng.uniform(0.0, 20.0))
        st = ReducedState.from_nx(n, x)
        # scan past the solver's own root so the crossing is inside the grid
        sol = saddle.solve_saddle_uv_many(st, u_sq, v_sq)
        assert abs(sol.residual) <= residual_bound(st, sol.s), (n, x, u_sq, v_sq)
        s_root = sol.s
        hi = max(60.0, 2.0 * abs(s_root) + 10.0)
        grid = np.linspace(-math.pi ** 2 + 1e-6, hi, 30001)
        f0, fu, fv = sf.small_f(grid)
        diff = (grid - st.z0_sq) / st.xi - (f0 + fu * u_sq + fv * v_sq)
        signs = np.sign(diff)
        crossings = np.sum(signs[:-1] != signs[1:])
        assert crossings == 1, (n, x, u_sq, v_sq)


def test_saddle_uv_monotone_in_u_and_v():
    st = ReducedState.from_nx(10.0, 15.0)
    u = np.linspace(0.0, 300.0, 40)
    s_u = saddle.solve_saddle_uv_many(st, u, np.zeros_like(u)).s
    assert np.all(np.diff(s_u) > 0)
    v = np.linspace(0.0, 50.0, 40)
    s_v = saddle.solve_saddle_uv_many(st, np.zeros_like(v), v).s
    assert np.all(np.diff(s_v) > 0)


def test_vectorized_matches_scalar():
    st = ReducedState.from_nx(2.0, 7.0)
    u = np.array([0.0, 1.0, 10.0, 100.0])
    v = np.array([0.0, 2.0, 0.5, 30.0])
    s_many = saddle.solve_saddle_uv_many(st, u, v).s
    for i in range(u.size):
        s_one = saddle.solve_saddle_uv_many(st, float(u[i]), float(v[i])).s
        assert s_many[i] == pytest.approx(s_one, rel=1e-13, abs=1e-14)


def test_grid_solve_reports_each_point(tmp_path, capsys):
    # the solver's own g at each root is the residual: no second evaluation,
    # and a grid keeps each point's residual and evaluation count
    st = ReducedState.from_nx(10.0, 15.0)
    u_sq = np.linspace(0.0, 300.0, 9)[:, None]
    v_sq = np.linspace(0.0, 40.0, 5)[None, :]
    sol = saddle.solve_saddle_uv_many(st, u_sq, v_sq)
    assert sol.s.shape == sol.residual.shape == sol.iterations.shape == (9, 5)
    assert sol.iterations.dtype.kind == "i" and np.all(sol.iterations >= 3)
    f0, fu, fv = sf.small_f(sol.s)
    lhs = (sol.s - st.z0_sq) / st.xi
    resid = (lhs - (f0 + fu * u_sq + fv * v_sq)) / np.maximum(1.0, np.abs(lhs))
    assert np.array_equal(sol.residual, resid)
    assert np.all(np.abs(sol.residual) <= residual_bound(st, sol.s))
    one = saddle.solve_saddle_uv_many(st, float(u_sq[4, 0]), float(v_sq[0, 2]))
    assert type(one.s) is float and type(one.iterations) is int
    assert (one.s, one.residual, one.iterations) == (
        sol.s[4, 2], sol.residual[4, 2], sol.iterations[4, 2])
    # the spread tolerance and the quadrature cut have one owner each:
    # the flags that overrode them are gone
    for argv in (["fig5_wigner", "--tol", "1e-3"], ["fig5_wigner", "--v-max", "6"]):
        assert cli.main([*argv, "--out", str(tmp_path / "gone")]) == 2
    assert not (tmp_path / "gone").exists()
    capsys.readouterr()


def test_vectorized_broadcasting_and_validation():
    st = ReducedState.from_nx(1.0, 1.0)
    u = np.linspace(0.0, 5.0, 7)[:, None]
    v = np.linspace(0.0, 2.0, 3)[None, :]
    s = saddle.solve_saddle_uv_many(st, u, v).s
    assert s.shape == (7, 3)
    with pytest.raises(ValueError):
        saddle.solve_saddle_uv_many(st, np.array([-1.0]), np.array([0.0]))
    # a sub-block is bit-identical to the full grid, across solver blocks
    st = ReducedState.from_nx(10.0, 15.0)
    u = np.linspace(0.0, 300.0, 150)[:, None]
    v = np.linspace(0.0, 40.0, 90)[None, :]
    assert u.size * v.size > saddle._BLOCK
    s = saddle.solve_saddle_uv_many(st, u, v).s
    sub = saddle.solve_saddle_uv_many(st, u[41:133], v[:, 7:64]).s
    assert np.array_equal(sub, s[41:133, 7:64])


@pytest.mark.parametrize("n", [0.1, 0.3, 0.5])
def test_nearly_gaussian_roots_keep_the_contract(n):
    # z0_sq + xi*RHS(s0) can round onto or below the root at these xi
    u_sq, v_sq = np.array([0.0, 1.0, 4.0]), np.array([0.0, 2.0, 0.0])
    for x in 10.0 ** np.arange(-16, -7):
        st = ReducedState.from_nx(n, x)
        for kernel in (sf.h_trace, sf.h2):
            sol = saddle.solve_trace_raw(st.z0_sq, st.xi, kernel)
            assert abs(sol.residual) <= residual_bound(st, sol.s), (x, kernel)
        s = saddle.solve_saddle_uv_many(st, u_sq, v_sq).s
        f0, fu, fv = sf.small_f(s)
        lhs = (s - st.z0_sq) / st.xi
        resid = (lhs - (f0 + fu * u_sq + fv * v_sq)) / np.maximum(1.0, np.abs(lhs))
        assert np.all(np.abs(resid) <= residual_bound(st, s)), x
        assert 0.0 < purity(st).p <= 1.0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=hst.floats(0.05, 30.0), x=hst.floats(0.01, 40.0),
       u_sq=hst.floats(0.0, 50.0), v_sq=hst.floats(0.0, 20.0))
def test_saddle_properties(n, x, u_sq, v_sq):
    st = ReducedState.from_nx(n, x)
    u = u_sq + np.array([0.0, 0.5, 1.0])
    s = saddle.solve_saddle_uv_many(st, u, v_sq).s
    f0, fu, fv = sf.small_f(s)
    lhs = (s - st.z0_sq) / st.xi
    resid = (lhs - (f0 + fu * u + fv * v_sq)) / np.maximum(1.0, np.abs(lhs))
    assert np.all(np.abs(resid) <= residual_bound(st, s))
    # s rises with u^2
    assert np.all(np.diff(s) > 0)
    # a point's root does not depend on the points solved alongside it
    for i in range(u.size):
        alone = saddle.solve_saddle_uv_many(st, u[i:i + 1], v_sq).s
        assert alone[0] == s[i]
