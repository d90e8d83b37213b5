"""Solver contracts: residuals, uniqueness, branch logic, vectorization."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ngstate import ReducedState, purity
from ngstate import cli, saddle
from ngstate import densmat as dm
from ngstate import specfun as sf
from ngstate.errors import BracketError, PrecisionLoss
from ngstate.oracle import purity_by_definition
from ngstate.statemap import OperatorParams, moments_from_params


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


@pytest.mark.parametrize("z0_sq, xi, root", [
    (1.0, 1e300, 1e200), (1e10, 1e300, 1e200), (1e154, 1e300, 1e200),
    (1.0, 1e100, 4.641588833612779e66)])
def test_trace_cap_where_xi_dominates(z0_sq, xi, root):
    # the root ~xi^(2/3) lies far below the cap near xi/3, which alone took
    # 85-340 evaluations; max(4, 2 z0_sq, (4 xi)^(2/3)) bounds it, same roots
    for kernel in (sf.h_trace, sf.h2):
        sol = saddle.solve_trace_raw(z0_sq, xi, kernel)
        assert sol.iterations <= 16 and sol.s == root, kernel


def test_solve_trace_raw_validation():
    for z0_sq, xi in [(0.5, 0.0), (math.inf, 1.0), (0.5, math.inf), (math.nan, 1.0)]:
        with pytest.raises(ValueError):
            saddle.solve_trace_raw(z0_sq, xi)
    # the shared root-finder refuses ends without a sign change
    with pytest.raises(BracketError):
        saddle._find_root(lambda s: s - 2.0, np.array([3.0]), np.array([4.0]))


def _spy_on_equations(monkeypatch):
    """Each call of a root-finder's equation, as (s, value), from here on."""
    calls, find = [], saddle._find_root

    def spying(g, *args, **kwargs):
        def spy(s, *p):
            calls.append((s, out := g(s, *p)))
            return out
        return find(spy, *args, **kwargs)
    monkeypatch.setattr(saddle, "_find_root", spying)
    return calls


@pytest.mark.parametrize("block", [2, 3, saddle._BLOCK])
def test_the_live_set_holds_at_most_a_block(monkeypatch, block):
    # more than two blocks of points: at least three pulls into the live set
    monkeypatch.setattr(saddle, "_BLOCK", block)
    calls = _spy_on_equations(monkeypatch)
    st = ReducedState.from_nx(10.0, 1.0)
    u_sq, v_sq = np.random.default_rng(3).uniform(0.0, 100.0, (2, 2 * block + 7))
    sol = saddle.solve_saddle_uv_many(st, u_sq, v_sq)
    assert max(np.size(out) for _, out in calls) <= block
    # the lower end depends on the state alone: one scalar s per pull, beside
    # the pulled points' u^2 and v^2, and never inside an array of s
    lo = calls[0][0]
    pulls = [out.size for s, out in calls if np.ndim(s) == 0 and np.ndim(out)]
    assert np.ndim(lo) == 0 and len(pulls) >= 3 and sum(pulls) == u_sq.size
    assert not any(np.any(s == lo) for s, _ in calls if np.ndim(s))
    assert sol.s.shape == u_sq.shape and np.all(sol.s > lo)
    # refilled once half empty: until the last pull, each step (an array s
    # not at the pulled points' upper ends, right after their lower end)
    # holds more than half a block
    pulled = [i for i, (s, out) in enumerate(calls) if np.ndim(s) == 0 and np.ndim(out)]
    steps = [np.size(s) for i, (s, _) in enumerate(calls[:pulled[-1]])
             if np.ndim(s) and i - 1 not in pulled]
    assert steps and min(steps) > block // 2
    calls.clear()
    saddle.solve_trace_raw(st.z0_sq, u_sq + 1.0)
    assert max(np.size(out) for _, out in calls) <= block


def test_a_bracket_failure_in_a_later_pull_raises(monkeypatch):
    # the first pull solves; a later one holds the points without a sign
    # change, and the message counts them among the points it pulled
    roots = np.linspace(0.05, 0.95, 2 * saddle._BLOCK + 5)
    roots[-3:-1] = 2.0
    with pytest.raises(BracketError, match="no sign change at 2 points"):
        saddle._find_root(lambda s, r: s - r, 0.0, 1.0, roots)
    monkeypatch.setattr(saddle, "_BLOCK", 4)
    with pytest.raises(BracketError, match="no sign change at 2 points"):
        saddle._find_root(lambda s, r: s - r, 0.0, 1.0, roots[-13:])


@pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 0)])
def test_empty_inputs_give_empty_solutions(shape):
    st = ReducedState.from_nx(10.0, 1.0)
    for sol in (saddle.solve_saddle_uv_many(st, np.zeros(shape), 1.0),
                saddle.solve_trace_raw(np.zeros(shape), 1.0)):
        assert sol.s.shape == sol.residual.shape == sol.iterations.shape == shape
    for out in saddle._find_root(lambda s, r: s - r, 0.0, 1.0, np.zeros(shape)):
        assert out.shape == shape


@pytest.mark.parametrize("params", [None, (1e78, 1e78, 0.0, 1.0),
                                    (1e200, 1e200, 0.0, 1.0), (1.0, 1.0, 0.0, 1e308)],
                         ids=["raw-4e154", "params-1e78", "params-1e200", "eta-1e308"])
def test_raw_parameters_solve_or_raise_typed(params):
    # b^2 + 4 xi of the trace bracket overflowed past z0_sq ~ 1.3e154, and
    # z0_sq or xi of an OperatorParams can overflow: each call solves or
    # raises a typed error, with no warning on the way
    if params is None:
        sol = saddle.solve_trace_raw(4e154, 1.0)
        assert sol.s == pytest.approx(4e154, rel=1e-15)
        return
    p = OperatorParams(*params)
    for call in (moments_from_params, purity_by_definition):
        with pytest.raises(PrecisionLoss):
            call(p)


@pytest.mark.parametrize("xi", [1.0, 1e-300, 1e300])
@pytest.mark.parametrize("z0_sq", [1e154, 4e154])
def test_residual_is_finite_where_the_scaled_lhs_overflows(z0_sq, xi):
    # one ulp of s over xi = 1e-300 overflows, and g/|lhs| was inf/inf =
    # NaN; its limit, the sign of lhs, is what xi = 1 reports at that root
    for kernel in (sf.h_trace, sf.h2):
        sol = saddle.solve_trace_raw(z0_sq, xi, kernel)
        bound = 1e-12 + 2.0 * np.spacing(sol.s) / max(xi, abs(sol.s - z0_sq))
        assert math.isfinite(sol.residual) and abs(sol.residual) <= bound, kernel
        if xi <= 1.0:
            assert sol.s == pytest.approx(z0_sq, rel=1e-15)
            assert sol.residual == 1.0


def test_saddle_upper_end_stays_below_the_largest_double():
    # z0_sq + xi*rhs(s0) overflows to inf here, where small_f is NaN; the
    # largest double bounds the end, and the root is a 30-digit bisection's
    st = ReducedState.from_nx(10.0, 1e6)
    sol = saddle.solve_saddle_uv_many(st, 1e308, 0.0)
    with mpmath.workdps(30):
        z0_sq, xi, u_sq = mpmath.mpf(st.z0_sq), mpmath.mpf(st.xi), mpmath.mpf(1e308)

        def g(s):
            z = mpmath.sqrt(s)
            f0 = (z * mpmath.coth(z) - 1) / s
            fu = (mpmath.sinh(z) / z + 1) / (2 * mpmath.cosh(z / 2) ** 2)
            return (s - z0_sq) / xi - f0 - fu * u_sq
        lo, hi = mpmath.mpf(1e200), mpmath.mpf(1e210)
        for _ in range(120):  # in ln s: 23/2^120 relative at the end
            mid = mpmath.sqrt(lo * hi)
            lo, hi = (mid, hi) if g(mid) < 0 else (lo, mid)
        root = float(lo)
    assert sol.s == pytest.approx(root, rel=1e-14)
    assert abs(sol.residual) <= residual_bound(st, sol.s)


def test_saddle_uv_center_point():
    st = ReducedState.from_nx(10.0, 15.0)
    sol = saddle.solve_saddle_uv_many(st, 0.0, 0.0)
    assert sol.s < 0.0  # on the imaginary continuation
    assert sol.s == pytest.approx(-0.26301717967147564, rel=1e-10)
    assert abs(sol.residual) < 1e-12


@pytest.mark.parametrize("x, u_sq, v_sq", [
    (15.0, math.nan, 0.0), (15.0, 1.0, math.inf),
    (15.0, [1.0, 2.0], [0.0, math.nan]), (15.0, -1.0, 0.0),
    (0.0, math.nan, 0.0), (0.0, 1.0, math.inf),
    (0.0, [1.0, 2.0], [0.0, math.nan]), (0.0, -4.0, 0.0),
], ids=["u-nan", "v-inf", "array-v-nan", "u-negative",
        "x0-u-nan", "x0-v-inf", "x0-array-v-nan", "x0-u-negative"])
def test_saddle_uv_refuses_non_finite_and_negative(x, u_sq, v_sq):
    # refused up front, not by a kernel pole or a bracket without a sign
    # change, and at x = 0 before the Gaussian shortcut
    st = ReducedState.from_nx(10.0, x)
    with pytest.raises(ValueError, match="finite and >= 0"):
        saddle.solve_saddle_uv_many(st, u_sq, v_sq)
    with pytest.raises(ValueError, match="finite and >= 0"):
        dm.ln_d_many(st, u_sq, v_sq)


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


def test_each_point_counts_its_own_evaluations():
    # (10, 1) takes 8 evaluations; (0.3, 1e-12) climbs its upper end, and
    # those climb steps are not charged to the other point of the batch
    a, b = ReducedState.from_nx(10.0, 1.0), ReducedState.from_nx(0.3, 1e-12)
    one = saddle.solve_trace_raw(a.z0_sq, a.xi, sf.h_trace)
    both = saddle.solve_trace_raw([a.z0_sq, b.z0_sq], [a.xi, b.xi], sf.h_trace)
    assert one.iterations == both.iterations[0] == 8
    assert one.s == both.s[0]
    # a grid point's root, residual and count are the ones it gets alone
    st = ReducedState.from_nx(2.5, 15.0)
    u_sq = np.linspace(0.0, 30.0, 41)[:, None] ** 2
    v_sq = np.linspace(0.0, 6.0, 60)[None, :] ** 2
    sol = saddle.solve_saddle_uv_many(st, u_sq, v_sq)
    for k in range(0, sol.s.size, 13):
        i, j = divmod(k, v_sq.size)
        alone = saddle.solve_saddle_uv_many(st, float(u_sq[i, 0]), float(v_sq[0, j]))
        assert (alone.s, alone.residual, alone.iterations) == (
            sol.s[i, j], sol.residual[i, j], sol.iterations[i, j]), (i, j)


def test_scalar_parameters_match_broadcast_ones():
    # 0-d z0_sq and xi reach the root-finder as they are; broadcast to the
    # grid's shape, across two solver blocks, they give the same solve
    st = ReducedState.from_nx(10.0, 15.0)
    u_sq = np.linspace(0.0, 300.0, 70)[:, None]
    v_sq = np.linspace(0.0, 40.0, 60)[None, :]
    assert u_sq.size * v_sq.size > saddle._BLOCK

    def rhs(s, u_sq, v_sq):
        f0, fu, fv = sf.small_f(s)
        return f0 + fu * u_sq + fv * v_sq
    wide = np.full((70, 60), st.z0_sq), np.full((70, 60), st.xi)
    solves = [saddle.solve_saddle_uv_many(st, u_sq, v_sq),
              saddle._solve(*wide, rhs, sf.POLE_MAIN, 2.0, u_sq, v_sq)]
    xi = np.geomspace(1e-3, 1e3, 50)
    solves += [saddle.solve_trace_raw(st.z0_sq, xi),
               saddle.solve_trace_raw(np.full(xi.shape, st.z0_sq), xi)]
    for narrow, broad in (solves[:2], solves[2:]):
        for field in ("s", "residual", "iterations"):
            got, want = getattr(narrow, field), getattr(broad, field)
            assert got.dtype == want.dtype and np.array_equal(got, want), field


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
