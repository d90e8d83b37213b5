"""The root-finder's scalar paths against the all-array loop, bit for bit.

saddle._find_root solves a one-point input in float64 scalars from start
to finish, g included, and finishes a solve's last live points (at most
_TAILS of them, with none left to pull) the same way, one point at a time.
The reference below is the loop that runs every point in arrays to the
end, one block of _BLOCK points after another; root, g at the root and
the evaluation count must agree to the last bit, and so must every error.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from ngstate import ReducedState, saddle, statemap
from ngstate import specfun as sf
from ngstate.errors import BracketError, NgStateError

_XRTOL, _XATOL = saddle._XRTOL, saddle._XATOL


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _reference_find_root(g, lo, hi, *args, climb=False):
    shape = np.broadcast_shapes(np.shape(lo), np.shape(hi), *map(np.shape, args))
    lo, hi = np.broadcast_to(lo, shape), np.broadcast_to(hi, shape)
    args = [np.broadcast_to(a, shape) if np.ndim(a) else a for a in args]
    root, g_at = np.empty(shape), np.empty(shape)
    nfev = np.empty(shape, dtype=int)
    for start in range(0, lo.size, saddle._BLOCK):
        blk = slice(start, start + saddle._BLOCK)
        p = [a.flat[blk] if np.ndim(a) else a for a in args]
        x1, x2 = lo.flat[blk], hi.flat[blk]
        f1, f2 = g(x1, *p), g(x2, *p)
        evals, t = np.full(x1.shape, 2), 0.5
        while climb and np.any(low := f2 < 0.0):
            x2 = np.where(low, np.nextafter(x2, np.inf), x2)
            f2 = g(x2, *p)
            evals += low
        ok = (f1 <= 0.0) & (f2 >= 0.0)
        if not np.all(ok):
            raise BracketError(f"no sign change at {np.size(ok) - np.count_nonzero(ok)} points")
        at = np.arange(start, start + x1.size)
        steps = 0
        while True:
            x = x1 + t * (x2 - x1)
            f = g(x, *p)
            steps += 1
            same = np.sign(f) == np.sign(f1)
            x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
            x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
            x1, f1 = x, f
            best = np.abs(f1) < np.abs(f2)
            xm, fm = np.where(best, x1, x2), np.where(best, f1, f2)
            tol = _XRTOL * np.abs(xm) + _XATOL
            dx = np.abs(x2 - x1)
            done = (fm == 0.0) | (dx < tol)
            if done.any():
                root.flat[at[done]], g_at.flat[at[done]], nfev.flat[at[done]] = (
                    xm[done], fm[done], evals[done] + steps)
                if done.all():
                    break
                live = ~done
                x1, x2, x3, f1, f2, f3, tol, dx, evals, at = (
                    a[live] for a in (x1, x2, x3, f1, f2, f3, tol, dx, evals, at))
                p = [a[live] if np.ndim(a) else a for a in p]
            xi = (x1 - x2) / (x3 - x2)
            d12, d32 = f1 - f2, f3 - f2
            phi = d12 / d32
            alpha = (x3 - x1) / (x2 - x1)
            iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
            t = np.where(iqi, f1 / d12 * f3 / d32 + alpha * f1 / (f3 - f1) * f2 / d32, 0.5)
            edge = 0.5 * tol / dx
            t = np.minimum(np.maximum(t, edge), 1.0 - edge)
    return root, g_at, nfev


def _reference_per_point(g, *args, **kwargs):
    """The reference for a g that takes float64 scalars only (x_from_c4's):
    its arrays reach g one point at a time."""
    return _reference_find_root(lambda x: np.array([g(v) for v in x]), *args, **kwargs)


def _run(finder, call):
    """call() with saddle._find_root swapped for finder: each solve's
    (root, g at root, nfev), then the result or the error raised."""
    solves, kept = [], saddle._find_root

    def record(*args, **kwargs):
        solves.append(out := finder(*args, **kwargs))
        return out
    saddle._find_root = record
    try:
        return solves, repr(call())
    except (NgStateError, ValueError) as exc:
        return solves, (type(exc), str(exc))
    finally:
        saddle._find_root = kept


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _assert_same(monkeypatch, call, tails=1, reference=_reference_find_root):
    """call() gives the reference's bits and result; where it returns, the
    scalar finish ran at least tails times.  Returns how often it ran."""
    finished, tail = [], saddle._tail
    monkeypatch.setattr(saddle, "_tail", lambda *a: finished.append(1) or tail(*a))
    got = _run(saddle._find_root, call)
    want = _run(reference, call)
    monkeypatch.setattr(saddle, "_tail", tail)
    assert len(got[0]) == len(want[0])
    for g_solve, w_solve in zip(got[0], want[0]):
        for g_part, w_part in zip(g_solve, w_solve):
            assert _bits(g_part) == _bits(w_part), (g_part, w_part)
    assert got[1] == want[1]
    if isinstance(want[1], str):
        assert len(finished) >= tails
    return len(finished)


def _sweep(count, seed):
    rng = np.random.default_rng(seed)
    n = 10.0 ** rng.uniform(-3.0, 3.0, count)
    x = 20.0 * (1.0 - rng.random(count))  # (0, 20]
    u_sq, v_sq = rng.uniform(0.0, 400.0, (2, count))
    return zip(n, x, u_sq, v_sq)


def _one_point(*values):
    """values as 0-d inputs (ln_d's form), then as one-element arrays
    (purity_many's form for one state)."""
    return values, tuple(np.full(1, v) for v in values)


@pytest.mark.parametrize("seed", [1, 2])
def test_one_point_solves_match_the_array_loop(monkeypatch, seed):
    for n, x, u_sq, v_sq in _sweep(12, seed):
        st = ReducedState.from_nx(n, x)
        for u, v in _one_point(u_sq, v_sq):
            _assert_same(monkeypatch, lambda: saddle.solve_saddle_uv_many(st, u, v))
        for (z0_sq, xi), kernel in itertools.product(_one_point(st.z0_sq, st.xi),
                                                     (sf.h_trace, sf.h2)):
            _assert_same(monkeypatch, lambda: saddle.solve_trace_raw(z0_sq, xi, kernel))


def _uv_state(root, xi, u_sq, v_sq):
    """A duck-typed state whose uv saddle root is near root."""
    f0, fu, fv = sf.small_f(root)
    return SimpleNamespace(x=1.0, xi=xi, z0_sq=root - xi * (f0 + fu * u_sq + fv * v_sq))


@pytest.mark.parametrize("root", [
    0.5 * sf.SERIES_CUT, -0.5 * sf.SERIES_CUT, 1e-9, -1e-9,
    np.nextafter(sf.SERIES_CUT, 0.0), np.nextafter(-sf.SERIES_CUT, 0.0),
    sf.POLE_MAIN + 1e-6, sf.POLE_MAIN * (1.0 - 1e-12), sf.POLE_MAIN + 0.3,
])
def test_roots_in_the_series_window_and_next_to_the_pole(monkeypatch, root):
    for xi in (1e-3, 1.0, 50.0):
        st = _uv_state(root, xi, 3.0, 0.5)
        _assert_same(monkeypatch, lambda: saddle.solve_saddle_uv_many(st, 3.0, 0.5))
        if root > 0.0:
            z0_sq = root - xi / sf.h_trace(root)
            _assert_same(monkeypatch, lambda: saddle.solve_trace_raw(z0_sq, xi))


@pytest.mark.parametrize("n", [0.1, 0.3, 0.5])
def test_nearly_gaussian_states_whose_upper_end_climbs(monkeypatch, n):
    for x in 10.0 ** np.arange(-16, -7):
        st = ReducedState.from_nx(n, x)
        for (z0_sq, xi), kernel in itertools.product(_one_point(st.z0_sq, st.xi),
                                                     (sf.h_trace, sf.h2)):
            _assert_same(monkeypatch, lambda: saddle.solve_trace_raw(z0_sq, xi, kernel))
        for u, v in _one_point(1.0, 2.0):
            _assert_same(monkeypatch, lambda: saddle.solve_saddle_uv_many(st, u, v))


@pytest.mark.parametrize("n, x", [
    (4.2e144, 1.4e272), (0.5, 5.4e307), (1e-4, 1e305), (1e-3, 1e200),
    (2.2458580377286905e153, 3.806654343036798e293),
])
def test_trace_overflow_cases(monkeypatch, n, x):
    st = ReducedState.from_nx(n, x)
    for kernel in (sf.h_trace, sf.h2):
        _assert_same(monkeypatch, lambda: saddle.solve_trace_raw(st.z0_sq, st.xi, kernel))


@pytest.mark.parametrize("n", [1e-3, 0.2, 3.0, 400.0])
def test_x_from_c4_near_zero_and_near_the_floor(monkeypatch, n):
    # -1.0 is below the floor: Unreachable, from the one-point BracketError
    for ratio in (-1e-300, -1e-12, -1e-6, -0.5, -0.999, -0.9999999, -1.0):
        _assert_same(monkeypatch, lambda: statemap.x_from_c4(n, ratio),
                     reference=_reference_per_point)


@pytest.mark.parametrize("z0_sq, xi", [
    (-1.0, 1e-308), (-1.0, 6e-309),  # lower end subnormal: 1/kernel overflows
    (-1.0, 1e-323),  # lower end 5e-324: h_trace(lo) = 0, then no sign change
])
def test_raw_trace_solves_from_a_subnormal_lower_end(monkeypatch, z0_sq, xi):
    for (z0, x), kernel in itertools.product(_one_point(z0_sq, xi), (sf.h_trace, sf.h2)):
        _assert_same(monkeypatch, lambda: saddle.solve_trace_raw(z0, x, kernel))


@pytest.mark.parametrize("shape", [(), (1,)])
@pytest.mark.parametrize("g, climb", [
    (lambda s: s - 2.0, False),  # negative at both ends
    (lambda s: s + 1.0, False),  # positive at both ends
    (lambda s: np.float64(np.nan) * s, True),  # the climb stops on NaN
])
def test_one_point_without_a_sign_change(monkeypatch, shape, g, climb):
    lo, hi = np.full(shape, 0.0), np.full(shape, 1.0)
    _assert_same(monkeypatch, lambda: saddle._find_root(g, lo, hi, climb=climb))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("width", [1, 3])
def test_g_turning_nan_or_infinite_partway(monkeypatch, bad, width):
    # g is bad on a band of distances from each point's root, one decade
    # or half of one, which the iterates enter partway: a function of s and
    # the point alone, whatever the order of g's calls.  Each point takes
    # its own number of steps, so the last ones end in scalars
    roots, slopes = np.array([0.71, 0.3, 0.05][:width]), np.array([40.0, 4.0, 0.5][:width])
    finished, met = 0, 0
    for near, far in itertools.product(10.0 ** -np.arange(1, 13), (3.0, 10.0)):
        seen = []

        def g(s, r, c):
            gap = np.abs(s - r)
            seen.append(np.any(bands := (near <= gap) & (gap < far * near)))
            return np.where(bands, bad, np.tanh(c * (s - r)))
        finished += _assert_same(
            monkeypatch, lambda: saddle._find_root(g, 0.0, 1.0, roots, slopes), tails=0)
        met += any(seen)
    assert finished >= 3 and met >= 8


@pytest.mark.parametrize("block", [2, 3, saddle._BLOCK])
def test_a_solves_last_points_finish_in_scalars(monkeypatch, block):
    # more than two blocks of points take at least three pulls into the live
    # set, which drains once, at the end of the solve: at most _TAILS of its
    # points finish in scalars.  The points end after 8 to 13 evaluations,
    # but u^2 = 1e30 takes 40, so where the last five pulled have it, at
    # least two finish in scalars (a block of 2 or 3 hands over all its own)
    monkeypatch.setattr(saddle, "_BLOCK", block)
    st = ReducedState.from_nx(2.5, 15.0)
    count = max(12, 2 * block + 7)
    assert count > 2 * saddle._BLOCK
    u_sq, v_sq = np.linspace(0.0, 400.0, count), np.linspace(40.0, 0.0, count)
    for solve in (lambda: saddle.solve_saddle_uv_many(st, u_sq, v_sq),
                  lambda: saddle.solve_trace_raw(st.z0_sq, u_sq + 1.0)):
        assert _assert_same(monkeypatch, solve, tails=0) <= saddle._TAILS
    u_sq[-5:] = 1e30
    finished = _assert_same(monkeypatch, lambda: saddle.solve_saddle_uv_many(st, u_sq, v_sq))
    assert 2 <= finished <= saddle._TAILS


@pytest.mark.parametrize("shape", [(2,), (saddle._TAILS,), (2, saddle._TAILS // 2),
                                   (saddle._TAILS + 1,)])
def test_few_points_go_to_scalars_right_after_the_pull(monkeypatch, shape):
    # up to _TAILS points: g sees arrays at the two bracket ends alone, then
    # float64 scalars, one _tail per point; one point more takes array steps
    roots = np.linspace(0.05, 0.95, math.prod(shape)).reshape(shape)
    arrays = []

    def g(s, r):
        arrays.append(np.ndim(s) > 0 or np.ndim(r) > 0)
        assert arrays[-1] or type(s) is type(r) is np.float64
        return np.tanh(4.0 * (s - r))
    finished = _assert_same(monkeypatch, lambda: saddle._find_root(g, 0.0, 1.0, roots))
    arrays.clear()
    saddle._find_root(g, 0.0, 1.0, roots)
    if roots.size <= saddle._TAILS:
        assert finished == roots.size and arrays[:2] == [True, True] and not any(arrays[2:])
    else:
        assert finished <= saddle._TAILS and arrays.index(False) > 2
        assert not any(arrays[arrays.index(False):])
    st = ReducedState.from_nx(2.5, 15.0)
    _assert_same(monkeypatch, lambda: saddle.solve_saddle_uv_many(st, roots, 2.0 * roots))


def test_a_creeping_uv_solve_finishes_in_scalars(monkeypatch):
    # the root of the slowest point, -0.011276140211044141, lies just past
    # -SERIES_CUT, on the closed-form branch below 0, where g jumps from
    # -2e-15 to +1.4e-13 within a few doubles: the near bracket end stays
    # put, the far end halves every second step, and the point takes 35
    # evaluations where its neighbours take 14 to 29
    st = ReducedState.from_nx(2.9969966028988964, 0.7919774816830588)
    u_sq = np.append(3.935619276408427 * np.linspace(0.999, 1.001, 24), 3.935619276408427)
    v_sq = np.full(u_sq.shape, 7.77520141142782)
    out = saddle.solve_saddle_uv_many(st, u_sq, v_sq)
    assert out.iterations[-1] == 35 and out.s[-1] == -0.011276140211044141
    assert -1.5 * sf.SERIES_CUT < out.s[-1] < -sf.SERIES_CUT
    finished = _assert_same(monkeypatch, lambda: saddle.solve_saddle_uv_many(st, u_sq, v_sq))
    assert 2 <= finished <= saddle._TAILS
