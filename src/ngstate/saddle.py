"""Root solvers for the self-consistency (gap/saddle) equations.

Each has the shape (s - z0_sq)/xi = RHS(s) with an RHS that decreases in s
and diverges at the floor of its domain, so LHS - RHS has one sign change:

    solve_trace_raw        1/kernel(s), h_trace or h2   s > 0       RHS >= 1/s
    solve_saddle_uv_many   f0 + fu*u^2 + fv*v^2         s > -pi^2   RHS >= 2/(s + pi^2)

The last column (for f0, the first term of 2 sum_k 1/(s + k^2 pi^2)) puts
the root past the positive root of a quadratic, half of which is the lower
bracket end; with s0 = max(z0_sq, 1), max(s0, z0_sq + xi*RHS(s0)) is the
upper end (for the trace capped by closed-form bounds on the root),
moved up a double at a time where it rounds onto or below the root.  The
brackets are element-wise, so z0_sq, xi and the RHS arguments broadcast.
_find_root solves all of them and x_from_c4, and each solve returns one
SaddleSolution, residual included.  x = 0 pins s = z0_sq.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import specfun as _sf
from .errors import BracketError

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    from .statemap import ReducedState

__all__ = [
    "SaddleSolution",
    "solve_saddle_uv_many",
    "solve_trace_raw",
]

# elements solved together: bounds the solver's scratch memory; 8192 left
# ~2 MiB of freed scratch in the heap, raising the surface presets' peak RSS
_BLOCK = 4096
_XRTOL = 2.0 * np.finfo(float).eps
# ends a search whose bracket ends are adjacent doubles near 0; a floor
# above the subnormals would stop roots below the smallest normal early
_XATOL = 2.0 * np.finfo(float).smallest_subnormal


@dataclass(frozen=True)
class SaddleSolution:
    """A solved squared frequency with bookkeeping.

    residual is the equation's mismatch at s over scale = max(1, |lhs|):
    at most 1e-12 + 2 spacing(s)/(xi scale), as s is within 2 eps |s| of
    the root.  iterations counts the evaluations of the equation.  A
    batched solve holds per-point arrays; a scalar one floats and an int.
    """

    s: float
    residual: float
    iterations: int


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _find_root(g, lo, hi, *args, climb=False):
    """Element-wise root of g(s, *args) = 0 with g(lo) <= 0 <= g(hi), or,
    with climb, g(lo) <= 0 and g > 0 somewhere above hi: an hi where g < 0
    then moves up one double at a time until g >= 0 there.

    Chandrupatla's method (T. R. Chandrupatla, Adv. Eng. Softw. 28 (1997)
    145): inverse quadratic interpolation where the last three points make
    it safe, bisection otherwise.  lo, hi and args broadcast; g gets flat
    blocks of _BLOCK elements that keep their size (shrinking arrays
    fragment the heap).  A point stops once its bracket is below 2 eps
    relative, so its root and count depend on it alone.  g returns arrays.
    Returns (root, g at root, nfev).
    """
    lo, hi, *args = np.broadcast_arrays(lo, hi, *args)
    root, g_at = np.empty(lo.shape), np.empty(lo.shape)
    nfev = np.empty(lo.shape, dtype=int)
    for start in range(0, lo.size, _BLOCK):
        blk = slice(start, start + _BLOCK)
        p = [a.flat[blk] for a in args]
        # x1: newest point; x2: bracket end opposite to it; x3: the one before
        x1, x2 = lo.flat[blk], hi.flat[blk]
        f1, f2 = g(x1, *p), g(x2, *p)
        evals, t = 2, 0.5
        while climb and np.any(low := f2 < 0.0):
            x2 = np.where(low, np.nextafter(x2, np.inf), x2)
            f2 = g(x2, *p)
            evals += 1
        ok = (f1 <= 0.0) & (f2 >= 0.0)
        if not np.all(ok):
            raise BracketError(f"no sign change at {np.size(ok) - np.count_nonzero(ok)} points")
        finished = np.zeros(x1.shape, dtype=bool)
        while True:
            x = x1 + t * (x2 - x1)
            f = g(x, *p)
            evals += 1
            same = np.sign(f) == np.sign(f1)
            x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
            x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
            x1, f1 = x, f
            best = np.abs(f1) < np.abs(f2)
            xm, fm = np.where(best, x1, x2), np.where(best, f1, f2)
            tol = _XRTOL * np.abs(xm) + _XATOL
            dx = np.abs(x2 - x1)
            new = ((fm == 0.0) | (dx < tol)) & ~finished
            if new.any():
                at = start + np.flatnonzero(new)
                root.flat[at], g_at.flat[at], nfev.flat[at] = xm[new], fm[new], evals
                finished |= new
                if finished.all():
                    break
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            alpha = (x3 - x1) / (x2 - x1)
            iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
            t = np.where(iqi, f1 / (f1 - f2) * f3 / (f3 - f2)
                         - alpha * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
            t = np.where(finished, 0.5,
                         np.clip(t, 0.5 * tol / dx, 1.0 - 0.5 * tol / dx))
    return root, g_at, nfev


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _solve(z0_sq, xi, rhs, floor, c, *args, cap=np.inf) -> SaddleSolution:
    """Roots of (s - z0_sq)/xi = rhs(s, *args) given rhs(s) >= c/(s - floor)
    and a root below cap; z0_sq, xi, args and cap broadcast."""
    b, d = z0_sq - floor, c * xi
    q = np.sqrt(b * b + 4.0 * d)  # positive root of e^2 - b e - d:
    e = np.where(b >= 0.0, 0.5 * (b + q), d / (0.5 * q - 0.5 * b))  # 2d may overflow
    # floor + e/2 can round onto the floor; the bracket check then refuses
    lo = np.maximum(floor + 0.5 * e, np.nextafter(floor, np.inf))
    s0 = np.maximum(z0_sq, 1.0)
    # a cap that underflowed onto or below lo would leave nothing to climb from
    cap = np.where(cap > lo, cap, np.inf)
    hi = np.maximum(lo, np.minimum(cap, np.maximum(s0, z0_sq + xi * rhs(s0, *args))))
    s, g, nfev = _find_root(lambda s, z0, xi, *a: (s - z0) / xi - rhs(s, *a),
                            lo, hi, z0_sq, xi, *args, climb=True)
    return _solution(s, g / np.maximum(1.0, np.abs((s - z0_sq) / xi)), nfev)


def _solution(s, residual, nfev):
    """SaddleSolution of per-point arrays; floats and an int when 0-d."""
    if np.ndim(s) == 0:
        return SaddleSolution(float(s), float(residual), int(nfev))
    return SaddleSolution(s=s, residual=residual, iterations=nfev)


def solve_trace_raw(z0_sq, xi, kernel=_sf.h_trace) -> SaddleSolution:
    """Solve (s - z0_sq)/xi = 1/kernel(s) for s > 0 (raw-parameter form).

    kernel is h_trace for the physical state, h2 for the doubled-parameter
    system that shows up in purity work; both satisfy kernel(s) <= s.
    z0_sq and xi broadcast: s, residual and iterations take their shape
    (a float and an int for scalar input), and each root is the one its
    own equation gets alone.
    """
    z0_sq, xi = np.asarray(z0_sq, float), np.asarray(xi, float)
    if not np.all(xi > 0):
        raise ValueError(f"solve_trace_raw needs xi > 0, got min {np.min(xi)}")
    # 1/kernel(s) <= 2/s + 1/3 (tanh y >= y/(1 + y^2/3)) caps the root at
    # the positive root of s^2 - b s - 2 xi; hypot and the halved sums keep
    # b^2 and q + |b| from overflowing near the largest double.  Where
    # a = -z0_sq/xi > 0, 1/kernel(s) <= 2/s + 1/sqrt(s) (tanh y >= y/(1 + y))
    # puts the root below 4 max(1/a, 1/a^2), far tighter when a is small
    with np.errstate(over="ignore", divide="ignore"):  # b = inf, a = 0: uncapped
        b = z0_sq + xi / 3.0
        q = np.hypot(b, math.sqrt(8.0) * np.sqrt(xi))
        half = 0.5 * q + 0.5 * np.abs(b)
        a = -z0_sq / xi
        tight = np.where(a > 0.0, 4.0 * np.maximum(1.0 / a, 1.0 / (a * a)), np.inf)
        cap = np.minimum(np.where(b >= 0.0, half, 2.0 * (xi / half)), tight)
    return _solve(z0_sq, xi, lambda s: 1.0 / kernel(s), 0.0, 1.0, cap=cap)


def solve_saddle_uv_many(state: "ReducedState", u_sq, v_sq) -> SaddleSolution:
    """Matrix-element saddle frequencies over broadcastable (u^2, v^2).

    Unique root of (s - z0_sq)/xi = f0(s) + fu(s)*u^2 + fv(s)*v^2 over
    s in (-pi^2, inf) per point (s < 0: the imaginary continuation of the
    kernels), shaped like the inputs; x = 0 pins s = z0_sq.
    """
    u_sq, v_sq = np.broadcast_arrays(np.asarray(u_sq, float),
                                     np.asarray(v_sq, float))
    if state.x == 0.0:
        return _solution(np.full(u_sq.shape, state.z0_sq), np.zeros(u_sq.shape),
                         np.zeros(u_sq.shape, dtype=int))
    if np.any(u_sq < 0) or np.any(v_sq < 0):
        raise ValueError("u_sq and v_sq must be >= 0")

    def rhs(s, u_sq, v_sq):
        f0, fu, fv = _sf.small_f(s)
        return f0 + fu * u_sq + fv * v_sq
    return _solve(state.z0_sq, state.xi, rhs, _sf.POLE_MAIN, 2.0, u_sq, v_sq)
