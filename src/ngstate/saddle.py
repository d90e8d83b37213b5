"""Root solvers for the self-consistency (gap/saddle) equations.

Each has the shape (s - z0_sq)/xi = RHS(s) with an RHS that decreases in s
and diverges at the floor of its domain, so LHS - RHS has one sign change:

    solve_trace_raw   1/kernel(s), kernel h_trace or h2   s > 0       RHS >= 1/s
    solve_saddle_uv   f0 + fu*u^2 + fv*v^2                s > -pi^2   RHS >= 2/(s + pi^2)

The last column (for f0, the first term of 2 sum_k 1/(s + k^2 pi^2)) puts
the root past the positive root of a quadratic, half of which is the lower
bracket end; with s0 = max(z0_sq, 1), max(s0, z0_sq + xi*RHS(s0)) is the
upper end, moved up a double at a time where it rounds onto or below the
root.  The brackets are built element-wise, so z0_sq, xi and the RHS
arguments broadcast.  _find_root solves all of them and x_from_c4;
x = 0 pins s = z0_sq.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from . import specfun as _sf
from .errors import BracketError

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    from .statemap import ReducedState

__all__ = [
    "Branch",
    "SaddleSolution",
    "solve_saddle_uv",
    "solve_saddle_uv_many",
    "solve_trace_raw",
]

# elements solved together: bounds the solver's scratch memory; 8192 left
# ~2 MiB of freed scratch in the heap, raising the surface presets' peak RSS
_BLOCK = 4096
_XRTOL = 2.0 * np.finfo(float).eps
_XATOL = 4.0 * np.finfo(float).tiny


class Branch(Enum):
    REAL = "Real"
    IMAGINARY_CONTINUED = "ImaginaryContinued"


@dataclass(frozen=True)
class SaddleSolution:
    """A solved squared frequency with bookkeeping.

    residual is the equation's mismatch at s over scale = max(1, |lhs|):
    at most 1e-12 + 2 spacing(s)/(xi scale), as s is within 2 eps |s| of
    the root.  iterations counts the evaluations of the equation.  A
    batched trace solve holds arrays in s, residual and iterations.
    """

    s: float
    branch: Branch
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
    relative, so its root and count depend on it alone.  Returns (root, nfev).
    """
    lo, hi, *args = np.broadcast_arrays(lo, hi, *args)
    root = np.empty(lo.shape)
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
            xm = np.where(best, x1, x2)
            tol = _XRTOL * np.abs(xm) + _XATOL
            dx = np.abs(x2 - x1)
            new = ((np.where(best, f1, f2) == 0.0) | (dx < tol)) & ~finished
            if new.any():
                at = start + np.flatnonzero(new)
                root.flat[at], nfev.flat[at] = xm[new], evals
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
    return root, nfev


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _solve(z0_sq, xi, rhs, floor, c, *args):
    """Roots of (s - z0_sq)/xi = rhs(s, *args) given rhs(s) >= c/(s - floor);
    z0_sq, xi and args broadcast."""
    b, d = z0_sq - floor, c * xi
    q = np.sqrt(b * b + 4.0 * d)  # positive root of e^2 - b e - d:
    e = np.where(b >= 0.0, 0.5 * (b + q), 2.0 * d / (q - b))
    # floor + e/2 can round onto the floor; the bracket check then refuses
    lo = np.maximum(floor + 0.5 * e, np.nextafter(floor, np.inf))
    s0 = np.maximum(z0_sq, 1.0)
    hi = np.maximum(s0, z0_sq + xi * rhs(s0, *args))
    return _find_root(lambda s, z0, xi, *a: (s - z0) / xi - rhs(s, *a), lo, hi,
                      z0_sq, xi, *args, climb=True)


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
    s, nfev = _solve(z0_sq, xi, lambda s: 1.0 / kernel(s), 0.0, 1.0)
    lhs = (s - z0_sq) / xi
    residual = (lhs - 1.0 / kernel(s)) / np.maximum(1.0, np.abs(lhs))
    if s.ndim == 0:
        s, residual, nfev = float(s), float(residual), int(nfev)
    return SaddleSolution(s=s, branch=Branch.REAL, residual=residual,
                          iterations=nfev)


def _rhs_many(s, u_sq, v_sq):
    f0, fu, fv = _sf.small_f(s)
    return f0 + fu * u_sq + fv * v_sq


def solve_saddle_uv_many(state: "ReducedState", u_sq, v_sq):
    """Vectorized matrix-element saddle solve over arrays of (u^2, v^2).

    Returns (s, nfev) where s has the broadcast shape of the inputs and
    nfev is the most evaluations of the equation any point needed.
    """
    u_sq, v_sq = np.broadcast_arrays(np.asarray(u_sq, float),
                                     np.asarray(v_sq, float))
    if state.x == 0.0:
        return np.full(u_sq.shape, state.z0_sq), 0
    if np.any(u_sq < 0) or np.any(v_sq < 0):
        raise ValueError("u_sq and v_sq must be >= 0")
    s, nfev = _solve(state.z0_sq, state.xi, _rhs_many, _sf.POLE_MAIN, 2.0,
                     u_sq, v_sq)
    return s, int(nfev.max(initial=0))


def solve_saddle_uv(state: "ReducedState", u_sq: float, v_sq: float) -> SaddleSolution:
    """Matrix-element saddle frequency at a single phase-space point.

    Unique root of (s - z0_sq)/xi = f0(s) + fu(s)*u^2 + fv(s)*v^2 over
    s in (-pi^2, inf).  The branch tag records whether the root needed
    the imaginary continuation (s < 0).
    """
    s_arr, it = solve_saddle_uv_many(state, u_sq, v_sq)
    s, resid = float(s_arr), 0.0
    if state.x != 0.0:
        lhs = (s - state.z0_sq) / state.xi
        resid = (lhs - _rhs_many(s, u_sq, v_sq)) / max(1.0, abs(lhs))
    branch = Branch.REAL if s >= 0.0 else Branch.IMAGINARY_CONTINUED
    return SaddleSolution(s=s, branch=branch, residual=resid, iterations=it)
