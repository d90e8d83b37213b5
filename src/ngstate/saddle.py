"""Root solvers for the self-consistency (gap/saddle) equations.

Each has the shape (s - z0_sq)/xi = RHS(s) with an RHS that decreases in s
and diverges at the floor of its domain, so LHS - RHS has one sign change:

    solve_trace_raw        1/kernel(s), h_trace or h2   s > 0       RHS >= 1/s
    solve_saddle_uv_many   f0 + fu*u^2 + fv*v^2         s > -pi^2   RHS >= 2/(s + pi^2)

The last column (for f0, the first term of 2 sum_k 1/(s + k^2 pi^2)) puts
the root past the positive root of a quadratic, half of which is the lower
bracket end; with s0 = max(z0_sq, 1), max(s0, z0_sq + xi*RHS(s0)) is the
upper end (capped by the largest double, and for the trace by closed-form
bounds on the root), moved up a double at a time where it rounds onto or
below the root.  The brackets are element-wise, so z0_sq, xi and the RHS
arguments broadcast.  _find_root solves all of them and x_from_c4, and
each solve returns one SaddleSolution, residual included.  A solve of many
points keeps one live set of at most _BLOCK of them, refilled from the
rest as points finish, so it drains once, at its end; the uv solve's lower
end depends on the state alone, and its equation is evaluated there once
per refill.  A solve of one point runs in float64 scalars from start to
finish, its bracket, equation and residual included: an equation takes
and returns float64 scalars there, arrays elsewhere.  Once a larger solve
has nothing left to pull and at most _TAILS live points, each finishes
alone in scalars, the same steps: a point that creeps (its near bracket
end stays put while the far end halves every second step, as where g
steps by ~1e-13 within a few doubles of the root) no longer costs an
array step per evaluation.  x = 0 pins s = z0_sq.  A d_surface grid
at x > 0 comes here only for its two extreme points and the points its
kernel table leaves (densmat); ln_d, ln_d_many and the Wigner path solve
every point here.
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

# most points in a solve's live set, refilled once it is half empty: bounds
# scratch memory; 8192 left ~2 MiB of freed scratch, raising surface RSS
_BLOCK = 4096
# most live points that finish one by one in _tail once nothing is left to
# pull: at a few dozen points an array step costs about what 12 scalar steps
# do (~65 against ~5 us), and a solve's last points are mostly its slow ones.
# api_requests' requests took less time at 8 than at 4, and as long as at
# 16 (seed 1, the values alternated request by request in one process)
_TAILS = 8
_XRTOL = 2.0 * math.ulp(1.0)
# ends a search whose bracket ends are adjacent doubles near 0; a floor
# above the subnormals would stop roots below the smallest normal early
_XATOL = 2.0 * math.ulp(0.0)


@dataclass(frozen=True)
class SaddleSolution:
    """A solved squared frequency with bookkeeping.

    residual is the equation's mismatch at s over max(1, |lhs|), or its
    limit sign(lhs) where lhs overflows: at most 1e-12 + 2 spacing(s)/
    max(xi, |s - z0_sq|), as s is within 2 eps |s| of the root.  iterations
    counts evaluations.  Batched: per-point arrays; scalar: floats, an int.
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
    it safe, bisection otherwise.  lo, hi and args broadcast.  The points
    are solved in one live set of at most _BLOCK, which a point leaves once
    its bracket is below 2 eps relative; where the set drops to _BLOCK // 2
    or fewer, the next points are pulled in, with their end evaluations,
    climb and bracket check.  So a point's root and count (a climb step
    counts where the point climbs) depend on it alone: the count is its
    evaluations before its first step plus its own steps.  A 0-d arg
    reaches g as it is, never broadcast or compacted, and a 0-d lo reaches
    g once per pull as a float64 scalar, beside the pulled points' args.
    g maps a float64 scalar s (with scalar args) to a float64 scalar, and
    arrays to arrays, with the same bits at each point: a one-point input
    (any shape of size 1) is solved in scalars from start to finish, its
    two end evaluations and climb included.  Once no points are left to
    pull and at most _TAILS are live (at once, for a solve of that few),
    each finishes alone in _tail, the same steps in float64 scalars, with
    its own args, bracket, values and t; that spares ~50 array calls a
    step where one slow point would hold the set.  Returns (root, g at
    root, nfev), arrays of the broadcast shape.
    """
    if point := _one_point((lo, hi, *args)):  # float64 scalars from start to finish
        (x1, x2, *p), shape = point
        x1, x2 = np.float64(x1), np.float64(x2)
        f1, f2 = g(x1, *p), g(x2, *p)
        evals = 2
        while climb and f2 < 0.0:
            x2 = np.nextafter(x2, np.inf)
            f2 = g(x2, *p)
            evals += 1
        if not (f1 <= 0.0 and f2 >= 0.0):
            raise BracketError("no sign change at 1 points")
        xm, fm, steps = _tail(g, p, x1, x2, f1, f2, 0.5)
        out = xm, fm, evals + steps
        return tuple(np.full(shape, v) for v in out) if shape else out
    shape = np.broadcast_shapes(np.shape(lo), np.shape(hi), *map(np.shape, args))
    lo0 = np.ravel(lo)[0] if np.ndim(lo) == 0 else None
    lo, hi = np.broadcast_to(lo, shape), np.broadcast_to(hi, shape)
    args = [np.broadcast_to(a, shape) if np.ndim(a) else a for a in args]
    root, g_at = np.empty(shape), np.empty(shape)
    nfev = np.empty(shape, dtype=int)
    if root.size == 0:
        return root, g_at, nfev

    def pull(start, stop):
        """Points start:stop, climbed and checked: (x1, x2, f1, f2, evals,
        output indices), p."""
        p = [a.flat[start:stop] if np.ndim(a) else a for a in args]
        x1, x2 = lo.flat[start:stop], hi.flat[start:stop]
        f1 = g(x1, *p) if lo0 is None else g(lo0, *p)
        f2 = g(x2, *p)
        evals = np.full(x1.shape, 2)
        while climb and np.any(low := f2 < 0.0):
            x2 = np.where(low, np.nextafter(x2, np.inf), x2)
            f2 = g(x2, *p)
            evals += low
        ok = (f1 <= 0.0) & (f2 >= 0.0)
        if not np.all(ok):
            raise BracketError(f"no sign change at {np.size(ok) - np.count_nonzero(ok)} points")
        return (x1, x2, f1, f2, evals, np.arange(start, start + x1.size)), p

    # x1: newest point; x2: bracket end opposite to it; x3: the one before;
    # at: each live point's output index
    (x1, x2, f1, f2, evals, at), p = pull(0, _BLOCK)
    pulled, t, steps = x1.size, 0.5, 0
    while True:
        if x1.size <= _TAILS and pulled == root.size:  # the last few points: in scalars
            t = np.broadcast_to(t, x1.shape)
            for i, k in enumerate(at):
                q = [a[i] if np.ndim(a) else a for a in p]
                xm, fm, more = _tail(g, q, x1[i], x2[i], f1[i], f2[i], t[i])
                root.flat[k], g_at.flat[k], nfev.flat[k] = xm, fm, evals[i] + steps + more
            break
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
            if done.all() and pulled == root.size:
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
        # f2 - f3 is -d32 exactly, so its term is added; where d32 = 0, iqi is false
        t = np.where(iqi, f1 / d12 * f3 / d32 + alpha * f1 / (f3 - f1) * f2 / d32, 0.5)
        edge = 0.5 * tol / dx
        t = np.minimum(np.maximum(t, edge), 1.0 - edge)  # np.clip, at half the cost
        if x1.size <= _BLOCK // 2 and pulled < root.size:  # refill the live set
            stop = min(root.size, pulled + _BLOCK - x1.size)
            (n1, n2, m1, m2, counts, indices), q = pull(pulled, stop)
            # a pulled point's count runs from the loop's steps so far
            x1, x2, f1, f2, evals, at, t = map(np.concatenate, (
                (x1, n1), (x2, n2), (f1, m1), (f2, m2), (evals, counts - steps),
                (at, indices), (t, np.full(stop - pulled, 0.5))))
            p = [np.concatenate((a, b)) if np.ndim(a) else a for a, b in zip(p, q)]
            pulled = stop
    return root, g_at, nfev


def _tail(g, p, x1, x2, f1, f2, t):
    """_find_root's loop for one point in scalars, op for op, so it ends on
    the same bits; g gets float64 scalars, and p holds the point's scalar
    args.  Its own arithmetic runs on Python floats: the same IEEE doubles,
    at a third of a float64 scalar's cost per operation, which differ from
    numpy's only where they divide by zero, and no divisor here is 0.
    Returns (root, g at root, steps), the first two float64 scalars."""
    x1, x2, f1, f2, t = float(x1), float(x2), float(f1), float(f2), float(t)
    steps = 0
    while True:
        x = x1 + t * (x2 - x1)
        f = float(g(np.float64(x), *p))
        steps += 1
        # np.sign(f) == np.sign(f1): +-0 alike, NaN like nothing
        same = f == f and f1 == f1 and (f > 0.0) == (f1 > 0.0) and (f < 0.0) == (f1 < 0.0)
        x3, f3 = (x1, f1) if same else (x2, f2)
        x2, f2 = (x2, f2) if same else (x1, f1)
        x1, f1 = x, f
        xm, fm = (x1, f1) if abs(f1) < abs(f2) else (x2, f2)
        tol = _XRTOL * abs(xm) + _XATOL
        dx = abs(x2 - x1)
        if fm == 0.0 or dx < tol:
            return np.float64(xm), np.float64(fm), steps
        # no divisor is 0: x3 and x2 are the ends before the step, f3 and
        # f2 have unlike np.sign (where both are 0, fm is and the search has
        # ended), dx >= tol > 0, and where iqi holds, phi is neither 0 nor 1
        xi = (x1 - x2) / (x3 - x2)
        d12, d32 = f1 - f2, f3 - f2
        phi = d12 / d32
        alpha = (x3 - x1) / (x2 - x1)
        c = 1.0 - phi  # c * c, as np.square: ** 2 calls pow
        iqi = phi * phi < xi and c * c < 1.0 - xi
        t = f1 / d12 * f3 / d32 + alpha * f1 / (f3 - f1) * f2 / d32 if iqi else 0.5
        edge = 0.5 * tol / dx
        # np.maximum, then np.minimum: NaN from either side, else the second on a tie
        t = t if t > edge or t != t else edge
        t = t if t < 1.0 - edge or t != t else 1.0 - edge


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _solve(z0_sq, xi, rhs, floor, c, *args, cap=np.inf) -> SaddleSolution:
    """Roots of (s - z0_sq)/xi = rhs(s, *args) given rhs(s) >= c/(s - floor)
    and a root below cap; z0_sq, xi, args and cap broadcast.  One point is
    set up in float64 scalars, as _find_root then solves it."""
    if point := _one_point((z0_sq, xi, cap, *args)):
        (z0_sq, xi, cap, *args), shape = point
        z0_sq, xi, cap = np.float64(z0_sq), np.float64(xi), np.float64(cap)
    where = _pick if point else np.where
    b, d = z0_sq - floor, c * xi
    # e: the positive root of e^2 - b e - d, from halved sums, with hypot's
    # q where b^2 + 4d overflows (the sqrt's bits elsewhere)
    q = np.sqrt(b * b + 4.0 * d)
    q = where(q < np.inf, q, np.hypot(b, 2.0 * np.sqrt(d)))
    e = where(b >= 0.0, 0.5 * b + 0.5 * q, d / (0.5 * q - 0.5 * b))
    # floor + e/2 can round onto the floor; the bracket check then refuses
    lo = np.maximum(floor + 0.5 * e, np.nextafter(floor, np.inf))
    s0 = np.maximum(z0_sq, 1.0)
    # a cap that underflowed onto or below lo would leave nothing to climb
    # from; the largest double bounds the end, as rhs(inf) may be NaN
    cap = np.minimum(where(cap > lo, cap, np.inf), np.finfo(float).max)
    hi = np.maximum(lo, np.minimum(cap, np.maximum(s0, z0_sq + xi * rhs(s0, *args))))
    s, g, nfev = _find_root(lambda s, z0, xi, *a: (s - z0) / xi - rhs(s, *a),
                            lo, hi, z0_sq, xi, *args, climb=True)
    # where lhs overflows, g/|lhs| tends to sign(g); only the mask stays alive
    over = np.isinf((s - z0_sq) / xi)
    residual = g / np.maximum(1.0, np.abs((s - z0_sq) / xi))
    residual = where(over, np.sign(g), residual) if over.any() else residual
    if point and shape:
        s, residual, nfev = (np.full(shape, a) for a in (s, residual, nfev))
    return _solution(s, residual, nfev)


def _one_point(values):
    """(values, shape) where the values broadcast to one point, each array
    then as its one element; None otherwise.  Cheaper than np.shape and
    np.ravel on numbers."""
    out, ndim = [], 0
    for a in values:
        if isinstance(a, np.ndarray):
            if a.size != 1:
                return None
            ndim, a = max(ndim, a.ndim), a.flat[0]
        out.append(a)
    return out, (1,) * ndim


def _pick(cond, a, b):
    """np.where for one point in float64 scalars: a where cond, else b."""
    return a if cond else b


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
    if not (np.all(np.isfinite(z0_sq)) and np.all(xi > 0) and np.all(xi < np.inf)):
        raise ValueError("solve_trace_raw needs finite z0_sq and finite xi > 0")
    # 1/kernel(s) <= 2/s + 1/3 (tanh y >= y/(1 + y^2/3)) caps the root at
    # the positive root of s^2 - b s - 2 xi; hypot and the halved sums keep
    # b^2 and q + |b| from overflowing near the largest double.  Where
    # a = -z0_sq/xi > 0, 1/kernel(s) <= 2/s + 1/sqrt(s) (tanh y >= y/(1 + y))
    # puts the root below 4 max(1/a, 1/a^2), far tighter when a is small,
    # and, as s - z0_sq <= 2 xi/sqrt(s) at s >= 4, below max(4, 2 z0_sq,
    # (4 xi)^(2/3)), far tighter where xi >> max(z0_sq, 1)
    point = _one_point((z0_sq, xi))  # one point: the cap in float64 scalars
    z, x = point[0] if point else (z0_sq, xi)
    where = _pick if point else np.where
    with np.errstate(over="ignore", divide="ignore"):  # b = inf, a = 0: uncapped
        b = z + x / 3.0
        q = np.hypot(b, math.sqrt(8.0) * np.sqrt(x))
        half = 0.5 * q + 0.5 * np.abs(b)
        a = -z / x
        tight = where(a > 0.0, 4.0 * np.maximum(1.0 / a, 1.0 / (a * a)), np.inf)
        root3 = np.cbrt(4.0) * np.cbrt(x)  # squared as np.square squares it
        steep = np.maximum(np.maximum(4.0, 2.0 * z), root3 * root3)
        cap = np.minimum(where(b >= 0.0, half, 2.0 * (x / half)), np.minimum(tight, steep))
    return _solve(z0_sq, xi, lambda s: 1.0 / kernel(s), 0.0, 1.0, cap=cap)


def solve_saddle_uv_many(state: "ReducedState", u_sq, v_sq) -> SaddleSolution:
    """Matrix-element saddle frequencies over broadcastable (u^2, v^2).

    Unique root of (s - z0_sq)/xi = f0(s) + fu(s)*u^2 + fv(s)*v^2 over
    s in (-pi^2, inf) per point (s < 0: the imaginary continuation of the
    kernels), shaped like the inputs; x = 0 pins s = z0_sq.  ValueError
    unless every u^2 and v^2 is finite and >= 0.
    """
    u_sq, v_sq = np.broadcast_arrays(np.asarray(u_sq, float),
                                     np.asarray(v_sq, float))
    for a in (u_sq, v_sq):  # NaN fails the comparison too
        if not (0.0 <= a.min(initial=math.inf) and a.max(initial=0.0) < math.inf):
            raise ValueError("u_sq and v_sq must be finite and >= 0")
    if state.x == 0.0:
        return _solution(np.full(u_sq.shape, state.z0_sq), np.zeros(u_sq.shape),
                         np.zeros(u_sq.shape, dtype=int))

    def rhs(s, u_sq, v_sq):
        f0, fu, fv = _sf.small_f(s)
        return f0 + fu * u_sq + fv * v_sq
    return _solve(state.z0_sq, state.xi, rhs, _sf.POLE_MAIN, 2.0, u_sq, v_sq)
