"""Position-basis matrix elements of the effective density operator.

At large N the matrix element between field configurations separated by
s_vec and centered at phi_vec collapses onto three rotation invariants,

    u^2 = |phi|^2 / (N A),   v^2 = |s|^2 / (4 N A),   w = phi.s / (2 N A),

and factorizes into a real amplitude d(u^2, v^2) times a pure phase
exp(-2 i N C w).  The per-dof log amplitude is evaluated at the saddle
frequency s* of module saddle:

    ln d = -[F0(s*) + Fu(s*) u^2 + Fv(s*) v^2 - (s* - z0_sq)^2 / (8 xi)]
           - ln_z_per_dof,

which at x = 0 reduces to the Gaussian closed form with s* = z0_sq and no
quadratic correction.  On top of pointwise evaluation this module knows
the shape of the surface: whether d is monotone in u or develops a ridge
(classify_regime / u_c_sq), and the closed-form Gaussian-plus-corrections
fit around the peak (peak_fit) used for width comparisons against the
Wigner function.

A grid at x > 0 (d_surface) needs no root per point.  At fixed s the
saddle equation g(s) = (s - z0_sq)/xi - f0 - fu u^2 - fv v^2 = 0 is affine
in (u^2, v^2), and ln d is the minimum over s of Phi(s), the form above
at any s, convex with dPhi/ds = g/4: an error ds in the root moves ln d
by only g^2/(8 dg/ds).
One small_f table at _TABLE_NODES nodes between the roots of the grid's
two extreme points serves every point: a bisection over node indices
brackets its root, linear interpolation and one inverse quadratic step
place s with two small_f evaluations, and a point whose g^2/(8 m), with m
a lower bound on dg/ds between s and the root, exceeds
_TABLE_TOL max(1, |ln d|) is solved by the root-finder instead.

The amplitude normalization drops the overall A^{-N/2} prefactor: it
carries no (u, v) dependence and cancels in every surface normalized to
its maximum, which is the only way these numbers are consumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import observables as _obs
from . import saddle as _saddle
from . import specfun as _sf
from .errors import PrecisionLoss, RegimeError
from .statemap import ReducedState

__all__ = [
    "DSurface",
    "MatrixElementValue",
    "PeakFit",
    "PhasePoint",
    "Regime",
    "classify_regime",
    "d_surface",
    "delta_u_sq_large_n",
    "ln_d",
    "ln_d_many",
    "peak_fit",
    "peak_threshold_x",
    "ridge_u",
    "u_c_sq",
]


class Regime(Enum):
    MONOTONE = "Monotone"
    PEAKED = "Peaked"


@dataclass(frozen=True)
class PhasePoint:
    """Rescaled phase-space coordinates of one matrix element.

    w defaults to 0 (diagonal-direction elements); since u and v enter as
    components of O(N) vectors, |phi.s| <= |phi||s| forces w^2 <= u^2 v^2.
    """

    u_sq: float
    v_sq: float
    w: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.u_sq < math.inf and 0.0 <= self.v_sq < math.inf):
            raise ValueError(f"u_sq and v_sq must be finite and >= 0, "
                             f"got ({self.u_sq}, {self.v_sq})")
        if not self.w * self.w <= self.u_sq * self.v_sq:
            raise ValueError(
                f"Cauchy-Schwarz violated: w^2 = {self.w ** 2} exceeds "
                f"u_sq*v_sq = {self.u_sq * self.v_sq}")


@dataclass(frozen=True)
class MatrixElementValue:
    """ln_d is the per-dof log amplitude; phase_per_N the phase angle per dof."""

    ln_d: float
    phase_per_N: float
    saddle: _saddle.SaddleSolution


@dataclass(frozen=True)
class PeakFit:
    """Closed-form expansion of ln d around its ridge maximum (u0, v=0).

    Conventions: ln d ~ const - (u - u0)^2/(2 delta_u_sq) - v^2/(2 delta_v_sq),
    with third_u = d^3(ln d)/du^3, cross_uv = d^4(ln d)/du^2 dv^2 and
    fourth_v = d^4(ln d)/dv^4 at the maximum.
    """

    u0: float
    delta_u_sq: float
    delta_v_sq: float
    third_u: float
    cross_uv: float
    fourth_v: float


def ln_d(state: ReducedState, pt: PhasePoint, c_coeff: float = 0.0) -> MatrixElementValue:
    """Log amplitude and phase of one matrix element.

    c_coeff is the raw phase coefficient C of the operator (zero for any
    state built from R = 0 correlators); it multiplies w linearly and
    never feeds back into the saddle, so it is a plain extra argument
    rather than part of ReducedState.
    """
    if not math.isfinite(c_coeff):
        raise ValueError(f"c_coeff must be finite, got {c_coeff}")
    sol = _saddle.solve_saddle_uv_many(state, pt.u_sq, pt.v_sq)
    return MatrixElementValue(ln_d=float(_ln_d_at(state, sol.s, pt.u_sq, pt.v_sq)),
                              phase_per_N=-2.0 * c_coeff * pt.w,
                              saddle=sol)


# points per big_f pass and per block of d_surface's table path, so the
# temporaries do not grow with the grid: default fig3 peaks at 2.0 MiB
# under tracemalloc, at 11.0 MiB with each 201 x 201 grid as one block
_LN_D_CHUNK = 4096
# nodes of d_surface's small_f table, 2^8 + 1 so each point's bracket takes
# 8 halvings.  On fig3's default grids 65 to 1025 nodes all leave 0
# fallbacks; over 400 random 23 x 19 grids (n and x from 1e-3 to 1e4, axis
# ends from 1e-3 to 100) 129 nodes sent 4.5 % of the points to the
# root-finder, 257 2.7 %, 1025 1.1 %, while fig3's three x > 0 grids took
# 27-28 ms at 129 and 257 nodes and 30 ms at 1025
_TABLE_NODES = 257
# the second-order ln d error g^2/(8 slope) that d_surface accepts at a
# table point, relative to max(1, |ln d|)
_TABLE_TOL = 4.0 * np.finfo(float).eps


def _phi(state, s, u_sq, v_sq):
    """Phi(s) = -[F0 + Fu u^2 + Fv v^2 - (s - z0_sq)^2/(8 xi)] - ln z at
    (u^2, v^2): ln d where s is the saddle, above it elsewhere (Phi is
    convex, dPhi/ds = g/4); inf or NaN where a term overflows."""
    big_f0, big_fu, big_fv = _sf.big_f(s)
    with np.errstate(over="ignore", invalid="ignore"):
        corr = 0.0
        if state.xi > 0.0:
            diff = s - state.z0_sq
            corr = diff * diff / (8.0 * state.xi)
        return -(big_f0 + big_fu * u_sq + big_fv * v_sq - corr) \
            - _obs.ln_z_per_dof(state)


def _ln_d_at(state, s, u_sq, v_sq):
    """ln d at (u^2, v^2) given the saddle frequency s there (scalars or
    arrays, s of their broadcast shape).  An array of more points than
    _LN_D_CHUNK goes through big_f in blocks of rows of at most that many
    (or one row), so big_f's temporaries do not grow with the grid."""
    if np.size(s) > _LN_D_CHUNK and s.shape[0] > 1:
        u_sq, v_sq = (np.broadcast_to(a, s.shape) for a in (u_sq, v_sq))
        rows = max(1, _LN_D_CHUNK * s.shape[0] // s.size)
        out = np.empty(s.shape)
        for at in range(0, s.shape[0], rows):
            part = slice(at, at + rows)
            out[part] = _ln_d_at(state, s[part], u_sq[part], v_sq[part])
        return out
    val = _phi(state, s, u_sq, v_sq)
    if not np.isfinite(val).all():
        raise PrecisionLoss("phase-space coordinates overflow")
    return val


def _ridge_threshold(kappa):
    """x above which the amplitude develops a ridge; inf when kappa >= 3."""
    return math.inf if kappa >= 3.0 else 1.0 / (2.0 * (1.0 - kappa / 3.0))


def peak_threshold_x(n: float) -> float:
    """Non-Gaussianity strength above which the amplitude develops a ridge.

    Returns inf when kappa(n) >= 3 (low occupation): the surface then
    stays monotone in u no matter how strong the quartic term is.
    """
    return _ridge_threshold(ReducedState.from_nx(n, 0.0).kappa)


def classify_regime(state: ReducedState) -> Regime:
    peaked = state.x >= _ridge_threshold(state.kappa)
    return Regime.PEAKED if peaked else Regime.MONOTONE


def u_c_sq(state: ReducedState, v_sq: float = 0.0):
    """Ridge position u_c^2 at fixed v^2, or None where the ridge has ended.

    The ridge is the locus where the saddle frequency crosses zero:
    u_c^2 = -z0_sq/xi - 1/3 - v^2/3, positive for v^2 < -3 z0_sq/xi - 1.
    """
    if not 0.0 <= v_sq < math.inf:
        raise ValueError(f"v_sq must be finite and >= 0, got {v_sq}")
    if classify_regime(state) is not Regime.PEAKED:
        raise RegimeError(
            f"no ridge in the monotone regime (n={state.n}, x={state.x}; "
            f"threshold x >= {peak_threshold_x(state.n):.6g})")
    ratio = -state.z0_sq / state.xi
    # the peaked regime puts the ridge at v = 0 at u_c^2 >= 0: a negative
    # value there is the rounding of z0_sq and xi, not a ridge that ended
    val = max(ratio - 1.0 / 3.0, 0.0) - v_sq / 3.0
    # exact ridge end given in floats lands within roundoff of zero; only
    # a clearly negative value means the ridge has ended
    if val < -1e-12 * (abs(ratio) + 1.0 + v_sq / 3.0):
        return None
    return max(val, 0.0)


def delta_u_sq_large_n(n: float, x: float) -> float:
    """Leading large-n form of the squared peak width, n^2/(2x-1) + 1/6.

    Asymptotic check only -- at n = 10 it sits ~10% below the exact
    peak_fit value; the closed-form fit is authoritative.  ValueError
    unless n is finite and >= 0 and x is finite and above the pole x = 1/2.
    """
    if not 0 <= n < math.inf:
        raise ValueError(f"n must be finite and >= 0, got {n}")
    if not 0.5 < x < math.inf:
        raise ValueError(f"x must be finite and > 1/2 (the pole), got {x}")
    return n * n / (2.0 * x - 1.0) + 1.0 / 6.0


def peak_fit(state: ReducedState) -> PeakFit:
    """Exact expansion coefficients of ln d at the ridge maximum (v = 0).

    All coefficients come from implicit differentiation of the saddle
    equation at s* = 0 (the maximum sits exactly on the branch locus),
    where the envelope theorem gives d(ln d)/dU = -Fu(s*) and the Taylor
    data of F0, Fu, Fv at s = 0 does the rest.  RegimeError outside the
    peaked regime (from u_c_sq) and where the ridge sits at u = 0.
    """
    u0_sq = u_c_sq(state)
    if not u0_sq:
        raise RegimeError("ridge degenerates to u = 0 at the exact threshold")
    # dU/ds bookkeeping at s = 0: s_u = ds/dU, s_uu = d^2 s/dU^2
    q0 = 1.0 / state.xi + 1.0 / 45.0 + u0_sq / 6.0
    p = 4.0 / 945.0 + u0_sq / 20.0
    s_u = 1.0 / q0
    s_uu = (p / q0 - 1.0 / 3.0) / (q0 * q0)
    u0 = math.sqrt(u0_sq)
    third = -3.0 * u0 * s_u + (u0 ** 3) * s_u * s_u / 3.0 - 2.0 * (u0 ** 3) * s_uu
    cross = -s_u / 3.0 + u0_sq * s_u * s_u / 45.0 - (2.0 / 3.0) * u0_sq * s_uu
    return PeakFit(u0=u0,
                   delta_u_sq=q0 / u0_sq,
                   delta_v_sq=0.5,
                   third_u=third,
                   cross_uv=cross,
                   fourth_v=-1.0 / (3.0 * q0))


@dataclass(frozen=True)
class DSurface:
    """ln d over a rectangular (u, v) grid, shifted so the maximum is 0;
    fallbacks counts the points d_surface's kernel table sent to the
    root-finder."""

    u: np.ndarray
    v: np.ndarray
    ln_d_norm: np.ndarray  # shape (u.size, v.size)
    ln_d_max: float
    fallbacks: int


def ridge_u(state: ReducedState) -> float:
    """u of the ridge maximum at v = 0, or 1 where there is no ridge: the
    u scale of the CLI's default windows."""
    if classify_regime(state) is Regime.PEAKED:
        return math.sqrt(u_c_sq(state, 0.0))
    return 1.0


def ln_d_many(state: ReducedState, u_sq, v_sq):
    """Vectorized per-dof log amplitude over broadcastable (u^2, v^2) arrays.

    Same quantity as ln_d(...).ln_d (phase excluded); the workhorse behind
    d_surface and the Wigner quadrature loops.  PrecisionLoss where Fu u^2
    or Fv v^2 overflows.
    """
    u_sq = np.asarray(u_sq, dtype=float)
    v_sq = np.asarray(v_sq, dtype=float)
    s = _saddle.solve_saddle_uv_many(state, u_sq, v_sq).s
    return _ln_d_at(state, s, u_sq, v_sq)


def grid_axes(**axes):
    """Each named axis as a float array; refuses one that is not 1-D, is
    empty or holds NaN or inf, naming it."""
    arrays = [np.asarray(values, dtype=float) for values in axes.values()]
    for name, axis in zip(axes, arrays):
        if axis.ndim != 1:
            raise ValueError(f"{name} must be a one-dimensional array")
        if axis.size == 0:
            raise ValueError(f"{name} axis is empty")
        if not np.all(np.isfinite(axis)):
            raise ValueError(f"{name} values must be finite")
    return arrays


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _table_s(state, nodes, table, u_sq, v_sq):
    """s at each point of the flat arrays (u_sq, v_sq) from the small_f
    table (a, fu, fv) at the ascending nodes, a = (s - z0_sq)/xi - f0, and
    g^2/(8 m) there, m a lower bound on dg/ds between s and the root, which
    bounds Phi(s) - ln d.  Two small_f evaluations per point."""
    a, fu, fv = table

    def g_node(k):
        return a[k] - fu[k] * u_sq - fv[k] * v_sq

    def g(s):
        f0_s, fu_s, fv_s = _sf.small_f(s)
        return (s - state.z0_sq) / state.xi - (f0_s + fu_s * u_sq + fv_s * v_sq)

    # lo: the last node before the end where g <= 0 (0 where there is
    # none), by halving steps over node indices, as g rises in s
    lo = np.zeros(u_sq.shape, dtype=np.intp)
    step = (nodes.size - 1) >> 1
    while step:
        lo += step * (g_node(lo + step) <= 0.0)
        step >>= 1
    hi = lo + 1
    s_lo, s_hi, g_lo, g_hi = nodes[lo], nodes[hi], g_node(lo), g_node(hi)
    rise = g_hi - g_lo
    # linear interpolation of g, evaluated, then one inverse quadratic step
    # through it and both nodes (the secant step toward the node across the
    # root where the curvature term is not finite), each clamped inside the
    # bracket
    t = np.minimum(np.maximum(-g_lo / rise, 0.0), 1.0)
    s1 = s_lo + np.where(rise > 0.0, t, 0.0) * (s_hi - s_lo)
    g1 = g(s1)
    up = g1 > 0.0
    s_far, g_far = np.where(up, s_lo, s_hi), np.where(up, g_lo, g_hi)
    s_near, g_near = np.where(up, s_hi, s_lo), np.where(up, g_hi, g_lo)
    d1 = (s_far - s1) / (g_far - g1)
    d2 = ((s_near - s_far) / (g_near - g_far) - d1) / (g_near - g1)
    t = (g1 * g_far * np.where(np.isfinite(d2), d2, 0.0) - g1 * d1) / (s_far - s1)
    s2 = s1 + np.where(t > 0.0, np.minimum(t, 1.0), 0.0) * (s_far - s1)
    g2 = g(s2)
    # g is concave and rises at least as fast as (s - z0_sq)/xi, as f0, fu
    # and fv fall and are convex: from s2 to a root below s_hi (g_hi > 0)
    # its slope is at least the chord's from s_hi to the next node, and
    # 1/xi anywhere
    nxt = np.minimum(hi + 1, nodes.size - 1)
    run = (nodes[nxt] - s_hi) / (g_node(nxt) - g_hi)
    run = np.where((run > 0.0) & (g_hi > 0.0), np.minimum(run, state.xi), state.xi)
    return s2, g2 * g2 * run / 8.0


def _surface_table(state, u_sq, v_sq):
    """(ln d, s, fallbacks) over the grid u_sq x v_sq (1-D axes) of a state
    with x > 0 (module notes), in blocks of _LN_D_CHUNK points that may
    split a row; fallbacks counts the points solve_saddle_uv_many solved.
    The nodes span the roots of the grid's two extreme points, as the root
    rises in u^2 and v^2 (fu, fv > 0).  PrecisionLoss where ln d overflows."""
    ends = _saddle.solve_saddle_uv_many(state, [u_sq.min(), u_sq.max()],
                                        [v_sq.min(), v_sq.max()]).s
    nodes = np.linspace(ends[0], ends[1], _TABLE_NODES)
    f0, fu, fv = _sf.small_f(nodes)
    table = ((nodes - state.z0_sq) / state.xi - f0, fu, fv)
    size = u_sq.size * v_sq.size
    ln_d, s = np.empty(size), np.empty(size)
    fallbacks = 0
    for at in range(0, size, _LN_D_CHUNK):
        rows, cols = np.divmod(np.arange(at, min(at + _LN_D_CHUNK, size)), v_sq.size)
        uu, vv = u_sq[rows], v_sq[cols]
        part, err = _table_s(state, nodes, table, uu, vv)
        val = _phi(state, part, uu, vv)
        bad = ~((err <= _TABLE_TOL * np.maximum(1.0, np.abs(val))) & np.isfinite(val))
        if bad.any():
            part[bad] = _saddle.solve_saddle_uv_many(state, uu[bad], vv[bad]).s
            val[bad] = _phi(state, part[bad], uu[bad], vv[bad])
            fallbacks += int(np.count_nonzero(bad))
        s[at:at + part.size], ln_d[at:at + part.size] = part, val
    if not np.isfinite(ln_d).all():
        raise PrecisionLoss("phase-space coordinates overflow")
    shape = (u_sq.size, v_sq.size)
    return ln_d.reshape(shape), s.reshape(shape), fallbacks


def d_surface(state: ReducedState, u, v) -> DSurface:
    """Vectorized ln d over the tensor grid u x v, normalized to its max.

    At x > 0 from one kernel table per state (module notes), within
    _TABLE_TOL max(1, |ln d|) of ln_d_many plus the rounding of either."""
    u, v = grid_axes(u=u, v=v)
    if np.any(u < 0.0) or np.any(v < 0.0):
        raise ValueError("grid values must be >= 0")
    with np.errstate(over="ignore"):  # finite axes whose squares overflow
        u_sq, v_sq = u * u, v * v
    if not (np.all(np.isfinite(u_sq)) and np.all(np.isfinite(v_sq))):
        raise PrecisionLoss("phase-space coordinates overflow")
    if state.x == 0.0:
        grid, fallbacks = ln_d_many(state, u_sq[:, None], v_sq[None, :]), 0
    else:
        grid, _, fallbacks = _surface_table(state, u_sq, v_sq)
    top = float(np.max(grid))
    return DSurface(u=u, v=v, ln_d_norm=grid - top, ln_d_max=top, fallbacks=fallbacks)
