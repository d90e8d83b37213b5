"""O(N) Wigner function by finite-N Bessel quadrature and extrapolation.

The Wigner function of the effective operator depends on phase space only
through u^2 (position radius) and r^2 (a reduced momentum-displacement
radius).  At finite even N it is a one-dimensional integral against the
position-basis amplitude D = exp(N ln_d):

    W_N = (N r / 2) (8 pi / r)^{N/2}
          * Integral_0^inf dv  v^{N/2} J_{N/2-1}(N r v) D(u^2, v^2),

which this module evaluates in log-factored form: the smooth envelope
exp(N g(v)), g = (1/2) ln v + ln_d, is scaled by its maximum, while the
Bessel factor (|J| <= 1) stays linear.  At r = 0 (and at r so small that
N r^2 v^2 / 2 < 2^-53 over the mesh) the Bessel kernel is replaced by its
exact small-argument limit, where the r-dependence cancels analytically:

    W_N(r=0) = (4 pi N)^{N/2} / Gamma(N/2) * Integral dv v^{N-1} D.

ln w per dof, (1/N) ln W_N, is computed for the four N of N_LIST and
extrapolated to N -> infinity (Richardson in 1/N); project_physical takes
its own four N, as fig6 needs lower ones for its wide window.  The
envelope cut is sized at N = _CUT_N, the smallest N accepted.  At x = 0 the
integral is a Weber integral with the exact value ln w_N = ln w_inf -
ln(2)/N, so the extrapolation is exact there, and ln_w_gaussian_exact is
the oracle.

Grids, projections and single points share one assembly, which builds
each N's Bessel table once per distinct r, in blocks of _TABLE_ELEMS; the
N of a block share one kernel call while their tables together fit one
Bessel chunk (a single point's four), else each N takes its own.

Every quadrature mesh is a pure function of the call inputs (state, grid,
N list), so results are bitwise reproducible however a caller
distributes calls over workers.  A projection row's values do not depend
on the other rows while the call's table fits one block; otherwise, and
for tensor grids, other points can move a value in its last digits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import densmat as _dm
from . import specfun as _sf
from .errors import BracketError, NotConverged, PrecisionLoss, QuadratureNonPositive
from .statemap import GaussianMoments, ReducedState

__all__ = [
    "N_LIST",
    "ProjectionGrid",
    "ProjectionMode",
    "SPREAD_TOL",
    "SqueezeParams",
    "WignerGrid",
    "ln_w",
    "ln_w_at_N",
    "ln_w_gaussian_exact",
    "project_physical",
    "wigner_grid",
]

_GL_ORDER = 16
# computed once, on first use: importing numpy.polynomial costs ~5 ms
_gl_rule = functools.cache(lambda: np.polynomial.legendre.leggauss(_GL_ORDER))
_ENVELOPE_DROP = 45.0  # e^-45 ~ 3e-20: envelope negligible past the cut
_CUT_N = 4  # N of the envelope cut: the smallest N accepted, widest envelope
# First pass of the envelope probe: grid indices 0..95, v < 4.5 at the first
# probe_hi = 48.  Past the peak Fv(s*) only rises, so g(v) - g_max <=
# ln w - (w^2 - 1)/2 with w = v/v_peak, which reaches -45/4 at w ~ 5.18.
# Where s* >= 0 at the peak, Fv >= 1 and v_peak <= 1/sqrt(2): the cut lies at
# v <= 3.67 (index <= 80), so every such row settles in this pass; 96 = 3 x 32
# hands over to the coarse points (every 32nd index) with no gap.
_PROBE_NEAR = 96
# Bessel table block in entries (distinct r x nodes), 768 KiB: one block for
# every default preset (<= 188 r x 384 nodes), 5x the probe's 201 u x 96
_TABLE_ELEMS = 3 << 15
SPREAD_TOL = 1e-3  # ln_w refuses an extrapolation spread above this
# the four N that ln_w and wigner_grid extrapolate in 1/N; the last also
# sets the mesh of every single point, ln_w_at_N's included
N_LIST = (28, 32, 36, 40)


def _even_n(N) -> int:
    """N as an int; refused unless an even integer >= 4 (Bessel order N/2-1)."""
    if not (math.isfinite(N) and N == int(N) and N >= 4 and N % 2 == 0):
        raise ValueError(f"N must be an even integer >= 4, got {N!r}")
    return int(N)


class ProjectionMode(Enum):
    PARA = "para"
    PERP = "perp"


@dataclass(frozen=True)
class SqueezeParams:
    """Polar parametrization of the Gaussian correlators at fixed n.

    gamma sets the squeezing strength, phi the orientation; gamma = 0 is
    the isotropic thermal point F = K = n + 1/2, R = 0.
    """

    n: float
    gamma: float
    phi: float

    def __post_init__(self):
        if not self.n >= 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi}")

    def moments(self) -> GaussianMoments:
        a_bar = (self.n + 0.5) / math.sqrt(1.0 - self.gamma ** 2)
        return GaussianMoments(F=a_bar * (1.0 + self.gamma * math.cos(self.phi)),
                               K=a_bar * (1.0 - self.gamma * math.cos(self.phi)),
                               R=a_bar * self.gamma * math.sin(self.phi))

    def reduced(self, x: float):
        """(state, A, rho) at nongaussianity x: the reduced state, A =
        kappa*F and the correlator slope rho = R/F (see project_physical)."""
        m = self.moments()
        state = ReducedState.from_nx(self.n, x)
        return state, state.kappa * m.F, m.R / m.F


@dataclass(frozen=True)
class WignerGrid:
    """Extrapolated ln w over a tensor (u, r) grid, shifted to max = 0."""

    u: np.ndarray
    r: np.ndarray
    ln_w_norm: np.ndarray  # (u.size, r.size)
    spread: np.ndarray     # same shape, extrapolation diagnostic
    ln_w_max: float
    quad_points: int
    v_max: float


@dataclass(frozen=True)
class ProjectionGrid:
    """ln w over a physical (phi, pi) grid for one projection mode."""

    phi: np.ndarray
    pi: np.ndarray
    ln_w_norm: np.ndarray  # (phi.size, pi.size)
    spread: np.ndarray
    ln_w_max: float
    mode: ProjectionMode
    quad_points: int
    v_max: float


def ln_w_gaussian_exact(state: ReducedState, u_sq, r_sq):
    """Closed-form N -> infinity Wigner exponent of the x = 0 state.

    Follows from the Weber integral; the finite-N value is exactly this
    minus ln(2)/N, which makes it the pipeline oracle at x = 0.
    """
    n, z = state.n, state.z_gauss
    return (math.log(2.0 / (2.0 * n + 1.0))
            - 0.5 * state.kappa * np.asarray(u_sq, dtype=float)
            - np.asarray(r_sq, dtype=float) / (2.0 * z * (2.0 * n + 1.0)))


# ---------------------------------------------------------------------------
# quadrature plumbing


def _auto_v_max(state: ReducedState, u_sq, n_min: int) -> float:
    """Envelope cut: the first of 1025 v on [1e-3, probe_hi] past the peak of
    g = ln v + ln d where the weakest exponent N_min*(g - g_max) < -45.

    Each pass samples the rows not yet settled (_peak_and_cut): the first
    _PROBE_NEAR indices, every 32nd, +-31 around the peak and the 63 below
    the cut, the whole row.  g has one peak in v, so a settled row's cut
    is the full scan's, bit for bit (README design notes).
    """
    u_sq = np.atleast_1d(np.asarray(u_sq, dtype=float))
    cols = np.arange(1025)
    probe_hi = 48.0
    while True:
        v = np.linspace(1e-3, probe_hi, 1025)
        ln_v, v_sq = np.log(v), v * v
        cut = np.empty(u_sq.size, dtype=int)
        rows = np.arange(u_sq.size)  # not yet settled; peak, at: their peak, cut
        g = np.full((u_sq.size, _PROBE_NEAR), np.nan)  # NaN: not sampled yet
        for step in range(4):
            if step == 1:
                want = cols % 32 == 0
            elif step == 2:
                want = ((np.abs(cols - peak[:, None]) <= 31)
                        | (np.abs(cols - at[:, None] + 32) <= 31))
            else:
                want = True
            r, c = np.nonzero(want & np.isnan(g))
            g[r, c] = ln_v[c] + _dm.ln_d_many(state, u_sq[rows[r]], v_sq[c])
            peak, at, settled = _peak_and_cut(g, n_min)
            cut[rows[settled]] = at[settled]
            rows, g, peak, at = (a[~settled] for a in (rows, g, peak, at))
            if not rows.size:
                break
            g = np.pad(g, ((0, 0), (0, 1025 - g.shape[1])), constant_values=np.nan)
        if np.all(cut < 1025):
            return float(v[cut].max())
        probe_hi *= 2.0
        if probe_hi > 1e4:
            raise BracketError("envelope failed to decay below the quadrature cut")


def _peak_and_cut(g, n_min):
    """Per row of g at the first g.shape[1] of the 1025 probe indices (NaN
    where not sampled): the first index of the sampled maximum, the first
    sampled index past it that dropped below the cut (or 1025), and whether
    the row is settled: the peak's neighbours and the index below the cut
    are sampled."""
    g_max = np.fmax.reduce(g, axis=1)[:, None]
    peak = np.argmax(g == g_max, axis=1)
    dropped = ((np.arange(g.shape[1]) > peak[:, None])
               & (n_min * (g - g_max) < -_ENVELOPE_DROP))
    cut = np.where(dropped.any(axis=1), np.argmax(dropped, axis=1), 1025)
    # column j + 1 of seen is index j; the grid's two ends count as seen
    seen = np.pad(~np.isnan(g), ((0, 0), (1, 1026 - g.shape[1])))
    seen[:, [0, -1]] = True
    rows = np.arange(g.shape[0])
    settled = seen[rows, peak] & seen[rows, peak + 2] & seen[rows, cut]
    return peak, cut, settled


def _panel_count(v_max: float, n_max: int, r_max: float) -> int:
    if r_max > 0.0:
        # 16-point panels spanning 2.5 oscillation wavelengths resolve the
        # Bessel factor to ~1e-12; the floor handles the smooth envelope
        panel_w = 2.5 * (2.0 * math.pi / (n_max * r_max))
        return int(min(600, max(24, math.ceil(v_max / panel_w))))
    return 24


def _gl_mesh(v_max: float, n_panels: int):
    x16, w16 = _gl_rule()
    edges = np.linspace(0.0, v_max, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    v = (mid[:, None] + half[:, None] * x16[None, :]).ravel()
    w = (half[:, None] * w16[None, :]).ravel()
    return v, w


def _bessel_tables(n_list, r_blk, v):
    """Each N's Bessel table J_{N/2-1}(N r v), (r, node), in turn: from one
    kernel call while the tables together fit one Bessel chunk (a single
    point's four), else from one call per N, made as its table is read."""
    if len(n_list) * r_blk.size * v.size > _sf._BESSEL_CHUNK:
        for N in n_list:
            yield _sf._bessel_rows([N // 2 - 1] * r_blk.size, N * np.outer(r_blk, v))
    else:
        rv = np.outer(r_blk, v)
        tables = _sf._bessel_rows([N // 2 - 1 for N in n_list for _ in r_blk],
                                  np.concatenate([N * rv for N in n_list]))
        yield from tables.reshape(len(n_list), r_blk.size, v.size)


def _assemble_per_n(state, u_sq, r_rows, n_list, v, w):
    """ln w for each N at the points (u_sq[i], r_rows[i, k]): (nN, nu, nr).

    r_rows has one row per u, or one row for every u (a tensor grid).  The
    Bessel table is built once per distinct r above r_tiny, in blocks; only
    the points' own entries are checked and logged.
    """
    ln_v = np.log(v)
    lnd = _dm.ln_d_many(state, u_sq[:, None], (v * v)[None, :])  # (nu, nodes)
    g_half = 0.5 * ln_v[None, :] + lnd
    g_full = ln_v[None, :] + lnd
    gmax_h = g_half.max(axis=1)
    gmax_f = g_full.max(axis=1)

    shared = r_rows.shape[0] < u_sq.size
    r_rows = np.broadcast_to(r_rows, (u_sq.size, r_rows.shape[1]))
    out = np.empty((len(n_list),) + r_rows.shape)
    flat = out.reshape(len(n_list), -1)
    # below r_tiny, N r^2 v^2 / 2 < 2^-53 and the exact r = 0 path holds
    r_tiny = math.sqrt(2.0 ** -52 / max(n_list)) / v[-1]
    pos = r_rows.ravel() >= r_tiny
    at = np.flatnonzero(pos)
    r_pos, inv = np.unique(r_rows.ravel()[at], return_inverse=True)
    block = max(1, _TABLE_ELEMS // v.size)
    for lo in range(0, r_pos.size, block):
        r_blk = r_pos[lo:lo + block]
        mine = np.flatnonzero((inv >= lo) & (inv < lo + block))
        pts, col = at[mine], inv[mine] - lo
        row = pts // r_rows.shape[1]
        # a tensor grid needs every (u, r) pair; else each row takes only
        # the table rows of its own r values
        edges = [0, *(np.flatnonzero(np.diff(row)) + 1).tolist(), row.size]
        tables = _bessel_tables(n_list, r_blk, v)
        for i_n, N in enumerate(n_list):
            envelope = np.exp(N * (g_half - gmax_h[:, None])) * w  # (nu, nodes)
            bes = next(tables)  # after the envelope: the last N's is freed by then
            if shared:
                integral = (envelope @ bes.T)[row, col]
            else:
                integral = np.concatenate([bes[col[a:b]] @ envelope[row[a]]
                                           for a, b in zip(edges, edges[1:])])
            if np.any(integral <= 0.0):
                bad = int(np.argmax(integral <= 0.0))
                raise QuadratureNonPositive(
                    f"oscillatory quadrature lost positivity at N = {N}, "
                    f"u^2 = {u_sq[row[bad]]:.6g}, r = {r_blk[col[bad]]:.6g}")
            prefac = np.log(N * r_blk / 2.0) / N + 0.5 * np.log(8.0 * math.pi / r_blk)
            flat[i_n, pts] = np.log(integral) / N + gmax_h[row] + prefac[col]
    at0 = np.flatnonzero(~pos)
    row0 = at0 // r_rows.shape[1]
    for i_n, N in enumerate(n_list):
        if not at0.size:
            break
        env0 = np.exp(N * (g_full - gmax_f[:, None])) * (w / v)
        integral0 = env0.sum(axis=1)[row0]
        if np.any(integral0 <= 0.0):
            raise QuadratureNonPositive(f"r = 0 integral vanished at N = {N}")
        flat[i_n, at0] = (0.5 * math.log(4.0 * math.pi * N)
                          - math.lgamma(N / 2.0) / N
                          + gmax_f[row0] + np.log(integral0) / N)
    return out


def _extrapolate(vals, n_list):
    """(value, spread) along axis 0 of four N: the three-point Lagrange
    extrapolant to 1/N = 0 from the last three N, and its distance from
    the one from the first three."""
    h = 1.0 / np.asarray(n_list, dtype=float)

    def step(k):
        h0, h1, h2 = h[k - 2], h[k - 1], h[k]
        c0 = h1 * h2 / ((h0 - h1) * (h0 - h2))
        c1 = h0 * h2 / ((h1 - h0) * (h1 - h2))
        c2 = h0 * h1 / ((h2 - h0) * (h2 - h1))
        return c0 * vals[k - 2] + c1 * vals[k - 1] + c2 * vals[k]

    last = step(3)
    return last, np.abs(last - step(2))


def _mesh_and_assemble(state, u_sq, r_rows, n_list, n_mesh):
    """Mesh for the points, its panels sized at n_mesh, then ln w for each
    N of n_list -> (per_n, v_max, nodes)."""
    r_max = float(r_rows.max()) if r_rows.size else 0.0
    # the callers refuse non-finite inputs: these overflowed on the way
    if not (np.all(np.isfinite(u_sq)) and math.isfinite(n_mesh * r_max)):
        raise PrecisionLoss("phase-space coordinates overflow")
    v_max = _auto_v_max(state, u_sq, _CUT_N)
    n_panels = _panel_count(v_max, n_mesh, r_max)
    v, w = _gl_mesh(v_max, n_panels)
    per_n = _assemble_per_n(state, u_sq, r_rows, n_list, v, w)
    return per_n, v_max, n_panels * _GL_ORDER


def _point_per_n(state, u_sq, r_sq, n_list):
    """ln w for each N of n_list at one point, on the N_LIST mesh: (nN,)."""
    if not (0.0 <= u_sq < math.inf and 0.0 <= r_sq < math.inf):
        raise ValueError(f"u_sq and r_sq must be finite and >= 0, got ({u_sq}, {r_sq})")
    per_n, _, _ = _mesh_and_assemble(state, np.array([u_sq], dtype=float),
                                     np.array([[math.sqrt(r_sq)]]), n_list,
                                     N_LIST[-1])
    return per_n[:, 0, 0]


def _normalised(state, u_sq, r_rows, n_list):
    """Extrapolated ln w at the points (u_sq[i], r_rows[i, k]), shifted to
    max = 0: the fields shared by WignerGrid and ProjectionGrid."""
    per_n, v_max, n_quad = _mesh_and_assemble(state, u_sq, r_rows, n_list,
                                              n_list[-1])
    value, spread = _extrapolate(per_n, n_list)
    top = float(value.max())
    return dict(ln_w_norm=value - top, spread=spread, ln_w_max=top,
                quad_points=n_quad, v_max=v_max)


# ---------------------------------------------------------------------------
# public surface


def ln_w_at_N(state: ReducedState, u_sq: float, r_sq: float, N: int) -> float:
    """Per-dof log Wigner value at one finite even N (no extrapolation)."""
    return float(_point_per_n(state, u_sq, r_sq, (_even_n(N),))[0])


def ln_w(state: ReducedState, u_sq: float, r_sq: float):
    """Extrapolated per-dof log Wigner value from N_LIST -> (value, spread).

    Raises NotConverged when the spread exceeds SPREAD_TOL.
    """
    per_n = _point_per_n(state, u_sq, r_sq, N_LIST)
    value, spread = map(float, _extrapolate(per_n, N_LIST))
    if spread > SPREAD_TOL:
        raise NotConverged(
            f"ln w spread {spread:.3e} above tolerance {SPREAD_TOL:.3e} "
            f"at u^2 = {u_sq:.6g}, r^2 = {r_sq:.6g}",
            value=value, spread=spread)
    return value, spread


def wigner_grid(state: ReducedState, u, r) -> WignerGrid:
    """Extrapolated ln w from N_LIST over the tensor grid u x r, normalized
    to max = 0.

    Convergence is reported per point in .spread rather than raised, so a
    caller can flag partial results; QuadratureNonPositive still raises.
    """
    u, r = _dm.grid_axes(u=u, r=r)
    if np.any(u < 0.0) or np.any(r < 0.0):
        raise ValueError("grid values must be >= 0")
    with np.errstate(over="ignore"):
        u_sq = u * u
    return WignerGrid(u=u, r=r, **_normalised(state, u_sq, r[None, :], N_LIST))


def project_physical(sq: SqueezeParams, x: float, mode: ProjectionMode,
                     phi, pi, n_list=N_LIST) -> ProjectionGrid:
    """ln w on a physical (phi, pi) grid (per-sqrt(N)-scaled coordinates),
    extrapolated from n_list: four strictly ascending even N >= 4, the
    last of which also sets the mesh.

    The map into the reduced (u, r) plane uses A = kappa*F and the actual
    correlator slope rho = R/F:

        u^2        = phi^2 / A
        r^2 (para) = 4 A (pi - rho phi)^2      -- collinear O(N) vectors
        r^2 (perp) = 4 A (pi^2 + rho^2 phi^2)  -- orthogonal O(N) vectors

    At x = 0 this reproduces the exact Gaussian Wigner function of the
    correlators (F, K, R), tilt included.
    """
    n_list = tuple(map(_even_n, n_list))
    if len(n_list) != 4 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"n_list needs four strictly ascending N, got {n_list}")
    phi, pi_arr = _dm.grid_axes(phi=phi, pi=pi)
    state, big_a, rho = sq.reduced(x)
    with np.errstate(over="ignore"):  # _mesh_and_assemble refuses inf
        u_sq = phi * phi / big_a
        if mode is ProjectionMode.PARA:
            diff = pi_arr[None, :] - rho * phi[:, None]
            r_sq = 4.0 * big_a * diff * diff
        elif mode is ProjectionMode.PERP:
            r_sq = 4.0 * big_a * (pi_arr[None, :] ** 2
                                  + (rho * phi[:, None]) ** 2)
        else:
            raise ValueError(f"unknown projection mode {mode!r}")
    return ProjectionGrid(phi=phi, pi=pi_arr, mode=mode,
                          **_normalised(state, u_sq, np.sqrt(r_sq), n_list))
