"""Global observables: log-partition function, entropy, quartic ratio, purity.

These are the quantities that only depend on the state through (n, x) and
never require a phase-space grid: everything here is a solved closed form
plus, for the purity, one extra gap solve for the doubled-parameter
frequency.  The log-partition function per degree of freedom is

    ln_z = ln sqrt(n(n+1)) + (x/4) kappa (2n+1)**2

and the purity is assembled entirely in log space so that the n << 1
region (where the doubled frequency grows like ln(1/n)) cannot overflow.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import saddle as _saddle
from . import specfun as _sf
from .errors import PrecisionLoss
from .statemap import N_SMALL, ReducedState, _gaussian_constants

__all__ = [
    "PurityReport",
    "ln_z_per_dof",
    "entropy_per_dof",
    "c4_half_ratio_nx",
    "c4_ratio",
    "c4_ratio_large_n",
    "c4_ratio_small_n",
    "purity",
    "purity_limit_large_n",
    "purity_many",
]


def ln_z_per_dof(state: ReducedState) -> float:
    """ln Z per degree of freedom (the quartic shift is (x/4) kappa (2n+1)**2)."""
    n = state.n
    return 0.5 * math.log(n * (n + 1.0)) + 0.25 * state.x * state.kappa * (2.0 * n + 1.0) ** 2


def entropy_per_dof(n: float) -> float:
    """Correlation entropy per degree of freedom, (n+1)ln(n+1) - n ln n.

    Independent of x: the quartic contributions to -tr(D ln D) cancel
    against the shift in ln Z (the definitional oracle checks this).
    """
    if n < 0:
        raise ValueError(f"occupation must be >= 0, got {n}")
    if n == 0:
        return 0.0
    return (n + 1.0) * math.log(n + 1.0) - n * math.log(n)


def c4_ratio_large_n(x):
    """Limit of the quartic ratio for n >> 1: -2x/(1+2x)."""
    return -2.0 * x / (1.0 + 2.0 * x)


def c4_ratio_small_n(x):
    """Limit of the quartic ratio for n << 1: -x/(1 + x + sqrt(1+x))."""
    return -x / (1.0 + x + math.sqrt(1.0 + x))


def c4_half_ratio_nx(n: float, x: float) -> float:
    """Quartic ratio C4/2F**2 as a function of (n, x); lies in [-1, 0].

    Closed form with two protective dispatches: n below N_SMALL goes to
    the small-n limit (kappa ~ ln(1/n) makes the general expression
    ill-conditioned there, and the limit is uniform in x), and x < 1e-6
    goes to the Taylor series through x**2 (the (2/x)[f(1) - f(sqrt(1+x))]
    term is a removable 0/0 at x = 0); both sides of the cut are within
    1e-9 relative of the exact value.  Raises PrecisionLoss where kappa
    underflows (n above about 5e153) or zeta*x overflows (x near 1e308).
    """
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if n < N_SMALL:
        return c4_ratio_small_n(x)
    z, _, zeta = _gaussian_constants(n)
    q = 2.0 * n + 1.0
    if x < 1e-6:
        m = n * (n + 1.0)
        b0 = (1.0 + 2.0 * m * (3.0 * zeta + 2.0)) / (2.0 * q)
        b1 = -(1.5 * (2.0 * m + 1.0) + 3.0 * m * (zeta - 1.0)
               + (2.0 * m + 1.0) * (zeta - 1.0) ** 2) / (4.0 * q) \
            - 2.0 * m * (zeta * zeta + zeta + 1.0) / q
        return -(x / q) * (b0 + b1 * x)

    if not math.isfinite(zeta * x):
        raise PrecisionLoss(f"zeta*x overflows at n = {n:.6g}, x = {x:.6g}")

    def f(y):
        return 1.0 / (2.0 * y * math.tanh(y * z))

    bracket = (2.0 / x) * (f(1.0) - f(math.sqrt(1.0 + x))) + (
        zeta * zeta / (1.0 + zeta * x) - 1.0 / (1.0 + x)
    ) / z
    return -(x / q) * bracket


def c4_ratio(state: ReducedState) -> float:
    """Quartic ratio of a reduced state (see c4_half_ratio_nx)."""
    return c4_half_ratio_nx(state.n, state.x)


@dataclass(frozen=True)
class PurityReport:
    """Floats from purity, arrays from purity_many."""

    p: float
    p_gaussian: float
    ratio: float
    n_tilde: float


def purity_many(states) -> PurityReport:
    """Per-dof quantum purity p = tr(D^2 per mode) of each state, with
    diagnostics: a PurityReport of arrays in the order of states.

    One batched solve of (s - z0_sq)/xi = 1/h2(s) gives the doubled
    frequencies z~ of all x > 0 states.  With k = kappa/h2(z~^2),

        p = exp(-x kappa (2n+1)^2 (1 - k)(2 - (1 - k))/2) / (2 sinh(z~) n(n+1)),

    assembled in log space.  The doubled gap equation gives
    1 - k = (z_gauss^2 - z~^2)/(2x z_gauss^2) exactly: that form is taken
    for x >= 1, where 1 - kappa/h2 cancels, and 1 - kappa/h2 for x < 1,
    where the difference of squares is rounding, so the exponent is good
    to about kappa (2n+1)^2 eps.  x = 0 gets the exact Gaussian report.
    """
    n, x, kappa, z0_sq, xi, z_g = (
        np.array([getattr(st, f) for st in states], dtype=float)
        for f in ("n", "x", "kappa", "z0_sq", "xi", "z_gauss"))
    p_gauss = 1.0 / (2.0 * n + 1.0)
    p, ratio, n_t = p_gauss.copy(), np.ones_like(n), n.copy()
    quartic = x > 0.0
    s = _saddle.solve_trace_raw(z0_sq[quartic], xi[quartic], kernel=_sf.h2).s
    n, x, kappa = n[quartic], x[quartic], kappa[quartic]
    z_sq = z_g[quartic] * z_g[quartic]
    z_t = np.sqrt(s)
    one_k = np.where(x >= 1.0, (z_sq - s) / z_sq / (2.0 * x),
                     1.0 - kappa / _sf.h2(s))
    expo = -0.5 * kappa * (2.0 * n + 1.0) ** 2 * (x * one_k) * (2.0 - one_k)
    ln_p = (-z_t - np.log(-np.expm1(-2.0 * z_t))  # -ln(2 sinh z~)
            - np.log(n) - np.log1p(n) + expo)
    p[quartic], ratio[quartic] = np.exp(ln_p), np.exp(ln_p + np.log1p(2.0 * n))
    n_t[quartic] = 1.0 / np.expm1(z_t)
    return PurityReport(p=p, p_gaussian=p_gauss, ratio=ratio, n_tilde=n_t)


def purity(state: ReducedState) -> PurityReport:
    """Purity of one state: purity_many([state]) with float fields."""
    rep = purity_many([state])
    return PurityReport(**{f: float(v[0]) for f, v in vars(rep).items()})


def purity_limit_large_n(x: float):
    """n >> 1 limit: returns (n_tilde_over_n, purity ratio p/p0).

    The doubled gap equation turns quadratic, giving
    (n~/n)^2 = 2/(1 - 2x + sqrt(1+4x^2)) and
    p/p0 = (n~/n) exp(-x (1 - n~^4/(4 n^4))); the ratio tends to
    sqrt(2/e) = 0.8577... as x -> infinity.
    """
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x == 0.0:
        return 1.0, 1.0
    # conjugate form of 2/(1 - 2x + sqrt(1+4x^2)): the naive denominator
    # cancels catastrophically once x >> 1
    ratio_sq = (math.sqrt(1.0 + 4.0 * x * x) + 2.0 * x - 1.0) / (2.0 * x)
    r = math.sqrt(ratio_sq)
    return r, r * math.exp(-x * (1.0 - 0.25 * ratio_sq * ratio_sq))
