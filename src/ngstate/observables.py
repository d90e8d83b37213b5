"""Global observables: log-partition function, entropy, quartic ratio, purity.

These are the quantities that only depend on the state through (n, x) and
never require a phase-space grid: everything here is a solved closed form
plus, for the purity, one extra gap solve for the doubled-parameter
frequency.  The quartic ratio c4_half_ratio_nx and its two limits are
statemap's, which owns C4 <-> x and lists them in its __all__; they are
imported here, unlisted, beside c4_ratio of a state.  The log-partition
function per degree of freedom is

    ln_z = ln sqrt(n(n+1)) + (x/4) kappa (2n+1)**2

and the purity is assembled entirely in log space so that the n << 1
region (where the doubled frequency grows like ln(1/n)) cannot overflow.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import saddle as _saddle
from . import specfun as _sf
from .statemap import (ReducedState, c4_half_ratio_nx, c4_ratio_large_n,
                       c4_ratio_small_n)

__all__ = [
    "PurityReport",
    "ln_z_per_dof",
    "entropy_per_dof",
    "c4_ratio",
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
    Taken as ln(1+n) + n ln(1+1/n) for n >= 1, where the two terms above
    cancel (every digit is gone by n = 1e16), and with log1p for n < 1.
    """
    if not 0 <= n < math.inf:
        raise ValueError(f"occupation must be finite and >= 0, got {n}")
    if n == 0:
        return 0.0
    if n >= 1.0:
        return math.log1p(n) + n * math.log1p(1.0 / n)
    return (n + 1.0) * math.log1p(n) - n * math.log(n)


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
    if not 0 <= x < math.inf:
        raise ValueError(f"x must be finite and >= 0, got {x}")
    if x == 0.0:
        return 1.0, 1.0
    # h = sqrt(1+4x^2)/2 without overflow; (n~/n)^2 and x (1 - n~^4/(4 n^4))
    # in conjugate forms, since the naive ones cancel once x >> 1
    h = math.hypot(0.5, x)
    ratio_sq = 1.0 + x / (0.5 + h)
    r = math.sqrt(ratio_sq)
    return r, r * math.exp(-(0.5 + 0.25 * ratio_sq) / (1.0 + (0.5 + h) / x))
