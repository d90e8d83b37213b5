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
    underflows (n above about 5e153).
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
    p: float
    p_gaussian: float
    ratio: float
    n_tilde: float
    kappa_tilde: float


def purity(state: ReducedState) -> PurityReport:
    """Per-dof quantum purity p = tr(D^2 per mode), with diagnostics.

    Needs the doubled-parameter frequency z_tilde; the closed form is

        p = [n~(n~+1)/(2n~+1)] / [n(n+1)]
            * exp(-(x/2) kappa (2n+1)^2 * [1 - (kappa/kappa~)^2 q^2]),

    with q = (1+2n~(n~+1))/(1+4n~(n~+1)) and kappa~ = h_trace(z~^2).
    Assembled in log space; exact value 1/(2n+1) returned at x = 0.
    Raises PrecisionLoss where n~ or p is not representable as a double.
    """
    n, x = state.n, state.x
    p_gauss = 1.0 / (2.0 * n + 1.0)
    if x == 0.0:
        return PurityReport(p=p_gauss, p_gaussian=p_gauss, ratio=1.0,
                            n_tilde=n, kappa_tilde=state.kappa)
    sol = _saddle.solve_gap_tilde(state)
    z_t = math.sqrt(sol.s)
    t = math.exp(-z_t)
    if t == 1.0:
        raise PrecisionLoss(f"purity: n~ overflows at n = {n:.6g}, x = {x:.6g}")
    n_t = t / (1.0 - t)
    kappa_t = _sf.h_trace(sol.s)
    q = (1.0 + 2.0 * n_t * (n_t + 1.0)) / (1.0 + 4.0 * n_t * (n_t + 1.0))
    brace = 1.0 - (state.kappa / kappa_t) ** 2 * q * q
    expo = -0.5 * x * state.kappa * (2.0 * n + 1.0) ** 2 * brace
    ln_n_t = -z_t - math.log1p(-t)  # ln n~, safe when n~ underflows
    ln_p = (ln_n_t + math.log1p(n_t)
            - math.log(n) - math.log1p(n)
            - math.log1p(2.0 * n_t)
            + expo)
    try:
        p, ratio = math.exp(ln_p), math.exp(ln_p + math.log1p(2.0 * n))
    except OverflowError:
        raise PrecisionLoss(f"purity: p overflows at n = {n:.6g}, x = {x:.6g}") from None
    return PurityReport(p=p, p_gaussian=p_gauss, ratio=ratio,
                        n_tilde=n_t, kappa_tilde=kappa_t)


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
