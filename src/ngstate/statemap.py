"""Map between measured correlators, operator parameters, and (n, x).

The library's coordinate system is the pair (n, x): the occupation number
n fixed by the Gaussian moments through n + 1/2 = sqrt(F*K - R**2), and the
dimensionless quartic strength x = (eta/kappa) * (F/(n+1/2))**2.  Every
derived quantity of interest depends on the measured data only through
(n, x), so ReducedState carries those two numbers plus the handful of
combinations that appear in all the formulas:

    z_gauss = ln(1 + 1/n)          effective Gaussian kernel frequency
    kappa   = z_gauss/(2n+1)       = h_trace(z_gauss**2)
    zeta    = 1 + 2*kappa*n*(n+1)
    z0_sq   = z_gauss**2 * (1-2x)  bare squared frequency (either sign)
    xi      = 2*x*kappa*z_gauss**2 quartic coupling in solver units

For x > 0 these satisfy z0_sq/xi = (1/kappa) * (1/(2x) - 1), which is a
cheap consistency check used in the tests.  Both directions of the
C4 <-> x relation live here (c4_half_ratio_nx, its two limit forms, and
x_from_c4), and so does the raw trace gap solve that moments_from_params
and the oracle's brute-force ln Z share (_gap_root).
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (BracketError, HeisenbergViolation, NonPositiveA,
                     PrecisionLoss, Unreachable)
from . import saddle as _saddle
from . import specfun as _sf

__all__ = [
    "GaussianMoments",
    "OperatorParams",
    "ReducedState",
    "c4_half_ratio_nx",
    "c4_ratio_large_n",
    "c4_ratio_small_n",
    "occupation",
    "params_from_moments",
    "moments_from_params",
    "x_from_c4",
]

# params_from_moments refuses occupations below this: the map to operator
# parameters diverges as kappa ~ ln(1/n) at the pure-state boundary.
N_SMALL = 1e-8

# Bracket cap for the x inversion; the ratio at this x is within ~1e-12
# of its floor for any n, so deeper targets are reported as unreachable.
_X_CAP = 1e12


@dataclass(frozen=True)
class GaussianMoments:
    """Measured second moments per O(N) component (hbar = 1).

    F = <phi phi>, K = <pi pi>, R = symmetrized <phi pi>.
    """

    F: float
    K: float
    R: float = 0.0

    def __post_init__(self):
        finite = all(math.isfinite(v) for v in (self.F, self.K, self.R))
        if not (finite and self.F > 0 and self.K > 0):
            raise ValueError(f"moments need finite F, K > 0 and R, got {self}")


@dataclass(frozen=True)
class OperatorParams:
    """Coefficients (A, B, C, eta) of the exponent of the density operator.

    The operator is exp(-N*[A pi.pi + B phi.phi + C (phi.pi + pi.phi)
    + (eta/N)(phi.phi)**2])/Z up to normalization; A must be positive for
    the Gaussian integrals behind every formula here to exist.
    """

    A: float
    B: float
    C: float
    eta: float

    def __post_init__(self):
        if not self.A > 0:
            raise NonPositiveA(f"A must be > 0, got {self.A}")
        if not self.eta >= 0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")
        if not all(map(math.isfinite, (self.A, self.B, self.C, self.eta))):
            raise ValueError(f"A, B, C and eta must be finite, got {self}")

    @property
    def z0_sq(self):
        """Bare squared frequency 4A(B - C**2/A)."""
        return 4.0 * (self.A * self.B - self.C * self.C)

    @property
    def xi(self):
        """Quartic solver coupling 8 A**2 eta."""
        return 8.0 * self.A * self.A * self.eta


@dataclass(frozen=True)
class ReducedState:
    """Intrinsic coordinates (n, x) with the derived solver constants."""

    n: float
    x: float
    kappa: float
    zeta: float
    z0_sq: float
    xi: float
    z_gauss: float

    @classmethod
    def from_nx(cls, n, x):
        """State at (n, x).

        Raises PrecisionLoss where kappa is not a normal double, where xi
        underflows to zero at x > 0, or where z0_sq or xi overflows.
        """
        if not (n > 0 and math.isfinite(n)):
            raise ValueError(f"occupation must be finite and > 0, got {n}")
        if not (x >= 0 and math.isfinite(x)):
            raise ValueError(f"strength x must be finite and >= 0, got {x}")
        z, kappa, zeta = _gaussian_constants(n)
        z_sq = z * z
        z0_sq, xi = z_sq * (1.0 - 2.0 * x), 2.0 * x * kappa * z_sq
        if x > 0.0 and xi == 0.0:
            raise PrecisionLoss(f"xi underflows at n = {n:.6g}, x = {x:.6g}")
        if not (math.isfinite(z0_sq) and math.isfinite(xi)):
            raise PrecisionLoss(f"z0_sq or xi overflows at n = {n:.6g}, x = {x:.6g}")
        return cls(
            n=float(n),
            x=float(x),
            kappa=kappa,
            zeta=zeta,
            z0_sq=z0_sq,
            xi=xi,
            z_gauss=z,
        )


def _gaussian_constants(n):
    """(z_gauss, kappa, zeta) at occupation n > 0.

    Raises PrecisionLoss where kappa is below the smallest normal double
    (n above about 5e153): the closed forms lose every digit there.
    """
    z = math.log1p(1.0 / n)
    kappa = z / (2.0 * n + 1.0)
    if kappa < sys.float_info.min:
        raise PrecisionLoss(f"kappa underflows at n = {n:.6g}")
    return z, kappa, 1.0 + 2.0 * kappa * n * (n + 1.0)


def occupation(m: GaussianMoments) -> float:
    """Occupation number n = sqrt(F*K - R**2) - 1/2."""
    det, c = m.F * m.K - m.R * m.R, 1.0
    if not math.isfinite(det):  # F*K or R**2 overflows: scale by the largest
        c = max(m.F, m.K, abs(m.R))
        det = (m.F / c) * (m.K / c) - (m.R / c) ** 2
    if det * c < 0.25 / c:
        raise HeisenbergViolation(
            f"F*K - R**2 = {det * c * c} < 1/4: not a valid quantum state"
        )
    return c * math.sqrt(det) - 0.5


def params_from_moments(m: GaussianMoments, x: float) -> OperatorParams:
    """Operator coefficients reproducing moments m with quartic strength x.

    A = kappa*F, C = -kappa*R, eta = x*kappa*(n+1/2)**2/F**2 and
    B = kappa*K - 2*eta*F, where kappa is evaluated at the occupation of m.
    Raises PrecisionLoss where kappa underflows (n above about 5e153).
    """
    if not 0 <= x < math.inf:
        raise ValueError(f"x must be finite and >= 0, got {x}")
    n = occupation(m)
    if n < N_SMALL:
        raise ValueError(
            "occupation at or near the pure-state boundary: operator "
            f"parameters diverge as kappa ~ ln(1/n) (n = {n})"
        )
    _, kappa, _ = _gaussian_constants(n)
    eta = x * kappa * (n + 0.5) ** 2 / (m.F * m.F)
    return OperatorParams(
        A=kappa * m.F,
        B=kappa * m.K - 2.0 * eta * m.F,
        C=-kappa * m.R,
        eta=eta,
    )


def _gap_root(z0_sq: float, xi: float, eta: float):
    """(kappa, n, s) = (h_trace(s), 1/(e^sqrt(s) - 1), s) at the root s of
    the trace gap equation (s - z0_sq)/xi = 1/h_trace(s), or at s = z0_sq
    where the quartic coefficient eta is 0; raises as moments_from_params.
    """
    if not (math.isfinite(z0_sq) and math.isfinite(xi)):
        raise PrecisionLoss(f"z0_sq = {z0_sq:.6g} or xi = {xi:.6g} overflows")
    if eta == 0.0 and z0_sq <= 0:
        raise ValueError("A*B - C**2 <= 0 with eta = 0: parameters do not "
                         "define a normalizable Gaussian operator")
    if eta > 0.0 and not (xi > 0.0 and -z0_sq / xi < math.inf):  # (lo - z0_sq)/xi
        raise PrecisionLoss(f"xi underflows or -z0_sq/xi overflows at eta = {eta:.6g}")
    s = _saddle.solve_trace_raw(z0_sq, xi, kernel=_sf.h_trace).s if eta > 0.0 else z0_sq
    try:  # expm1 overflows where n underflows
        return _sf.h_trace(s), 1.0 / math.expm1(math.sqrt(s)), s
    except OverflowError:
        raise PrecisionLoss(f"the occupation underflows at s = {s:.6g}") from None


def moments_from_params(p: OperatorParams):
    """Invert params_from_moments: recover (GaussianMoments, c4_half_ratio).

    Reads n and kappa off the root s of the trace gap equation and maps the
    coefficients back to moments: the exact inverse of params_from_moments
    up to solver precision, with B + 2 eta F = (s/4 + C**2)/A, which cannot
    cancel.  PrecisionLoss where z0_sq or xi overflows, xi underflows or
    -z0_sq/xi overflows at eta > 0, the occupation underflows (s above
    about 5e5) or F, K or R leaves double range; ValueError where eta = 0
    and A*B - C**2 <= 0.
    """
    kappa, n, s = _gap_root(p.z0_sq, p.xi, p.eta)
    F = p.A / kappa
    K = (0.25 * s + p.C * p.C) / p.A / kappa
    R = -p.C / kappa
    if not (0.0 < F < math.inf and 0.0 < K < math.inf and math.isfinite(R)):
        raise PrecisionLoss(f"F = {F:.6g}, K = {K:.6g} or R = {R:.6g} leaves double range")
    x = (p.eta / kappa) * (F / (n + 0.5)) ** 2
    return GaussianMoments(F=F, K=K, R=R), c4_half_ratio_nx(n, x)


def c4_ratio_large_n(x):
    """Limit of the quartic ratio for n >> 1: -2x/(1+2x), taken as
    -x/(1/2 + x), the same bits without 2x overflowing."""
    if not 0 <= x < math.inf:
        raise ValueError(f"x must be finite and >= 0, got {x}")
    return -x / (0.5 + x)


def c4_ratio_small_n(x):
    """Limit of the quartic ratio for n << 1: -x/(1 + x + sqrt(1+x))."""
    if not 0 <= x < math.inf:
        raise ValueError(f"x must be finite and >= 0, got {x}")
    return -x / (1.0 + x + math.sqrt(1.0 + x))


def c4_half_ratio_nx(n: float, x: float) -> float:
    """Quartic ratio C4/2F**2 as a function of (n, x); lies in [-1, 0].

    -(1/q)[2(f(1) - f(w)) + x m (1 + zeta/(1+zeta x))/(1+x)] with q = 2n+1,
    w = sqrt(1+x), f(y) = 1/(2y tanh(yz)) and m = (zeta-1)/z = 2n(n+1)/q,
    in one form for every x > 0 with no cancellation: w - 1 = x/(w+1) and
    tanh(wz) - tanh(z) = -2e^(-2z) expm1(-2(w-1)z)/((1+e^(-2wz))(1+e^(-2z)))
    split f(1) - f(w) into two positive terms.  Within 1e-15 relative of
    mpmath at 260 digits for n = 0 and n from 5e-324 to 4.7e153, x from
    1e-200 to the largest double, wherever x/(2n+1) >= 1e-290, clear of
    the underflow of z x/(w+1).  n < 1e-18 takes the small-n limit, whose
    dropped O(n) term is below half an ulp there.  Raises PrecisionLoss
    where kappa underflows (n above about 5e153).
    """
    if not (0.0 <= n < math.inf and 0.0 <= x < math.inf):
        raise ValueError(f"n and x must be finite and >= 0, got ({n}, {x})")
    if x == 0.0:
        return 0.0
    if n < 1e-18:
        return c4_ratio_small_n(x)
    z, _, zeta = _gaussian_constants(n)
    q, w = 2.0 * n + 1.0, math.sqrt(1.0 + x)
    e1, ew = math.expm1(-2.0 * z), math.expm1(-2.0 * w * z)
    qt, tw = -q * e1 / (2.0 + e1), -ew / (2.0 + ew)  # q tanh z, tanh wz
    d = -2.0 * math.exp(-2.0 * z) * math.expm1(-2.0 * z * (x / (w + 1.0))) \
        / ((2.0 + ew) * (2.0 + e1))  # tanh wz - tanh z
    m = n * (1.0 + 0.5 / (n + 0.5))
    return -((x / w) / (w + 1.0) / qt + d / qt / (w * tw)
             + (m / q) * (x / (1.0 + x)) * (1.0 + zeta / (1.0 + zeta * x)))


def x_from_c4(n: float, c4_half_ratio: float) -> float:
    """Invert the quartic ratio: find x with c4(n, x) = c4_half_ratio.

    The ratio decreases monotonically from 0 toward an n-dependent floor
    (numerically -1 for every n, approached like -1 + O(1/x)); targets at
    or below the floor raise Unreachable.
    """
    if not (n >= 0 and -1.0 <= c4_half_ratio <= 0.0):
        raise ValueError(f"need n >= 0, c4 ratio in [-1, 0], got ({n}, {c4_half_ratio})")
    if c4_half_ratio == 0.0:
        return 0.0

    target = np.float64(c4_half_ratio)  # g's values stay float64 scalars

    def g(y):  # solved in y = x/(1+x), on which the ratio is close to linear
        return target - c4_half_ratio_nx(n, y / (1.0 - y))

    try:
        y = _saddle._find_root(g, 0.0, _X_CAP / (1.0 + _X_CAP))[0]
    except BracketError:
        raise Unreachable(
            f"c4_half_ratio = {c4_half_ratio} is below the saturation floor for n = "
            f"{n} (ratio at x = {_X_CAP:g} is {c4_half_ratio_nx(n, _X_CAP):.12f})"
        ) from None
    return float(y / (1.0 - y))
