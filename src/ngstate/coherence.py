"""Coherent-state overlap magnitudes from the Wigner-function widths.

In the Gaussian-peak regime the zero-mode Wigner function is a product
of two Gaussians with per-component variances Delta_phi^2 (position) and
Delta_pi^2 (momentum).  The magnitude of a coherent-state matrix element
<alpha| . |alpha'> then depends on alpha = (a + i b)/..., alpha' only
through the four nonnegative scalars |a + a'|, |a - a'|, |b + b'|,
|b - b'| -- rotational symmetry removes every other direction.  All
results are log-proportionality factors: the overall normalization is
dropped, so a vanishing exponent marks the maximal element.

The displaced variant adds the radial factor from integrating over the
displaced shell at radius phi0.  It is derived in the asymptotic Bessel
regime |beta_phi| * phi0 >> N/2 and refuses to run outside it.  Its
oscillatory cosine factor cos(2i*beta_phi*phi0 - N*pi/4) mixes growth
and oscillation; it is reported as a separate log-magnitude and is NOT
folded into ln_magnitude.

Every result is finite: where a square, |beta_phi| or an exponent leaves
double range, the call raises PrecisionLoss instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AsymptoticRegimeViolation, PrecisionLoss

__all__ = [
    "CoherencePair",
    "DisplacedOverlap",
    "WignerWidths",
    "overlap_centered",
    "overlap_displaced",
]

# overlap_displaced needs |beta_phi|*phi0 at least this many times N/2
_MIN_RATIO = 5.0


@dataclass(frozen=True)
class CoherencePair:
    """The four scalar invariants of a pair of coherent-state labels.

    a_plus = |a + a'|, a_minus = |a - a'| for the real parts, b_plus and
    b_minus likewise for the imaginary parts.
    """

    a_plus: float
    a_minus: float
    b_plus: float
    b_minus: float

    def __post_init__(self):
        for name in ("a_plus", "a_minus", "b_plus", "b_minus"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")

    @classmethod
    def from_labels(cls, alpha: complex, alpha_prime: complex) -> "CoherencePair":
        return cls(a_plus=abs(alpha.real + alpha_prime.real),
                   a_minus=abs(alpha.real - alpha_prime.real),
                   b_plus=abs(alpha.imag + alpha_prime.imag),
                   b_minus=abs(alpha.imag - alpha_prime.imag))


@dataclass(frozen=True)
class WignerWidths:
    """Per-component Wigner variances (delta^2 / N in physical units).

    Only positivity is required: squeezed products below the Heisenberg
    floor are legitimate inputs here.
    """

    delta_phi_sq: float
    delta_pi_sq: float

    def __post_init__(self):
        if not 0.0 < self.delta_phi_sq < math.inf:
            raise ValueError("delta_phi_sq must be finite and > 0")
        if not 0.0 < self.delta_pi_sq < math.inf:
            raise ValueError("delta_pi_sq must be finite and > 0")


@dataclass(frozen=True)
class DisplacedOverlap:
    """Displaced-shell overlap, cosine factor kept separate.

    ln_magnitude excludes the oscillatory cosine; cosine_log_magnitude
    is the exact log-magnitude of cos(2i*beta_phi*phi0 - N*pi/4).
    """

    ln_magnitude: float
    cosine_log_magnitude: float


def _sq(a: float) -> float:
    """a ** 2, or inf where float ** raises OverflowError.  Not a * a: the
    two round apart on about one double in 1,500."""
    try:
        return a ** 2
    except OverflowError:
        return math.inf


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise PrecisionLoss(f"{what} is {value} in double precision at these inputs")
    return value


def overlap_centered(pair: CoherencePair, widths: WignerWidths) -> float:
    """ln |<alpha| . |alpha'>| for the centered Gaussian Wigner function.

    Sum-coordinates decay inside the state's own envelope; difference
    coordinates decay at rates set by the *conjugate* width, which is
    what makes a squeezed state carry long-range coherence: small
    delta_pi_sq leaves the a_minus direction almost free.
    """
    wf, wp = widths.delta_phi_sq, widths.delta_pi_sq
    exponent = (-_sq(pair.a_plus) / (2.0 * (1.0 + 2.0 * wf))
                - _sq(pair.b_plus) / (2.0 * (1.0 + 2.0 * wp))
                - wp * _sq(pair.a_minus) / (1.0 + 2.0 * wp)
                - wf * _sq(pair.b_minus) / (1.0 + 2.0 * wf))
    return _finite(exponent, "the exponent")


def _ln_abs_cos_shifted(y: float, n_dof: int) -> float:
    """ln |cos(i*y - N*pi/4)| = 0.5*ln(sinh(y)^2 + cos(N*pi/4)^2), stable
    for large y."""
    c_sq = math.cos(n_dof * math.pi / 4.0) ** 2
    if y > 20.0:  # sinh(y) ~ e^y/2 dominates; c_sq enters below 1e-17
        return y - math.log(2.0)
    return 0.5 * math.log(math.sinh(y) ** 2 + c_sq)


def overlap_displaced(pair: CoherencePair, widths: WignerWidths,
                      phi0: float, n_dof: int) -> DisplacedOverlap:
    """ln |<alpha| . |alpha'>| against the shell displaced to radius phi0.

    The angular integration replaces the position-sum Gaussian with the
    radial factor (N/2) ln(phi0 / |beta_phi|), where
    |beta_phi|^2 = (a_plus^2 + b_minus^2) / 2; the remaining Gaussian
    factors are unchanged.  Valid only for |beta_phi|*phi0 >> N/2, taken
    as at least _MIN_RATIO times N/2.
    """
    if n_dof < 2 or n_dof % 2:
        raise ValueError(f"N must be even and >= 2, got {n_dof}")
    if not 0.0 < phi0 < math.inf:
        raise ValueError("phi0 must be finite and > 0")
    beta_phi = _finite(math.sqrt(0.5 * (_sq(pair.a_plus) + _sq(pair.b_minus))),
                       "|beta_phi|")
    if beta_phi * phi0 < _MIN_RATIO * (n_dof / 2.0):
        raise AsymptoticRegimeViolation(
            f"|beta_phi|*phi0 = {beta_phi * phi0:.4g} is not >> N/2 = "
            f"{n_dof / 2.0:.4g} (need at least {_MIN_RATIO}x)")
    wf, wp = widths.delta_phi_sq, widths.delta_pi_sq
    ln_mag = (0.5 * n_dof * math.log(phi0 / beta_phi)
              - _sq(pair.b_plus) / (2.0 * (1.0 + 2.0 * wp))
              - wp * _sq(pair.a_minus) / (1.0 + 2.0 * wp)
              - wf * _sq(pair.b_minus) / (1.0 + 2.0 * wf))
    return DisplacedOverlap(
        ln_magnitude=_finite(ln_mag, "the exponent"),
        cosine_log_magnitude=_finite(
            _ln_abs_cos_shifted(2.0 * beta_phi * phi0, n_dof), "the cosine factor"))
