"""Brute-force validators for every closed form the package relies on.

Each function here recomputes a main-path quantity from its defining
sum, integral, or partition-function identity: trace sums are evaluated
term by term over the frequency modes 1..n_max, plus the midpoint-rule
integral of the summand from n_max + 1/2 to infinity, which leaves an
error far below the bare ~1/n_max truncation bias; the purity comes from
the doubled-parameter partition function, the entropy from ln Z plus the
operator expectation value.  run_validation bundles them into a
PASS/FAIL report.

The brute-force side of a check shares no code with the closed form it
checks: the purity and entropy sides take ln Z from statemap's raw gap
solve, which moments_from_params shares, against (n, x) closed forms
that never call it, and moments-roundtrip runs that solve against the
closed-form params_from_moments.  The closed-form side is the production
code itself, so trace_g_closed is specfun.h_trace and a faulty kernel
fails its line.  Sums run in fixed chunk order, so results are bitwise
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import observables as _obs
from . import specfun as _sf
from .errors import PrecisionLoss
from .statemap import (GaussianMoments, OperatorParams, ReducedState, _gap_root,
                       c4_half_ratio_nx, moments_from_params, params_from_moments)

__all__ = [
    "CheckResult",
    "c4_sum",
    "entropy_by_definition",
    "format_report",
    "pair_g_closed",
    "pair_g_sum",
    "purity_by_definition",
    "run_validation",
    "trace_g_closed",
    "trace_g_sum",
]

_TWO_PI_SQ = 4.0 * math.pi ** 2
_CHUNK = 1 << 17


def _sum_over_modes(term, n_max: int) -> float:
    """Sum term(k) for k = 1..n_max in fixed chunk order."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    total = 0.0
    start = 1
    while start <= n_max:
        stop = min(start + _CHUNK, n_max + 1)
        k = np.arange(start, stop, dtype=float)
        total += float(np.sum(term(k)))
        start = stop
    return total


def _both_sides_tail(c: float, n_max: int) -> float:
    # sum over |k| > n_max of 1/(4 pi^2 k^2 + c^2), midpoint rule; the
    # 1/(pi c) prefactor already counts both signs of k
    return math.atan(c / (2.0 * math.pi * (n_max + 0.5))) / (math.pi * c)


def trace_g_sum(z_sq: float, n_max: int = 1_000_000) -> float:
    """Direct frequency sum of 1/(omega_k^2 + z^2) over all integer k.

    Modes |k| <= n_max are summed term by term and the rest by the
    integral tail; at validate's four z^2 it meets 1/(2 z tanh(z/2)) within
    2.2e-15 relative at n_max = 2e4 (--quick), 2.1e-16 at the default 1e6.
    """
    if not z_sq > 0.0:
        raise ValueError(f"z_sq must be > 0, got {z_sq}")
    return (1.0 / z_sq + 2.0 * _sum_over_modes(
        lambda k: 1.0 / (_TWO_PI_SQ * k * k + z_sq), n_max)
        + _both_sides_tail(math.sqrt(z_sq), n_max))


def trace_g_closed(z_sq: float) -> float:
    """Closed form of trace_g_sum, 1/(2 z tanh(z/2)), from the production
    gap kernel specfun.h_trace."""
    if not z_sq > 0.0:
        raise ValueError(f"z_sq must be > 0, got {z_sq}")
    return 0.5 / _sf.h_trace(z_sq)


def _check_pair(a: float, b: float) -> None:  # the sums divide by a^2 b^2 and b^2 - a^2
    if not (math.isfinite(a) and math.isfinite(b) and a * a * b * b != 0.0 and a * a != b * b):
        raise ValueError(f"a and b must be finite and non-zero, a^2 != b^2, got ({a}, {b})")


def pair_g_sum(a: float, b: float, n_max: int = 1_000_000) -> float:
    """Sum over k != 0 of 1/((omega_k^2 + a^2)(omega_k^2 + b^2))."""
    _check_pair(a, b)
    total = 2.0 * _sum_over_modes(
        lambda k: 1.0 / ((_TWO_PI_SQ * k * k + a * a)
                         * (_TWO_PI_SQ * k * k + b * b)), n_max)
    # partial fractions turn the pair tail into two single tails
    return total + (_both_sides_tail(a, n_max)
                    - _both_sides_tail(b, n_max)) / (b * b - a * a)


def pair_g_closed(a: float, b: float) -> float:
    """Closed form of pair_g_sum including the k = 0 term, minus k = 0."""
    _check_pair(a, b)
    full = (trace_g_closed(a * a) - trace_g_closed(b * b)) / (b * b - a * a)
    return full - 1.0 / (a * a * b * b)


def c4_sum(state: ReducedState, n_max: int = 1_000_000) -> float:
    """Quartic ratio C4/(2 F^2) from the mode-resolved double propagator.

    The connected four-point function reduces to products of mode
    propagators at shifted frequencies 2z, 2z*sqrt(1+x), 2z*sqrt(1+zeta*x);
    this evaluates those sums directly and must reproduce the closed-form
    c4_half_ratio_nx to 1e-12 relative.  Needs x >= 1.5 * 2^-52 (~3.3e-16):
    below it (x = 0 too) b rounds onto a, and pair_g_sum raises ValueError.
    """
    z, x, zeta = state.z_gauss, state.x, state.zeta
    a = 2.0 * z
    b = 2.0 * z * math.sqrt(1.0 + x)
    c = 2.0 * z * math.sqrt(1.0 + zeta * x)
    zero_mode = zeta * zeta / ((a * a) * (c * c))
    return -16.0 * x * state.kappa * z * z * (
        pair_g_sum(a, b, n_max) + zero_mode)


def _ln_z_raw(z0_sq: float, xi: float, eta: float) -> float:
    """Per-dof ln Z from the raw trace gap solve; no (n, x) shortcut."""
    kappa, n, _ = _gap_root(z0_sq, xi, eta)
    k2 = 8.0 * kappa * kappa
    if k2 < np.finfo(float).tiny:
        raise PrecisionLoss(f"8 kappa^2 = {k2:.6g} is not a normal double")
    return 0.5 * math.log(n * (n + 1.0)) + xi / k2


def purity_by_definition(p: OperatorParams) -> float:
    """Per-dof purity from its definition: Z at doubled parameters over
    Z squared.

    Doubling (A, B, C, eta) maps (z0_sq, xi) -> (4 z0_sq, 8 xi); both
    partition functions are evaluated through the raw-parameter gap
    equation, independently of the closed-form purity path.  Raises as
    moments_from_params, and PrecisionLoss where 8 kappa^2 is not a normal
    double or the two ln Z are so large (~1/eta as eta -> 0 at A*B < C**2)
    that their rounding could move ln P by more than 1e-6.
    """
    ln_z2 = _ln_z_raw(4.0 * p.z0_sq, 8.0 * p.xi, 2.0 * p.eta)
    ln_z = _ln_z_raw(p.z0_sq, p.xi, p.eta)
    if np.finfo(float).eps * (abs(ln_z2) + 2.0 * abs(ln_z)) > 1e-6:
        raise PrecisionLoss(f"ln P cancels between ln Z = {ln_z:.6g} and its double")
    return math.exp(ln_z2 - 2.0 * ln_z)


def _tilted_representative(state: ReducedState) -> GaussianMoments:
    # a correlator set with R != 0 so the 2*C*R term is exercised
    big_f = 1.3 * (state.n + 0.5)
    big_r = 0.4 * (state.n + 0.5)
    return GaussianMoments(F=big_f,
                           K=((state.n + 0.5) ** 2 + big_r ** 2) / big_f,
                           R=big_r)


def entropy_by_definition(state: ReducedState,
                          moments: GaussianMoments | None = None) -> float:
    """Per-dof entropy from ln Z plus the operator expectation value.

    S/N = ln_z_per_dof + A K + B F + 2 C R + eta F^2, evaluated for any
    correlator representative of the state (the result is representative
    independent, and independent of x: the quartic contributions cancel
    against the Gaussian shift exactly).
    """
    m = moments if moments is not None else _tilted_representative(state)
    p = params_from_moments(m, state.x)
    return (_ln_z_raw(p.z0_sq, p.xi, p.eta)
            + p.A * m.K + p.B * m.F + 2.0 * p.C * m.R + p.eta * m.F * m.F)


# ---------------------------------------------------------------------------
# validation report


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    reference: float
    error: float
    error_kind: str  # "rel" or "abs"
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.error < self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{self.name:<38s} value={self.value:< .12e} "
                f"ref={self.reference:< .12e} {self.error_kind}_err="
                f"{self.error:.3e} tol={self.tolerance:.1e} {status}")


def _rel_check(name, value, reference, tol) -> CheckResult:
    err = abs(value - reference) / max(1e-300, abs(reference))
    return CheckResult(name, float(value), float(reference), err, "rel", tol)


def _abs_check(name, value, reference, tol) -> CheckResult:
    return CheckResult(name, float(value), float(reference),
                       abs(value - reference), "abs", tol)


def _worst(check, name, pairs, tol) -> CheckResult:
    """The check of the (value, reference) pair with the largest error
    (the first of equals), under its reported name."""
    return max((check(name, v, r, tol) for v, r in pairs),
               key=lambda c: c.error)


def run_validation(quick: bool = False) -> list:
    """Run every definitional check and return the CheckResult list.

    quick shrinks the Matsubara cutoffs so the suite finishes in a few
    seconds.
    """
    n_max = 20_000 if quick else 1_000_000
    ln2_sq = math.log(2.0) ** 2
    ln2_sum = trace_g_sum(ln2_sq, n_max)  # read by the first two lines
    m = GaussianMoments(F=2.6, K=1.7, R=0.9)
    m_back, _ = moments_from_params(params_from_moments(m, 3.0))
    return [
        _worst(_rel_check, "trace-sum-vs-closed-form",
               [(ln2_sum, trace_g_closed(ln2_sq))]
               + [(trace_g_sum(z_sq, n_max), trace_g_closed(z_sq))
                  for z_sq in (ReducedState.from_nx(n, 0.0).z_gauss ** 2
                               for n in (0.1, 1.0, 10.0))], 1e-8),
        _rel_check("trace-sum-ln2-value", ln2_sum,
                   3.0 / (2.0 * math.log(2.0)), 1e-8),
        _rel_check("pair-sum-identity", pair_g_sum(1.0, 2.0, n_max),
                   pair_g_closed(1.0, 2.0), 1e-8),
        _worst(_rel_check, "c4-mode-sum-vs-closed-form",
               [(c4_sum(ReducedState.from_nx(n, x), n_max),
                 c4_half_ratio_nx(n, x))
                for n, x in [(1.0, 1.0), (9.99e-9, 1.0)]
                + [(n, x) for n in (0.1, 1.0, 10.0) for x in (0.5, 1.0, 5.0, 15.0)]],
               1e-12),
        _worst(_rel_check, "purity-vs-definition",
               [(purity_by_definition(params_from_moments(
                   GaussianMoments(F=n + 0.5, K=n + 0.5, R=0.0), x)),
                 _obs.purity(ReducedState.from_nx(n, x)).p)
                for n, x in [(10.0, 15.0), (1.0, 5.0), (0.1, 0.5), (1e-6, 5.0)]],
               1e-10),
        _rel_check("purity-gaussian-exact", purity_by_definition(
            params_from_moments(GaussianMoments(F=10.5, K=10.5, R=0.0), 0.0)),
            1.0 / 21.0, 1e-12),
        _worst(_abs_check, "entropy-invariance",
               [(entropy_by_definition(ReducedState.from_nx(n, x)),
                 _obs.entropy_per_dof(n))
                for n in (0.1, 1.0, 10.0) for x in (0.0, 0.5, 1.0, 5.0, 15.0)],
               1e-8),
        # F's value and reference, with the worst of the F, K, R errors
        CheckResult("moments-roundtrip", m_back.F, m.F,
                    max(abs(m_back.F - m.F) / m.F, abs(m_back.K - m.K) / m.K,
                        abs(m_back.R - m.R) / abs(m.R)), "rel", 1e-10),
    ]


def format_report(results) -> str:
    lines = [c.line() for c in results]
    n_fail = sum(not c.passed for c in results)
    lines.append(f"{len(results)} checks, {len(results) - n_fail} passed, "
                 f"{n_fail} failed")
    return "\n".join(lines)
