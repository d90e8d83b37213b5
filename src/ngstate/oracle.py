"""Brute-force validators for every closed form the package relies on.

Each function here recomputes a main-path quantity from its defining
sum, integral, or partition-function identity, sharing as little code
with the production path as possible: trace sums are evaluated term by
term over the frequency modes 1..n_max, plus the midpoint-rule integral
of the summand from n_max + 1/2 to infinity, which leaves an error far
below the bare ~1/n_max truncation bias; the purity comes from the
doubled-parameter partition function, the entropy from ln Z plus the
operator expectation value.  run_validation bundles them into a
PASS/FAIL report.

All sums are evaluated in fixed chunk order, so results are bitwise
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import observables as _obs
from . import saddle as _saddle
from . import specfun as _sf
from .statemap import (GaussianMoments, OperatorParams, ReducedState,
                       moments_from_params, params_from_moments)

__all__ = [
    "CheckResult",
    "c4_sum",
    "entropy_by_definition",
    "format_report",
    "pair_g_sum",
    "purity_by_definition",
    "run_validation",
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
    integral tail; the result converges to the closed form
    1/(2 z tanh(z/2)), within 1e-8 relative by n_max = 1e6.
    """
    if not z_sq > 0.0:
        raise ValueError(f"z_sq must be > 0, got {z_sq}")
    return (1.0 / z_sq + 2.0 * _sum_over_modes(
        lambda k: 1.0 / (_TWO_PI_SQ * k * k + z_sq), n_max)
        + _both_sides_tail(math.sqrt(z_sq), n_max))


def trace_g_closed(z_sq: float) -> float:
    """Closed form of trace_g_sum."""
    z = math.sqrt(z_sq)
    return 1.0 / (2.0 * z * math.tanh(0.5 * z))


def pair_g_sum(a: float, b: float, n_max: int = 1_000_000) -> float:
    """Sum over k != 0 of 1/((omega_k^2 + a^2)(omega_k^2 + b^2))."""
    total = 2.0 * _sum_over_modes(
        lambda k: 1.0 / ((_TWO_PI_SQ * k * k + a * a)
                         * (_TWO_PI_SQ * k * k + b * b)), n_max)
    # partial fractions turn the pair tail into two single tails
    return total + (_both_sides_tail(a, n_max)
                    - _both_sides_tail(b, n_max)) / (b * b - a * a)


def pair_g_closed(a: float, b: float) -> float:
    """Closed form of pair_g_sum including the k = 0 term, minus k = 0."""
    full = (trace_g_closed(a * a) - trace_g_closed(b * b)) / (b * b - a * a)
    return full - 1.0 / (a * a * b * b)


def c4_sum(state: ReducedState, n_max: int = 1_000_000) -> float:
    """Quartic ratio C4/(2 F^2) from the mode-resolved double propagator.

    The connected four-point function reduces to products of mode
    propagators at shifted frequencies 2z, 2z*sqrt(1+x), 2z*sqrt(1+zeta*x);
    this evaluates those sums directly and must reproduce the closed-form
    c4_half_ratio_nx to 1e-8 relative.
    """
    if not state.x > 0.0:
        raise ValueError("c4_sum needs x > 0")
    z, x, zeta = state.z_gauss, state.x, state.zeta
    a = 2.0 * z
    b = 2.0 * z * math.sqrt(1.0 + x)
    c = 2.0 * z * math.sqrt(1.0 + zeta * x)
    zero_mode = zeta * zeta / ((a * a) * (c * c))
    return -16.0 * x * state.kappa * z * z * (
        pair_g_sum(a, b, n_max) + zero_mode)


def _ln_z_raw(z0_sq: float, xi: float) -> float:
    """Per-dof ln Z of the operator with bare frequency z0_sq and quartic
    coupling xi, via the trace gap equation -- no (n, x) shortcut."""
    if xi == 0.0:
        if z0_sq <= 0.0:
            raise ValueError("z0_sq must be > 0 when xi = 0")
        s = z0_sq
    else:
        s = _saddle.solve_trace_raw(z0_sq, xi, kernel=_sf.h_trace).s
    kappa = _sf.h_trace(s)
    n = 1.0 / math.expm1(math.sqrt(s))
    return 0.5 * math.log(n * (n + 1.0)) + xi / (8.0 * kappa * kappa)


def purity_by_definition(p: OperatorParams) -> float:
    """Per-dof purity from its definition: Z at doubled parameters over
    Z squared.

    Doubling (A, B, C, eta) maps (z0_sq, xi) -> (4 z0_sq, 8 xi); both
    partition functions are evaluated through the raw-parameter gap
    equation, independently of the closed-form purity path.
    """
    return math.exp(_ln_z_raw(4.0 * p.z0_sq, 8.0 * p.xi)
                    - 2.0 * _ln_z_raw(p.z0_sq, p.xi))


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
    return (_ln_z_raw(p.z0_sq, p.xi)
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


def run_validation(quick: bool = False) -> list:
    """Run every definitional check and return the CheckResult list.

    quick shrinks the Matsubara cutoffs so the suite finishes in a few
    seconds.
    """
    n_max = 20_000 if quick else 1_000_000
    results = []

    # trace sum vs closed form (includes the z = ln 2 textbook value)
    worst = max(
        (_rel_check("", trace_g_sum(z_sq, n_max), trace_g_closed(z_sq), 1e-8)
         for z_sq in [math.log(2.0) ** 2] + [
             ReducedState.from_nx(n, 0.0).z_gauss ** 2
             for n in (0.1, 1.0, 10.0)]),
        key=lambda c: c.error)
    results.append(_rel_check("trace-sum-vs-closed-form", worst.value,
                              worst.reference, 1e-8))
    results.append(_rel_check("trace-sum-ln2-value",
                              trace_g_sum(math.log(2.0) ** 2, n_max),
                              3.0 / (2.0 * math.log(2.0)), 1e-8))

    # pair-sum identity at (a, b) = (1, 2)
    results.append(_rel_check("pair-sum-identity",
                              pair_g_sum(1.0, 2.0, n_max),
                              pair_g_closed(1.0, 2.0), 1e-8))

    # quartic ratio: mode sum vs closed form
    grid = [(1.0, 1.0)] + [(n, x) for n in (0.1, 1.0, 10.0)
                           for x in (0.5, 1.0, 5.0, 15.0)]
    worst = max((_rel_check("", c4_sum(ReducedState.from_nx(n, x), n_max),
                            _obs.c4_half_ratio_nx(n, x), 1e-8)
                 for n, x in grid), key=lambda c: c.error)
    results.append(_rel_check("c4-mode-sum-vs-closed-form", worst.value,
                              worst.reference, 1e-8))

    # purity from the doubled partition function
    purity_grid = [(10.0, 15.0), (1.0, 5.0), (0.1, 0.5), (1e-6, 5.0)]
    worst = max(
        (_rel_check("", purity_by_definition(
            params_from_moments(GaussianMoments(F=n + 0.5, K=n + 0.5, R=0.0), x)),
            _obs.purity(ReducedState.from_nx(n, x)).p, 1e-10)
         for n, x in purity_grid), key=lambda c: c.error)
    results.append(_rel_check("purity-vs-definition", worst.value,
                              worst.reference, 1e-10))
    results.append(_rel_check(
        "purity-gaussian-exact",
        purity_by_definition(params_from_moments(
            GaussianMoments(F=10.5, K=10.5, R=0.0), 0.0)),
        1.0 / 21.0, 1e-12))

    # entropy invariance across the acceptance grid
    worst = max(
        (_abs_check("", entropy_by_definition(ReducedState.from_nx(n, x)),
                    _obs.entropy_per_dof(n), 1e-8)
         for n in (0.1, 1.0, 10.0) for x in (0.0, 0.5, 1.0, 5.0, 15.0)),
        key=lambda c: c.error)
    results.append(_abs_check("entropy-invariance", worst.value,
                              worst.reference, 1e-8))

    # moment roundtrip
    m = GaussianMoments(F=2.6, K=1.7, R=0.9)
    m_back, _ = moments_from_params(params_from_moments(m, 3.0))
    err = max(abs(m_back.F - m.F) / m.F, abs(m_back.K - m.K) / m.K,
              abs(m_back.R - m.R) / abs(m.R))
    results.append(CheckResult("moments-roundtrip", m_back.F, m.F, err,
                               "rel", 1e-10))
    return results


def format_report(results) -> str:
    lines = [c.line() for c in results]
    n_fail = sum(not c.passed for c in results)
    lines.append(f"{len(results)} checks, {len(results) - n_fail} passed, "
                 f"{n_fail} failed")
    return "\n".join(lines)
