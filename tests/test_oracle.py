"""Tests for the definitional validators (mode sums, doubled-Z purity,
entropy identity, validation report)."""

import math
import sys

import mpmath
import pytest

from ngstate import observables as obs
from ngstate import oracle as orc
from ngstate import specfun as sf
from ngstate.errors import PrecisionLoss
from ngstate.statemap import (GaussianMoments, OperatorParams, ReducedState,
                              moments_from_params, occupation,
                              params_from_moments)

MED = 100_000  # mode cutoff of the faster checks


def test_truncation_validation():
    # every mode sum needs at least one mode before its tail
    with pytest.raises(ValueError):
        orc.trace_g_sum(1.0, 0)
    with pytest.raises(ValueError):
        orc.pair_g_sum(1.0, 2.0, 0)
    with pytest.raises(ValueError):
        orc.c4_sum(ReducedState.from_nx(1.0, 1.0), -5)
    assert orc.trace_g_sum(1.0) == orc.trace_g_sum(1.0, 1_000_000)


def test_trace_sum_ln2():
    # tanh(ln2 / 2) = 1/3 turns the closed form into 3/(2 ln 2)
    z_sq = math.log(2.0) ** 2
    got = orc.trace_g_sum(z_sq, MED)
    assert got == pytest.approx(3.0 / (2.0 * math.log(2.0)), rel=1e-10)


def test_trace_sum_acceptance_precision():
    # full cutoff with tail: relative error below 1e-8 against closed form
    for z_sq in (math.log(2.0) ** 2, 0.01, 5.0):
        got = orc.trace_g_sum(z_sq)
        assert got == pytest.approx(orc.trace_g_closed(z_sq), rel=1e-8)


def test_trace_sum_limits():
    # small z: zero mode dominates, first correction is +1/12
    z_sq = 1e-6
    assert orc.trace_g_closed(z_sq) - 1.0 / z_sq == pytest.approx(
        1.0 / 12.0, rel=1e-5)
    # large z: closed form collapses to 1/(2z)
    assert orc.trace_g_closed(2500.0) == pytest.approx(0.01, rel=1e-10)
    for z_sq in (0.0, -1.0):  # the closed form (h_trace) refuses them alike
        for form in (orc.trace_g_sum, orc.trace_g_closed):
            with pytest.raises(ValueError, match="z_sq must be > 0"):
                form(z_sq)


def test_trace_truncation_monotone():
    # with the integral tail the error still falls as the cutoff grows
    z_sq = 2.0
    err = [abs(orc.trace_g_sum(z_sq, m) - orc.trace_g_closed(z_sq))
           for m in (10, 100, 1000, 10_000)]
    assert all(b < a for a, b in zip(err, err[1:]))


def test_pair_sum_identity():
    got = orc.pair_g_sum(1.0, 2.0, MED)
    assert got == pytest.approx(orc.pair_g_closed(1.0, 2.0), rel=1e-8)


@pytest.mark.parametrize("form, args", [
    (orc.pair_g_sum, (1.0, 1.0)),
    (orc.pair_g_closed, (1.0, 1.0)),
    (orc.pair_g_sum, (0.0, 1.0)),
    (orc.pair_g_closed, (1.0, 0.0)),
    (orc.pair_g_sum, (math.nan, 2.0)),
    (orc.pair_g_closed, (1.0, math.inf)),
    # x below 1.5 * 2^-52: b = 2z sqrt(1 + x) rounds onto a = 2z
    (orc.c4_sum, (ReducedState.from_nx(1.0, 1e-17),)),
])
def test_pair_refuses_degenerate_frequencies(form, args):
    # the partial fractions divide by a^2 b^2 and by b^2 - a^2
    with pytest.raises(ValueError, match="a and b must be finite and non-zero"):
        form(*args)


def test_c4_sum_matches_closed_form():
    for n, x in [(1.0, 1.0), (0.1, 0.5), (1.0, 5.0), (10.0, 15.0),
                 (10.0, 0.5), (0.1, 15.0)]:
        st = ReducedState.from_nx(n, x)
        assert orc.c4_sum(st, MED) == pytest.approx(
            obs.c4_half_ratio_nx(n, x), rel=1e-8)
    with pytest.raises(ValueError):
        orc.c4_sum(ReducedState.from_nx(1.0, 0.0), MED)


def _iso_params(n, x):
    return params_from_moments(GaussianMoments(F=n + 0.5, K=n + 0.5, R=0.0), x)


def test_purity_by_definition():
    # doubled-parameter partition function against the closed-form path
    for n, x in [(10.0, 15.0), (1.0, 5.0), (0.1, 0.5), (1.0, 0.5)]:
        got = orc.purity_by_definition(_iso_params(n, x))
        want = obs.purity(ReducedState.from_nx(n, x)).p
        assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("big_f", [1e8, 1e12, 1e17])
def test_large_occupation_keeps_digits(big_f):
    # n = 1/expm1(z) at the gap root: e^-z/(1 - e^-z) lost ~eps/z relative
    # (1e-5 at F = 1e12) and divided by zero once e^-z rounded to 1
    m = GaussianMoments(F=big_f, K=big_f)
    p = params_from_moments(m, 1.0)
    _, c4 = moments_from_params(p)
    assert c4 == pytest.approx(obs.c4_half_ratio_nx(occupation(m), 1.0),
                               rel=1e-12)
    want = obs.purity(ReducedState.from_nx(occupation(m), 1.0)).p
    assert orc.purity_by_definition(p) == pytest.approx(want, rel=1e-12)


def _mp_ln_z(z0_sq, xi):
    """(ln Z, kappa, n, s) of the raw trace gap equation at the working
    precision: s by bisection in ln s, or s = z0_sq where xi = 0."""
    def h(s):
        return mpmath.sqrt(s) * mpmath.tanh(mpmath.sqrt(s) / 2)
    s = z0_sq
    if xi > 0:
        lo, hi = mpmath.mpf(10) ** -400, mpmath.mpf(1)
        while (hi - z0_sq) / xi <= 1 / h(hi):
            hi *= 2
        while hi / lo - 1 > mpmath.mpf(10) ** (2 - mpmath.mp.dps):
            mid = mpmath.sqrt(lo * hi)
            lo, hi = (mid, hi) if (mid - z0_sq) / xi < 1 / h(mid) else (lo, mid)
        s = (lo + hi) / 2
    kappa, n = h(s), 1 / mpmath.expm1(mpmath.sqrt(s))
    return mpmath.log(n * (n + 1)) / 2 + xi / (8 * kappa ** 2), kappa, n, s


def _assert_matches_mpmath(p, call):
    # 40 digits past the cancellation of B + 2 eta F and of the two ln Z,
    # each of size ~1/eta as eta -> 0 at A*B < C**2
    extra = max(0, int(-math.log10(p.eta))) if p.eta > 0 else 0
    with mpmath.workdps(40 + extra):
        A, B, C, eta = map(mpmath.mpf, (p.A, p.B, p.C, p.eta))
        z0_sq, xi = 4 * (A * B - C * C), 8 * A * A * eta
        ln_z, kappa, n, _ = _mp_ln_z(z0_sq, xi)
        if call is orc.purity_by_definition:
            ln_z2 = _mp_ln_z(4 * z0_sq, 8 * xi)[0]
            got, want = call(p), mpmath.exp(ln_z2 - 2 * ln_z)
            # the definition's difference of two ln Z rounds at their size
            tol = 8 * sys.float_info.epsilon * float(abs(ln_z2) + 2 * abs(ln_z))
            assert abs(got / want - 1) <= tol + 1e-13, (got, want)
            return
        F = A / kappa
        K, R = (B + 2 * eta * F) / kappa, -C / kappa
        x = (eta / kappa) * (F / (n + mpmath.mpf(0.5))) ** 2
        m, c4 = call(p)
        for g, w in ((m.F, F), (m.K, K), (m.R, R)):
            assert abs(g - w) <= 1e-13 * abs(w), (g, w)
        assert c4 == pytest.approx(obs.c4_half_ratio_nx(float(n), float(x)), rel=1e-12)


# A*B - C**2 = -1 with a vanishing quartic term: the edge of
# normalizability, where B + 2 eta F cancelled in K (11 % off at 1e-15,
# K <= 0 from 1e-16) and the oracle's ln Z overflowed (1e-156) or divided
# by a zero 8 kappa^2 (1e-164); both solves raised BracketError from 1e-308.
# From 1e-12 the oracle's two ln Z (~1/eta) leave ln P fewer than 6 digits
_EDGE = ([(1e-8, None)]
         + [(eta, (None, PrecisionLoss)) for eta in (1e-12, 1e-15, 1e-16, 1e-156,
                                                     1e-164, 1e-300)]
         + [(eta, PrecisionLoss) for eta in (1e-308, 1e-310, 5e-324)])


@pytest.mark.parametrize("params, error", [
    ((1e-170, 1e170, 0.0, 1.0), PrecisionLoss),  # xi underflows at eta > 0
    ((1e200, 1e200, 0.0, 1.0), PrecisionLoss),   # z0_sq overflows
    ((1.0, 1.0, 0.0, 1e308), PrecisionLoss),     # xi overflows
    ((1e78, 1e78, 0.0, 1.0), PrecisionLoss),     # the occupation underflows
    ((0.5, 1e6, 0.0, 1e-3), PrecisionLoss),
    ((1.0, -1.0, 0.0, 0.0), ValueError),         # no normalizable Gaussian
    ((1.0, 1.0, 0.0, 0.0), None),
    *(((0.5, -2.0, 0.0, eta), error) for eta, error in _EDGE),
    # eta = 0 at s = z0_sq = 6e-290, where n = 4e144: (F/(n + 1/2))^2
    # overflowed a float ** with a bare OverflowError
    ((30873234496.26705, 5e-301, 0.0, 0.0), PrecisionLoss),
])
def test_raw_parameters_share_one_error_contract(params, error):
    # the closed-form inverse and the brute-force ln Z solve one raw gap:
    # the oracle once took the underflowed xi of the first case for a
    # Gaussian operator and returned 0.7616.  Each call matches a solve of
    # the same gap equation in mpmath or raises the error given for it (a
    # pair: moments_from_params, then the oracle, whose two ln Z cancel)
    p = OperatorParams(*params)
    calls = (moments_from_params, orc.purity_by_definition)
    for call, want in zip(calls, error if isinstance(error, tuple) else (error,) * 2):
        if want is None:
            _assert_matches_mpmath(p, call)
            continue
        with pytest.raises(want) as info:
            call(p)
        assert type(info.value) is want, call


def test_purity_definition_gaussian_point():
    assert orc.purity_by_definition(_iso_params(10.0, 0.0)) == pytest.approx(
        1.0 / 21.0, rel=1e-12)


def test_purity_definition_near_pure():
    assert orc.purity_by_definition(_iso_params(1e-6, 5.0)) > 0.999997


def test_entropy_by_definition_values():
    assert orc.entropy_by_definition(ReducedState.from_nx(1.0, 0.0)) == \
        pytest.approx(2.0 * math.log(2.0), abs=1e-10)
    assert orc.entropy_by_definition(ReducedState.from_nx(1.0, 7.0)) == \
        pytest.approx(2.0 * math.log(2.0), abs=1e-8)
    want = 11.0 * math.log(11.0) - 10.0 * math.log(10.0)
    for x in (0.0, 0.5, 1.0, 5.0, 15.0):
        got = orc.entropy_by_definition(ReducedState.from_nx(10.0, x))
        assert got == pytest.approx(want, abs=1e-8)


def test_entropy_independent_of_representative():
    # the identity holds for any correlators with the same occupation
    st = ReducedState.from_nx(2.0, 4.0)
    reps = [
        GaussianMoments(F=2.5, K=2.5, R=0.0),
        GaussianMoments(F=5.0, K=1.25, R=0.0),
        GaussianMoments(F=3.0, K=(2.5 ** 2 + 1.0) / 3.0, R=1.0),
    ]
    vals = [orc.entropy_by_definition(st, m) for m in reps]
    for v in vals:
        assert v == pytest.approx(obs.entropy_per_dof(2.0), abs=1e-10)


def test_run_validation_all_pass():
    results = orc.run_validation(quick=True)
    assert results and all(c.passed for c in results)
    # the report's lines, in order (the benchmark digests exactly these)
    assert [c.name for c in results] == [
        "trace-sum-vs-closed-form", "trace-sum-ln2-value", "pair-sum-identity",
        "c4-mode-sum-vs-closed-form", "purity-vs-definition",
        "purity-gaussian-exact", "entropy-invariance", "moments-roundtrip"]
    report = orc.format_report(results)
    assert "FAIL" not in report
    assert report.strip().endswith("0 failed")


def test_run_validation_corrupt_trace_kernel_fails_trace_lines(monkeypatch):
    # negative control: h_trace off by 0.1 % must fail the lines that check
    # it against its mode sum; the textbook ln 2 value shares no code with it
    h_trace = sf.h_trace
    monkeypatch.setattr(sf, "h_trace", lambda s: 1.001 * h_trace(s))
    by_name = {c.name: c for c in orc.run_validation(quick=True)}
    assert not by_name["trace-sum-vs-closed-form"].passed
    assert not by_name["pair-sum-identity"].passed
    assert by_name["trace-sum-ln2-value"].passed


def test_run_validation_corrupt_kappa_fails_roundtrip(monkeypatch):
    # negative control: a mis-scaled kappa (A, B and C off by 0.1 %) must
    # be caught, and only by the roundtrip check
    def moments(p):
        return moments_from_params(OperatorParams(
            A=1.001 * p.A, B=1.001 * p.B, C=1.001 * p.C, eta=p.eta))
    monkeypatch.setattr(orc, "moments_from_params", moments)
    results = orc.run_validation(quick=True)
    by_name = {c.name: c for c in results}
    assert not by_name["moments-roundtrip"].passed
    assert all(c.passed for c in results if c.name != "moments-roundtrip")
    assert "FAIL" in orc.format_report(results)
