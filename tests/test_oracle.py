"""Tests for the definitional validators (mode sums, doubled-Z purity,
entropy identity, validation report)."""

import math

import pytest

from ngstate import observables as obs
from ngstate import oracle as orc
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
    with pytest.raises(ValueError):
        orc.trace_g_sum(0.0)


def test_trace_truncation_monotone():
    # with the integral tail the error still falls as the cutoff grows
    z_sq = 2.0
    err = [abs(orc.trace_g_sum(z_sq, m) - orc.trace_g_closed(z_sq))
           for m in (10, 100, 1000, 10_000)]
    assert all(b < a for a, b in zip(err, err[1:]))


def test_pair_sum_identity():
    got = orc.pair_g_sum(1.0, 2.0, MED)
    assert got == pytest.approx(orc.pair_g_closed(1.0, 2.0), rel=1e-8)


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
    report = orc.format_report(results)
    assert "FAIL" not in report
    assert report.strip().endswith("0 failed")


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
