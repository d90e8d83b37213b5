"""Tests for coherent-state overlap magnitudes."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ngstate import coherence as coh
from ngstate.errors import AsymptoticRegimeViolation, NgStateError

VACUUM = coh.WignerWidths(delta_phi_sq=0.5, delta_pi_sq=0.5)


def test_pair_and_width_validation():
    with pytest.raises(ValueError):
        coh.CoherencePair(a_plus=-0.1, a_minus=0.0, b_plus=0.0, b_minus=0.0)
    with pytest.raises(ValueError):
        coh.WignerWidths(delta_phi_sq=0.0, delta_pi_sq=0.5)
    with pytest.raises(ValueError):
        coh.WignerWidths(delta_phi_sq=0.5, delta_pi_sq=-1.0)
    # sub-Heisenberg width products are allowed
    coh.WignerWidths(delta_phi_sq=1e-4, delta_pi_sq=1e-4)


def test_from_labels():
    pair = coh.CoherencePair.from_labels(1.0 + 2.0j, -0.5 + 0.25j)
    assert pair.a_plus == pytest.approx(0.5)
    assert pair.a_minus == pytest.approx(1.5)
    assert pair.b_plus == pytest.approx(2.25)
    assert pair.b_minus == pytest.approx(1.75)


def test_vacuum_reduction_is_pure_overlap():
    # at vacuum widths the exponent must collapse to the exact pure
    # coherent-state overlap magnitude -(|alpha|^2 + |alpha'|^2)/2
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b, ap, bp = rng.normal(scale=2.0, size=4)
        alpha, alpha_p = complex(a, b), complex(ap, bp)
        got = coh.overlap_centered(
            coh.CoherencePair.from_labels(alpha, alpha_p), VACUUM)
        want = -(abs(alpha) ** 2 + abs(alpha_p) ** 2) / 2.0
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_diagonal_envelope():
    widths = coh.WignerWidths(delta_phi_sq=0.3, delta_pi_sq=1.7)
    alpha = 1.2 + 0.8j
    got = coh.overlap_centered(coh.CoherencePair.from_labels(alpha, alpha),
                               widths)
    want = (-(2 * alpha.real) ** 2 / (2 * (1 + 2 * 0.3))
            - (2 * alpha.imag) ** 2 / (2 * (1 + 2 * 1.7)))
    assert got == pytest.approx(want, rel=1e-14)


def test_monotone_in_each_scalar():
    widths = coh.WignerWidths(delta_phi_sq=0.2, delta_pi_sq=3.0)
    base = dict(a_plus=0.4, a_minus=0.7, b_plus=1.1, b_minus=0.2)
    ref = coh.overlap_centered(coh.CoherencePair(**base), widths)
    for name in base:
        prev = ref
        for step in (0.5, 1.0, 2.0, 5.0):
            bumped = dict(base)
            bumped[name] = base[name] + step
            val = coh.overlap_centered(coh.CoherencePair(**bumped), widths)
            assert val <= prev
            prev = val


def test_decay_rate_asymmetry():
    # narrow momentum width => slow decay in a_minus (real axis), decay
    # in b_minus still set by the position width, and vice versa
    widths = coh.WignerWidths(delta_phi_sq=0.5, delta_pi_sq=1e-3)
    sep = 3.0
    along_a = coh.overlap_centered(
        coh.CoherencePair(sep if False else 0.0, sep, 0.0, 0.0), widths)
    along_b = coh.overlap_centered(
        coh.CoherencePair(0.0, 0.0, 0.0, sep), widths)
    rate_a = -along_a / sep ** 2
    rate_b = -along_b / sep ** 2
    assert rate_a == pytest.approx(1e-3 / (1 + 2e-3), rel=1e-12)
    assert rate_b == pytest.approx(0.5 / 2.0, rel=1e-12)
    assert rate_b / rate_a > 100.0


def test_squeezed_widths_give_long_position_coherence():
    # widths of the far-regime Wigner peak (n=10): position variance
    # F/(12 n^2), momentum variance K -- coherence survives across many
    # vacuum units along the imaginary axis, but not along the real one
    n = 10.0
    widths = coh.WignerWidths(delta_phi_sq=(n + 0.5) / (12 * n * n),
                              delta_pi_sq=n + 0.5)
    def length(rate):
        return 1.0 / math.sqrt(rate)
    rate_b = widths.delta_phi_sq / (1 + 2 * widths.delta_phi_sq)
    rate_a = widths.delta_pi_sq / (1 + 2 * widths.delta_pi_sq)
    assert length(rate_b) > 5.0          # long-range along b_minus
    assert length(rate_a) < 1.5          # essentially vacuum-limited
    # and the envelope (sum) directions stay near-vacuum in phi
    val = coh.overlap_centered(coh.CoherencePair(0.0, 0.0, 0.0, 7.0), widths)
    assert val > -0.5


def test_displaced_mirror_case():
    # alpha = conj(alpha') = (phi0 + i x)/sqrt(2): radial factor
    # (N/4) ln(phi0^2/(phi0^2+x^2)) and Gaussian decay only through x
    widths = coh.WignerWidths(delta_phi_sq=0.05, delta_pi_sq=2.0)
    n_dof = 100
    phi0_sq, x_sq = 200.0, 200.0
    phi0, x = math.sqrt(phi0_sq), math.sqrt(x_sq)
    alpha = complex(phi0, x) / math.sqrt(2.0)
    pair = coh.CoherencePair.from_labels(alpha, alpha.conjugate())
    out = coh.overlap_displaced(pair, widths, phi0, n_dof)
    want = (n_dof / 4.0) * math.log(phi0_sq / (phi0_sq + x_sq)) \
        - 2.0 * 0.05 * x_sq / (1.0 + 2.0 * 0.05)
    assert out.ln_magnitude == pytest.approx(want, rel=1e-12)
    # phi0^2 = x^2 makes the radial suppression exactly (N/4) ln(1/2)
    radial = out.ln_magnitude + 2.0 * 0.05 * x_sq / (1.0 + 2.0 * 0.05)
    assert radial == pytest.approx((n_dof / 4.0) * math.log(0.5), rel=1e-12)


def test_displaced_on_shell_is_free():
    # x_vec = 0: the label sits on the displaced shell, radial factor 0
    widths = coh.WignerWidths(delta_phi_sq=0.5, delta_pi_sq=0.5)
    phi0 = 40.0
    alpha = complex(phi0 / math.sqrt(2.0), 0.0)
    pair = coh.CoherencePair.from_labels(alpha, alpha)
    out = coh.overlap_displaced(pair, widths, phi0, 10)
    assert out.ln_magnitude == pytest.approx(0.0, abs=1e-12)


def test_displaced_regime_guard():
    widths = VACUUM
    pair = coh.CoherencePair(a_plus=0.2, a_minus=0.0, b_plus=0.0, b_minus=0.0)
    with pytest.raises(AsymptoticRegimeViolation):
        coh.overlap_displaced(pair, widths, 1.0, 100)
    with pytest.raises(ValueError):
        coh.overlap_displaced(pair, widths, -1.0, 10)
    with pytest.raises(ValueError):
        coh.overlap_displaced(pair, widths, 1.0, 7)


def test_cosine_log_magnitude():
    # moderate argument (below the overlap's asymptotic regime): compare
    # with the direct complex cosine
    for n_dof, y in [(4, 8.0), (6, 9.68), (8, 11.52), (10, 0.3), (12, 19.9)]:
        direct = abs(cmath.cos(1j * y - n_dof * math.pi / 4.0))
        assert coh._ln_abs_cos_shifted(y, n_dof) == pytest.approx(
            math.log(direct), rel=1e-10)
    # large-argument branch: asymptote y - ln 2
    alpha = complex(300.0, 0.0)
    pair = coh.CoherencePair.from_labels(alpha, alpha)
    out = coh.overlap_displaced(pair, VACUUM, 500.0, 10)
    beta = math.sqrt(0.5 * pair.a_plus ** 2)
    assert out.cosine_log_magnitude == pytest.approx(
        2.0 * beta * 500.0 - math.log(2.0), rel=1e-12)


_LABEL = hst.floats(0.0, 1e3)
_WIDTH = hst.floats(1e-6, 1e6)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pair=hst.builds(coh.CoherencePair, _LABEL, _LABEL, _LABEL, _LABEL),
       widths=hst.builds(coh.WignerWidths, _WIDTH, _WIDTH),
       phi0=hst.floats(1e-3, 1e3), n_dof=hst.integers(1, 50).map(lambda k: 2 * k))
def test_overlaps_finite_or_typed(pair, widths, phi0, n_dof):
    assert math.isfinite(coh.overlap_centered(pair, widths))
    try:
        disp = coh.overlap_displaced(pair, widths, phi0, n_dof)
    except NgStateError:
        return
    assert math.isfinite(disp.ln_magnitude)
    assert math.isfinite(disp.cosine_log_magnitude)
