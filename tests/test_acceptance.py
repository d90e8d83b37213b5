"""Acceptance gate: the ten headline checks, one visible line each.

Every test prints exactly one `acceptance NN <label>: PASS/FAIL (time)`
line straight to the terminal (bypassing capture), so a full run gives a
ten-line scoreboard in addition to pytest's own verdicts.  Tolerances
and runtime budgets are part of the contract and asserted as such.
"""

import math
import time

import numpy as np
import pytest

from ngstate import cli
from ngstate import coherence as coh
from ngstate import densmat as dm
from ngstate import observables as obs
from ngstate import oracle as orc
from ngstate import specfun as sf
from ngstate import wigner as wg
from ngstate.statemap import GaussianMoments, ReducedState, params_from_moments
from ngstate import saddle


def _criterion(capsys, num, label, budget_s, body):
    t0 = time.perf_counter()
    ok = False
    try:
        body()
        elapsed = time.perf_counter() - t0
        assert elapsed < budget_s, \
            f"runtime {elapsed:.2f}s exceeds the {budget_s}s budget"
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        with capsys.disabled():
            print(f"acceptance {num:2d} {label}: "
                  f"{'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)", flush=True)


def test_criterion_01_four_point_ratio_curve(capsys):
    def body():
        xs = np.linspace(0.0, 20.0, 201)
        for x in xs[1:]:
            full = obs.c4_half_ratio_nx(10.0, float(x))
            assert abs(full / obs.c4_ratio_large_n(float(x)) - 1.0) < 0.02
            tiny = obs.c4_half_ratio_nx(1e-6, float(x))
            assert abs(tiny / obs.c4_ratio_small_n(float(x)) - 1.0) < 1e-3
        for n in (1e-6, 0.1, 1.0, 10.0):
            for x in xs:
                v = obs.c4_half_ratio_nx(n, float(x))
                assert -1.0 <= v <= 0.0
    _criterion(capsys, 1, "four-point ratio curve", 1.0, body)


def test_criterion_02_two_digit_spot_values(capsys):
    # reference values quoted to two digits with mixed rounding
    # conventions (0.9663 and 0.9677 are both quoted as 0.96), so
    # "matches the quoted digits" means within one last-digit unit
    def body():
        for x, shown in ((0.5, 0.50), (1.0, 0.67), (15.0, 0.96)):
            assert abs(-obs.c4_half_ratio_nx(10.0, x) - shown) <= 0.01
            assert abs(-obs.c4_ratio_large_n(x) - shown) <= 0.01
    _criterion(capsys, 2, "two-digit spot values", 1.0, body)


def test_criterion_03_purity(capsys):
    def body():
        for n in (0.1, 1.0, 10.0):
            assert obs.purity(ReducedState.from_nx(n, 0.0)).p \
                == 1.0 / (2.0 * n + 1.0)
        for x in np.linspace(0.0, 100.0, 101):
            ratio = obs.purity(ReducedState.from_nx(10.0, float(x))).ratio
            assert 0.857 < ratio <= 1.0
        for x in (0.5, 1.0, 5.0, 15.0, 100.0):
            full = obs.purity(ReducedState.from_nx(100.0, x)).ratio
            assert abs(full / obs.purity_limit_large_n(x)[1] - 1.0) < 0.01
        for n, x in ((10.0, 15.0), (1.0, 5.0), (0.1, 0.5)):
            p = params_from_moments(
                GaussianMoments(F=n + 0.5, K=n + 0.5, R=0.0), x)
            want = obs.purity(ReducedState.from_nx(n, x)).p
            assert abs(orc.purity_by_definition(p) / want - 1.0) < 1e-10
    _criterion(capsys, 3, "purity", 5.0, body)


def test_criterion_04_entropy_invariance(capsys):
    def body():
        for n in (0.1, 1.0, 10.0):
            want = obs.entropy_per_dof(n)
            for x in (0.0, 0.5, 1.0, 5.0, 15.0):
                got = orc.entropy_by_definition(ReducedState.from_nx(n, x))
                assert abs(got - want) < 1e-8
    _criterion(capsys, 4, "entropy invariance", 1.0, body)


def test_criterion_05_matsubara_oracles(capsys):
    def body():
        n_max = 1_000_000  # every sum adds its integral tail
        z_sq_values = [math.log(2.0) ** 2, 0.02, 5.0] + [
            ReducedState.from_nx(n, 0.0).z0_sq for n in (0.1, 1.0, 10.0)]
        for z_sq in z_sq_values:
            got = orc.trace_g_sum(z_sq, n_max)
            assert abs(got / orc.trace_g_closed(z_sq) - 1.0) < 1e-8
        for n in (0.1, 1.0, 10.0):
            for x in (0.5, 1.0, 5.0, 15.0):
                st = ReducedState.from_nx(n, x)
                got = orc.c4_sum(st, n_max)
                assert abs(got / obs.c4_half_ratio_nx(n, x) - 1.0) < 1e-8
    _criterion(capsys, 5, "Matsubara oracles", 30.0, body)


def test_criterion_06_matrix_element_structure(capsys):
    def body():
        st = ReducedState.from_nx(10.0, 15.0)
        u = np.linspace(0.0, 1.5 * dm.ridge_u(st), 201)
        v = np.linspace(0.0, 4.0, 201)
        surf = dm.d_surface(st, u, v)
        i, j = np.unravel_index(np.argmax(surf.ln_d_norm),
                                surf.ln_d_norm.shape)
        assert v[j] == 0.0
        assert abs(u[i] - math.sqrt(dm.u_c_sq(st, 0.0))) <= u[1] - u[0]
        assert np.all(np.diff(surf.ln_d_norm, axis=1) <= 1e-12)
        x_c = dm.peak_threshold_x(10.0)
        assert dm.classify_regime(ReducedState.from_nx(10.0, x_c + 1e-6)) \
            is dm.Regime.PEAKED
        assert dm.classify_regime(ReducedState.from_nx(10.0, x_c - 1e-6)) \
            is dm.Regime.MONOTONE
        h = 1e-5
        for u_sq, v_sq in ((2.0, 0.5), (50.0, 1.0), (150.0, 4.0)):
            sol = saddle.solve_saddle_uv_many(st, u_sq, v_sq)
            _, fu_big, fv_big = sf.big_f(sol.s)
            d_u = float(dm.ln_d_many(st, u_sq + h, v_sq)
                        - dm.ln_d_many(st, u_sq - h, v_sq)) / (2.0 * h)
            d_v = float(dm.ln_d_many(st, u_sq, v_sq + h)
                        - dm.ln_d_many(st, u_sq, v_sq - h)) / (2.0 * h)
            assert abs(d_u + fu_big) < 1e-6
            assert abs(d_v + fv_big) < 1e-6
    _criterion(capsys, 6, "matrix-element structure", 20.0, body)


def test_criterion_07_peak_fit(capsys):
    def body():
        st = ReducedState.from_nx(10.0, 1000.0)
        fit = dm.peak_fit(st)
        assert fit.delta_v_sq == 0.5
        sig_u = math.sqrt(fit.delta_u_sq)
        h = 1e-3 * sig_u

        def f(uu, vv):
            return float(dm.ln_d_many(st, uu * uu, vv * vv))

        curv = (f(fit.u0 + h, 0.0) - 2.0 * f(fit.u0, 0.0)
                + f(fit.u0 - h, 0.0)) / (h * h)
        assert abs(-1.0 / curv / fit.delta_u_sq - 1.0) < 0.005
        top = f(fit.u0, 0.0)
        for a in (-1.0, -0.5, 0.5, 1.0):
            for b in (0.0, 0.5, 1.0):
                uu = fit.u0 + a * sig_u
                vv = b * math.sqrt(fit.delta_v_sq)
                model = (top - (uu - fit.u0) ** 2 / (2.0 * fit.delta_u_sq)
                         - vv ** 2 / (2.0 * fit.delta_v_sq))
                actual = f(uu, vv)
                assert abs(model - actual) < 0.01 * abs(actual)
    _criterion(capsys, 7, "peak fit", 10.0, body)


def test_criterion_08_wigner_pipeline(capsys):
    def body():
        # x = 0: extrapolated values reproduce the analytic Gaussian
        st0 = ReducedState.from_nx(10.0, 0.0)
        u = np.linspace(0.0, 1.5, 11)
        r = np.linspace(0.0, 1.5, 11)
        grid = wg.wigner_grid(st0, u, r)
        got = grid.ln_w_norm + grid.ln_w_max
        want = wg.ln_w_gaussian_exact(st0, (u * u)[:, None], (r * r)[None, :])
        assert np.max(np.abs(got - want)) < 1e-6

        # (10, 15): the N-sequence has settled inside N in [12, 24]
        st = ReducedState.from_nx(10.0, 15.0)
        u101 = np.linspace(0.0, 1.5 * dm.ridge_u(st), 101)
        r101 = np.linspace(0.0, 2.0, 101)
        plateau = wg._normalised(st, u101 * u101, r101[None, :], (12, 16, 20, 24))
        assert float(np.max(plateau["spread"])) < 1e-3
        # shape (normalized) steps between successive N are also plateaued
        probes = [(0.0, 0.0), (4.0, 1.0), (16.0, 2.25), (49.0, 0.25)]
        base = (0.25, 1.0)
        prev = None
        for n_dof in (12, 16, 20, 24):
            vals = np.array([wg.ln_w_at_N(st, us, rs, n_dof)
                             for us, rs in probes])
            vals -= wg.ln_w_at_N(st, base[0], base[1], n_dof)
            if prev is not None:
                assert float(np.max(np.abs(vals - prev))) < 1e-3
            prev = vals

        # x >> n^2: radial width 2 and physical angular width F/(12 n^2)
        st3k = ReducedState.from_nx(10.0, 3000.0)
        u0 = math.sqrt(dm.u_c_sq(st3k, 0.0))
        h = 0.05
        f0, _ = wg.ln_w(st3k, u0 * u0, 0.0)
        fh, _ = wg.ln_w(st3k, u0 * u0, h * h)
        delta_r_sq = -h * h / (2.0 * (fh - f0))
        assert abs(delta_r_sq / 2.0 - 1.0) < 0.05

        sq = wg.SqueezeParams(n=10.0, gamma=0.0, phi=0.0)
        big_a = st3k.kappa * 10.5
        phi0 = math.sqrt(big_a) * u0
        hp = 0.02 * phi0
        proj = wg.project_physical(
            sq, 3000.0, wg.ProjectionMode.PARA,
            np.array([phi0 - hp, phi0, phi0 + hp]), np.array([0.0]))
        col = proj.ln_w_norm[:, 0]
        curv = (col[0] - 2.0 * col[1] + col[2]) / (hp * hp)
        delta_phi_sq = -1.0 / curv
        assert abs(delta_phi_sq * 12.0 * 100.0 / 10.5 - 1.0) < 0.05
    _criterion(capsys, 8, "Wigner pipeline", 180.0, body)


def test_criterion_09_coherence(capsys):
    def body():
        vacuum = coh.WignerWidths(delta_phi_sq=0.5, delta_pi_sq=0.5)
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b, ap, bp = rng.normal(scale=2.0, size=4)
            alpha, alpha_p = complex(a, b), complex(ap, bp)
            got = coh.overlap_centered(
                coh.CoherencePair.from_labels(alpha, alpha_p), vacuum)
            want = -(abs(alpha) ** 2 + abs(alpha_p) ** 2) / 2.0
            assert abs(got - want) < 1e-12 * max(1.0, abs(want))

        # sweeps: the a_minus (real-separation) decay rate is set by the
        # pi-width, the b_minus (imaginary-separation) rate by the
        # phi-width, so squeezing one width reorders the two rates
        squeezed = coh.WignerWidths(delta_phi_sq=1e-3, delta_pi_sq=10.0)
        steps = np.linspace(0.0, 3.0, 7)

        def rate(widths, axis):
            drops = []
            for s in steps[1:]:
                kw = {"a_plus": 0.0, "b_plus": 0.0, "a_minus": 0.0,
                      "b_minus": 0.0}
                kw[axis] = s
                drops.append(-coh.overlap_centered(coh.CoherencePair(**kw),
                                                   widths) / s ** 2)
            drops = np.array(drops)
            assert np.allclose(drops, drops[0], rtol=1e-12)  # pure Gaussian
            return drops[0]

        wp, wf = squeezed.delta_pi_sq, squeezed.delta_phi_sq
        assert rate(squeezed, "a_minus") == pytest.approx(
            wp / (1.0 + 2.0 * wp), rel=1e-12)
        assert rate(squeezed, "b_minus") == pytest.approx(
            wf / (1.0 + 2.0 * wf), rel=1e-12)
        assert rate(squeezed, "a_minus") > 100.0 * rate(squeezed, "b_minus")
        mirrored = coh.WignerWidths(delta_phi_sq=10.0, delta_pi_sq=1e-3)
        assert rate(mirrored, "b_minus") > 100.0 * rate(mirrored, "a_minus")
    _criterion(capsys, 9, "coherence", 1.0, body)


def test_criterion_10_preset_determinism(capsys, tmp_path):
    reduced = {
        "fig1_c4": ["--x", "0", "1", "5"],
        "fig2_purity": ["--x", "0", "1", "5"],
        "fig3_dsurface": ["--grid", "21x21"],
        "fig4_dslices": ["--grid", "41"],
        "fig5_wigner": ["--grid", "11x11"],
        "fig6_contours": ["--grid", "9x9"],
        "fig7_slice": ["--grid", "41"],
    }

    def body():
        for preset, extra in reduced.items():
            dirs = []
            for run in ("a", "b"):
                out = tmp_path / f"{preset}_{run}"
                code = cli.main([preset, *extra, "--out", str(out)])
                assert code == 0, f"{preset} run {run} exited {code}"
                dirs.append(out)
            names = sorted(p.name for p in dirs[0].glob("*.csv"))
            assert names, f"{preset} wrote no CSV"
            assert names == sorted(p.name for p in dirs[1].glob("*.csv"))
            for name in names:
                assert (dirs[0] / name).read_bytes() \
                    == (dirs[1] / name).read_bytes(), f"{preset}/{name}"
    _criterion(capsys, 10, "preset determinism", 120.0, body)
