"""Kernel checks: frozen high-precision values, branch seams, sign structure.

Reference numbers were generated with mpmath at 40 digits; the seam sweep
recomputes its references live so the Taylor window and both closed-form
branches are compared against the same oracle.
"""

import math
import os
import pathlib
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

from ngstate import specfun as sf

mp.mp.dps = 30


def mp_kernel(name, s):
    if s == 0:
        return {"h_trace": 0.0, "h2": 0.0, "F0": math.log(4 * math.pi) / 2,
                "Fu": 0.0, "Fv": 1.0, "f0": 1 / 3, "fu": 1.0, "fv": 1 / 3}[name]
    return float(mp_exact(name, s))


def mp_exact(name, s):
    """The kernel at s != 0 as an mpf, at the working precision."""
    s = mp.mpf(s)
    z = mp.sqrt(s) if s > 0 else mp.mpc(0, mp.sqrt(-s))
    table = {
        "h_trace": lambda: z * mp.tanh(z / 2),
        "h2": lambda: z * mp.tanh(z),
        "F0": lambda: -mp.log(mp.sqrt(z / (4 * mp.pi * mp.sinh(z)))),
        "Fu": lambda: z / 2 * mp.tanh(z / 2),
        "Fv": lambda: z / 2 / mp.tanh(z / 2),
        "f0": lambda: (z / mp.tanh(z) - 1) / z ** 2,
        "fu": lambda: (mp.sinh(z) / z + 1) / (2 * mp.cosh(z / 2) ** 2),
        "fv": lambda: (mp.sinh(z) / z - 1) / (2 * mp.sinh(z / 2) ** 2),
    }
    return mp.re(table[name]())


def test_h_trace_frozen_values():
    assert sf.h_trace(math.log(2) ** 2) == pytest.approx(math.log(2) / 3, rel=1e-15)
    assert sf.h_trace(4.0) == pytest.approx(1.5231883119115298, rel=1e-14)
    assert sf.h_trace(-4.0) == pytest.approx(-3.1148154493098045, rel=1e-14)
    assert sf.h_trace(0.7) == pytest.approx(0.33091797084146761, rel=1e-14)
    assert sf.h_trace(-0.7) == pytest.approx(-0.37195479291223538, rel=1e-14)
    # analytic continuation reaches -pi/2 at s = -pi^2/4
    assert sf.h_trace(-math.pi ** 2 / 4) == pytest.approx(-math.pi / 2, rel=1e-12)
    assert sf.h_trace(0.0) == 0.0


def test_h2_frozen_values_and_pole():
    assert sf.h2(4.0) == pytest.approx(1.9280551601516338, rel=1e-14)
    assert sf.h2(-1.3) == pytest.approx(-2.48202676548834, rel=1e-14)
    assert sf.h2(0.7) == pytest.approx(0.57230552534948839, rel=1e-14)
    with pytest.raises(ValueError):
        sf.h2(-math.pi ** 2 / 4)
    with pytest.raises(ValueError):
        sf.h2(-3.0)


def test_big_f_at_zero_and_frozen_values():
    f0v, fuv, fvv = sf.big_f(0.0)
    assert f0v == pytest.approx(0.5 * math.log(4 * math.pi), rel=1e-15)
    assert fuv == 0.0
    assert fvv == pytest.approx(1.0, rel=1e-15)
    f0v, fuv, fvv = sf.big_f(4.0)
    assert f0v == pytest.approx(1.5631222195117568, rel=1e-14)
    assert fuv == pytest.approx(0.76159415595576489, rel=1e-14)
    assert fvv == pytest.approx(1.3130352854993313, rel=1e-14)
    f0v, fuv, fvv = sf.big_f(-4.0)
    assert f0v == pytest.approx(0.87139701515709243, rel=1e-14)
    assert fuv == pytest.approx(-1.5574077246549022, rel=1e-14)
    assert fvv == pytest.approx(0.6420926159343307, rel=1e-14)
    # half-log identity point and the continued tangent value
    assert sf.big_f(math.log(2) ** 2)[1] == pytest.approx(math.log(2) / 6, rel=1e-14)
    assert sf.big_f(-1.0)[1] == pytest.approx(-0.5 * math.tan(0.5), rel=1e-14)


def test_small_f_at_zero_and_frozen_values():
    f0v, fuv, fvv = sf.small_f(0.0)
    assert (f0v, fuv, fvv) == (pytest.approx(1 / 3), pytest.approx(1.0), pytest.approx(1 / 3))
    assert sf.small_f(4.0)[0] == pytest.approx(0.26865736036377405, rel=1e-14)
    assert sf.small_f(-4.0)[0] == pytest.approx(0.47882877718014288, rel=1e-14)
    assert sf.small_f(4.0)[1] == pytest.approx(0.59078424878489548, rel=1e-14)
    assert sf.small_f(-4.0)[1] == pytest.approx(2.491463272734831, rel=1e-14)
    assert sf.small_f(4.0)[2] == pytest.approx(0.29448681226651042, rel=1e-14)
    assert sf.small_f(-4.0)[2] == pytest.approx(0.38509515575153061, rel=1e-14)


SEAM = [2e-2, 1.2e-2, 1.0001e-2, 9.999e-3, 6e-3, 2e-3, 1e-4, 1e-5]
KERNELS = [
    ("h_trace", sf.h_trace),
    ("h2", sf.h2),
    ("F0", lambda s: sf.big_f(s)[0]),
    ("Fu", lambda s: sf.big_f(s)[1]),
    ("Fv", lambda s: sf.big_f(s)[2]),
    ("f0", lambda s: sf.small_f(s)[0]),
    ("fu", lambda s: sf.small_f(s)[1]),
    ("fv", lambda s: sf.small_f(s)[2]),
]


@pytest.mark.parametrize("name,fn", KERNELS)
def test_seam_against_mpmath(name, fn):
    # straddle the series window on both signs; absolute floor matters for
    # the odd kernels whose values pass through zero
    for s in [*SEAM, *(-v for v in SEAM)]:
        ref = mp_kernel(name, s)
        assert fn(s) == pytest.approx(ref, rel=5e-12, abs=1e-15), (name, s)


@pytest.mark.parametrize("name,fn", KERNELS)
def test_series_side_against_mpmath(name, fn):
    # inside the Taylor window every kernel is its polynomial alone: each
    # is within 2.5e-16 relative (1.1 machine epsilons) of 40-digit mpmath,
    # the worst reading 2.1e-16; h2, whose pole is four times nearer than
    # the others', needs its eighth term for this
    cut = sf.SERIES_CUT * (1.0 - 1e-9)
    s = np.concatenate([np.linspace(-cut, cut, 400), [-cut / 2.0 ** 30, cut / 2.0 ** 30]])
    with mp.workdps(40):
        refs = [mp_exact(name, x) for x in s.tolist()]
    errors = [abs((mp.mpf(v) - ref) / ref) for v, ref in zip(np.asarray(fn(s)).tolist(), refs)]
    worst = int(np.argmax(errors))
    assert errors[worst] < 2.5e-16, (name, s[worst], float(errors[worst]))


def test_second_difference_continuity_at_origin():
    eps = 1e-6
    for fn in (sf.h_trace, sf.h2,
               lambda s: sf.big_f(s)[0], lambda s: sf.big_f(s)[1],
               lambda s: sf.big_f(s)[2], lambda s: sf.small_f(s)[0],
               lambda s: sf.small_f(s)[1], lambda s: sf.small_f(s)[2]):
        assert abs(fn(eps) + fn(-eps) - 2 * fn(0.0)) < 1e-9


def test_sign_structure():
    neg = np.linspace(-math.pi ** 2 + 1e-6, -1e-4, 300)
    f0v, fuv, fvv = sf.big_f(neg)
    assert np.all(fuv < 0)
    assert np.all(fvv > 0)
    s0, su, sv = sf.small_f(neg)
    assert np.all(s0 > 0) and np.all(su > 0) and np.all(sv > 0)
    pos = np.linspace(1e-4, 50.0, 300)
    assert np.all(sf.h_trace(pos) > 0)
    f0v, fuv, fvv = sf.big_f(pos)
    assert np.all(fuv > 0) and np.all(fvv > 0)
    s0, su, sv = sf.small_f(pos)
    assert np.all(s0 > 0) and np.all(su > 0) and np.all(sv > 0)


def test_occupation_identity():
    for n in [1e-6, 0.1, 0.5, 1.0, 10.0, 1e4]:
        z = math.log1p(1 / n)
        assert sf.h_trace(z * z) == pytest.approx(z / (2 * n + 1), rel=1e-12)


def test_small_f_is_four_dds_of_big_f():
    # the saddle solvers rely on this pairing (stationarity of the exponent)
    h = 1e-5
    for s in [-4.0, -0.7, 0.3, 4.0, 20.0]:
        for i in range(3):
            deriv = (sf.big_f(s + h)[i] - sf.big_f(s - h)[i]) / (2 * h)
            assert 4 * deriv == pytest.approx(sf.small_f(s)[i], rel=1e-7), (s, i)


def test_domain_errors():
    with pytest.raises(ValueError):
        sf.h_trace(-math.pi ** 2)
    with pytest.raises(ValueError):
        sf.big_f(-math.pi ** 2 - 1.0)
    with pytest.raises(ValueError):
        sf.small_f(np.array([1.0, -4.0, -11.0]))
    with pytest.raises(ValueError):
        sf.h_trace(float("nan"))


def test_array_shapes_and_scalars():
    s = np.array([[0.5, -0.5], [4.0, 1e-5]])
    out = sf.h_trace(s)
    assert out.shape == s.shape
    assert isinstance(sf.h_trace(0.5), float)
    triple = sf.big_f(s)
    assert all(part.shape == s.shape for part in triple)


def test_bessel_values_and_bounds():
    assert sf.bessel_j(0, 0.0) == 1.0
    assert sf.bessel_j(1, 0.0) == 0.0
    assert sf.bessel_j(0, math.inf) == 0.0
    assert sf.bessel_j(3, np.zeros((2, 3))).shape == (2, 3)
    assert sf.bessel_j(9, 10.0) == pytest.approx(0.29185568526512005, rel=1e-10)
    assert sf.bessel_j(3, 7.5) == pytest.approx(-0.25806091319346031, rel=1e-10)
    x = np.linspace(0.0, 400.0, 2000)
    for order in (0, 1, 7, 32, 64):
        assert np.all(np.abs(sf.bessel_j(order, x)) <= 1.0 + 1e-15)
    with pytest.raises(ValueError):
        sf.bessel_j(-1, 1.0)
    with pytest.raises(ValueError):
        sf.bessel_j(1.5, 1.0)
    with pytest.raises(ValueError):
        sf.bessel_j(2, -0.5)
    for order in (math.inf, -math.inf, math.nan):  # refused by the kernel, not int()
        with pytest.raises(ValueError, match="bessel_j: order"):
            sf.bessel_j(order, 1.0)
    for order in (np.array([1, 2]), [3]):  # one order per call, not numpy's TypeError
        with pytest.raises(ValueError, match="bessel_j: order"):
            sf.bessel_j(order, 1.0)


def test_bessel_beyond_squarable_argument():
    # x * x overflows past 1.3e154 and pi * x past 5.7e307, where w = 1/x^2
    # and J are 0 to absolute precision: no RuntimeWarning (an error under
    # the suite's filterwarnings), and |J| within its envelope sqrt(2/(pi x))
    x = np.array([1e154, 1e155, 1e300, 1.7e308])
    for order in (0, 1, 5):
        got = sf.bessel_j(order, x)
        assert np.all(np.abs(got) <= math.sqrt(2.0 / math.pi) / np.sqrt(x))
        assert got[2] != 0.0


def _bessel_args(order):
    """x in each range of the kernel, its branch edges +- 1 ulp, and tiny x."""
    edges = [e for edge in (2.0, 25.0, float(order)) if edge > 0
             for e in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, math.inf))]
    return np.concatenate([np.linspace(0.0, 2.0, 9, endpoint=False),
                           np.linspace(2.0, 25.0, 12, endpoint=False) + 0.37,
                           np.geomspace(25.0, 400.0, 12), edges,
                           [0.0, 1e-300, 1e-40]])


@pytest.mark.parametrize("order", [0, 1, *range(3, 20), 99])
def test_bessel_against_mpmath(order):
    # every order the presets reach (N = 8 ... 40), plus 0, 1 and N = 200
    x = _bessel_args(order)
    got = sf.bessel_j(order, x)
    ref = np.array([float(mp.besselj(order, mp.mpf(float(xi)))) for xi in x])
    assert np.abs(got - ref).max() <= 4e-15
    small = x < 2.0
    np.testing.assert_allclose(got[small], ref[small], rtol=1e-12, atol=0.0)


def test_bessel_backward_recurrence_rescales():
    # J_150(2) ~ 1e-263: the unnormalised recurrence passes 1e250 on its way
    # down to J0 and is rescaled, the answer keeping its relative precision
    for x in (2.0, 2.5, 7.0):
        want = float(mp.besselj(150, mp.mpf(x)))
        assert sf.bessel_j(150, x) == pytest.approx(want, rel=1e-12)


def test_cli_import_loads_no_scipy():
    code = "import sys, ngstate.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    src = str(pathlib.Path(sf.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "False"
