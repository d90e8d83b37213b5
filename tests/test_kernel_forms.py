"""The fused kernel branches against one closed form per kernel, bit for bit.

specfun evaluates each kernel family's branch in one function that shares
subexpressions, and returns a one-branch block without masking.  The
reference below keeps one function per kernel and branch, a Horner
polynomial started from zeros, and always splits the input by the branch
masks; every value and every returned shape must agree to the last bit.
A float64 scalar, which the solvers' one-point path hands the kernels,
must give the bits of the same point inside an array, and so must every
other single value: a Python float or int, a 0-d or a one-element array.
"""

import math
import warnings

import numpy as np
import pytest

from ngstate import saddle
from ngstate import specfun as sf
from ngstate.errors import BracketError

_LN2 = math.log(2.0)
_LN4PI = math.log(4.0 * math.pi)


def _horner(s, coeffs):
    acc = np.zeros_like(s) + coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * s + c
    return acc


def _lnsinh(z):
    return z - _LN2 + np.log1p(-np.exp(-2.0 * z))


def _h_trace_pos(z):
    return z * np.tanh(0.5 * z)


def _h_trace_neg(y):
    return -y * np.tan(0.5 * y)


def _h2_pos(z):
    return z * np.tanh(z)


def _h2_neg(y):
    return -y * np.tan(y)


def _f0_big_pos(z):
    return 0.5 * (_LN4PI + _lnsinh(z) - np.log(z))


def _f0_big_neg(y):
    return 0.5 * (_LN4PI + np.log(np.sin(y)) - np.log(y))


def _fv_big_pos(z):
    return 0.5 * z / np.tanh(0.5 * z)


def _fv_big_neg(y):
    return 0.5 * y / np.tan(0.5 * y)


def _f0_small_pos(z):
    return (z / np.tanh(z) - 1.0) / (z * z)


def _f0_small_neg(y):
    return (1.0 - y / np.tan(y)) / (y * y)


def _fu_small_pos(z):
    t = np.exp(-z)
    return ((1.0 - t * t) / (2.0 * z) + t) / (t + 0.5 * (1.0 + t * t))


def _fu_small_neg(y):
    c = np.cos(0.5 * y)
    return (np.sin(y) / y + 1.0) / (2.0 * c * c)


def _fv_small_pos(z):
    t = np.exp(-z)
    return ((1.0 - t * t) / (2.0 * z) - t) / (0.5 * (1.0 + t * t) - t)


def _fv_small_neg(y):
    s2 = np.sin(0.5 * y)
    return (1.0 - np.sin(y) / y) / (2.0 * s2 * s2)


_H_TRACE = (sf._H_TRACE, _h_trace_pos, _h_trace_neg)
_REFERENCE = {
    "h_trace": (sf.h_trace, (_H_TRACE,)),
    "h2": (sf.h2, ((sf._H2, _h2_pos, _h2_neg),)),
    "big_f": (sf.big_f, ((sf._F0, _f0_big_pos, _f0_big_neg), _H_TRACE,
                         (sf._FV, _fv_big_pos, _fv_big_neg))),
    "small_f": (sf.small_f, ((sf._SF0, _f0_small_pos, _f0_small_neg),
                             (sf._SFU, _fu_small_pos, _fu_small_neg),
                             (sf._SFV, _fv_small_pos, _fv_small_neg))),
}


def _reference(name, s):
    """Each kernel through the three branch masks, like the function: a
    tuple, or one value for h_trace and h2; floats for a scalar s."""
    arr = np.asarray(s, dtype=float)
    scalar, arr = arr.ndim == 0, np.atleast_1d(arr)
    outs = []
    for coeffs, pos, neg in _REFERENCE[name][1]:
        out = np.empty_like(arr)
        for branch, mask in enumerate((np.abs(arr) < sf.SERIES_CUT,
                                       arr >= sf.SERIES_CUT, arr <= -sf.SERIES_CUT)):
            if mask.any():
                sub = arr[mask]
                out[mask] = (_horner(sub, coeffs) if branch == 0 else
                             pos(np.sqrt(sub)) if branch == 1 else neg(np.sqrt(-sub)))
        outs.append(float(out[0]) if scalar else out)
    if name == "big_f":
        outs[1] = 0.5 * outs[1] + 0.0
    return tuple(outs) if len(outs) > 1 else outs[0]


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


def _assert_same(got, want):
    got, want = (got, want) if isinstance(want, tuple) else ((got,), (want,))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w) and np.shape(g) == np.shape(w)
        assert _bits(g) == _bits(w), (g, w)


def _points(pole):
    cut = sf.SERIES_CUT
    seams = [v for edge in (cut, -cut) for v in
             (np.nextafter(edge, -math.inf), edge, np.nextafter(edge, math.inf))]
    near_pole = [np.nextafter(pole, math.inf), pole * (1.0 - 1e-12), pole + 1e-6,
                 *(v for v in np.nextafter(sf.POLE_HALF, [-math.inf, math.inf]) if v > pole)]
    inside = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1e-310, -1e-310, 5e-3, -5e-3]
    outside = [0.3, 4.0, 60.0, 5e5, 1e300, -0.3, -2.0, 0.9 * pole]
    return np.array(seams + near_pole + inside + outside)


@pytest.mark.parametrize("name", list(_REFERENCE))
def test_fused_branches_match_per_kernel_forms(name):
    fn = _REFERENCE[name][0]
    pole = sf.POLE_HALF if name == "h2" else sf.POLE_MAIN
    pts = _points(pole)
    for s in pts:  # scalar input: floats; one element: its value is both ends
        _assert_same(fn(float(s)), _reference(name, float(s)))
        _assert_same(fn(np.array(s)), _reference(name, np.array(s)))
        for one in (np.full(1, s), np.full((1, 1), s)):
            _assert_same(fn(one), _reference(name, one))
    _assert_same(fn(pts), _reference(name, pts))  # every branch in one block
    grid = np.concatenate([pts, pts[::-1]]).reshape(2, -1)  # 2-D, mixed
    _assert_same(fn(grid), _reference(name, grid))
    cut = sf.SERIES_CUT
    for one in (pts[pts >= cut], pts[pts <= -cut], pts[np.abs(pts) < cut]):
        _assert_same(fn(one), _reference(name, one))  # one branch: no masks
        _assert_same(fn(one.reshape(1, -1)), _reference(name, one.reshape(1, -1)))


@pytest.mark.parametrize("name", list(_REFERENCE))
@pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
def test_one_element_at_or_below_the_pole_is_refused(name, shape):
    # the one value stands in for the block's min, in the check and the message
    fn = _REFERENCE[name][0]
    pole = sf.POLE_HALF if name == "h2" else sf.POLE_MAIN
    for bad in (pole, np.nextafter(pole, -math.inf), -math.inf, math.nan):
        message = f"{name}: argument must satisfy s > {pole:.6f} (pole), got min {float(bad)!r}"
        with pytest.raises(ValueError) as err:
            fn(np.full(shape, bad))
        assert str(err.value) == message


@pytest.mark.parametrize("name", list(_REFERENCE))
def test_a_float64_scalar_gets_the_bits_of_its_point_in_an_array(name):
    fn = _REFERENCE[name][0]
    pole = sf.POLE_HALF if name == "h2" else sf.POLE_MAIN
    pts = _points(pole)
    block = fn(pts)  # every branch in one block
    block = block if isinstance(block, tuple) else (block,)
    for i, s in enumerate(pts):  # s is a float64 scalar
        others = [float(s), np.array(s)] + ([int(s)] if s == int(s) else [])
        one, *alone = ((v if isinstance(v, tuple) else (v,))
                       for v in [fn(s)] + [fn(o) for o in others])
        assert [type(v) for v in one] == [np.float64] * len(block), s
        assert _bits(one) == _bits([b[i] for b in block]), s
        for other, got in zip(others, alone):  # any other 0-d input: floats
            assert [type(v) for v in got] == [float] * len(block), (s, other)
            assert _bits(got) == _bits(one), (s, other)


@pytest.mark.parametrize("name", ["h_trace", "h2", "big_f"])
def test_plus_infinity_is_infinite_in_every_kernel(name):
    # F0's ln sinh z - ln z is inf - inf at z = inf unless ln z is capped
    fn = _REFERENCE[name][0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (math.inf, np.float64(math.inf), np.array(math.inf),
                  np.full(1, math.inf), np.array([math.inf, 1.0])):
            got = fn(s)
            for value in got if isinstance(got, tuple) else (got,):
                assert np.ravel(value)[0] == math.inf, (s, got)


@pytest.mark.parametrize("kernel", [sf.h_trace, sf.h2])
def test_one_point_trace_solve_from_a_subnormal_lower_end(kernel):
    # lower end xi/|z0_sq|/2: 1/kernel overflows there, and at xi = 1e-323
    # the lower end is 5e-324, where h_trace is 0; the kernels' float64
    # values give numpy's inf there, never a ZeroDivisionError
    one = saddle.solve_trace_raw(-1.0, 1e-308, kernel)
    assert 0.0 < one.s < 2.2e-308 and abs(one.residual) <= 1e-12
    assert saddle.solve_trace_raw([-1.0], [1e-308], kernel).s.tolist() == [one.s]
    for shape in ((), (1,)):
        with pytest.raises(BracketError):  # (lo - z0_sq)/xi overflows too
            saddle.solve_trace_raw(np.full(shape, -1.0), np.full(shape, 1e-323), kernel)
