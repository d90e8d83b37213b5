"""Special-function kernels on the squared-frequency axis s = z**2.

Every transcendental kernel used by the solvers is an analytic function of
the *squared* frequency s.  Working in s instead of z means the continuation
to imaginary frequency (z = i*y, i.e. -pi**2 < s < 0) is plain real
arithmetic: hyperbolic functions of z turn into trigonometric functions of
y = sqrt(-s) and nothing in the call chain ever touches a complex number.

The kernels, with their two closed-form branches::

                       s > 0  (z = sqrt(s))        s < 0  (y = sqrt(-s))
    h_trace(s)         z tanh(z/2)                 -y tan(y/2)
    h2(s)              z tanh(z)                   -y tan(y)
    F0(s)              -ln sqrt(z/(4 pi sinh z))   -ln sqrt(y/(4 pi sin y))
    Fu(s)              (z/2) tanh(z/2)             -(y/2) tan(y/2)
    Fv(s)              (z/2) coth(z/2)             (y/2) cot(y/2)
    f0(s)              (z coth z - 1)/z**2         (1 - y cot y)/y**2
    fu(s)              (sinh z/z + 1)/(2cosh^2(z/2))   (sin y/y + 1)/(1+cos y)
    fv(s)              (sinh z/z - 1)/(2sinh^2(z/2))   (1 - sin y/y)/(1-cos y)

All eight are smooth through s = 0; the apparent 0/0 at the branch point is
removed by switching to Taylor polynomials for |s| < SERIES_CUT.  The
coefficients below are exact rationals (generated once with a computer
algebra system and frozen); with seven terms the truncation error at the
cut is far below double precision.

The small-f kernels are 4 d/ds of the corresponding big-F kernels; the
solvers rely on that pairing (stationarity of the saddle exponent), and a
unit test pins it down by finite differences.

Domain limits: h2 hits its first pole at s = -pi**2/4, everything else at
s = -pi**2.  Callers get a ValueError at or beyond the pole rather than a
garbage value from the wrong trigonometric sheet.
"""

import contextlib
import functools
import math

import numpy as np

__all__ = [
    "POLE_MAIN",
    "POLE_HALF",
    "SERIES_CUT",
    "h_trace",
    "h2",
    "big_f",
    "small_f",
    "bessel_j",
]

POLE_MAIN = -math.pi ** 2  # h_trace, big_f, small_f diverge here
POLE_HALF = -math.pi ** 2 / 4  # first pole of tan(y) hit by h2

# Width of the Taylor window around s = 0.  The closed forms for fu/fv
# cancel like s/6 near the origin, so the window must be wide enough that
# the surviving closed-form cancellation (~1e-16/s) stays below 1e-13;
# with seven exact series terms the polynomial side is good to ~1e-19
# here, so 1e-2 leaves both sides comfortably at double precision.
SERIES_CUT = 1e-2

_LN2 = math.log(2.0)
_LN4PI = math.log(4.0 * math.pi)

# --- Taylor coefficients about s = 0 (exact rationals, ascending powers) ---

_H_TRACE = (0.0, 1 / 2, -1 / 24, 1 / 240, -17 / 40320, 31 / 725760,
            -691 / 159667200)
_H2 = (0.0, 1.0, -1 / 3, 2 / 15, -17 / 315, 62 / 2835, -1382 / 155925)
_F0 = (0.5 * _LN4PI, 1 / 12, -1 / 360, 1 / 5670, -1 / 75600, 1 / 935550,
       -691 / 7662154500)
_FV = (1.0, 1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
       -691 / 1307674368000)
_SF0 = (1 / 3, -1 / 45, 2 / 945, -1 / 4725, 2 / 93555, -1382 / 638512875,
        4 / 18243225)
_SFU = (1.0, -1 / 6, 1 / 40, -17 / 5040, 31 / 72576, -691 / 13305600,
        5461 / 889574400)
_SFV = (1 / 3, -1 / 90, 1 / 2520, -1 / 75600, 1 / 2395008,
        -691 / 54486432000, 1 / 2668723200)


def _horner(s, coeffs):
    acc = s * coeffs[-1] + coeffs[-2]
    for c in reversed(coeffs[:-2]):
        acc = acc * s + c
    return acc


def _lnsinh(z):
    # log(sinh z) without overflow for large z
    return z - _LN2 + np.log1p(-np.exp(-2.0 * z))


# Each family evaluates a branch in one function of the branch's s that
# returns all of its kernels: (series, s > 0, s < 0).  The positive-branch
# fu/fv are written in terms of t = exp(-z) so they stay finite for
# arbitrarily large z (sinh/cosh would overflow past z ~ 710).

def _series(*coeffs):
    return lambda s: tuple(_horner(s, c) for c in coeffs)


def _h_trace_pos(s):
    z = np.sqrt(s)
    return (z * np.tanh(0.5 * z),)


def _h_trace_neg(s):
    y = np.sqrt(-s)
    return (-y * np.tan(0.5 * y),)


def _h2_pos(s):
    z = np.sqrt(s)
    return (z * np.tanh(z),)


def _h2_neg(s):
    y = np.sqrt(-s)
    return (-y * np.tan(y),)


def _big_f_pos(s):  # (F0, h_trace, Fv)
    z = np.sqrt(s)
    half, th = 0.5 * z, np.tanh(0.5 * z)
    return 0.5 * (_LN4PI + _lnsinh(z) - np.log(z)), z * th, half / th


def _big_f_neg(s):
    y = np.sqrt(-s)
    half, tn = 0.5 * y, np.tan(0.5 * y)
    return 0.5 * (_LN4PI + np.log(np.sin(y)) - np.log(y)), -y * tn, half / tn


def _small_f_pos(s):  # (f0, fu, fv)
    z = np.sqrt(s)
    t = np.exp(-z)
    tt = t * t
    a, b = (1.0 - tt) / (2.0 * z), 0.5 * (1.0 + tt)
    return (z / np.tanh(z) - 1.0) / (z * z), (a + t) / (t + b), (a - t) / (b - t)


def _small_f_neg(s):
    # 1 + cos y written as 2 cos^2(y/2): the naive form rounds to exactly
    # zero a hair away from y = pi and the inf poisons grid bracketing
    y = np.sqrt(-s)
    sinc, half = np.sin(y) / y, 0.5 * y
    c, s2 = np.cos(half), np.sin(half)
    return ((1.0 - y / np.tan(y)) / (y * y), (sinc + 1.0) / (2.0 * c * c),
            (1.0 - sinc) / (2.0 * s2 * s2))


_H_TRACE_K = (_series(_H_TRACE), _h_trace_pos, _h_trace_neg)
_H2_K = (_series(_H2), _h2_pos, _h2_neg)
_BIG_F = (_series(_F0, _H_TRACE, _FV), _big_f_pos, _big_f_neg)
_SMALL_F = (_series(_SF0, _SFU, _SFV), _small_f_pos, _small_f_neg)


def _eval(s, family, pole, name):
    """The family's kernels at s, as a tuple.  A block within one branch
    gets that branch's arrays; a mixed one is split by the branch masks
    and scattered back.  A one-element block's value is both ends of its
    range, without the two reductions."""
    arr = np.asarray(s, dtype=float)
    scalar, arr = arr.ndim == 0, np.atleast_1d(arr)
    if arr.size == 1:
        lo = hi = arr.flat[0]
    else:
        lo, hi = (arr.min(), arr.max()) if arr.size else (math.inf, math.inf)
    if not lo > pole:
        raise ValueError(f"{name}: argument must satisfy s > {pole:.6f} (pole), "
                         f"got min {lo}")
    if lo >= SERIES_CUT:
        outs = family[1](arr)
    elif hi <= -SERIES_CUT:
        outs = family[2](arr)
    elif -SERIES_CUT < lo and hi < SERIES_CUT:
        outs = family[0](arr)
    else:
        outs = None
        masks = (np.abs(arr) < SERIES_CUT, arr >= SERIES_CUT, arr <= -SERIES_CUT)
        for mask, branch in zip(masks, family):
            if mask.any():
                values = branch(arr[mask])
                outs = outs or tuple(np.empty_like(arr) for _ in values)
                for out, value in zip(outs, values):
                    out[mask] = value
    return tuple(float(out[0]) for out in outs) if scalar else outs


def h_trace(s):
    """Gap kernel z*tanh(z/2) as a function of s = z**2.

    Continues to -y*tan(y/2) for s < 0 and to a Taylor polynomial near
    s = 0.  Defined on s > -pi**2.  Also satisfies
    h_trace(ln(1+1/n)**2) = ln(1+1/n)/(2n+1), the occupation identity
    used throughout the state map.
    """
    return _eval(s, _H_TRACE_K, POLE_MAIN, "h_trace")[0]


def h2(s):
    """Doubled-parameter gap kernel z*tanh(z) of s = z**2 (s > -pi**2/4)."""
    return _eval(s, _H2_K, POLE_HALF, "h2")[0]


def big_f(s):
    """Exponent kernels (F0, Fu, Fv) of s = z**2 on s > -pi**2.

    F0(s) = -ln sqrt(z/(4 pi sinh z)),  Fu(s) = (z/2) tanh(z/2),
    Fv(s) = (z/2) coth(z/2), each continued through s <= 0 as in the
    module table.  Fv > 0 on the whole domain and sign(Fu) = sign(s).

    Returns a tuple of three floats (or arrays, matching the input shape).
    """
    f0, h, fv = _eval(s, _BIG_F, POLE_MAIN, "big_f")
    # Fu = h_trace/2; + 0.0 leaves a subnormal s's zero unsigned
    return f0, 0.5 * h + 0.0, fv


def small_f(s):
    """Saddle right-hand-side kernels (f0, fu, fv) of s = z**2.

    f0(s) = (z coth z - 1)/z**2, fu(s) = (sinh z/z + 1)/(2 cosh^2(z/2)),
    fv(s) = (sinh z/z - 1)/(2 sinh^2(z/2)), on s > -pi**2; all three are
    positive there and f0 diverges at the pole, which is what guarantees
    the saddle equation always brackets a root.  Identity: each small-f
    kernel is 4 d/ds of its big-F partner.

    Returns (f0, fu, fv) matching the input shape.
    """
    return _eval(s, _SMALL_F, POLE_MAIN, "small_f")


# Hankel's series (DLMF 10.17.3) for orders 0, 1: signed a_k(nu), P and Q*x
# from the even and odd k in w = 1/x**2; a_k / 25**k < 1e-18 from k = 22
_HANKEL = [np.cumprod([1.0] + [(4 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k) for k in range(1, 22)])
           * np.repeat((-1.0) ** np.arange(11), 2) for nu in (0, 1)]
_BESSEL_CHUNK = 4096  # elements per pass: each temporary stays at 32 KiB


def _take(nu, order, j, ans):
    # the answer with J_order = j put in: all of j for one order, else where
    # the element's own order is `order`
    return j if isinstance(nu, int) else np.where(nu == order, j, ans)


@functools.lru_cache(maxsize=256)
def _series_terms(order):
    # (-x^2/4)^k/(k! (nu+1)_k), below 5e-18 from k = 13 at x < 2; built once
    # per order, not per chunk, and shared, so read-only
    terms = np.cumprod([1.0] + [-0.25 / (k * (k + order)) for k in range(1, 13)])
    terms.flags.writeable = False
    return terms


def _bessel_series(nu, x, orders):
    # (x/2)^nu/nu! through the log, so tiny x underflows smoothly
    if isinstance(nu, int):
        with np.errstate(divide="ignore"):
            pre = np.exp(nu * np.log(0.5 * x) - math.lgamma(nu + 1)) if nu else 1.0
        return pre * _horner(x * x, _series_terms(nu))
    at = np.searchsorted(orders, nu)
    lgam = np.array([math.lgamma(o + 1) for o in orders])[at]
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 * -inf where nu = x = 0
        pre = np.where(nu > 0, np.exp(nu * np.log(0.5 * x) - lgam), 1.0)
    return pre * _horner(x * x, np.array([_series_terms(o) for o in orders])[at].T)


def _bessel_miller(nu, x, orders):
    # from an even start >= 40 above nu and x (more for a high order's turning
    # point), normalised by J0 + 2 sum J_2k = 1; |J| grows <= 1 + 2k/x <= 1 + k
    # a step, so a check every 8 steps keeps it below 1e250 * top**8.  An
    # element whose start lies lower holds J = 0, which the recurrence keeps,
    # until its start seeds J = 1; orders <= 25 all start at 66
    starts = [t + t % 2 for t in (max(o, 25) + max(40, math.isqrt(40 * o)) for o in orders)]
    one = isinstance(nu, int)
    start = starts[0] if one else np.array(starts)[np.searchsorted(orders, nu)]
    two_x, lo = 2.0 / x, np.zeros_like(x)
    j = np.ones_like(x) if one else np.where(start == starts[-1], 1.0, lo)
    marks = {k + 1 for k in orders + starts}  # one lookup a step
    evens = ans = 0.0
    for k in range(starts[-1], 0, -1):
        lo, j = j, k * two_x * j - lo  # j is J_{k-1}
        evens = evens + j if k % 2 and k > 1 else evens
        if k in marks:
            ans = _take(nu, k - 1, j, ans) if k - 1 in orders else ans
            j = np.where(start == k - 1, 1.0, j) if k - 1 in starts else j
        if k % 8 == 0 and np.abs(j).max() > 1e250:
            scale = np.where(np.abs(j) > 1e250, 1e-250, 1.0)
            lo, j, evens, ans = lo * scale, j * scale, evens * scale, ans * scale
    return ans / (j + 2.0 * evens)


def _bessel_hankel(nu, x, orders):
    # x * x overflows past 1.3e154 and pi * x past 5.7e307, where w and J are
    # 0 to absolute precision
    with np.errstate(over="ignore"):
        w, root = 1.0 / (x * x), np.sqrt(math.pi * x)
    c, s = np.cos(x), np.sin(x)
    (p0, q0), (p1, q1) = ((_horner(w, a[0::2]), _horner(w, a[1::2]) / x) for a in _HANKEL)
    j0 = (p0 * (c + s) - q0 * (s - c)) / root
    j1 = (p1 * (s - c) + q1 * (s + c)) / root
    ans, done = 0.0, 1  # j1 is J_done
    # stable upward while k < x (A&S 9.1.27); of several orders, an element
    # recurs on past its own unread and may overflow there
    with np.errstate(over="ignore", invalid="ignore") if len(orders) > 1 else contextlib.nullcontext():
        for order in orders:
            for k in range(done, order):
                j0, j1 = j1, (2.0 * k / x) * j1 - j0
            done = max(done, order)
            ans = _take(nu, order, j1 if order else j0, ans)
    return ans


def _bessel_rows(orders, argument):
    """J of order orders[i] (an int >= 0) at each element of argument[i]
    (>= 0), in chunks of _BESSEL_CHUNK elements of the flattened argument.
    A chunk of one order passes it to each range as an int; a chunk of
    several passes each element's order, and each range shares one pass
    among them (README design notes)."""
    flat = argument.ravel()
    out = np.zeros_like(flat)
    width = flat.size // max(1, len(orders))
    for at in range(0, flat.size, _BESSEL_CHUNK):
        x, dst = flat[at:at + _BESSEL_CHUNK], out[at:at + _BESSEL_CHUNK]
        first = at // width
        rows = orders[first:(at + x.size - 1) // width + 1]
        distinct = sorted(set(rows))
        one = len(distinct) == 1
        nu = int(distinct[0]) if one else np.array(rows)[np.arange(at, at + x.size) // width - first]
        small, big = x < 2.0, x >= (max(25.0, nu) if one else np.maximum(25.0, nu))
        for mask, kernel in ((small, _bessel_series),
                             (~small & ~big, _bessel_miller),
                             (big & (x < math.inf), _bessel_hankel)):
            if mask.any():
                dst[mask] = kernel(nu if one else nu[mask], x[mask], distinct)
    return out.reshape(argument.shape)


def bessel_j(order, argument):
    """Bessel J of non-negative integer order at non-negative argument, in
    three ranges of the argument (README design notes)."""
    if np.ndim(order) or not (math.isfinite(order) and int(order) == order and order >= 0):
        raise ValueError(f"bessel_j: order must be a non-negative integer, got {order}")
    arg = np.asarray(argument, dtype=float)
    if not np.all(arg >= 0):
        raise ValueError("bessel_j: argument must be >= 0")
    out = _bessel_rows([int(order)], arg.reshape(1, -1))
    return float(out[0, 0]) if arg.ndim == 0 else out.reshape(arg.shape)
