"""The packed Bessel kernel against the one-order code, bit for bit.

specfun._bessel_rows takes one order per index of the argument's leading
axis and, where a 4096-element chunk holds several orders, shares each
argument range's pass among them.  The reference below is the one-order
kernel that runs each order on its own (series, Miller's recurrence,
Hankel's series, chunk by chunk); every element must agree with it to the
last bit, and the shape must be the argument's.
"""

import math

import numpy as np
import pytest

from ngstate import specfun as sf


def _reference_series(nu, x):
    with np.errstate(divide="ignore"):
        pre = np.exp(nu * np.log(0.5 * x) - math.lgamma(nu + 1)) if nu else 1.0
    return pre * sf._horner(x * x, np.cumprod([1.0] + [-0.25 / (k * (k + nu)) for k in range(1, 13)]))


def _reference_miller(nu, x):
    top = max(nu, 25) + max(40, math.isqrt(40 * nu))
    two_x, lo, j = 2.0 / x, np.zeros_like(x), np.ones_like(x)
    evens = ans = 0.0
    for k in range(top + top % 2, 0, -1):
        lo, j = j, k * two_x * j - lo
        evens = evens + j if k % 2 and k > 1 else evens
        ans = j if k - 1 == nu else ans
        if k % 8 == 0 and np.abs(j).max() > 1e250:
            scale = np.where(np.abs(j) > 1e250, 1e-250, 1.0)
            lo, j, evens, ans = lo * scale, j * scale, evens * scale, ans * scale
    return ans / (j + 2.0 * evens)


def _reference_hankel(nu, x):
    with np.errstate(over="ignore"):
        w = 1.0 / (x * x)
    c, s = np.cos(x), np.sin(x)
    (p0, q0), (p1, q1) = ((sf._horner(w, a[0::2]), sf._horner(w, a[1::2]) / x) for a in sf._HANKEL)
    root = np.sqrt(math.pi * x)
    j0 = (p0 * (c + s) - q0 * (s - c)) / root
    j1 = (p1 * (s - c) + q1 * (s + c)) / root
    for k in range(1, nu):
        j0, j1 = j1, (2.0 * k / x) * j1 - j0
    return j1 if nu else j0


def _reference(nu, arg):
    flat = np.asarray(arg, dtype=float).ravel()
    out = np.zeros_like(flat)
    for at in range(0, flat.size, sf._BESSEL_CHUNK):
        x, dst = flat[at:at + sf._BESSEL_CHUNK], out[at:at + sf._BESSEL_CHUNK]
        small, big = x < 2.0, x >= max(25.0, nu)
        for mask, kernel in ((small, _reference_series),
                             (~small & ~big, _reference_miller),
                             (big & (x < math.inf), _reference_hankel)):
            if mask.any():
                dst[mask] = kernel(nu, x[mask])
    return out.reshape(np.shape(arg))


def _args(orders, size, seed):
    """One row of size x per order: x = 0, subnormal x, each range edge
    +- 1 ulp (2, 25 and every order's max(25, nu)), inf and the 1e250
    rescale points of order 150, scattered among random x of each range."""
    edges = {2.0, 25.0, *(max(25.0, float(o)) for o in orders)}
    fixed = [0.0, 5e-324, 1e-310, math.inf, 2.5, 7.0,
             *(e for edge in edges for e in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, math.inf)))]
    rng = np.random.default_rng(seed)
    hi = max(25.0, *orders) + 50.0
    rows = rng.uniform([0.0, 2.0, 25.0], [2.0, 25.0, hi], (len(orders), size, 3))
    rows = rows[np.arange(len(orders))[:, None], np.arange(size), rng.integers(0, 3, (len(orders), size))]
    for row in rows:
        row[rng.choice(size, len(fixed), replace=False)] = fixed
    return rows


def _assert_packed_matches(orders, arg):
    got = sf._bessel_rows(list(orders), arg)
    want = np.array([_reference(o, row) for o, row in zip(orders, arg)]).reshape(arg.shape)
    assert got.shape == arg.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("orders, size", [
    ((13, 15, 17, 19), 384),   # one ln_w point's four tables: one chunk
    ((13, 15, 17, 19), 1500),  # the chunk boundary at 4096 splits the third row
    ((25, 26), 700),           # Miller tops 65 and 66
    ((13, 150), 700),          # Miller starts 66 and 228: 13 waits at J = 0
    ((0, 1, 19), 500),         # orders 0 and 1 take J0 and J1 directly
    ((150, 19, 0, 1, 13), 900),
    ((19, 19, 19), 2000),      # one order across chunks
    ((3, 5, 7, 9), 384),       # fig6's orders
    ((1, 400), 300),           # order 1 recurs on to 400 at x ~ 25: overflow
])
def test_packed_rows_match_one_order_kernel(orders, size):
    _assert_packed_matches(orders, _args(orders, size, seed=sum(orders) + size))


def test_packed_table_of_any_shape():
    # wigner passes (N, r, node) tables: the leading axis carries the order
    arg = _args((13, 15, 17, 19), 6 * 64, seed=1).reshape(4, 6, 64)
    _assert_packed_matches((13, 15, 17, 19), arg)
    assert sf._bessel_rows([5, 7], np.zeros((2, 0))).shape == (2, 0)


@pytest.mark.parametrize("order", [*range(30), 39, 99, 150])
def test_bessel_j_matches_one_order_kernel(order):
    x = _args((order,), 1000, seed=order)[0]
    assert sf.bessel_j(order, x).tobytes() == _reference(order, x).tobytes()
    assert sf.bessel_j(order, x[:6].reshape(2, 3)).tobytes() == _reference(order, x[:6]).tobytes()
