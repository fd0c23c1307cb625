"""The Taylor-Green and Lamb-Oseen kernels, pinned to copies of their straight-line form.

``_taylor_green`` and ``_lamb_oseen`` below compute every factor at every
call, in the order the library's kernels once did.  The library may hoist
factors that depend only on the parameters, or on time for a steady field, but
it must give the same floats bit for bit (``repr`` tells ``-0.0`` and ``nan``
apart) and raise the same error with the same message, for both values of
``full``.
"""

import itertools
import math

import numpy as np
import pytest

from ttpsim import LambOseenField, OutOfDomain, TaylorGreenField, TtpsimError
from ttpsim.fields.analytic import _DQ_SERIES


def _taylor_green(self, r, t, full):
    A, k, nu = self.A, self.k, self.nu
    x, y, z = r[0], r[1], r[2]
    F = math.exp(min(-2.0 * nu * k * k * t, 709.0)) if nu > 0.0 else 1.0
    F2 = F * F
    if not math.isfinite(F2):
        raise OutOfDomain(f"Taylor-Green decay factor F(t)^2 is not finite at t = {t!r}")
    try:
        sx, cx = math.sin(k * x), math.cos(k * x)
        sy, cy = math.sin(k * y), math.cos(k * y)
        sz, cz = math.sin(k * z), math.cos(k * z)
    except ValueError:
        raise OutOfDomain("Taylor-Green phase k r is not finite at "
                          f"r = {(float(x), float(y), float(z))}") from None
    s2x, c2x = 2.0 * sx * cx, 1.0 - 2.0 * sx * sx
    s2y, c2y = 2.0 * sy * cy, 1.0 - 2.0 * sy * sy
    s2z, c2z = 2.0 * sz * cz, 1.0 - 2.0 * sz * sz
    AF = A * F
    w = A * A / 16.0 * F2
    czz = c2z + 2.0
    cxy = c2x + c2y
    p1 = self.p0 + w * (czz * cxy - 2.0)
    kw2 = 2.0 * k * w
    gx, gy, gz = -kw2 * s2x * czz, -kw2 * s2y * czz, -kw2 * s2z * cxy
    kw4 = 4.0 * k * k * w
    lam = -4.0 * nu * k * k
    kin = (AF * sx * cy * cz, -AF * cx * sy * cz, 0.0, p1, gx, gy, gz,
           -kw4 * c2x * czz, 0.0, kw4 * s2x * s2z,
           -kw4 * c2y * czz, kw4 * s2y * s2z, -kw4 * c2z * cxy,
           lam * gx, lam * gy, lam * gz)
    if not full:
        return kin
    Ak = A * k * F
    return kin, (Ak * cx * cy * cz, Ak * sx * sy * cz, 0.0,
                 -Ak * sx * sy * cz, -Ak * cx * cy * cz, 0.0,
                 -Ak * sx * cy * sz, Ak * cx * sy * sz, 0.0)


def _q(self, s):
    a = self.rc * self.rc
    if s > 1e-6 * a:
        return -math.expm1(-s / a) / s
    sa = s / a
    return (1.0 - sa * (0.5 - sa * (1.0 / 6.0 - sa / 24.0))) / a


def _dq(self, s):
    a = self.rc * self.rc
    if s > 0.5 * a:
        E = math.exp(-s / a)
        return (s * E / a - (1.0 - E)) / (s * s)
    x, dq = s / a, 0.0
    for c in _DQ_SERIES:
        dq = dq * x + c
    return dq / (a * a)


def _lamb_oseen(self, r, t, full):
    x, y = r[0], r[1]
    s = x * x + y * y
    G = self.Gamma / (2.0 * math.pi)
    q = _q(self, s)
    a = self.rc * self.rc
    E = math.exp(-s / a)
    p1 = self.p0 - self.pa * E
    w = 2.0 * self.pa * E / a
    dw = -w / a
    kin = (-G * q * y, G * q * x, self.W, p1, w * x, w * y, 0.0,
           w + 2.0 * x * x * dw, 2.0 * x * y * dw, 0.0,
           w + 2.0 * y * y * dw, 0.0, 0.0, 0.0, 0.0, 0.0)
    if not full:
        return kin
    dq = _dq(self, s)
    dqx, dqy = 2.0 * x * dq, 2.0 * y * dq
    return kin, (-G * dqx * y, G * (q + dqx * x), 0.0,
                 -G * (q + dqy * y), G * dqy * x, 0.0,
                 0.0, 0.0, 0.0)


def _outcome(kernel, r, t, full):
    """repr of what ``kernel`` returns, or the name and message of the error it raises."""
    try:
        return repr(kernel(r, t, full))
    except TtpsimError as err:
        return f"{type(err).__name__}: {err}"


def _box_points(provider, count, seed):
    lo, hi = provider.reference_box
    return [tuple(p) for p in np.random.default_rng(seed).uniform(lo, hi, (count, 3)).tolist()]


def _assert_pinned(provider, reference, points, times):
    for r, t, full in itertools.product(points, times, (False, True)):
        want = _outcome(lambda *a: reference(provider, *a), r, t, full)
        assert _outcome(provider._fields, r, t, full) == want, (r, t, full)


TIMES = (0.0, 1e-300, -1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan)
NOT_FINITE = [(math.inf, 0.0, 0.0), (0.0, math.nan, 1.0), (1e308, 2.0, 3.0), (0.5, 0.5, -math.inf)]


@pytest.mark.parametrize("shape", [dict(), dict(A=-0.7, k=2.5, p0=0.4),
                                   dict(A=3.0, k=1e-3, p0=5.0)],
                         ids=["default", "negative_A", "small_k"])
@pytest.mark.parametrize("nu", [0.0, -0.0, 0.13, 1e160])
def test_taylor_green_kernel_is_pinned(nu, shape):
    # random points of the reference box, and points whose phase k r is not finite; at
    # the later times -2 nu k^2 t is large, so F(t) shows any change in its last bit
    prov = TaylorGreenField(nu=nu, **shape)
    _assert_pinned(prov, _taylor_green, _box_points(prov, 40, seed=11) + NOT_FINITE,
                   TIMES + (0.25, -1e-5, 3.0, 37.0, 400.0, 3e8))


def test_taylor_green_decay_overflow_is_raised_before_the_phase():
    # at a t where F(t)^2 overflows and an r whose phase is not finite, the decay
    # factor's error is the one raised
    prov = TaylorGreenField(nu=1e160)
    for r, t in itertools.product(NOT_FINITE, (-1e-5, -math.inf, math.nan)):
        for full in (False, True):
            with pytest.raises(OutOfDomain, match=r"F\(t\)\^2 is not finite"):
                prov._fields(r, t, full)
    with pytest.raises(OutOfDomain, match="phase k r is not finite"):
        prov._fields(NOT_FINITE[0], 1.0, True)


@pytest.mark.parametrize("params", [
    dict(),
    dict(Gamma=-2.5, rc=1.5, W=0.25, p0=3.5, pa=0.125),
    dict(Gamma=3.0, rc=8.64e-78, W=-0.0, pa=0.0),
    dict(Gamma=0.1, rc=4.74e153),
], ids=["default", "negative_Gamma", "smallest_rc", "largest_rc"])
def test_lamb_oseen_kernel_is_pinned(params):
    # random points of the reference box, the axis, and both sides of the q and dq/ds
    # series switches
    prov = LambOseenField(**params)
    a = prov.rc * prov.rc
    near_axis = [(math.sqrt(f * a), 0.0, 0.5 * prov.rc)
                 for f in (0.0, 5e-7, 1e-6, 1.01e-6, 0.499, 0.5, 0.501, 4.0)]
    near_axis += [(-0.0, 0.0, 0.0), (0.0, -0.0, 1.0)]
    _assert_pinned(prov, _lamb_oseen, _box_points(prov, 40, seed=12) + near_axis,
                   (0.0, -1e300, math.inf, math.nan))
