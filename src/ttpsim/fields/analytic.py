"""Built-in analytic field providers.

Velocity fields follow standard benchmark forms.  Kinetic-pressure fields
are chosen per provider as smooth positive scalars with an almost-everywhere
nonvanishing gradient; the particle dynamics only consume p1hat through its
gradient direction and the thermal speed, so any such choice is admissible.
Each provider documents its own choice.  ``PROVIDERS`` is the provider registry;
it backs :func:`create_provider` and :func:`provider_parameters`.
"""

import inspect
import math

import numpy as np

from ..errors import NotFound, OutOfDomain, ValidationError, check_real
from . import FieldProvider

_ZERO_DV = (0.0,) * 9
# Lamb-Oseen dq/ds times rc^4 in x = s/rc^2: (-1)^(k+1) (k+1)/(k+2)! x^k for k < 18,
# highest first; at x = 1/2 the first omitted term is below 1e-22 of the sum
_DQ_SERIES = tuple((-1) ** (k + 1) * (k + 1) / math.factorial(k + 2) for k in range(17, -1, -1))


class UniformField(FieldProvider):
    """Constant velocity V0 = (V0x, V0y, V0z), constant pressure p0.

    The pressure gradient vanishes identically, so the isobaric normal is
    degenerate everywhere; particles translate in straight lines with a
    frozen direction vector.
    """

    name = "uniform"

    def __init__(self, V0x=1.0, V0y=0.0, V0z=0.0, p0=0.5):
        if p0 < 0.0:
            raise ValidationError("p0 must be >= 0")
        self.V0 = (float(V0x), float(V0y), float(V0z))
        self.p0 = float(p0)
        self._kin = self.V0 + (self.p0,) + (0.0,) * 12  # the same at every (r, t)

    def _fields(self, r, t, full):
        return (self._kin, _ZERO_DV) if full else self._kin


class UniformGradientField(FieldProvider):
    """Constant velocity with a spatially linear pressure.

    V = (V0x, V0y, V0z) and p1hat = p0 + g . r with g = (gx, gy, gz), so
    grad p1hat is the constant vector g and both the Hessian and the time
    derivative vanish.  The domain is clipped to the box where p1hat stays
    positive.
    """

    name = "uniform_gradient"

    def __init__(self, V0x=1.0, V0y=0.0, V0z=0.0, p0=2.0, gx=0.0, gy=0.0, gz=1.0):
        self.V0 = (float(V0x), float(V0y), float(V0z))
        self.p0 = float(p0)
        self.g = (float(gx), float(gy), float(gz))
        x, y, z = self.g
        gnorm = math.sqrt(x * x + y * y + z * z)  # inf where |g|^2 overflows
        if not 0.0 < gnorm < math.inf:
            raise ValidationError(f"|g| = {gnorm:g} must be nonzero and finite")
        if p0 <= 0.0:
            raise ValidationError("p0 must be > 0")
        # p1hat >= p0/2 everywhere inside the box |r|_inf <= L
        L = self.p0 / (2.0 * math.sqrt(3.0) * gnorm)
        self.domain_bounds = (np.full(3, -L), np.full(3, L))
        self.reference_box = self.domain_bounds

    def _fields(self, r, t, full):
        self._require_inside(r)
        gx, gy, gz = self.g
        p1 = self.p0 + gx * r[0] + gy * r[1] + gz * r[2]
        kin = self.V0 + (p1, gx, gy, gz, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return (kin, _ZERO_DV) if full else kin


class RigidRotationField(FieldProvider):
    """Solid-body rotation about the z axis with an axisymmetric pressure.

    V = omega z_hat x r, p1hat = p0 + c (x^2 + y^2) / 2.  The vorticity is
    the constant (0, 0, 2 omega) and the isobaric surfaces are coaxial
    cylinders, so the pressure gradient is radial and vanishes only on the
    axis.
    """

    name = "rigid_rotation"
    reference_box = (np.array((-2.0, -2.0, -1.0)), np.array((2.0, 2.0, 1.0)))

    def __init__(self, omega=1.0, p0=0.5, c=1.0):
        if p0 < 0.0:
            raise ValidationError("p0 must be >= 0")
        if c <= 0.0:
            raise ValidationError("c must be > 0")
        self.omega = float(omega)
        self.p0 = float(p0)
        self.c = float(c)

    def _fields(self, r, t, full):
        x, y = r[0], r[1]
        om, c = self.omega, self.c
        p1 = self.p0 + 0.5 * c * (x * x + y * y)
        kin = (-om * y, om * x, 0.0, p1, c * x, c * y, 0.0,
               c, 0.0, 0.0, c, 0.0, 0.0, 0.0, 0.0, 0.0)
        if not full:
            return kin
        return kin, (0.0, om, 0.0, -om, 0.0, 0.0, 0.0, 0.0, 0.0)


class TaylorGreenField(FieldProvider):
    """Three-dimensional Taylor-Green vortex array, optionally decaying.

    V = A F(t) (sin kx cos ky cos kz, -cos kx sin ky cos kz, 0) with
    F(t) = exp(-2 nu k^2 t); nu = 0 gives the steady variant.  The pressure
    is the classical cellular form shifted to positivity,
    p1hat = p0 + (A^2/16) [(cos 2kz + 2)(cos 2kx + cos 2ky) - 2] F(t)^2,
    which requires p0 > A^2 / 2.  Sampling where F(t)^2 is not finite (t < 0
    with a large nu), or where a phase k x, k y or k z is not finite (a huge
    k or r, or an r that is not finite), raises OutOfDomain.
    """

    name = "taylor_green"

    def __init__(self, A=1.0, k=1.0, nu=0.0, p0=1.0):
        A, k, nu, p0 = map(check_real, ("A", "k", "nu", "p0"), (A, k, nu, p0))
        if k <= 0.0:
            raise ValidationError("k must be > 0")
        if nu < 0.0:
            raise ValidationError("nu must be >= 0")
        if p0 <= 0.5 * A * A:
            raise ValidationError("p0 must exceed A^2/2 to keep p1hat positive")
        self.A, self.k, self.nu, self.p0 = A, k, nu, p0
        self.time_dependent = nu > 0.0
        L = 2.0 * math.pi / k
        if L == math.inf:
            raise ValidationError(f"k = {k:g} is too small: its period 2 pi / k overflows")
        self.reference_box = (np.zeros(3), np.full(3, L))
        # the parameter-only left operands of _time_factors' products: a product is taken
        # left to right, so (2.0 * k) * w is 2.0 * k * w bit for bit.  A steady field's
        # time factors are computed once; None: at each sample
        self._c = (-2.0 * nu * k * k, A * A / 16.0, 2.0 * k, 4.0 * k * k, -4.0 * nu * k * k, A * k)
        self._steady = None if self.time_dependent else self._time_factors(0.0)

    def _time_factors(self, t):
        """(A F, w, 2 k w, 4 k^2 w, lam, A k F) at t, with F = F(t) (1 where nu = 0),
        w = (A^2/16) F^2 and lam = -4 nu k^2, the rate of F^2 over F^2.  OutOfDomain
        where F(t)^2 is not finite."""
        d, A16, k2, k4, lam, Ak = self._c
        F = math.exp(min(d * t, 709.0)) if self.time_dependent else 1.0
        F2 = F * F
        if not math.isfinite(F2):
            raise OutOfDomain(f"Taylor-Green decay factor F(t)^2 is not finite at t = {t!r}")
        w = A16 * F2
        return self.A * F, w, k2 * w, k4 * w, lam, Ak * F

    def _fields(self, r, t, full):
        AF, w, kw2, kw4, lam, Ak = self._steady or self._time_factors(t)
        k = self.k
        x, y, z = r[0], r[1], r[2]
        try:
            sx, cx = math.sin(k * x), math.cos(k * x)
            sy, cy = math.sin(k * y), math.cos(k * y)
            sz, cz = math.sin(k * z), math.cos(k * z)
        except ValueError:  # math.sin(inf)
            raise OutOfDomain("Taylor-Green phase k r is not finite at "
                              f"r = {(float(x), float(y), float(z))}") from None
        s2x, c2x = 2.0 * sx * cx, 1.0 - 2.0 * sx * sx
        s2y, c2y = 2.0 * sy * cy, 1.0 - 2.0 * sy * sy
        s2z, c2z = 2.0 * sz * cz, 1.0 - 2.0 * sz * sz
        czz = c2z + 2.0
        cxy = c2x + c2y
        p1 = self.p0 + w * (czz * cxy - 2.0)
        gx, gy, gz = -kw2 * s2x * czz, -kw2 * s2y * czz, -kw2 * s2z * cxy
        kin = (AF * sx * cy * cz, -AF * cx * sy * cz, 0.0, p1, gx, gy, gz,
               -kw4 * c2x * czz, 0.0, kw4 * s2x * s2z,
               -kw4 * c2y * czz, kw4 * s2y * s2z, -kw4 * c2z * cxy,
               lam * gx, lam * gy, lam * gz)
        if not full:
            return kin
        return kin, (Ak * cx * cy * cz, Ak * sx * sy * cz, 0.0,
                     -Ak * sx * sy * cz, -Ak * cx * cy * cz, 0.0,
                     -Ak * sx * cy * sz, Ak * cx * sy * sz, 0.0)


class LambOseenField(FieldProvider):
    """Gaussian-core line vortex with a uniform axial velocity.

    V_phi(rho) = Gamma / (2 pi rho) (1 - exp(-rho^2 / rc^2)), V_z = W.
    The azimuthal profile is smooth through the axis.  The pressure is a
    Gaussian well of depth pa on the same core scale,
    p1hat = p0 - pa exp(-rho^2 / rc^2), requiring 0 <= pa < p0; its gradient
    is radial and vanishes only on the axis (and asymptotically far away).
    The profile's derivative and the Hessian grow as 1/rc^4 near the axis,
    and the reference box's corners reach x^2 + y^2 = 8 rc^2, so rc is
    limited to about [8.64e-78, 4.74e153], where both are finite.
    """

    name = "lamb_oseen"

    def __init__(self, Gamma=1.0, rc=1.0, W=0.5, p0=1.0, pa=0.5):
        Gamma, W, p0, pa = map(check_real, ("Gamma", "W", "p0", "pa"), (Gamma, W, p0, pa))
        if rc <= 0.0:
            raise ValidationError("rc must be > 0")
        rc = float(rc)
        a = rc * rc
        if not (math.isfinite(8.0 * a) and a * a > 0.0 and math.isfinite(1.0 / (a * a))):
            raise ValidationError(f"rc = {rc:g} is outside about [8.64e-78, 4.74e153], "
                                  "where 1/rc^4 and 8 rc^2 are finite")
        if not 0.0 <= pa < p0:
            raise ValidationError("need 0 <= pa < p0 for positive pressure")
        self.Gamma, self.rc, self.W, self.p0, self.pa = Gamma, rc, W, p0, pa
        self._G, self._a = Gamma / (2.0 * math.pi), a  # G = Gamma / (2 pi), a = rc^2
        L = 2.0 * rc
        self.reference_box = (np.array((-L, -L, -L)), np.array((L, L, L)))

    def _q(self, s):
        """q(s) = (1 - exp(-s/rc^2)) / s, smooth through s = 0."""
        a = self._a
        if s > 1e-6 * a:
            return -math.expm1(-s / a) / s
        sa = s / a  # series in s/a; relative truncation error below 1e-24 here
        return (1.0 - sa * (0.5 - sa * (1.0 / 6.0 - sa / 24.0))) / a

    def _dq(self, s):
        """dq/ds.  Up to s = rc^2 / 2, where the closed form's numerator cancels
        to about (s/rc^2)^2 / 2, it is a Horner series in s/rc^2 instead."""
        a = self._a
        if s > 0.5 * a:
            E = math.exp(-s / a)
            return (s * E / a - (1.0 - E)) / (s * s)
        x, dq = s / a, 0.0
        for c in _DQ_SERIES:
            dq = dq * x + c
        return dq / (a * a)

    def _fields(self, r, t, full):
        x, y = r[0], r[1]
        s = x * x + y * y
        G, a = self._G, self._a
        q = self._q(s)
        E = math.exp(-s / a)
        p1 = self.p0 - self.pa * E
        w = 2.0 * self.pa * E / a
        dw = -w / a  # dw/ds
        # V = G * q(s) * (-y, x, 0) + W z_hat
        kin = (-G * q * y, G * q * x, self.W, p1, w * x, w * y, 0.0,
               w + 2.0 * x * x * dw, 2.0 * x * y * dw, 0.0,
               w + 2.0 * y * y * dw, 0.0, 0.0, 0.0, 0.0, 0.0)
        if not full:
            return kin
        dq = self._dq(s)
        dqx, dqy = 2.0 * x * dq, 2.0 * y * dq
        return kin, (-G * dqx * y, G * (q + dqx * x), 0.0,
                     -G * (q + dqy * y), G * dqy * x, 0.0,
                     0.0, 0.0, 0.0)


PROVIDERS = {cls.name: cls for cls in (UniformField, UniformGradientField,
                                       RigidRotationField, TaylorGreenField,
                                       LambOseenField)}


def _provider_class(name):
    try:
        return PROVIDERS[name]
    except KeyError:
        raise NotFound(f"no provider registered under name {name!r}") from None


def provider_parameters(name):
    """Parameter names and defaults of a registered provider.  Raises NotFound."""
    return {p.name: p.default for p in inspect.signature(_provider_class(name)).parameters.values()}


def create_provider(name, **params):
    """Instantiate a registered provider with keyword parameters."""
    return _provider_class(name)(**params)
