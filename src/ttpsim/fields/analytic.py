"""Built-in analytic field providers.

Velocity fields follow standard benchmark forms.  Kinetic-pressure fields
are chosen per provider as smooth positive scalars with an almost-everywhere
nonvanishing gradient; the particle dynamics only consume p1hat through its
gradient direction and the thermal speed, so any such choice is admissible.
Each provider documents its own choice.
"""

import math

import numpy as np

from ..errors import ValidationError
from . import FieldProvider

_Z3 = np.zeros(3)
_Z33 = np.zeros((3, 3))


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
        self.V0 = np.array((V0x, V0y, V0z), dtype=float)
        self.p0 = float(p0)

    def _fields(self, r, t, full):
        V = self.V0
        kin = (V[0], V[1], V[2], self.p0, 0.0, 0.0, 0.0,
               0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return (kin, _Z33.copy(), _Z3.copy()) if full else kin


class UniformGradientField(FieldProvider):
    """Constant velocity with a spatially linear pressure.

    V = (V0x, V0y, V0z) and p1hat = p0 + g . r with g = (gx, gy, gz), so
    grad p1hat is the constant vector g and both the Hessian and the time
    derivative vanish.  The domain is clipped to the box where p1hat stays
    positive.
    """

    name = "uniform_gradient"

    def __init__(self, V0x=1.0, V0y=0.0, V0z=0.0, p0=2.0, gx=0.0, gy=0.0, gz=1.0):
        self.V0 = np.array((V0x, V0y, V0z), dtype=float)
        self.p0 = float(p0)
        self.g = np.array((gx, gy, gz), dtype=float)
        gnorm = float(np.linalg.norm(self.g))
        if gnorm <= 0.0:
            raise ValidationError("g must be a nonzero vector")
        if p0 <= 0.0:
            raise ValidationError("p0 must be > 0")
        # p1hat >= p0/2 everywhere inside the box |r|_inf <= L
        L = self.p0 / (2.0 * math.sqrt(3.0) * gnorm)
        self.domain_bounds = (np.full(3, -L), np.full(3, L))
        self.reference_box = self.domain_bounds

    def _fields(self, r, t, full):
        self._require_inside(np.asarray(r, dtype=float))
        V, g = self.V0, self.g
        p1 = self.p0 + g[0] * r[0] + g[1] * r[1] + g[2] * r[2]
        kin = (V[0], V[1], V[2], p1, g[0], g[1], g[2],
               0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return (kin, _Z33.copy(), _Z3.copy()) if full else kin


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
        gradV = np.array(((0.0, om, 0.0), (-om, 0.0, 0.0), (0.0, 0.0, 0.0)))
        return kin, gradV, np.array((0.0, 0.0, 2.0 * om))


class TaylorGreenField(FieldProvider):
    """Three-dimensional Taylor-Green vortex array, optionally decaying.

    V = A F(t) (sin kx cos ky cos kz, -cos kx sin ky cos kz, 0) with
    F(t) = exp(-2 nu k^2 t); nu = 0 gives the steady variant.  The pressure
    is the classical cellular form shifted to positivity,
    p1hat = p0 + (A^2/16) [(cos 2kz + 2)(cos 2kx + cos 2ky) - 2] F(t)^2,
    which requires p0 > A^2 / 2.
    """

    name = "taylor_green"

    def __init__(self, A=1.0, k=1.0, nu=0.0, p0=1.0):
        if k <= 0.0:
            raise ValidationError("k must be > 0")
        if nu < 0.0:
            raise ValidationError("nu must be >= 0")
        if p0 <= 0.5 * A * A:
            raise ValidationError("p0 must exceed A^2/2 to keep p1hat positive")
        self.A = float(A)
        self.k = float(k)
        self.nu = float(nu)
        self.p0 = float(p0)
        self.time_dependent = self.nu > 0.0
        L = 2.0 * math.pi / self.k
        self.reference_box = (np.zeros(3), np.full(3, L))

    def _fields(self, r, t, full):
        A, k, nu = self.A, self.k, self.nu
        x, y, z = r[0], r[1], r[2]
        F = math.exp(-2.0 * nu * k * k * t) if nu > 0.0 else 1.0
        F2 = F * F
        sx, cx = math.sin(k * x), math.cos(k * x)
        sy, cy = math.sin(k * y), math.cos(k * y)
        sz, cz = math.sin(k * z), math.cos(k * z)
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
        lam = -4.0 * nu * k * k  # d/dt of F^2 divided by F^2
        kin = (AF * sx * cy * cz, -AF * cx * sy * cz, 0.0, p1, gx, gy, gz,
               -kw4 * c2x * czz, 0.0, kw4 * s2x * s2z,
               -kw4 * c2y * czz, kw4 * s2y * s2z, -kw4 * c2z * cxy,
               lam * gx, lam * gy, lam * gz)
        if not full:
            return kin
        Ak = A * k * F
        gradV = np.array((
            (Ak * cx * cy * cz, Ak * sx * sy * cz, 0.0),
            (-Ak * sx * sy * cz, -Ak * cx * cy * cz, 0.0),
            (-Ak * sx * cy * sz, Ak * cx * sy * sz, 0.0),
        ))
        xi = np.array((-Ak * cx * sy * sz, -Ak * sx * cy * sz, 2.0 * Ak * sx * sy * cz))
        return kin, gradV, xi


class LambOseenField(FieldProvider):
    """Gaussian-core line vortex with a uniform axial velocity.

    V_phi(rho) = Gamma / (2 pi rho) (1 - exp(-rho^2 / rc^2)), V_z = W.
    The azimuthal profile is smooth through the axis.  The pressure is a
    Gaussian well of depth pa on the same core scale,
    p1hat = p0 - pa exp(-rho^2 / rc^2), requiring 0 <= pa < p0; its gradient
    is radial and vanishes only on the axis (and asymptotically far away).
    """

    name = "lamb_oseen"

    def __init__(self, Gamma=1.0, rc=1.0, W=0.5, p0=1.0, pa=0.5):
        if rc <= 0.0:
            raise ValidationError("rc must be > 0")
        if not 0.0 <= pa < p0:
            raise ValidationError("need 0 <= pa < p0 for positive pressure")
        self.Gamma = float(Gamma)
        self.rc = float(rc)
        self.W = float(W)
        self.p0 = float(p0)
        self.pa = float(pa)
        L = 2.0 * self.rc
        self.reference_box = (np.array((-L, -L, -L)), np.array((L, L, L)))

    def _q(self, s):
        """(1 - exp(-s/rc^2)) / s and its derivative, smooth through s = 0."""
        a = self.rc * self.rc
        if s > 1e-6 * a:
            E = math.exp(-s / a)
            q = -math.expm1(-s / a) / s
            dq = (s * E / a - (1.0 - E)) / (s * s)
        else:
            # series in s/a; relative truncation error below 1e-24 here
            sa = s / a
            q = (1.0 - sa * (0.5 - sa * (1.0 / 6.0 - sa / 24.0))) / a
            dq = (-0.5 + sa * (1.0 / 3.0 - sa * 0.125)) / (a * a)
        return q, dq

    def _fields(self, r, t, full):
        x, y = r[0], r[1]
        s = x * x + y * y
        G = self.Gamma / (2.0 * math.pi)
        q, dq = self._q(s)
        a = self.rc * self.rc
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
        dqx, dqy = 2.0 * x * dq, 2.0 * y * dq
        gradV = np.array((
            (-G * dqx * y, G * (q + dqx * x), 0.0),
            (-G * (q + dqy * y), G * dqy * x, 0.0),
            (0.0, 0.0, 0.0),
        ))
        xi = np.array((0.0, 0.0, G * (2.0 * q + dqx * x + dqy * y)))
        return kin, gradV, xi


PROVIDERS = {cls.name: cls for cls in (UniformField, UniformGradientField,
                                       RigidRotationField, TaylorGreenField,
                                       LambOseenField)}
