"""Prescribed fluid fields.

A field provider evaluates, at any admissible (r, t), the full set of local
fluid data the particle kinetics consume: velocity and its gradient,
vorticity, the normalized kinetic pressure p1hat (units length^2/time^2)
and its gradient, Hessian and time-differentiated gradient.  Each provider
writes that math once, in one kernel ``_fields``; :class:`FieldProvider`
builds ``sample`` and ``sample_kinetic`` on top of it.  Providers are
immutable after construction and the kernel is a pure function, so instances
may be shared freely across threads.
"""

import inspect
from dataclasses import dataclass

import numpy as np

from ..errors import NotFound, OutOfDomain

EPS_GRAD_DEFAULT = 1e-10


@dataclass(slots=True)
class FluidSample:
    """All local fluid-field data at one (r, t).

    Attributes
    ----------
    V : (3,) ndarray
        Fluid velocity.
    gradV : (3, 3) ndarray
        Velocity gradient, ``gradV[i, j] = dV_j/dx_i``.
    xi : (3,) ndarray
        Vorticity, curl of V.
    p1hat : float
        Normalized kinetic pressure, >= 0.
    grad_p1hat : (3,) ndarray
        Spatial gradient of p1hat.
    hess_p1hat : (3, 3) ndarray
        Symmetric Hessian of p1hat.
    dt_grad_p1hat : (3,) ndarray
        Time derivative of grad_p1hat.
    """

    V: np.ndarray
    gradV: np.ndarray
    xi: np.ndarray
    p1hat: float
    grad_p1hat: np.ndarray
    hess_p1hat: np.ndarray
    dt_grad_p1hat: np.ndarray

    def curl_from_gradV(self):
        """Vorticity recomputed from the antisymmetric part of gradV."""
        g = self.gradV
        return np.array((g[1, 2] - g[2, 1], g[2, 0] - g[0, 2], g[0, 1] - g[1, 0]))

    def check(self, rtol=1e-12):
        """Raise AssertionError if the sample violates its own invariants."""
        scale = max(float(np.max(np.abs(self.gradV))), 1e-300)
        if not np.max(np.abs(self.xi - self.curl_from_gradV())) <= rtol * max(scale, 1.0):
            raise AssertionError("xi inconsistent with gradV")
        h = self.hess_p1hat
        hscale = max(float(np.max(np.abs(h))), 1e-300)
        if not np.max(np.abs(h - h.T)) <= rtol * max(hscale, 1.0):
            raise AssertionError("Hessian not symmetric")
        if not self.p1hat >= 0.0:
            raise AssertionError("negative kinetic pressure")

    def kinetic(self):
        """The flat tuple of :meth:`FieldProvider.sample_kinetic`, as Python floats."""
        (Vx, Vy, Vz), (gx, gy, gz) = self.V.tolist(), self.grad_p1hat.tolist()
        (Hxx, Hxy, Hxz), (_, Hyy, Hyz), (_, _, Hzz) = self.hess_p1hat.tolist()
        dgx, dgy, dgz = self.dt_grad_p1hat.tolist()
        return (Vx, Vy, Vz, float(self.p1hat), gx, gy, gz,
                Hxx, Hxy, Hxz, Hyy, Hyz, Hzz, dgx, dgy, dgz)

    @classmethod
    def from_kinetic(cls, kin, gradV, xi):
        """Sample from a flat kinetic tuple plus the velocity gradient and vorticity."""
        (Vx, Vy, Vz, p1, gx, gy, gz,
         Hxx, Hxy, Hxz, Hyy, Hyz, Hzz, dgx, dgy, dgz) = kin
        return cls(np.array((Vx, Vy, Vz)), gradV, xi, p1, np.array((gx, gy, gz)),
                   np.array(((Hxx, Hxy, Hxz), (Hxy, Hyy, Hyz), (Hxz, Hyz, Hzz))),
                   np.array((dgx, dgy, dgz)))


class FieldProvider:
    """Base class for field providers.

    Subclasses set ``name``, ``time_dependent``, ``domain_bounds`` (None for
    unbounded, else a ``(lo, hi)`` pair of (3,) arrays) and implement one
    kernel, :meth:`_fields`; ``sample`` and ``sample_kinetic`` are defined
    here on top of it.  ``reference_box`` is a finite box used by
    verification sweeps to draw sample points when the domain itself is
    unbounded.  A provider's parameters are its constructor's keyword
    arguments (see :func:`provider_parameters`).
    """

    name = "provider"
    time_dependent = False
    domain_bounds = None
    reference_box = (np.array((-1.0, -1.0, -1.0)), np.array((1.0, 1.0, 1.0)))

    def _fields(self, r, t, full):
        """The provider's one field kernel.

        ``r`` is a sequence of three floats.  Returns the flat tuple of
        :meth:`sample_kinetic`; with ``full`` true it returns ``(that tuple,
        gradV, xi)`` with gradV a (3, 3) and xi a (3,) array.
        """
        raise NotImplementedError

    def sample(self, r, t):
        """All local fluid data at (r, t) as a :class:`FluidSample`."""
        return FluidSample.from_kinetic(
            *self._fields(np.asarray(r, dtype=float).tolist(), t, True))

    def sample_kinetic(self, r, t):
        """Flat scalar tuple of the fields the trajectory stepper consumes.

        Returns (Vx, Vy, Vz, p1hat, gx, gy, gz, Hxx, Hxy, Hxz, Hyy, Hyz,
        Hzz, dgx, dgy, dgz) where g is grad_p1hat, H its Hessian and dg its
        time derivative.  ``r`` is a sequence of three floats; no
        :class:`FluidSample` is built (the integrator hot loop calls this
        three times per step).
        """
        return self._fields(r, t, False)

    def contains(self, r, margin=0.0):
        """True if r lies inside the domain (shrunk by margin on each side)."""
        if self.domain_bounds is None:
            return True
        lo, hi = self.domain_bounds
        return bool(np.all(r >= lo + margin) and np.all(r <= hi - margin))

    def _require_inside(self, r, margin=0.0):
        if not self.contains(r, margin):
            lo, hi = self.domain_bounds
            raise OutOfDomain(
                f"position {tuple(float(c) for c in r)} outside domain bounds "
                f"lo={tuple(float(c) for c in lo)} hi={tuple(float(c) for c in hi)}"
                + (f" with margin {margin}" if margin else "")
            )


# --- registry -------------------------------------------------------------

def _provider_class(name):
    from .analytic import PROVIDERS  # analytic imports this module

    try:
        return PROVIDERS[name]
    except KeyError:
        raise NotFound(f"no provider registered under name {name!r}") from None


def provider_parameters(name):
    """Parameter names and defaults of a registered provider.  Raises NotFound."""
    return {p.name: p.default
            for p in inspect.signature(_provider_class(name)).parameters.values()}


def create_provider(name, **params):
    """Instantiate a registered provider with keyword parameters."""
    return _provider_class(name)(**params)


# --- finite-difference derivative audit ------------------------------------

_AXES = np.eye(3)


@dataclass(slots=True)
class DerivativeResiduals:
    """Relative residuals between provider derivatives and central differences.

    Each residual is ``max|provided - estimated|`` scaled by the larger of
    the two magnitudes; the three pressure-derivative residuals share a
    common magnitude anchor (the largest of their scales) so that an exactly
    zero derivative compared against pure difference noise does not read as
    a 100% mismatch.  Residuals are zero when everything vanishes.
    """

    grad_v: float
    grad_p1hat: float
    hess_p1hat: float
    dt_grad_p1hat: float
    h: float
    note: str = ""

    @property
    def max_residual(self):
        return max(self.grad_v, self.grad_p1hat, self.hess_p1hat, self.dt_grad_p1hat)

    def to_text(self):
        lines = [
            f"derivative audit (central differences, h={self.h:g})",
            f"  gradV         {self.grad_v:.3e}",
            f"  grad_p1hat    {self.grad_p1hat:.3e}",
            f"  hess_p1hat    {self.hess_p1hat:.3e}",
            f"  dt_grad_p1hat {self.dt_grad_p1hat:.3e}",
            f"  max           {self.max_residual:.3e}",
        ]
        if self.note:
            lines.append(f"  note: {self.note}")
        return "\n".join(lines)


def _mag(a):
    return float(np.max(np.abs(a)))


def _rel(est, given, anchor=0.0):
    diff = float(np.max(np.abs(est - given)))
    scale = max(_mag(est), _mag(given), anchor)
    if scale == 0.0:
        return 0.0
    return diff / scale


def fd_verify_derivatives(provider, r, t, h=1e-4):
    """Audit provider derivatives against central differences of sample values.

    Only V and p1hat values from displaced ``sample`` calls enter the
    estimates, so the audit is independent of the provider's own derivative
    code paths.  Requires r to sit more than 2h inside the domain.
    """
    r = np.asarray(r, dtype=float)
    if provider.domain_bounds is not None:
        provider._require_inside(r, margin=2.0 * h)

    def value(rr, tt):
        s = provider.sample(rr, tt)
        return s.V, s.p1hat

    vp, pp = {}, {}
    for i in range(3):
        vp[(i, +1)], pp[(i, +1)] = value(r + h * _AXES[i], t)
        vp[(i, -1)], pp[(i, -1)] = value(r - h * _AXES[i], t)
    _, p_c = value(r, t)

    grad_v = np.empty((3, 3))
    grad_p = np.empty(3)
    hess = np.empty((3, 3))
    for i in range(3):
        grad_v[i] = (vp[(i, +1)] - vp[(i, -1)]) / (2.0 * h)
        grad_p[i] = (pp[(i, +1)] - pp[(i, -1)]) / (2.0 * h)
        hess[i, i] = (pp[(i, +1)] - 2.0 * p_c + pp[(i, -1)]) / (h * h)
    for i in range(3):
        for j in range(i + 1, 3):
            _, ppp = value(r + h * _AXES[i] + h * _AXES[j], t)
            _, ppm = value(r + h * _AXES[i] - h * _AXES[j], t)
            _, pmp = value(r - h * _AXES[i] + h * _AXES[j], t)
            _, pmm = value(r - h * _AXES[i] - h * _AXES[j], t)
            hess[i, j] = hess[j, i] = (ppp - ppm - pmp + pmm) / (4.0 * h * h)

    # mixed space-time stencil for d/dt grad_p1hat, values only
    dt_grad = np.empty(3)
    for i in range(3):
        _, a = value(r + h * _AXES[i], t + h)
        _, b = value(r - h * _AXES[i], t + h)
        _, c = value(r + h * _AXES[i], t - h)
        _, d = value(r - h * _AXES[i], t - h)
        dt_grad[i] = (a - b - c + d) / (4.0 * h * h)

    s = provider.sample(r, t)
    note = getattr(provider, "interpolation", "")
    if note:
        note = f"interpolation={note}"
    anchor = max(_mag(grad_p), _mag(s.grad_p1hat), _mag(hess), _mag(s.hess_p1hat),
                 _mag(dt_grad), _mag(s.dt_grad_p1hat))
    return DerivativeResiduals(
        grad_v=_rel(grad_v, s.gradV),
        grad_p1hat=_rel(grad_p, s.grad_p1hat, anchor),
        hess_p1hat=_rel(hess, s.hess_p1hat, anchor),
        dt_grad_p1hat=_rel(dt_grad, s.dt_grad_p1hat, anchor),
        h=h,
        note=note,
    )
