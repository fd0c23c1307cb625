"""Prescribed fluid fields: the provider contract and its derivative audit.

A field provider evaluates, at any admissible (r, t), the full set of local
fluid data the particle kinetics consume: velocity and its gradient,
vorticity, the normalized kinetic pressure p1hat (units length^2/time^2)
and its gradient, Hessian and time-differentiated gradient.  Each provider
writes that math once, in one kernel ``_fields``; :class:`FieldProvider`
builds ``sample`` and ``sample_kinetic`` on top of it.  Providers are
immutable after construction and the kernel is a pure function, so instances
may be shared freely across threads.  The one mutable state is the grid
provider's cache of per-cell Bezier rows, a thread-safe ``functools.lru_cache``;
no result depends on what it holds.  The registry of named providers lives in
``fields.analytic``, next to them: this module imports no provider.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import OutOfDomain


@dataclass(slots=True)
class FluidSample:
    """All local fluid-field data at one (r, t), as the kernel returned it.

    ``kin`` is the flat tuple of :meth:`FieldProvider.sample_kinetic` and
    ``dV`` the nine entries of gradV, row by row.  The array attributes are
    built from them when read, so the Hessian is symmetric and ``xi`` is the
    curl of gradV by construction.

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

    kin: tuple
    dV: tuple

    @property
    def V(self):
        return np.array(self.kin[0:3])

    @property
    def gradV(self):
        d = self.dV
        return np.array((d[0:3], d[3:6], d[6:9]))

    @property
    def xi(self):
        d = self.dV
        return np.array((d[5] - d[7], d[6] - d[2], d[1] - d[3]))

    @property
    def p1hat(self):
        return self.kin[3]

    @property
    def grad_p1hat(self):
        return np.array(self.kin[4:7])

    @property
    def hess_p1hat(self):
        Hxx, Hxy, Hxz, Hyy, Hyz, Hzz = self.kin[7:13]
        return np.array(((Hxx, Hxy, Hxz), (Hxy, Hyy, Hyz), (Hxz, Hyz, Hzz)))

    @property
    def dt_grad_p1hat(self):
        return np.array(self.kin[13:16])


class FieldProvider:
    """Base class for field providers.

    Subclasses set ``name``, ``time_dependent``, ``domain_bounds`` (None for
    unbounded, else a ``(lo, hi)`` pair of (3,) arrays) and implement one
    kernel, :meth:`_fields`; ``sample`` and ``sample_kinetic`` are defined
    here on top of it.  ``reference_box`` is a finite box used by
    verification sweeps to draw sample points when the domain itself is
    unbounded.  A provider's parameters are its constructor's keyword
    arguments (see ``fields.analytic.provider_parameters``).
    """

    name = "provider"
    time_dependent = False
    domain_bounds = None
    reference_box = (np.array((-1.0, -1.0, -1.0)), np.array((1.0, 1.0, 1.0)))

    def _fields(self, r, t, full):
        """The provider's one field kernel.

        ``r`` is a sequence of three floats.  Returns the flat tuple of
        :meth:`sample_kinetic`; with ``full`` true it returns ``(that tuple,
        dV)`` with dV the nine entries of gradV, row by row, as a tuple.
        """
        raise NotImplementedError

    def sample(self, r, t):
        """All local fluid data at (r, t) as a :class:`FluidSample`; a tuple ``r`` skips numpy."""
        x, y, z = r if type(r) is tuple else np.asarray(r, dtype=float).tolist()
        return FluidSample(*self._fields((float(x), float(y), float(z)), t, True))

    def sample_kinetic(self, r, t):
        """Flat scalar tuple of the fields the trajectory stepper consumes.

        Returns (Vx, Vy, Vz, p1hat, gx, gy, gz, Hxx, Hxy, Hxz, Hyy, Hyz,
        Hzz, dgx, dgy, dgz) where g is grad_p1hat, H its Hessian and dg its
        time derivative.  ``r`` is a sequence of three floats; no
        :class:`FluidSample` is built (the integrator hot loop calls this
        three times per step).
        """
        return self._fields(r, t, False)

    def _require_inside(self, r, margin=0.0):
        """Raise OutOfDomain unless lo + margin <= r <= hi - margin on each axis; NaN is out."""
        if self.domain_bounds is None:
            return
        lo, hi = self.domain_bounds
        if not all(a + margin <= x <= b - margin for x, a, b in zip(r, lo.tolist(), hi.tolist())):
            raise OutOfDomain(
                f"position {tuple(float(c) for c in r)} outside domain bounds "
                f"lo={tuple(float(c) for c in lo)} hi={tuple(float(c) for c in hi)}"
                + (f" with margin {margin}" if margin else "")
            )


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
    provider._require_inside(r, margin=2.0 * h)
    E = h * _AXES  # E[i] = h e_i

    def p(x, tt=t):
        return provider.sample(x, tt).p1hat

    plus = [provider.sample(r + e, t) for e in E]
    minus = [provider.sample(r - e, t) for e in E]
    s = provider.sample(r, t)
    grad_v = np.array([(a.V - b.V) / (2.0 * h) for a, b in zip(plus, minus)])
    grad_p = np.array([(a.p1hat - b.p1hat) / (2.0 * h) for a, b in zip(plus, minus)])
    hess = np.diag([(a.p1hat - 2.0 * s.p1hat + b.p1hat) / (h * h) for a, b in zip(plus, minus)])
    for i, j in ((0, 1), (0, 2), (1, 2)):
        hess[i, j] = hess[j, i] = (p(r + E[i] + E[j]) - p(r + E[i] - E[j]) - p(r - E[i] + E[j])
                                   + p(r - E[i] - E[j])) / (4.0 * h * h)
    # mixed space-time stencil for d/dt grad_p1hat, values only
    dt_grad = np.array([(p(r + e, t + h) - p(r - e, t + h) - p(r + e, t - h) + p(r - e, t - h))
                        / (4.0 * h * h) for e in E])

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
