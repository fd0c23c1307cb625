"""Constraint system and rotational evolution law for thermal tracer particles.

A particle carries the reduced state (t, r, n, beta): position, a unit
direction vector, and a constant dimensionless factor beta.  Its velocity
relative to the fluid is slaved to the local fields,

    u = beta * v_th * n,      v_th = sqrt(2 * p1hat),

so |u| = beta * v_th holds identically.  The direction n stays tangent to
the local isobaric surface p1hat = const; writing b for the unit normal
grad p1hat / |grad p1hat|, n evolves by rotation,

    dn/dt = Omega x n,        Omega = b x (db/dt),

with db/dt the total rate of change of b following the particle at velocity
V + u.  This Omega keeps n . b constant in exact arithmetic, since
(Omega x n) . b = -(n . db/dt) whenever b . db/dt = 0.

Two routes to Omega are implemented: the direct one above, and a literal
term-by-term decomposition (convective part, tangential-vorticity part,
pressure-velocity part) retained as a diagnostic.  The two disagree by a
finite residual that is reported, never asserted; see ``omega_decomposed``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGradient, NegativePressure
from .fields import EPS_GRAD_DEFAULT


@dataclass(slots=True)
class TtpState:
    """Reduced particle state.

    ``n`` must be a unit vector (the integrator maintains the norm to
    rounding); ``beta`` is constant along a trajectory.
    """

    t: float
    r: np.ndarray
    n: np.ndarray
    beta: float

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.n = np.asarray(self.n, dtype=float)


@dataclass(slots=True)
class StateDerivative:
    dr_dt: np.ndarray
    dn_dt: np.ndarray


@dataclass(slots=True)
class OmegaBreakdown:
    """Omega by both routes plus the decomposition's individual terms."""

    omega_direct: np.ndarray
    omega_decomposed: np.ndarray
    term_convective: np.ndarray
    term_vorticity: np.ndarray
    term_pressure_velocity: np.ndarray
    residual: float


def thermal_velocity(sample):
    """Local thermal speed sqrt(2 * p1hat)."""
    p1 = sample.p1hat
    if p1 < 0.0:
        raise NegativePressure(f"p1hat = {p1:g} < 0")
    return math.sqrt(2.0 * p1)


def isobaric_normal(sample, eps_grad=EPS_GRAD_DEFAULT):
    """Unit normal of the local isobaric surface, or None when degenerate.

    Degeneracy (|grad p1hat| <= eps_grad) is a value, not an error: the
    tangency constraint imposes nothing there.
    """
    g = sample.grad_p1hat
    gn = math.sqrt(g[0] * g[0] + g[1] * g[1] + g[2] * g[2])
    if gn <= eps_grad:
        return None
    return g / gn


def relative_velocity(state, sample):
    """u = beta * v_th * n; |u| = beta * v_th by construction."""
    return (state.beta * thermal_velocity(sample)) * state.n


def isobaric_normal_rate(sample, state, eps_grad=EPS_GRAD_DEFAULT):
    """db/dt along the particle path, projected orthogonal to b.

    With g = grad p1hat, H its Hessian and w = V + u the particle velocity,
    dg/dt = dt_grad_p1hat + H w and db/dt = (1 - bb) dg/dt / |g|.
    """
    g = sample.grad_p1hat
    gn = math.sqrt(g[0] * g[0] + g[1] * g[1] + g[2] * g[2])
    if gn <= eps_grad:
        raise DegenerateGradient(f"|grad p1hat| = {gn:g} <= {eps_grad:g}")
    b = g / gn
    w = sample.V + relative_velocity(state, sample)
    gdot = sample.dt_grad_p1hat + sample.hess_p1hat @ w
    return (gdot - (b @ gdot) * b) / gn


def omega_direct(sample, state, eps_grad=EPS_GRAD_DEFAULT):
    """Rotation-rate pseudo-vector Omega = b x (db/dt).

    Since b x b = 0 the projection inside db/dt drops out and
    Omega = b x (dg/dt) / |g|; orthogonal to b by construction.
    """
    kin = sample.kinetic()
    gx, gy, gz = kin[4:7]
    g2 = gx * gx + gy * gy + gz * gz
    if g2 <= eps_grad * eps_grad:
        raise DegenerateGradient(f"|grad p1hat| = {math.sqrt(g2):g} <= {eps_grad:g}")
    nx, ny, nz = state.n.tolist()
    return np.array(_rates(kin, nx, ny, nz, state.beta, eps_grad)[3:])


def omega_decomposed(sample, state, eps_grad=EPS_GRAD_DEFAULT):
    """Term-by-term decomposition of Omega, evaluated literally.

    The terms are:

    * convective: b x [(1 - bb)(dt g + H V) / |g|], the rate of rotation of
      b following the fluid (not the particle);
    * vorticity: -(1 - bb) xi, the negated tangential vorticity component;
    * pressure-velocity: [b x grad(g . V) - b x (g . grad)V] / |g|.

    Their sum is recorded as ``omega_decomposed`` together with the residual
    against the direct route.  The residual is generically nonzero (the
    decomposition is not an identity for the particle-path derivative) and
    is reported as a diagnostic only.
    """
    g = sample.grad_p1hat
    gn = float(np.linalg.norm(g))
    if gn <= eps_grad:
        raise DegenerateGradient(f"|grad p1hat| = {gn:g} <= {eps_grad:g}")
    b = g / gn
    V = sample.V
    H = sample.hess_p1hat
    xi = sample.xi
    gradV = sample.gradV

    gdot_fluid = sample.dt_grad_p1hat + H @ V
    bdot_fluid = (gdot_fluid - (b @ gdot_fluid) * b) / gn
    term_convective = np.cross(b, bdot_fluid)

    term_vorticity = -(xi - (b @ xi) * b)

    grad_gV = H @ V + gradV @ g          # gradient of (g . V)
    g_dot_nabla_V = gradV.T @ g          # (g . grad) V
    term_pv = (np.cross(b, grad_gV) - np.cross(b, g_dot_nabla_V)) / gn

    total = term_convective + term_vorticity + term_pv
    direct = omega_direct(sample, state, eps_grad)
    return OmegaBreakdown(
        omega_direct=direct,
        omega_decomposed=total,
        term_convective=term_convective,
        term_vorticity=term_vorticity,
        term_pressure_velocity=term_pv,
        residual=float(np.linalg.norm(direct - total)),
    )


def _rates(kin, nx, ny, nz, beta, eps_grad):
    """Particle velocity V + u and rotation rate Omega from kinetic fields.

    ``kin`` is the flat tuple of ``FieldProvider.sample_kinetic``.  Returns
    (wx, wy, wz, ox, oy, oz) with Omega = g x (dt g + H (V + u)) / |g|^2,
    which is zero under the degenerate-gradient policy.  The one place the
    rotation rate is computed: the integrator stages, the record evaluation
    and ``omega_direct`` all read it from here.
    """
    (Vx, Vy, Vz, p1, gx, gy, gz,
     Hxx, Hxy, Hxz, Hyy, Hyz, Hzz, dgx, dgy, dgz) = kin
    if p1 < 0.0:
        raise NegativePressure(f"p1hat = {p1:g} < 0")
    bu = beta * math.sqrt(2.0 * p1)
    wx = Vx + bu * nx
    wy = Vy + bu * ny
    wz = Vz + bu * nz
    g2 = gx * gx + gy * gy + gz * gz
    if g2 <= eps_grad * eps_grad:
        return wx, wy, wz, 0.0, 0.0, 0.0
    gdx = dgx + Hxx * wx + Hxy * wy + Hxz * wz
    gdy = dgy + Hxy * wx + Hyy * wy + Hyz * wz
    gdz = dgz + Hxz * wx + Hyz * wy + Hzz * wz
    inv = 1.0 / g2
    return (wx, wy, wz,
            (gy * gdz - gz * gdy) * inv,
            (gz * gdx - gx * gdz) * inv,
            (gx * gdy - gy * gdx) * inv)


def rhs_terms(provider, t, r, n, beta, eps_grad=EPS_GRAD_DEFAULT):
    """Record evaluation at (t, r, n): one ``provider.sample``, flat floats.

    ``n`` is a float triple.  Returns (wx, wy, wz, ox, oy, oz, v_th, p1hat,
    bx, by, bz, degenerate): the rates of :func:`stage_eval`, the thermal
    speed, the pressure, the unit isobaric normal and the degenerate flag.
    Applies the degenerate-gradient policy: when |grad p1hat| <= eps_grad the
    rotation rate and b are zero (the direction freezes) and the flag is 1.0,
    else 0.0.
    """
    kin = provider.sample(r, t).kinetic()
    nx, ny, nz = n
    rates = _rates(kin, nx, ny, nz, beta, eps_grad)
    p1, gx, gy, gz = kin[3:7]
    v_th = math.sqrt(2.0 * p1)
    g2 = gx * gx + gy * gy + gz * gz
    if g2 <= eps_grad * eps_grad:
        return rates + (v_th, p1, 0.0, 0.0, 0.0, 1.0)
    gn = math.sqrt(g2)
    return rates + (v_th, p1, gx / gn, gy / gn, gz / gn, 0.0)


def stage_eval(provider, t, x, y, z, nx, ny, nz, beta, eps_grad):
    """Scalar-only stage evaluation for the integrator.

    Returns (ax, ay, az, ox, oy, oz): particle velocity V + u and rotation
    rate (zero under the degenerate-gradient policy).  Allocation-free; the
    hot loop calls this three times per step on top of the record
    evaluation.
    """
    return _rates(provider.sample_kinetic((x, y, z), t), nx, ny, nz, beta, eps_grad)


def state_rhs(state, provider, eps_grad=EPS_GRAD_DEFAULT):
    """Time derivative of the reduced state.

    dr/dt = V + u and dn/dt = Omega x n.  Under the degenerate-gradient
    policy Omega = 0, so the direction is frozen there.
    """
    nx, ny, nz = n = state.n.tolist()
    wx, wy, wz, ox, oy, oz = rhs_terms(provider, state.t, state.r, n, state.beta,
                                       eps_grad=eps_grad)[:6]
    return StateDerivative(dr_dt=np.array((wx, wy, wz)),
                           dn_dt=np.array((oy * nz - oz * ny, oz * nx - ox * nz,
                                           ox * ny - oy * nx)))
