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

# |grad p1hat| at or below this is degenerate: b, and so tangency, is undefined there
EPS_GRAD = 1e-10
_EPS_GRAD2 = EPS_GRAD * EPS_GRAD  # compared against |grad p1hat|^2


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


def isobaric_normal(sample):
    """Unit normal of the local isobaric surface, or None when degenerate.

    Degeneracy (|grad p1hat| <= EPS_GRAD) is a value, not an error: the
    tangency constraint imposes nothing there.
    """
    bx, by, bz, degenerate = _normal(sample.kin)
    return None if degenerate else np.array((bx, by, bz))


def relative_velocity(state, sample):
    """u = beta * v_th * n; |u| = beta * v_th by construction."""
    return (state.beta * thermal_velocity(sample)) * state.n


def omega_direct(sample, state):
    """Rotation-rate pseudo-vector Omega = b x (db/dt).

    Since b x b = 0 the projection inside db/dt drops out and
    Omega = b x (dg/dt) / |g|; orthogonal to b by construction.
    """
    kin = sample.kin
    if _normal(kin)[3]:
        raise DegenerateGradient(f"|grad p1hat| = {math.hypot(*kin[4:7]):g} <= {EPS_GRAD:g}")
    nx, ny, nz = state.n.tolist()
    return np.array(_rates(kin, nx, ny, nz, state.beta)[3:])


def omega_decomposed(sample, state):
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
    direct = omega_direct(sample, state)  # first: it raises DegenerateGradient where b is undefined
    kin, g, gradV = sample.kin, sample.grad_p1hat, sample.gradV
    gn = norm3(g)  # numpy's rounding, which the reported residuals were written with
    if gn < math.inf:
        b = tuple(c / gn for c in kin[4:7])
    else:  # |g|^2 overflowed
        *b, gn = gradient_normal(kin)
    # numpy keeps the products whose fused rounding reaches the outputs; the rest is on floats
    bv = np.array(b)
    HV = (sample.hess_p1hat @ sample.V).tolist()

    gdot_fluid = [d + h for d, h in zip(kin[13:16], HV)]
    s = float(bv @ gdot_fluid)
    term_convective = cross(b, [(d - s * c) / gn for d, c in zip(gdot_fluid, b)])

    xi = sample.xi
    s = float(bv @ xi)
    term_vorticity = [-(x - s * c) for x, c in zip(xi.tolist(), b)]

    grad_gV = [h + v for h, v in zip(HV, (gradV @ g).tolist())]  # gradient of (g . V)
    g_dot_nabla_V = (gradV.T @ g).tolist()                          # (g . grad) V
    term_pv = [(p - m) / gn for p, m in zip(cross(b, grad_gV), cross(b, g_dot_nabla_V))]

    total = np.array([c + v + p for c, v, p in zip(term_convective, term_vorticity, term_pv)])
    return OmegaBreakdown(direct, total, np.array(term_convective), np.array(term_vorticity),
                          np.array(term_pv), residual=norm3(direct - total))


def cross(a, b):
    """Cross product a x b of two float triples, as a tuple of floats.

    Bit-identical to numpy's ``cross`` on float 3-vectors: each component is
    the same two rounded products and one rounded difference, evaluated on
    Python floats without numpy's axis handling, which costs about 20 times
    as much on one pair.
    """
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def norm3(v):
    """|v| of a 3-sequence of floats as ``np.linalg.norm`` rounds it, or inf where |v|^2 overflows.

    ``np.linalg.norm`` of a float vector is ``sqrt(v . v)``; this is the same
    dot and a correctly rounded square root, without the wrapper.  The
    overflow is decided on Python floats first, so numpy never warns.
    """
    v = np.asarray(v, dtype=float)
    x, y, z = v.tolist()
    return math.inf if x * x + y * y + z * z == math.inf else math.sqrt(v.dot(v))


def norm3_rows(v):
    """:func:`norm3` of each row of a (k, 3) float array or a sequence of triples, as a (k,) array.

    Bit for bit: ``np.vecdot`` rounds each row's dot as ``v.dot(v)`` does,
    and a row is inf where its float sum of squares overflows, summed in
    norm3's order.  That sum is taken under ``np.errstate``, so numpy never
    warns.
    """
    v = np.asarray(v, dtype=float).reshape(-1, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        sq = v * v
        return np.where(sq[:, 0] + sq[:, 1] + sq[:, 2] == math.inf, math.inf,
                        np.sqrt(np.vecdot(v, v)))


def _normal(kin):
    """Degenerate-gradient policy: (bx, by, bz, 0.0) with b the unit normal, else (0, 0, 0, 1.0)."""
    gx, gy, gz = kin[4:7]
    g2 = gx * gx + gy * gy + gz * gz
    if g2 <= _EPS_GRAD2:
        return 0.0, 0.0, 0.0, 1.0
    if g2 == math.inf:
        return gradient_normal(kin)[:3] + (0.0,)
    gn = math.sqrt(g2)  # gradient_normal's rounding: it scales g only where g . g overflows
    return gx / gn, gy / gn, gz / gn, 0.0


def gradient_normal(kin):
    """(bx, by, bz, |g|) for the gradient g of ``kin``, on Python floats; g must not be degenerate.

    The overflow rule: |g| is sqrt(g . g), except where g . g overflows;
    there g is first scaled by 1 / max |g_i|, whose squares cannot overflow,
    so b and |g| stay finite whenever the components of g are (an infinite
    component gives nan).  Elsewhere the scale would be m = 1, which is
    exact, so it is skipped.
    """
    gx, gy, gz = kin[4:7]
    g2 = gx * gx + gy * gy + gz * gz
    m = 1.0
    if g2 == math.inf:
        m = max(abs(gx), abs(gy), abs(gz))
        gx, gy, gz = gx / m, gy / m, gz / m
        g2 = gx * gx + gy * gy + gz * gz
    gn = math.sqrt(g2)
    return gx / gn, gy / gn, gz / gn, m * gn


def _rates(kin, nx, ny, nz, beta):
    """Particle velocity V + u and rotation rate Omega from kinetic fields.

    ``kin`` is the flat tuple of ``FieldProvider.sample_kinetic``.  Returns
    (wx, wy, wz, ox, oy, oz) with Omega = g x (dt g + H (V + u)) / |g|^2,
    which is zero under the degenerate-gradient policy; where |g|^2
    overflows it is b x (dt g + H (V + u)) / |g| from :func:`gradient_normal`.
    The one place V + u and the rotation rate are computed: the integrator
    stages, the record evaluation, ``omega_direct`` and verify's pointwise
    studies all read them from here.  The hot stage path tests degeneracy
    inline, as :func:`_normal` does, and needs no unit normal.
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
    if g2 <= _EPS_GRAD2:
        return wx, wy, wz, 0.0, 0.0, 0.0
    gdx = dgx + Hxx * wx + Hxy * wy + Hxz * wz
    gdy = dgy + Hxy * wx + Hyy * wy + Hyz * wz
    gdz = dgz + Hxz * wx + Hyz * wy + Hzz * wz
    inv = 1.0 / g2
    if inv == 0.0:  # |g|^2 overflowed
        bx, by, bz, gn = gradient_normal(kin)
        return (wx, wy, wz,
                (by * gdz - bz * gdy) / gn,
                (bz * gdx - bx * gdz) / gn,
                (bx * gdy - by * gdx) / gn)
    return (wx, wy, wz,
            (gy * gdz - gz * gdy) * inv,
            (gz * gdx - gx * gdz) * inv,
            (gx * gdy - gy * gdx) * inv)


def rhs_terms(provider, t, r, n, beta):
    """Record evaluation at (t, r, n): one ``provider.sample``, flat floats.

    ``n`` is a float triple.  Returns (wx, wy, wz, ox, oy, oz, v_th, p1hat,
    bx, by, bz, degenerate): the rates of :func:`stage_eval`, the thermal
    speed, the pressure, and the unit normal and degenerate flag of
    :func:`_normal`: where the gradient is degenerate the rotation rate and b
    are zero (the direction freezes) and the flag is 1.0.
    """
    kin = provider.sample(r, t).kin
    # _rates runs first, so a negative p1hat raises NegativePressure before the sqrt
    return _rates(kin, *n, beta) + (math.sqrt(2.0 * kin[3]), kin[3]) + _normal(kin)


def stage_eval(provider, t, x, y, z, nx, ny, nz, beta):
    """Scalar-only stage evaluation for the integrator.

    Returns (ax, ay, az, ox, oy, oz): particle velocity V + u and rotation
    rate (zero under the degenerate-gradient policy).  Allocation-free; the
    hot loop calls this three times per step on top of the record
    evaluation.
    """
    return _rates(provider.sample_kinetic((x, y, z), t), nx, ny, nz, beta)


def state_rhs(provider, t, r, n, beta):
    """Time derivative of the reduced state at the float triples (r, n): the 6-tuple (dr/dt, dn/dt).

    dr/dt = V + u and dn/dt = Omega x n.  Under the degenerate-gradient
    policy Omega = 0, so the direction is frozen there.
    """
    nx, ny, nz = n
    wx, wy, wz, ox, oy, oz = rhs_terms(provider, t, r, n, beta)[:6]
    return wx, wy, wz, oy * nz - oz * ny, oz * nx - ox * nz, ox * ny - oy * nx
