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
Seeds and sweeps take n from :func:`tangent_frame`, the tangent plane's frame.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGradient, NegativePressure, ValidationError

# |grad p1hat| at or below this is degenerate: b, and so tangency, is undefined there
EPS_GRAD = 1e-10
_EPS_GRAD2 = EPS_GRAD * EPS_GRAD  # compared against |grad p1hat|^2
_FLOAT = np.dtype(float)  # numpy's cached native float64 dtype, which its float arrays carry


@dataclass(slots=True)
class TtpState:
    """Reduced particle state.

    ``r`` and ``n`` are float arrays by the seed-vector rule, :func:`_seed_vector`.
    ``n`` must be a unit vector (the integrator maintains the norm to
    rounding); ``beta`` is constant along a trajectory.
    """

    t: float
    r: np.ndarray
    n: np.ndarray
    beta: float

    def __post_init__(self):
        self.r = _seed_vector("r", self.r)
        self.n = _seed_vector("n", self.n)


def _seed_vector(name, v):
    """The seed-vector rule: 3 numbers in shape (3,), as a float array; else ValidationError.

    An ``np.ndarray`` of native float64 in shape (3,), contiguous or not, writeable
    or not, already meets the rule and is returned as it is, before any conversion:
    it is the object the conversion would return.  A bool, string or complex
    vector, or one holding None (which numpy turns into nan), is rejected before
    numpy converts it; a mixed (True, 2.0, 3.0) is promoted to float by numpy
    itself and is accepted."""
    if type(v) is np.ndarray and v.shape == (3,) and v.dtype is _FLOAT:
        return v
    try:
        a = np.asarray(v)
        kind = a.dtype.kind  # one test for a float or int vector, as every seed state is
        if kind in "bUScO" and (kind != "O" or any(x is None for x in a.flat)):
            raise TypeError  # bool, str, bytes, complex; None in an object vector
        a = a.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} must hold 3 numbers, got {v!r}") from None
    if a.shape != (3,):
        raise ValidationError(f"{name} must have 3 components, got shape {a.shape}")
    return a


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
    bx, by, bz, gn = gradient_normal(sample.kin)
    return None if gn == 0.0 else np.array((bx, by, bz))


def tangent_frame(b):
    """Deterministic right-handed orthonormal frame (e1, e2, b).

    e1 = normalize(a x b) with a = z_hat unless |b . z_hat| > 0.9, in which
    case a = x_hat; e2 = b x e1; both on float triples, each made an array
    once.  ``b`` is None where the gradient is degenerate, as
    :func:`isobaric_normal` gives it; no tangent plane exists there, so None
    raises DegenerateGradient.
    """
    if b is None:
        raise DegenerateGradient("pressure gradient degenerate at the seed point")
    b = np.asarray(b, dtype=float).tolist()
    x, y, z = cross((0.0, 0.0, 1.0) if abs(b[2]) <= 0.9 else (1.0, 0.0, 0.0), b)
    m = norm3((x, y, z))
    e1 = x / m, y / m, z / m
    return np.array(e1), np.array(cross(b, e1))


def relative_velocity(state, sample):
    """u = beta * v_th * n; |u| = beta * v_th by construction."""
    return (state.beta * thermal_velocity(sample)) * state.n


def omega_direct(sample, state):
    """Rotation-rate pseudo-vector Omega = b x (db/dt).

    Since b x b = 0 the projection inside db/dt drops out and
    Omega = b x (dg/dt) / |g|; orthogonal to b by construction.
    """
    kin = sample.kin
    if gradient_normal(kin)[3] == 0.0:
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
    is reported as a diagnostic only.  b and |g| are :func:`gradient_normal`'s.
    Each term is summed left to right per component on the floats of
    ``sample.kin`` and ``sample.dV``, and made an array at return.
    """
    direct = omega_direct(sample, state)  # first: it raises DegenerateGradient where b is undefined
    kin, d = sample.kin, sample.dV
    *b, gn = gradient_normal(kin)
    (bx, by, bz), (gx, gy, gz), (hx, hy, hz) = b, kin[4:7], hess_dot(kin, kin[0:3])  # b, g, H V
    fx, fy, fz = kin[13] + hx, kin[14] + hy, kin[15] + hz  # dt g + H V
    s = bx * fx + by * fy + bz * fz
    term_convective = cross(b, ((fx - s * bx) / gn, (fy - s * by) / gn, (fz - s * bz) / gn))

    xx, xy, xz = d[5] - d[7], d[6] - d[2], d[1] - d[3]  # xi, the curl of V
    s = bx * xx + by * xy + bz * xz
    term_vorticity = -(xx - s * bx), -(xy - s * by), -(xz - s * bz)

    grad_gV = (hx + (d[0] * gx + d[1] * gy + d[2] * gz), hy + (d[3] * gx + d[4] * gy + d[5] * gz),
               hz + (d[6] * gx + d[7] * gy + d[8] * gz))  # gradient of (g . V)
    g_dot_nabla_V = (d[0] * gx + d[3] * gy + d[6] * gz, d[1] * gx + d[4] * gy + d[7] * gz,
                     d[2] * gx + d[5] * gy + d[8] * gz)  # (g . grad) V
    term_pv = [(p - m) / gn for p, m in zip(cross(b, grad_gV), cross(b, g_dot_nabla_V))]

    total = [c + v + p for c, v, p in zip(term_convective, term_vorticity, term_pv)]
    return OmegaBreakdown(direct, np.array(total), np.array(term_convective),
                          np.array(term_vorticity), np.array(term_pv),
                          residual=norm3([o - c for o, c in zip(direct.tolist(), total)]))


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


def dot3(a, b):
    """a . b of two float triples, summed left to right."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def hess_dot(kin, v):
    """H v for the Hessian H of ``kin`` and a float triple v: one :func:`dot3` per row."""
    Hxx, Hxy, Hxz, Hyy, Hyz, Hzz = kin[7:13]
    return dot3((Hxx, Hxy, Hxz), v), dot3((Hxy, Hyy, Hyz), v), dot3((Hxz, Hyz, Hzz), v)


def norm3(v):
    """|v| of a 3-sequence of floats: the root of their sum of squares, inf where it overflows."""
    x, y, z = map(float, v)
    return math.sqrt(x * x + y * y + z * z)


def gradient_normal(kin):
    """(bx, by, bz, |g|) for the gradient g of ``kin``, on Python floats: the one unit normal.

    The degenerate-gradient policy: where g . g <= EPS_GRAD^2 it returns
    (0.0, 0.0, 0.0, 0.0), so |g| = 0 marks a degenerate gradient and b is
    zero there.  The overflow rule: |g| is sqrt(g . g), except where g . g
    overflows; there g is first scaled by 1 / max |g_i|, whose squares cannot
    overflow, so b and |g| stay finite whenever the components of g are (an
    infinite component gives nan).  Elsewhere the scale would be m = 1, which
    is exact, so it is skipped.
    """
    gx, gy, gz = kin[4:7]
    g2 = gx * gx + gy * gy + gz * gz
    if g2 <= _EPS_GRAD2:
        return 0.0, 0.0, 0.0, 0.0
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
    studies all read them from here.  It repeats gradient_normal's one
    degeneracy comparison inline, because the hot stage path needs no unit
    normal: it divides by |g|^2, not by |g|.
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
    speed, the pressure, and the unit normal of :func:`gradient_normal` with
    its degenerate flag: where |g| is 0 the rotation rate and b are zero (the
    direction freezes) and the flag is 1.0; a nan |g| keeps the flag 0.0.
    """
    kin = provider.sample(r, t).kin
    bx, by, bz, gn = gradient_normal(kin)
    # _rates runs before the sqrt, so a negative p1hat raises NegativePressure first
    return _rates(kin, *n, beta) + (math.sqrt(2.0 * kin[3]), kin[3],
                                    bx, by, bz, 1.0 if gn == 0.0 else 0.0)


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
