"""Fixed-step trajectory integration with invariant monitoring.

The reduced state couples a position in R^3 with a unit direction vector.
The default method ``rk4_rodrigues`` is a 4th-order Runge-Kutta whose
direction update is performed entirely through exact axis-angle rotations:
stage directions are rotated copies of the step's initial direction, stage
rotation rates are pulled back with the inverse differential of the
exponential map, and the final direction is one rotation by the effective
weighted rotation vector.  The unit norm is therefore preserved to rounding
regardless of step count.  ``rk4_naive`` treats the direction as a plain
vector (optionally renormalized every k steps) and is kept for comparison
studies.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InitialTangencyViolation, NegativePressure, OutOfDomain, ValidationError
from .fields import EPS_GRAD_DEFAULT
from .kinetics import TtpState, rhs_terms, stage_eval

TANGENCY_TOL = 1e-8


@dataclass(slots=True)
class IntegratorConfig:
    """Fixed-step integration settings.

    ``renormalize_every`` / ``project_tangency_every`` of 0 mean never.
    Tangency re-projection is off by default: the drift of n . b is itself
    a diagnostic of the evolution law and projection would hide it.
    """

    dt: float = 1e-3
    t_end: float = 1.0
    method: str = "rk4_rodrigues"
    renormalize_every: int = 0
    project_tangency_every: int = 0
    eps_grad: float = EPS_GRAD_DEFAULT

    def __post_init__(self):
        for name in ("dt", "t_end", "eps_grad"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.dt <= 0.0:
            raise ValidationError("dt must be positive")
        if self.eps_grad < 0.0:
            raise ValidationError("eps_grad must be >= 0")
        if self.method not in ("rk4_rodrigues", "rk4_naive"):
            raise ValidationError(f"unknown method {self.method!r}")
        for name in ("renormalize_every", "project_tangency_every"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0 (0 means never)")


def step_count(t0, t_end, dt):
    """Number of steps of size dt from t0 to t_end.

    The horizon must be a whole number of steps, to 1e-9 relative: order
    studies compare runs that end at the same time, and a run must never end
    silently short of t_end.
    """
    if t_end <= t0:
        raise ValidationError("t_end must exceed the initial time")
    q = (t_end - t0) / dt
    n = round(q) if math.isfinite(q) else 0
    if n < 1 or abs(q - n) > 1e-9 * n:
        raise ValidationError(
            f"t_end - t0 = {t_end - t0!r} is not a whole number of steps dt = {dt!r} "
            f"({q:.12g} steps)")
    return n


@dataclass(slots=True)
class TrajectoryRecord:
    """One accepted step: state, derived quantities, invariant residuals."""

    t: float
    r: np.ndarray
    n: np.ndarray
    u: np.ndarray
    v: np.ndarray
    v_th: float
    p1hat: float
    b: np.ndarray          # zeros when degenerate
    n_dot_b: float         # 0.0 when degenerate
    norm_err: float
    omega: np.ndarray
    degenerate: bool


@dataclass(slots=True)
class InvariantSummary:
    steps: int
    max_norm_err: float
    max_abs_n_dot_b: float
    degenerate_steps: int
    terminated_early: bool = False
    termination_reason: str = ""


class Trajectory:
    """Column-oriented record store; indexable as a sequence of records."""

    def __init__(self, n_records):
        m = n_records
        self.t = np.empty(m)
        self.r = np.empty((m, 3))
        self.n = np.empty((m, 3))
        self.u = np.empty((m, 3))
        self.v = np.empty((m, 3))
        self.v_th = np.empty(m)
        self.p1hat = np.empty(m)
        self.b = np.zeros((m, 3))
        self.n_dot_b = np.zeros(m)
        self.norm_err = np.empty(m)
        self.omega = np.empty((m, 3))
        self.degenerate = np.zeros(m, dtype=bool)
        self.summary = None

    def _truncate(self, m):
        for name in ("t", "r", "n", "u", "v", "v_th", "p1hat", "b",
                     "n_dot_b", "norm_err", "omega", "degenerate"):
            setattr(self, name, getattr(self, name)[:m])

    def __len__(self):
        return len(self.t)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return TrajectoryRecord(
            t=float(self.t[i]), r=self.r[i], n=self.n[i], u=self.u[i],
            v=self.v[i], v_th=float(self.v_th[i]), p1hat=float(self.p1hat[i]),
            b=self.b[i], n_dot_b=float(self.n_dot_b[i]),
            norm_err=float(self.norm_err[i]), omega=self.omega[i],
            degenerate=bool(self.degenerate[i]),
        )


def _rot_s(nx, ny, nz, tx, ty, tz):
    """Rodrigues rotation of (nx, ny, nz) by the rotation vector (tx, ty, tz).

    Exact axis-angle rotation; the result is renormalized to absorb
    last-ulp rounding, so the norm never random-walks.
    """
    angle = math.sqrt(tx * tx + ty * ty + tz * tz)
    if angle == 0.0:
        return nx, ny, nz
    kx, ky, kz = tx / angle, ty / angle, tz / angle
    c, s = math.cos(angle), math.sin(angle)
    dot = (kx * nx + ky * ny + kz * nz) * (1.0 - c)
    ox = nx * c + (ky * nz - kz * ny) * s + kx * dot
    oy = ny * c + (kz * nx - kx * nz) * s + ky * dot
    oz = nz * c + (kx * ny - ky * nx) * s + kz * dot
    inv = 1.0 / math.sqrt(ox * ox + oy * oy + oz * oz)
    return ox * inv, oy * inv, oz * inv


def rotate_unit(n, omega, dt):
    """Rotate unit vector n about omega/|omega| by angle |omega| dt.

    omega = 0 returns n unchanged bit-exactly.  The result is renormalized,
    so its norm is 1 to within one rounding.
    """
    return np.array(_rot_s(*n, *(omega * dt)))


def _dexpinv_s(tx, ty, tz, wx, wy, wz):
    """Inverse differential of the rotation exponential, truncated at order 2.

    dexpinv(theta, w) = w - 1/2 theta x w + 1/12 theta x (theta x w) + ...;
    the omitted terms are O(|theta|^4), sufficient for a 4th-order method.
    """
    c1x = ty * wz - tz * wy
    c1y = tz * wx - tx * wz
    c1z = tx * wy - ty * wx
    c2x = ty * c1z - tz * c1y
    c2y = tz * c1x - tx * c1z
    c2z = tx * c1y - ty * c1x
    return (wx - 0.5 * c1x + c2x / 12.0,
            wy - 0.5 * c1y + c2y / 12.0,
            wz - 0.5 * c1z + c2z / 12.0)


def _advance_rodrigues(provider, t, r, n, beta, dt, eps_grad, ev1):
    """One rk4_rodrigues step given the already-evaluated first stage.

    Scalar arithmetic throughout (hot loop).
    """
    half = 0.5 * dt
    rx, ry, rz = float(r[0]), float(r[1]), float(r[2])
    nx, ny, nz = float(n[0]), float(n[1]), float(n[2])
    a1 = ev1.dr_dt
    o1 = ev1.omega
    a1x, a1y, a1z = float(a1[0]), float(a1[1]), float(a1[2])
    w1x, w1y, w1z = float(o1[0]), float(o1[1]), float(o1[2])

    t2x, t2y, t2z = half * w1x, half * w1y, half * w1z
    n2 = _rot_s(nx, ny, nz, t2x, t2y, t2z)
    st2 = stage_eval(provider, t + half, rx + half * a1x, ry + half * a1y,
                     rz + half * a1z, n2[0], n2[1], n2[2], beta, eps_grad)
    a2x, a2y, a2z = st2[0], st2[1], st2[2]
    w2x, w2y, w2z = _dexpinv_s(t2x, t2y, t2z, st2[3], st2[4], st2[5])

    t3x, t3y, t3z = half * w2x, half * w2y, half * w2z
    n3 = _rot_s(nx, ny, nz, t3x, t3y, t3z)
    st3 = stage_eval(provider, t + half, rx + half * a2x, ry + half * a2y,
                     rz + half * a2z, n3[0], n3[1], n3[2], beta, eps_grad)
    a3x, a3y, a3z = st3[0], st3[1], st3[2]
    w3x, w3y, w3z = _dexpinv_s(t3x, t3y, t3z, st3[3], st3[4], st3[5])

    t4x, t4y, t4z = dt * w3x, dt * w3y, dt * w3z
    n4 = _rot_s(nx, ny, nz, t4x, t4y, t4z)
    st4 = stage_eval(provider, t + dt, rx + dt * a3x, ry + dt * a3y,
                     rz + dt * a3z, n4[0], n4[1], n4[2], beta, eps_grad)
    a4x, a4y, a4z = st4[0], st4[1], st4[2]
    w4x, w4y, w4z = _dexpinv_s(t4x, t4y, t4z, st4[3], st4[4], st4[5])

    sixth = dt / 6.0
    r_new = np.array((rx + sixth * (a1x + 2.0 * (a2x + a3x) + a4x),
                      ry + sixth * (a1y + 2.0 * (a2y + a3y) + a4y),
                      rz + sixth * (a1z + 2.0 * (a2z + a3z) + a4z)))
    n_new = np.array(_rot_s(nx, ny, nz,
                            sixth * (w1x + 2.0 * (w2x + w3x) + w4x),
                            sixth * (w1y + 2.0 * (w2y + w3y) + w4y),
                            sixth * (w1z + 2.0 * (w2z + w3z) + w4z)))
    return r_new, n_new


def _cross(a, b):
    return np.array((
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ))


def _advance_naive(provider, t, r, n, beta, dt, eps_grad, ev1):
    """One classical vector RK4 step on (r, n); n norm not preserved."""
    half = 0.5 * dt
    a1 = ev1.dr_dt
    k1 = _cross(ev1.omega, n)

    e2 = rhs_terms(provider, t + half, r + half * a1, n + half * k1, beta, eps_grad)
    a2 = e2.dr_dt
    k2 = _cross(e2.omega, n + half * k1)

    e3 = rhs_terms(provider, t + half, r + half * a2, n + half * k2, beta, eps_grad)
    a3 = e3.dr_dt
    k3 = _cross(e3.omega, n + half * k2)

    e4 = rhs_terms(provider, t + dt, r + dt * a3, n + dt * k3, beta, eps_grad)
    a4 = e4.dr_dt
    k4 = _cross(e4.omega, n + dt * k3)

    r_new = r + (dt / 6.0) * (a1 + 2.0 * (a2 + a3) + a4)
    n_new = n + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return r_new, n_new


def step(state, provider, config):
    """Advance one state by one step of the configured method."""
    ev1 = rhs_terms(provider, state.t, state.r, state.n, state.beta, config.eps_grad)
    advance = _advance_rodrigues if config.method == "rk4_rodrigues" else _advance_naive
    r_new, n_new = advance(provider, state.t, state.r, state.n, state.beta,
                           config.dt, config.eps_grad, ev1)
    return TtpState(t=state.t + config.dt, r=r_new, n=n_new, beta=state.beta)


def _project_tangent(n, b):
    """n projected onto the plane orthogonal to b, renormalized.

    Returns None when n is parallel to b (no tangential component left).
    """
    m = n - (n @ b) * b
    nm = math.sqrt(m[0] * m[0] + m[1] * m[1] + m[2] * m[2])
    return None if nm < 1e-12 else m / nm


def integrate_trajectory(state0, provider, config, project_initial=False):
    """Integrate from state0 to t_end, recording every step.

    The initial direction must satisfy the tangency constraint |n . b| <=
    1e-8 at the seed point (vacuous where b is degenerate); pass
    ``project_initial=True`` to project and renormalize instead of raising.
    Domain exit or a negative interpolated pressure after the seed point
    ends the trajectory early with a recorded reason.
    """
    t0 = float(state0.t)
    n_steps = step_count(t0, config.t_end, config.dt)

    beta = float(state0.beta)
    r = np.array(state0.r, dtype=float)
    n = np.array(state0.n, dtype=float)
    nrm = float(np.linalg.norm(n))
    if abs(nrm - 1.0) > 1e-9:
        raise ValidationError(f"|n0| = {nrm:.12g} is not a unit vector")

    eps_grad = config.eps_grad
    ev = rhs_terms(provider, t0, r, n, beta, eps_grad)
    if ev.b is not None:
        ndb = float(n @ ev.b)
        if abs(ndb) > TANGENCY_TOL:
            if not project_initial:
                raise InitialTangencyViolation(
                    f"|n0 . b| = {abs(ndb):.3e} exceeds {TANGENCY_TOL:g}; "
                    "project the initial direction or seed tangentially")
            n = _project_tangent(n, ev.b)
            if n is None:
                raise InitialTangencyViolation(
                    "initial direction is parallel to the isobaric normal; "
                    "no tangential projection exists")
            ev = rhs_terms(provider, t0, r, n, beta, eps_grad)

    traj = Trajectory(n_steps + 1)
    advance = _advance_rodrigues if config.method == "rk4_rodrigues" else _advance_naive
    renorm = config.renormalize_every
    reproject = config.project_tangency_every
    terminated = False
    reason = ""
    k = 0
    t = t0
    while True:
        # record the current state from the already-available evaluation
        traj.t[k] = t
        traj.r[k] = r
        traj.n[k] = n
        traj.u[k] = ev.u
        traj.v[k] = ev.dr_dt
        traj.v_th[k] = ev.v_th
        traj.p1hat[k] = ev.sample.p1hat
        traj.omega[k] = ev.omega
        nrm = math.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2])
        traj.norm_err[k] = abs(nrm - 1.0)
        if ev.degenerate:
            traj.degenerate[k] = True
        else:
            traj.b[k] = ev.b
            traj.n_dot_b[k] = float(n @ ev.b)
        if k == n_steps:
            break
        try:
            r_new, n_new = advance(provider, t, r, n, beta, config.dt, eps_grad, ev)
            r, n = r_new, n_new
            if renorm and (k + 1) % renorm == 0:
                n = n / math.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2])
            t = t0 + (k + 1) * config.dt
            ev = rhs_terms(provider, t, r, n, beta, eps_grad)
            if reproject and (k + 1) % reproject == 0 and ev.b is not None:
                proj = _project_tangent(n, ev.b)
                if proj is not None:
                    n = proj
                    ev = rhs_terms(provider, t, r, n, beta, eps_grad)
        except (OutOfDomain, NegativePressure) as err:
            terminated = True
            kind = "out_of_domain" if isinstance(err, OutOfDomain) else "negative_pressure"
            reason = f"{kind}: {err}"
            traj._truncate(k + 1)
            break
        k += 1

    traj.summary = InvariantSummary(
        steps=len(traj) - 1,
        max_norm_err=float(np.max(traj.norm_err)),
        max_abs_n_dot_b=float(np.max(np.abs(traj.n_dot_b))),
        degenerate_steps=int(np.sum(traj.degenerate)),
        terminated_early=terminated,
        termination_reason=reason,
    )
    return traj
