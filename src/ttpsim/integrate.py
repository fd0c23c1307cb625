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
from .kinetics import rhs_terms, stage_eval

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
class InvariantSummary:
    steps: int
    max_norm_err: float
    max_abs_n_dot_b: float
    degenerate_steps: int
    terminated_early: bool = False
    termination_reason: str = ""


class Table:
    """Rows of floats whose columns are declared once, in the subclass's LAYOUT.

    Each LAYOUT entry is a column name and its CSV header fields; FLAGS names
    the integer-valued columns.  A subclass gets ``COLUMNS`` (the CSV header),
    ``WIDTH``, ``FLAG_COLUMNS`` (the flag columns' indices) and, for each name, a
    read-only view of ``table``: one column, or ``(m, w)`` for w header fields.
    """

    LAYOUT = ()
    FLAGS = ()

    def __init_subclass__(cls):
        cls.INDEX, i = {}, 0
        for name, fields in cls.LAYOUT:
            w = fields.count(",") + 1
            cls.INDEX[name] = i if w == 1 else slice(i, i + w)
            i += w
        cls.WIDTH = i
        cls.COLUMNS = ",".join(fields for _, fields in cls.LAYOUT)
        cls.FLAG_COLUMNS = tuple(cls.INDEX[name] for name in cls.FLAGS)

    def __init__(self, table):
        self.table = table

    def __len__(self):
        return len(self.table)

    def __getattr__(self, name):
        if name not in self.INDEX:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        view = self.table[:, self.INDEX[name]]
        view.flags.writeable = False
        return view


class Trajectory(Table):
    """Recorded states: ``table`` holds one row per record in COLUMNS order.

    ``t, r, n, u, v, v_th, p1hat, b, n_dot_b, norm_err`` and ``degenerate``
    (1.0 where the gradient is degenerate, else 0.0) are read-only views of
    its columns.  Where the gradient is degenerate, ``b`` and ``n_dot_b``
    are zero.
    """

    LAYOUT = (("t", "t"), ("r", "rx,ry,rz"), ("n", "nx,ny,nz"), ("u", "ux,uy,uz"),
              ("v", "vx,vy,vz"), ("v_th", "vth"), ("p1hat", "p1hat"), ("b", "bx,by,bz"),
              ("n_dot_b", "n_dot_b"), ("norm_err", "norm_err"),
              ("degenerate", "degenerate_flag"))
    FLAGS = ("degenerate",)
    summary = None  # the InvariantSummary, set once the run ends


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


def _advance_rodrigues(provider, t, r, n, beta, dt, eps_grad, k1):
    """One rk4_rodrigues step from the float triples (r, n).

    ``k1`` holds the rates (ax, ay, az, ox, oy, oz) at the step's start, as
    :func:`stage_eval` returns them.  Stage i + 1 rotates n by c_i times the
    pulled-back rate of stage i.  Returns the new (r, n) as float triples.
    """
    rx, ry, rz = r
    nx, ny, nz = n
    a1x, a1y, a1z, w1x, w1y, w1z = ax, ay, az, wx, wy, wz = k1
    stages = []
    for c in (0.5 * dt, 0.5 * dt, dt):
        tx, ty, tz = c * wx, c * wy, c * wz
        mx, my, mz = _rot_s(nx, ny, nz, tx, ty, tz)
        ax, ay, az, ox, oy, oz = stage_eval(provider, t + c, rx + c * ax, ry + c * ay,
                                            rz + c * az, mx, my, mz, beta, eps_grad)
        wx, wy, wz = _dexpinv_s(tx, ty, tz, ox, oy, oz)
        stages.append((ax, ay, az, wx, wy, wz))
    ((a2x, a2y, a2z, w2x, w2y, w2z), (a3x, a3y, a3z, w3x, w3y, w3z),
     (a4x, a4y, a4z, w4x, w4y, w4z)) = stages

    sixth = dt / 6.0
    r_new = (rx + sixth * (a1x + 2.0 * (a2x + a3x) + a4x),
             ry + sixth * (a1y + 2.0 * (a2y + a3y) + a4y),
             rz + sixth * (a1z + 2.0 * (a2z + a3z) + a4z))
    n_new = _rot_s(nx, ny, nz,
                   sixth * (w1x + 2.0 * (w2x + w3x) + w4x),
                   sixth * (w1y + 2.0 * (w2y + w3y) + w4y),
                   sixth * (w1z + 2.0 * (w2z + w3z) + w4z))
    return r_new, n_new


def _advance_naive(provider, t, r, n, beta, dt, eps_grad, k1):
    """One classical vector RK4 step on (r, n); the norm of n is not preserved.

    Same arguments and result as :func:`_advance_rodrigues`.  Each stage
    takes dr/dt = V + u and dn/dt = Omega x n' at its own direction n'.
    """
    rates, m = k1, n
    dr, dn = [], []
    for c in (0.5 * dt, 0.5 * dt, dt, None):
        ax, ay, az, ox, oy, oz = rates
        mx, my, mz = m
        dr.append((ax, ay, az))
        dn.append((oy * mz - oz * my, oz * mx - ox * mz, ox * my - oy * mx))
        if c is None:
            break
        m = tuple(x + c * k for x, k in zip(n, dn[-1]))
        rates = stage_eval(provider, t + c, r[0] + c * ax, r[1] + c * ay, r[2] + c * az,
                           *m, beta, eps_grad)
    sixth = dt / 6.0
    return (tuple(x + sixth * (a + 2.0 * (b + c) + d) for x, a, b, c, d in zip(r, *dr)),
            tuple(x + sixth * (a + 2.0 * (b + c) + d) for x, a, b, c, d in zip(n, *dn)))


def _project_tangent(n, b):
    """The triple n projected onto the plane orthogonal to the unit b, renormalized.

    Returns None when n is parallel to b (no tangential component left), or
    when the tangential part's squared norm overflows; the caller then keeps
    n, whose record is not finite.
    """
    n, b = np.array(n), np.array(b)
    m = n - (n @ b) * b
    mx, my, mz = m.tolist()
    nm = math.sqrt(mx * mx + my * my + mz * mz)
    return None if not 1e-12 <= nm < math.inf else tuple((m / nm).tolist())


def integrate_trajectory(state0, provider, config, project_initial=False):
    """Integrate from state0 to t_end, recording every step.

    The initial direction must satisfy the tangency constraint |n . b| <=
    1e-8 at the seed point (vacuous where b is degenerate); pass
    ``project_initial=True`` to project and renormalize instead of raising.
    Domain exit, a negative interpolated pressure, or a state or record that
    is not finite, after the seed point ends the trajectory early with a
    recorded reason.  The loop runs on Python floats, one table row per record.
    """
    t0 = float(state0.t)
    n_steps = step_count(t0, config.t_end, config.dt)

    beta = float(state0.beta)
    r = tuple(np.asarray(state0.r, dtype=float).tolist())
    n0 = np.array(state0.n, dtype=float)
    nrm = float(np.linalg.norm(n0))
    if abs(nrm - 1.0) > 1e-9:
        raise ValidationError(f"|n0| = {nrm:.12g} is not a unit vector")
    n = tuple(n0.tolist())

    eps_grad = config.eps_grad
    ev = rhs_terms(provider, t0, r, n, beta, eps_grad)
    if not ev[11]:  # not degenerate; ev[8:11] is b
        ndb = float(n0 @ np.array(ev[8:11]))
        if abs(ndb) > TANGENCY_TOL:
            if not project_initial:
                raise InitialTangencyViolation(
                    f"|n0 . b| = {abs(ndb):.3e} exceeds {TANGENCY_TOL:g}; "
                    "project the initial direction or seed tangentially")
            n = _project_tangent(n, ev[8:11])
            if n is None:
                raise InitialTangencyViolation(
                    "initial direction is parallel to the isobaric normal; "
                    "no tangential projection exists")
            ev = rhs_terms(provider, t0, r, n, beta, eps_grad)

    table = np.empty((n_steps + 1, Trajectory.WIDTH))
    advance = _advance_rodrigues if config.method == "rk4_rodrigues" else _advance_naive
    reproject = config.project_tangency_every
    reason = ""
    k = 0  # records written
    t = t0
    while True:
        # record the current state from its evaluation; n_dot_b comes after the loop
        wx, wy, wz, _, _, _, v_th, p1, bx, by, bz, degenerate = ev
        nx, ny, nz = n
        bu = beta * v_th
        row = (t, *r, nx, ny, nz, bu * nx, bu * ny, bu * nz, wx, wy, wz, v_th, p1,
               bx, by, bz, 0.0, abs(math.sqrt(nx * nx + ny * ny + nz * nz) - 1.0), degenerate)
        if k and not all(map(math.isfinite, row)):  # the fields or |n|^2 overflow
            reason = f"non_finite_state: the record at r = {r}, n = {n}, t = {t!r}"
            break
        table[k] = row
        k += 1
        if k > n_steps:
            break
        try:
            try:
                r, n = advance(provider, t, r, n, beta, config.dt, eps_grad, ev[:6])
            except (ValueError, OverflowError) as err:  # a stage value overflowed in math
                reason = f"non_finite_state: the step from r = {r}, n = {n}, t = {t!r} ({err})"
                break
            if config.renormalize_every and k % config.renormalize_every == 0:
                nrm = math.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2])
                if nrm < math.inf:  # else |n|^2 overflowed: keep n, whose record is not finite
                    n = tuple(x / nrm for x in n)
            t = t0 + k * config.dt
            if not all(map(math.isfinite, r + n)):
                reason = f"non_finite_state: r = {r}, n = {n} at t = {t!r}"
                break
            ev = rhs_terms(provider, t, r, n, beta, eps_grad)
            if reproject and k % reproject == 0 and not ev[11]:  # not degenerate
                proj = _project_tangent(n, ev[8:11])  # b
                if proj is not None:
                    n = proj
                    ev = rhs_terms(provider, t, r, n, beta, eps_grad)
        except (OutOfDomain, NegativePressure) as err:
            kind = "out_of_domain" if isinstance(err, OutOfDomain) else "negative_pressure"
            reason = f"{kind}: {err}"
            break

    # a run that stopped early copies its rows, so the unused rows can be freed
    traj = Trajectory(table if k > n_steps else table[:k].copy())
    # np.vecdot rounds like a per-row n @ b; the golden outputs pin these bytes
    ndb = traj.table[:, Trajectory.INDEX["n_dot_b"]]
    ndb[:] = np.vecdot(traj.n, traj.b)
    ndb[traj.degenerate != 0.0] = 0.0
    traj.summary = InvariantSummary(
        steps=k - 1,
        max_norm_err=float(np.max(traj.norm_err)),
        max_abs_n_dot_b=float(np.max(np.abs(traj.n_dot_b))),
        degenerate_steps=int(np.count_nonzero(traj.degenerate)),
        terminated_early=bool(reason),
        termination_reason=reason,
    )
    return traj
