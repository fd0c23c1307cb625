"""Fixed-step trajectory integration with invariant monitoring.

The reduced state couples a position in R^3 with a unit direction vector.
Both methods run one Runge-Kutta-Munthe-Kaas stage loop, :func:`_advance`,
with the (act, rate) pair that ``METHODS`` names.  The default
``rk4_rodrigues`` acts by exact axis-angle rotations, with stage rotation
rates pulled back by the inverse differential of the exponential map, so
the unit norm is preserved to rounding regardless of step count.
``rk4_naive`` is classical RK4 on the direction as a plain vector, the same
loop with ``n + theta`` and ``Omega x m`` (optionally renormalized every k
steps), kept for comparison studies.
"""

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import (InitialTangencyViolation, NegativePressure, OutOfDomain, ValidationError,
                     check_count)
from .kinetics import _seed_vector, cross, dot3, gradient_normal, rhs_terms, stage_eval

TANGENCY_TOL = 1e-8


@dataclass(slots=True)
class IntegratorConfig:
    """Fixed-step integration settings.

    ``renormalize_every`` / ``project_tangency_every`` are step counts by the
    count rule (``errors.check_count``): integers >= 0, kept as ints, where 0
    means never; a float, bool or string raises ValidationError.
    Tangency re-projection is off by default: the drift of n . b is itself
    a diagnostic of the evolution law and projection would hide it.
    """

    dt: float = 1e-3
    t_end: float = 1.0
    method: str = "rk4_rodrigues"
    renormalize_every: int = 0
    project_tangency_every: int = 0

    def __post_init__(self):
        for name in ("dt", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.dt <= 0.0:
            raise ValidationError("dt must be positive")
        if self.method not in METHODS:
            raise ValidationError(f"unknown method {self.method!r}")
        for name in ("renormalize_every", "project_tangency_every"):
            setattr(self, name, check_count(name, getattr(self, name), 0, " (0 means never)"))


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
    Subclasses are ``@dataclass(eq=False)``s with a ``table`` field (no array ``==``).
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

    def __len__(self):
        return len(self.table)

    def __getattr__(self, name):
        if name not in self.INDEX:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        view = self.table[:, self.INDEX[name]]
        view.flags.writeable = False
        return view


@dataclass(eq=False)
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

    table: np.ndarray
    summary: InvariantSummary = None  # the run's InvariantSummary


_ROW = struct.Struct(f"{Trajectory.WIDTH}d")  # one record, as native float64s


def _rot_s(nx, ny, nz, tx, ty, tz):
    """Rodrigues rotation of (nx, ny, nz) by the rotation vector (tx, ty, tz).

    Exact axis-angle rotation, renormalized to absorb last-ulp rounding so
    the norm never random-walks; an angle that is not finite gives nan.
    """
    angle = math.sqrt(tx * tx + ty * ty + tz * tz)
    if angle == 0.0:
        return nx, ny, nz
    kx, ky, kz = tx / angle, ty / angle, tz / angle
    c, s = (math.cos(angle), math.sin(angle)) if angle < math.inf else (math.nan, math.nan)
    dot = (kx * nx + ky * ny + kz * nz) * (1.0 - c)
    ox = nx * c + (ky * nz - kz * ny) * s + kx * dot
    oy = ny * c + (kz * nx - kx * nz) * s + ky * dot
    oz = nz * c + (kx * ny - ky * nx) * s + kz * dot
    inv = 1.0 / math.sqrt(ox * ox + oy * oy + oz * oz)
    return ox * inv, oy * inv, oz * inv


def _add_s(nx, ny, nz, tx, ty, tz):
    """rk4_naive's action n + theta on float components."""
    return nx + tx, ny + ty, nz + tz


def _pullback_s(tx, ty, tz, ox, oy, oz, mx, my, mz):
    """rk4_rodrigues' rate: Omega pulled back to the rotation vector theta; m is unused.

    dexpinv(theta, w) = w - 1/2 theta x w + 1/12 theta x (theta x w) + ...;
    the omitted terms are O(|theta|^4), sufficient for a 4th-order method.
    """
    c1x = ty * oz - tz * oy
    c1y = tz * ox - tx * oz
    c1z = tx * oy - ty * ox
    c2x = ty * c1z - tz * c1y
    c2y = tz * c1x - tx * c1z
    c2z = tx * c1y - ty * c1x
    return (ox - 0.5 * c1x + c2x / 12.0,
            oy - 0.5 * c1y + c2y / 12.0,
            oz - 0.5 * c1z + c2z / 12.0)


def _tangent_s(tx, ty, tz, ox, oy, oz, mx, my, mz):
    """rk4_naive's rate: dn/dt = Omega x m at the stage direction m; theta is unused."""
    return cross((ox, oy, oz), (mx, my, mz))


METHODS = {"rk4_rodrigues": (_rot_s, _pullback_s), "rk4_naive": (_add_s, _tangent_s)}


def _advance(provider, t, r, n, beta, dt, k1, act, rate):
    """One RK4 step of the method (act, rate) from the float triples (r, n).

    ``k1`` holds the rates (ax, ay, az, ox, oy, oz) at the step's start, as
    :func:`stage_eval` returns them.  Stage i's direction increment is
    d_i = rate(theta_i, Omega_i, m_i); stage i + 1 sits at r + c_i a_i with
    direction act(n, theta_{i+1} = c_i d_i), and the step ends at
    act(n, dt/6 (d1 + 2 (d2 + d3) + d4)).  Returns the new (r, n).  A stage
    position that is not finite is never sampled: the step returns it as r.
    The test is ``(px - px) + (py - py) + (pz - pz) != 0.0``: ``x - x`` is
    exactly 0.0 for a finite float and nan for inf or nan.
    """
    rx, ry, rz = r
    nx, ny, nz = n
    a1x, a1y, a1z, ox, oy, oz = k1
    ax, ay, az = a1x, a1y, a1z
    # stage 1 sits at theta = 0, where the pull-back is Omega itself; evaluating
    # it there could turn a -0.0 component of Omega into +0.0
    d1x, d1y, d1z = dx, dy, dz = ((ox, oy, oz) if rate is _pullback_s
                                  else rate(0.0, 0.0, 0.0, ox, oy, oz, nx, ny, nz))
    sax = say = saz = sdx = sdy = sdz = -0.0  # stages 2 + 3; -0.0 + x is x, bit for bit
    for c in (0.5 * dt, 0.5 * dt, dt):
        tx, ty, tz = c * dx, c * dy, c * dz
        mx, my, mz = act(nx, ny, nz, tx, ty, tz)
        px, py, pz = rx + c * ax, ry + c * ay, rz + c * az
        if (px - px) + (py - py) + (pz - pz) != 0.0:  # not finite
            return (px, py, pz), (mx, my, mz)
        ax, ay, az, ox, oy, oz = stage_eval(provider, t + c, px, py, pz, mx, my, mz, beta)
        dx, dy, dz = rate(tx, ty, tz, ox, oy, oz, mx, my, mz)
        if c < dt:  # stages 2 and 3; the last one's rates stay in (ax, ..., dz)
            sax, say, saz = sax + ax, say + ay, saz + az
            sdx, sdy, sdz = sdx + dx, sdy + dy, sdz + dz

    sixth = dt / 6.0
    return ((rx + sixth * (a1x + 2.0 * sax + ax),
             ry + sixth * (a1y + 2.0 * say + ay),
             rz + sixth * (a1z + 2.0 * saz + az)),
            act(nx, ny, nz,
                sixth * (d1x + 2.0 * sdx + dx),
                sixth * (d1y + 2.0 * sdy + dy),
                sixth * (d1z + 2.0 * sdz + dz)))


def _project_tangent(n, b):
    """The triple n projected onto the plane orthogonal to the unit b, renormalized.

    Returns None when n is parallel to b (no tangential component left), or
    when the tangential part's squared norm overflows; the caller then keeps
    n, whose record is not finite.
    """
    d = dot3(n, b)
    mx, my, mz = (x - d * c for x, c in zip(n, b))
    nm = math.sqrt(mx * mx + my * my + mz * mz)
    return None if not 1e-12 <= nm < math.inf else (mx / nm, my / nm, mz / nm)


def _seed_triples(state0):
    """(r, n) of a seed state as float triples; ValidationError unless finite with |n| = 1."""
    r = tuple(_seed_vector("r", state0.r).tolist())
    n = tuple(_seed_vector("n", state0.n).tolist())
    if not all(map(math.isfinite, r + n)):
        raise ValidationError(f"seed state r = {r}, n = {n} is not finite")
    nrm = math.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2])  # inf where |n|^2 overflows
    if not abs(nrm - 1.0) <= 1e-9:  # written so that a NaN norm fails too
        raise ValidationError(f"|n0| = {nrm:.12g} is not a unit vector")
    return r, n


def tangent_seed(state0, provider):
    """The one seed projection: state0 with n projected onto the isobaric surface at r.

    Where |n . b| > 1e-8, n is projected onto the plane orthogonal to b and
    renormalized; otherwise, or where b is degenerate, state0 is returned as
    it is.  Raises InitialTangencyViolation where n is parallel to b, and
    ValidationError, before any sample, where the seed is not finite or n is
    not a unit vector.
    """
    r, n = _seed_triples(state0)
    bx, by, bz, gn = gradient_normal(provider.sample(r, float(state0.t)).kin)
    if gn == 0.0 or not abs(dot3(n, (bx, by, bz))) > TANGENCY_TOL:
        return state0  # a NaN n . b stays as it is
    if (n := _project_tangent(n, (bx, by, bz))) is None:
        raise InitialTangencyViolation("initial direction is parallel to the isobaric normal; "
                                       "no tangential projection exists")
    return replace(state0, n=np.array(n))


def integrate_trajectory(state0, provider, config):
    """Integrate from state0 to t_end, recording every step.

    The initial direction must satisfy the tangency constraint |n . b| <=
    1e-8 at the seed point (vacuous where b is degenerate), else
    InitialTangencyViolation; :func:`tangent_seed` projects a seed onto it.
    After the seed point, domain exit, a negative interpolated pressure, or a
    step or record that is not finite ends the trajectory early with a
    recorded reason; no field is sampled at a position that is not finite.
    A seed state or seed record that is not finite, or a horizon whose
    record table cannot be allocated, raises ValidationError before any
    step.  The loop runs on Python floats, packs each record into its row of
    the preallocated float64 table with one ``struct.pack_into`` (no numpy
    call per row), and builds the summary as rows arrive.  A record or step
    is finite when the sum of its values is; only a sum that is not finite,
    which finite terms can reach by overflow, tests each value.
    """
    t0 = float(state0.t)
    n_steps = step_count(t0, config.t_end, config.dt)
    try:
        table = np.empty((n_steps + 1, Trajectory.WIDTH))
    except (MemoryError, ValueError):  # ValueError: beyond numpy's largest array
        raise ValidationError(f"cannot allocate the table of {n_steps + 1} records; "
                              "shorten the horizon or lengthen dt") from None

    beta = float(state0.beta)
    r, n = _seed_triples(state0)
    ev = rhs_terms(provider, t0, r, n, beta)
    # ev[8:11] is b, zero where degenerate
    if (ndb := abs(dot3(n, ev[8:11]))) > TANGENCY_TOL:
        raise InitialTangencyViolation(f"|n0 . b| = {ndb:.3e} exceeds {TANGENCY_TOL:g}; "
                                       "project it with tangent_seed ([particle] "
                                       "project_initial = true) or seed tangentially")

    act, rate = METHODS[config.method]
    dt, renormalize, reproject = config.dt, config.renormalize_every, config.project_tangency_every
    reason = ""
    k = 0  # records written
    max_norm_err = max_abs_n_dot_b = 0.0  # the summary, built as rows arrive
    degenerate_steps = 0
    t = t0
    while True:
        # record the current state from its evaluation; b and n . b are zero where degenerate
        wx, wy, wz, _, _, _, v_th, p1, bx, by, bz, degenerate = ev
        rx, ry, rz = r
        nx, ny, nz = n
        bu = beta * v_th
        n_dot_b = 0.0 if degenerate else nx * bx + ny * by + nz * bz
        norm_err = abs(math.sqrt(nx * nx + ny * ny + nz * nz) - 1.0)
        row = (t, rx, ry, rz, nx, ny, nz, bu * nx, bu * ny, bu * nz, wx, wy, wz, v_th, p1,
               bx, by, bz, n_dot_b, norm_err, degenerate)
        if not (math.isfinite(sum(row)) or all(map(math.isfinite, row))):  # fields or |n|^2
            if not k:
                raise ValidationError(f"the seed record at r = {r}, n = {n}, t = {t!r} "
                                      "is not finite")
            reason = f"non_finite_state: the record at r = {r}, n = {n}, t = {t!r}"
            break
        _ROW.pack_into(table, k * _ROW.size, *row)
        k += 1
        if norm_err > max_norm_err:
            max_norm_err = norm_err
        if abs(n_dot_b) > max_abs_n_dot_b:
            max_abs_n_dot_b = abs(n_dot_b)
        if degenerate:
            degenerate_steps += 1
        if k > n_steps:
            break
        try:
            r1, n1 = _advance(provider, t, r, n, beta, dt, ev[:6], act, rate)
            if renormalize and k % renormalize == 0:
                nrm = math.sqrt(n1[0] * n1[0] + n1[1] * n1[1] + n1[2] * n1[2])
                if nrm < math.inf:  # else |n|^2 overflowed: keep n, whose record is not finite
                    n1 = tuple(x / nrm for x in n1)
            if not (math.isfinite(sum(r1) + sum(n1)) or all(map(math.isfinite, r1 + n1))):
                reason = f"non_finite_state: the step from r = {r}, n = {n}, t = {t!r}"
                break
            r, n, t = r1, n1, t0 + k * dt
            ev = rhs_terms(provider, t, r, n, beta)
            if reproject and k % reproject == 0 and not ev[11]:  # not degenerate
                proj = _project_tangent(n, ev[8:11])  # b
                if proj is not None:
                    n = proj
                    ev = rhs_terms(provider, t, r, n, beta)
        except (OutOfDomain, NegativePressure) as err:
            kind = "out_of_domain" if isinstance(err, OutOfDomain) else "negative_pressure"
            reason = f"{kind}: {err}"
            break

    if k <= n_steps:  # a run that stopped early copies its rows, so the unused rows can be freed
        table = table[:k].copy()
    return Trajectory(table, InvariantSummary(k - 1, max_norm_err, max_abs_n_dot_b,
                                              degenerate_steps, bool(reason), reason))
