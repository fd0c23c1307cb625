"""Numerical verification campaigns.

Three kinds of check live here:

* pointwise identities: the analytic cancellation that keeps n . b constant,
  and the rotation-rate pseudo-vector against a finite-difference rate of
  the isobaric normal along the particle path;
* discrete-order studies: tangency drift and global position error versus
  step size, fitted on log-log axes;
* closed-form trajectory oracles for providers that admit them (uniform
  translation, and the circular/helical orbits of the rigid-rotation field).

The residual between the two rotation-rate routes is always reported and
never asserted; the term-by-term decomposition is a documented diagnostic.
The pointwise studies take ``n_points`` and ``n_states`` (>= 1) and ``seed``
(>= 0) by the count rule, and ``beta``, ``t``, ``h`` (> 0) and ``g_min``
(>= 0) by the real-number rule, so a bad argument raises ValidationError.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateGradient, NoOracle, ValidationError, check_count, check_real
from .fields.analytic import RigidRotationField, UniformField
from .integrate import Table, _seed, integrate_trajectory
from .kinetics import (TtpState, _rates, cross, dot3, gradient_normal, hess_dot, norm3,
                       omega_decomposed, omega_direct, state_rhs, tangent_frame)

_TINY = 1e-300
_ORACLE_TOL = 1e-10  # the largest |n0 . r_hat| of a seed with a rigid-rotation closed form
_DRIFT_FLOOR = 1e-13  # |n . b| is dimensionless: drifts at or below this are rounding
# rows per block of a pointwise study's random draws, and of its points turned into float
# triples: numpy's per-call cost is shared by a block
_BLOCK = 64


def fit_order(steps, errors):
    """Least-squares slope of log(error) against log(step), in closed form.

    Its sums are ``math.fsum``'s, exactly rounded.  nan for fewer than two
    points, equal step sizes or an error that is not positive."""
    if len(steps) < 2 or not all(e > 0.0 for e in errors):
        return math.nan
    x = [math.log(s) for s in steps]
    y = [math.log(e) for e in errors]
    xm, ym = math.fsum(x) / len(x), math.fsum(y) / len(y)
    sxx = math.fsum((a - xm) * (a - xm) for a in x)
    return math.fsum((a - xm) * (b - ym) for a, b in zip(x, y)) / sxx if sxx > 0.0 else math.nan


def _median(values):
    """``np.median`` of a non-empty sequence of floats, bit for bit, without importing ``numpy.ma``.

    The middle value, or (a + b) / 2 of the two middle values, as np.median takes their mean."""
    v = sorted(values)
    k = len(v) // 2
    return v[k] if len(v) % 2 else (v[k - 1] + v[k]) / 2.0


def _or_nan(stat, column):
    """``stat`` (max or _median) of a table column's floats, or nan for an empty column.

    Python's max equals np.max here: every kept row is finite."""
    values = column.tolist()
    return stat(values) if values else math.nan


def _kept_points(provider, count, seed, t, draw, g_min=0.0):
    """(sample, b, |g|, r, row) of each kept random point of the reference box, in point order.

    The ``count`` points are drawn first, in one block, and turned into float
    triples per block.  A point is kept unless :func:`gradient_normal`'s |g|
    is 0 or at most ``g_min``.  The k-th kept point takes the k-th row of
    successive ``draw(rng)`` blocks, each drawn when needed: a block draw
    gives the numbers of as many single draws, and nothing else draws from
    ``rng`` after the points, so that row is the k-th single draw wherever
    the skipped points fall.  A sample that raises is raised at its point.
    """
    rng = np.random.default_rng(check_count("seed", seed, 0))
    t = check_real("t", t)
    try:
        u = rng.random((count, 3))
    except (MemoryError, ValueError):  # ValueError: beyond numpy's largest array
        raise ValidationError(f"cannot allocate {count} random points") from None
    lo, hi = provider.reference_box
    shrink = 0.02
    pts = lo + (hi - lo) * (shrink + (1.0 - 2.0 * shrink) * u)
    blocks = range(0, count, _BLOCK)
    rows = (row for _ in blocks for row in draw(rng).tolist())
    for i in blocks:
        for r in map(tuple, pts[i:i + _BLOCK].tolist()):
            s = provider.sample(r, t)
            *b, gn = gradient_normal(s.kin)
            if gn == 0.0 or gn <= g_min:  # a nan |g| is kept
                continue
            yield s, b, gn, r, next(rows)


def _random_states(provider, count, seed, t):
    """(sample, b, |g|, r, n) of each random point with a non-degenerate gradient, in point order.

    The points kept by :func:`_kept_points`; ``n`` is the point's row of
    normal draws, made unit.  ``b``, ``r`` and ``n`` are float triples.
    DegenerateGradient is raised if no point is kept.
    """
    kept = 0
    for s, b, gn, r, v in _kept_points(provider, count, seed, t,
                                       lambda rng: rng.normal(size=(_BLOCK, 3))):
        kept += 1
        nrm = norm3(v)
        yield s, b, gn, r, (v[0] / nrm, v[1] / nrm, v[2] / nrm)
    if kept == 0:
        raise DegenerateGradient("no non-degenerate states found")


# --- pointwise identity checks ---------------------------------------------

def cancellation_check(provider, n_states=1000, seed=0, beta=1.0, t=0.0):
    """Max relative residual of (Omega x n) . b + n . db/dt over random states.

    The two terms cancel exactly in real arithmetic for any unit n, which is
    what conserves the tangency constraint in continuous time.  Both are
    projections of the normal-rate vector (dg/dt)/|g| and round at that
    operand's scale even where the projections themselves are tiny, so the
    residual is normalized by |Omega x n| + |db/dt| + |dg/dt|/|g|, where
    dg/dt = dt g + H (V + u) and db/dt = (1 - bb) dg/dt / |g|: float triples,
    with b and |g| from :func:`_random_states`, and a TtpState of float64
    arrays.  Points with degenerate gradient are skipped; a point where
    either term or the normalizer is not finite raises ValidationError.
    """
    n_states = check_count("n_states", n_states, 1)
    beta = check_real("beta", beta)
    worst = 0.0
    for s, b, gn, r, n in _random_states(provider, n_states, seed, t):
        (bx, by, bz), (hx, hy, hz) = b, hess_dot(s.kin, _rates(s.kin, *n, beta)[:3])  # H (V + u)
        omxn = cross(omega_direct(s, TtpState(t, np.array(r), np.array(n), beta)).tolist(), n)
        gx, gy, gz = s.kin[13] + hx, s.kin[14] + hy, s.kin[15] + hz  # dg/dt
        sb = bx * gx + by * gy + bz * gz
        bdot = (gx - sb * bx) / gn, (gy - sb * by) / gn, (gz - sb * bz) / gn
        t1, t2 = dot3(omxn, b), dot3(n, bdot)
        denom = max(norm3(omxn) + norm3(bdot) + norm3((gx / gn, gy / gn, gz / gn)), _TINY)
        if not all(map(math.isfinite, (t1, t2, denom))):
            raise ValidationError(f"non-finite cancellation terms at r = {r}")
        worst = max(worst, abs(t1 + t2) / denom)
    return worst


@dataclass(eq=False)
class OmegaIdentityReport(Table):
    """Residuals of the rotation-rate identity over a random point sweep.

    ``table`` holds one row per evaluated point: the point, then
    ``res_fd`` = |omega_direct - b x (fd db/dt)| / |omega_direct|, the
    route-split residual |omega_direct - omega_decomposed| and that residual
    relative to |omega_direct|.
    """

    LAYOUT = (("points", "x,y,z"), ("res_fd", "res_fd"), ("res_split_abs", "res_split_abs"),
              ("res_split_rel", "res_split_rel"))

    provider_name: str
    h: float
    beta: float
    seed: int
    requested: int
    table: np.ndarray

    skipped = property(lambda self: self.requested - len(self))
    max_fd = property(lambda self: _or_nan(max, self.res_fd))
    median_fd = property(lambda self: _or_nan(_median, self.res_fd))
    max_split_rel = property(lambda self: _or_nan(max, self.res_split_rel))
    median_split_rel = property(lambda self: _or_nan(_median, self.res_split_rel))

    def to_text(self):
        return "\n".join([
            f"rotation-rate identity sweep: provider={self.provider_name} "
            f"h={self.h:g} beta={self.beta:g} seed={self.seed}",
            f"  points evaluated {len(self.res_fd)} / {self.requested} "
            f"(skipped {self.skipped} degenerate)",
            f"  finite-difference residual   max {self.max_fd:.3e}  "
            f"median {self.median_fd:.3e}",
            f"  route-split residual (diag.) max {self.max_split_rel:.3e}  "
            f"median {self.median_split_rel:.3e}",
            "  note: the route-split residual documents the term-by-term",
            "  decomposition's disagreement with the direct route; it has no",
            "  pass threshold.",
        ])


def omega_identity_sweep(provider, n_points=100, seed=0, h=1e-5, beta=0.5, t=0.0,
                         g_min=1e-3):
    """Compare the direct rotation rate against a path finite difference.

    At each kept point n = cos(phi) e1 + sin(phi) e2 and the isobaric normal
    is evaluated at (r +/- h w, t +/- h) with w = V + u frozen at the center,
    all on float triples; the centered difference approximates db/dt along
    the particle path to O(h^2) and b x (that) approximates the rotation
    rate.  A point's TtpState is built from float64 arrays.  Points with a
    degenerate gradient, with |grad p1hat| <= g_min or with degenerate
    displaced stencils are skipped and counted; a point whose V + u or
    residuals are not finite raises ValidationError.  Points are evaluated
    whole and in order, so the first failure in point order is raised, and
    the k-th point past the degenerate and g_min tests takes the k-th random
    angle (:func:`_kept_points`).
    """
    n_points = check_count("n_points", n_points, 1)
    h, g_min = check_real("h", h, 0.0, strict=True), check_real("g_min", g_min, 0.0)
    beta = check_real("beta", beta)
    rows = []
    for s, b, _, r, phi in _kept_points(provider, n_points, seed, t,
                                        lambda rng: rng.uniform(0.0, 2.0 * math.pi, _BLOCK), g_min):
        (e1x, e1y, e1z), (e2x, e2y, e2z) = (e.tolist() for e in tangent_frame(b))
        c, sn = math.cos(phi), math.sin(phi)
        n = c * e1x + sn * e2x, c * e1y + sn * e2y, c * e1z + sn * e2z
        (x, y, z), (wx, wy, wz) = r, _rates(s.kin, *n, beta)[:3]  # r, V + u
        if not all(map(math.isfinite, (wx, wy, wz))):  # nor is the stencil r +- h w
            raise ValidationError(f"V + u is not finite at r = {r}")
        bp = gradient_normal(provider.sample((x + h * wx, y + h * wy, z + h * wz), t + h).kin)
        bm = gradient_normal(provider.sample((x - h * wx, y - h * wy, z - h * wz), t - h).kin)
        if bp[3] == 0.0 or bm[3] == 0.0:
            continue
        om_fd = cross(b, [(p - m) / (2.0 * h) for p, m in zip(bp[:3], bm[:3])])
        br = omega_decomposed(s, TtpState(t, np.array(r), np.array(n), beta))
        direct = br.omega_direct.tolist()
        om_norm = max(norm3(direct), _TINY)
        fd_norm = norm3([d - f for d, f in zip(direct, om_fd)])
        row = (*r, fd_norm / om_norm, br.residual, br.residual / om_norm)
        if not all(map(math.isfinite, row)):
            raise ValidationError(f"non-finite rotation-rate residuals at r = {row[:3]}")
        rows.append(row)
    return OmegaIdentityReport(
        provider_name=provider.name, h=h, beta=beta, seed=seed, requested=n_points,
        table=np.array(rows, dtype=float).reshape(-1, OmegaIdentityReport.WIDTH))


def reduced_divergence_report(provider, n_states=100, seed=0, beta=1.0, t=0.0):
    """Divergence of the reduced right-hand side over random states.

    The six-dimensional vector field (dr/dt, dn/dt) on (r, n) space has no
    asserted invariant measure; its divergence (estimated here by central
    differences in each coordinate, at 12 displaced points per state that keep
    every other component as it is, -0.0 included) is emitted as a
    diagnostic.  Returns (max |div|, median |div|, states evaluated); a state
    whose divergence is not finite raises ValidationError.
    """
    n_states = check_count("n_states", n_states, 1)
    beta = check_real("beta", beta)
    h = 1e-6
    divs = []
    for _, _, _, p, n in _random_states(provider, n_states, seed, t):
        (x, y, z), (nx, ny, nz) = p, n
        div = 0.0
        # r, n +/- h e_i; the other components stay as they are (+ 0.0 would turn -0.0 to 0.0)
        for i, (rp, rm, n_p, n_m) in enumerate((
                ((x + h, y, z), (x - h, y, z), (nx + h, ny, nz), (nx - h, ny, nz)),
                ((x, y + h, z), (x, y - h, z), (nx, ny + h, nz), (nx, ny - h, nz)),
                ((x, y, z + h), (x, y, z - h), (nx, ny, nz + h), (nx, ny, nz - h)))):
            dp, dm = state_rhs(provider, t, rp, n, beta), state_rhs(provider, t, rm, n, beta)
            div += (dp[i] - dm[i]) / (2.0 * h)
            dp, dm = state_rhs(provider, t, p, n_p, beta), state_rhs(provider, t, p, n_m, beta)
            div += (dp[3 + i] - dm[3 + i]) / (2.0 * h)
        if not math.isfinite(div):
            raise ValidationError(f"non-finite divergence at r = {p}, n = {n}")
        divs.append(abs(div))
    return max(divs), _median(divs), len(divs)


# --- discrete-order studies -------------------------------------------------

@dataclass(slots=True)
class OrderStudy:
    """Table of (step, measure) pairs with a fitted log-log order."""

    kind: str
    steps: list
    values: list
    order: float
    note: str = ""

    def to_text(self):
        lines = [f"{self.kind} study:"]
        for dt, v in zip(self.steps, self.values):
            lines.append(f"  dt={dt:<12g} {v:.6e}")
        if math.isnan(self.order):
            lines.append("  fitted order: n/a (measure at rounding floor)")
        else:
            lines.append(f"  fitted order: {self.order:.3f}")
        if self.note:
            lines.append(f"  {self.note}")
        return "\n".join(lines)


def tangency_drift_study(provider, state0, config, dt_list):
    """Max |n . b| over a run of ``config`` at each step size; expected order ~4.

    Where every drift is at most 1e-13 there is no order to fit: the order is nan."""
    drifts = []
    for dt in dt_list:
        traj = integrate_trajectory(state0, provider, replace(config, dt=dt))
        drifts.append(traj.summary.max_abs_n_dot_b)
    floor = max(drifts, default=0.0) <= _DRIFT_FLOOR
    return OrderStudy(kind="tangency drift", steps=list(dt_list), values=drifts,
                      order=math.nan if floor else fit_order(dt_list, drifts))


def convergence_study(provider, state0, config, dt_list):
    """Final position error of a run of ``config`` against the oracle, per step size.

    A non-finite error raises ValidationError naming its step size."""
    if len(dt_list) < 3:
        raise ValidationError("need at least 3 step sizes to fit an order")
    oracle = trajectory_oracle(provider, state0)
    errs = []
    for dt in dt_list:
        traj = integrate_trajectory(state0, provider, replace(config, dt=dt))
        r_exact, _ = oracle(traj.t[-1])
        if not math.isfinite(err := norm3(traj.r[-1] - r_exact)):
            raise ValidationError(f"non-finite position error at dt = {dt!r}")
        errs.append(err)
    note = ""
    if max(errs) <= 1e-12:
        order = float("nan")
        note = "errors at rounding floor; no order to fit"
    else:
        order = fit_order(dt_list, errs)
        if math.isnan(order):
            note = "one or more errors exactly zero; order fit skipped"
    return OrderStudy(kind="position error", steps=list(dt_list), values=errs,
                      order=order, note=note)


# --- closed-form trajectory oracles ------------------------------------------

def trajectory_oracle(provider, state0):
    """Closed-form (r(t), n(t)) for supported providers, else NoOracle.

    Uniform field: straight-line translation with frozen direction.
    Rigid rotation: for a seed direction tangent to the isobaric cylinder,
    the orbit is a helix at fixed radius traversed at constant angular rate
    omega + alpha beta v_th(R) / R, where alpha is the azimuthal component
    of the direction; the direction co-rotates.  The seed is read as
    :func:`integrate_trajectory` reads it.
    """
    t0, r, n0, beta = _seed(state0)
    # exact type checks: a subclass overriding sample() voids the closed form
    if type(provider) is UniformField:
        w = np.array(_rates(provider.sample(r, t0).kin, *n0, beta)[:3])  # V + u
        r0, n0 = np.array(r), np.array(n0)

        def _uniform(t):
            return r0 + (t - t0) * w, n0.copy()

        return _uniform

    if type(provider) is RigidRotationField:
        x0, y0, z0 = r
        R = math.hypot(x0, y0)
        if R <= 0.0:
            raise NoOracle("seed on the rotation axis has no closed form")
        th0 = math.atan2(y0, x0)
        rhat = (x0 / R, y0 / R, 0.0)
        phihat = (-y0 / R, x0 / R, 0.0)
        if abs(dot3(n0, rhat)) > _ORACLE_TOL:
            raise NoOracle("closed form requires the seed direction tangent "
                           "to the isobaric cylinder")
        alpha = dot3(n0, phihat)
        gamma = n0[2]
        vth = math.sqrt(2.0 * provider.p0 + provider.c * R * R)
        thdot = provider.omega + alpha * beta * vth / R
        vz = gamma * beta * vth

        def _helix(t):
            th = th0 + thdot * (t - t0)
            r = np.array((R * math.cos(th), R * math.sin(th), z0 + vz * (t - t0)))
            n = alpha * np.array((-math.sin(th), math.cos(th), 0.0)) \
                + np.array((0.0, 0.0, gamma))
            return r, n

        return _helix

    raise NoOracle(f"no closed-form trajectory for provider {provider.name!r}")
