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
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGradient, NoOracle, ValidationError
from .fields import EPS_GRAD_DEFAULT
from .fields.analytic import RigidRotationField, UniformField
from .integrate import IntegratorConfig, Table, integrate_trajectory
from .kinetics import (TtpState, isobaric_normal, isobaric_normal_rate,
                       omega_decomposed, omega_direct, relative_velocity,
                       state_rhs, thermal_velocity)
from .ensemble import tangent_frame

_TINY = 1e-300


def fit_order(steps, errors):
    """Least-squares slope of log(error) against log(step)."""
    steps = np.asarray(steps, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(steps) < 2 or np.any(errors <= 0.0):
        return float("nan")
    return float(np.polyfit(np.log(steps), np.log(errors), 1)[0])


def _random_interior_points(provider, count, rng, shrink=0.02):
    lo, hi = provider.reference_box
    span = hi - lo
    return lo + span * (shrink + (1.0 - 2.0 * shrink) * rng.random((count, 3)))


def _random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


# --- pointwise identity checks ---------------------------------------------

def cancellation_check(provider, n_states=1000, seed=0, beta=1.0,
                       eps_grad=EPS_GRAD_DEFAULT, t=0.0):
    """Max relative residual of (Omega x n) . b + n . db/dt over random states.

    The two terms cancel exactly in real arithmetic for any unit n, which is
    what conserves the tangency constraint in continuous time.  Both are
    projections of the normal-rate vector (dg/dt)/|g| and round at that
    operand's scale even where the projections themselves are tiny, so the
    residual is normalized by |Omega x n| + |db/dt| + |dg/dt|/|g|.  Points
    with degenerate gradient are skipped.
    """
    rng = np.random.default_rng(seed)
    pts = _random_interior_points(provider, n_states, rng)
    worst = 0.0
    evaluated = 0
    for p in pts:
        s = provider.sample(p, t)
        b = isobaric_normal(s, eps_grad)
        if b is None:
            continue
        n = _random_unit(rng)
        st = TtpState(t=t, r=p, n=n, beta=beta)
        om = omega_direct(s, st, eps_grad)
        bdot = isobaric_normal_rate(s, st, eps_grad)
        omxn = np.cross(om, n)
        t1 = float(omxn @ b)
        t2 = float(n @ bdot)
        w = s.V + relative_velocity(st, s)
        gdot = s.dt_grad_p1hat + s.hess_p1hat @ w
        rate_scale = float(np.linalg.norm(gdot)) / float(np.linalg.norm(s.grad_p1hat))
        denom = max(float(np.linalg.norm(omxn)) + float(np.linalg.norm(bdot))
                    + rate_scale, _TINY)
        worst = max(worst, abs(t1 + t2) / denom)
        evaluated += 1
    if evaluated == 0:
        raise DegenerateGradient("no non-degenerate states found")
    return worst


@dataclass
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
    skipped: int
    table: np.ndarray

    @property
    def max_fd(self):
        return float(np.max(self.res_fd)) if len(self.res_fd) else float("nan")

    @property
    def median_fd(self):
        return float(np.median(self.res_fd)) if len(self.res_fd) else float("nan")

    @property
    def max_split_rel(self):
        return float(np.max(self.res_split_rel)) if len(self.res_split_rel) else float("nan")

    @property
    def median_split_rel(self):
        return float(np.median(self.res_split_rel)) if len(self.res_split_rel) else float("nan")

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


def omega_identity_sweep(provider, n_points=100, seed=0, h=1e-5, beta=0.5,
                         eps_grad=EPS_GRAD_DEFAULT, t=0.0, g_min=1e-3):
    """Compare the direct rotation rate against a path finite difference.

    At each kept point the isobaric normal is evaluated at (r +/- h w,
    t +/- h) with w = V + u frozen at the center; the centered difference
    approximates db/dt along the particle path to O(h^2) and b x (that)
    approximates the rotation rate.  Points with |grad p1hat| <= g_min (or
    degenerate displaced stencils) are skipped and counted.
    """
    rng = np.random.default_rng(seed)
    pts = _random_interior_points(provider, n_points, rng)
    rows = []
    skipped = 0
    for p in pts:
        s = provider.sample(p, t)
        g = s.grad_p1hat
        if float(np.linalg.norm(g)) <= max(g_min, eps_grad):
            skipped += 1
            continue
        b = isobaric_normal(s, eps_grad)
        e1, e2 = tangent_frame(b)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        n = math.cos(phi) * e1 + math.sin(phi) * e2
        st = TtpState(t=t, r=p, n=n, beta=beta)
        w = s.V + relative_velocity(st, s)

        sp = provider.sample(p + h * w, t + h)
        sm = provider.sample(p - h * w, t - h)
        bp = isobaric_normal(sp, eps_grad)
        bm = isobaric_normal(sm, eps_grad)
        if bp is None or bm is None:
            skipped += 1
            continue
        bdot_fd = (bp - bm) / (2.0 * h)
        om_fd = np.cross(b, bdot_fd)
        om = omega_direct(s, st, eps_grad)
        res_fd = float(np.linalg.norm(om - om_fd)) / max(float(np.linalg.norm(om)), _TINY)

        br = omega_decomposed(s, st, eps_grad)
        rows.append((*p, res_fd, br.residual,
                     br.residual / max(float(np.linalg.norm(br.omega_direct)), _TINY)))
    return OmegaIdentityReport(
        provider_name=provider.name, h=h, beta=beta, seed=seed,
        requested=n_points, skipped=skipped,
        table=np.array(rows, dtype=float).reshape(-1, OmegaIdentityReport.WIDTH))


def reduced_divergence_report(provider, n_states=100, seed=0, beta=1.0,
                              eps_grad=EPS_GRAD_DEFAULT, t=0.0, h=1e-6):
    """Divergence of the reduced right-hand side over random states.

    The six-dimensional vector field (dr/dt, dn/dt) on (r, n) space has no
    asserted invariant measure; its divergence (estimated here by central
    differences in each coordinate) is emitted as a diagnostic.  Returns
    (max |div|, median |div|, states evaluated).
    """
    rng = np.random.default_rng(seed)
    pts = _random_interior_points(provider, n_states, rng)
    divs = []
    for p in pts:
        s = provider.sample(p, t)
        if isobaric_normal(s, eps_grad) is None:
            continue
        n = _random_unit(rng)
        div = 0.0
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            dp = state_rhs(TtpState(t=t, r=p + e, n=n, beta=beta), provider,
                           eps_grad)
            dm = state_rhs(TtpState(t=t, r=p - e, n=n, beta=beta), provider,
                           eps_grad)
            div += (dp.dr_dt[i] - dm.dr_dt[i]) / (2.0 * h)
            np_ = state_rhs(TtpState(t=t, r=p, n=n + e, beta=beta), provider,
                            eps_grad)
            nm = state_rhs(TtpState(t=t, r=p, n=n - e, beta=beta), provider,
                           eps_grad)
            div += (np_.dn_dt[i] - nm.dn_dt[i]) / (2.0 * h)
        divs.append(abs(div))
    if not divs:
        raise DegenerateGradient("no non-degenerate states found")
    divs = np.array(divs)
    return float(np.max(divs)), float(np.median(divs)), len(divs)


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


def tangency_drift_study(provider, state0, dt_list, t_end, method="rk4_rodrigues",
                         eps_grad=EPS_GRAD_DEFAULT, renormalize_every=0,
                         project_initial=False):
    """Max |n . b| over a run, for each step size; expected order ~4."""
    drifts = []
    for dt in dt_list:
        cfg = IntegratorConfig(dt=dt, t_end=t_end, method=method,
                               eps_grad=eps_grad, renormalize_every=renormalize_every)
        traj = integrate_trajectory(state0, provider, cfg,
                                    project_initial=project_initial)
        drifts.append(traj.summary.max_abs_n_dot_b)
    return OrderStudy(kind="tangency drift", steps=list(dt_list), values=drifts,
                      order=fit_order(dt_list, drifts))


def convergence_study(provider, state0, dt_list, t_end, method="rk4_rodrigues",
                      eps_grad=EPS_GRAD_DEFAULT):
    """Global position error against the closed-form trajectory oracle."""
    if len(dt_list) < 3:
        raise ValidationError("need at least 3 step sizes to fit an order")
    oracle = trajectory_oracle(provider, state0)
    errs = []
    for dt in dt_list:
        cfg = IntegratorConfig(dt=dt, t_end=t_end, method=method, eps_grad=eps_grad)
        traj = integrate_trajectory(state0, provider, cfg)
        r_exact, _ = oracle(traj.t[-1])
        errs.append(float(np.linalg.norm(traj.r[-1] - r_exact)))
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

def trajectory_oracle(provider, state0, tol=1e-10):
    """Closed-form (r(t), n(t)) for supported providers, else NoOracle.

    Uniform field: straight-line translation with frozen direction.
    Rigid rotation: for a seed direction tangent to the isobaric cylinder,
    the orbit is a helix at fixed radius traversed at constant angular rate
    omega + alpha beta v_th(R) / R, where alpha is the azimuthal component
    of the direction; the direction co-rotates.
    """
    # exact type checks: a subclass overriding sample() voids the closed form
    if type(provider) is UniformField:
        s = provider.sample(state0.r, state0.t)
        vth = thermal_velocity(s)
        w = s.V + state0.beta * vth * state0.n
        r0, n0, t0 = state0.r.copy(), state0.n.copy(), state0.t

        def _uniform(t):
            return r0 + (t - t0) * w, n0.copy()

        return _uniform

    if type(provider) is RigidRotationField:
        x0, y0, z0 = (float(c) for c in state0.r)
        R = math.hypot(x0, y0)
        if R <= 0.0:
            raise NoOracle("seed on the rotation axis has no closed form")
        th0 = math.atan2(y0, x0)
        rhat = np.array((x0 / R, y0 / R, 0.0))
        phihat = np.array((-y0 / R, x0 / R, 0.0))
        n0 = state0.n
        if abs(float(n0 @ rhat)) > tol:
            raise NoOracle("closed form requires the seed direction tangent "
                           "to the isobaric cylinder")
        alpha = float(n0 @ phihat)
        gamma = float(n0[2])
        vth = math.sqrt(2.0 * provider.p0 + provider.c * R * R)
        thdot = provider.omega + alpha * state0.beta * vth / R
        vz = gamma * state0.beta * vth
        t0 = state0.t

        def _helix(t):
            th = th0 + thdot * (t - t0)
            r = np.array((R * math.cos(th), R * math.sin(th), z0 + vz * (t - t0)))
            n = alpha * np.array((-math.sin(th), math.cos(th), 0.0)) \
                + np.array((0.0, 0.0, gamma))
            return r, n

        return _helix

    raise NoOracle(f"no closed-form trajectory for provider {provider.name!r}")
