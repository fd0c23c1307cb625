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
from dataclasses import dataclass, replace
from itertools import chain, islice

import numpy as np

from .errors import DegenerateGradient, NoOracle, ValidationError
from .fields.analytic import RigidRotationField, UniformField
from .integrate import Table, integrate_trajectory
from .kinetics import (TtpState, _normal, _rates, cross, gradient_normal, norm3, norm3_rows,
                       omega_decomposed, omega_direct, state_rhs)
from .ensemble import tangent_frame

_TINY = 1e-300
_ORACLE_TOL = 1e-10  # the largest |n0 . r_hat| of a seed with a rigid-rotation closed form
_DRIFT_FLOOR = 1e-13  # |n . b| is dimensionless: drifts at or below this are rounding
# points per chunk of a pointwise study, and rows per block of its random draws: numpy's
# per-call cost is shared by a chunk's stacked products and by a block's draw
_CHUNK = 64
_HESSIAN = [7, 8, 9, 8, 10, 11, 9, 11, 12]  # kin entries of the Hessian, row by row


def fit_order(steps, errors):
    """Least-squares slope of log(error) against log(step)."""
    steps = np.asarray(steps, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(steps) < 2 or np.any(errors <= 0.0):
        return float("nan")
    return float(np.polyfit(np.log(steps), np.log(errors), 1)[0])


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


def _random_interior_points(provider, count, rng):
    """``count`` random points of the reference box, drawn now; float triples made per chunk."""
    try:
        u = rng.random((count, 3))
    except (MemoryError, ValueError):  # ValueError: beyond numpy's largest array
        raise ValidationError(f"cannot allocate {count} random points") from None
    lo, hi = provider.reference_box
    shrink = 0.02
    pts = lo + (hi - lo) * (shrink + (1.0 - 2.0 * shrink) * u)
    return chain.from_iterable(map(tuple, pts[i:i + _CHUNK].tolist())
                               for i in range(0, count, _CHUNK))


def _rows(draw):
    """The rows of successive ``draw()`` blocks, one at a time; each block is drawn when needed.

    A study takes one row per kept point, after its points are drawn.  A
    block draw gives the numbers of as many single draws, and nothing draws
    from a study's generator after its rows, so the k-th kept point takes
    the numbers of the k-th single draw, wherever the skipped points fall.
    """
    while True:
        yield from draw().tolist()


def _chunks(items, evaluate):
    """``evaluate`` of each of ``items`` in point order, as one list per chunk of ``_CHUNK``.

    A chunk stops at the first exception, whether ``evaluate`` or ``items``
    raised it.  The results before it are yielded and the exception is
    raised when the next chunk is asked for, so a caller that checks each
    chunk reports the first failure in point order.
    """
    items = iter(items)
    while True:
        done = []
        try:
            for x in islice(items, _CHUNK):
                done.append(evaluate(x))
        except Exception:  # any failure: raised once the caller has checked the earlier points
            yield done
            raise
        yield done
        if len(done) < _CHUNK:
            return


def _random_states(provider, count, seed, t):
    """The (sample, b, r, n) of each random point with a non-degenerate gradient, in point order.

    ``b`` (from ``_normal``), ``r`` and the random unit ``n`` are float
    triples; the k-th kept point takes the k-th random direction (:func:`_rows`).
    A sample that raises is raised at its point; DegenerateGradient is raised
    if no point is kept.
    """
    def unit_vectors():
        v = rng.normal(size=(_CHUNK, 3))
        return v / norm3_rows(v)[:, None]

    rng = np.random.default_rng(seed)
    points = _random_interior_points(provider, count, rng)
    directions = _rows(unit_vectors)
    kept = 0
    for r in points:
        s = provider.sample(r, t)
        *b, degenerate = _normal(s.kin)
        if not degenerate:
            kept += 1
            yield s, b, r, tuple(next(directions))
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
    dg/dt = dt g + H (V + u) and db/dt = (1 - bb) dg/dt / |g|, with |g|
    from ``gradient_normal``, finite where |g|^2 overflows.  Points with
    degenerate gradient are skipped; a point where either term or the
    normalizer is not finite raises ValidationError.
    """
    def scalars(state):
        s, b, r, n = state
        kin = s.kin
        w = _rates(kin, *n, beta)[:3]  # V + u
        omxn = cross(omega_direct(s, TtpState(t=t, r=r, n=n, beta=beta)).tolist(), n)
        return kin, gradient_normal(kin)[3], b, r, n, w, omxn

    worst = 0.0
    for done in _chunks(_random_states(provider, n_states, seed, t), scalars):
        if done:
            kin, gn, b, r, n, w, omxn = zip(*done)
            K, b, n, omxn = np.array(kin), np.array(b), np.array(n), np.array(omxn)
            gn = np.array(gn)[:, None]
            # numpy keeps H w, the dots and the norms, whose fused rounding reaches the residual;
            # one stacked call per product rounds each point as its own call did
            with np.errstate(over="ignore", invalid="ignore"):  # each point is checked below
                H = np.ascontiguousarray(K[:, _HESSIAN]).reshape(-1, 3, 3)
                gdot = K[:, 13:16] + np.matmul(H, np.array(w)[:, :, None])[:, :, 0]
                rate_scale = norm3_rows(gdot / gn)
                bdot = (gdot - np.vecdot(b, gdot)[:, None] * b) / gn
                t1, t2 = np.vecdot(omxn, b).tolist(), np.vecdot(n, bdot).tolist()
                denom = (norm3_rows(omxn) + norm3_rows(bdot) + rate_scale).tolist()
            for p, a, c, d in zip(r, t1, t2, denom):
                d = max(d, _TINY)
                if not all(map(math.isfinite, (a, c, d))):
                    raise ValidationError(f"non-finite cancellation terms at r = {p}")
                worst = max(worst, abs(a + c) / d)
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

    At each kept point the isobaric normal is evaluated at (r +/- h w,
    t +/- h) with w = V + u frozen at the center; the centered difference
    approximates db/dt along the particle path to O(h^2) and b x (that)
    approximates the rotation rate.  Points with a degenerate gradient, with
    |grad p1hat| <= g_min or with degenerate displaced stencils are skipped and
    counted; a point whose V + u or residuals are not finite raises
    ValidationError.  Points are evaluated whole and in order, so the first
    failure in point order is raised, and the k-th point past the degenerate
    and g_min tests takes the k-th random angle (:func:`_rows`).
    """
    def evaluate(r):
        s = provider.sample(r, t)
        *b, degenerate = _normal(s.kin)
        if degenerate or norm3(s.kin[4:7]) <= g_min:
            return None
        phi = next(phis)
        e1, e2 = (e.tolist() for e in tangent_frame(b))
        n = [math.cos(phi) * x + math.sin(phi) * y for x, y in zip(e1, e2)]
        w = _rates(s.kin, *n, beta)[:3]  # V + u
        if not all(map(math.isfinite, w)):  # nor is the stencil r +- h w
            raise ValidationError(f"V + u is not finite at r = {r}")
        bp = _normal(provider.sample(tuple(x + h * v for x, v in zip(r, w)), t + h).kin)
        bm = _normal(provider.sample(tuple(x - h * v for x, v in zip(r, w)), t - h).kin)
        if bp[3] or bm[3]:
            return None
        om_fd = cross(b, [(x - y) / (2.0 * h) for x, y in zip(bp[:3], bm[:3])])
        br = omega_decomposed(s, TtpState(t=t, r=r, n=n, beta=beta))
        return r, br.omega_direct, om_fd, br.residual

    rng = np.random.default_rng(seed)
    points = _random_interior_points(provider, n_points, rng)
    phis = _rows(lambda: rng.uniform(0.0, 2.0 * math.pi, _CHUNK))
    rows = []
    # each row is checked for finiteness; this also covers omega_decomposed's products
    with np.errstate(over="ignore", invalid="ignore"):
        for done in _chunks(points, evaluate):
            done = [d for d in done if d is not None]  # None: a skipped point
            if done:
                r, direct, om_fd, residual = zip(*done)
                direct = np.array(direct)
                om_norms = norm3_rows(direct).tolist()
                fd_norms = norm3_rows(direct - np.array(om_fd)).tolist()
                for p, om_norm, fd_norm, res in zip(r, om_norms, fd_norms, residual):
                    om_norm = max(om_norm, _TINY)
                    row = (*p, fd_norm / om_norm, res, res / om_norm)
                    if not all(map(math.isfinite, row)):
                        raise ValidationError(
                            f"non-finite rotation-rate residuals at r = {row[:3]}")
                    rows.append(row)
    return OmegaIdentityReport(
        provider_name=provider.name, h=h, beta=beta, seed=seed,
        requested=n_points, skipped=n_points - len(rows),
        table=np.array(rows, dtype=float).reshape(-1, OmegaIdentityReport.WIDTH))


def reduced_divergence_report(provider, n_states=100, seed=0, beta=1.0, t=0.0):
    """Divergence of the reduced right-hand side over random states.

    The six-dimensional vector field (dr/dt, dn/dt) on (r, n) space has no
    asserted invariant measure; its divergence (estimated here by central
    differences in each coordinate) is emitted as a diagnostic.  Returns
    (max |div|, median |div|, states evaluated); a state whose divergence is
    not finite raises ValidationError.
    """
    h = 1e-6
    divs = []
    for _, _, p, n in _random_states(provider, n_states, seed, t):
        div = 0.0
        for i in range(3):
            # v +/- h e_i; the other components are v's own (adding 0.0 would turn -0.0 into 0.0)
            rp, rm, n_p, n_m = (v[:i] + (v[i] + d,) + v[i + 1:] for v in (p, n) for d in (h, -h))
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
    of the direction; the direction co-rotates.
    """
    # exact type checks: a subclass overriding sample() voids the closed form
    if type(provider) is UniformField:
        kin = provider.sample(state0.r, state0.t).kin
        w = np.array(_rates(kin, *state0.n.tolist(), state0.beta)[:3])  # V + u
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
        if abs(float(n0 @ rhat)) > _ORACLE_TOL:
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
