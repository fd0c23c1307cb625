"""Ensembles of tracer particles and their sample statistics.

Seeding places N unit directions on the circle tangent to the local
isobaric surface at one point, either equispaced or i.i.d. uniform from a
seeded generator.  Under the uniform measure on that circle the sample
moments at the seed time reconstruct the fluid exactly: the mean relative
velocity vanishes, so the mean particle velocity equals the fluid velocity,
and the covariance of u is (beta^2 v_th^2 / 2)(1 - bb).
"""

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGradient, EmptyEnsemble, ValidationError
from .integrate import Table, Trajectory, integrate_trajectory, step_count
from .kinetics import TtpState, cross, isobaric_normal, norm3


@dataclass(slots=True)
class EnsembleSpec:
    """Seeding recipe for a tangent-circle ensemble at one point.

    ``r0`` is kept as given (any 3-sequence); seeding converts it.
    """

    r0: tuple
    t0: float = 0.0
    count: int = 64
    sampling: str = "equispaced_circle"
    seed: int = 0
    beta: float = 1.0

    def __post_init__(self):
        if self.count < 1:
            raise ValidationError("count must be >= 1")
        if self.sampling not in ("equispaced_circle", "random_circle"):
            raise ValidationError(f"unknown sampling {self.sampling!r}")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")


def tangent_frame(b):
    """Deterministic right-handed orthonormal frame (e1, e2, b).

    e1 = normalize(a x b) with a = z_hat unless |b . z_hat| > 0.9, in which
    case a = x_hat; e2 = b x e1.
    """
    b = np.asarray(b, dtype=float).tolist()
    e1 = cross((0.0, 0.0, 1.0) if abs(b[2]) <= 0.9 else (1.0, 0.0, 0.0), b)
    nrm = norm3(e1)
    e1 = [c / nrm for c in e1]
    return np.array(e1), np.array(cross(b, e1))


def seed_tangent_circle(spec, provider):
    """N unit directions in the plane orthogonal to b(r0, t0).

    Equispaced sampling uses angles 2 pi k / N in the deterministic tangent
    frame; random sampling draws i.i.d. uniform angles from the seeded
    generator, so a fixed seed reproduces the ensemble bit-identically.
    A count whose angles cannot be drawn raises ValidationError.
    """
    r0 = np.asarray(spec.r0, dtype=float)
    s = provider.sample(r0, spec.t0)
    b = isobaric_normal(s)
    if b is None:
        raise DegenerateGradient("pressure gradient degenerate at the seed point")
    e1, e2 = (e.tolist() for e in tangent_frame(b))
    try:
        if spec.sampling == "equispaced_circle":
            angles = 2.0 * math.pi * np.arange(spec.count) / spec.count
        else:
            angles = np.random.default_rng(spec.seed).uniform(0.0, 2.0 * math.pi, spec.count)
    except (MemoryError, ValueError):  # ValueError: beyond numpy's largest array
        angles = ()
    if len(angles) < spec.count:  # np.arange of 2**63 or more is empty
        raise ValidationError(f"cannot draw {spec.count} seed angles; lower count")
    states = []
    for a in angles.tolist():
        n = [math.cos(a) * x + math.sin(a) * y for x, y in zip(e1, e2)]
        states.append(TtpState(t=spec.t0, r=r0.copy(), n=n, beta=spec.beta))
    return states


def _moments(Vv, U):
    """mean_v, mean_u and the upper triangle of cov_u over (N, 3) rows (population 1/N)."""
    mean_v = Vv.mean(axis=0)
    mean_u = U.mean(axis=0)
    D = U - mean_u
    cov = D.T @ D / len(U)
    cov = 0.5 * (cov + cov.T)
    return (*mean_v, *mean_u, *cov[np.triu_indices(3)])


class EnsembleHistory(Table):
    """Stats time series over an evolving ensemble of ``count`` seeded particles.

    ``table`` holds one row per output time in COLUMNS order.  ``cov_u``
    holds the upper triangle of the covariance, row by row: xx, xy, xz, yy,
    yz, zz.  ``excluded`` counts the particles dropped before each time.
    ``termination_reason`` says why the rows end before t_end, or is ``""``.
    """

    LAYOUT = (("t", "t"), ("n_effective", "n_effective"),
              ("mean_v", "mean_vx,mean_vy,mean_vz"), ("mean_u", "mean_ux,mean_uy,mean_uz"),
              ("cov_u", "cov_uxx,cov_uxy,cov_uxz,cov_uyy,cov_uyz,cov_uzz"))
    FLAGS = ("n_effective",)

    def __init__(self, table, count, termination_reason=""):
        super().__init__(table)
        self.count = count
        self.termination_reason = termination_reason

    @property
    def excluded(self):
        return self.count - self.n_effective


def check_stride(stride):
    """Reject a stats output stride below one step."""
    if stride < 1:
        raise ValidationError("stride must be >= 1")


def evolve_ensemble(states, provider, config, stride=1):
    """Advance each particle independently; compute stats every ``stride`` steps.

    The states must share one time t0.  Output times are every ``stride``
    steps from t0 and t_end itself.  Particles whose trajectories stop early
    are excluded from statistics at later output times and counted, so
    n_effective + excluded equals the seeded count at every output time.
    The stats stop before the first output time that no particle reaches
    (``no_survivors``) or whose moments are not finite (``non_finite_state``),
    and the history records why.

    Returns (trajectories, EnsembleHistory).  Each trajectory holds only the
    particle's records at the output times it reached, with the whole run's
    ``summary``, so memory grows with the output times, not the steps.
    """
    if len(states) == 0:
        raise EmptyEnsemble("no particles to evolve")
    t0 = float(states[0].t)
    if any(st.t != t0 for st in states):
        raise ValidationError("the ensemble's states must share one time")
    check_stride(stride)
    n_steps = step_count(t0, config.t_end, config.dt)
    out_idx = list(range(0, n_steps + 1, stride))
    if out_idx[-1] != n_steps:
        out_idx.append(n_steps)
    trajectories = []
    for st in states:  # one particle's full table is alive at a time
        full = integrate_trajectory(st, provider, config)
        tr = Trajectory(full.table[out_idx[:bisect_left(out_idx, len(full))]])
        tr.summary = full.summary
        trajectories.append(tr)

    table = np.empty((len(out_idx), EnsembleHistory.WIDTH))
    t, v, u = (Trajectory.INDEX[name] for name in ("t", "v", "u"))
    reason, j = "", 0
    for idx in out_idx:  # row j of each trajectory is output time j
        alive = [tr for tr in trajectories if len(tr) > j]
        if not alive:  # no row to read t from: compute it as integrate_trajectory does
            reason = f"no_survivors: all particles stopped before t = {t0 + idx * config.dt!r}"
            break
        rows = np.array([tr.table[j] for tr in alive])
        # contiguous (N, 3) operands keep the summation order of the moments
        with np.errstate(over="ignore", invalid="ignore"):  # the row is checked below
            row = (rows[0, t], len(alive), *_moments(np.ascontiguousarray(rows[:, v]),
                                                    np.ascontiguousarray(rows[:, u])))
        if not all(map(math.isfinite, row)):
            reason = f"non_finite_state: the moments at t = {float(rows[0, t])!r}"
            break
        table[j] = row
        j += 1
    return trajectories, EnsembleHistory(table[:j], len(states), reason)
