"""Ensembles of tracer particles and their sample statistics.

Seeding places N unit directions on the circle tangent to the local
isobaric surface at one point, either equispaced or i.i.d. uniform from a
seeded generator.  Under the uniform measure on that circle the sample
moments at the seed time reconstruct the fluid exactly: the mean relative
velocity vanishes, so the mean particle velocity equals the fluid velocity,
and the covariance of u is (beta^2 v_th^2 / 2)(1 - bb).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGradient, EmptyEnsemble, ValidationError
from .fields import EPS_GRAD_DEFAULT
from .integrate import Table, Trajectory, integrate_trajectory
from .kinetics import TtpState, isobaric_normal, relative_velocity


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


@dataclass(slots=True)
class EnsembleStats:
    """Sample moments of particle velocity at one common time."""

    mean_v: np.ndarray
    mean_u: np.ndarray
    cov_u: np.ndarray
    n_effective: int


def tangent_frame(b):
    """Deterministic right-handed orthonormal frame (e1, e2, b).

    e1 = normalize(a x b) with a = z_hat unless |b . z_hat| > 0.9, in which
    case a = x_hat; e2 = b x e1.
    """
    a = np.array((0.0, 0.0, 1.0)) if abs(b[2]) <= 0.9 else np.array((1.0, 0.0, 0.0))
    e1 = np.cross(a, b)
    e1 = e1 / np.linalg.norm(e1)
    e2 = np.cross(b, e1)
    return e1, e2


def seed_tangent_circle(spec, provider, eps_grad=EPS_GRAD_DEFAULT):
    """N unit directions in the plane orthogonal to b(r0, t0).

    Equispaced sampling uses angles 2 pi k / N in the deterministic tangent
    frame; random sampling draws i.i.d. uniform angles from the seeded
    generator, so a fixed seed reproduces the ensemble bit-identically.
    """
    r0 = np.asarray(spec.r0, dtype=float)
    s = provider.sample(r0, spec.t0)
    b = isobaric_normal(s, eps_grad)
    if b is None:
        raise DegenerateGradient("pressure gradient degenerate at the seed point")
    e1, e2 = tangent_frame(b)
    if spec.sampling == "equispaced_circle":
        angles = 2.0 * math.pi * np.arange(spec.count) / spec.count
    else:
        rng = np.random.default_rng(spec.seed)
        angles = rng.uniform(0.0, 2.0 * math.pi, spec.count)
    states = []
    for a in angles:
        n = math.cos(a) * e1 + math.sin(a) * e2
        states.append(TtpState(t=spec.t0, r=r0.copy(), n=n, beta=spec.beta))
    return states


def ensemble_stats(states, provider):
    """Sample moments over an ensemble at a common time (population 1/N)."""
    if len(states) == 0:
        raise EmptyEnsemble("no particles to average")
    t = states[0].t
    if any(st.t != t for st in states):
        raise ValidationError("ensemble_stats requires a common time")
    U = np.empty((len(states), 3))
    Vv = np.empty((len(states), 3))
    for i, st in enumerate(states):
        smp = provider.sample(st.r, st.t)
        U[i] = relative_velocity(st, smp)
        Vv[i] = smp.V + U[i]
    return _moments(Vv, U)


def _moments(Vv, U):
    mean_v = Vv.mean(axis=0)
    mean_u = U.mean(axis=0)
    D = U - mean_u
    cov = D.T @ D / len(U)
    cov = 0.5 * (cov + cov.T)
    return EnsembleStats(mean_v=mean_v, mean_u=mean_u, cov_u=cov, n_effective=len(U))


class EnsembleHistory(Table):
    """Stats time series over an evolving ensemble of ``count`` seeded particles.

    ``table`` holds one row per output time in COLUMNS order.  ``cov_u``
    holds the upper triangle of the covariance, row by row: xx, xy, xz, yy,
    yz, zz.  ``excluded`` counts the particles dropped before each time.
    """

    LAYOUT = (("t", "t"), ("n_effective", "n_effective"),
              ("mean_v", "mean_vx,mean_vy,mean_vz"), ("mean_u", "mean_ux,mean_uy,mean_uz"),
              ("cov_u", "cov_uxx,cov_uxy,cov_uxz,cov_uyy,cov_uyz,cov_uzz"))
    FLAGS = ("n_effective",)

    def __init__(self, table, count):
        super().__init__(table)
        self.count = count

    @property
    def excluded(self):
        return self.count - self.n_effective


def check_stride(stride):
    """Reject a stats output stride below one step."""
    if stride < 1:
        raise ValidationError("stride must be >= 1")


def evolve_ensemble(states, provider, config, stride=1):
    """Advance each particle independently; compute stats every ``stride`` steps.

    Particles whose trajectories leave the domain early are excluded from
    statistics at later output times and counted, so n_effective + excluded
    equals the seeded count at every output time.  Raises EmptyEnsemble if
    an output time has no survivors.

    Returns (trajectories, EnsembleHistory).
    """
    if len(states) == 0:
        raise EmptyEnsemble("no particles to evolve")
    check_stride(stride)
    trajectories = [integrate_trajectory(st, provider, config) for st in states]
    n_steps = max(len(tr) for tr in trajectories) - 1
    out_idx = list(range(0, n_steps + 1, stride))
    if out_idx[-1] != n_steps:
        out_idx.append(n_steps)

    table = np.empty((len(out_idx), EnsembleHistory.WIDTH))
    t, v, u = (Trajectory.INDEX[name] for name in ("t", "v", "u"))
    upper = np.triu_indices(3)
    for j, idx in enumerate(out_idx):
        alive = [tr for tr in trajectories if len(tr) > idx]
        if not alive:
            raise EmptyEnsemble(f"no surviving particles at output step {idx}")
        rows = np.array([tr.table[idx] for tr in alive])
        # contiguous (N, 3) operands keep the summation order of _moments
        m = _moments(np.ascontiguousarray(rows[:, v]), np.ascontiguousarray(rows[:, u]))
        table[j] = (rows[0, t], m.n_effective, *m.mean_v, *m.mean_u, *m.cov_u[upper])
    return trajectories, EnsembleHistory(table, len(states))
