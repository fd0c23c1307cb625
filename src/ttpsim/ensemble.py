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

from .errors import EmptyEnsemble, ValidationError, check_count
from .integrate import Table, Trajectory, integrate_trajectory, step_count
from .kinetics import TtpState, _seed_vector, isobaric_normal, tangent_frame


@dataclass(slots=True)
class EnsembleSpec:
    """Seeding recipe for a tangent-circle ensemble at one point.

    ``r0`` is kept as given, if it keeps the seed-vector rule
    (``kinetics._seed_vector``); seeding converts it.  ``count`` (>= 1) and
    ``seed`` (>= 0) keep the count rule (``errors.check_count``) and are kept
    as ints: a float, bool or string count raises ValidationError.
    """

    r0: tuple
    t0: float = 0.0
    count: int = 64
    sampling: str = "equispaced_circle"
    seed: int = 0
    beta: float = 1.0

    def __post_init__(self):
        _seed_vector("r0", self.r0)
        self.count = check_count("count", self.count, 1)
        if self.sampling not in ("equispaced_circle", "random_circle"):
            raise ValidationError(f"unknown sampling {self.sampling!r}")
        self.seed = check_count("seed", self.seed, 0)


def seed_tangent_circle(spec, provider):
    """N unit directions in the plane orthogonal to b(r0, t0).

    Equispaced sampling uses angles 2 pi k / N in the deterministic tangent
    frame; random sampling draws i.i.d. uniform angles from the seeded
    generator, so a fixed seed reproduces the ensemble bit-identically.
    One array pass forms every direction cos(a) e1 + sin(a) e2, and each
    state's ``r`` and ``n`` are its own rows of two (count, 3) arrays, which
    the seed-vector rule takes as they are; a count whose angles, directions
    or positions cannot be allocated raises ValidationError.
    """
    r0 = np.asarray(spec.r0, dtype=float)
    e1, e2 = tangent_frame(isobaric_normal(provider.sample(r0, spec.t0)))
    try:
        if spec.sampling == "equispaced_circle":
            angles = 2.0 * math.pi * np.arange(spec.count) / spec.count
        else:
            angles = np.random.default_rng(spec.seed).uniform(0.0, 2.0 * math.pi, spec.count)
        directions = np.cos(angles)[:, None] * e1 + np.sin(angles)[:, None] * e2
        positions = np.full((len(directions), 3), r0)
    except (MemoryError, ValueError):  # ValueError: beyond numpy's largest array
        directions = ()
    if len(directions) < spec.count:  # np.arange of 2**63 or more is empty
        raise ValidationError(f"cannot draw {spec.count} seed angles; lower count")
    return [TtpState(t=spec.t0, r=r, n=n, beta=spec.beta) for r, n in zip(positions, directions)]


_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))  # cov_u's upper triangle, row by row


def _odd_sum(c):
    """numpy's pairwise ``sum`` of c; a sum that cancels exactly takes the sign of c's
    first nonzero term (+0.0 if it has none), so ``_odd_sum(-c) == -_odd_sum(c)`` bit
    for bit, zeros included."""
    s = c.sum()
    if s == 0.0:
        nonzero = np.flatnonzero(c)
        s = math.copysign(0.0, c[nonzero[0]]) if len(nonzero) else 0.0
    return s


def _moments(Vv, U):
    """mean_v, mean_u and the upper triangle of cov_u over (N, 3) rows (population 1/N).

    Every sum is ``_odd_sum`` of one contiguous column; a covariance entry
    sums the elementwise product of two columns of D = U - mean_u, so cov_u
    is symmetric as computed, and a sign flip of one component flips the
    moments it enters bit for bit."""
    n = len(U)
    V, U = Vv.T.copy(), U.T.copy()  # one contiguous row per component
    mean_v = [_odd_sum(c) / n for c in V]
    mean_u = [_odd_sum(c) / n for c in U]
    D = [c - m for c, m in zip(U, mean_u)]
    return (*mean_v, *mean_u, *(_odd_sum(D[i] * D[j]) / n for i, j in _UPPER))


@dataclass(eq=False)
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

    table: np.ndarray
    count: int
    termination_reason: str = ""

    @property
    def excluded(self):
        return self.count - self.n_effective


def check_stride(stride):
    """The stats output stride in steps, as an int, by the count rule: an integer >= 1."""
    return check_count("stride", stride, 1)


def evolve_ensemble(states, provider, config, stride=1):
    """Advance each particle independently; compute stats every ``stride`` steps.

    The states must share one time t0.  Output times are every ``stride``
    steps from t0 and t_end itself.  Particles whose trajectories stop early
    are excluded from statistics at later output times and counted, so
    n_effective + excluded equals the seeded count at every output time.
    The stats stop before the first output time that no particle reaches
    (``no_survivors``) or whose moments are not finite (``non_finite_state``),
    and the history records why.  Output times that cannot be allocated
    raise ValidationError before any particle runs.

    Returns (trajectories, EnsembleHistory).  Each trajectory holds only the
    particle's records at the output times it reached, with the whole run's
    ``summary``, so memory grows with the output times, not the steps.
    """
    if len(states) == 0:
        raise EmptyEnsemble("no particles to evolve")
    t0 = float(states[0].t)
    if any(st.t != t0 for st in states):
        raise ValidationError("the ensemble's states must share one time")
    stride = check_stride(stride)
    n_steps = step_count(t0, config.t_end, config.dt)
    try:
        out_idx = [*range(0, n_steps, stride), n_steps]
    except (MemoryError, OverflowError):  # OverflowError: beyond a list's largest length
        raise ValidationError(f"cannot allocate {(n_steps - 1) // stride + 2} output times; "
                              "shorten the horizon, lengthen dt or raise stride") from None
    trajectories = []
    for st in states:  # one particle's full table is alive at a time
        full = integrate_trajectory(st, provider, config)
        rows = full.table[out_idx[:bisect_left(out_idx, len(full))]]
        trajectories.append(Trajectory(rows, full.summary))

    table = np.empty((len(out_idx), EnsembleHistory.WIDTH))
    t, v, u = (Trajectory.INDEX[name] for name in ("t", "v", "u"))
    reason, j = "", 0
    for idx in out_idx:  # row j of each trajectory is output time j
        rows = np.array([tr.table[j] for tr in trajectories if len(tr) > j])
        if not len(rows):  # no row to read t from: compute it as integrate_trajectory does
            reason = f"no_survivors: all particles stopped before t = {t0 + idx * config.dt!r}"
            break
        with np.errstate(over="ignore", invalid="ignore"):  # the row is checked below
            row = (rows[0, t], len(rows), *_moments(rows[:, v], rows[:, u]))
        if not all(map(math.isfinite, row)):
            reason = f"non_finite_state: the moments at t = {float(rows[0, t])!r}"
            break
        table[j] = row
        j += 1
    return trajectories, EnsembleHistory(table[:j], len(states), reason)
