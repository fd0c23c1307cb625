import io
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import numpy as np
import pytest

from ttpsim import (IntegratorConfig, LambOseenField, RigidRotationField, TaylorGreenField,
                    UniformField, UniformGradientField, evolve_ensemble)
from ttpsim.cli import main


@pytest.fixture
def uniform():
    return UniformField(V0x=1.0, V0y=0.0, V0z=0.0, p0=0.5)


@pytest.fixture
def uniform_gradient():
    return UniformGradientField(V0x=0.7, V0y=-0.2, V0z=0.1, p0=2.0,
                                gx=0.0, gy=0.0, gz=1.0)


@pytest.fixture
def rigid():
    return RigidRotationField(omega=1.0, p0=0.5, c=1.0)


@pytest.fixture
def taylor_green():
    return TaylorGreenField(A=1.0, k=1.0, nu=0.0, p0=1.0)


@pytest.fixture
def taylor_green_decaying():
    return TaylorGreenField(A=1.0, k=1.0, nu=0.3, p0=1.0)


@pytest.fixture
def lamb_oseen():
    return LambOseenField(Gamma=1.0, rc=1.0, W=0.5, p0=1.0, pa=0.5)


def smooth_nonlinear_providers():
    """Providers whose fields have nonvanishing higher derivatives."""
    return [TaylorGreenField(A=1.0, k=1.0, nu=0.3, p0=1.0),
            LambOseenField(Gamma=1.0, rc=1.0, W=0.5, p0=1.0, pa=0.5)]


def all_builtin_providers():
    return [UniformField(),
            UniformGradientField(),
            RigidRotationField(),
            TaylorGreenField(nu=0.3),
            LambOseenField()]


def interior_points(provider, count, seed):
    rng = np.random.default_rng(seed)
    lo, hi = provider.reference_box
    return lo + (hi - lo) * (0.05 + 0.9 * rng.random((count, 3)))


def seed_time_moments(states, provider, dt=1e-2):
    """Row 0 of ``evolve_ensemble`` over one step, with the full 3x3 ``cov_u``.

    The covariance is rebuilt from the row's upper triangle.
    """
    t0 = float(states[0].t)
    _, hist = evolve_ensemble(states, provider, IntegratorConfig(dt=dt, t_end=t0 + dt))
    upper = np.triu_indices(3)
    cov = np.empty((3, 3))
    cov[upper] = cov.T[upper] = hist.cov_u[0]
    return SimpleNamespace(mean_v=hist.mean_v[0], mean_u=hist.mean_u[0], cov_u=cov)


# a seed inside each analytic provider's domain, as [particle] lines
EDGE_SEEDS = {"uniform": "r0 = 0 0 0\nn0 = 0 0 1",
              "uniform_gradient": "r0 = 0.1 0.2 0.1\nauto_tangent = true",
              "rigid_rotation": "r0 = 1.2 0.3 0.1\nauto_tangent = true",
              "taylor_green": "r0 = 2.1 3.3 1.7\nauto_tangent = true",
              "lamb_oseen": "r0 = 0.6 -0.3 0.1\nauto_tangent = true"}


def spy_positions(provider, seen):
    """provider, with its sample and sample_kinetic appending each position they get to seen."""
    for name in ("sample", "sample_kinetic"):
        def spy(r, t, method=getattr(provider, name)):
            seen.append(tuple(map(float, r)))
            return method(r, t)
        setattr(provider, name, spy)
    return provider


def verify_non_finite(out_dir, label):
    """The non-finite values in a verify run's CSVs and divergence line, as messages."""
    bad = [f"{label}, verify: non-finite {csv.name}" for csv in sorted(out_dir.glob("*.csv"))
           if len(csv.read_text().splitlines()) > 1  # a header-only CSV holds no value
           and not np.all(np.isfinite(np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)))]
    bad += [f"{label}, verify: {line}"
            for line in (out_dir / "verify_report.txt").read_text().splitlines()
            if line.startswith("reduced-state RHS divergence") and ("nan" in line or "inf" in line)]
    return bad


def edge_run_breaches(argv, out_dir, t_last, label):
    """Run ``cli.main(argv)`` writing to out_dir; how it breaks the edge contract, as messages.

    No exception escapes, the exit code is 0, 2 or 3, and a failure prints
    one ``error:`` line and nothing else to stderr.  A simulate or ensemble
    run that exits 0 writes only finite numbers, and its last row is at
    ``t_last`` or it says it terminated early.  A verify run that exits 0
    writes only finite CSVs, and its divergence line holds no nan or inf.
    """
    command = argv[0]
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # noqa: BLE001 - every escape is a breach
        return [f"{label}, {command}: {exc!r}"]
    out, err = out.getvalue(), err.getvalue()
    if code not in (0, 2, 3) or (code != 0 and not (err.startswith("error: ")
                                                    and err.count("\n") == 1)):
        return [f"{label}, {command}: exit {code} {err!r}"]
    if code != 0:
        return []
    if command == "verify":
        return verify_non_finite(out_dir, label)
    table = out_dir / {"simulate": "trajectory.csv", "ensemble": "stats.csv"}[command]
    lines = table.read_text().splitlines()
    rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
    bad = []
    if not np.all(np.isfinite(rows)):
        bad.append(f"{label}, {command}: non-finite output")
    if "terminated early (" not in out and (not len(rows) or rows[-1, 0] != t_last):
        bad.append(f"{label}, {command}: ends short silently")
    return bad
