from types import SimpleNamespace

import numpy as np
import pytest

from ttpsim import (IntegratorConfig, LambOseenField, RigidRotationField, TaylorGreenField,
                    UniformField, UniformGradientField, evolve_ensemble)


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
