import numpy as np
import pytest

from ttpsim import (LambOseenField, RigidRotationField, TaylorGreenField,
                    UniformField, UniformGradientField)


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
