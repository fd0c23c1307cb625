"""Property tests: the invariants and the stop contract over drawn runs.

Each example draws an analytic provider and its parameters, a seed point in
its reference box, a direction tangent to the isobaric surface there,
``beta``, ``dt`` (up to 30, far past stability), the method and the
renormalization and tangency-projection periods.  Whatever
the run does, it must either cover its horizon or stop with a recorded
reason, and every record it keeps must be finite and consistent.
"""

import json
import math
from dataclasses import asdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ttpsim import (IntegratorConfig, LambOseenField, RigidRotationField, TaylorGreenField,
                    TtpState, UniformField, UniformGradientField, integrate_trajectory,
                    isobaric_normal, tangent_frame)
from ttpsim.integrate import step_count

REASONS = ("out_of_domain: ", "negative_pressure: ", "non_finite_state: ")


def _real(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# zero or well above underflow: |u|^2 must not go subnormal in the checks
_pressure = st.just(0.0) | _real(0.01, 2)


def _velocity(draw):
    return {key: draw(_real(-2, 2)) for key in ("V0x", "V0y", "V0z")}


@st.composite
def _providers(draw):
    name = draw(st.sampled_from(("uniform", "uniform_gradient", "rigid_rotation",
                                 "taylor_green", "lamb_oseen")))
    if name == "uniform":
        return UniformField(p0=draw(_pressure), **_velocity(draw))
    if name == "uniform_gradient":
        return UniformGradientField(p0=draw(_real(0.1, 4)), gx=draw(_real(-2, 2)),
                                    gy=draw(_real(-2, 2)), gz=draw(_real(0.1, 2)),
                                    **_velocity(draw))
    if name == "rigid_rotation":
        return RigidRotationField(omega=draw(_real(-3, 3)), p0=draw(_pressure),
                                  c=draw(_real(0.01, 3)))
    if name == "taylor_green":
        A = draw(_real(-2, 2))
        return TaylorGreenField(A=A, k=draw(_real(0.2, 3)), nu=draw(_real(0, 1)),
                                p0=0.5 * A * A + draw(_real(0.01, 2)))
    p0 = draw(_real(0.1, 3))
    return LambOseenField(Gamma=draw(_real(-3, 3)), rc=draw(_real(0.2, 2)),
                          W=draw(_real(-1, 1)), p0=p0, pa=p0 * draw(_real(0, 0.95)))


@st.composite
def _runs(draw):
    provider = draw(_providers())
    lo, hi = provider.reference_box
    r0 = lo + (hi - lo) * np.array([draw(_real(0.05, 0.95)) for _ in range(3)])
    phi = draw(_real(0, 2 * math.pi))
    b = isobaric_normal(provider.sample(r0, 0.0))
    if b is None:  # degenerate gradient: any direction is tangent
        e1, e2 = np.array((1.0, 0.0, 0.0)), np.array((0.0, 1.0, 0.0))
    else:
        e1, e2 = tangent_frame(b)
    state = TtpState(t=0.0, r=r0, n=math.cos(phi) * e1 + math.sin(phi) * e2,
                     beta=draw(st.just(0.0) | _real(1e-3, 3)))
    dt = draw(_real(1e-3, 30))
    config = IntegratorConfig(dt=dt, t_end=dt * draw(st.integers(1, 40)),
                              method=draw(st.sampled_from(("rk4_rodrigues", "rk4_naive"))),
                              renormalize_every=draw(st.integers(0, 4)),
                              project_tangency_every=draw(st.integers(0, 4)))
    return provider, state, config


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_runs())
def test_run_covers_horizon_or_records_reason(run):
    provider, state, config = run
    traj = integrate_trajectory(state, provider, config)
    s = traj.summary
    n_steps = step_count(0.0, config.t_end, config.dt)
    if s.terminated_early:
        assert s.termination_reason.startswith(REASONS), s.termination_reason
        assert s.steps < n_steps
    else:
        assert s.termination_reason == ""
        assert s.steps == n_steps
    assert len(traj) == s.steps + 1
    assert np.all(np.isfinite(traj.table))
    assert np.all(np.any(traj.n != 0.0, axis=1))  # no direction silently zeroed
    json.dumps(asdict(s), allow_nan=False)

    # each record's relative velocity is beta v_th along its direction
    assert np.array_equal(traj.u, (state.beta * traj.v_th)[:, None] * traj.n)
    if config.method == "rk4_rodrigues":
        # the direction stays a unit vector, so |u| = beta v_th on every record
        assert np.max(traj.norm_err) <= 1e-15
        speed = np.hypot(np.hypot(traj.u[:, 0], traj.u[:, 1]), traj.u[:, 2])  # no overflow
        np.testing.assert_allclose(speed, state.beta * traj.v_th, rtol=4e-15, atol=0)
