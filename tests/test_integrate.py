"""Stepper and trajectory integration tests."""

import math
import re
import warnings

import numpy as np
import pytest
from conftest import spy_positions

from ttpsim import (EnsembleSpec, FieldProvider, InitialTangencyViolation, IntegratorConfig,
                    LambOseenField, RigidRotationField, TaylorGreenField, TtpState, UniformField,
                    UniformGradientField, ValidationError, evolve_ensemble, integrate_trajectory,
                    seed_tangent_circle, tangent_seed, trajectory_oracle)
from ttpsim.integrate import InvariantSummary, _rot_s
from ttpsim.kinetics import stage_eval


def _state(n, beta=1.0, r=(0, 0, 0), t=0.0):
    return TtpState(t=t, r=np.array(r, dtype=float), n=np.array(n, dtype=float),
                    beta=beta)


# --- Rodrigues rotation ------------------------------------------------------

def _rotate(n, omega, dt):
    """n rotated about omega by the angle |omega| dt, as the stepper does it."""
    return _rot_s(*n, *(np.asarray(omega, dtype=float) * dt))


def test_rotate_half_turn():
    n = _rotate((1.0, 0, 0), (0, 0, math.pi), 1.0)
    np.testing.assert_allclose(n, (-1.0, 0.0, 0.0), atol=1e-14)


def test_rotate_zero_is_bit_exact():
    # the triple is immutable, so returning the input itself cannot alias it
    n0 = (0.6, 0.8, 0.0)
    n = _rotate(n0, np.zeros(3), 0.5)
    assert n == n0


def test_rotate_quarter_turn():
    n = _rotate((1.0, 0, 0), (0, 0, 1.0), math.pi / 2)
    np.testing.assert_allclose(n, (0.0, 1.0, 0.0), atol=1e-14)


def test_rotate_norm_preserved_random():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        om = rng.normal(size=3) * 10.0
        out = _rotate(n.tolist(), om, rng.uniform(0, 2))
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-15


@pytest.mark.parametrize("theta", [(math.inf, 0.0, 0.0), (1e200, -1e200, 0.0)])
def test_rotate_by_an_angle_that_is_not_finite_gives_a_direction_that_is_not(theta):
    # an infinite angle raised ValueError from math.cos; a step now stops on the direction
    assert not any(map(math.isfinite, _rot_s(0.6, 0.8, 0.0, *theta)))


# --- single step -------------------------------------------------------------

def test_step_constant_rhs_exact(uniform):
    cfg = IntegratorConfig(dt=0.1, t_end=0.1)
    st = _state((0, 1, 0), beta=1.0, r=(0, 0, 0))
    traj = integrate_trajectory(st, uniform, cfg)
    assert traj.summary.steps == 1
    # V0 = (1,0,0), v_th = 1, u = (0,1,0): constant RHS, RK4 exact
    np.testing.assert_array_equal(traj.r[-1], (0.1, 0.1, 0.0))
    np.testing.assert_array_equal(traj.n[-1], (0.0, 1.0, 0.0))
    assert traj.t[-1] == 0.1


def test_step_beta_zero_matches_passive_tracer(taylor_green):
    # independent plain RK4 advection of dr/dt = V(r)
    def rhs(r):
        return taylor_green.sample(r, 0.0).V

    dt = 1e-3
    r = np.array((2.1, 3.3, 1.7))
    k1 = rhs(r)
    k2 = rhs(r + 0.5 * dt * k1)
    k3 = rhs(r + 0.5 * dt * k2)
    k4 = rhs(r + dt * k3)
    r_ref = r + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)

    from ttpsim import isobaric_normal, tangent_frame
    e1, _ = tangent_frame(isobaric_normal(taylor_green.sample(r, 0.0)))
    st = _state(e1, beta=0.0, r=r)
    traj = integrate_trajectory(st, taylor_green, IntegratorConfig(dt=dt, t_end=dt))
    assert traj.summary.steps == 1
    np.testing.assert_allclose(traj.r[-1], r_ref, rtol=0, atol=1e-14)


@pytest.mark.parametrize("method", ["rk4_rodrigues", "rk4_naive"])
def test_step_one_revolution_order(method):
    prov = RigidRotationField(omega=1.0, p0=0.5, c=1.0)
    st = _state((0, 1, 0), beta=1.0, r=(1.0, 0, 0))
    oracle = trajectory_oracle(prov, st)
    v_th = math.sqrt(2.0)
    period = 2.0 * math.pi / (1.0 + v_th)
    errs = []
    for dt in (period / 100, period / 200):
        cfg = IntegratorConfig(dt=dt, t_end=period, method=method)
        traj = integrate_trajectory(st, prov, cfg)
        r_exact, _ = oracle(traj.t[-1])
        errs.append(np.linalg.norm(traj.r[-1] - r_exact))
    assert errs[0] / errs[1] > 12.0  # ~2^4


# --- trajectories -------------------------------------------------------------

def test_uniform_trajectory_straight_flagged_degenerate(uniform):
    st = _state((0, 1, 0), beta=1.0, r=(0, 0, 0))
    cfg = IntegratorConfig(dt=0.01, t_end=1.0)
    traj = integrate_trajectory(st, uniform, cfg)
    assert len(traj) == 101
    assert traj.summary.max_abs_n_dot_b == 0.0
    assert traj.summary.degenerate_steps == 101
    np.testing.assert_allclose(traj.r[-1], (1.0, 1.0, 0.0), rtol=1e-13)
    np.testing.assert_array_equal(traj.b[-1], (0, 0, 0))


@pytest.mark.parametrize("field", ["uniform", "rigid_rotation"])
def test_summary_recomputed_from_table(field):
    # uniform flags every record degenerate; the tangent rigid-rotation seed flags none
    if field == "uniform":
        prov, st = UniformField(V0x=1.0, p0=0.5), _state((0.6, -0.8, 0.0), r=(0, 0, 0))
    else:
        prov, st = RigidRotationField(), _state((0.0, 0.6, 0.8), beta=0.7, r=(1.5, 0, 0))
    traj = integrate_trajectory(st, prov, IntegratorConfig(dt=0.05, t_end=1.0))
    flagged = traj.degenerate != 0.0
    # n . b summed left to right on floats, the order the records are written in
    ndb = np.array([0.0 if f else n[0] * b[0] + n[1] * b[1] + n[2] * b[2]
                    for n, b, f in zip(traj.n.tolist(), traj.b.tolist(), flagged)])
    assert traj.n_dot_b.tobytes() == ndb.tobytes()
    assert traj.summary == InvariantSummary(
        steps=len(traj) - 1, max_norm_err=float(np.max(traj.norm_err)),
        max_abs_n_dot_b=float(np.max(np.abs(ndb))),
        degenerate_steps=int(np.count_nonzero(flagged)))
    assert traj.summary.degenerate_steps == (len(traj) if field == "uniform" else 0)


def test_rigid_rotation_closed_form_helix():
    prov = RigidRotationField(omega=1.0, p0=0.5, c=1.0)
    alpha, gamma = 0.6, 0.8
    st = _state((0, alpha, gamma), beta=0.7, r=(1.5, 0, 0))
    oracle = trajectory_oracle(prov, st)
    cfg = IntegratorConfig(dt=1e-3, t_end=2.0)
    traj = integrate_trajectory(st, prov, cfg)
    r_exact, n_exact = oracle(2.0)
    np.testing.assert_allclose(traj.r[-1], r_exact, atol=1e-9)
    np.testing.assert_allclose(traj.n[-1], n_exact, atol=1e-9)


def test_norm_preservation_long_run():
    prov = RigidRotationField(omega=1.0, p0=0.5, c=1.0)
    st = _state((0, 1, 0), beta=1.0, r=(1.0, 0, 0))
    cfg = IntegratorConfig(dt=1e-3, t_end=10.0)
    traj = integrate_trajectory(st, prov, cfg)
    assert traj.summary.max_norm_err <= 1e-13


def test_naive_without_renormalization_drifts_more():
    prov = RigidRotationField(omega=1.0, p0=0.5, c=1.0)
    st = _state((0, 1, 0), beta=1.0, r=(1.0, 0, 0))
    base = dict(dt=2e-2, t_end=20.0)
    drift_naive = integrate_trajectory(
        st, prov, IntegratorConfig(method="rk4_naive", **base)).summary.max_norm_err
    drift_rod = integrate_trajectory(
        st, prov, IntegratorConfig(method="rk4_rodrigues", **base)).summary.max_norm_err
    assert drift_naive > 100.0 * max(drift_rod, 1e-18)


def test_naive_renormalized_every_step():
    prov = RigidRotationField(omega=1.0, p0=0.5, c=1.0)
    st = _state((0, 1, 0), beta=1.0, r=(1.0, 0, 0))
    cfg = IntegratorConfig(dt=2e-2, t_end=20.0, method="rk4_naive",
                           renormalize_every=1)
    traj = integrate_trajectory(st, prov, cfg)
    assert traj.summary.max_norm_err <= 1e-12


def test_tangency_drift_fourth_order():
    prov = RigidRotationField(omega=1.0, p0=0.5, c=1.0)
    st = _state((0, 1, 0), beta=1.0, r=(1.0, 0, 0))
    drifts = []
    for dt in (4e-3, 2e-3):
        cfg = IntegratorConfig(dt=dt, t_end=2.0)
        traj = integrate_trajectory(st, prov, cfg)
        drifts.append(traj.summary.max_abs_n_dot_b)
    assert 12.0 <= drifts[0] / drifts[1] <= 20.0


def test_taylor_green_drift_small():
    prov = TaylorGreenField(A=1.0, k=1.0, nu=0.0, p0=1.0)
    r0 = np.array((2.1, 3.3, 1.7))
    s = prov.sample(r0, 0.0)
    from ttpsim import isobaric_normal, tangent_frame
    b = isobaric_normal(s)
    e1, _ = tangent_frame(b)
    st = _state(e1, beta=0.5, r=r0)
    cfg = IntegratorConfig(dt=1e-3, t_end=1.0)
    traj = integrate_trajectory(st, prov, cfg)
    assert traj.summary.max_abs_n_dot_b <= 1e-8
    assert traj.summary.max_norm_err <= 1e-13


def test_constraint_exact_on_every_record(taylor_green_decaying):
    r0 = np.array((2.1, 3.3, 1.7))
    from ttpsim import isobaric_normal, tangent_frame
    b = isobaric_normal(taylor_green_decaying.sample(r0, 0.0))
    _, e2 = tangent_frame(b)
    st = _state(e2, beta=0.8, r=r0)
    traj = integrate_trajectory(st, taylor_green_decaying,
                                IntegratorConfig(dt=1e-3, t_end=1.0))
    speed = np.linalg.norm(traj.u, axis=1)
    rel = np.abs(speed - st.beta * traj.v_th) / (st.beta * traj.v_th)
    assert float(np.max(rel)) <= 1e-13


def test_determinism_bit_identical(taylor_green):
    r0 = np.array((2.1, 3.3, 1.7))
    from ttpsim import isobaric_normal, tangent_frame
    b = isobaric_normal(taylor_green.sample(r0, 0.0))
    e1, _ = tangent_frame(b)
    st1 = _state(e1.copy(), beta=0.5, r=r0.copy())
    st2 = _state(e1.copy(), beta=0.5, r=r0.copy())
    cfg = IntegratorConfig(dt=1e-3, t_end=0.2)
    t1 = integrate_trajectory(st1, taylor_green, cfg)
    t2 = integrate_trajectory(st2, taylor_green, cfg)
    assert np.array_equal(t1.r, t2.r)
    assert np.array_equal(t1.n, t2.n)
    assert np.array_equal(t1.n_dot_b, t2.n_dot_b)


def test_initial_tangency_enforced(rigid):
    n0 = np.array((0.8, 0.6, 0.0))  # radial component at r0: violates n.b=0
    st = _state(n0, beta=1.0, r=(1.0, 0, 0))
    cfg = IntegratorConfig(dt=1e-3, t_end=0.1)
    with pytest.raises(InitialTangencyViolation):
        integrate_trajectory(st, rigid, cfg)
    traj = integrate_trajectory(tangent_seed(st, rigid), rigid, cfg)
    assert abs(traj.n_dot_b[0]) <= 1e-14
    np.testing.assert_allclose(traj.n[0], (0.0, 1.0, 0.0), atol=1e-14)


def test_initial_direction_parallel_to_normal_unprojectable(rigid):
    st = _state((1.0, 0, 0), beta=1.0, r=(1.0, 0, 0))
    cfg = IntegratorConfig(dt=1e-3, t_end=0.1)
    with pytest.raises(InitialTangencyViolation):
        tangent_seed(st, rigid)


def test_tangent_seed_keeps_a_tangent_or_degenerate_seed(rigid, uniform):
    st = _state((0.0, 0.6, 0.8), r=(1.0, 0, 0))
    assert tangent_seed(st, rigid) is st
    st = _state((0.8, 0.6, 0.0), r=(1.0, 0, 0))
    assert tangent_seed(st, uniform) is st  # b is degenerate everywhere


@pytest.mark.parametrize("make, name, shape", [
    (lambda: TtpState(t=0.0, r=(1.0, 0.2), n=(0.0, 1.0, 0.0), beta=1.0), "r", (2,)),
    (lambda: TtpState(t=0.0, r=(1.0, 0.2, 0.0, 0.0), n=(0.0, 1.0, 0.0), beta=1.0), "r", (4,)),
    (lambda: TtpState(t=0.0, r=(1.0, 0.2, 0.0), n=(0.0, 1.0), beta=1.0), "n", (2,)),
    (lambda: TtpState(t=0.0, r=((1.0,), (0.2,), (0.0,)), n=(0.0, 1.0, 0.0), beta=1.0), "r", (3, 1)),
    (lambda: EnsembleSpec(r0=(1.0, 0.2)), "r0", (2,)),
], ids=["r2", "r4", "n2", "r3x1", "r0_2"])
def test_a_seed_vector_without_3_components_is_validation_error(make, name, shape):
    # integrate_trajectory, tangent_seed and seed_tangent_circle used to end in a bare
    # ValueError, IndexError or TypeError on these; the seed is now rejected when built
    with pytest.raises(ValidationError, match=f"^{name} must have 3 components, "
                                              f"got shape {re.escape(str(shape))}$"):
        make()


@pytest.mark.parametrize("vector", [((1.0, 2.0), 3.0), ("a", "b", "c"), ("1", "2", "3e0"),
                                    (True, False, False), (None, 1.0, 2.0)],
                         ids=["ragged", "non_numeric", "numeric_strings", "booleans", "none"])
@pytest.mark.parametrize("make, name", [
    (lambda v: TtpState(t=0.0, r=v, n=(0.0, 1.0, 0.0), beta=1.0), "r"),
    (lambda v: TtpState(t=0.0, r=(1.0, 0.2, 0.0), n=v, beta=1.0), "n"),
    (lambda v: EnsembleSpec(r0=v), "r0"),
], ids=["r", "n", "r0"])
def test_a_seed_vector_that_is_not_3_numbers_is_validation_error(make, name, vector):
    # numpy's conversion error used to escape as a bare ValueError, and EnsembleSpec
    # took ("a", "b", "c") as it was; numpy converts numeric strings and booleans to
    # floats, and None to nan, but they are not numbers
    with pytest.raises(ValidationError,
                       match=f"^{name} must hold 3 numbers, got {re.escape(repr(vector))}$"):
        make(vector)


@pytest.mark.parametrize("r, n", [
    ((1.0, 0.0, 0.0), (math.nan, 0.0, 0.0)),
    ((math.inf, 0.0, 0.0), (0.0, 1.0, 0.0)),
    ((1.0, 0.0, 0.0), (0.0, 2.0, 0.0)),
], ids=["n_nan", "r_inf", "n_not_unit"])
def test_tangent_seed_validates_before_sampling(r, n):
    class Unsampled(RigidRotationField):
        def sample(self, r, t):
            raise AssertionError("the seed was sampled")

    with pytest.raises(ValidationError):
        tangent_seed(_state(n, r=r), Unsampled())


def test_initial_norm_validated(rigid):
    st = _state((0, 2.0, 0), beta=1.0, r=(1.0, 0, 0))
    with pytest.raises(ValidationError):
        integrate_trajectory(st, rigid, IntegratorConfig(dt=1e-3, t_end=0.1))


@pytest.mark.parametrize("r, n", [
    ((1.0, 0.0, 0.0), (math.nan, math.inf, math.nan)),  # n0 / |n0| with |n0| underflowed
    ((1.0, 0.0, 0.0), (0.0, math.inf, 0.0)),
    ((1.0, math.nan, 0.0), (0.0, 1.0, 0.0)),
], ids=["n_nan", "n_inf", "r_nan"])
def test_seed_state_must_be_finite(rigid, r, n):
    with pytest.raises(ValidationError, match="is not finite"):
        integrate_trajectory(_state(n, r=r), rigid, IntegratorConfig(dt=0.01, t_end=0.1))


def test_unallocatable_record_table_is_validation_error(rigid):
    # 1e14 steps pass step_count, but their table (15 PiB) cannot exist
    st = _state((0, 1, 0), r=(1.0, 0, 0))
    with pytest.raises(ValidationError, match="table of 100000000000001 records"):
        integrate_trajectory(st, rigid, IntegratorConfig(dt=1e-10, t_end=1e4))


def test_domain_exit_terminates_early(tmp_path):
    from ttpsim import load_grid, write_grid
    write_grid(tmp_path / "u.grid", UniformField(V0x=1.0, p0=0.5),
               (0, 0, 0), (0.25, 0.25, 0.25), (5, 5, 5))
    g = load_grid(tmp_path / "u.grid")
    st = _state((0, 0, 1.0), beta=0.0, r=(0.5, 0.5, 0.5))
    cfg = IntegratorConfig(dt=0.05, t_end=5.0)
    traj = integrate_trajectory(st, g, cfg)
    assert traj.summary.terminated_early
    assert "out_of_domain" in traj.summary.termination_reason
    assert len(traj) < 101
    assert traj.r[-1][0] <= 1.0
    # the early stop copies its rows; no view keeps the 101-row table alive
    assert traj.table.base is None
    assert traj.table.nbytes == len(traj) * 21 * 8


def test_a_run_that_stops_in_its_last_step_keeps_exactly_its_records():
    # x = t crosses the box face x = 1/sqrt(3) during the last of 6 steps: the table holds
    # the 6 records before it, all written, and no unused row
    prov = UniformGradientField(V0x=1.0, V0y=0.0, V0z=0.0, p0=2.0, gx=0.0, gy=0.0, gz=1.0)
    traj = integrate_trajectory(_state((0, 1, 0), beta=0.0), prov,
                                IntegratorConfig(dt=0.1, t_end=0.6))
    assert traj.summary.termination_reason.startswith("out_of_domain: ")
    assert len(traj) == 6 and traj.summary.steps == 5
    assert np.all(np.isfinite(traj.table)) and traj.t.tolist() == [0.1 * k for k in range(6)]


def _ridge_grid():
    """A grid whose tricubic interpolant of a narrow pressure ridge overshoots below
    zero on its upstream flank (near x = 0.2885)."""
    from ttpsim import GridField
    x = np.linspace(0.0, 1.0, 12)
    X, Y, _ = np.meshgrid(x, x, x, indexing="ij")
    V = np.zeros(X.shape + (3,))
    V[..., 0] = 1.0
    p1 = 1e-3 + np.exp(-((X - 0.5) / 0.06) ** 2) + 0.01 * Y
    return GridField((x[0],) * 3, (x[1] - x[0],) * 3, V, p1)


def _negative_pressure_run():
    g = _ridge_grid()
    seed = tangent_seed(_state((0, 0, 1.0), beta=0.01, r=(0.1, 0.5, 0.5)), g)
    return integrate_trajectory(seed, g, IntegratorConfig(dt=1e-3, t_end=0.8))


def test_negative_pressure_mid_run_terminates_early():
    # the run keeps what it has before the interpolated pressure turns negative
    from ttpsim import NegativePressure
    g = _ridge_grid()
    traj = _negative_pressure_run()
    assert traj.summary.terminated_early
    assert traj.summary.termination_reason.startswith("negative_pressure: ")
    assert 1 < len(traj) < 801
    assert traj.summary.steps == len(traj) - 1
    assert np.all(traj.p1hat >= 0.0) and np.all(np.isfinite(traj.r))
    assert 0.25 < traj.r[-1][0] < 0.2885
    with pytest.raises(NegativePressure):  # at the seed point it is still an error
        seed = tangent_seed(_state((0, 0, 1.0), beta=0.01, r=(0.2885, 0.5, 0.5)), g)
        integrate_trajectory(seed, g, IntegratorConfig(dt=1e-3, t_end=0.8))


def _taylor_green_run(r0, scale=1.0, **config):
    """A Taylor-Green run seeded along scale e1 of tangent_frame at r0, as auto_tangent
    seeds with scale 1."""
    from ttpsim import isobaric_normal, tangent_frame
    tg = TaylorGreenField()
    e1, _ = tangent_frame(isobaric_normal(tg.sample(np.array(r0), 0.0)))
    return integrate_trajectory(TtpState(t=0.0, r=r0, n=scale * e1, beta=1.0), tg,
                                IntegratorConfig(**config))


@pytest.mark.parametrize("run, reason", [
    (lambda: integrate_trajectory(
        _state((0, 1, 0), beta=0.0),
        UniformGradientField(V0x=1.0, V0y=0.0, V0z=0.0, p0=2.0, gx=0.0, gy=0.0, gz=1.0),
        IntegratorConfig(dt=0.1, t_end=0.6)), "out_of_domain: "),
    # the simulate_taylor_green_non_finite golden case's run
    (lambda: _taylor_green_run((2.1, 3.3, 1.7), dt=2.0, t_end=800.0, method="rk4_naive"),
     "non_finite_state: "),
    (_negative_pressure_run, "negative_pressure: "),
    (lambda: _taylor_green_run((0.3, 1.1, 0.7), dt=0.05, t_end=2.0, method="rk4_naive",
                               renormalize_every=3), ""),
    # |n0| = 1 + 2^-40 is a unit vector to 1e-9; the rotations after it keep |n| at
    # rounding, so the seed record holds the largest | |n| - 1 |
    (lambda: _taylor_green_run((0.3, 1.1, 0.7), 1.0 + 2.0 ** -40, dt=0.05, t_end=2.0,
                               project_tangency_every=2), ""),
    # degenerate at every record
    (lambda: integrate_trajectory(_state((0, 1, 0)), UniformField(),
                                  IntegratorConfig(dt=0.1, t_end=0.5)), ""),
], ids=["out_of_domain", "non_finite_state", "negative_pressure", "rk4_naive_renormalized",
        "projected", "degenerate"])
def test_summary_built_as_rows_arrive_is_the_tables_reduction(run, reason):
    # the loop keeps the summary's maxima and count as it writes each row; they must
    # be the numpy reductions over the returned table, bit for bit (repr tells -0.0
    # and a numpy scalar apart)
    traj = run()
    assert traj.summary.termination_reason.startswith(reason)
    assert traj.summary.terminated_early == bool(reason)
    expected = InvariantSummary(
        steps=len(traj) - 1,
        max_norm_err=float(traj.norm_err.max()),
        max_abs_n_dot_b=float(np.abs(traj.n_dot_b).max()),
        degenerate_steps=int(np.count_nonzero(traj.degenerate)),
        terminated_early=traj.summary.terminated_early,
        termination_reason=traj.summary.termination_reason)
    assert repr(traj.summary) == repr(expected)


def test_finite_values_whose_sum_overflows_do_not_stop_a_run():
    # rx + ry overflows in every record, stage and step: the record and step tests sum
    # their values first, and must then test each value, not stop the run; every stage
    # is still sampled
    seen = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate_trajectory(_state((0, 1, 0), r=(1.7e308, 1.7e308, 0.0)),
                                    spy_positions(UniformField(V0x=1.0, V0y=1.0, p0=0.5), seen),
                                    IntegratorConfig(dt=0.01, t_end=0.05))
    assert not traj.summary.terminated_early and traj.summary.steps == 5 and len(traj) == 6
    assert len(seen) == 6 + 5 * 3  # one sample per record, three per step
    assert traj.r[-1].tolist() == [1.7e308, 1.7e308, 0.0]


class _SwirlField(FieldProvider):
    """Test-only field whose isobaric normal varies in all three directions.

    Every builtin provider has a planar pressure gradient, making the
    rotation rate axis-fixed and all rotation-vector commutators vanish; a
    scheme missing the exponential-map pullback would still look 4th order
    there.  This field activates those terms: p1hat = p0 + a sin x sin y
    sin z under a three-dimensional circulating velocity.
    """

    name = "swirl"

    def __init__(self):
        self.p0 = 2.0
        self.a = 1.0

    def _fields(self, r, t, full):
        import math as m
        x, y, z = float(r[0]), float(r[1]), float(r[2])
        sx, cx = m.sin(x), m.cos(x)
        sy, cy = m.sin(y), m.cos(y)
        sz, cz = m.sin(z), m.cos(z)
        a = self.a
        kin = (0.3 * (sz + cy), 0.3 * (sx + cz), 0.3 * (sy + cx), self.p0 + a * sx * sy * sz,
               a * cx * sy * sz, a * sx * cy * sz, a * sx * sy * cz,
               -a * sx * sy * sz, a * cx * cy * sz, a * cx * sy * cz,
               -a * sx * sy * sz, a * sx * cy * cz, -a * sx * sy * sz,
               0.0, 0.0, 0.0)
        if not full:
            return kin
        return kin, (0.0, 0.3 * cx, -0.3 * sx,
                     -0.3 * sy, 0.0, 0.3 * cy,
                     0.3 * cz, -0.3 * sz, 0.0)


def test_fourth_order_with_rotating_axis():
    # self-convergence against a fine-step reference; the rotation-rate
    # direction changes along the path, so the pullback terms matter here
    prov = _SwirlField()
    r0 = np.array((0.9, 0.8, 0.7))
    from ttpsim import isobaric_normal, tangent_frame
    s = prov.sample(r0, 0.0)
    b = isobaric_normal(s)
    e1, _ = tangent_frame(b)
    st = _state(e1, beta=0.8, r=r0)

    def final(dt):
        traj = integrate_trajectory(st, prov, IntegratorConfig(dt=dt, t_end=2.0))
        # confirm the rotation axis really turns over the run (~20 degrees)
        omega = np.array([stage_eval(prov, t, *r, *n, 0.8)[3:]
                          for t, r, n in zip(traj.t.tolist(), traj.r.tolist(),
                                             traj.n.tolist())])
        axes = omega / np.linalg.norm(omega, axis=1)[:, None]
        assert float(np.min(axes @ axes[0])) < 0.95
        return traj.r[-1], traj.n[-1]

    r_ref, n_ref = final(1.25e-4)
    errs_r, errs_n = [], []
    for dt in (8e-3, 4e-3, 2e-3):
        r_end, n_end = final(dt)
        errs_r.append(np.linalg.norm(r_end - r_ref))
        errs_n.append(np.linalg.norm(n_end - n_ref))
    from ttpsim import fit_order
    assert fit_order([8e-3, 4e-3, 2e-3], errs_r) >= 3.7
    assert fit_order([8e-3, 4e-3, 2e-3], errs_n) >= 3.7


def test_matches_independent_adaptive_integrator():
    # cross-check the whole pipeline against scipy's RK45 integrating the
    # same reduced ODE as a flat 6-dimensional system at tight tolerance
    from scipy.integrate import solve_ivp
    from ttpsim import state_rhs

    prov = _SwirlField()
    r0 = np.array((0.9, 0.8, 0.7))
    from ttpsim import isobaric_normal, tangent_frame
    b = isobaric_normal(prov.sample(r0, 0.0))
    e1, _ = tangent_frame(b)
    st = _state(e1, beta=0.8, r=r0)

    def rhs(t, y):
        return state_rhs(prov, t, y[:3].tolist(), y[3:].tolist(), 0.8)

    sol = solve_ivp(rhs, (0.0, 2.0), np.concatenate((r0, e1)),
                    rtol=1e-11, atol=1e-12, dense_output=False)
    traj = integrate_trajectory(st, prov, IntegratorConfig(dt=5e-4, t_end=2.0))
    np.testing.assert_allclose(traj.r[-1], sol.y[:3, -1], atol=5e-9)
    np.testing.assert_allclose(traj.n[-1], sol.y[3:, -1], atol=5e-9)


def test_projection_option_controls_drift():
    prov = RigidRotationField(omega=1.0, p0=0.5, c=1.0)
    st = _state((0, 1, 0), beta=1.0, r=(1.0, 0, 0))
    free = integrate_trajectory(st, prov, IntegratorConfig(dt=5e-3, t_end=5.0))
    held = integrate_trajectory(st, prov, IntegratorConfig(dt=5e-3, t_end=5.0,
                                                           project_tangency_every=1))
    assert held.summary.max_abs_n_dot_b < free.summary.max_abs_n_dot_b


def test_config_validation():
    with pytest.raises(ValidationError):
        IntegratorConfig(dt=0.0)
    with pytest.raises(ValidationError):
        IntegratorConfig(method="euler")
    with pytest.raises(ValidationError):
        IntegratorConfig(renormalize_every=-1)
    for bad in ({"dt": math.inf}, {"dt": math.nan}, {"t_end": math.nan},
                {"t_end": math.inf}):
        with pytest.raises(ValidationError, match="finite"):
            IntegratorConfig(**bad)


def test_records_expose_fields(rigid):
    st = _state((0, 1, 0), beta=1.0, r=(1.0, 0, 0))
    traj = integrate_trajectory(st, rigid, IntegratorConfig(dt=1e-2, t_end=0.1))
    assert traj.t[0] == 0.0
    assert abs(np.linalg.norm(traj.u[0]) - traj.v_th[0] * st.beta) < 1e-14
    np.testing.assert_allclose(traj.v[0], traj.u[0] + rigid.sample(st.r, 0.0).V, rtol=1e-15)
    assert not traj.degenerate[0]
    # the named columns are read-only views of the one table, not stored copies
    assert traj.table.shape == (11, 21)
    assert np.shares_memory(traj.r, traj.table) and not traj.r.flags.writeable
    assert set(vars(traj)) == {"table", "summary"}


def test_horizon_must_be_whole_steps(rigid):
    st = _state((0, 1, 0), r=(1.0, 0, 0))
    with pytest.raises(ValidationError, match="whole number of steps"):
        integrate_trajectory(st, rigid, IntegratorConfig(dt=0.3, t_end=1.0))
    # rounding in (t_end - t0) / dt is no reason to reject
    st = _state((0, 1, 0), r=(1.0, 0, 0), t=0.1)
    traj = integrate_trajectory(st, rigid, IntegratorConfig(dt=0.01, t_end=0.6))
    assert traj.summary.steps == 50
    assert traj.t[-1] == pytest.approx(0.6, abs=1e-15)


# --- exact symmetries ----------------------------------------------------------

def _quarter_turn(v):
    """(x, y, z) -> (-y, x, z), row by row."""
    return np.column_stack((-v[:, 1], v[:, 0], v[:, 2]))


def _mirror(axis):
    """The reflection axis -> -axis, row by row."""
    def mirror(v):
        v = v.copy()
        v[:, axis] = -v[:, axis]
        return v
    return mirror


def _turned_covariance(c):
    """R C R^T for the quarter-turn R, on upper-triangle rows (xx, xy, xz, yy, yz, zz)."""
    return np.column_stack((c[:, 3], -c[:, 1], -c[:, 4], c[:, 0], c[:, 2], c[:, 5]))


def _mapped_and_image(provider, r0, sym, method, image_provider=None, steps=200):
    """(r, n) of the run from a tangent seed at r0 mapped by sym, and of the run from its image.

    The image run samples ``image_provider``, where given: the provider with its
    parameters mapped by sym.  Both runs must take ``steps`` steps.
    """
    seed = tangent_seed(_state((0.48, 0.6, 0.64), beta=0.7, r=r0), provider)
    image = _state(sym(seed.n[None])[0], beta=0.7, r=sym(seed.r[None])[0])
    config = IntegratorConfig(dt=0.01, t_end=2.0, method=method)
    run, image_run = (integrate_trajectory(st, p, config)
                      for st, p in ((seed, provider), (image, image_provider or provider)))
    assert run.summary.steps == image_run.summary.steps == steps
    assert run.summary.terminated_early == image_run.summary.terminated_early == (steps < 200)
    return np.hstack((sym(run.r), sym(run.n))), np.hstack((image_run.r, image_run.n))


@pytest.mark.parametrize("method", ["rk4_rodrigues", "rk4_naive"])
@pytest.mark.parametrize("provider, r0, sym, image_provider, steps", [
    (RigidRotationField(), (1.2, 0.3, 0.1), _quarter_turn, None, 200),
    (LambOseenField(), (0.6, -0.3, 0.1), _quarter_turn, None, 200),
    (TaylorGreenField(nu=0.13), (2.1, 3.3, 1.7), _mirror(0), None, 200),
    (TaylorGreenField(nu=0.13), (2.1, 3.3, 1.7), _mirror(1), None, 200),
    (TaylorGreenField(nu=0.13), (2.1, 3.3, 1.7), _mirror(2), None, 200),
    (RigidRotationField(), (1.2, 0.3, 0.1), _mirror(2), None, 200),
    # the turn maps the constant velocity too; both runs leave the domain after 87 steps
    (UniformGradientField(V0x=0.3, V0y=0.2, gx=0.0, gy=0.0, gz=1.0), (-0.5, -0.55, 0.0),
     _quarter_turn, UniformGradientField(V0x=-0.2, V0y=0.3, gx=0.0, gy=0.0, gz=1.0), 87)],
    ids=["rigid_rotation_quarter_turn", "lamb_oseen_quarter_turn", "taylor_green_mirror_x",
         "taylor_green_mirror_y", "taylor_green_mirror_z", "rigid_rotation_mirror_z",
         "uniform_gradient_quarter_turn"])
def test_symmetry_maps_the_run_bit_for_bit(provider, r0, sym, image_provider, steps, method):
    # negation and swapping components are exact, a + b == b + a, and math.sin is odd and
    # math.cos even bit for bit, so a run from the image of a seed is the image of the run
    want, got = _mapped_and_image(provider, r0, sym, method, image_provider, steps)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("method", ["rk4_rodrigues", "rk4_naive"])
@pytest.mark.parametrize("provider, r0", [(RigidRotationField(), (1.2, 0.3, 0.1)),
                                          (LambOseenField(), (0.6, -0.3, 0.1))],
                         ids=["rigid_rotation", "lamb_oseen"])
def test_quarter_turn_maps_the_ensemble_moments_bit_for_bit(provider, r0, method):
    # the image seed circle is the turned circle, so mean_v and mean_u map by the turn R and
    # the covariance as R C R^T; that includes _moments' sums of products, and the sign of a
    # sum that cancels exactly
    config = IntegratorConfig(dt=0.01, t_end=0.5, method=method)
    base, image = (evolve_ensemble(seed_tangent_circle(EnsembleSpec(r0=r, count=16, beta=0.8),
                                                       provider), provider, config, stride=10)[1]
                   for r in (r0, _quarter_turn(np.array([r0]))[0]))
    assert len(base) == len(image) == 6 and base.termination_reason == ""
    assert image.table[:, :2].tobytes() == base.table[:, :2].tobytes()  # t and n_effective
    assert image.mean_v.tobytes() == _quarter_turn(base.mean_v).tobytes()
    assert image.mean_u.tobytes() == _quarter_turn(base.mean_u).tobytes()
    assert image.cov_u.tobytes() == _turned_covariance(base.cov_u).tobytes()


@pytest.mark.parametrize("method", ["rk4_rodrigues", "rk4_naive"])
def test_a_mirror_is_no_symmetry_of_a_swirling_vortex(method):
    # the control: x -> -x reverses the Lamb-Oseen swirl, so the image run goes elsewhere
    want, got = _mapped_and_image(LambOseenField(), (0.6, -0.3, 0.1), _mirror(0), method)
    assert np.abs(got[:, :3] - want[:, :3]).max() > 0.1


@pytest.mark.parametrize("method", ["rk4_rodrigues", "rk4_naive"])
@pytest.mark.parametrize("provider, r0, sym", [
    (TaylorGreenField(nu=0.13), (2.1, 3.3, 1.7), _quarter_turn),  # r differs by 1.10
    (RigidRotationField(), (1.2, 0.3, 0.1), _mirror(0)),  # 2.24: the rotation reverses
    (LambOseenField(), (0.6, -0.3, 0.1), _mirror(2))],  # 2.00: the axial flow W reverses
    ids=["taylor_green_quarter_turn", "rigid_rotation_mirror_x", "lamb_oseen_mirror_z"])
def test_a_map_that_is_no_symmetry_moves_the_run(provider, r0, sym, method):
    # one control per provider: each image run goes elsewhere, so the oracle can fail
    want, got = _mapped_and_image(provider, r0, sym, method)
    assert np.abs(got[:, :3] - want[:, :3]).max() > 0.5
