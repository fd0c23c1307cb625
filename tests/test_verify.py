"""Verification campaign tests: sweeps, order studies, oracles."""

import math
import re

import numpy as np
import pytest

from ttpsim import (IntegratorConfig, LambOseenField, NoOracle, RigidRotationField,
                    TaylorGreenField, TtpState, UniformField,
                    UniformGradientField, ValidationError, cancellation_check,
                    convergence_study, fit_order, integrate_trajectory, isobaric_normal,
                    omega_identity_sweep, reduced_divergence_report, tangency_drift_study,
                    tangent_frame, trajectory_oracle)

from conftest import smooth_nonlinear_providers


def _state(n, beta=1.0, r=(0, 0, 0), t=0.0):
    return TtpState(t=t, r=np.array(r, dtype=float), n=np.array(n, dtype=float),
                    beta=beta)


# --- random points ----------------------------------------------------------

@pytest.mark.parametrize("study", [omega_identity_sweep, cancellation_check,
                                   reduced_divergence_report])
def test_random_points_out_of_memory_is_validation_error(monkeypatch, study):
    # numpy raises MemoryError where it cannot allocate the points; stubbed here,
    # since a count numpy would really try to allocate must not run in a test
    class Generator:
        def random(self, shape):
            raise MemoryError("stub")

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Generator())
    with pytest.raises(ValidationError, match="^cannot allocate 1000000000000 random points$"):
        study(RigidRotationField(), 10**12)


@pytest.mark.parametrize("seed, message", [
    (1.5, "seed must be an integer, got 1.5"),
    ("3", "seed must be an integer, got '3'"),
    (-1, "seed must be >= 0"),
    (True, "seed must be an integer, got True"),
], ids=["float", "str", "negative", "bool"])
@pytest.mark.parametrize("study", [omega_identity_sweep, cancellation_check,
                                   reduced_divergence_report])
def test_random_points_seed_is_a_count(study, seed, message):
    # the seed of the random points takes the count rule: a float or string seed
    # ended in numpy's bare TypeError, a negative one in ValueError, and True ran as 1
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        study(RigidRotationField(), 10, seed=seed)


def test_random_points_numpy_integer_seed_draws_as_its_int():
    a = cancellation_check(RigidRotationField(), 10, seed=np.int64(4))
    assert a == cancellation_check(RigidRotationField(), 10, seed=4)


# --- fit_order ---------------------------------------------------------------

def test_fit_order_recovers_power_law():
    dts = np.array((4e-3, 2e-3, 1e-3))
    errs = 3.0 * dts**4
    assert abs(fit_order(dts, errs) - 4.0) < 1e-12


def test_fit_order_zero_errors_nan():
    assert math.isnan(fit_order([1e-3, 5e-4], [0.0, 0.0]))


def test_fit_order_of_two_points_is_their_slope_and_of_one_point_nan():
    # log 2^-k is k log 2 exactly for these k, so the slope through the two points is 4 exactly
    assert fit_order([0.25, 0.5], [2.0 ** -8, 2.0 ** -4]) == 4.0
    assert math.isnan(fit_order([0.5], [2.0 ** -4]))
    assert math.isnan(fit_order([0.5, 0.5], [2.0 ** -4, 2.0 ** -3]))  # equal steps: no slope


# --- cancellation ------------------------------------------------------------

@pytest.mark.parametrize("provider", smooth_nonlinear_providers(),
                         ids=lambda p: p.name)
def test_cancellation_residual_tiny(provider):
    assert cancellation_check(provider, n_states=500, seed=1) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cancellation_non_finite_normalizer_raises():
    # |dg/dt| overflows, so the normalizer is inf and the residual used to read 0
    with pytest.raises(ValidationError, match="non-finite cancellation terms at r = "):
        cancellation_check(TaylorGreenField(nu=1e160), n_states=20)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # overflow is decided without numpy
def test_cancellation_past_gradient_overflow():
    # |grad p1hat|^2 overflows; |g| comes from the scaled normal, so the check still runs
    assert cancellation_check(RigidRotationField(c=1e160), n_states=20, beta=1.0) <= 1e-12


# --- identity sweep ------------------------------------------------------------

def test_sweep_constant_gradient_exact():
    prov = UniformGradientField(V0x=0.5, V0y=0.2, V0z=-0.1, p0=2.0, gz=1.0)
    rep = omega_identity_sweep(prov, n_points=50, seed=3, h=1e-5)
    # b constant in space and time: both routes and the fd estimate vanish
    assert rep.max_fd == 0.0 or rep.max_fd < 1e-12
    assert np.max(rep.res_split_abs) < 1e-14


@pytest.mark.filterwarnings("error::RuntimeWarning")  # overflow is decided without numpy
def test_sweep_past_gradient_overflow_warns_nothing():
    rep = omega_identity_sweep(RigidRotationField(c=1e160), n_points=20, beta=1.0)
    assert len(rep) == 20 and rep.skipped == 0


def test_sweep_taylor_green_accuracy():
    prov = TaylorGreenField(A=1.0, k=1.0, nu=0.3, p0=1.0)
    rep = omega_identity_sweep(prov, n_points=100, seed=0, h=1e-5)
    assert len(rep.res_fd) >= 80
    assert rep.max_fd < 1e-6


@pytest.mark.parametrize("provider", [
    TaylorGreenField(A=1.0, k=1.0, nu=0.3, p0=1.0),
    RigidRotationField(omega=1.0, p0=0.5, c=1.0),
    LambOseenField(Gamma=1.0, rc=1.0, W=0.5, p0=1.0, pa=0.5),
], ids=lambda p: p.name)
def test_sweep_quadratic_decay_in_h(provider):
    maxima = []
    for h in (1e-3, 5e-4, 2.5e-4):
        rep = omega_identity_sweep(provider, n_points=100, seed=0, h=h)
        maxima.append(rep.max_fd)
    order = fit_order([1e-3, 5e-4, 2.5e-4], maxima)
    assert 1.7 <= order <= 2.3, f"{provider.name}: order {order:.2f}"


def test_sweep_rigid_rotation_split_residual_reported():
    prov = RigidRotationField(omega=1.0, p0=0.5, c=1.0)
    rep = omega_identity_sweep(prov, n_points=60, seed=4, h=1e-5, beta=1.0)
    # the split disagrees with the direct route by a finite amount; only
    # report it (frozen closed form: |residual| = |3 omega + alpha beta vth/R|)
    assert np.all(np.isfinite(rep.res_split_abs))
    assert rep.median_split_rel > 0.1
    text = rep.to_text()
    assert "route-split" in text
    assert "no" in text and "pass threshold" in text


def test_sweep_skips_degenerate_points():
    prov = RigidRotationField(omega=1.0, p0=0.5, c=1e-2)  # tiny gradients
    rep = omega_identity_sweep(prov, n_points=50, seed=5, h=1e-5, g_min=1e-2)
    assert rep.skipped > 0
    assert rep.requested == 50
    assert len(rep.res_fd) + rep.skipped == 50


def test_sweep_g_min_bound_is_inclusive():
    # |grad p1hat| = 0.5 exactly at every point: g_min = 0.5 skips them all, and the float
    # below 0.5 keeps them all
    prov = UniformGradientField(gx=0.5, gy=0.0, gz=0.0)
    at = omega_identity_sweep(prov, n_points=8, g_min=0.5)
    below = omega_identity_sweep(prov, n_points=8, g_min=math.nextafter(0.5, 0.0))
    assert (len(at), at.skipped) == (0, 8)
    assert (len(below), below.skipped) == (8, 0)


def test_sweep_deterministic_under_fixed_seed():
    prov = TaylorGreenField(A=1.0, k=1.0, nu=0.3, p0=1.0)
    r1 = omega_identity_sweep(prov, n_points=40, seed=12, h=1e-5)
    r2 = omega_identity_sweep(prov, n_points=40, seed=12, h=1e-5)
    assert np.array_equal(r1.res_fd, r2.res_fd)
    assert np.array_equal(r1.res_split_abs, r2.res_split_abs)
    assert np.array_equal(r1.points, r2.points)


def test_sweep_csv_rows_shape():
    prov = TaylorGreenField(A=1.0, k=1.0, nu=0.0, p0=1.0)
    rep = omega_identity_sweep(prov, n_points=20, seed=6, h=1e-5)
    assert rep.COLUMNS.split(",") == ["x", "y", "z", "res_fd", "res_split_abs",
                                      "res_split_rel"]
    assert rep.table.shape == (len(rep.res_fd), rep.WIDTH)
    assert len(rep.res_fd) > 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_non_finite_row_raises():
    with pytest.raises(ValidationError, match="non-finite rotation-rate residuals at r = "):
        omega_identity_sweep(RigidRotationField(omega=1e160), n_points=20)


# --- reduced RHS divergence diagnostic ----------------------------------------

def test_reduced_divergence_reported(taylor_green):
    dmax, dmed, n = reduced_divergence_report(taylor_green, n_states=30, seed=2,
                                              beta=0.5)
    assert n == 30
    assert np.isfinite(dmax) and np.isfinite(dmed)
    assert dmax >= dmed >= 0.0  # diagnostic only, no threshold


def test_reduced_divergence_non_finite_raises():
    # H (V + u) ~ c^(3/2) overflows at c = 1e300, so the rotation rate is not finite
    with pytest.raises(ValidationError, match="non-finite divergence at r = .*, n = "):
        reduced_divergence_report(RigidRotationField(c=1e300), n_states=20)


def test_reduced_divergence_past_gradient_overflow_scales():
    # |grad p1hat|^2 overflows at c = 1e160; the divergence still scales as sqrt(c)
    dmax, dmed, n = reduced_divergence_report(RigidRotationField(c=1e160), n_states=20)
    ref = reduced_divergence_report(RigidRotationField(c=1e100), n_states=20)
    np.testing.assert_allclose((dmax, dmed), 1e30 * np.array(ref[:2]), rtol=1e-9)
    assert n == ref[2] == 20


def test_reduced_divergence_uniform_gradient_zero():
    # constant V, frozen b, v_th varying only along g but n . grad v_th is
    # the sole position term: divergence is n . g / v_th exactly; check FD
    from ttpsim import reduced_divergence_report
    prov = UniformGradientField(V0x=0.4, V0y=0.1, V0z=0.0, p0=2.0, gz=1.0)
    dmax, dmed, n = reduced_divergence_report(prov, n_states=20, seed=3, beta=1.0)
    # |div| = |n_z| / v_th <= 1/sqrt(2 p_min) = 1 for this box
    assert dmax <= 1.0 + 1e-6


def _divergence(s, n, beta):
    """The phase-space divergence of (dr/dt, dn/dt) on R^3 x S^2 at a sample s and a direction n:

    div = tr(gradV) + beta (n . g) / v_th + beta v_th ((n . g) tr H - n . H g) / |g|^2,

    with g = grad p1hat, H its Hessian and v_th = sqrt(2 p1hat); the last term is
    n . curl_n Omega."""
    g, H = s.grad_p1hat, s.hess_p1hat
    v_th = math.sqrt(2.0 * s.p1hat)
    ng = n @ g
    return (np.trace(s.gradV) + beta * ng / v_th
            + beta * v_th * (ng * np.trace(H) - n @ H @ g) / (g @ g))


@pytest.mark.parametrize("provider, r0", [
    (TaylorGreenField(A=1.0, k=1.0, nu=0.0, p0=1.0), (2.1, 3.3, 1.7)),
    (LambOseenField(Gamma=1.0, rc=1.0, W=0.5, p0=1.0, pa=0.5), (0.8, 0.3, 0.2)),
], ids=["taylor_green", "lamb_oseen"])
def test_liouville_along_a_trajectory(provider, r0):
    # d ln J / dt = div along each trajectory, J the Jacobian of the flow map on
    # R^3 x S^2.  J comes from five copies displaced by 3e-9 from a tangent seed,
    # along the r axes and along b x n0 and b, each run to T = 1 next to the base
    # run; the displacements are read in (x, y, z) and in an orthonormal frame of
    # the sphere's tangent plane at n, before and after
    beta, eps = 0.5, 3e-9
    config = IntegratorConfig(dt=1e-3, t_end=1.0)
    r0 = np.array(r0)
    b = isobaric_normal(provider.sample(r0, 0.0))
    n0 = tangent_frame(b)[0]
    seeds = [(r0 + eps * e, n0) for e in np.eye(3)]
    seeds += [(r0, (n0 + eps * d) / np.linalg.norm(n0 + eps * d)) for d in (np.cross(b, n0), b)]

    def displacements(r, n, r_base, n_base, frame):
        return [*(r - r_base), *((n - n_base) @ np.array(frame).T)]

    base = integrate_trajectory(_state(n0, beta, r0), provider, config)
    frame0, frame1 = (np.cross(b, n0), b), tangent_frame(base.n[-1])
    start, end = [], []
    for r, n in seeds:
        run = integrate_trajectory(_state(n, beta, r), provider, config)
        assert len(run) == len(base) == 1001
        start.append(displacements(r, n, r0, n0, frame0))
        end.append(displacements(run.r[-1], run.n[-1], base.r[-1], base.n[-1], frame1))
    ln_j = math.log(abs(np.linalg.det(end) / np.linalg.det(start)))

    divs = [_divergence(provider.sample(r, t), n, beta)
            for t, r, n in zip(base.t.tolist(), base.r, base.n)]
    integral = np.trapezoid(divs, base.t)
    # the displaced copies carry about 1e-14 of rounding after 1000 steps: up to about
    # 1e-5 in ln J at this displacement, on Taylor-Green and on Lamb-Oseen alike
    assert abs(ln_j - integral) <= 2e-5, (ln_j, integral)


# --- drift study ------------------------------------------------------------------

def test_drift_study_rigid_rotation_order():
    prov = RigidRotationField(omega=1.0, p0=0.5, c=1.0)
    st = _state((0, 1, 0), beta=1.0, r=(1.0, 0, 0))
    study = tangency_drift_study(prov, st, IntegratorConfig(t_end=2.0), [4e-3, 2e-3, 1e-3])
    assert 3.5 <= study.order <= 4.5
    assert len(study.values) == 3


def test_drift_study_uniform_identically_zero(uniform):
    st = _state((0, 1, 0), beta=1.0, r=(0, 0, 0))
    study = tangency_drift_study(uniform, st, IntegratorConfig(t_end=0.5), [4e-3, 2e-3])
    assert study.values == [0.0, 0.0]
    assert math.isnan(study.order)
    assert "n/a" in study.to_text()


def test_drift_study_naive_renormalized_still_fourth_order():
    # generic flow: the naive method with per-step renormalization still
    # drifts at fourth order (renormalization masks norm error only)
    prov = TaylorGreenField(A=1.0, k=1.0, nu=0.0, p0=1.0)
    r0 = np.array((2.1, 3.3, 1.7))
    b = isobaric_normal(prov.sample(r0, 0.0))
    e1, _ = tangent_frame(b)
    st = _state(e1, beta=0.5, r=r0)
    cfg = IntegratorConfig(t_end=1.0, method="rk4_naive", renormalize_every=1)
    study = tangency_drift_study(prov, st, cfg, [4e-3, 2e-3, 1e-3])
    assert 3.5 <= study.order <= 4.5


def test_drift_rigid_rotation_naive_protected_by_symmetry():
    # in solid-body rotation both r and n obey dX/dt = rate * z_hat x X with
    # a shared scalar rate, so classical vector RK4 applies one scaled
    # rotation to both and their relative angle is exact: drift at rounding
    prov = RigidRotationField(omega=1.0, p0=0.5, c=1.0)
    st = _state((0, 1, 0), beta=1.0, r=(1.0, 0, 0))
    cfg = IntegratorConfig(t_end=2.0, method="rk4_naive", renormalize_every=1)
    study = tangency_drift_study(prov, st, cfg, [4e-3])
    assert study.values[0] <= 1e-13


@pytest.mark.parametrize("rc", [1e4, 1e-4])
def test_drift_at_rounding_floor_fits_no_order(rc):
    # the drifts are rounding (|n . b| <= 1e-13 is unit-free), so no slope is
    # fitted to them: at rc = 1e4 it would read -0.292, at rc = 1e-4 0.000
    prov = LambOseenField(rc=rc)
    r0 = np.array((0.3, 0.4, 0.0)) * rc  # a seed whose drift is not exactly 0 at either rc
    e1, _ = tangent_frame(isobaric_normal(prov.sample(r0, 0.0)))
    study = tangency_drift_study(prov, _state(e1, beta=0.8, r=r0),
                                 IntegratorConfig(dt=0.01, t_end=0.08), [0.04, 0.02, 0.01])
    assert 0.0 < max(study.values) <= 1e-13
    assert math.isnan(study.order)
    assert study.to_text().endswith("\n  fitted order: n/a (measure at rounding floor)")


def test_drift_study_of_no_step_sizes_is_empty(uniform):
    study = tangency_drift_study(uniform, _state((0, 1, 0)), IntegratorConfig(t_end=1.0), [])
    assert (study.steps, study.values) == ([], [])
    assert math.isnan(study.order)


# --- convergence study ----------------------------------------------------------------

def test_convergence_rigid_rotation_order():
    prov = RigidRotationField(omega=1.0, p0=0.5, c=1.0)
    st = _state((0, 1, 0), beta=1.0, r=(1.0, 0, 0))
    period = 2.0 * math.pi / (1.0 + math.sqrt(2.0))
    t_end = 4e-3 * round(period / 4e-3)  # one orbit, whole steps at every dt
    study = convergence_study(prov, st, IntegratorConfig(t_end=t_end), [4e-3, 2e-3, 1e-3])
    assert study.order >= 3.8


def test_convergence_uniform_rounding_floor(uniform):
    st = _state((0, 1, 0), beta=1.0, r=(0, 0, 0))
    study = convergence_study(uniform, st, IntegratorConfig(t_end=1.0), [4e-3, 2e-3, 1e-3])
    assert max(study.values) <= 1e-12


def test_convergence_non_finite_error_raises():
    # the final positions are finite, but |r - r_exact| overflows at dt = 0.01 only
    st = _state((0, 0, 1), beta=1.0, r=(0, 0, 0))
    with pytest.raises(ValidationError, match="non-finite position error at dt = 0.01$"):
        convergence_study(UniformField(V0x=1e300), st, IntegratorConfig(dt=0.01, t_end=0.08),
                          [0.04, 0.02, 0.01])


def test_convergence_needs_three_points(uniform):
    st = _state((0, 1, 0), beta=1.0, r=(0, 0, 0))
    with pytest.raises(ValidationError):
        convergence_study(uniform, st, IntegratorConfig(t_end=1.0), [1e-3])


# --- oracles -----------------------------------------------------------------------------

def test_oracle_uniform_line(uniform):
    st = _state((0, 1, 0), beta=1.0, r=(1.0, 2.0, 3.0))
    oracle = trajectory_oracle(uniform, st)
    r, n = oracle(2.0)
    np.testing.assert_allclose(r, (3.0, 4.0, 3.0), rtol=1e-15)  # V0 + u = (1,1,0)
    np.testing.assert_array_equal(n, (0, 1, 0))


def test_oracle_rigid_rotation_helix_consistency():
    prov = RigidRotationField(omega=1.0, p0=0.5, c=1.0)
    alpha, gamma = 0.6, 0.8
    st = _state((0, alpha, gamma), beta=0.7, r=(1.5, 0, 0))
    oracle = trajectory_oracle(prov, st)
    r0, n0 = oracle(0.0)
    np.testing.assert_allclose(r0, st.r, rtol=1e-15)
    np.testing.assert_allclose(n0, st.n, rtol=1e-15)
    # radius and axial rate are constant along the orbit
    for t in (0.5, 1.0, 2.0):
        r, n = oracle(t)
        assert abs(math.hypot(r[0], r[1]) - 1.5) < 1e-12
        assert abs(np.linalg.norm(n) - 1.0) < 1e-12


def test_oracle_rejects_untangent_seed():
    prov = RigidRotationField(omega=1.0, p0=0.5, c=1.0)
    st = _state((1.0, 0, 0), beta=0.7, r=(1.5, 0, 0))  # radial direction
    with pytest.raises(NoOracle):
        trajectory_oracle(prov, st)


def test_oracle_rejects_axis_seed():
    prov = RigidRotationField(omega=1.0, p0=0.5, c=1.0)
    st = _state((0, 1, 0), beta=0.7, r=(0.0, 0, 0))
    with pytest.raises(NoOracle):
        trajectory_oracle(prov, st)


def test_oracle_missing_for_taylor_green(taylor_green):
    st = _state((0, 1, 0), beta=0.7, r=(1.0, 0, 0))
    with pytest.raises(NoOracle):
        trajectory_oracle(taylor_green, st)
