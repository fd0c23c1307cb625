"""Acceptance suite: one test per criterion, stated tolerances, timed budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every tolerance below is fixed; nothing is calibrated at run
time.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import seed_time_moments
from ttpsim import (GridField, IntegratorConfig, LambOseenField,
                    RigidRotationField, TaylorGreenField, TtpState,
                    UniformField, UniformGradientField, EnsembleSpec,
                    cancellation_check, fd_verify_derivatives,
                    fit_order, integrate_trajectory, isobaric_normal,
                    omega_identity_sweep, seed_tangent_circle, tangency_drift_study,
                    tangent_frame, thermal_velocity, trajectory_oracle)


@contextmanager
def criterion(num, title, budget_s):
    t0 = time.perf_counter()
    info = {}
    try:
        yield info
    except Exception:
        print(f"criterion {num} FAIL  {title}")
        raise
    elapsed = time.perf_counter() - t0
    detail = info.get("detail", "")
    print(f"criterion {num} PASS  {title} [{elapsed:.1f}s <= {budget_s}s] {detail}")
    assert elapsed <= budget_s, f"runtime {elapsed:.1f}s exceeded {budget_s}s budget"


def _tangent_state(provider, r0, beta, t0=0.0):
    b = isobaric_normal(provider.sample(np.asarray(r0, dtype=float), t0))
    e1, _ = tangent_frame(b)
    return TtpState(t=t0, r=np.asarray(r0, dtype=float), n=e1, beta=beta)


def test_c1_relative_speed_constraint_long_taylor_green_run():
    # |u| = beta * v_th on every record of a 1e5-step run, to 1e-13 relative
    with criterion(1, "relative-speed constraint over 1e5 Taylor-Green steps", 10) as info:
        prov = TaylorGreenField(A=1.0, k=1.0, nu=0.13, p0=1.0)
        st = _tangent_state(prov, (2.1, 3.3, 1.7), beta=0.5)
        cfg = IntegratorConfig(dt=1e-4, t_end=10.0)
        traj = integrate_trajectory(st, prov, cfg)
        assert traj.summary.steps == 100_000
        speed = np.linalg.norm(traj.u, axis=1)
        rel = np.abs(speed - st.beta * traj.v_th) / (st.beta * traj.v_th)
        worst = float(np.max(rel))
        assert worst <= 1e-13, f"constraint residual {worst:.3e} > 1e-13"
        info["detail"] = f"max residual {worst:.2e}"


def test_c2_norm_preservation_long_rigid_rotation_run():
    with criterion(2, "unit-norm preservation over 1e5 rigid-rotation steps", 10) as info:
        prov = RigidRotationField(omega=1.0, p0=0.5, c=1.0)
        st = TtpState(t=0.0, r=np.array((1.0, 0.0, 0.0)),
                      n=np.array((0.0, 1.0, 0.0)), beta=1.0)
        cfg = IntegratorConfig(dt=1e-4, t_end=10.0, method="rk4_rodrigues")
        traj = integrate_trajectory(st, prov, cfg)
        assert traj.summary.steps == 100_000
        worst = traj.summary.max_norm_err
        assert worst <= 1e-12, f"norm error {worst:.3e} > 1e-12"
        info["detail"] = f"max | |n|-1 | = {worst:.2e}"


def test_c3_tangency_conservation():
    # (a) analytic cancellation at 1000 random states per smooth provider;
    # (b) discrete drift order in [3.5, 4.5] over dt in {4e-3, 2e-3, 1e-3}
    with criterion(3, "tangency conservation: cancellation + drift order", 60) as info:
        smooth = [UniformGradientField(),
                  RigidRotationField(omega=1.0, p0=0.5, c=1.0),
                  TaylorGreenField(A=1.0, k=1.0, nu=0.3, p0=1.0),
                  LambOseenField(Gamma=1.0, rc=1.0, W=0.5, p0=1.0, pa=0.5)]
        worst = 0.0
        for prov in smooth:
            res = cancellation_check(prov, n_states=1000, seed=101, beta=1.0, t=0.1)
            assert res <= 1e-12, f"{prov.name}: cancellation residual {res:.3e}"
            worst = max(worst, res)

        prov = RigidRotationField(omega=1.0, p0=0.5, c=1.0)
        st = TtpState(t=0.0, r=np.array((1.0, 0.0, 0.0)),
                      n=np.array((0.0, 1.0, 0.0)), beta=1.0)
        study = tangency_drift_study(prov, st, IntegratorConfig(t_end=2.0),
                                     [4e-3, 2e-3, 1e-3])
        assert 3.5 <= study.order <= 4.5, f"drift order {study.order:.2f}"
        info["detail"] = (f"max cancellation {worst:.2e}, "
                          f"drift order {study.order:.2f}")


def test_c4_rigid_body_analogy_closed_form_orbit():
    with criterion(4, "closed-form rigid-rotation orbit: RK4 order and error", 30) as info:
        prov = RigidRotationField(omega=1.0, p0=0.5, c=1.0)
        R = 1.0
        st = TtpState(t=0.0, r=np.array((R, 0.0, 0.0)),
                      n=np.array((0.0, 1.0, 0.0)), beta=1.0)
        v_th = math.sqrt(2.0 * prov.p0 + prov.c * R * R)
        period = 2.0 * math.pi / (prov.omega + v_th / R)
        t_end = 4e-3 * round(period / 4e-3)  # one orbit, whole steps at every dt
        oracle = trajectory_oracle(prov, st)
        errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            cfg = IntegratorConfig(dt=dt, t_end=t_end)
            traj = integrate_trajectory(st, prov, cfg)
            r_exact, _ = oracle(traj.t[-1])
            errs.append(float(np.linalg.norm(traj.r[-1] - r_exact)))
        order = fit_order([4e-3, 2e-3, 1e-3], errs)
        assert order >= 3.8, f"observed order {order:.2f} < 3.8"
        assert errs[-1] <= 1e-8 * R, f"error at dt=1e-3: {errs[-1]:.3e} > 1e-8 R"
        info["detail"] = f"order {order:.2f}, error@1e-3 {errs[-1]:.2e}"


def test_c5_rotation_rate_identity_fd():
    # omega_direct vs finite-difference b x db/dt: O(h^2) decay and accuracy
    with criterion(5, "rotation-rate identity vs path finite difference", 30) as info:
        prov = TaylorGreenField(A=1.0, k=1.0, nu=0.3, p0=1.0)
        maxima = []
        for h in (1e-3, 5e-4, 2.5e-4):
            rep = omega_identity_sweep(prov, n_points=100, seed=0, h=h, beta=0.5)
            maxima.append(rep.max_fd)
        order = fit_order([1e-3, 5e-4, 2.5e-4], maxima)
        assert 1.7 <= order <= 2.3, f"fd order {order:.2f} outside [1.7, 2.3]"
        rep = omega_identity_sweep(prov, n_points=100, seed=0, h=1e-5, beta=0.5)
        assert rep.max_fd < 1e-6, f"max residual {rep.max_fd:.3e} at h=1e-5"
        info["detail"] = f"order {order:.2f}, max@1e-5 {rep.max_fd:.2e}"


def test_c6_ensemble_reconstruction_at_seed_time():
    with criterion(6, "tangent-circle ensemble reconstructs fluid moments", 5) as info:
        prov = TaylorGreenField(A=1.0, k=1.0, nu=0.0, p0=1.0)
        r0 = np.array((2.1, 3.3, 1.7))
        beta = 0.8
        spec = EnsembleSpec(r0=r0, t0=0.0, count=64,
                            sampling="equispaced_circle", beta=beta)
        states = seed_tangent_circle(spec, prov)
        stats = seed_time_moments(states, prov)
        s = prov.sample(r0, 0.0)
        vth = thermal_velocity(s)
        b = isobaric_normal(s)
        v_err = float(np.linalg.norm(stats.mean_v - s.V))
        v_tol = 1e-13 * float(np.linalg.norm(s.V)) + 1e-14
        assert v_err <= v_tol, f"|mean_v - V| = {v_err:.3e} > {v_tol:.3e}"
        cov_expected = 0.5 * beta**2 * vth**2 * (np.eye(3) - np.outer(b, b))
        c_err = float(np.max(np.abs(stats.cov_u - cov_expected)))
        c_tol = 1e-13 * beta**2 * vth**2
        assert c_err <= c_tol, f"covariance error {c_err:.3e} > {c_tol:.3e}"
        info["detail"] = f"|mean_v - V| {v_err:.2e}, cov err {c_err:.2e}"


def test_c7_derivative_integrity():
    with criterion(7, "derivative audits and gridded vorticity", 10) as info:
        providers = [UniformField(), UniformGradientField(),
                     RigidRotationField(omega=1.0, p0=0.5, c=1.0),
                     TaylorGreenField(A=1.0, k=1.0, nu=0.3, p0=1.0),
                     LambOseenField(Gamma=1.0, rc=1.0, W=0.5, p0=1.0, pa=0.5)]
        worst = 0.0
        for prov in providers:
            lo, hi = prov.reference_box
            for f in (0.31, 0.47, 0.68):
                rep = fd_verify_derivatives(prov, lo + f * (hi - lo), 0.15, h=1e-4)
                assert rep.max_residual < 1e-6, \
                    f"{prov.name}: residual {rep.max_residual:.3e} at h=1e-4"
                worst = max(worst, rep.max_residual)

        # rigid rotation sampled on a 65^3 grid over [-2, 2]^3
        n = 65
        ax = np.linspace(-2.0, 2.0, n)
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        Vx = np.broadcast_to(-Y[:, :, None], (n, n, n))
        Vy = np.broadcast_to(X[:, :, None], (n, n, n))
        V = np.stack((Vx, Vy, np.zeros((n, n, n))), axis=-1)
        p1 = np.broadcast_to((0.5 + 0.5 * (X**2 + Y**2))[:, :, None], (n, n, n))
        grid = GridField((ax[0],) * 3, (ax[1] - ax[0],) * 3, V, np.array(p1))
        s = grid.sample(np.array((1.0, 0.0, 0.0)), 0.0)
        xi_err = float(np.max(np.abs(s.xi - np.array((0.0, 0.0, 2.0)))))
        assert xi_err <= 1e-6, f"gridded vorticity error {xi_err:.3e}"
        info["detail"] = f"max analytic residual {worst:.2e}, grid xi err {xi_err:.2e}"


def test_c8_decomposition_diagnostic_reports():
    # the term-by-term route is reported on every builtin, never thresholded
    with criterion(8, "decomposition-route residual reports on all builtins", 30) as info:
        providers = [UniformField(), UniformGradientField(),
                     RigidRotationField(omega=1.0, p0=0.5, c=1.0),
                     TaylorGreenField(A=1.0, k=1.0, nu=0.3, p0=1.0),
                     LambOseenField(Gamma=1.0, rc=1.0, W=0.5, p0=1.0, pa=0.5)]
        lines = []
        for prov in providers:
            rep = omega_identity_sweep(prov, n_points=100, seed=0, h=1e-5, beta=0.5)
            text = rep.to_text()
            assert "route-split" in text
            assert rep.requested == 100
            assert len(rep.res_split_abs) + rep.skipped == 100
            if len(rep.res_split_abs):
                assert np.all(np.isfinite(rep.res_split_abs))
            lines.append(f"{prov.name}: median split residual "
                         f"{rep.median_split_rel:.3g} "
                         f"({len(rep.res_split_abs)} pts, {rep.skipped} skipped)")
        print()
        for ln in lines:
            print("  " + ln)
        info["detail"] = f"{len(providers)} providers reported"
