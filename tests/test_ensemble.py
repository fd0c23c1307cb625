"""Tangent-circle seeding and ensemble statistics."""

import math
import tracemalloc
from bisect import bisect_left

import numpy as np
import pytest

from conftest import seed_time_moments
from ttpsim import (DegenerateGradient, EmptyEnsemble, EnsembleHistory, EnsembleSpec,
                    IntegratorConfig, RigidRotationField, TaylorGreenField, Trajectory,
                    UniformField, UniformGradientField, ValidationError, evolve_ensemble,
                    integrate_trajectory, isobaric_normal, seed_tangent_circle,
                    tangent_frame, thermal_velocity)
from ttpsim.ensemble import _odd_sum


def _spec(r0, **kw):
    return EnsembleSpec(r0=np.array(r0, dtype=float), **kw)


# --- tangent frame -------------------------------------------------------------

def test_tangent_frame_right_handed():
    rng = np.random.default_rng(2)
    for _ in range(50):
        b = rng.normal(size=3)
        b /= np.linalg.norm(b)
        e1, e2 = tangent_frame(b)
        assert abs(e1 @ b) < 1e-14
        assert abs(e2 @ b) < 1e-14
        assert abs(e1 @ e2) < 1e-14
        np.testing.assert_allclose(np.cross(e1, e2), b, atol=1e-14)


@pytest.mark.parametrize("count", [1, 2, 23, 1024])
@pytest.mark.parametrize("sampling", ["equispaced_circle", "random_circle"])
def test_seed_directions_are_cos_e1_plus_sin_e2(taylor_green, sampling, count):
    # each direction is cos(a) e1 + sin(a) e2 in the tangent frame, bit for bit: the
    # one array pass over numpy's cos and sin gives libm's scalar numbers
    spec = _spec((2.1, 3.3, 1.7), count=count, sampling=sampling, seed=5)
    e1, e2 = tangent_frame(isobaric_normal(taylor_green.sample(spec.r0, spec.t0)))
    if sampling == "equispaced_circle":
        angles = 2.0 * math.pi * np.arange(spec.count) / spec.count
    else:
        angles = np.random.default_rng(spec.seed).uniform(0.0, 2.0 * math.pi, spec.count)
    states = seed_tangent_circle(spec, taylor_green)
    assert len(states) == spec.count
    for st, a in zip(states, angles):
        assert st.n.tobytes() == (math.cos(a) * e1 + math.sin(a) * e2).tobytes()


@pytest.mark.parametrize("sampling", ["equispaced_circle", "random_circle"])
@pytest.mark.parametrize("count, stubbed", [(10**12, "angles"), (16, "directions"),
                                            (16, "positions")])
def test_seed_angles_out_of_memory_is_validation_error(taylor_green, monkeypatch, sampling,
                                                       count, stubbed):
    # numpy raises MemoryError where it cannot allocate the angles, the directions or the
    # positions; stubbed here, since a count numpy would really try to allocate must not
    # run in a test
    def out_of_memory(*args, **kwargs):
        raise MemoryError("stub")

    class Generator:
        uniform = staticmethod(out_of_memory)

    if stubbed == "angles":
        monkeypatch.setattr(np, "arange", out_of_memory)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: Generator())
    elif stubbed == "directions":
        monkeypatch.setattr(np, "cos", out_of_memory)
    else:
        monkeypatch.setattr(np, "full", out_of_memory)
    spec = _spec((2.1, 3.3, 1.7), count=count, sampling=sampling)
    with pytest.raises(ValidationError, match=f"^cannot draw {count} seed angles"):
        seed_tangent_circle(spec, taylor_green)


@pytest.mark.parametrize("count", [1, 2, 1024])
@pytest.mark.parametrize("sampling", ["equispaced_circle", "random_circle"])
def test_each_seeded_position_is_its_own_row(taylor_green, sampling, count):
    # the positions are the rows of one (count, 3) array, as the directions are; a write
    # into one state's r reaches no other state and not the spec
    spec = _spec((2.1, 3.3, 1.7), count=count, sampling=sampling, seed=5)
    states = seed_tangent_circle(spec, taylor_green)
    positions = states[0].r.base
    assert positions.shape == (count, 3) and positions.dtype == np.dtype(float)
    for k, st in enumerate(states):
        assert st.r.base is positions and st.r.tobytes() == positions[k].tobytes()
        assert st.r.tobytes() == spec.r0.tobytes()
    states[-1].r[:] = -1.0
    assert spec.r0.tolist() == [2.1, 3.3, 1.7]
    assert all(st.r.tolist() == [2.1, 3.3, 1.7] for st in states[:-1])
    assert not np.shares_memory(states[0].r, spec.r0)


def test_tangent_frame_accepts_any_sequence():
    rng = np.random.default_rng(3)
    for b in [*rng.normal(size=(20, 3)), (0.05, 0.0, 0.9987), (0.0, 0.0, -1.0)]:
        b = np.asarray(b) / np.linalg.norm(b)
        for got, want in zip(tangent_frame(tuple(b.tolist())), tangent_frame(b)):
            np.testing.assert_array_equal(got, want, strict=True)


def test_tangent_frame_of_a_degenerate_normal_is_degenerate_gradient():
    # None is isobaric_normal's degenerate value; the seeding paths rely on this check
    with pytest.raises(DegenerateGradient,
                       match="^pressure gradient degenerate at the seed point$"):
        tangent_frame(None)


def test_tangent_frame_near_pole_switches_axis():
    e1, e2 = tangent_frame(np.array((0.0, 0.0, 1.0)))
    assert abs(np.linalg.norm(e1) - 1.0) < 1e-14
    e1b, _ = tangent_frame(np.array((0.05, 0.0, 0.9987)))
    assert np.all(np.isfinite(e1b))


# --- seeding ----------------------------------------------------------------------

def test_equispaced_quarter_points(rigid):
    # at r0 = (1,0,0): b = x_hat, frame e1 = z_hat x b = y_hat... convention:
    # a = z_hat, e1 = normalize(a x b), e2 = b x e1
    spec = _spec((1.0, 0, 0), count=4, sampling="equispaced_circle")
    states = seed_tangent_circle(spec, rigid)
    b = np.array((1.0, 0, 0))
    e1 = np.array((0.0, 1.0, 0.0))   # z x x = y
    e2 = np.array((0.0, 0.0, 1.0))   # x x y = z
    expected = [e1, e2, -e1, -e2]
    for st, want in zip(states, expected):
        np.testing.assert_allclose(st.n, want, atol=1e-15)
        assert abs(st.n @ b) <= 1e-14


def test_single_seed_tangent(taylor_green):
    spec = _spec((2.1, 3.3, 1.7), count=1)
    states = seed_tangent_circle(spec, taylor_green)
    assert len(states) == 1
    b = isobaric_normal(taylor_green.sample(states[0].r, 0.0))
    assert abs(states[0].n @ b) <= 1e-14


def test_random_seeding_deterministic(taylor_green):
    spec1 = _spec((2.1, 3.3, 1.7), count=32, sampling="random_circle", seed=9)
    spec2 = _spec((2.1, 3.3, 1.7), count=32, sampling="random_circle", seed=9)
    s1 = seed_tangent_circle(spec1, taylor_green)
    s2 = seed_tangent_circle(spec2, taylor_green)
    for a, b in zip(s1, s2):
        assert np.array_equal(a.n, b.n)


def test_seeding_degenerate_point_rejected(uniform):
    with pytest.raises(DegenerateGradient):
        seed_tangent_circle(_spec((0, 0, 0), count=4), uniform)


def test_spec_validation():
    with pytest.raises(ValidationError):
        _spec((0, 0, 0), count=0)
    with pytest.raises(ValidationError):
        _spec((0, 0, 0), sampling="grid")
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        _spec((0, 0, 0), sampling="random_circle", seed=-1)


# --- statistics at the seed time ------------------------------------------------------

def test_reconstruction_at_seed_time(taylor_green):
    r0 = np.array((2.1, 3.3, 1.7))
    beta = 0.8
    spec = _spec(r0, count=64, beta=beta)
    states = seed_tangent_circle(spec, taylor_green)
    stats = seed_time_moments(states, taylor_green)
    s = taylor_green.sample(r0, 0.0)
    vth = thermal_velocity(s)
    b = isobaric_normal(s)

    assert np.linalg.norm(stats.mean_u) <= 1e-14 * beta * vth + 1e-15
    np.testing.assert_allclose(stats.mean_v, s.V, rtol=1e-13, atol=1e-14)
    cov_expected = 0.5 * beta**2 * vth**2 * (np.eye(3) - np.outer(b, b))
    assert np.max(np.abs(stats.cov_u - cov_expected)) <= 1e-13 * beta**2 * vth**2


def test_covariance_psd_and_symmetric(taylor_green):
    spec = _spec((2.1, 3.3, 1.7), count=16, beta=1.0)
    states = seed_tangent_circle(spec, taylor_green)
    stats = seed_time_moments(states, taylor_green)
    # symmetric by construction: the history stores the upper triangle
    np.testing.assert_array_equal(stats.cov_u, stats.cov_u.T)
    w = np.linalg.eigvalsh(stats.cov_u)
    assert np.all(w >= -1e-15)


def test_frame_independence_of_moments(taylor_green):
    # stats must not depend on the (arbitrary) tangent frame: rotate the
    # equispaced circle by a fixed phase and compare
    r0 = np.array((2.1, 3.3, 1.7))
    spec = _spec(r0, count=48, beta=0.7)
    states = seed_tangent_circle(spec, taylor_green)
    s = taylor_green.sample(r0, 0.0)
    b = isobaric_normal(s)
    e1, e2 = tangent_frame(b)
    phase = 0.7331
    rotated = []
    for k in range(spec.count):
        a = 2.0 * math.pi * k / spec.count + phase
        n = math.cos(a) * e1 + math.sin(a) * e2
        rotated.append(type(states[0])(t=0.0, r=r0.copy(), n=n, beta=0.7))
    st1 = seed_time_moments(states, taylor_green)
    st2 = seed_time_moments(rotated, taylor_green)
    np.testing.assert_allclose(st1.mean_u, st2.mean_u, atol=1e-13)
    np.testing.assert_allclose(st1.cov_u, st2.cov_u, atol=1e-13)


def test_clt_bound_random_sampling(taylor_green):
    r0 = np.array((2.1, 3.3, 1.7))
    beta = 1.0
    s = taylor_green.sample(r0, 0.0)
    vth = thermal_velocity(s)
    n_samp = 10_000
    bound = 4.0 * beta * vth / math.sqrt(2.0 * n_samp)
    for seed in range(100):
        spec = _spec(r0, count=n_samp, sampling="random_circle", seed=seed, beta=beta)
        states = seed_tangent_circle(spec, taylor_green)
        U = np.array([st.n for st in states]) * beta * vth
        mean_u = U.mean(axis=0)
        assert np.linalg.norm(mean_u) <= bound, f"seed {seed}"


def test_fixed_seed_bit_identical_stats(taylor_green):
    def run():
        spec = _spec((2.1, 3.3, 1.7), count=128, sampling="random_circle",
                     seed=21, beta=0.9)
        states = seed_tangent_circle(spec, taylor_green)
        return seed_time_moments(states, taylor_green)

    s1, s2 = run(), run()
    assert np.array_equal(s1.mean_v, s2.mean_v)
    assert np.array_equal(s1.mean_u, s2.mean_u)
    assert np.array_equal(s1.cov_u, s2.cov_u)


def test_stats_require_common_time(taylor_green):
    # particles seeded at two times would give rows that mix the two
    spec = _spec((2.1, 3.3, 1.7), count=4)
    states = seed_tangent_circle(spec, taylor_green)
    states[2].t = 0.05
    with pytest.raises(ValidationError, match="share one time"):
        evolve_ensemble(states, taylor_green, IntegratorConfig(dt=0.01, t_end=0.12))


# --- evolution -------------------------------------------------------------------------

def test_evolve_rigid_rotation_reports_series():
    prov = RigidRotationField(omega=1.0, p0=0.5, c=1.0)
    spec = _spec((1.0, 0, 0), count=16, beta=0.5)
    states = seed_tangent_circle(spec, prov)
    cfg = IntegratorConfig(dt=1e-2, t_end=0.5)
    trajs, hist = evolve_ensemble(states, prov, cfg, stride=10)
    assert len(trajs) == 16
    assert len(hist) == 6
    assert np.linalg.norm(hist.mean_u[0]) <= 1e-14
    assert np.all(hist.n_effective + hist.excluded == 16)
    # later-time moments are emitted for analysis; no asserted bound
    assert np.all(np.isfinite(hist.mean_v))


def test_evolve_uniform_stats_constant(uniform):
    # degenerate gradient everywhere: directions freeze, each particle keeps
    # its own constant u, so all moments are time-independent
    from ttpsim import TtpState
    r0 = np.zeros(3)
    states = []
    for k in range(8):
        a = 2.0 * math.pi * k / 8
        n = np.array((math.cos(a), math.sin(a), 0.0))
        states.append(TtpState(t=0.0, r=r0.copy(), n=n, beta=0.7))
    cfg = IntegratorConfig(dt=0.05, t_end=1.0)
    _, hist = evolve_ensemble(states, uniform, cfg, stride=5)
    for j in range(1, len(hist)):
        np.testing.assert_allclose(hist.mean_v[j], hist.mean_v[0], atol=1e-14)
        np.testing.assert_allclose(hist.mean_u[j], hist.mean_u[0], atol=1e-14)
        np.testing.assert_allclose(hist.cov_u[j], hist.cov_u[0], atol=1e-14)


def test_evolve_excludes_domain_leavers(tmp_path):
    from ttpsim import load_grid, write_grid
    from ttpsim.fields.analytic import UniformGradientField
    prov_src = UniformGradientField(V0x=1.0, p0=4.0, gz=1.0)
    write_grid(tmp_path / "g.grid", prov_src, (-1, -1, -1), (0.25, 0.25, 0.25),
               (9, 9, 9))
    grid = load_grid(tmp_path / "g.grid")
    spec = _spec((0.5, 0, 0), count=8, beta=0.2)
    states = seed_tangent_circle(spec, grid)
    cfg = IntegratorConfig(dt=0.05, t_end=2.0)
    trajs, hist = evolve_ensemble(states, grid, cfg)
    assert hist.excluded[-1] > 0
    assert np.all(hist.n_effective + hist.excluded == 8)
    # every particle leaves before t_end, and the history says so
    assert hist.termination_reason.startswith("no_survivors: ")


def test_evolve_empty_rejected(taylor_green):
    with pytest.raises(EmptyEnsemble):
        evolve_ensemble([], taylor_green, IntegratorConfig(dt=0.1, t_end=1.0))


@pytest.mark.parametrize("c, want", [([0.0, -0.5, 0.25, 0.25], "-0.0"),
                                     ([0.0, 0.5, -0.25, -0.25], "0.0"),
                                     ([-0.0, 0.0], "0.0"), ([0.5, 0.25], "0.75")])
def test_an_exact_cancellation_takes_the_sign_of_the_first_nonzero_term(c, want):
    # so a sign flip of a column maps every moment it enters bit for bit, zeros included
    c = np.array(c)
    assert repr(float(_odd_sum(c))) == want
    if c.any():  # a column of zeros alone sums to +0.0 either way
        assert repr(float(_odd_sum(-c))) == repr(-float(_odd_sum(c)))


# --- the stats gather, pinned against the full-table gather ----------------------------

def _ref_moments(Vv, U):
    """The moments with each sum over the particles one _odd_sum of a contiguous column."""
    def mean(col):
        return _odd_sum(np.ascontiguousarray(col)) / len(col)

    mean_u = [mean(U[:, i]) for i in range(3)]
    D = [U[:, i] - mean_u[i] for i in range(3)]
    cov = [mean(D[i] * D[j]) for i in range(3) for j in range(i, 3)]
    return (*(mean(Vv[:, i]) for i in range(3)), *mean_u, *cov)


def _ref_gather(trajectories, t0, n_steps, stride, dt):
    """(table, termination_reason, output indices) read from every particle's full table."""
    out_idx = list(range(0, n_steps + 1, stride))
    if out_idx[-1] != n_steps:
        out_idx.append(n_steps)
    table = np.empty((len(out_idx), EnsembleHistory.WIDTH))
    t, v, u = (Trajectory.INDEX[name] for name in ("t", "v", "u"))
    reason, j = "", 0
    for idx in out_idx:
        alive = [tr for tr in trajectories if len(tr) > idx]
        if not alive:
            reason = f"no_survivors: all particles stopped before t = {t0 + idx * dt!r}"
            break
        rows = np.array([tr.table[idx] for tr in alive])
        with np.errstate(over="ignore", invalid="ignore"):
            row = (rows[0, t], len(alive), *_ref_moments(rows[:, v], rows[:, u]))
        if not all(map(math.isfinite, row)):
            reason = f"non_finite_state: the moments at t = {float(rows[0, t])!r}"
            break
        table[j] = row
        j += 1
    return table[:j], reason, out_idx


_UNIFORM_GRADIENT = dict(V0x=0.7, V0y=-0.2, V0z=0.1, p0=2.0, gx=0.0, gy=0.0, gz=1.0)
GATHER_CASES = {
    # every particle reaches t_end = 20 steps
    "rigid_full": (RigidRotationField(), dict(r0=(1.0, 0.0, 0.0), count=8, beta=0.5),
                   IntegratorConfig(dt=0.05, t_end=1.0)),
    # 8 of 12 particles leave the box after 22 to 34 steps; 4 reach t_end = 40 steps
    "uniform_gradient_some_stop": (
        UniformGradientField(**_UNIFORM_GRADIENT),
        dict(r0=(0.2, 0.1, 0.0), count=12, sampling="random_circle", seed=3, beta=0.5),
        IntegratorConfig(dt=0.01, t_end=0.4)),
    # every particle leaves the box before t_end: no_survivors
    "uniform_gradient_none_survive": (
        UniformGradientField(**_UNIFORM_GRADIENT),
        dict(r0=(0.2, 0.1, 0.0), count=12, sampling="random_circle", seed=3, beta=2.0),
        IntegratorConfig(dt=0.01, t_end=0.4)),
    # u is finite but the covariance overflows at t0: non_finite_state, no rows
    "taylor_green_non_finite": (TaylorGreenField(), dict(r0=(2.1, 3.3, 1.7), count=4,
                                                         beta=1e160),
                                IntegratorConfig(dt=0.01, t_end=0.08)),
}


@pytest.mark.parametrize("stride", [1, 3, 7, 50])
@pytest.mark.parametrize("case", sorted(GATHER_CASES))
def test_gather_matches_full_table_reference(case, stride):
    # strides 3 and 7 divide neither 20 nor 40 steps, and 50 exceeds both
    provider, spec, cfg = GATHER_CASES[case]
    states = seed_tangent_circle(_spec(**spec), provider)
    full = [integrate_trajectory(st, provider, cfg) for st in states]
    trajs, hist = evolve_ensemble(states, provider, cfg, stride=stride)
    table, reason, out_idx = _ref_gather(full, 0.0, round(cfg.t_end / cfg.dt), stride, cfg.dt)
    assert hist.table.tobytes() == table.tobytes()
    assert hist.termination_reason == reason
    assert hist.count == len(states)
    assert [tr.summary for tr in trajs] == [tr.summary for tr in full]
    # each particle keeps its rows at the output times it reached
    for tr, ref in zip(trajs, full):
        reached = out_idx[:bisect_left(out_idx, len(ref))]
        assert tr.table.tobytes() == ref.table[reached].tobytes()


def test_ensemble_memory_grows_with_output_times_not_steps():
    # the same 11 output times over 10 and over 200 steps: the traced peak may grow by
    # the full tables of at most two particles, not by one per particle
    prov = RigidRotationField()
    states = seed_tangent_circle(_spec((1.0, 0.0, 0.0), count=16, beta=0.5), prov)
    peaks, lengths = [], set()
    for steps in (10, 200):
        cfg = IntegratorConfig(dt=0.01, t_end=0.01 * steps)
        tracemalloc.start()
        try:
            trajs, hist = evolve_ensemble(states, prov, cfg, stride=steps // 10)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        lengths |= {len(hist), *map(len, trajs)}
    assert peaks[1] - peaks[0] <= 2 * 201 * Trajectory.WIDTH * 8
    assert lengths == {11}
