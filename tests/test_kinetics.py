"""Constraint system and rotation-rate tests."""

import math

import numpy as np
import pytest

from ttpsim import (EPS_GRAD, DegenerateGradient, FluidSample, GridField, LambOseenField,
                    NegativePressure, RigidRotationField, TaylorGreenField, TtpState,
                    UniformGradientField, isobaric_normal, omega_decomposed, omega_direct,
                    relative_velocity, state_rhs, thermal_velocity)
from ttpsim.kinetics import _rates, cross, gradient_normal, rhs_terms, stage_eval

from conftest import all_builtin_providers, interior_points
from test_float_exactness import _tricubic_grid


def _sample_with(grad, p1=1.0, V=(0, 0, 0), hess=None):
    H = np.zeros((3, 3)) if hess is None else np.array(hess, dtype=float)
    kin = (*map(float, V), float(p1), *map(float, grad), *H[np.triu_indices(3)].tolist(),
           0.0, 0.0, 0.0)
    return FluidSample(kin, (0.0,) * 9)


def _state(n, beta=1.0, r=(0, 0, 0), t=0.0):
    return TtpState(t=t, r=np.array(r, dtype=float), n=np.array(n, dtype=float),
                    beta=beta)


# --- isobaric normal -----------------------------------------------------------

def test_isobaric_normal_axis():
    b = isobaric_normal(_sample_with((2.0, 0.0, 0.0)))
    np.testing.assert_array_equal(b, (1.0, 0.0, 0.0))


def test_isobaric_normal_diagonal():
    b = isobaric_normal(_sample_with((1.0, 1.0, 0.0)))
    np.testing.assert_allclose(b, (1 / math.sqrt(2), 1 / math.sqrt(2), 0.0),
                               rtol=1e-15)
    assert abs(np.linalg.norm(b) - 1.0) <= 1e-15


def test_isobaric_normal_degenerate_is_value():
    assert isobaric_normal(_sample_with((0.0, 0.0, 0.0))) is None
    assert isobaric_normal(_sample_with((1e-11, 0.0, 0.0))) is None
    # the threshold is inclusive: |grad p1hat| <= EPS_GRAD is degenerate
    assert isobaric_normal(_sample_with((EPS_GRAD, 0.0, 0.0))) is None
    assert isobaric_normal(_sample_with((2.0 * EPS_GRAD, 0.0, 0.0))) is not None


# --- thermal velocity and relative velocity ---------------------------------------

@pytest.mark.parametrize("p1,expected", [(0.0, 0.0), (2.0, 2.0), (0.5, 1.0)])
def test_thermal_velocity_values(p1, expected):
    assert thermal_velocity(_sample_with((1, 0, 0), p1=p1)) == expected


def test_thermal_velocity_negative_pressure():
    with pytest.raises(NegativePressure):
        thermal_velocity(_sample_with((1, 0, 0), p1=-0.1))


@pytest.mark.parametrize("beta,p1,n,expected", [
    (1.0, 0.5, (0, 1, 0), (0, 1, 0)),
    (0.0, 0.5, (0, 1, 0), (0, 0, 0)),
    (2.0, 2.0, (1, 0, 0), (4, 0, 0)),
])
def test_relative_velocity_examples(beta, p1, n, expected):
    u = relative_velocity(_state(n, beta=beta), _sample_with((1, 0, 0), p1=p1))
    np.testing.assert_allclose(u, expected, rtol=1e-15)


def test_relative_speed_independent_of_direction():
    s = _sample_with((1, 2, 3), p1=0.7)
    rng = np.random.default_rng(3)
    mags = []
    for _ in range(20):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        mags.append(np.linalg.norm(relative_velocity(_state(n, beta=1.3), s)))
    np.testing.assert_allclose(mags, mags[0], rtol=1e-15)


# --- rotation rate: direct route --------------------------------------------------

def test_omega_zero_for_constant_gradient():
    # constant-in-space-and-time gradient: b frozen, no rotation
    s = _sample_with((0, 0, 2.0), V=(3.0, -1.0, 0.5))
    om = omega_direct(s, _state((1, 0, 0)))
    np.testing.assert_array_equal(om, (0.0, 0.0, 0.0))


def _rigid_sample(provider, r):
    return provider.sample(np.asarray(r, dtype=float), 0.0)


def test_omega_rigid_rotation_closed_form():
    # particle at radius R with azimuthal direction rotates at
    # omega + beta * v_th(R) / R about z
    prov = RigidRotationField(omega=1.0, p0=0.5, c=1.0)
    R, beta = 1.0, 1.0
    st = _state((0, 1, 0), beta=beta, r=(R, 0, 0))
    s = _rigid_sample(prov, st.r)
    v_th = math.sqrt(2.0 * prov.p0 + prov.c * R * R)
    expected = 1.0 + beta * v_th / R
    om = omega_direct(s, st)
    np.testing.assert_allclose(om, (0.0, 0.0, expected), rtol=1e-14)


def test_omega_rigid_rotation_helical_direction():
    # mixed azimuthal/axial direction: only the azimuthal part advances theta
    prov = RigidRotationField(omega=0.7, p0=0.5, c=2.0)
    R, beta = 1.5, 0.8
    alpha, gamma = 0.6, 0.8
    st = _state((0, alpha, gamma), beta=beta, r=(R, 0, 0))
    s = _rigid_sample(prov, st.r)
    v_th = math.sqrt(2.0 * prov.p0 + prov.c * R * R)
    expected = prov.omega + alpha * beta * v_th / R
    om = omega_direct(s, st)
    np.testing.assert_allclose(om, (0.0, 0.0, expected), rtol=1e-14)


def test_omega_orthogonal_to_b_everywhere():
    prov = TaylorGreenField(A=1.0, k=1.0, nu=0.3, p0=1.0)
    rng = np.random.default_rng(11)
    checked = 0
    for r in interior_points(prov, 200, seed=11):
        s = prov.sample(r, 0.1)
        b = isobaric_normal(s)
        if b is None:
            continue
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        om = omega_direct(s, _state(n, beta=0.7, r=r, t=0.1))
        assert abs(om @ b) <= 1e-12 * max(np.linalg.norm(om), 1e-300)
        checked += 1
    assert checked > 150


def test_omega_matches_path_fd_taylor_green():
    # central difference of b along the particle path, O(h^2)
    prov = TaylorGreenField(A=1.0, k=1.0, nu=0.3, p0=1.0)
    r = np.array((2.1, 3.3, 1.7))
    t = 0.2
    s = prov.sample(r, t)
    b = isobaric_normal(s)
    e1 = np.cross((0, 0, 1.0), b)
    e1 /= np.linalg.norm(e1)
    st = _state(e1, beta=0.5, r=r, t=t)
    w = s.V + relative_velocity(st, s)
    h = 1e-6
    bp = isobaric_normal(prov.sample(r + h * w, t + h))
    bm = isobaric_normal(prov.sample(r - h * w, t - h))
    om_fd = np.cross(b, (bp - bm) / (2.0 * h))
    om = omega_direct(s, st)
    np.testing.assert_allclose(om, om_fd, atol=5e-10)


def test_omega_degenerate_raises():
    with pytest.raises(DegenerateGradient):
        omega_direct(_sample_with((0.0, 0.0, 0.0)), _state((1, 0, 0)))


# --- decomposition route ------------------------------------------------------------

def test_decomposition_trivial_no_velocity():
    # V = 0 everywhere and steady pressure: vorticity and pressure-velocity
    # terms vanish identically
    s = _sample_with((0, 0, 1.0), p1=1.0, hess=((0.3, 0, 0), (0, 0.1, 0), (0, 0, 0.2)))
    br = omega_decomposed(s, _state((1, 0, 0), beta=0.5))
    np.testing.assert_array_equal(br.term_vorticity, (0, 0, 0))
    np.testing.assert_array_equal(br.term_pressure_velocity, (0, 0, 0))
    np.testing.assert_array_equal(br.term_convective, (0, 0, 0))


def test_decomposition_rigid_rotation_terms():
    # frozen closed forms: convective = omega z, vorticity = -2 omega z,
    # pressure-velocity = -omega z, so the literal sum is -2 omega z while
    # the direct route gives (omega + alpha beta v_th / R) z
    om0 = 1.0
    prov = RigidRotationField(omega=om0, p0=0.5, c=1.0)
    st = _state((0, 1, 0), beta=1.0, r=(1.0, 0, 0))
    s = _rigid_sample(prov, st.r)
    br = omega_decomposed(s, st)
    np.testing.assert_allclose(br.term_convective, (0, 0, om0), atol=1e-14)
    np.testing.assert_allclose(br.term_vorticity, (0, 0, -2.0 * om0), atol=1e-14)
    np.testing.assert_allclose(br.term_pressure_velocity, (0, 0, -om0), atol=1e-14)
    np.testing.assert_allclose(br.omega_decomposed, (0, 0, -2.0 * om0), atol=1e-14)
    v_th = math.sqrt(2.0 * prov.p0 + prov.c)
    np.testing.assert_allclose(br.omega_direct, (0, 0, om0 + v_th), rtol=1e-14)
    assert abs(br.residual - abs(3.0 * om0 + v_th)) < 1e-12


def test_decomposition_residual_reported_not_asserted():
    prov = TaylorGreenField(A=1.0, k=1.0, nu=0.0, p0=1.0)
    vals = []
    for r in interior_points(prov, 50, seed=5):
        s = prov.sample(r, 0.0)
        if isobaric_normal(s) is None:
            continue
        br = omega_decomposed(s, _state((0, 0, 1.0), beta=0.5, r=r))
        assert np.isfinite(br.residual)
        vals.append(br.residual)
    assert len(vals) > 30  # sweep produced data; no threshold on the values


def _route_split_cases():
    return [pytest.param(RigidRotationField(), 0.0, id="rigid_rotation"),
            pytest.param(TaylorGreenField(nu=0.13), 0.1, id="taylor_green"),
            pytest.param(LambOseenField(), 0.0, id="lamb_oseen"),
            pytest.param(UniformGradientField(), 0.0, id="uniform_gradient"),
            pytest.param(_tricubic_grid(), 0.0, id="grid_tricubic")]


@pytest.mark.parametrize("provider, t", _route_split_cases())
def test_route_split_residual_has_its_closed_form(provider, t):
    # omega_direct - omega_decomposed = b x H (u - V) / |g| + 2 (1 - bb) xi, for any unit n:
    # the pressure-velocity term repeats the convective term's H V and the vorticity term's
    # -(1 - bb) xi, and no term carries the relative velocity's b x H u / |g|
    rng = np.random.default_rng(30)
    checked = 0
    for r in interior_points(provider, 300, seed=30):
        n = rng.normal(size=3)
        st = TtpState(t=t, r=r, n=n / np.linalg.norm(n), beta=float(rng.uniform(0.1, 2.0)))
        s = provider.sample(r, t)
        *b, gn = gradient_normal(s.kin)
        if gn == 0.0:
            continue
        b = np.array(b)
        u = relative_velocity(st, s)
        split = (np.cross(b, s.hess_p1hat @ (u - s.V)) / gn
                 + 2.0 * (s.xi - b * np.dot(b, s.xi)))
        br = omega_decomposed(s, st)
        scale = max(np.linalg.norm(br.omega_direct), np.linalg.norm(br.omega_decomposed))
        remainder = np.linalg.norm(br.omega_direct - br.omega_decomposed - split)
        assert remainder <= 1e-12 * scale, f"r = {r}: {remainder:.3e} of {scale:.3e}"
        if isinstance(provider, UniformGradientField):  # H = 0, xi = 0 and dt g = 0
            assert not br.omega_direct.any() and not br.omega_decomposed.any()
            assert not split.any()
        checked += 1
    assert checked == 300


# --- cancellation identity -----------------------------------------------------------

@pytest.mark.parametrize("provider_cls,kwargs", [
    (TaylorGreenField, dict(A=1.0, k=1.0, nu=0.3, p0=1.0)),
    (RigidRotationField, dict(omega=1.0, p0=0.5, c=1.0)),
    (UniformGradientField, dict()),
])
def test_tangency_cancellation_identity(provider_cls, kwargs):
    # (Omega x n) . b + n . db/dt = 0 pointwise, for arbitrary unit n
    prov = provider_cls(**kwargs)
    rng = np.random.default_rng(17)
    checked = 0
    for r in interior_points(prov, 1000, seed=17):
        s = prov.sample(r, 0.1)
        b = isobaric_normal(s)
        if b is None:
            continue
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        st = _state(n, beta=1.1, r=r, t=0.1)
        om = omega_direct(s, st)
        # db/dt = (1 - bb) dg/dt / |g| with dg/dt = dt g + H (V + u)
        w = s.V + relative_velocity(st, s)
        gdot = s.dt_grad_p1hat + s.hess_p1hat @ w
        gn = np.linalg.norm(s.grad_p1hat)
        bdot = (gdot - (b @ gdot) * b) / gn
        omxn = np.cross(om, n)
        t1 = float(omxn @ b)
        t2 = float(n @ bdot)
        # both terms are projections of (dg/dt)/|g| and round at that scale
        rate = np.linalg.norm(gdot) / gn
        denom = max(np.linalg.norm(omxn) + np.linalg.norm(bdot) + rate, 1e-300)
        assert abs(t1 + t2) / denom <= 1e-12
        checked += 1
    assert checked > 900


# --- assembled right-hand side ----------------------------------------------------------

def test_state_rhs_beta_zero_is_fluid_velocity(taylor_green_decaying):
    r = (2.1, 3.3, 1.7)
    d = state_rhs(taylor_green_decaying, 0.2, r, (0.0, 0.0, 1.0), 0.0)
    s = taylor_green_decaying.sample(r, 0.2)
    assert type(d) is tuple and len(d) == 6
    np.testing.assert_array_equal(d[:3], s.V)
    # direction still precesses even for a passive tracer
    assert np.linalg.norm(d[3:]) > 0.0


def test_state_rhs_uniform_straight_line(uniform):
    d = state_rhs(uniform, 0.0, (0.0, 0.0, 0.0), (0.0, 1.0, 0.0), 1.0)
    np.testing.assert_array_equal(d[3:], (0, 0, 0))  # degenerate: frozen
    np.testing.assert_allclose(d[:3], (1.0, 1.0, 0.0), rtol=1e-15)


def test_state_rhs_rigid_rotation_rate(rigid):
    d = state_rhs(rigid, 0.0, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 1.0)
    v_th = math.sqrt(2.0 * rigid.p0 + rigid.c)
    expected_mag = 1.0 + v_th  # |Omega|, n orthogonal to it
    assert abs(np.linalg.norm(d[3:]) - expected_mag) < 1e-13


def test_state_rhs_orthogonality(taylor_green):
    rng = np.random.default_rng(23)
    for r in interior_points(taylor_green, 100, seed=23):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        d = np.array(state_rhs(taylor_green, 0.0, tuple(r.tolist()), tuple(n.tolist()), 0.9))
        assert abs(d[3:] @ n) <= 1e-12 * max(np.linalg.norm(d[3:]), 1e-300)


@pytest.mark.parametrize("provider", all_builtin_providers(), ids=lambda p: p.name)
def test_state_rhs_is_rhs_terms_and_scalar_cross(provider):
    # the 6-tuple is (V + u) from rhs_terms and Omega x n, bit for bit
    rng = np.random.default_rng(41)
    for r in interior_points(provider, 40, seed=41):
        n = rng.normal(size=3)
        r, n = tuple(r.tolist()), tuple((n / np.linalg.norm(n)).tolist())
        d = state_rhs(provider, 0.3, r, n, 0.7)
        ev = rhs_terms(provider, 0.3, r, n, 0.7)
        assert np.array(d).tobytes() == np.array((*ev[:3], *cross(ev[3:6], n))).tobytes()


def _taylor_green_grid():
    tg = TaylorGreenField()
    ax = np.linspace(0.0, 2.0 * math.pi, 9)
    V = np.empty((9, 9, 9, 3))
    p1 = np.empty((9, 9, 9))
    for idx in np.ndindex(9, 9, 9):
        s = tg.sample(ax[list(idx)], 0.0)
        V[idx], p1[idx] = s.V, s.p1hat
    return GridField((ax[0],) * 3, (ax[1] - ax[0],) * 3, V, p1)


@pytest.mark.parametrize("provider", all_builtin_providers() + [_taylor_green_grid()],
                         ids=lambda p: p.name)
def test_omega_sites_bit_identical(provider):
    # the record evaluation, the integrator stage and omega_direct share one kernel
    rng = np.random.default_rng(41)
    t = 0.25
    for r in interior_points(provider, 40, seed=41):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        beta = rng.uniform(0.2, 1.5)
        ev = rhs_terms(provider, t, r, tuple(n.tolist()), beta)
        st = stage_eval(provider, t, *r.tolist(), *n.tolist(), beta)
        s = provider.sample(r, t)
        if ev[11]:  # degenerate
            assert ev[3:6] == st[3:] == (0.0, 0.0, 0.0)
            with pytest.raises(DegenerateGradient):
                omega_direct(s, _state(n, beta=beta, r=r, t=t))
            continue
        om = omega_direct(s, _state(n, beta=beta, r=r, t=t))
        assert ev[3:6] == st[3:] == tuple(om)
        assert ev[:3] == st[:3]


# --- cross product and overflowing gradients ----------------------------------------

def test_cross_bit_identical_to_numpy():
    # same rounded products and difference as np.cross, overflow to inf and nan included
    rng = np.random.default_rng(15)
    a, b = (rng.normal(size=(4000, 3)) * 10.0 ** rng.integers(-200, 201, size=(4000, 3))
            for _ in range(2))
    special = np.array([[np.inf, 1.0, -2.0], [np.nan, 0.0, 3.0], [-np.inf, np.inf, 0.0],
                        [1e300, -1e300, 1e-300], [0.0, -0.0, 5.0]])
    a = np.vstack([a, special, special[::-1]])
    b = np.vstack([b, special[::-1], special])
    with np.errstate(all="ignore"):
        for x, y in zip(a, b):
            got, want = np.array(cross(x.tolist(), y.tolist())), np.cross(x, y)
            np.testing.assert_array_equal(got, want, strict=True)  # nan equals nan here
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    assert cross((1.0, 0.0, 0.0), [0.0, 1.0, 0.0]) == (0.0, 0.0, 1.0)


def test_overflowing_gradient_norm_gives_unit_normal():
    # |g|^2 = inf while g is finite: b used to be (0, 0, 0) with the flag 0
    b = isobaric_normal(_sample_with((3e160, 4e160, 0.0)))
    np.testing.assert_allclose(b, (0.6, 0.8, 0.0), rtol=1e-15)
    assert abs(np.linalg.norm(b) - 1.0) <= 1e-15
    assert isobaric_normal(_sample_with((1e308, -1e308, 1e308))) is not None


def test_gradient_normal_is_isobaric_normal_and_its_norm():
    for g in ((2.0, 0.0, 0.0), (0.3, -1.7, 2.9), (3e160, 4e160, 0.0), (1e308, -1e308, 1e308)):
        *b, gn = gradient_normal(_sample_with(g).kin)
        assert b == isobaric_normal(_sample_with(g)).tolist()
        assert gn == pytest.approx(math.hypot(*g), rel=1e-15)  # also where |g|^2 overflows


def _ref_normal(kin):
    """The unit normal and degenerate flag (bx, by, bz, flag) as first written, on floats."""
    gx, gy, gz = kin[4:7]
    g2 = gx * gx + gy * gy + gz * gz
    if g2 <= EPS_GRAD * EPS_GRAD:
        return 0.0, 0.0, 0.0, 1.0
    if g2 == math.inf:  # scaled by 1 / max |g_i|, whose squares cannot overflow
        m = max(abs(gx), abs(gy), abs(gz))
        gx, gy, gz = gx / m, gy / m, gz / m
        g2 = gx * gx + gy * gy + gz * gz
    gn = math.sqrt(g2)
    return gx / gn, gy / gn, gz / gn, 0.0


class _GivenSample:
    """A provider stub whose ``sample`` returns one given sample wherever it is asked."""

    def __init__(self, sample):
        self._sample = sample

    def sample(self, r, t):
        return self._sample


_HUGE = 1.7976931348623157e308
_NORMAL_CASES = [(0.0, 0.0, 0.0), (-0.0, 0.0, -0.0), (EPS_GRAD, 0.0, 0.0), (1e-10, 1e-10, 0.0),
                 (0.0, -0.0, 3.0), (0.3, -1.7, 2.9), (-2.5e-3, 4e-4, 1.1e-2),
                 (7.0, 7.0, -7.0), (1e160, -2e160, 3e159), (_HUGE, -_HUGE, 1.0),
                 (-_HUGE, 0.0, _HUGE), (math.inf, 1.0, 2.0), (0.5, math.nan, 1.0),
                 (5e-324, 0.0, 0.0)]


@pytest.mark.parametrize("g", _NORMAL_CASES, ids=repr)
def test_normal_and_flag_bytes_are_pinned(g):
    # the record's b and degenerate flag, and isobaric_normal, against the rule as first written
    sample = _sample_with(g)
    want = _ref_normal(sample.kin)
    got = rhs_terms(_GivenSample(sample), 0.0, (0.0, 0.0, 0.0), (0.6, 0.0, 0.8), 0.5)[8:12]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    b = isobaric_normal(sample)
    if want[3]:
        assert b is None
    else:
        assert b.tobytes() == np.array(want[:3]).tobytes()


@pytest.mark.parametrize("g", [(0.0, 0.0, 0.0), (-0.0, 0.0, -0.0), (EPS_GRAD, 0.0, 0.0),
                               (-1e-11, 5e-11, 0.0), (5e-324, 0.0, 0.0)], ids=repr)
def test_gradient_normal_of_a_degenerate_gradient_is_zero(g):
    # |g| = 0 is the degenerate mark: b and |g| are +0.0, and nothing divides by zero
    assert repr(gradient_normal(_sample_with(g).kin)) == repr((0.0, 0.0, 0.0, 0.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")  # overflow is decided without numpy
def test_decomposition_past_gradient_overflow():
    # every term is invariant under p1hat -> c p1hat at fixed n, also once |g|^2 overflows
    st = _state((0.0, 0.0, 1.0), r=(1.2, 0.3, 0.1))
    ref, big = (omega_decomposed(RigidRotationField(c=c).sample(st.r, 0.0), st)
                for c in (1e100, 1e160))
    for name in ("omega_direct", "omega_decomposed", "term_convective", "term_vorticity",
                 "term_pressure_velocity"):
        np.testing.assert_allclose(getattr(big, name), getattr(ref, name), rtol=1e-14, atol=1e-14)


def test_rates_scale_invariant_past_gradient_overflow():
    # Omega = g x (dt g + H w) / |g|^2 is unchanged when g, H and dt g scale together
    rng = np.random.default_rng(16)
    for _ in range(20):
        V = rng.normal(size=3).tolist()
        ghd = rng.normal(size=12)  # g, the Hessian's upper triangle, dt g
        n = rng.normal(size=3)
        n = (n / np.linalg.norm(n)).tolist()
        ref = _rates((*V, 0.7, *ghd.tolist()), *n, 0.8)
        big = _rates((*V, 0.7, *(1e160 * ghd).tolist()), *n, 0.8)
        assert big[:3] == ref[:3]
        np.testing.assert_allclose(big[3:], ref[3:], rtol=1e-14,
                                   atol=1e-14 * np.linalg.norm(ref[3:]))
