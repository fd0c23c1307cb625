"""Analytic provider contracts: values, derivative consistency, registry."""

import itertools
import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest

from ttpsim import (LambOseenField, NotFound, OutOfDomain, TaylorGreenField, UniformField,
                    UniformGradientField, ValidationError, create_provider,
                    fd_verify_derivatives, provider_parameters)
from ttpsim.fields.analytic import PROVIDERS

from conftest import all_builtin_providers, interior_points, smooth_nonlinear_providers


# --- independent central-difference oracle (values only, Richardson) ---------

def _richardson_grad(f, r, h):
    """O(h^4) gradient of scalar f(r) by Richardson-extrapolated differences."""
    g = np.empty(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        d1 = (f(r + h * e) - f(r - h * e)) / (2.0 * h)
        d2 = (f(r + 0.5 * h * e) - f(r - 0.5 * h * e)) / h
        g[i] = (4.0 * d2 - d1) / 3.0
    return g


def _oracle_derivatives(provider, r, t, h=1e-5):
    """gradV, xi, grad_p1hat from sample values only."""
    def p1(rr):
        return provider.sample(rr, t).p1hat

    gradV = np.empty((3, 3))
    for j in range(3):
        def vj(rr, j=j):
            return provider.sample(rr, t).V[j]
        col = _richardson_grad(vj, r, h)
        gradV[:, j] = col
    xi = np.array((gradV[1, 2] - gradV[2, 1],
                   gradV[2, 0] - gradV[0, 2],
                   gradV[0, 1] - gradV[1, 0]))
    return gradV, xi, _richardson_grad(p1, r, h)


# --- frozen Taylor-Green values (independent symbolic evaluation) ------------

TG_POINT = np.array((math.pi / 4.0, math.pi / 4.0, 0.0))
TG_FROZEN = {
    "V": (0.5, -0.5, 0.0),
    "gradV": ((0.5, 0.5, 0.0), (-0.5, -0.5, 0.0), (0.0, 0.0, 0.0)),
    "xi": (0.0, 0.0, 1.0),
    "p1hat": 0.875,
    "grad_p1hat": (-0.375, -0.375, 0.0),
    "hess_p1hat": ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
    "dt_grad_p1hat": (0.45, 0.45, 0.0),
}
TG_GENERIC_POINT = np.array((0.5, -0.3, 0.7))
TG_GENERIC_T = 0.25
TG_GENERIC = {
    "V": (0.30151241088051383, 0.17072724383738965, 0.0),
    "xi": (0.14380157371272019, -0.25396040025006657, -0.18653743678506781),
    "p1hat": 1.0446060271164797,
    "grad_p1hat": (-0.16908846118654462, 0.11346146055021414, -0.12462113747929246),
    "hess_p1hat": ((-0.21714090473515796, 0.0, 0.15357668337571225),
                   (0.0, -0.33169231407161996, -0.10305277296859520),
                   (0.15357668337571225, -0.10305277296859520, -0.042988491523725950)),
    "dt_grad_p1hat": (0.20290615342385354, -0.13615375266025696, 0.14954536497515095),
}


def test_taylor_green_frozen_point():
    p = TaylorGreenField(A=1.0, k=1.0, nu=0.3, p0=1.0)
    s = p.sample(TG_POINT, 0.0)
    np.testing.assert_allclose(s.V, TG_FROZEN["V"], atol=1e-14)
    np.testing.assert_allclose(s.gradV, TG_FROZEN["gradV"], atol=1e-14)
    np.testing.assert_allclose(s.xi, TG_FROZEN["xi"], atol=1e-14)
    assert abs(s.p1hat - TG_FROZEN["p1hat"]) < 1e-14
    np.testing.assert_allclose(s.grad_p1hat, TG_FROZEN["grad_p1hat"], atol=1e-14)
    np.testing.assert_allclose(s.hess_p1hat, TG_FROZEN["hess_p1hat"], atol=1e-14)
    np.testing.assert_allclose(s.dt_grad_p1hat, TG_FROZEN["dt_grad_p1hat"], atol=1e-14)


def test_taylor_green_frozen_generic_point():
    p = TaylorGreenField(A=1.0, k=1.0, nu=0.3, p0=1.0)
    s = p.sample(TG_GENERIC_POINT, TG_GENERIC_T)
    np.testing.assert_allclose(s.V, TG_GENERIC["V"], rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(s.xi, TG_GENERIC["xi"], rtol=1e-13, atol=1e-15)
    assert abs(s.p1hat - TG_GENERIC["p1hat"]) < 1e-13
    np.testing.assert_allclose(s.grad_p1hat, TG_GENERIC["grad_p1hat"], rtol=1e-13,
                               atol=1e-15)
    np.testing.assert_allclose(s.hess_p1hat, TG_GENERIC["hess_p1hat"], rtol=1e-12,
                               atol=1e-15)
    np.testing.assert_allclose(s.dt_grad_p1hat, TG_GENERIC["dt_grad_p1hat"],
                               rtol=1e-13, atol=1e-15)


def test_taylor_green_against_fd_oracle():
    p = TaylorGreenField(A=1.0, k=1.0, nu=0.3, p0=1.0)
    s = p.sample(TG_GENERIC_POINT, TG_GENERIC_T)
    gradV_o, xi_o, gp_o = _oracle_derivatives(p, TG_GENERIC_POINT, TG_GENERIC_T)
    np.testing.assert_allclose(s.gradV, gradV_o, atol=2e-10)
    np.testing.assert_allclose(s.xi, xi_o, atol=2e-10)
    np.testing.assert_allclose(s.grad_p1hat, gp_o, atol=2e-10)


# --- simple providers ---------------------------------------------------------

def test_uniform_sample_constant_everywhere(uniform):
    for r, t in [((0, 0, 0), 0.0), ((5.0, -3.0, 2.0), 7.5)]:
        s = uniform.sample(np.array(r, dtype=float), t)
        np.testing.assert_array_equal(s.V, (1.0, 0.0, 0.0))
        np.testing.assert_array_equal(s.gradV, np.zeros((3, 3)))
        np.testing.assert_array_equal(s.xi, np.zeros(3))
        np.testing.assert_array_equal(s.grad_p1hat, np.zeros(3))
        assert s.p1hat == 0.5


def test_rigid_rotation_velocity_and_curl(rigid):
    s = rigid.sample(np.array((1.0, 0.0, 0.0)), 0.0)
    np.testing.assert_array_equal(s.V, (0.0, 1.0, 0.0))
    np.testing.assert_array_equal(s.xi, (0.0, 0.0, 2.0))
    assert s.p1hat >= 0.0


def test_lamb_oseen_smooth_through_axis(lamb_oseen):
    on_axis = lamb_oseen.sample(np.zeros(3), 0.0)
    near = lamb_oseen.sample(np.array((1e-9, 0.0, 0.0)), 0.0)
    np.testing.assert_allclose(on_axis.V, (0.0, 0.0, 0.5), atol=1e-12)
    np.testing.assert_allclose(near.V, on_axis.V, atol=1e-9)
    np.testing.assert_allclose(near.gradV, on_axis.gradV, atol=1e-8)
    assert on_axis.p1hat >= 0.0
    # solid-body core: vorticity at the axis is Gamma / (pi rc^2)
    assert abs(on_axis.xi[2] - 1.0 / math.pi) < 1e-10


@pytest.mark.parametrize("provider", all_builtin_providers(),
                         ids=lambda p: p.name)
def test_curl_consistency_at_random_points(provider):
    pts = interior_points(provider, 100, seed=42)
    for r in pts:
        s = provider.sample(r, 0.2)
        g = s.gradV
        curl = (g[1, 2] - g[2, 1], g[2, 0] - g[0, 2], g[0, 1] - g[1, 0])
        np.testing.assert_array_equal(s.xi, curl)


@pytest.mark.parametrize("provider", all_builtin_providers(),
                         ids=lambda p: p.name)
def test_sample_kinetic_agrees_with_sample(provider):
    # the flat fast path must match the full sample bit-for-bit
    for r in interior_points(provider, 50, seed=31):
        s = provider.sample(r, 0.4)
        (Vx, Vy, Vz, p1, gx, gy, gz,
         Hxx, Hxy, Hxz, Hyy, Hyz, Hzz, dgx, dgy, dgz) = provider.sample_kinetic(
            (r[0], r[1], r[2]), 0.4)
        assert (Vx, Vy, Vz) == tuple(s.V)
        assert p1 == s.p1hat
        assert (gx, gy, gz) == tuple(s.grad_p1hat)
        H = s.hess_p1hat
        assert (Hxx, Hxy, Hxz) == (H[0, 0], H[0, 1], H[0, 2])
        assert (Hyy, Hyz, Hzz) == (H[1, 1], H[1, 2], H[2, 2])
        np.testing.assert_array_equal(H, H.T)
        assert (dgx, dgy, dgz) == tuple(s.dt_grad_p1hat)


@pytest.mark.parametrize("provider", all_builtin_providers(),
                         ids=lambda p: p.name)
def test_sample_of_tuple_equals_sample_of_array(provider):
    # a tuple is converted entry by entry, an array or a list through numpy; Python
    # floats, np.float64 and ints all give the array's value types and bytes
    for r in interior_points(provider, 50, seed=37):
        for point in (r, [int(x) for x in r]):  # truncated ints stay inside every domain here
            want = provider.sample(np.array(point, dtype=float), 0.4)
            for got in (provider.sample(tuple(map(float, point)), 0.4),
                        provider.sample(tuple(point), 0.4), provider.sample(list(point), 0.4)):
                assert list(map(type, got.kin + got.dV)) == list(map(type, want.kin + want.dV))
                assert (np.array(got.kin + got.dV).tobytes()
                        == np.array(want.kin + want.dV).tobytes())


@pytest.mark.parametrize("provider", all_builtin_providers(),
                         ids=lambda p: p.name)
def test_field_entries_are_python_floats(provider):
    # the integrator's scalar arithmetic runs on these entries; on numpy scalars it is slower
    for r in interior_points(provider, 10, seed=41):
        p = tuple(r.tolist())
        s = provider.sample(p, 0.4)
        for values in (provider.sample_kinetic(p, 0.4), s.kin, s.dV):
            assert {type(v) for v in values} == {float}


@pytest.mark.parametrize("provider", all_builtin_providers(),
                         ids=lambda p: p.name)
def test_sample_invariants_and_determinism(provider):
    pts = interior_points(provider, 20, seed=7)
    for r in pts:
        s = provider.sample(r, 0.3)
        assert s.p1hat >= 0.0
        s2 = provider.sample(r.copy(), 0.3)
        assert np.array_equal(s.V, s2.V)
        assert np.array_equal(s.grad_p1hat, s2.grad_p1hat)
        assert np.array_equal(s.hess_p1hat, s2.hess_p1hat)
        assert s.p1hat == s2.p1hat


# --- derivative audits ----------------------------------------------------------

def test_fd_verify_uniform_all_zero(uniform):
    rep = fd_verify_derivatives(uniform, np.array((0.3, 0.1, -0.2)), 0.0, h=1e-4)
    assert rep.grad_v == 0.0
    assert rep.grad_p1hat == 0.0
    assert rep.hess_p1hat == 0.0
    assert rep.dt_grad_p1hat == 0.0


@pytest.mark.parametrize("h", [1e-2, 1e-3, 1e-4, 1e-5])
def test_fd_verify_rigid_rotation_gradv_exact_any_h(rigid, h):
    # V linear in r: central differences agree to rounding at any sane h
    rep = fd_verify_derivatives(rigid, np.array((1.0, 0.5, 0.0)), 0.0, h=h)
    assert rep.grad_v < 1e-10


def test_fd_verify_rigid_rotation_all_residuals(rigid):
    rep = fd_verify_derivatives(rigid, np.array((1.0, 0.5, 0.0)), 0.0, h=1e-3)
    assert rep.max_residual < 1e-9


@pytest.mark.parametrize("provider", smooth_nonlinear_providers(),
                         ids=lambda p: p.name)
def test_fd_verify_smooth_providers(provider):
    lo, hi = provider.reference_box
    r = lo + 0.37 * (hi - lo)
    rep = fd_verify_derivatives(provider, r, 0.15, h=1e-4)
    assert rep.max_residual < 1e-6


@pytest.mark.parametrize("provider", smooth_nonlinear_providers(),
                         ids=lambda p: p.name)
def test_fd_verify_second_order_decay(provider):
    lo, hi = provider.reference_box
    r = lo + 0.41 * (hi - lo)
    res = [fd_verify_derivatives(provider, r, 0.15, h=h).max_residual
           for h in (1e-3, 5e-4, 2.5e-4)]
    orders = [math.log(res[i] / res[i + 1]) / math.log(2.0) for i in range(2)]
    for o in orders:
        assert 1.7 <= o <= 2.3, f"observed order {o} outside [1.7, 2.3]"


# --- registry --------------------------------------------------------------------

def test_registry_builtins_present():
    assert {"uniform", "rigid_rotation", "taylor_green", "lamb_oseen"} <= set(PROVIDERS)
    for name, cls in PROVIDERS.items():
        assert cls.name == name


def test_registry_uniform_descriptor():
    assert provider_parameters("uniform") == {"V0x": 1.0, "V0y": 0.0, "V0z": 0.0, "p0": 0.5}
    assert UniformField.time_dependent is False
    assert create_provider("uniform").time_dependent is False


def test_registry_taylor_green_parameters():
    assert {"A", "k", "nu"} <= set(provider_parameters("taylor_green"))
    assert create_provider("taylor_green").time_dependent is False  # nu = 0
    assert create_provider("taylor_green", nu=0.1).time_dependent is True


def test_registry_unknown_name():
    with pytest.raises(NotFound):
        provider_parameters("nonexistent")
    with pytest.raises(NotFound):
        create_provider("nonexistent")


def test_create_provider_with_params():
    p = create_provider("rigid_rotation", omega=2.0)
    assert p.omega == 2.0


def test_provider_parameter_validation():
    with pytest.raises(ValidationError):
        TaylorGreenField(A=2.0, p0=1.0)  # p0 <= A^2/2


@pytest.mark.parametrize("cls, param, value", [
    (TaylorGreenField, "k", math.nan), (TaylorGreenField, "nu", math.nan),
    (TaylorGreenField, "A", math.nan), (TaylorGreenField, "p0", math.inf),
    (TaylorGreenField, "A", -math.inf), (TaylorGreenField, "k", "1"),
    (TaylorGreenField, "nu", True), (TaylorGreenField, "p0", None),
    (TaylorGreenField, "A", 1j), (TaylorGreenField, "k", np.array([1.0])),
    (TaylorGreenField, "k", 10**400),
    (LambOseenField, "Gamma", math.inf), (LambOseenField, "W", math.nan),
    (LambOseenField, "p0", math.inf), (LambOseenField, "pa", math.nan),
    (LambOseenField, "W", "0.5"), (LambOseenField, "Gamma", np.True_),
])
def test_the_real_number_rule(cls, param, value):
    # a check such as k <= 0.0 is False for nan, so these parameters were accepted
    # silently, or ended in a bare TypeError
    message = f"{param} must be a finite real number, got {value!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        cls(**{param: value})


def test_numpy_real_parameters_are_kept_as_floats():
    tg = TaylorGreenField(A=np.float32(0.5), k=np.int64(2), nu=np.float64(0.1), p0=1)
    lo = LambOseenField(Gamma=np.int32(2), W=np.float16(0.25), p0=np.uint8(3), pa=np.float64(1))
    values = (tg.A, tg.k, tg.nu, tg.p0, lo.Gamma, lo.W, lo.p0, lo.pa)
    assert values == (0.5, 2.0, 0.1, 1.0, 2.0, 0.25, 3.0, 1.0)
    assert all(type(v) is float for v in values)


@pytest.mark.parametrize("g", [(0.0, 0.0, 0.0), (0.0, 0.0, 1e160), (-1e300, 0.0, 0.0)])
def test_uniform_gradient_norm_must_be_nonzero_and_finite(g):
    with pytest.raises(ValidationError, match="must be nonzero and finite"):
        UniformGradientField(gx=g[0], gy=g[1], gz=g[2])


@pytest.mark.parametrize("rc", [1e-300, 1e-160, 1e-100, 1.25e-78, 5e-78, 8e-78, 4.8e153, 1e154,
                                1.35e154, math.inf, math.nan])
def test_lamb_oseen_core_radius_outside_representable_range(rc):
    # 1/rc^4, the scale of the Hessian and the profile's derivative near the axis,
    # overflows, or 8 rc^2, x^2 + y^2 at the reference box's corners, does
    with pytest.raises(ValidationError, match="outside about"):
        LambOseenField(rc=rc)


@pytest.mark.parametrize("rc", [8.64e-78, 1e-76, 4.74e153])
def test_lamb_oseen_core_radius_range_ends_sample_without_error(rc):
    # at the ends of the range every field is finite: on the axis, on both sides of
    # the series switches, outside the core, and at the reference box's corners
    prov = LambOseenField(rc=rc)
    lo, hi = prov.reference_box
    a = rc * rc
    pts = [(math.sqrt(s), 0.0, 0.0)
           for s in (0.0, 0.5e-6 * a, 1.01e-6 * a, 0.499 * a, 0.501 * a, 4.0 * a)]
    pts += list(itertools.product(*zip(lo.tolist(), hi.tolist())))
    pts += [tuple(r.tolist()) for r in interior_points(prov, 200, seed=3)]
    for p in pts:
        s = prov.sample(p, 0.0)
        assert all(map(math.isfinite, s.kin + s.dV)), p


@pytest.mark.parametrize("rc", [1.0, 8.64e-78, 3.7e40])
def test_lamb_oseen_profile_derivative_matches_decimal_reference(rc):
    # dq/ds near the axis, where the closed form's numerator cancels: within 1e-14
    # relative of a 50-digit evaluation at the same rc^2, s/rc^2 in [1e-12, 1e3]
    prov = LambOseenField(rc=rc)
    a = rc * rc
    xs = np.geomspace(1e-12, 1e3, 400).tolist() + np.linspace(0.4, 0.6, 101).tolist()
    for x in xs:
        s = x * a
        with localcontext() as ctx:
            ctx.prec = 50
            S, A = Decimal(s), Decimal(a)
            E = (-S / A).exp()
            want = float((S * E / A - (1 - E)) / (S * S))
        assert abs(prov._dq(s) - want) <= 1e-14 * abs(want), x


@pytest.mark.parametrize("rc", [1.0, 0.5, 2.0, 3.0, 1e-3])
def test_lamb_oseen_profile_matches_decimal_reference(rc):
    # q(s) = (1 - exp(-s/rc^2)) / s on both sides of its series switch at s = 1e-6 rc^2,
    # against a 50-digit evaluation.  At and below the switch the series is correctly
    # rounded where rc^2 is a power of 2 (the division by it is exact), and within 1 ulp
    # otherwise; expm1 above it is within 2 ulps
    prov = LambOseenField(rc=rc)
    a = rc * rc
    exact_division = math.frexp(a)[0] == 0.5
    for f in np.linspace(0.5, 1.0, 201).tolist() + np.linspace(1.0, 10.0, 181)[1:].tolist():
        s = f * 1e-6 * a
        with localcontext() as ctx:
            ctx.prec = 50
            S, A = Decimal(s), Decimal(a)
            want = float((1 - (-S / A).exp()) / S)
        bound = 2.0 if s > 1e-6 * a else 0.0 if exact_division else 1.0
        assert abs(prov._q(s) - want) <= bound * math.ulp(want), f


def test_taylor_green_decay_factor_overflow_is_out_of_domain():
    prov = TaylorGreenField(nu=1e160)
    prov.sample((1.0, 2.0, 3.0), 0.0)
    with pytest.raises(OutOfDomain, match="F\\(t\\)\\^2 is not finite at t = -1e-05"):
        prov.sample((1.0, 2.0, 3.0), -1e-5)
    with pytest.raises(OutOfDomain):  # F itself overflows here
        prov.sample_kinetic((1.0, 2.0, 3.0), -1e-100)


def test_taylor_green_phase_that_is_not_finite_is_out_of_domain():
    # at a position that is not finite it re-raised math.sin's bare ValueError
    prov = TaylorGreenField(k=4.0)
    for r in [(math.inf, 0.0, 0.0), (0.0, 0.0, -math.inf), (1e308, 2.0, 3.0)]:  # 4e308 = inf
        with pytest.raises(OutOfDomain, match="phase k r is not finite"):
            prov.sample(r, 0.0)
        with pytest.raises(OutOfDomain, match="phase k r is not finite"):
            prov.sample_kinetic(r, 0.0)


def test_uniform_gradient_outside_box_is_out_of_domain():
    prov = UniformGradientField()  # the box |r|_inf <= 1 / sqrt(3)
    for r in [(0.0, math.nan, 0.0), (0.0, 0.0, 0.6)]:
        with pytest.raises(OutOfDomain, match="outside domain bounds"):
            prov.sample(r, 0.0)
        with pytest.raises(OutOfDomain, match="outside domain bounds"):
            prov.sample_kinetic(r, 0.0)
    prov.sample((0.0, 0.0, 0.57), 0.0)
    with pytest.raises(OutOfDomain, match="with margin 0.2"):
        fd_verify_derivatives(prov, (0.0, 0.0, 0.57), t=0.0, h=0.1)
