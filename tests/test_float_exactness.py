"""Pinned bytes of the pointwise diagnostics.

``omega_decomposed`` and ``cancellation_check`` are compared bit for bit
against test-local copies written with numpy 3-vectors throughout, so an
evaluation path that moves elementwise arithmetic to Python floats must keep
every product numpy rounds with fused multiply-adds in numpy.  ``norm3``
is compared with ``np.linalg.norm`` and ``verify._median`` with
``np.median`` the same way.
"""

import math

import numpy as np
import pytest

from ttpsim import (DegenerateGradient, GridField, LambOseenField, OmegaBreakdown,
                    RigidRotationField, TaylorGreenField, TtpState, UniformField,
                    UniformGradientField, ValidationError, cancellation_check, isobaric_normal,
                    omega_decomposed, omega_direct, relative_velocity)
from ttpsim.kinetics import gradient_normal, norm3
from ttpsim.verify import _median

from conftest import interior_points


def _ref_norm3(v):
    x, y, z = v.tolist()
    return math.inf if x * x + y * y + z * z == math.inf else float(np.linalg.norm(v))


def _ref_omega_decomposed(sample, state):
    """omega_decomposed on numpy 3-vectors, as first written."""
    direct = omega_direct(sample, state)
    g = sample.grad_p1hat
    gn = _ref_norm3(g)
    if gn < math.inf:
        b = g / gn
    else:
        *b, gn = gradient_normal(sample.kin)
        b = np.array(b)
    V, H, xi, gradV = sample.V, sample.hess_p1hat, sample.xi, sample.gradV
    gdot_fluid = sample.dt_grad_p1hat + H @ V
    bdot_fluid = (gdot_fluid - (b @ gdot_fluid) * b) / gn
    term_convective = np.cross(b, bdot_fluid)
    term_vorticity = -(xi - (b @ xi) * b)
    grad_gV = H @ V + gradV @ g
    g_dot_nabla_V = gradV.T @ g
    term_pv = (np.cross(b, grad_gV) - np.cross(b, g_dot_nabla_V)) / gn
    total = term_convective + term_vorticity + term_pv
    return OmegaBreakdown(direct, total, term_convective, term_vorticity, term_pv,
                          float(np.linalg.norm(direct - total)))


def _ref_cancellation_check(provider, n_states, seed, beta, t):
    """cancellation_check on numpy 3-vectors, its state draw included, as first written."""
    rng = np.random.default_rng(seed)
    lo, hi = provider.reference_box
    pts = lo + (hi - lo) * (0.02 + (1.0 - 2.0 * 0.02) * rng.random((n_states, 3)))
    worst, kept = 0.0, 0
    for p in pts:
        s = provider.sample(p, t)
        b = isobaric_normal(s)
        if b is None:
            continue
        v = rng.normal(size=3)
        kept += 1
        st = TtpState(t=t, r=p, n=v / np.linalg.norm(v), beta=beta)
        gn = gradient_normal(s.kin)[3]
        w = s.V + relative_velocity(st, s)
        gdot = s.dt_grad_p1hat + s.hess_p1hat @ w
        rate_scale = _ref_norm3(gdot / gn)
        bdot = (gdot - (b @ gdot) * b) / gn
        omxn = np.cross(omega_direct(s, st), st.n)
        t1 = float(omxn @ b)
        t2 = float(st.n @ bdot)
        denom = max(_ref_norm3(omxn) + _ref_norm3(bdot) + rate_scale, 1e-300)
        if not all(map(math.isfinite, (t1, t2, denom))):
            raise ValidationError("non-finite cancellation terms")
        worst = max(worst, abs(t1 + t2) / denom)
    if kept == 0:
        raise DegenerateGradient("no non-degenerate states found")
    return worst


def _tricubic_grid():
    tg = TaylorGreenField(nu=0.0)
    ax = np.linspace(0.0, 2.0 * np.pi, 9)
    V, p1 = np.empty((9, 9, 9, 3)), np.empty((9, 9, 9))
    for idx in np.ndindex(9, 9, 9):
        s = tg.sample(ax[list(idx)], 0.0)
        V[idx], p1[idx] = s.V, s.p1hat
    return GridField.from_axes(ax, ax, ax, V, p1)


def _providers():
    return [UniformField(), UniformGradientField(gx=0.3, gy=-0.4), RigidRotationField(),
            TaylorGreenField(nu=0.3), LambOseenField(), _tricubic_grid(),
            RigidRotationField(c=1e160, p0=1e160)]  # |grad p1hat|^2 overflows


def _id(p):
    return f"{p.name}_c{p.c:g}" if isinstance(p, RigidRotationField) else p.name


_FIELDS = ("omega_direct", "omega_decomposed", "term_convective", "term_vorticity",
           "term_pressure_velocity")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("provider", _providers(), ids=_id)
def test_omega_decomposed_bytes_match_numpy_reference(provider):
    rng = np.random.default_rng(18)
    checked = 0
    for r in interior_points(provider, 300, seed=18):
        n = rng.normal(size=3)
        st = TtpState(t=float(rng.uniform(-0.5, 0.5)), r=r, n=n / np.linalg.norm(n),
                      beta=float(rng.uniform(0.1, 2.0)))
        s = provider.sample(r, st.t)
        if isobaric_normal(s) is None:
            for route in (omega_decomposed, _ref_omega_decomposed):
                with pytest.raises(DegenerateGradient):
                    route(s, st)
            continue
        got, want = omega_decomposed(s, st), _ref_omega_decomposed(s, st)
        for name in _FIELDS:
            g, w = getattr(got, name), getattr(want, name)
            assert g.tobytes() == w.tobytes() and np.array_equal(g, w), name
        assert type(got.residual) is float and got.residual == want.residual
        checked += 1
    assert checked == (0 if isinstance(provider, UniformField) else 300)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("provider", _providers(), ids=_id)
@pytest.mark.parametrize("seed", [0, 5])
def test_cancellation_check_matches_numpy_reference(provider, seed):
    args = (provider, 200, seed, 0.7, 0.25)
    if isinstance(provider, UniformField):
        for check in (cancellation_check, _ref_cancellation_check):
            with pytest.raises(DegenerateGradient):
                check(*args)
        return
    got, want = cancellation_check(*args), _ref_cancellation_check(*args)
    assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_norm3_is_numpy_norm_bit_for_bit():
    rng = np.random.default_rng(19)
    scales = 10.0 ** rng.integers(-150, 151, size=(20000, 1))
    for v in rng.normal(size=(20000, 3)) * scales:
        assert norm3(v) == float(np.linalg.norm(v))
    for v in ((3.0, 4.0, 0.0), (0.0, -0.0, 0.0), (1e-320, 0.0, 2e-320),
              (1e153, -1e153, 1e153)):
        v = np.array(v)
        got = norm3(v)
        assert type(got) is float and got == float(np.linalg.norm(v))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_norm3_overflow_is_inf_without_warning_and_nan_stays_nan():
    for v in ((1e200, 0.0, 0.0), (1e155, -1e155, 1e155), (1.0, math.inf, 0.0),
              (-math.inf, 0.0, 0.0)):
        assert norm3(np.array(v)) == math.inf
    for v in ((math.nan, 0.0, 1.0), (0.0, math.nan, math.inf)):
        assert math.isnan(norm3(np.array(v)))


def test_median_is_numpy_median_bit_for_bit():
    rng = np.random.default_rng(20)
    for size in list(range(1, 40)) + rng.integers(40, 2000, size=60).tolist():
        a = rng.lognormal(sigma=rng.uniform(0.1, 30.0), size=size)
        if size % 3 == 0:
            a[: size // 2] = a[-1]  # ties
        got = _median(a.tolist())
        assert type(got) is float and got == float(np.median(a))
    assert _median([3.0, 1.0]) == 2.0 and _median([-0.0]) == 0.0
