"""Pinned bytes of the pointwise diagnostics.

``omega_decomposed`` and the three pointwise studies of ``verify`` are
compared bit for bit against test-local copies written point by point with
numpy 3-vectors, whose dot products and norms are float sums written left
to right (``_dot``, ``_ref_norm3``), never a BLAS call, so the bytes do not
depend on the BLAS kernel.  The studies must report the first failure in
point order.  ``norm3`` is compared with the float sum of squares and
``np.linalg.norm``, and ``verify._median`` with ``np.median``.  One
integrator step of each method is compared, by ``repr`` so that ``-0.0`` and
``0.0`` differ, against test-local copies of the two step functions as they
were first written, wherever its stage positions and rotation angles are
finite; elsewhere the step must return a state that is not finite, without
sampling such a position.
"""

import copy
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from ttpsim import (DegenerateGradient, GridField, LambOseenField, NegativePressure,
                    OmegaBreakdown, OutOfDomain, RigidRotationField, TaylorGreenField, TtpState,
                    UniformField, UniformGradientField, ValidationError, cancellation_check,
                    isobaric_normal, omega_decomposed, omega_direct, omega_identity_sweep,
                    reduced_divergence_report, relative_velocity, state_rhs, tangent_frame)
from ttpsim import integrate
from ttpsim.errors import TtpsimError
from ttpsim.kinetics import gradient_normal, norm3, rhs_terms, stage_eval
from ttpsim.verify import _median

from conftest import interior_points, spy_positions


def _dot(a, b):
    """a . b of two 3-vectors as Python floats, summed left to right."""
    (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
    return a0 * b0 + a1 * b1 + a2 * b2


def _matvec(M, v):
    """M v, one _dot per row of M."""
    return np.array([_dot(row, v) for row in M])


def _ref_norm3(v):
    """sqrt of the float sum of squares: inf where it overflows."""
    return math.sqrt(_dot(v, v))


def _ref_omega_decomposed(sample, state):
    """omega_decomposed on numpy 3-vectors, with the dots of _dot."""
    direct = omega_direct(sample, state)
    g = sample.grad_p1hat
    gn = _ref_norm3(g)
    if gn < math.inf:
        b = g / gn
    else:
        *b, gn = gradient_normal(sample.kin)
        b = np.array(b)
    V, H, xi, gradV = sample.V, sample.hess_p1hat, sample.xi, sample.gradV
    gdot_fluid = sample.dt_grad_p1hat + _matvec(H, V)
    bdot_fluid = (gdot_fluid - _dot(b, gdot_fluid) * b) / gn
    term_convective = np.cross(b, bdot_fluid)
    term_vorticity = -(xi - _dot(b, xi) * b)
    grad_gV = _matvec(H, V) + _matvec(gradV, g)
    g_dot_nabla_V = _matvec(gradV.T, g)
    term_pv = (np.cross(b, grad_gV) - np.cross(b, g_dot_nabla_V)) / gn
    total = term_convective + term_vorticity + term_pv
    return OmegaBreakdown(direct, total, term_convective, term_vorticity, term_pv,
                          _ref_norm3(direct - total))


def _ref_points(provider, count, rng):
    lo, hi = provider.reference_box
    return lo + (hi - lo) * (0.02 + (1.0 - 2.0 * 0.02) * rng.random((count, 3)))


def _ref_cancellation_check(provider, n_states, seed, beta, t):
    """cancellation_check on numpy 3-vectors, its state draw included, with the dots of _dot."""
    rng = np.random.default_rng(seed)
    pts = _ref_points(provider, n_states, rng)
    worst, kept = 0.0, 0
    for p in pts:
        s = provider.sample(p, t)
        b = isobaric_normal(s)
        if b is None:
            continue
        v = rng.normal(size=3)
        kept += 1
        st = TtpState(t=t, r=p, n=v / _ref_norm3(v), beta=beta)
        gn = gradient_normal(s.kin)[3]
        w = s.V + relative_velocity(st, s)
        gdot = s.dt_grad_p1hat + _matvec(s.hess_p1hat, w)
        rate_scale = _ref_norm3(gdot / gn)
        bdot = (gdot - _dot(b, gdot) * b) / gn
        omxn = np.cross(omega_direct(s, st), st.n)
        t1 = _dot(omxn, b)
        t2 = _dot(st.n, bdot)
        denom = max(_ref_norm3(omxn) + _ref_norm3(bdot) + rate_scale, 1e-300)
        if not all(map(math.isfinite, (t1, t2, denom))):
            raise ValidationError(f"non-finite cancellation terms at r = {tuple(p.tolist())}")
        worst = max(worst, abs(t1 + t2) / denom)
    if kept == 0:
        raise DegenerateGradient("no non-degenerate states found")
    return worst


def _ref_omega_identity_sweep(provider, n_points, seed, h, beta, t, g_min=1e-3):
    """omega_identity_sweep point by point on numpy 3-vectors: (table, skipped)."""
    rng = np.random.default_rng(seed)
    rows, skipped = [], 0
    for q in _ref_points(provider, n_points, rng):
        s = provider.sample(q, t)
        b = isobaric_normal(s)
        if b is None or _ref_norm3(s.grad_p1hat) <= g_min:
            skipped += 1
            continue
        e1, e2 = tangent_frame(b)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        st = TtpState(t=t, r=q, n=math.cos(phi) * e1 + math.sin(phi) * e2, beta=beta)
        w = s.V + relative_velocity(st, s)
        if not np.all(np.isfinite(w)):
            raise ValidationError(f"V + u is not finite at r = {tuple(q.tolist())}")
        bp = isobaric_normal(provider.sample(q + h * w, t + h))
        bm = isobaric_normal(provider.sample(q - h * w, t - h))
        if bp is None or bm is None:
            skipped += 1
            continue
        br = _ref_omega_decomposed(s, st)
        om_norm = max(_ref_norm3(br.omega_direct), 1e-300)
        res_fd = _ref_norm3(br.omega_direct - np.cross(b, (bp - bm) / (2.0 * h))) / om_norm
        row = (*q.tolist(), res_fd, br.residual, br.residual / om_norm)
        if not all(map(math.isfinite, row)):
            raise ValidationError(f"non-finite rotation-rate residuals at r = {row[:3]}")
        rows.append(row)
    return np.array(rows, dtype=float).reshape(-1, 6), skipped


def _ref_reduced_divergence_report(provider, n_states, seed, beta, t):
    """reduced_divergence_report point by point, its state draw included, on numpy 3-vectors."""
    rng = np.random.default_rng(seed)
    h, divs = 1e-6, []
    for p in _ref_points(provider, n_states, rng):
        if isobaric_normal(provider.sample(p, t)) is None:
            continue
        v = rng.normal(size=3)
        n = v / _ref_norm3(v)
        div = 0.0
        for i in range(3):
            # one component displaced; the others keep their bits, -0.0 included
            rp, rm, n_p, n_m = (x.copy() for x in (p, p, n, n))
            rp[i] += h
            rm[i] -= h
            n_p[i] += h
            n_m[i] -= h
            rhs = [state_rhs(provider, t, tuple(r.tolist()), tuple(m.tolist()), beta)
                   for r, m in ((rp, n), (rm, n), (p, n_p), (p, n_m))]
            div += (rhs[0][i] - rhs[1][i]) / (2.0 * h)
            div += (rhs[2][3 + i] - rhs[3][3 + i]) / (2.0 * h)
        if not math.isfinite(div):
            raise ValidationError(f"non-finite divergence at r = {tuple(p.tolist())}, "
                                  f"n = {tuple(n.tolist())}")
        divs.append(abs(div))
    if not divs:
        raise DegenerateGradient("no non-degenerate states found")
    return max(divs), float(np.median(divs)), len(divs)


def _tricubic_grid():
    tg = TaylorGreenField(nu=0.0)
    ax = np.linspace(0.0, 2.0 * np.pi, 9)
    V, p1 = np.empty((9, 9, 9, 3)), np.empty((9, 9, 9))
    for idx in np.ndindex(9, 9, 9):
        s = tg.sample(ax[list(idx)], 0.0)
        V[idx], p1[idx] = s.V, s.p1hat
    return GridField((ax[0],) * 3, (ax[1] - ax[0],) * 3, V, p1)


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


def _bits(*values):
    return [np.float64(v).tobytes() for v in values]


class _FlatWest(RigidRotationField):
    """rigid_rotation with a zero pressure gradient for x < -0.5: every study skips points there."""

    def _fields(self, r, t, full):
        out = super()._fields(r, t, full)
        if r[0] >= -0.5:
            return out
        kin = out[0] if full else out
        kin = kin[:4] + (0.0, 0.0, 0.0) + kin[7:]
        return (kin, out[1]) if full else kin


def _skip_cases():
    """(provider, g_min) pairs: the default g_min, then cases that skip points inside blocks."""
    return [pytest.param(p, 1e-3, id=_id(p)) for p in _providers()] + [
        pytest.param(TaylorGreenField(nu=0.3), 0.05, id="taylor_green_gmin0.05"),
        pytest.param(RigidRotationField(), 1.0, id="rigid_rotation_gmin1"),
        pytest.param(_FlatWest(), 1e-3, id="rigid_rotation_flat_west")]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("provider, g_min", _skip_cases())
@pytest.mark.parametrize("count", [1, 63, 64, 65, 200])
def test_pointwise_studies_match_numpy_reference(provider, g_min, count):
    # the counts straddle the edges of the studies' blocks of 64 points and draws; the last
    # three cases skip points inside a block and across its edges, so the k-th random draw
    # goes to the k-th kept point, not to the k-th point
    args = (provider, count, count % 7, 0.7, 0.25)
    rep = omega_identity_sweep(provider, count, count % 7, 1e-5, 0.7, 0.25, g_min)
    table, skipped = _ref_omega_identity_sweep(provider, count, count % 7, 1e-5, 0.7, 0.25, g_min)
    assert rep.table.tobytes() == table.tobytes() and rep.skipped == skipped
    if isinstance(provider, UniformField):
        assert skipped == count
        for study in (reduced_divergence_report, _ref_reduced_divergence_report,
                      cancellation_check, _ref_cancellation_check):
            with pytest.raises(DegenerateGradient):
                study(*args)
        return
    got, want = reduced_divergence_report(*args), _ref_reduced_divergence_report(*args)
    assert _bits(*got) == _bits(*want) and got[2] == want[2]
    assert _bits(cancellation_check(*args)) == _bits(_ref_cancellation_check(*args))


class _Trap(RigidRotationField):
    """rigid_rotation with a failure planted near some of the random points of seed 0.

    ``traps`` maps a point index to a phase: "residual" makes the x component
    of dt grad p1hat infinite near the point, so the rotation rate and the
    residuals are not finite there, while V + u stays finite; "pressure"
    makes p1hat negative there, so V + u raises NegativePressure; "centre"
    makes the sample at the point itself raise OutOfDomain.
    """

    def __init__(self, count, traps):
        super().__init__()
        rng = np.random.default_rng(0)
        self.points = [tuple(p) for p in _ref_points(self, count, rng).tolist()]
        self.traps = traps

    def _fields(self, r, t, full):
        out = super()._fields(r, t, full)
        kin = out[0] if full else out
        for i, phase in self.traps.items():
            p = self.points[i]
            if phase == "centre" and tuple(r) == p:
                raise OutOfDomain(f"centre trap at point {i}")
            if max(abs(a - b) for a, b in zip(r, p)) < 1e-3:
                if phase == "residual":
                    kin = kin[:13] + (math.inf,) + kin[14:]
                elif phase == "pressure":
                    kin = kin[:3] + (-1.0,) + kin[4:]
        return (kin, out[1]) if full else kin


def _raised(study, *args):
    try:
        study(*args)
    except (OutOfDomain, ValidationError, NegativePressure) as err:
        return f"{type(err).__name__}: {err}"
    return None


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("traps, first", [
    ({1: "residual", 3: "pressure", 5: "centre"}, "ValidationError: non-finite"),
    ({3: "pressure", 5: "centre"}, "NegativePressure: p1hat = -1 < 0"),
    ({5: "centre"}, "OutOfDomain: centre trap at point 5")], ids=["residual", "pressure", "centre"])
def test_pointwise_studies_report_the_first_failure_in_point_order(traps, first):
    # a later point's centre sample fails before an earlier point's rates or residuals
    # are evaluated only if the points are not walked in order
    prov = _Trap(20, traps)
    sweep, states = (prov, 20, 0, 1e-5, 0.7, 0.0), (prov, 20, 0, 0.7, 0.0)
    for study, ref, args in ((omega_identity_sweep, _ref_omega_identity_sweep, sweep),
                             (cancellation_check, _ref_cancellation_check, states),
                             (reduced_divergence_report, _ref_reduced_divergence_report, states)):
        with np.errstate(all="ignore"):  # the numpy copies warn on inf * 0
            want = _raised(ref, *args)
        assert want.startswith(first) and _raised(study, *args) == want, study.__name__


def _exact_norm(v):
    """|v| of float components, correctly rounded: a 60-digit square root of the exact sum."""
    s = sum(Fraction(c) ** 2 for c in v)
    with localcontext() as ctx:
        ctx.prec = 60
        return float((Decimal(s.numerator) / Decimal(s.denominator)).sqrt())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_norm3_is_the_float_sum_of_squares_within_an_ulp():
    # both norm3 and np.linalg.norm are within 1 ulp of |v|; they differ by up to 2 ulps
    # from each other (10 of these 20,000 vectors)
    rng = np.random.default_rng(19)
    scales = 10.0 ** rng.integers(-150, 151, size=(20000, 1))
    edges = ((3.0, 4.0, 0.0), (0.0, -0.0, 0.0), (1e153, -1e153, 1e153))
    for v in np.vstack((rng.normal(size=(20000, 3)) * scales, edges)):
        x, y, z = v.tolist()
        got, exact = norm3(v), _exact_norm((x, y, z))
        assert type(got) is float and got == math.sqrt(x * x + y * y + z * z)
        assert abs(got - exact) <= math.ulp(exact), v
        assert abs(got - float(np.linalg.norm(v))) <= 2.0 * math.ulp(exact), v
    assert norm3((1e-320, 0.0, 2e-320)) == 0.0  # the squares underflow, as numpy's do


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


# --- one integrator step ------------------------------------------------------

def _ref_rot(nx, ny, nz, tx, ty, tz):
    angle = math.sqrt(tx * tx + ty * ty + tz * tz)
    if angle == 0.0:
        return nx, ny, nz
    kx, ky, kz = tx / angle, ty / angle, tz / angle
    c, s = math.cos(angle), math.sin(angle)
    dot = (kx * nx + ky * ny + kz * nz) * (1.0 - c)
    ox = nx * c + (ky * nz - kz * ny) * s + kx * dot
    oy = ny * c + (kz * nx - kx * nz) * s + ky * dot
    oz = nz * c + (kx * ny - ky * nx) * s + kz * dot
    inv = 1.0 / math.sqrt(ox * ox + oy * oy + oz * oz)
    return ox * inv, oy * inv, oz * inv


def _ref_dexpinv(tx, ty, tz, wx, wy, wz):
    c1x = ty * wz - tz * wy
    c1y = tz * wx - tx * wz
    c1z = tx * wy - ty * wx
    c2x = ty * c1z - tz * c1y
    c2y = tz * c1x - tx * c1z
    c2z = tx * c1y - ty * c1x
    return (wx - 0.5 * c1x + c2x / 12.0,
            wy - 0.5 * c1y + c2y / 12.0,
            wz - 0.5 * c1z + c2z / 12.0)


def _ref_advance_rodrigues(provider, t, r, n, beta, dt, k1):
    """One rk4_rodrigues step, as first written."""
    rx, ry, rz = r
    nx, ny, nz = n
    a1x, a1y, a1z, w1x, w1y, w1z = ax, ay, az, wx, wy, wz = k1
    sax = say = saz = swx = swy = swz = -0.0
    for c in (0.5 * dt, 0.5 * dt, dt):
        tx, ty, tz = c * wx, c * wy, c * wz
        mx, my, mz = _ref_rot(nx, ny, nz, tx, ty, tz)
        ax, ay, az, ox, oy, oz = stage_eval(provider, t + c, rx + c * ax, ry + c * ay,
                                            rz + c * az, mx, my, mz, beta)
        wx, wy, wz = _ref_dexpinv(tx, ty, tz, ox, oy, oz)
        if c < dt:
            sax, say, saz = sax + ax, say + ay, saz + az
            swx, swy, swz = swx + wx, swy + wy, swz + wz
    sixth = dt / 6.0
    r_new = (rx + sixth * (a1x + 2.0 * sax + ax),
             ry + sixth * (a1y + 2.0 * say + ay),
             rz + sixth * (a1z + 2.0 * saz + az))
    n_new = _ref_rot(nx, ny, nz,
                     sixth * (w1x + 2.0 * swx + wx),
                     sixth * (w1y + 2.0 * swy + wy),
                     sixth * (w1z + 2.0 * swz + wz))
    return r_new, n_new


def _ref_advance_naive(provider, t, r, n, beta, dt, k1):
    """One rk4_naive step, as first written."""
    rates, m = k1, n
    dr, dn = [], []
    for c in (0.5 * dt, 0.5 * dt, dt, None):
        ax, ay, az, ox, oy, oz = rates
        mx, my, mz = m
        dr.append((ax, ay, az))
        dn.append((oy * mz - oz * my, oz * mx - ox * mz, ox * my - oy * mx))
        if c is None:
            break
        m = tuple(x + c * k for x, k in zip(n, dn[-1]))
        rates = stage_eval(provider, t + c, r[0] + c * ax, r[1] + c * ay, r[2] + c * az,
                           *m, beta)
    sixth = dt / 6.0
    return (tuple(x + sixth * (a + 2.0 * (b + c) + d) for x, a, b, c, d in zip(r, *dr)),
            tuple(x + sixth * (a + 2.0 * (b + c) + d) for x, a, b, c, d in zip(n, *dn)))


_REF_STEPS = {"rk4_rodrigues": _ref_advance_rodrigues, "rk4_naive": _ref_advance_naive}


def _library_step(method, provider, t, r, n, beta, dt, k1):
    return integrate._advance(provider, t, r, n, beta, dt, k1, *integrate.METHODS[method])


def _outcome(step, *args):
    """repr of a step's result, or the type and text of what it raised."""
    try:
        return repr(step(*args))
    except (ArithmeticError, ValueError, TtpsimError) as err:
        return f"{type(err).__name__}: {err}"


def _step_states(provider, count, rng):
    """(t, r, n, beta) draws at interior points, dense in signed zeros.

    Each component of the position that the reference box admits at zero,
    and each component of the direction, is a zero of random sign with
    probability 0.4: a flipped zero in a stage's rate shows in the result
    only where the state has zeros in both.
    """
    lo, hi = provider.reference_box
    for r in interior_points(provider, count, seed=int(rng.integers(1 << 30))):
        zero = rng.random(6) < 0.4
        sign = rng.choice((0.0, -0.0), size=6)
        r = [float(sign[j] if zero[j] and lo[j] <= 0.0 <= hi[j] else x) for j, x in enumerate(r)]
        n = np.where(zero[3:], 0.0, rng.normal(size=3))
        n = n / np.linalg.norm(n) if n.any() else np.array((0.0, 0.0, 1.0))
        n = [float(sign[3 + j] if x == 0.0 else x) for j, x in enumerate(n)]
        yield float(rng.choice((0.0, 0.25))), tuple(r), tuple(n), float(rng.choice((0.0, 0.5, 1.0)))


@pytest.mark.parametrize("provider", _providers(), ids=_id)
@pytest.mark.parametrize("method", sorted(_REF_STEPS))
def test_step_matches_reference_bit_for_bit(provider, method):
    # where a stage position or rotation angle is not finite, the reference samples it or
    # raises ValueError (math.cos(inf)); the library step then returns a state that is
    # not finite and raises nothing
    rng = np.random.default_rng(20)
    seen = []
    spied = spy_positions(copy.copy(provider), seen)
    stepped = exact = 0
    for t, r, n, beta in _step_states(provider, 400, rng):
        try:
            k1 = rhs_terms(provider, t, r, n, beta)[:6]
        except TtpsimError:  # outside the domain: there is no step to take
            continue
        for dt in (1e-3, 0.02, 0.3):
            args = (spied, t, r, n, beta, dt, k1)
            seen.clear()
            want = _outcome(_REF_STEPS[method], *args)
            finite = all(map(math.isfinite, sum(seen, ()))) and not want.startswith("ValueError")
            seen.clear()
            if finite:
                assert _outcome(_library_step, method, *args) == want, (t, r, n, beta, dt)
                exact += 1
            else:
                assert not all(map(math.isfinite, sum(_library_step(method, *args), ()))), \
                    (t, r, n, beta, dt)
            assert all(map(math.isfinite, sum(seen, ()))), (t, r, n, beta, dt)
            stepped += 1
    assert stepped >= 3 * 350 and exact >= 3 * 150  # c = 1e160 compares 498 of 1200 exactly
