"""Grid file format and interpolated-provider contracts."""

import numpy as np
import pytest

from ttpsim import (GridField, NegativePressure, NonUniformSpacing, OutOfDomain,
                    ParseError, RigidRotationField, TaylorGreenField, UniformField,
                    ValidationError, load_grid, write_grid)


def _write_sampled(tmp_path, provider, origin, spacing, dims, name="field.grid"):
    path = tmp_path / name
    write_grid(path, provider, origin, spacing, dims)
    return path


def test_roundtrip_uniform_reproduces_values(tmp_path):
    p = UniformField(V0=(1.25, -0.5, 2.0), p0=0.75)
    path = _write_sampled(tmp_path, p, (-1, -1, -1), (0.5, 0.5, 0.5), (5, 5, 5))
    g = load_grid(path)
    for r in [(-0.6, 0.3, 0.8), (0.0, 0.0, 0.0), (0.123, -0.456, 0.789)]:
        s = g.sample(np.array(r), 0.0)
        np.testing.assert_allclose(s.V, (1.25, -0.5, 2.0), atol=1e-13)
        assert abs(s.p1hat - 0.75) < 1e-13
        np.testing.assert_allclose(s.grad_p1hat, 0.0, atol=1e-12)
        np.testing.assert_allclose(s.gradV, 0.0, atol=1e-12)


class _LinearVelocity(UniformField):
    """V = (x, 0, 0) with constant pressure; linear fields interpolate exactly."""

    name = "linear_velocity"

    def sample(self, r, t):
        s = super().sample(r, t)
        s.V = np.array((float(r[0]), 0.0, 0.0))
        s.gradV = np.zeros((3, 3))
        s.gradV[0, 0] = 1.0
        return s


@pytest.mark.parametrize("interpolation", ["tricubic", "trilinear"])
def test_linear_field_gradients_exact(tmp_path, interpolation):
    p = _LinearVelocity()
    path = _write_sampled(tmp_path, p, (-2, -2, -2), (0.25, 0.25, 0.25), (17, 17, 17))
    g = load_grid(path, interpolation=interpolation)
    for r in [(-0.9, 0.4, 1.1), (0.31, -1.2, 0.05)]:
        s = g.sample(np.array(r), 0.0)
        assert abs(s.V[0] - r[0]) < 1e-10
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(s.gradV, expected, atol=1e-10)


def test_gridded_rigid_rotation_vorticity(tmp_path):
    p = RigidRotationField(omega=1.0, p0=0.5, c=1.0)
    path = _write_sampled(tmp_path, p, (-2, -2, -2), (4 / 64, 4 / 64, 4 / 64),
                          (65, 65, 65))
    g = load_grid(path)
    s = g.sample(np.array((1.0, 0.0, 0.0)), 0.0)
    np.testing.assert_allclose(s.xi, (0.0, 0.0, 2.0), atol=1e-6)
    np.testing.assert_allclose(s.V, (0.0, 1.0, 0.0), atol=1e-8)
    # quadratic pressure: gradient and Hessian interpolate to high accuracy
    np.testing.assert_allclose(s.grad_p1hat, (1.0, 0.0, 0.0), atol=1e-6)
    assert s.dt_grad_p1hat @ s.dt_grad_p1hat == 0.0


def test_gridded_taylor_green_matches_analytic(tmp_path):
    # nodal slopes are O(dx^2) estimates, so value error ~ dx^3 and
    # first-derivative error ~ dx^2; tolerances sized accordingly
    p = TaylorGreenField(A=1.0, k=1.0, nu=0.0, p0=1.0)
    r = np.array((2.1, 3.3, 1.7))
    sa = p.sample(r, 0.0)
    errs = {}
    for n in (25, 49):
        path = _write_sampled(tmp_path, p, (0, 0, 0),
                              (2 * np.pi / (n - 1),) * 3, (n, n, n), name=f"tg{n}.grid")
        g = load_grid(path)
        sg = g.sample(r, 0.0)
        sg.check()
        errs[n] = (float(np.max(np.abs(sg.V - sa.V))),
                   float(np.max(np.abs(sg.gradV - sa.gradV))),
                   float(np.max(np.abs(sg.grad_p1hat - sa.grad_p1hat))))
    v_err, gv_err, gp_err = errs[49]
    assert v_err < 2e-5
    assert gv_err < 5e-3
    assert gp_err < 5e-3
    # halving dx shrinks derivative errors (asymptotically ~4x; the coarse
    # grid is still pre-asymptotic at this point, so bound conservatively)
    assert errs[25][1] / errs[49][1] > 1.8
    assert errs[25][2] / errs[49][2] > 1.8


def test_out_of_domain_raises(tmp_path):
    p = UniformField()
    path = _write_sampled(tmp_path, p, (0, 0, 0), (0.5, 0.5, 0.5), (5, 5, 5))
    g = load_grid(path)
    with pytest.raises(OutOfDomain):
        g.sample(np.array((3.0, 0.5, 0.5)), 0.0)
    # boundary nodes are inside
    g.sample(np.array((2.0, 2.0, 2.0)), 0.0)
    g.sample(np.zeros(3), 0.0)


def test_negative_pressure_detected():
    # pressure dips below zero between nodes after cubic overshoot
    n = 8
    ax = np.linspace(0.0, 1.0, n)
    V = np.zeros((n, n, n, 3))
    p1 = np.full((n, n, n), 1e-4)
    p1[3] = 0.0
    p1[4] = 0.0
    g = GridField.from_axes(ax, ax, ax, V, p1)
    with pytest.raises(NegativePressure):
        # between the two zero planes the nodal slopes force an undershoot
        g.sample(np.array((0.5 * (ax[3] + ax[4]), 0.5, 0.5)), 0.0)


def test_nonuniform_axis_rejected():
    ax = np.array((0.0, 1.0, 2.5, 3.0))
    V = np.zeros((4, 4, 4, 3))
    p1 = np.ones((4, 4, 4))
    with pytest.raises(NonUniformSpacing):
        GridField.from_axes(ax, np.linspace(0, 3, 4), np.linspace(0, 3, 4), V, p1)


def test_too_small_grid_rejected():
    ax = np.linspace(0, 1, 3)
    V = np.zeros((3, 3, 3, 3))
    p1 = np.ones((3, 3, 3))
    with pytest.raises(ValidationError):
        GridField.from_axes(ax, ax, ax, V, p1, interpolation="tricubic")
    GridField.from_axes(ax, ax, ax, V, p1, interpolation="trilinear")


def test_parse_errors(tmp_path):
    bad_magic = tmp_path / "a.grid"
    bad_magic.write_text("TTPGRID 2\ndims 2 2 2\n")
    with pytest.raises(ParseError):
        load_grid(bad_magic)

    count_mismatch = tmp_path / "b.grid"
    count_mismatch.write_text(
        "TTPGRID 1\ndims 2 2 2\norigin 0 0 0\nspacing 1 1 1\nfields V p1hat\n"
        + "0 0 0 1\n" * 7)
    with pytest.raises(ParseError, match="value count"):
        load_grid(count_mismatch)

    bad_header = tmp_path / "c.grid"
    bad_header.write_text(
        "TTPGRID 1\ndims 2 2\norigin 0 0 0\nspacing 1 1 1\nfields V p1hat\n")
    with pytest.raises(ParseError):
        load_grid(bad_header)

    bad_fields = tmp_path / "d.grid"
    bad_fields.write_text(
        "TTPGRID 1\ndims 2 2 2\norigin 0 0 0\nspacing 1 1 1\nfields V rho\n")
    with pytest.raises(ParseError):
        load_grid(bad_fields)

    for i, token in enumerate(("nan", "inf", "-inf")):
        non_finite = tmp_path / f"e{i}.grid"
        non_finite.write_text(
            "TTPGRID 1\ndims 2 2 2\norigin 0 0 0\nspacing 1 1 1\nfields V p1hat\n"
            + "0 0 0 1\n" * 7 + f"0 {token} 0 1\n")
        with pytest.raises(ParseError, match="non-finite"):
            load_grid(non_finite)

    bad_spacing = tmp_path / "f.grid"
    bad_spacing.write_text(
        "TTPGRID 1\ndims 2 2 2\norigin 0 0 0\nspacing 1 nan 1\nfields V p1hat\n"
        + "0 0 0 1\n" * 8)
    with pytest.raises(ParseError, match="finite"):
        load_grid(bad_spacing)


def test_x_fastest_ordering(tmp_path):
    # hand-written 2x2x2 grid: p1hat = x + 10 y + 100 z at unit nodes
    lines = ["TTPGRID 1", "dims 2 2 2", "origin 0 0 0", "spacing 1 1 1",
             "fields V p1hat"]
    for k in range(2):
        for j in range(2):
            for i in range(2):
                lines.append(f"0 0 0 {i + 10 * j + 100 * k}")
    path = tmp_path / "order.grid"
    path.write_text("\n".join(lines) + "\n")
    g = load_grid(path, interpolation="trilinear")
    for (x, y, z) in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]:
        s = g.sample(np.array((x, y, z), dtype=float), 0.0)
        assert abs(s.p1hat - (x + 10 * y + 100 * z)) < 1e-12


def test_trilinear_hessian_flagged_in_audit(tmp_path):
    from ttpsim import fd_verify_derivatives
    p = _LinearVelocity()
    path = _write_sampled(tmp_path, p, (-2, -2, -2), (0.25, 0.25, 0.25), (17, 17, 17))
    g = load_grid(path, interpolation="trilinear")
    rep = fd_verify_derivatives(g, np.array((0.125, 0.125, 0.125)), 0.0, h=1e-3)
    assert "trilinear" in rep.note


def test_tricubic_c1_across_cell_faces(tmp_path):
    # value and first derivatives must be continuous across interior faces;
    # a transposed slope flag in the Hermite data tensor would break this
    p = TaylorGreenField(A=1.0, k=1.0, nu=0.0, p0=1.0)
    n = 17
    path = _write_sampled(tmp_path, p, (0, 0, 0),
                          (2 * np.pi / (n - 1),) * 3, (n, n, n))
    g = load_grid(path)
    dx = 2 * np.pi / (n - 1)
    eps = 1e-9
    for axis in range(3):
        face = np.array((2.9, 3.7, 1.3))
        face[axis] = 8 * dx  # an interior face along this axis
        lo, hi = face.copy(), face.copy()
        lo[axis] -= eps
        hi[axis] += eps
        sl, sh = g.sample(lo, 0.0), g.sample(hi, 0.0)
        assert np.max(np.abs(sl.V - sh.V)) < 1e-7
        assert np.max(np.abs(sl.gradV - sh.gradV)) < 1e-6
        assert abs(sl.p1hat - sh.p1hat) < 1e-7
        assert np.max(np.abs(sl.grad_p1hat - sh.grad_p1hat)) < 1e-6


def test_concurrent_sampling_consistent(tmp_path):
    # providers are immutable after construction; unsynchronized sampling
    # from many threads must give bit-identical results to serial calls
    from concurrent.futures import ThreadPoolExecutor

    p = RigidRotationField(omega=1.0, p0=0.5, c=1.0)
    path = _write_sampled(tmp_path, p, (-2, -2, -2), (0.25, 0.25, 0.25),
                          (17, 17, 17))
    g = load_grid(path)
    rng = np.random.default_rng(8)
    pts = -1.5 + 3.0 * rng.random((64, 3))
    serial = [g.sample(r, 0.0) for r in pts]
    with ThreadPoolExecutor(max_workers=8) as ex:
        threaded = list(ex.map(lambda r: g.sample(r, 0.0), pts))
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.V, b.V)
        assert np.array_equal(a.grad_p1hat, b.grad_p1hat)
        assert np.array_equal(a.hess_p1hat, b.hess_p1hat)
        assert a.p1hat == b.p1hat


def test_grid_provider_descriptor(tmp_path):
    p = UniformField()
    path = _write_sampled(tmp_path, p, (0, 0, 0), (1, 1, 1), (4, 4, 4))
    g = load_grid(path)
    d = g.descriptor()
    assert d.time_dependent is False
    assert d.domain_bounds is not None
