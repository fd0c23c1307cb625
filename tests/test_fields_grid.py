"""Grid file format and interpolated-provider contracts."""

import math
import re
import sys

import numpy as np
import pytest

from ttpsim import (GridField, NegativePressure, OutOfDomain, ParseError, RigidRotationField,
                    TaylorGreenField, UniformField, ValidationError, load_grid, write_grid)


def _write_sampled(tmp_path, provider, origin, spacing, dims, name="field.grid"):
    path = tmp_path / name
    write_grid(path, provider, origin, spacing, dims)
    return path


def test_roundtrip_uniform_reproduces_values(tmp_path):
    p = UniformField(V0x=1.25, V0y=-0.5, V0z=2.0, p0=0.75)
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

    def _fields(self, r, t, full):
        kin = (float(r[0]), 0.0, 0.0) + super()._fields(r, t, False)[3:]
        return (kin, (1.0,) + (0.0,) * 8) if full else kin


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
        assert sg.p1hat >= 0.0
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
    with pytest.raises(OutOfDomain):
        g.sample_kinetic((0.5, -0.1, 0.5), 0.0)
    with pytest.raises(OutOfDomain):
        g.sample(np.array((0.5, 0.5, np.nan)), 0.0)
    # boundary nodes are inside
    g.sample(np.array((2.0, 2.0, 2.0)), 0.0)
    g.sample(np.zeros(3), 0.0)



def test_domain_corner_past_rounding_returns_corner_node():
    # hi = 3 * 0.1 = 0.30000000000000004 and hi / 0.1 = 3.0000000000000004, one ulp past
    # the last node: the face clamp in _locate returns the corner node's values exactly
    V = np.zeros((4, 4, 4, 3))
    V[3, 3, 3] = (0.5, -0.25, 2.0)
    p1 = np.ones((4, 4, 4))
    p1[3, 3, 3] = 3.0
    g = GridField((0.0, 0.0, 0.0), (0.1, 0.1, 0.1), V, p1)
    hi = g.domain_bounds[1]
    assert (hi[0] - 0.0) / 0.1 == 3.0000000000000004
    assert g.sample_kinetic(tuple(hi.tolist()), 0.0)[:4] == (0.5, -0.25, 2.0, 3.0)


def test_negative_pressure_detected():
    # pressure dips below zero between nodes after cubic overshoot
    n = 8
    ax = np.linspace(0.0, 1.0, n)
    V = np.zeros((n, n, n, 3))
    p1 = np.full((n, n, n), 1e-4)
    p1[3] = 0.0
    p1[4] = 0.0
    g = GridField((ax[0],) * 3, (ax[1] - ax[0],) * 3, V, p1)
    r = (0.5 * (ax[3] + ax[4]), 0.5, 0.5)
    with pytest.raises(NegativePressure):
        # between the two zero planes the nodal slopes force an undershoot
        g.sample(np.array(r), 0.0)
    with pytest.raises(NegativePressure):
        g.sample_kinetic(r, 0.0)


def test_too_small_grid_rejected():
    V = np.zeros((3, 3, 3, 3))
    p1 = np.ones((3, 3, 3))
    with pytest.raises(ValidationError):
        GridField((0.0,) * 3, (0.5,) * 3, V, p1, interpolation="tricubic")
    GridField((0.0,) * 3, (0.5,) * 3, V, p1, interpolation="trilinear")


@pytest.mark.parametrize("origin, spacing", [((0.0, 0.0, 0.0), (np.nan, 1.0, 1.0)),
                                             ((np.inf, 0.0, 0.0), (1.0, 1.0, 1.0))])
def test_non_finite_origin_or_spacing_rejected(origin, spacing):
    # both were accepted, and every sample then raised OutOfDomain
    with pytest.raises(ValidationError, match="must be finite"):
        GridField(origin, spacing, np.zeros((4, 4, 4, 3)), np.ones((4, 4, 4)))


@pytest.mark.parametrize("spacing", [(1e-160, 1.0, 1.0), (1.0, 1e-160, 1.0), (1.0, 1.0, 1e-160)])
def test_trilinear_grid_with_one_tiny_spacing_samples_finite_values(spacing):
    # the all-zero xx row's placeholder term, 0 * 1/h^2 = nan, was rejected as a spacing
    # too small, though no nonzero coefficient overflows
    i, j, k = np.indices((4, 4, 4)).astype(float)
    V = np.stack((0.1 * j, -0.1 * i, 0.05 + 0.0 * k), axis=-1)
    g = GridField((0.0,) * 3, spacing, V, 1.0 + 0.1 * i + 0.05 * j * j + 0.02 * k,
                  interpolation="trilinear")
    s = g.sample(tuple(1.5 * x for x in spacing), 0.0)
    assert np.all(np.isfinite(s.kin)) and np.all(np.isfinite(s.dV))


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
        with pytest.raises(ValidationError, match="non-finite"):
            load_grid(non_finite)

    bad_spacing = tmp_path / "f.grid"
    bad_spacing.write_text(
        "TTPGRID 1\ndims 2 2 2\norigin 0 0 0\nspacing 1 nan 1\nfields V p1hat\n"
        + "0 0 0 1\n" * 8)
    with pytest.raises(ValidationError, match="finite"):
        load_grid(bad_spacing)

    good_header = ["TTPGRID 1", "dims 2 2 2", "origin 0 0 0", "spacing 1 1 1", "fields V p1hat"]
    for i, (line_no, line, payload, error, message) in enumerate((
            (0, "TTPGRID 2", "0 0 0 1\n" * 8, ParseError, "bad magic line 'TTPGRID 2'"),
            (1, "dims 2 2 x", "0 0 0 1\n" * 8, ParseError, "line 2: could not parse dims values"),
            (1, "dims 0 2 2", "", ParseError, "dims must be positive"),
            (3, "spacing 1 0 1", "0 0 0 1\n" * 8, ValidationError, "spacing must be positive"),
            (None, None, "0 0 0 1\n" * 7 + "0 0 0 one\n", ParseError, "non-numeric token"))):
        header = list(good_header)
        if line_no is not None:
            header[line_no] = line
        bad = tmp_path / f"g{i}.grid"
        bad.write_text("\n".join(header) + "\n" + payload)
        with pytest.raises(error, match=re.escape(message)):
            load_grid(bad)


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


def _bytes(s):
    return np.array(s.kin + s.dV).tobytes()


def test_concurrent_sampling_consistent(tmp_path):
    # unsynchronized sampling from many threads must give the bytes of serial
    # calls; the threads visit more cells than the cell cache holds, so evictions
    # race with fills, and the cache never exceeds its bound
    from concurrent.futures import ThreadPoolExecutor

    from ttpsim.fields.grid import _CELLS_CACHED

    p = RigidRotationField(omega=1.0, p0=0.5, c=1.0)
    path = _write_sampled(tmp_path, p, (-2, -2, -2), (0.25, 0.25, 0.25),
                          (17, 17, 17))
    rng = np.random.default_rng(8)
    pts = -1.9 + 3.8 * rng.random((2000, 3))
    g = load_grid(path)
    serial = [_bytes(g.sample(r, 0.0)) for r in pts]
    assert len({g._locate(r)[0] for r in pts}) > 2 * _CELLS_CACHED
    g = load_grid(path)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as ex:
            threaded = list(ex.map(
                lambda r: (_bytes(g.sample(r, 0.0)), g._cell_rows.cache_info().currsize), pts,
                timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert [b for b, _ in threaded] == serial
    assert max(n for _, n in threaded) <= _CELLS_CACHED


@pytest.mark.parametrize("interpolation", ["tricubic", "trilinear"])
def test_samples_do_not_depend_on_the_cell_cache(tmp_path, interpolation):
    # the same bytes from a fresh provider, from a warm cache, and after more
    # cells than the bound were sampled, which evicts the least recently used
    from ttpsim.fields.grid import _CELLS_CACHED

    n = 11  # 1000 cells
    path = _write_sampled(tmp_path, TaylorGreenField(), (0, 0, 0), (2 * np.pi / (n - 1),) * 3,
                          (n, n, n))
    g = load_grid(path, interpolation=interpolation)
    lo, hi = g.domain_bounds
    pts = [tuple(r.tolist()) for r in lo + (hi - lo) * np.random.default_rng(5).random((30, 3))]

    def both(g, p):
        return _bytes(g.sample(p, 0.0)), g.sample_kinetic(p, 0.0)

    fresh = [both(load_grid(path, interpolation=interpolation), p) for p in pts]
    assert [both(g, p) for p in pts] == fresh
    assert [both(g, p) for p in pts] == fresh  # every cell now cached

    def centre(c):
        return tuple((g.origin + (np.array(c) + 0.5) * g.spacing).tolist())

    cells = list(np.ndindex(n - 1, n - 1, n - 1))
    for c in cells:
        g.sample_kinetic(centre(c), 0.0)
    swept = g._cell_rows.cache_info()
    assert swept.currsize == _CELLS_CACHED
    g.sample_kinetic(centre(cells[-1]), 0.0)  # the most recently used cell is kept
    assert g._cell_rows.cache_info().hits == swept.hits + 1
    g.sample_kinetic(centre(cells[0]), 0.0)  # the least recently used is gone
    assert g._cell_rows.cache_info().misses == swept.misses + 1
    assert [both(g, p) for p in pts] == fresh


def test_grid_provider_descriptor(tmp_path):
    p = UniformField()
    path = _write_sampled(tmp_path, p, (0, 0, 0), (1, 1, 1), (4, 4, 5))
    g = load_grid(path)
    assert g.name == "grid"
    assert g.time_dependent is False
    assert g.dims.tolist() == [4, 4, 5]
    lo, hi = g.domain_bounds
    np.testing.assert_array_equal(lo, (0.0, 0.0, 0.0))
    np.testing.assert_array_equal(hi, (3.0, 3.0, 4.0))


# --- oracles for the interpolation kernel ------------------------------------

def _poly(terms, r, order=(0, 0, 0)):
    """d^order of sum(c x^a y^b z^e) at r, with terms [(c, (a, b, e)), ...]."""
    total = 0.0
    for c, powers in terms:
        term = c
        for x, p, k in zip(r, powers, order):
            term = term * math.perm(p, k) * x ** (p - k) if k <= p else 0.0
        total += term
    return total


# Degree <= 2 per coordinate: the second-order nodal slopes (and their
# products) are exact, so the tricubic interpolant reproduces the field.
# Degree <= 1 per coordinate: trilinear reproduces it, and its zero
# diagonal Hessian is exact too.
_ORACLE_FIELDS = {
    "tricubic": (
        [[(1.0, (1, 1, 0)), (0.5, (0, 0, 2)), (-0.3, (2, 1, 1))],
         [(0.7, (0, 2, 1)), (-1.0, (1, 0, 0)), (0.2, (2, 2, 2))],
         [(0.4, (2, 0, 1)), (-0.6, (1, 2, 0)), (0.9, (0, 0, 0))]],
        [(3.0, (0, 0, 0)), (0.3, (2, 0, 0)), (-0.2, (1, 1, 0)), (0.1, (0, 2, 1)),
         (0.05, (2, 2, 2)), (0.4, (0, 0, 1)), (-0.15, (1, 0, 2))]),
    "trilinear": (
        [[(1.0, (1, 1, 0)), (0.5, (0, 0, 1))],
         [(-0.8, (1, 1, 1)), (0.3, (0, 1, 0))],
         [(0.6, (1, 0, 1)), (-0.2, (0, 0, 0))]],
        [(3.0, (0, 0, 0)), (0.4, (1, 1, 1)), (-0.3, (1, 0, 1)), (0.2, (0, 1, 0))]),
}

_UNIT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _oracle_grid(interpolation):
    V_terms, p_terms = _ORACLE_FIELDS[interpolation]
    origin, spacing, dims = (-1.0, -0.5, -1.2), (0.25, 0.2, 0.3), (9, 7, 8)
    axes = [o + h * np.arange(n) for o, h, n in zip(origin, spacing, dims)]
    X, Y, Z = np.meshgrid(*axes, indexing="ij")
    V = np.stack([_poly(t, (X, Y, Z)) for t in V_terms], axis=-1)
    p1 = _poly(p_terms, (X, Y, Z))
    g = GridField(origin, spacing, V, p1, interpolation=interpolation)
    lo, hi = g.domain_bounds
    pts = lo + (hi - lo) * np.random.default_rng(13).random((25, 3))
    return g, V_terms, p_terms, pts


@pytest.mark.parametrize("interpolation", ["tricubic", "trilinear"])
def test_interpolant_reproduces_polynomial_oracle(interpolation):
    g, V_terms, p_terms, pts = _oracle_grid(interpolation)
    for r in pts:
        V = [_poly(t, r) for t in V_terms]
        gradV = [[_poly(t, r, e) for t in V_terms] for e in _UNIT]
        p1 = _poly(p_terms, r)
        gp = [_poly(p_terms, r, e) for e in _UNIT]
        H = [[_poly(p_terms, r, np.add(a, b)) for b in _UNIT] for a in _UNIT]
        s = g.sample(r, 0.0)
        np.testing.assert_allclose(s.V, V, rtol=0, atol=1e-12)
        np.testing.assert_allclose(s.gradV, gradV, rtol=0, atol=1e-12)
        G = s.gradV
        curl = (G[1, 2] - G[2, 1], G[2, 0] - G[0, 2], G[0, 1] - G[1, 0])
        np.testing.assert_allclose(s.xi, curl, rtol=0, atol=0)
        assert abs(s.p1hat - p1) <= 1e-12
        np.testing.assert_allclose(s.grad_p1hat, gp, rtol=0, atol=1e-12)
        np.testing.assert_allclose(s.hess_p1hat, H, rtol=0, atol=1e-12)
        kin = g.sample_kinetic(tuple(r.tolist()), 0.0)
        expected = (*V, p1, *gp, H[0][0], H[0][1], H[0][2], H[1][1], H[1][2], H[2][2],
                    0.0, 0.0, 0.0)
        np.testing.assert_allclose(kin, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("interpolation", ["tricubic", "trilinear"])
def test_sample_kinetic_bit_identical_to_sample(interpolation):
    g, _, _, pts = _oracle_grid(interpolation)
    for r in pts:
        assert g.sample_kinetic(tuple(r.tolist()), 0.3) == g.sample(r, 0.3).kin


def test_sample_of_tuple_equals_sample_of_array():
    g, _, _, pts = _oracle_grid("tricubic")
    for r in pts:
        want = g.sample(r, 0.3)
        for got in (g.sample(tuple(r.tolist()), 0.3), g.sample(tuple(r), 0.3)):  # floats, np.float64
            assert list(map(type, got.kin + got.dV)) == list(map(type, want.kin + want.dV))
            assert np.array(got.kin + got.dV).tobytes() == np.array(want.kin + want.dV).tobytes()


def test_field_entries_are_python_floats():
    g, _, _, pts = _oracle_grid("tricubic")
    for r in pts:
        p = tuple(r.tolist())
        s = g.sample(p, 0.3)
        for values in (g.sample_kinetic(p, 0.3), s.kin, s.dV):
            assert {type(v) for v in values} == {float}


def test_tricubic_simulate_samples_once_per_record(tmp_path, monkeypatch):
    # stage evaluations must take the sample_kinetic fast path: the full
    # sample is called for the auto_tangent seed and once per record only
    from ttpsim.cli import main

    calls = {"sample": 0, "sample_kinetic": 0}
    for name in calls:
        orig = getattr(GridField, name)

        def counted(self, r, t, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(self, r, t)

        monkeypatch.setattr(GridField, name, counted)
    n = 8
    grid = _write_sampled(tmp_path, TaylorGreenField(), (0, 0, 0),
                          (2 * np.pi / (n - 1),) * 3, (n, n, n))
    steps = 12
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[field]\ngrid = {grid}\n\n[particle]\nr0 = 3.0 3.2 2.9\n"
                   f"auto_tangent = true\nbeta = 0.5\n\n[integrator]\ndt = 0.02\n"
                   f"t_end = {steps * 0.02!r}\n\n[output]\ndirectory = {tmp_path / 'out'}\n")
    assert main(["simulate", str(cfg)]) == 0
    assert calls == {"sample": steps + 2, "sample_kinetic": 3 * steps}


# --- reference: the Hermite slice-and-matmul contraction ------------------------

def _ref_cubic_basis(s, h):
    """Cubic Hermite basis (v0, s0, v1, s1) rows: values, d/dx, d^2/dx^2; slopes scaled by h."""
    s2 = s * s
    s3 = s2 * s
    hh = h * h
    return (2.0 * s3 - 3.0 * s2 + 1.0, s3 - 2.0 * s2 + s, -2.0 * s3 + 3.0 * s2, s3 - s2,
            (6.0 * s2 - 6.0 * s) / h, (3.0 * s2 - 4.0 * s + 1.0) / h,
            (-6.0 * s2 + 6.0 * s) / h, (3.0 * s2 - 2.0 * s) / h,
            (12.0 * s - 6.0) / hh, (6.0 * s - 4.0) / hh,
            (-12.0 * s + 6.0) / hh, (6.0 * s - 2.0) / hh)


def _ref_linear_basis(s, h):
    return 1.0 - s, s, -1.0 / h, 1.0 / h, 0.0, 0.0


def _ref_contraction(g, r):
    """The 22 kernel outputs (kin[0:13], then dV) by the slice, transpose and two matmuls.

    Tests may call BLAS; the exactness guard scans src/ only.
    """
    (i, j, k), (fx, fy, fz) = g._locate(r)
    w = 2 * g._nodes.shape[1]
    basis = _ref_cubic_basis if w == 4 else _ref_linear_basis
    C = g._nodes[..., i:i + 2, j:j + 2, k:k + 2].transpose(
        0, 4, 1, 5, 2, 6, 3).reshape(4 * w * w, w)
    dx, dy, dz = g.spacing.tolist()
    B = np.array((*basis(fx, dx), *basis(fy, dy), *basis(fz, dz))).reshape(3, 3, w)
    C = B[1] @ (C @ B[2].T).reshape(4, w, w, 3)
    X, Y, Z, P = (B[0] @ C.reshape(4, w, 9)).reshape(4, 3, 3, 3).tolist()
    return (X[0][0][0], Y[0][0][0], Z[0][0][0], P[0][0][0],
            P[1][0][0], P[0][1][0], P[0][0][1],
            P[2][0][0], P[1][1][0], P[1][0][1], P[0][2][0], P[0][1][1], P[0][0][2],
            X[1][0][0], Y[1][0][0], Z[1][0][0],
            X[0][1][0], Y[0][1][0], Z[0][1][0],
            X[0][0][1], Y[0][0][1], Z[0][0][1])


@pytest.fixture(scope="module")
def reference_grids(tmp_path_factory):
    """{name: path} of the 24^3 Taylor-Green grid and the ridge grid of the golden cases."""
    from golden.regenerate import write_ridge_grid

    d = tmp_path_factory.mktemp("grids")
    h = 2.0 * math.pi / 23.0
    write_grid(d / "tg24.grid", TaylorGreenField(), (0.0, 0.0, 0.0), (h, h, h), (24, 24, 24))
    write_ridge_grid(d / "ridge.grid")
    return {"taylor_green_24": d / "tg24.grid", "ridge": d / "ridge.grid"}


@pytest.mark.parametrize("interpolation", ["tricubic", "trilinear"])
@pytest.mark.parametrize("name", ["taylor_green_24", "ridge"])
def test_kernel_matches_the_matmul_contraction(reference_grids, name, interpolation):
    # tolerance: 1e-12 of the field's scale, max |nodal value| / h^order for each scalar
    g = load_grid(reference_grids[name], interpolation=interpolation)
    h = float(g.spacing.min())
    V, P = np.abs(g._nodes[:3, 0, 0, 0]).max(), np.abs(g._nodes[3, 0, 0, 0]).max()
    tol = 1e-12 * np.array((V, V, V, P) + (P / h,) * 3 + (P / h ** 2,) * 6 + (V / h,) * 9)
    lo, hi = g.domain_bounds
    checked = 0
    for r in lo + (hi - lo) * np.random.default_rng(27).random((300, 3)):
        p = tuple(r.tolist())
        want = np.array(_ref_contraction(g, p))
        if abs(want[3]) <= tol[3]:
            continue  # at the sign change of p1hat either side may be taken
        if want[3] < 0.0:
            with pytest.raises(NegativePressure):
                g.sample(p, 0.0)
            continue
        s = g.sample(p, 0.0)
        err = np.abs(np.array(s.kin[:13] + s.dV) - want)
        assert np.all(err <= tol), (p, (err / tol).max())
        assert s.kin[13:] == (0.0, 0.0, 0.0)
        checked += 1
    assert checked > 250
