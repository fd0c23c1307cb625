"""Gridded field provider: rectilinear uniform grids of V and p1hat.

Interpolation is tensor-product cubic Hermite with nodal derivatives
estimated by second-order finite differences (tricubic, C1 across cell
faces), or optionally trilinear.  The nodal data of the four scalars are
stacked in one array at construction, and one contraction kernel,
``_fields``, serves both ``sample`` and ``sample_kinetic``.  All derivatives
returned are exact derivatives of the interpolant.  Grids are steady, so
``dt_grad_p1hat`` is identically zero.

File format (text, version 1)::

    TTPGRID 1
    dims nx ny nz
    origin ox oy oz
    spacing dx dy dz
    fields V p1hat
    <nx*ny*nz records, x-fastest, each "Vx Vy Vz p1hat">
"""

import math

import numpy as np

from ..errors import NegativePressure, NonUniformSpacing, ParseError, ValidationError
from . import FieldProvider


def _fd_axis(F, axis, h):
    """Second-order nodal derivative estimates along one axis."""
    D = np.empty_like(F)
    src = np.moveaxis(F, axis, 0)
    dst = np.moveaxis(D, axis, 0)
    dst[1:-1] = (src[2:] - src[:-2]) / (2.0 * h)
    dst[0] = (-3.0 * src[0] + 4.0 * src[1] - src[2]) / (2.0 * h)
    dst[-1] = (3.0 * src[-1] - 4.0 * src[-2] + src[-3]) / (2.0 * h)
    return D


def _cubic_basis(s, h):
    """Cubic Hermite basis (value0, slope0, value1, slope1) on a cell of width h.

    Flat rows: the basis values, then their first and then their second
    derivatives in the physical coordinate; slopes are taken as pre-scaled
    by h.
    """
    s2 = s * s
    s3 = s2 * s
    hh = h * h
    return (2.0 * s3 - 3.0 * s2 + 1.0, s3 - 2.0 * s2 + s, -2.0 * s3 + 3.0 * s2, s3 - s2,
            (6.0 * s2 - 6.0 * s) / h, (3.0 * s2 - 4.0 * s + 1.0) / h,
            (-6.0 * s2 + 6.0 * s) / h, (3.0 * s2 - 2.0 * s) / h,
            (12.0 * s - 6.0) / hh, (6.0 * s - 4.0) / hh,
            (-12.0 * s + 6.0) / hh, (6.0 * s - 2.0) / hh)


def _linear_basis(s, h):
    """Linear basis (value0, value1), with the same three rows as _cubic_basis."""
    return 1.0 - s, s, -1.0 / h, 1.0 / h, 0.0, 0.0


def _hermite_nodes(V, p1hat, spacing):
    """Stacked nodal data ``D[scalar, ax, ay, az, i, j, k]`` for tricubic cells.

    Scalars are (Vx, Vy, Vz, p1hat).  Slot (ax, ay, az) holds the mixed
    derivative d^(ax+ay+az) F / dx^ax dy^ay dz^az, estimated by second-order
    differences and scaled by dx^ax dy^ay dz^az, so the basis works on the
    unit cube.  Each slot is one contiguous block.
    """
    dx, dy, dz = spacing
    D = np.empty((4, 2, 2, 2) + p1hat.shape)
    for c, F in enumerate((V[..., 0], V[..., 1], V[..., 2], p1hat)):
        Fx = _fd_axis(F, 0, dx)
        Fy = _fd_axis(F, 1, dy)
        Fxy = _fd_axis(Fx, 1, dy)
        D[c, 0, 0, 0] = F
        np.multiply(Fx, dx, out=D[c, 1, 0, 0])
        np.multiply(Fy, dy, out=D[c, 0, 1, 0])
        np.multiply(_fd_axis(F, 2, dz), dz, out=D[c, 0, 0, 1])
        np.multiply(Fxy, dx * dy, out=D[c, 1, 1, 0])
        np.multiply(_fd_axis(Fx, 2, dz), dx * dz, out=D[c, 1, 0, 1])
        np.multiply(_fd_axis(Fy, 2, dz), dy * dz, out=D[c, 0, 1, 1])
        np.multiply(_fd_axis(Fxy, 2, dz), dx * dy * dz, out=D[c, 1, 1, 1])
    return D


def interpolation_min_nodes(interpolation):
    """Nodes per axis an interpolation needs; rejects an unknown name."""
    if interpolation not in ("tricubic", "trilinear"):
        raise ValidationError(f"unknown interpolation {interpolation!r}")
    return 4 if interpolation == "tricubic" else 2


class GridField(FieldProvider):
    """Field provider backed by a uniform rectilinear grid.

    Parameters
    ----------
    origin, spacing : (3,) array_like
        Grid origin and per-axis node spacing (positive).
    V : (nx, ny, nz, 3) ndarray
        Velocity at the nodes.
    p1hat : (nx, ny, nz) ndarray
        Kinetic pressure at the nodes.
    interpolation : {"tricubic", "trilinear"}
        Tricubic needs at least 4 nodes per axis, trilinear at least 2.
        With trilinear the p1hat Hessian is piecewise constant in each cell
        and discontinuous across faces; derivative audits flag this.
    """

    def __init__(self, origin, spacing, V, p1hat, interpolation="tricubic", name="grid"):
        V = np.asarray(V, dtype=float)
        p1hat = np.asarray(p1hat, dtype=float)
        if V.ndim != 4 or V.shape[3] != 3:
            raise ValidationError("V must have shape (nx, ny, nz, 3)")
        if p1hat.shape != V.shape[:3]:
            raise ValidationError("p1hat shape must match V grid shape")
        self.origin = np.asarray(origin, dtype=float)
        self.spacing = np.asarray(spacing, dtype=float)
        if np.any(self.spacing <= 0.0):
            raise ValidationError("spacing must be positive")
        self.dims = np.array(p1hat.shape)
        min_nodes = interpolation_min_nodes(interpolation)
        if np.any(self.dims < min_nodes):
            raise ValidationError(
                f"{interpolation} interpolation needs at least {min_nodes} nodes per axis")
        self.interpolation = interpolation
        self.name = name
        hi = self.origin + (self.dims - 1) * self.spacing
        self.domain_bounds = (self.origin.copy(), hi)
        self.reference_box = self.domain_bounds
        if interpolation == "tricubic":
            self._nodes = _hermite_nodes(V, p1hat, self.spacing)
            self._basis = _cubic_basis
        else:
            nodes = np.concatenate((np.moveaxis(V, 3, 0), p1hat[None]))
            self._nodes = nodes[:, None, None, None]  # values only, no slope slots
            self._basis = _linear_basis
        self._width = 2 * self._nodes.shape[1]  # basis functions per axis
        self._origin = tuple(self.origin.tolist())
        self._step = tuple(self.spacing.tolist())
        self._top = tuple(float(n - 1) for n in p1hat.shape)

    @classmethod
    def from_axes(cls, x, y, z, V, p1hat, interpolation="tricubic", rtol=1e-9):
        """Build from explicit axis arrays; they must be uniformly spaced."""
        if np.asarray(V).shape[:3] != (len(x), len(y), len(z)):
            raise ValidationError("V grid shape must match axis lengths")
        axes = []
        for arr in (x, y, z):
            arr = np.asarray(arr, dtype=float)
            d = np.diff(arr)
            if len(d) == 0:
                raise ValidationError("axes need at least 2 nodes")
            if np.any(np.abs(d - d[0]) > rtol * abs(d[0])):
                raise NonUniformSpacing("axis spacing varies beyond tolerance")
            axes.append((arr[0], d[0]))
        origin = [a[0] for a in axes]
        spacing = [a[1] for a in axes]
        return cls(origin, spacing, V, p1hat, interpolation=interpolation)

    def _locate(self, r):
        """Cell index and offset in [0, 1] along each axis for the point r."""
        ox, oy, oz = self._origin
        hx, hy, hz = self._step
        tx, ty, tz = self._top
        qx, qy, qz = (r[0] - ox) / hx, (r[1] - oy) / hy, (r[2] - oz) / hz
        if not (0.0 <= qx <= tx and 0.0 <= qy <= ty and 0.0 <= qz <= tz):
            self._require_inside(np.asarray(r, dtype=float))  # NaN is outside too
            # hairline rounding at the faces
            qx, qy, qz = min(max(qx, 0.0), tx), min(max(qy, 0.0), ty), min(max(qz, 0.0), tz)
        i = min(int(qx), int(tx) - 1)
        j = min(int(qy), int(ty) - 1)
        k = min(int(qz), int(tz) - 1)
        return (i, j, k), (qx - i, qy - j, qz - k)

    def _fields(self, r, t, full):
        """The one interpolation kernel; grids are steady, so ``t`` is unused.

        Contracts the cell's slice of the stacked nodal data against the
        (value, d/dx, d^2/dx^2) basis rows of each axis, giving
        ``T[scalar][x order][y order][z order]``.  Returns the flat kinetic
        tuple, or with ``full`` true ``(that tuple, gradV, xi)``.
        """
        (i, j, k), (fx, fy, fz) = self._locate(r)
        w = self._width
        # rows (s, p, q), columns r; along each axis the index is 2 * corner +
        # slope flag (tricubic) or the corner (trilinear)
        C = self._nodes[..., i:i + 2, j:j + 2, k:k + 2].transpose(
            0, 4, 1, 5, 2, 6, 3).reshape(4 * w * w, w)
        dx, dy, dz = self._step
        B = np.array((*self._basis(fx, dx), *self._basis(fy, dy),
                      *self._basis(fz, dz))).reshape(3, 3, w)  # [axis, order, p]
        C = B[1] @ (C @ B[2].T).reshape(4, w, w, 3)  # [s, p, y order, z order]
        X, Y, Z, P = (B[0] @ C.reshape(4, w, 9)).reshape(4, 3, 3, 3).tolist()
        p1 = P[0][0][0]
        if p1 < 0.0:
            raise NegativePressure(
                f"interpolated p1hat = {p1:g} < 0 at {tuple(float(c) for c in r)}")
        kin = (X[0][0][0], Y[0][0][0], Z[0][0][0], p1,
               P[1][0][0], P[0][1][0], P[0][0][1],
               P[2][0][0], P[1][1][0], P[1][0][1], P[0][2][0], P[0][1][1], P[0][0][2],
               0.0, 0.0, 0.0)
        if not full:
            return kin
        gradV = np.array([[F[1][0][0] for F in (X, Y, Z)],
                          [F[0][1][0] for F in (X, Y, Z)],
                          [F[0][0][1] for F in (X, Y, Z)]])
        xi = np.array((gradV[1, 2] - gradV[2, 1],
                       gradV[2, 0] - gradV[0, 2],
                       gradV[0, 1] - gradV[1, 0]))
        return kin, gradV, xi


def load_grid(path, interpolation="tricubic"):
    """Parse a TTPGRID file into a :class:`GridField`."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [fh.readline() for _ in range(5)]
            tokens = fh.read().split()  # the payload, split once
    except UnicodeDecodeError:
        raise ParseError.undecodable(path, "ascii") from None
    if not lines[4]:
        raise ParseError("grid file truncated: header incomplete")
    if lines[0].strip() != "TTPGRID 1":
        raise ParseError(f"bad magic line {lines[0].rstrip()!r}, expected 'TTPGRID 1'")

    def header(line_no, keyword, count, conv):
        parts = lines[line_no].split()
        if len(parts) != count + 1 or parts[0] != keyword:
            raise ParseError(f"line {line_no + 1}: expected '{keyword}' with {count} values")
        try:
            return [conv(p) for p in parts[1:]]
        except ValueError:
            raise ParseError(f"line {line_no + 1}: could not parse {keyword} values") from None

    dims = header(1, "dims", 3, int)
    origin = header(2, "origin", 3, float)
    spacing = header(3, "spacing", 3, float)
    if any(n <= 0 for n in dims):
        raise ParseError("dims must be positive")
    if not all(math.isfinite(v) for v in origin + spacing):
        raise ParseError("origin and spacing must be finite")
    if any(d <= 0.0 for d in spacing):
        raise ParseError("spacing must be positive")
    if lines[4].split() != ["fields", "V", "p1hat"]:
        raise ParseError(f"line 5: expected 'fields V p1hat', got {lines[4].rstrip()!r}")

    n = dims[0] * dims[1] * dims[2]
    if len(tokens) != 4 * n:
        raise ParseError(f"value count mismatch: expected {4 * n} reals, found {len(tokens)}")
    try:
        values = np.array(tokens, dtype=float)
    except ValueError:
        raise ParseError("payload contains a non-numeric token") from None
    del tokens  # free the strings before the nodal arrays are built
    if not np.all(np.isfinite(values)):
        raise ParseError("payload contains a non-finite value")
    records = values.reshape(n, 4)
    # file order is x-fastest: reshape to (nz, ny, nx) then transpose
    V = records[:, 0:3].reshape(dims[2], dims[1], dims[0], 3).transpose(2, 1, 0, 3)
    p1 = records[:, 3].reshape(dims[2], dims[1], dims[0]).transpose(2, 1, 0)
    return GridField(origin, spacing, V.copy(), p1.copy(), interpolation=interpolation)


def write_grid(path, provider, origin, spacing, dims, t=0.0):
    """Sample a provider onto a uniform grid and write a TTPGRID file."""
    origin = np.asarray(origin, dtype=float)
    spacing = np.asarray(spacing, dtype=float)
    nx, ny, nz = (int(d) for d in dims)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("TTPGRID 1\n")
        fh.write(f"dims {nx} {ny} {nz}\n")
        fh.write("origin " + " ".join(format(v, ".17g") for v in origin) + "\n")
        fh.write("spacing " + " ".join(format(v, ".17g") for v in spacing) + "\n")
        fh.write("fields V p1hat\n")
        for k in range(nz):
            for j in range(ny):
                for i in range(nx):
                    r = origin + spacing * np.array((i, j, k), dtype=float)
                    fh.write(" ".join(format(v, ".17g")  # Vx Vy Vz p1hat
                                      for v in provider.sample_kinetic(r.tolist(), t)[:4])
                             + "\n")
