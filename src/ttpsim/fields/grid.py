"""Gridded field provider: rectilinear uniform grids of V and p1hat.

Interpolation is tensor-product cubic Hermite with nodal derivatives
estimated by second-order finite differences (tricubic, C1 across cell
faces), or optionally trilinear.  All derivatives returned by ``sample``
are exact derivatives of the interpolant.  Grids are steady, so
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
from . import FieldProvider, FluidSample

_Z3 = np.zeros(3)


def _fd_axis(F, axis, h):
    """Second-order nodal derivative estimates along one axis."""
    D = np.empty_like(F)
    src = np.moveaxis(F, axis, 0)
    dst = np.moveaxis(D, axis, 0)
    dst[1:-1] = (src[2:] - src[:-2]) / (2.0 * h)
    dst[0] = (-3.0 * src[0] + 4.0 * src[1] - src[2]) / (2.0 * h)
    dst[-1] = (3.0 * src[-1] - 4.0 * src[-2] + src[-3]) / (2.0 * h)
    return D


def _hermite_basis(s):
    """Cubic Hermite basis (value0, slope0, value1, slope1) and derivatives."""
    s2 = s * s
    s3 = s2 * s
    b = np.array((2.0 * s3 - 3.0 * s2 + 1.0, s3 - 2.0 * s2 + s,
                  -2.0 * s3 + 3.0 * s2, s3 - s2))
    db = np.array((6.0 * s2 - 6.0 * s, 3.0 * s2 - 4.0 * s + 1.0,
                   -6.0 * s2 + 6.0 * s, 3.0 * s2 - 2.0 * s))
    d2b = np.array((12.0 * s - 6.0, 6.0 * s - 4.0, -12.0 * s + 6.0, 6.0 * s - 2.0))
    return b, db, d2b


class _HermiteData:
    """The eight nodal arrays (f and its mixed derivatives) for one scalar."""

    __slots__ = ("F", "Fx", "Fy", "Fz", "Fxy", "Fxz", "Fyz", "Fxyz")

    def __init__(self, F, spacing):
        dx, dy, dz = spacing
        self.F = F
        self.Fx = _fd_axis(F, 0, dx)
        self.Fy = _fd_axis(F, 1, dy)
        self.Fz = _fd_axis(F, 2, dz)
        self.Fxy = _fd_axis(self.Fx, 1, dy)
        self.Fxz = _fd_axis(self.Fx, 2, dz)
        self.Fyz = _fd_axis(self.Fy, 2, dz)
        self.Fxyz = _fd_axis(self.Fxy, 2, dz)

    def cell_tensor(self, i, j, k, spacing):
        """4x4x4 Hermite data tensor for the cell at node (i, j, k).

        Index p (and q, r) runs over (value@0, slope@0, value@1, slope@1)
        along one axis; slopes are pre-scaled by the cell width so the basis
        works on the unit cube.
        """
        dx, dy, dz = spacing
        C = np.empty((4, 4, 4))
        sl = (slice(i, i + 2), slice(j, j + 2), slice(k, k + 2))
        pieces = {
            (0, 0, 0): self.F, (1, 0, 0): self.Fx, (0, 1, 0): self.Fy,
            (0, 0, 1): self.Fz, (1, 1, 0): self.Fxy, (1, 0, 1): self.Fxz,
            (0, 1, 1): self.Fyz, (1, 1, 1): self.Fxyz,
        }
        for (ax, ay, az), arr in pieces.items():
            scale = (dx if ax else 1.0) * (dy if ay else 1.0) * (dz if az else 1.0)
            block = arr[sl] * scale
            # corner offset c maps to basis index 2*c + deriv flag
            for ci in range(2):
                for cj in range(2):
                    for ck in range(2):
                        C[2 * ci + ax, 2 * cj + ay, 2 * ck + az] = block[ci, cj, ck]
        return C


def _contract(C, bx, by, bz):
    return float(bx @ (C @ bz) @ by)


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

    time_dependent = False

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
        min_nodes = 4 if interpolation == "tricubic" else 2
        if interpolation not in ("tricubic", "trilinear"):
            raise ValidationError(f"unknown interpolation {interpolation!r}")
        if np.any(self.dims < min_nodes):
            raise ValidationError(
                f"{interpolation} interpolation needs at least {min_nodes} nodes per axis")
        self.interpolation = interpolation
        self.name = name
        hi = self.origin + (self.dims - 1) * self.spacing
        self.domain_bounds = (self.origin.copy(), hi)
        self.reference_box = self.domain_bounds
        self._V = V
        self._p1 = p1hat
        if interpolation == "tricubic":
            self._data = [_HermiteData(V[..., c], self.spacing) for c in range(3)]
            self._data.append(_HermiteData(p1hat, self.spacing))

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

    def params(self):
        return {"nx": int(self.dims[0]), "ny": int(self.dims[1]), "nz": int(self.dims[2])}

    def _locate(self, r):
        rel = (np.asarray(r, dtype=float) - self.origin) / self.spacing
        n = self.dims
        if np.any(rel < 0.0) or np.any(rel > n - 1):
            self._require_inside(r)
            rel = np.clip(rel, 0.0, n - 1.0)  # hairline rounding at the faces
        idx = np.minimum(rel.astype(int), n - 2)
        frac = rel - idx
        return idx, frac

    def sample(self, r, t):
        idx, frac = self._locate(r)
        if self.interpolation == "tricubic":
            s = self._sample_tricubic(idx, frac)
        else:
            s = self._sample_trilinear(idx, frac)
        if s.p1hat < 0.0:
            raise NegativePressure(
                f"interpolated p1hat = {s.p1hat:g} < 0 at {tuple(float(c) for c in r)}")
        return s

    def _sample_tricubic(self, idx, frac):
        i, j, k = (int(v) for v in idx)
        dx, dy, dz = self.spacing
        bx, dbx, d2bx = _hermite_basis(frac[0])
        by, dby, d2by = _hermite_basis(frac[1])
        bz, dbz, d2bz = _hermite_basis(frac[2])
        dbx = dbx / dx
        dby = dby / dy
        dbz = dbz / dz
        d2bx = d2bx / (dx * dx)
        d2by = d2by / (dy * dy)
        d2bz = d2bz / (dz * dz)

        V = np.empty(3)
        gradV = np.empty((3, 3))
        for c in range(3):
            C = self._data[c].cell_tensor(i, j, k, self.spacing)
            V[c] = _contract(C, bx, by, bz)
            gradV[0, c] = _contract(C, dbx, by, bz)
            gradV[1, c] = _contract(C, bx, dby, bz)
            gradV[2, c] = _contract(C, bx, by, dbz)
        C = self._data[3].cell_tensor(i, j, k, self.spacing)
        p1 = _contract(C, bx, by, bz)
        gp = np.array((_contract(C, dbx, by, bz),
                       _contract(C, bx, dby, bz),
                       _contract(C, bx, by, dbz)))
        H = np.empty((3, 3))
        H[0, 0] = _contract(C, d2bx, by, bz)
        H[1, 1] = _contract(C, bx, d2by, bz)
        H[2, 2] = _contract(C, bx, by, d2bz)
        H[0, 1] = H[1, 0] = _contract(C, dbx, dby, bz)
        H[0, 2] = H[2, 0] = _contract(C, dbx, by, dbz)
        H[1, 2] = H[2, 1] = _contract(C, bx, dby, dbz)
        xi = np.array((gradV[1, 2] - gradV[2, 1],
                       gradV[2, 0] - gradV[0, 2],
                       gradV[0, 1] - gradV[1, 0]))
        return FluidSample(V, gradV, xi, p1, gp, H, _Z3.copy())

    def _sample_trilinear(self, idx, frac):
        i, j, k = (int(v) for v in idx)
        dx, dy, dz = self.spacing
        fx, fy, fz = frac
        bx = np.array((1.0 - fx, fx))
        by = np.array((1.0 - fy, fy))
        bz = np.array((1.0 - fz, fz))
        dbx = np.array((-1.0, 1.0)) / dx
        dby = np.array((-1.0, 1.0)) / dy
        dbz = np.array((-1.0, 1.0)) / dz

        def ev(A, ux, uy, uz):
            block = A[i:i + 2, j:j + 2, k:k + 2]
            return float(ux @ (block @ uz) @ uy)

        V = np.empty(3)
        gradV = np.empty((3, 3))
        for c in range(3):
            A = self._V[..., c]
            V[c] = ev(A, bx, by, bz)
            gradV[0, c] = ev(A, dbx, by, bz)
            gradV[1, c] = ev(A, bx, dby, bz)
            gradV[2, c] = ev(A, bx, by, dbz)
        A = self._p1
        p1 = ev(A, bx, by, bz)
        gp = np.array((ev(A, dbx, by, bz), ev(A, bx, dby, bz), ev(A, bx, by, dbz)))
        H = np.zeros((3, 3))
        H[0, 1] = H[1, 0] = ev(A, dbx, dby, bz)
        H[0, 2] = H[2, 0] = ev(A, dbx, by, dbz)
        H[1, 2] = H[2, 1] = ev(A, bx, dby, dbz)
        xi = np.array((gradV[1, 2] - gradV[2, 1],
                       gradV[2, 0] - gradV[0, 2],
                       gradV[0, 1] - gradV[1, 0]))
        return FluidSample(V, gradV, xi, p1, gp, H, _Z3.copy())


def load_grid(path, interpolation="tricubic"):
    """Parse a TTPGRID file into a :class:`GridField`."""
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    lines = text.splitlines()
    if len(lines) < 6:
        raise ParseError("grid file truncated: header incomplete")
    if lines[0].strip() != "TTPGRID 1":
        raise ParseError(f"bad magic line {lines[0]!r}, expected 'TTPGRID 1'")

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
        raise ParseError(f"line 5: expected 'fields V p1hat', got {lines[4]!r}")

    payload = "\n".join(lines[5:]).split()
    n = dims[0] * dims[1] * dims[2]
    if len(payload) != 4 * n:
        raise ParseError(f"value count mismatch: expected {4 * n} reals, found {len(payload)}")
    try:
        values = np.array(payload, dtype=float)
    except ValueError:
        raise ParseError("payload contains a non-numeric token") from None
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
                    s = provider.sample(r, t)
                    fh.write(" ".join(format(v, ".17g")
                                      for v in (s.V[0], s.V[1], s.V[2], s.p1hat)) + "\n")
