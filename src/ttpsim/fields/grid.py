"""Gridded field provider: rectilinear uniform grids of V and p1hat.

Interpolation is tensor-product cubic Hermite with nodal derivatives
estimated by second-order finite differences (tricubic, C1 across cell
faces), or optionally trilinear.  One kernel, ``_fields``, serves both
``sample`` and ``sample_kinetic``.  The first sample in a cell converts the
cell's Hermite block into Bezier control points: one row of w^3 (w = 4
tricubic, 2 trilinear) for each of the kernel's 22 outputs.  A sample is
those rows times the tensor product of the per-axis Bernstein weights,
summed row by row: elementwise numpy, no BLAS call.  A provider keeps the
rows of the ``_CELLS_CACHED`` most recently used cells in a thread-safe
``functools.lru_cache``; no result depends on it.  All derivatives returned
are exact derivatives of the interpolant.  Grids are steady, so
``dt_grad_p1hat`` is identically zero.  ``GridField`` checks every value of
a grid, so that no cell build or sample can overflow; ``load_grid`` checks
only the file's form.

File format (text, version 1)::

    TTPGRID 1
    dims nx ny nz
    origin ox oy oz
    spacing dx dy dz
    fields V p1hat
    <nx*ny*nz records, x-fastest, each "Vx Vy Vz p1hat">
"""

import functools
import math

import numpy as np

from ..errors import NegativePressure, ParseError, ValidationError
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


# Per axis, Hermite slots (v0, s0, v1, s1), slopes pre-scaled by h, to the cubic Bezier control
# points of the value and (degree-elevated) of d/dx times h and d2/dx2 times h^2; then trilinear
_CUBIC = (((1, 0, 0, 0), (1, 1 / 3, 0, 0), (0, 0, 1, -1 / 3), (0, 0, 1, 0)),
          ((0, 1, 0, 0), (-2, -1 / 3, 2, -2 / 3), (-2, -2 / 3, 2, -1 / 3), (0, 0, 0, 1)),
          ((-6, -4, 6, -2), (-2, -2, 2, 0), (2, 0, -2, 2), (6, 2, -6, 4)))
_LINEAR = (((1, 0), (0, 1)), ((-1, 1), (-1, 1)), ((0, 0), (0, 0)))
# the kernel's outputs as (scalar, x order, y order, z order), scalars (Vx, Vy, Vz,
# p1hat): kin[0:13] (V, p1hat, grad p1hat, Hessian xx xy xz yy yz zz), then dV
_OUTPUTS = ((0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0), (3, 0, 0, 0),
            (3, 1, 0, 0), (3, 0, 1, 0), (3, 0, 0, 1),
            (3, 2, 0, 0), (3, 1, 1, 0), (3, 1, 0, 1), (3, 0, 2, 0), (3, 0, 1, 1), (3, 0, 0, 2),
            *((s, *d) for d in ((1, 0, 0), (0, 1, 0), (0, 0, 1)) for s in range(3)))
_CELLS_CACHED = 512  # cells whose rows a provider keeps: 5.8 MB of tricubic rows


def _bezier_terms(table):
    """A cell's Hermite data to its Bezier rows, as terms for ``np.add.reduceat``.

    Entry m of the flat rows [output, control point] sums ``coef * C[slot]`` over its
    terms, from ``starts[m]``, of output ``out``; ``C`` is the cell's [scalar, x, y, z slot] data.
    """
    T = np.array(table, dtype=float)
    s, x, y, z = np.array(_OUTPUTS).T  # K: the Kronecker product of the three axis tables
    K = (T[x][:, :, None, None, :, None, None] * T[y][:, None, :, None, None, :, None]
         * T[z][:, None, None, :, None, None, :]).reshape(-1, T.shape[1] ** 3)
    keep = K != 0.0
    keep[:, 0] |= ~keep.any(axis=1)  # an all-zero row keeps one zero term
    w3 = K.shape[1]
    row, col = np.nonzero(keep)
    starts = np.flatnonzero(np.diff(row, prepend=-1))
    return s[row // w3] * w3 + col, K[row, col], row // w3, starts


_TERMS = {4: _bezier_terms(_CUBIC), 2: _bezier_terms(_LINEAR)}


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

    name = "grid"

    def __init__(self, origin, spacing, V, p1hat, interpolation="tricubic"):
        V = np.asarray(V, dtype=float)
        p1hat = np.asarray(p1hat, dtype=float)
        if V.ndim != 4 or V.shape[3] != 3:
            raise ValidationError("V must have shape (nx, ny, nz, 3)")
        if p1hat.shape != V.shape[:3]:
            raise ValidationError("p1hat shape must match V grid shape")
        self.origin = np.asarray(origin, dtype=float)
        self.spacing = h = np.asarray(spacing, dtype=float)
        self.dims = np.array(p1hat.shape)
        with np.errstate(all="ignore"):  # what overflows here is rejected below
            hi = self.origin + (self.dims - 1) * h
            if not np.all(np.isfinite((self.origin, h, hi))):
                raise ValidationError("origin and spacing must be finite, and so must "
                                      "the far corner origin + (dims - 1) spacing")
            if np.any(h <= 0.0):
                raise ValidationError("spacing must be positive")
            if not (np.isfinite(V).all() and np.isfinite(p1hat).all()):
                raise ValidationError("V or p1hat contains a non-finite value")
            min_nodes = interpolation_min_nodes(interpolation)
            if np.any(self.dims < min_nodes):
                raise ValidationError(
                    f"{interpolation} interpolation needs at least {min_nodes} nodes per axis")
            if interpolation == "tricubic":
                self._nodes = _hermite_nodes(V, p1hat, h)
            else:
                nodes = np.concatenate((np.moveaxis(V, 3, 0), p1hat[None]))
                self._nodes = nodes[:, None, None, None]  # values only, no slope slots
            n = self._nodes.shape[1]
            w = self._width = 2 * n  # Bezier control points per axis
            index, coef, out, starts = _TERMS[w]
            inv = np.stack((np.ones(3), 1.0 / h, 1.0 / (h * h)))  # [derivative order, axis]
            ox, oy, oz = np.array(_OUTPUTS)[:, 1:].T
            scaled = coef * (inv[ox, 0] * inv[oy, 1] * inv[oz, 2])[out]
            coef = np.where(coef == 0.0, coef, scaled)  # a zero stays zero, not 0 * inf
            # |row entry| <= max |nodal datum| * coef_sum; a sample is a convex sum of them
            coef_sum = float(np.add.reduceat(np.abs(coef), starts).max())
        largest = max(-float(self._nodes.min()), float(self._nodes.max()))  # NaN stays NaN
        if not math.isfinite(largest):
            raise ValidationError("nodal derivative estimates, scaled by the spacing, overflow")
        if not math.isfinite(coef_sum):
            raise ValidationError("spacing too small: the kernel's 1/h^2 coefficients overflow")
        if largest * coef_sum > np.finfo(float).max / 2:
            raise ValidationError(f"nodal data too large to interpolate (max |value| {largest:g}, "
                                  f"largest coefficient sum {coef_sum:g})")
        self.interpolation = interpolation
        self.domain_bounds = self.reference_box = (self.origin.copy(), hi)
        self._origin = tuple(self.origin.tolist())
        self._step = tuple(h.tolist())
        self._top = tuple(float(d - 1) for d in p1hat.shape)
        # a cell's Hermite block (slot 2 * corner + slope flag per axis) as one gather
        s, a, b, c = np.indices((4, w, w, w))
        gather = np.ravel_multi_index((s, a % n, b % n, c % n, a // n, b // n, c // n),
                                      self._nodes.shape).ravel()[index]
        flat = self._nodes.reshape(-1)
        si, sj = int(self.dims[1] * self.dims[2]), int(self.dims[2])

        @functools.lru_cache(maxsize=_CELLS_CACHED)  # no result depends on it
        def cell_rows(i, j, k):
            """The cell's Bezier control points: one row of w^3 for each of the 22 outputs."""
            C = flat[i * si + j * sj + k:].take(gather)
            return np.add.reduceat(C * coef, starts).reshape(len(_OUTPUTS), -1)

        self._cell_rows = cell_rows

    def _locate(self, r):
        """Cell index and offset in [0, 1] along each axis for the point r."""
        ox, oy, oz = self._origin
        hx, hy, hz = self._step
        tx, ty, tz = self._top
        qx, qy, qz = (r[0] - ox) / hx, (r[1] - oy) / hy, (r[2] - oz) / hz
        if not (0.0 <= qx <= tx and 0.0 <= qy <= ty and 0.0 <= qz <= tz):
            self._require_inside(r)  # NaN is outside too
            # hairline rounding at the faces
            qx, qy, qz = min(max(qx, 0.0), tx), min(max(qy, 0.0), ty), min(max(qz, 0.0), tz)
        i = min(int(qx), int(tx) - 1)
        j = min(int(qy), int(ty) - 1)
        k = min(int(qz), int(tz) - 1)
        return (i, j, k), (qx - i, qy - j, qz - k)

    def _fields(self, r, t, full):
        """The one kernel: the kinetic tuple, or with ``full`` true ``(that tuple, dV)``,
        dV being gradV row by row; grids are steady, so ``t`` is unused."""
        cell, (fx, fy, fz) = self._locate(r)
        rows = self._cell_rows(*cell)
        gx, gy, gz = 1.0 - fx, 1.0 - fy, 1.0 - fz
        if self._width == 4:  # Bernstein weights, exactly 0 and 1 at the faces
            x = (gx * gx * gx, 3.0 * fx * gx * gx, 3.0 * fx * fx * gx, fx * fx * fx)
            y = (gy * gy * gy, 3.0 * fy * gy * gy, 3.0 * fy * fy * gy, fy * fy * fy)
            z = (gz * gz * gz, 3.0 * fz * gz * gz, 3.0 * fz * fz * gz, fz * fz * fz)
        else:
            x, y, z = (gx, fx), (gy, fy), (gz, fz)
        weights = np.multiply.outer([a * b for a in x for b in y], z).ravel()
        v = ((rows if full else rows[:13]) * weights).sum(axis=1).tolist()
        if v[3] < 0.0:
            raise NegativePressure(
                f"interpolated p1hat = {v[3]:g} < 0 at {tuple(float(c) for c in r)}")
        kin = (*v[:13], 0.0, 0.0, 0.0)
        return (kin, tuple(v[13:])) if full else kin


def load_grid(path, interpolation="tricubic"):
    """Parse a TTPGRID file into a :class:`GridField`.

    The file is read as bytes and must be ASCII; its five header lines end
    in LF or CRLF (a lone CR ends no line).  The payload is parsed in one
    numpy text pass (``np.fromstring``, correctly rounded like ``float``):
    reals separated by ASCII whitespace, with no ``_`` digit separators and
    no hex.  A grid that cannot be allocated raises ``ValidationError``
    naming its dims.
    """
    with open(path, "rb") as fh:
        lines = [fh.readline() for _ in range(5)]
        payload = fh.read()
    if not (b"".join(lines).isascii() and payload.isascii()):
        raise ParseError.undecodable(path, "ascii")
    lines = [line.decode("ascii") for line in lines]
    if lines[0].strip() != "TTPGRID 1":  # a file whose lines end in a lone CR is one line
        raise ParseError(f"bad magic line {lines[0].rstrip()[:40]!r}, expected 'TTPGRID 1'")
    if not lines[4]:
        raise ParseError("grid file truncated: header incomplete")

    def header(line_no, keyword, count, conv):
        parts = lines[line_no].split()
        if len(parts) != count + 1 or parts[0] != keyword:
            raise ParseError(f"line {line_no + 1}: expected '{keyword}' with {count} values")
        try:
            return [conv(p) for p in parts[1:]]
        except ValueError:
            raise ParseError(f"line {line_no + 1}: could not parse {keyword} values") from None

    nx, ny, nz = dims = header(1, "dims", 3, int)
    origin = header(2, "origin", 3, float)
    spacing = header(3, "spacing", 3, float)
    if any(n <= 0 for n in dims):
        raise ParseError("dims must be positive")
    if lines[4].split() != ["fields", "V", "p1hat"]:
        raise ParseError(f"line 5: expected 'fields V p1hat', got {lines[4].rstrip()!r}")

    try:
        try:  # numpy reads an all-whitespace text as [-1.0]
            values = np.fromstring(b"" if payload.isspace() else payload, sep=" ")
        except ValueError:
            raise ParseError("payload contains a non-numeric token") from None
        if values.size != 4 * nx * ny * nz:
            raise ParseError(f"value count mismatch: expected {4 * nx * ny * nz} reals, "
                             f"found {values.size}")
        # file order is x-fastest: reshape to (nz, ny, nx) then transpose
        records = values.reshape(nz, ny, nx, 4).transpose(2, 1, 0, 3)
        V, p1 = records[..., :3].copy(), records[..., 3].copy()
        del payload, values, records  # free the text and the flat array before the nodal data
        return GridField(origin, spacing, V, p1, interpolation=interpolation)
    except MemoryError:
        raise ValidationError(f"cannot allocate a {nx} x {ny} x {nz} grid") from None


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
        index = np.indices((nz, ny, nx)).reshape(3, -1)[::-1].T  # rows (i, j, k), x fastest
        nodes = origin + spacing * index.astype(float)
        table = [provider.sample_kinetic(r, t)[:4] for r in nodes.tolist()]  # Vx Vy Vz p1hat
        np.savetxt(fh, table, fmt="%.17g")
