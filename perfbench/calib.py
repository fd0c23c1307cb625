"""Reference kernel that measures the host's speed next to each job.

The host is a shared VM whose speed drifts by tens of percent over seconds
to minutes, and the drift is the same for any CPU-bound Python code that
runs at the time.  Each job therefore times this fixed kernel right before
and right after its ttpsim call, and the harness reports the job's times
scaled by ``NOMINAL_S / reference time``: seconds at the reference speed.
A change to ttpsim moves the job's time and not the reference's, so it
shows in full.

The kernel does not call ttpsim.  It is written in ttpsim's idiom: a scalar
RK4 step of a point in steady Taylor-Green flow, a Rodrigues rotation of a
unit vector, small numpy arrays built and reduced per step, and a record
table filled row by row.
"""

import math
import time

import numpy as np

STEPS = 900
# Median time of one kernel() on a quiet 2-vCPU Xeon VM (Python 3.11,
# numpy 2.4); only the unit of the scaled times depends on it.
NOMINAL_S = 0.035


def _velocity(x, y, z):
    return (math.sin(x) * math.cos(y) * math.cos(z),
            -math.cos(x) * math.sin(y) * math.cos(z), 0.0)


def _rotate(nx, ny, nz, tx, ty, tz):
    th = math.sqrt(tx * tx + ty * ty + tz * tz)
    if th == 0.0:
        return nx, ny, nz
    kx, ky, kz = tx / th, ty / th, tz / th
    c, s = math.cos(th), math.sin(th)
    kn = kx * nx + ky * ny + kz * nz
    return (nx * c + (ky * nz - kz * ny) * s + kx * kn * (1.0 - c),
            ny * c + (kz * nx - kx * nz) * s + ky * kn * (1.0 - c),
            nz * c + (kx * ny - ky * nx) * s + kz * kn * (1.0 - c))


def kernel(steps=STEPS):
    """Integrate a fixed path; return a checksum so the work is not skipped."""
    dt, half = 1e-3, 5e-4
    x, y, z = 0.3, 0.7, 1.1
    nx, ny, nz = 1.0, 0.0, 0.0
    rows = np.empty((steps, 6))
    for i in range(steps):
        a1 = _velocity(x, y, z)
        a2 = _velocity(x + half * a1[0], y + half * a1[1], z + half * a1[2])
        a3 = _velocity(x + half * a2[0], y + half * a2[1], z + half * a2[2])
        a4 = _velocity(x + dt * a3[0], y + dt * a3[1], z + dt * a3[2])
        r = np.array((x + dt / 6.0 * (a1[0] + 2.0 * (a2[0] + a3[0]) + a4[0]),
                      y + dt / 6.0 * (a1[1] + 2.0 * (a2[1] + a3[1]) + a4[1]),
                      z + dt / 6.0 * (a1[2] + 2.0 * (a2[2] + a3[2]) + a4[2])))
        w = np.cross(r, (a1[0], a1[1], 1.0))
        nx, ny, nz = _rotate(nx, ny, nz, dt * w[0], dt * w[1], dt * w[2])
        x, y, z = float(r[0]), float(r[1]), float(r[2])
        rows[i] = (x, y, z, nx, ny, float(np.linalg.norm(w)))
    return float(rows.sum())


def reference_s():
    """Wall time of one kernel() call."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
