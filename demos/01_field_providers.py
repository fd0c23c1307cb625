"""Tour of the built-in field providers and the derivative audit.

Every provider returns, at a point and time, the full local fluid data:
velocity, velocity gradient, vorticity, kinetic pressure and its first and
second derivatives.  The audit re-estimates each derivative from displaced
value samples only, so a typo in any analytic derivative shows up
immediately.
"""

import os
import tempfile

import numpy as np

from ttpsim import (create_provider, fd_verify_derivatives, load_grid,
                    provider_parameters, write_grid)
from ttpsim.fields.analytic import PROVIDERS

print("=== registry (parameters are constructor keywords) ===")
for name, cls in PROVIDERS.items():
    print(f"  {name:<18} time_dependent={cls.time_dependent} "
          f"params={provider_parameters(name)}")

print("\n=== sampling the decaying Taylor-Green field ===")
tg = create_provider("taylor_green", A=1.0, k=1.0, nu=0.3, p0=1.0)
r = np.array((np.pi / 4, np.pi / 4, 0.0))
s = tg.sample(r, 0.0)
print(f"  at r={r}, t=0:")
print(f"  V            = {s.V}")
print(f"  vorticity    = {s.xi}")
print(f"  p1hat        = {s.p1hat}")
print(f"  grad p1hat   = {s.grad_p1hat}")
print(f"  dt grad      = {s.dt_grad_p1hat}")

print("\n=== derivative audit (central differences of values only) ===")
for name in ("rigid_rotation", "taylor_green", "lamb_oseen"):
    prov = create_provider(name)
    lo, hi = prov.reference_box
    rep = fd_verify_derivatives(prov, lo + 0.37 * (hi - lo), t=0.1, h=1e-4)
    print(f"  {name:<16} max relative residual {rep.max_residual:.3e}")

print("\n=== gridded provider round trip ===")
rigid = create_provider("rigid_rotation")
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "rigid.grid")
    write_grid(path, rigid, origin=(-2, -2, -2), spacing=(0.125, 0.125, 0.125),
               dims=(33, 33, 33))
    grid = load_grid(path)
probe = np.array((1.0, 0.0, 0.0))
sg = grid.sample(probe, 0.0)
sa = rigid.sample(probe, 0.0)
print(f"  wrote 33^3 nodes, reloaded with tricubic interpolation")
print(f"  vorticity at {probe}: grid {sg.xi}, analytic {sa.xi}")
print(f"  velocity  at {probe}: grid {sg.V}, analytic {sa.V}")
