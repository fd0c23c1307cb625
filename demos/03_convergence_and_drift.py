"""Order studies: global position error and tangency drift versus step size.

The direction update is a rotation by the step's effective rotation vector,
so the unit norm is exact to rounding at any step size; the tangency
residual n . b is left unconstrained on purpose and its fourth-order decay
is the cleanest overall check of the coupled scheme.  The plain vector RK4
("rk4_naive") is run alongside for comparison: renormalization hides its
norm drift but cannot create tangency.
"""

import math

import numpy as np

from ttpsim import (IntegratorConfig, RigidRotationField, TaylorGreenField,
                    TtpState, convergence_study, integrate_trajectory,
                    isobaric_normal, tangency_drift_study, tangent_frame)

prov = RigidRotationField(omega=1.0, p0=0.5, c=1.0)
state0 = TtpState(t=0.0, r=np.array((1.0, 0.0, 0.0)),
                  n=np.array((0.0, 1.0, 0.0)), beta=1.0)
period = 2.0 * math.pi / (1.0 + math.sqrt(2.0))
dts = [4e-3, 2e-3, 1e-3]

print("=== global position error vs the closed-form orbit ===")
# one orbit, rounded so that every dt divides the horizon
orbit = IntegratorConfig(t_end=dts[0] * round(period / dts[0]))
study = convergence_study(prov, state0, orbit, dts)
print(study.to_text())

print("\n=== tangency drift, rotation-based update ===")
drift = tangency_drift_study(prov, state0, IntegratorConfig(t_end=2.0), dts)
print(drift.to_text())

print("\n=== norm drift: naive vector RK4 vs rotation update ===")
for method, renorm in (("rk4_naive", 0), ("rk4_naive", 1), ("rk4_rodrigues", 0)):
    cfg = IntegratorConfig(dt=2e-2, t_end=20.0, method=method,
                           renormalize_every=renorm)
    traj = integrate_trajectory(state0, prov, cfg)
    label = method + (" + renormalize" if renorm else "")
    print(f"  {label:<28} max | |n|-1 | = {traj.summary.max_norm_err:.3e}")

print("\n=== drift in a generic flow (Taylor-Green), both methods ===")
tg = TaylorGreenField(A=1.0, k=1.0, nu=0.0, p0=1.0)
r0 = np.array((2.1, 3.3, 1.7))
e1, _ = tangent_frame(isobaric_normal(tg.sample(r0, 0.0)))
tg_state = TtpState(t=0.0, r=r0, n=e1, beta=0.5)
for method in ("rk4_rodrigues", "rk4_naive"):
    cfg = IntegratorConfig(t_end=1.0, method=method,
                           renormalize_every=1 if method == "rk4_naive" else 0)
    study = tangency_drift_study(tg, tg_state, cfg, dts)
    print(f"  {method:<16} drift order {study.order:.2f}  "
          f"(drift at dt=1e-3: {study.values[-1]:.2e})")
