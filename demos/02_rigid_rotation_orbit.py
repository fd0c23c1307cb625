"""A particle in solid-body rotation follows a closed-form helix.

With the seed direction tangent to the isobaric cylinder, the orbit stays
at fixed radius and rotates at the constant rate omega + alpha beta v_th/R,
where alpha is the azimuthal direction component.  The integrator is
checked against that closed form, and the run's invariants (unit norm of
the direction vector, tangency to the isobaric surface, constant relative
speed) are printed.
"""

import math

import numpy as np

from ttpsim import (IntegratorConfig, RigidRotationField, TtpState,
                    integrate_trajectory, trajectory_oracle)

prov = RigidRotationField(omega=1.0, p0=0.5, c=1.0)
R, beta = 1.0, 1.0
alpha, gamma = 0.8, 0.6  # azimuthal and axial direction components
state0 = TtpState(t=0.0, r=np.array((R, 0.0, 0.0)),
                  n=np.array((0.0, alpha, gamma)), beta=beta)

v_th = math.sqrt(2.0 * prov.p0 + prov.c * R * R)
theta_dot = prov.omega + alpha * beta * v_th / R
print(f"thermal speed v_th(R)     = {v_th:.6f}")
print(f"angular rate (predicted)  = {theta_dot:.6f}")
print(f"axial climb rate          = {gamma * beta * v_th:.6f}")

dt = 1e-3
cfg = IntegratorConfig(dt=dt, t_end=dt * round(2.0 * math.pi / theta_dot / dt))  # one turn
traj = integrate_trajectory(state0, prov, cfg)
oracle = trajectory_oracle(prov, state0)
r_exact, n_exact = oracle(traj.t[-1])

print(f"\nafter one revolution ({traj.summary.steps} steps, dt={cfg.dt}):")
print(f"  position error vs closed form  {np.linalg.norm(traj.r[-1] - r_exact):.3e}")
print(f"  direction error vs closed form {np.linalg.norm(traj.n[-1] - n_exact):.3e}")
print(f"  max | |n| - 1 |                {traj.summary.max_norm_err:.3e}")
print(f"  max |n . b| (tangency drift)   {traj.summary.max_abs_n_dot_b:.3e}")

speed_err = np.max(np.abs(np.linalg.norm(traj.u, axis=1) - beta * traj.v_th))
print(f"  max | |u| - beta v_th |        {speed_err:.3e}  (constraint, by construction)")

radius = np.hypot(traj.r[:, 0], traj.r[:, 1])
print(f"  radius drift over the turn     {np.max(np.abs(radius - R)):.3e}")
