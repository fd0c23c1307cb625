"""Ensemble moments reconstruct the fluid state at the seeding time.

Seeding N directions uniformly on the circle tangent to the isobaric
surface makes the mean relative velocity vanish, so the ensemble-mean
particle velocity equals the fluid velocity exactly, and the covariance of
the relative velocity is the isotropic-in-plane tensor
(beta^2 v_th^2 / 2)(1 - bb).  Both identities hold to rounding at t0; the
later-time series is emitted for study, with nothing asserted beyond t0.
"""

import numpy as np

from ttpsim import (EnsembleSpec, IntegratorConfig, TaylorGreenField,
                    ensemble_stats, evolve_ensemble, isobaric_normal,
                    seed_tangent_circle, thermal_velocity)

prov = TaylorGreenField(A=1.0, k=1.0, nu=0.0, p0=1.0)
r0 = np.array((2.1, 3.3, 1.7))
beta = 0.8

spec = EnsembleSpec(r0=r0, t0=0.0, count=64, sampling="equispaced_circle",
                    beta=beta)
states = seed_tangent_circle(spec, prov)
stats = ensemble_stats(states, prov)
s = prov.sample(r0, 0.0)
vth = thermal_velocity(s)
b = isobaric_normal(s)

print(f"=== reconstruction at t0 (N={spec.count}, equispaced) ===")
print(f"  fluid velocity         {s.V}")
print(f"  ensemble mean velocity {stats.mean_v}")
print(f"  |mean_v - V|           {np.linalg.norm(stats.mean_v - s.V):.3e}")
print(f"  |mean_u|               {np.linalg.norm(stats.mean_u):.3e}")
cov_pred = 0.5 * beta**2 * vth**2 * (np.eye(3) - np.outer(b, b))
print(f"  max |cov_u - predicted| {np.max(np.abs(stats.cov_u - cov_pred)):.3e}")

print("\n=== random seeding obeys the 1/sqrt(N) law ===")
for count in (100, 10_000):
    rspec = EnsembleSpec(r0=r0, t0=0.0, count=count, sampling="random_circle",
                         seed=7, beta=beta)
    rstates = seed_tangent_circle(rspec, prov)
    rstats = ensemble_stats(rstates, prov)
    print(f"  N={count:<7} |mean_u| = {np.linalg.norm(rstats.mean_u):.3e}   "
          f"(scale beta v_th / sqrt(2N) = {beta * vth / np.sqrt(2 * count):.3e})")

print("\n=== evolving the ensemble: moment time series ===")
cfg = IntegratorConfig(dt=1e-2, t_end=1.0)
trajs, hist = evolve_ensemble(states, prov, cfg, stride=25)
print(f"  {'t':>6} {'|mean_u|':>12} {'spread of r':>14} {'n_eff':>6}")
for i, idx in enumerate(range(0, 101, 25)):
    positions = np.array([tr.r[idx] for tr in trajs])
    spread = float(np.max(np.std(positions, axis=0)))
    print(f"  {hist.t[i]:6.2f} {np.linalg.norm(hist.mean_u[i]):12.3e} "
          f"{spread:14.3e} {hist.n_effective[i]:6.0f}")
print("  (later-time behavior is diagnostic output, not a verified identity)")
