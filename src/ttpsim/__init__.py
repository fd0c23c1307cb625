"""Thermal tracer particle dynamics in prescribed fluid fields.

The package integrates the reduced particle state (position, unit direction
of the relative velocity, proportionality constant) through prescribed
fluid fields, and numerically verifies the constraint structure: constant
relative speed beta * v_th, tangency of the direction to isobaric surfaces,
and the rotation-rate pseudo-vector driving the direction's evolution.
"""

from .errors import (DegenerateGradient, EmptyEnsemble, InitialTangencyViolation,
                     NegativePressure, NoOracle, NotFound, OutOfDomain, ParseError,
                     TtpsimError, ValidationError)
from .fields import (DerivativeResiduals, FieldProvider, FluidSample, create_provider,
                     fd_verify_derivatives, provider_parameters)
from .fields.analytic import (LambOseenField, RigidRotationField, TaylorGreenField,
                              UniformField, UniformGradientField)
from .fields.grid import GridField, load_grid, write_grid
from .kinetics import (EPS_GRAD, OmegaBreakdown, TtpState, isobaric_normal, omega_decomposed,
                       omega_direct, relative_velocity, state_rhs, thermal_velocity)
from .integrate import (IntegratorConfig, InvariantSummary, Trajectory, integrate_trajectory,
                        tangent_seed)
from .ensemble import (EnsembleHistory, EnsembleSpec, evolve_ensemble, seed_tangent_circle,
                       tangent_frame)
from .verify import (OmegaIdentityReport, OrderStudy, cancellation_check,
                     convergence_study, fit_order, omega_identity_sweep,
                     reduced_divergence_report, tangency_drift_study,
                     trajectory_oracle)

__version__ = "0.1.0"
