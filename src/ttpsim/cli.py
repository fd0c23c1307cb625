"""Command-line entry point: sectioned key=value configs, CSV outputs.

Config format: flat sections ``[field] [particle] [integrator] [ensemble]
[output]``, one ``key = value`` per line, ``#`` comments.  Unknown sections
or keys are errors.  All numeric output uses 17 significant digits so
round-tripping is exact for 64-bit floats.

Exit codes: 0 success, 2 config, flag, validation or file failure, 3 runtime
failure.
"""

import argparse
import json
import math
import os
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DegenerateGradient, NotFound, ParseError, TtpsimError, ValidationError
from .fields import create_provider, fd_verify_derivatives, provider_parameters
from .fields.analytic import PROVIDERS
from .fields.grid import interpolation_min_nodes, load_grid
from .integrate import (IntegratorConfig, Trajectory, integrate_trajectory, step_count,
                        tangent_seed)
from .kinetics import TtpState, isobaric_normal, norm3
from .ensemble import (EnsembleHistory, EnsembleSpec, check_stride, evolve_ensemble,
                       seed_tangent_circle, tangent_frame)
from . import verify as verify_mod

TRAJECTORY_COLUMNS = Trajectory.COLUMNS
STATS_COLUMNS = EnsembleHistory.COLUMNS


# --- run configuration -------------------------------------------------------
#
# Each section parses into one type that checks its own values when built:
# FieldConfig, ParticleConfig, IntegratorConfig (plus RunConfig.t0),
# EnsembleSpec and OutputConfig.

@dataclass
class FieldConfig:
    """[field]: a registered provider and its parameters, or a grid file."""

    name: str = None
    grid: str = None
    interpolation: str = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if (self.name is None) == (self.grid is None):
            raise ValidationError("[field] needs exactly one of 'name' or 'grid'")
        if self.grid is not None:
            if self.params:
                raise ValidationError(
                    f"key '{sorted(self.params)[0]}' not valid for a gridded field")
            if self.interpolation is None:
                self.interpolation = "tricubic"
            interpolation_min_nodes(self.interpolation)
            return
        if self.interpolation is not None:
            raise ValidationError("key 'interpolation' only applies to gridded fields")
        parameters = provider_parameters(self.name)  # NotFound for an unknown name
        for k in self.params:
            if k not in parameters:
                raise ValidationError(f"key '{k}' is not a parameter of provider '{self.name}'")


@dataclass
class ParticleConfig:
    """[particle]: the seed state.  ``n0`` is None when seeded by auto_tangent."""

    r0: tuple = (0.0, 0.0, 0.0)
    n0: tuple = None
    auto_tangent: bool = None  # None: the key was not given
    beta: float = 1.0
    project_initial: bool = False

    def __post_init__(self):
        if self.auto_tangent:
            if self.n0 is not None:
                raise ValidationError("give exactly one of 'n0' and 'auto_tangent'")
        elif self.n0 is None:
            self.n0 = (0.0, 1.0, 0.0)
        elif not 0.0 < (nrm := norm3(self.n0)) < math.inf:
            raise ValidationError(f"key 'n0': norm {nrm:g} is not in (0, inf), "
                                  "so it cannot be normalized")


@dataclass
class OutputConfig:
    """[output]: where files go, and the ensemble stats stride in steps."""

    directory: str = "."
    stride: int = 1

    def __post_init__(self):
        check_stride(self.stride)


@dataclass
class RunConfig:
    field_cfg: FieldConfig
    particle: ParticleConfig
    t0: float
    integrator: IntegratorConfig
    ensemble: EnsembleSpec  # [ensemble] keys; r0 and beta from [particle], t0 from [integrator]
    output: OutputConfig


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, (tuple, list)):
        return " ".join(_fmt(x) for x in v)
    return str(v)


def _text(key, raw):
    return raw


def _parse_float(key, raw):
    try:
        v = float(raw)
    except ValueError:
        raise ValidationError(f"key '{key}': expected a real number, got {raw!r}") from None
    if not math.isfinite(v):
        raise ValidationError(f"key '{key}': expected a finite real number, got {raw!r}")
    return v


def _parse_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"key '{key}': expected an integer, got {raw!r}") from None


def _parse_bool(key, raw):
    low = raw.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValidationError(f"key '{key}': expected true/false, got {raw!r}")


def _parse_vec3(key, raw):
    parts = raw.split()
    if len(parts) != 3:
        raise ValidationError(f"key '{key}': expected 3 components, got {len(parts)}")
    return tuple(_parse_float(key, p) for p in parts)


def _parse_count(key, raw):
    return 0 if raw.strip().lower() == "never" else _parse_int(key, raw)


# section -> key -> parser, in print order.  Every run-config key is declared
# here and nowhere else; [field] keys not listed are provider parameters.
SCHEMA = {
    "field": {"name": _text, "grid": _text, "interpolation": _text},
    "particle": {"r0": _parse_vec3, "n0": _parse_vec3, "auto_tangent": _parse_bool,
                 "beta": _parse_float, "project_initial": _parse_bool},
    "integrator": {"t0": _parse_float, "dt": _parse_float, "t_end": _parse_float,
                   "method": _text, "renormalize_every": _parse_count,
                   "project_tangency_every": _parse_count},
    "ensemble": {"count": _parse_int, "sampling": _text, "seed": _parse_int},
    "output": {"directory": _text, "stride": _parse_int},
}


def print_config(cfg):
    """Resolved config as parseable text (round-trips through parse_config).

    Keys whose value is None are left out; a count of 0 prints as ``never``.
    """
    owners = {"field": cfg.field_cfg, "particle": cfg.particle,
              "integrator": cfg.integrator, "ensemble": cfg.ensemble, "output": cfg.output}
    out = []
    for section, keys in SCHEMA.items():
        values = {k: cfg.t0 if k == "t0" else getattr(owners[section], k) for k in keys}
        if section == "field":
            values.update(sorted(cfg.field_cfg.params.items()))
        out += ["", f"[{section}]"]
        for k, v in values.items():
            if keys.get(k) is _parse_count and v == 0:
                v = "never"
            if v is not None:
                out.append(f"{k} = {_fmt(v)}")
    return "\n".join(out[1:]) + "\n"


def parse_config(path):
    """Parse and validate a run configuration file (strict mode)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise ParseError.undecodable(path, "utf-8") from None

    sections = {}
    current = None
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if text.startswith("["):
            if not text.endswith("]"):
                raise ParseError(f"line {lineno}: malformed section header {text!r}")
            name = text[1:-1].strip()
            if name not in SCHEMA:
                raise ValidationError(f"line {lineno}: unknown section [{name}]")
            if name in sections:
                raise ValidationError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if "=" not in text:
            raise ParseError(f"line {lineno}: expected 'key = value', got {text!r}")
        if current is None:
            raise ParseError(f"line {lineno}: key outside any section")
        key, _, value = text.partition("=")
        key, value = key.strip(), value.strip()
        if key in sections[current]:
            raise ValidationError(f"line {lineno}: duplicate key '{key}' in [{current}]")
        parse = SCHEMA[current].get(key, _parse_float if current == "field" else None)
        if parse is None:
            raise ValidationError(f"line {lineno}: key '{key}' not valid in [{current}]")
        sections[current][key] = parse(key, value)

    fld, par, itg, ens, out = (sections.get(name, {}) for name in SCHEMA)
    params = {k: fld.pop(k) for k in list(fld) if k not in SCHEMA["field"]}
    field_cfg = FieldConfig(params=params, **fld)
    particle = ParticleConfig(**par)
    t0 = itg.pop("t0", 0.0)
    integrator = IntegratorConfig(**itg)
    step_count(t0, integrator.t_end, integrator.dt)  # whole steps, else exit 2
    ensemble = EnsembleSpec(r0=particle.r0, t0=t0, beta=particle.beta, **ens)
    return RunConfig(field_cfg=field_cfg, particle=particle, t0=t0, integrator=integrator,
                     ensemble=ensemble, output=OutputConfig(**out))


# --- runtime assembly ---------------------------------------------------------

def build_provider(cfg):
    fc = cfg.field_cfg
    if fc.grid is not None:
        return load_grid(fc.grid, interpolation=fc.interpolation)
    return create_provider(fc.name, **fc.params)


def build_initial_state(cfg, provider):
    p = cfg.particle
    r0 = np.array(p.r0, dtype=float)
    t0 = cfg.t0
    if p.auto_tangent:
        b = isobaric_normal(provider.sample(r0, t0))
        if b is None:
            raise DegenerateGradient("pressure gradient degenerate at the seed point")
        n0, _ = tangent_frame(b)
    else:
        n0 = np.array(p.n0, dtype=float)
        n0 = n0 / norm3(n0)
    state0 = TtpState(t=t0, r=r0, n=n0, beta=p.beta)
    return tangent_seed(state0, provider) if p.project_initial else state0


# --- CSV serialization ---------------------------------------------------------

def _write_csv(path, header, table, flag_columns=()):
    """Write ``table`` under ``header``: 17 significant digits, integers in flag columns."""
    fmt = ["%d" if j in flag_columns else "%.17g" for j in range(table.shape[1])]
    np.savetxt(path, table, fmt=fmt, delimiter=",", header=header, comments="")


def write_trajectory_csv(traj, path):
    _write_csv(path, traj.COLUMNS, traj.table, traj.FLAG_COLUMNS)


def write_stats_csv(history, path):
    _write_csv(path, history.COLUMNS, history.table, history.FLAG_COLUMNS)


# --- subcommands ----------------------------------------------------------------

def _outdir(cfg):
    d = cfg.output.directory
    os.makedirs(d, exist_ok=True)
    return d


def cmd_simulate(cfg):
    d = _outdir(cfg)
    provider = build_provider(cfg)
    state0 = build_initial_state(cfg, provider)
    traj = integrate_trajectory(state0, provider, cfg.integrator)
    write_trajectory_csv(traj, os.path.join(d, "trajectory.csv"))
    s = traj.summary
    summary = asdict(s) | {"final_time": float(traj.t[-1]),
                           "final_position": traj.r[-1].tolist()}
    with open(os.path.join(d, "summary.json"), "w", encoding="ascii") as fh:
        json.dump(summary, fh, indent=2, allow_nan=False)
        fh.write("\n")
    print(f"simulate: {s.steps} steps, max | |n|-1 | = {s.max_norm_err:.3e}, "
          f"max |n.b| = {s.max_abs_n_dot_b:.3e}, "
          f"degenerate steps = {s.degenerate_steps}")
    if s.terminated_early:
        print(f"simulate: terminated early ({s.termination_reason})")
    return 0


def cmd_ensemble(cfg):
    d = _outdir(cfg)
    provider = build_provider(cfg)
    states = seed_tangent_circle(cfg.ensemble, provider)
    trajectories, history = evolve_ensemble(states, provider, cfg.integrator,
                                            stride=cfg.output.stride)
    write_stats_csv(history, os.path.join(d, "stats.csv"))
    final = f", final n_effective = {int(history.n_effective[-1])}" if len(history) else ""
    print(f"ensemble: {cfg.ensemble.count} particles, {len(history)} output times{final}")
    stopped = Counter(tr.summary.termination_reason.partition(":")[0]
                      for tr in trajectories if tr.summary.terminated_early)
    if stopped:
        print("ensemble: particles stopped early: "
              + ", ".join(f"{code} {n}" for code, n in sorted(stopped.items())))
    if history.termination_reason:
        print(f"ensemble: terminated early ({history.termination_reason})")
    return 0


def cmd_verify(cfg, points=100, seed=0):
    provider = build_provider(cfg)
    d = _outdir(cfg)
    parts = []

    try:
        rep = verify_mod.omega_identity_sweep(provider, n_points=points, seed=seed,
                                              beta=cfg.particle.beta, t=cfg.t0)
        parts.append(rep.to_text())
        _write_csv(os.path.join(d, "omega_identity.csv"), rep.COLUMNS, rep.table)
    except TtpsimError as err:
        parts.append(f"rotation-rate identity sweep skipped: {err}")

    try:
        canc = verify_mod.cancellation_check(provider, n_states=points, seed=seed,
                                             beta=cfg.particle.beta, t=cfg.t0)
        parts.append(f"tangency cancellation residual (max over {points} states): "
                     f"{canc:.3e}")
    except TtpsimError as err:
        parts.append(f"tangency cancellation check skipped: {err}")

    try:
        dmax, dmed, dn = verify_mod.reduced_divergence_report(
            provider, n_states=points, seed=seed, beta=cfg.particle.beta, t=cfg.t0)
        parts.append(f"reduced-state RHS divergence over {dn} states "
                     f"(diagnostic, no threshold): max {dmax:.3e} median {dmed:.3e}")
    except TtpsimError as err:
        parts.append(f"reduced-state divergence report skipped: {err}")

    dt0 = cfg.integrator.dt
    dts = [4.0 * dt0, 2.0 * dt0, dt0]
    try:
        state0 = build_initial_state(cfg, provider)
        drift = verify_mod.tangency_drift_study(provider, state0, cfg.integrator, dts)
        parts.append(drift.to_text())
        _write_csv(os.path.join(d, "tangency_drift.csv"), f"dt,{drift.kind}",
                   np.column_stack((drift.steps, drift.values)))
    except TtpsimError as err:
        parts.append(f"tangency drift study skipped: {err}")

    try:
        state0 = build_initial_state(cfg, provider)
        conv = verify_mod.convergence_study(provider, state0, cfg.integrator, dts)
        parts.append(conv.to_text())
        _write_csv(os.path.join(d, "convergence.csv"), f"dt,{conv.kind}",
                   np.column_stack((conv.steps, conv.values)))
    except TtpsimError as err:
        parts.append(f"convergence study skipped: {err}")

    text = "\n\n".join(parts) + "\n"
    with open(os.path.join(d, "verify_report.txt"), "w", encoding="ascii") as fh:
        fh.write(text)
    print(text, end="")
    return 0


def cmd_fields(list_providers=False, check=None):
    if check is None or list_providers:
        print("registered providers:")
        for name, cls in PROVIDERS.items():  # each at its default parameters
            pars = " ".join(f"{k}={_fmt(v)}"
                            for k, v in sorted(provider_parameters(name).items()))
            print(f"  {name:<18} time_dependent={str(cls.time_dependent).lower()} "
                  f"params: {pars}")
        if check is None:
            return 0
    provider = create_provider(check)
    h, tol = 1e-4, 1e-5  # difference step and pass threshold of the audit
    lo, hi = provider.reference_box
    # generic fractions: symmetry points (box center, edges) can zero out
    # individual derivatives and make relative residuals meaningless
    probe = [lo + f * (hi - lo) for f in (0.31, 0.47, 0.68)]
    worst = None
    for r in probe:
        rep = fd_verify_derivatives(provider, r, t=0.1, h=h)
        if worst is None or rep.max_residual > worst.max_residual:
            worst = rep
    print(f"fields --check {check}:")
    print(worst.to_text())
    if worst.max_residual > tol:
        print(f"check FAILED: max residual {worst.max_residual:.3e} > tol {tol:g}",
              file=sys.stderr)
        return 3
    print(f"check passed: max residual {worst.max_residual:.3e} <= tol {tol:g}")
    return 0


def _flag(convert, ok, rule):
    """argparse type: ``convert`` the text, then require ``ok(value)``."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ttpsim",
        description="Thermal tracer particle simulation and verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate one trajectory")
    p_sim.add_argument("config")
    p_sim.add_argument("--print-config", action="store_true")

    p_ens = sub.add_parser("ensemble", help="evolve an ensemble and emit stats")
    p_ens.add_argument("config")
    p_ens.add_argument("--print-config", action="store_true")

    p_ver = sub.add_parser("verify", help="run verification sweeps and studies")
    p_ver.add_argument("config")
    p_ver.add_argument("--print-config", action="store_true")
    p_ver.add_argument("--points", type=_flag(int, lambda v: v >= 1, ">= 1"), default=100)
    p_ver.add_argument("--seed", type=_flag(int, lambda v: v >= 0, ">= 0"), default=0)

    # no abbreviations: the removed --h must be an error, not a prefix of --help
    p_fld = sub.add_parser("fields", help="list providers / audit derivatives",
                           allow_abbrev=False)
    p_fld.add_argument("--list", action="store_true", dest="list_providers")
    p_fld.add_argument("--check", metavar="NAME")

    args = parser.parse_args(argv)

    try:
        if args.command == "fields":
            return cmd_fields(list_providers=args.list_providers, check=args.check)
        cfg = parse_config(args.config)
        if args.print_config:
            print(print_config(cfg), end="")
            return 0
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "ensemble":
            return cmd_ensemble(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, points=args.points, seed=args.seed)
    except (ParseError, ValidationError, NotFound, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except TtpsimError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
