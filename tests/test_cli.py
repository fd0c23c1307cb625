"""Config parsing, serialization contracts, and subcommand behavior."""

import json
import os

import numpy as np
import pytest

from ttpsim import ParseError, RigidRotationField, ValidationError, omega_identity_sweep
from ttpsim.cli import (STATS_COLUMNS, TRAJECTORY_COLUMNS, main, parse_config,
                        print_config)

MINIMAL = """
[field]
name = uniform
"""

RIGID_SIM = """
[field]
name = rigid_rotation
omega = 1.0
p0 = 0.5
c = 1.0

[particle]
r0 = 1 0 0
n0 = 0 1 0
beta = 1.0

[integrator]
dt = 0.001
t_end = 0.5

[output]
directory = {out}
"""

TG_ENSEMBLE = """
[field]
name = taylor_green
A = 1.0
k = 1.0
nu = 0.0
p0 = 1.0

[particle]
r0 = 2.1 3.3 1.7
beta = 0.5
auto_tangent = true

[integrator]
dt = 0.01
t_end = 0.1

[ensemble]
count = 16
sampling = equispaced_circle
seed = 0

[output]
directory = {out}
stride = 5
"""


def _write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# --- parsing ------------------------------------------------------------------

def test_minimal_config_defaults_filled(tmp_path):
    cfg = parse_config(_write(tmp_path, MINIMAL))
    assert cfg.field_cfg.name == "uniform"
    assert cfg.particle.r0 == (0.0, 0.0, 0.0)
    assert cfg.particle.n0 == (0.0, 1.0, 0.0)
    assert cfg.particle.beta == 1.0
    assert cfg.integrator.dt == 1e-3
    assert cfg.integrator.method == "rk4_rodrigues"
    assert cfg.integrator.renormalize_every == 0
    assert cfg.ensemble.count == 64
    assert cfg.output.stride == 1


def test_both_n0_and_auto_tangent_rejected(tmp_path):
    text = MINIMAL + "\n[particle]\nn0 = 0 1 0\nauto_tangent = true\n"
    with pytest.raises(ValidationError):
        parse_config(_write(tmp_path, text))


def test_zero_dt_rejected(tmp_path):
    text = MINIMAL + "\n[integrator]\ndt = 0\n"
    with pytest.raises(ValidationError, match="dt must be positive"):
        parse_config(_write(tmp_path, text))


def test_unknown_key_rejected(tmp_path):
    text = MINIMAL + "\n[integrator]\ntimestep = 0.1\n"
    with pytest.raises(ValidationError, match="timestep"):
        parse_config(_write(tmp_path, text))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ValidationError, match="plotting"):
        parse_config(_write(tmp_path, MINIMAL + "\n[plotting]\nstyle = x\n"))


def test_unknown_provider_param_rejected(tmp_path):
    text = "[field]\nname = uniform\nviscosity = 1\n"
    with pytest.raises(ValidationError, match="viscosity"):
        parse_config(_write(tmp_path, text))


def test_malformed_line_reports_lineno(tmp_path):
    text = "[field]\nname = uniform\nbogus line without equals\n"
    with pytest.raises(ParseError, match="line 3"):
        parse_config(_write(tmp_path, text))


def test_duplicate_key_rejected(tmp_path):
    text = "[field]\nname = uniform\nname = rigid_rotation\n"
    with pytest.raises(ValidationError, match="duplicate"):
        parse_config(_write(tmp_path, text))


def test_print_config_roundtrip(tmp_path):
    src = RIGID_SIM.format(out=str(tmp_path / "out"))
    cfg = parse_config(_write(tmp_path, src))
    echoed = print_config(cfg)
    cfg2 = parse_config(_write(tmp_path, echoed, name="echo.cfg"))
    assert cfg == cfg2


def test_print_config_roundtrip_auto_tangent(tmp_path):
    cfg = parse_config(_write(tmp_path, TG_ENSEMBLE.format(out=str(tmp_path))))
    echoed = print_config(cfg)
    cfg2 = parse_config(_write(tmp_path, echoed, name="echo.cfg"))
    assert cfg == cfg2


EVERY_KEY = """
[field]
{field}

[particle]
r0 = 0.25 -0.5 0.75
{direction}
beta = 0.375
project_initial = true

[integrator]
t0 = 0.125
dt = 0.0625
t_end = 1.125
method = rk4_naive
renormalize_every = 3
project_tangency_every = 7
eps_grad = 1e-12

[ensemble]
count = 9
sampling = random_circle
seed = 11

[output]
directory = {out}
stride = 4
"""


@pytest.mark.parametrize("field, direction", [
    ("name = lamb_oseen\nGamma = 2.5\nW = 0.25\np0 = 3.5\npa = 0.125\nrc = 1.5",
     "n0 = 0.6 0 0.8"),
    ("grid = some/where.grid\ninterpolation = trilinear", "auto_tangent = true"),
], ids=["provider_n0", "grid_auto_tangent"])
def test_print_config_roundtrip_every_key(tmp_path, field, direction):
    # every key set away from its default is echoed once and parses back equal
    src = EVERY_KEY.format(field=field, direction=direction, out=tmp_path / "o")
    cfg = parse_config(_write(tmp_path, src))
    echoed = print_config(cfg)
    assert parse_config(_write(tmp_path, echoed, name="echo.cfg")) == cfg

    def keys(text):
        return sorted(line.split("=")[0].strip() for line in text.splitlines() if "=" in line)

    assert keys(echoed) == keys(src)


def test_seventeen_digit_roundtrip(tmp_path):
    dt = 1.0 / 3.0
    text = MINIMAL + f"\n[integrator]\ndt = {dt:.17g}\nt_end = 1\n"
    cfg = parse_config(_write(tmp_path, text))
    assert cfg.integrator.dt == dt
    cfg2 = parse_config(_write(tmp_path, print_config(cfg), name="echo.cfg"))
    assert cfg2.integrator.dt == dt


# --- simulate ---------------------------------------------------------------------

def test_simulate_writes_contracted_csv(tmp_path, capsys):
    out = tmp_path / "out"
    cfgp = _write(tmp_path, RIGID_SIM.format(out=out))
    rc = main(["simulate", cfgp])
    assert rc == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == TRAJECTORY_COLUMNS
    assert len(lines) == 502  # header + 501 records
    row = lines[1].split(",")
    assert len(row) == 21
    assert row[-1] == "0"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["steps"] == 500
    assert summary["max_norm_err"] <= 1e-12


def test_simulate_out_of_domain_exit3(tmp_path, capsys):
    from ttpsim import UniformField, write_grid
    gridfile = tmp_path / "u.grid"
    write_grid(gridfile, UniformField(), (0, 0, 0), (0.5, 0.5, 0.5), (5, 5, 5))
    text = f"""
[field]
grid = {gridfile}

[particle]
r0 = 9 9 9
n0 = 0 1 0

[integrator]
dt = 0.01
t_end = 0.1

[output]
directory = {tmp_path / 'o'}
"""
    rc = main(["simulate", _write(tmp_path, text)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "domain" in err and "lo=" in err and "hi=" in err


def test_simulate_validation_exit2(tmp_path, capsys):
    rc = main(["simulate", _write(tmp_path, MINIMAL + "\n[integrator]\ndt = 0\n")])
    assert rc == 2


@pytest.mark.parametrize("extra", [
    "\n[integrator]\ndt = nan\n",
    "\n[integrator]\nt_end = nan\n",
    "\n[integrator]\ndt = inf\n",
    "\n[integrator]\neps_grad = nan\n",
    "\n[integrator]\nt0 = -inf\n",
    "\n[particle]\nbeta = nan\n",
    "\n[particle]\nr0 = 0 inf 0\n",
    "\n[particle]\nn0 = 0 nan 1\n",
    "p0 = nan\n",
], ids=["dt_nan", "t_end_nan", "dt_inf", "eps_grad_nan", "t0_inf", "beta_nan",
        "r0_inf", "n0_nan", "param_nan"])
def test_non_finite_value_exit2(tmp_path, capsys, extra):
    out = tmp_path / "out"
    text = MINIMAL + extra + f"\n[output]\ndirectory = {out}\n"
    rc = main(["simulate", _write(tmp_path, text)])
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("integrator, message", [
    ("dt = 0.3\nt_end = 1.0", "whole number of steps"),
    ("dt = 0.3\nt_end = 0.1", "whole number of steps"),
    ("dt = 1e-320\nt_end = 1.0", "whole number of steps"),
    ("t0 = 1.0\nt_end = 1.0", "t_end must exceed"),
    ("eps_grad = -1", "eps_grad must be >= 0"),
], ids=["non_commensurate", "shorter_than_one_step", "step_count_overflow",
        "empty_horizon", "negative_eps_grad"])
def test_rejected_integrator_value_exit2(tmp_path, capsys, integrator, message):
    out = tmp_path / "out"
    text = MINIMAL + f"\n[integrator]\n{integrator}\n\n[output]\ndirectory = {out}\n"
    rc = main(["simulate", _write(tmp_path, text)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, V0, p1hat", [
    ("name = uniform\nV0x = 2.0\nV0z = -0.5\np0 = 0.7", (2.0, 0.0, -0.5), 0.7),
    ("name = uniform_gradient\nV0y = 0.25\np0 = 3.0\ngx = 0.5\ngz = 0.0",
     (1.0, 0.25, 0.0), 3.0 + 0.5 * 0.2),
], ids=["uniform", "uniform_gradient"])
def test_uniform_component_params_take_effect(tmp_path, capsys, field, V0, p1hat):
    # the keys the registry advertises are the keys the constructor takes
    out = tmp_path / "out"
    text = (f"[field]\n{field}\n\n[particle]\nr0 = 0.2 0.1 0.0\nn0 = 0 1 0\n\n"
            f"[integrator]\ndt = 0.01\nt_end = 0.1\n\n[output]\ndirectory = {out}\n")
    assert main(["simulate", _write(tmp_path, text)]) == 0
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    np.testing.assert_allclose(rows[:, 10:13] - rows[:, 7:10], np.tile(V0, (11, 1)),
                               rtol=0, atol=1e-15)
    assert rows[0, 14] == pytest.approx(p1hat, abs=1e-15)


@pytest.mark.parametrize("argv, ensemble", [
    (["verify", "{cfg}", "--seed", "-1"], ""),
    (["verify", "{cfg}", "--points", "-5"], ""),
    (["verify", "{cfg}", "--points", "0"], ""),
    (["fields", "--check", "taylor_green", "--h", "0"], ""),
    (["fields", "--check", "taylor_green", "--h", "nan"], ""),
    (["fields", "--check", "taylor_green", "--tol", "nan"], ""),
    (["ensemble", "{cfg}"], "\n[ensemble]\nsampling = random_circle\nseed = -1\n"),
], ids=["verify_seed_negative", "verify_points_negative", "verify_points_zero",
        "fields_h_zero", "fields_h_nan", "fields_tol_nan", "ensemble_seed_negative"])
def test_bad_flag_or_seed_exit2(tmp_path, capsys, argv, ensemble):
    out = tmp_path / "out"
    cfg = _write(tmp_path, RIGID_SIM.format(out=out) + ensemble)
    try:
        code = main([a.format(cfg=cfg) for a in argv])
    except SystemExit as stop:  # argparse rejects a bad flag value
        code = stop.code
    assert code == 2
    captured = capsys.readouterr()
    assert "must be" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("case", ["config_is_directory", "config_not_utf8",
                                  "output_is_a_file"])
def test_file_error_exit2(tmp_path, capsys, monkeypatch, case):
    import ttpsim.cli

    def no_integration(*args, **kwargs):
        raise AssertionError("integrated before the file error was reported")

    monkeypatch.setattr(ttpsim.cli, "integrate_trajectory", no_integration)
    out = tmp_path / "out"
    path = tmp_path / "run.cfg"
    if case == "config_is_directory":
        path.mkdir()
    elif case == "config_not_utf8":
        path.write_bytes(RIGID_SIM.format(out=out).encode() + b"# caf\xe9\n")
    else:
        out.write_text("not a directory\n")
        path.write_text(RIGID_SIM.format(out=out))
    assert main(["simulate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists() or out.read_text() == "not a directory\n"


@pytest.mark.parametrize("kind", ["config", "grid"])
def test_undecodable_file_exit2_names_it(tmp_path, capsys, kind):
    if kind == "config":
        path = tmp_path / "run.cfg"
        path.write_bytes(b"[field]\nname = uniform # caf\xe9\n")
        offset = 28
    else:
        from ttpsim import UniformField, write_grid
        path = tmp_path / "u.grid"
        write_grid(path, UniformField(), (0, 0, 0), (0.5, 0.5, 0.5), (2, 2, 2))
        text = path.read_bytes()
        offset = len(text)
        path.write_bytes(text + b"\xe9\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[field]\ngrid = {path}\n\n[integrator]\ndt = 0.1\nt_end = 0.1\n"
                       f"\n[output]\ndirectory = {tmp_path / 'o'}\n")
    assert main(["simulate", str(tmp_path / "run.cfg")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert f"byte 0xe9 at offset {offset}" in err


@pytest.mark.parametrize("field, particle, integrator, final_time", [
    # far too large a step: the state overflows to nan at t = 235
    ("rigid_rotation", "r0 = 1 0 0.2\nn0 = 0 0.6 0.8\nbeta = 5", "dt = 5\nt_end = 2000", 230.0),
    # rk4_naive lets |n| grow; at t = 23 the state is finite but |n|^2 overflows
    ("taylor_green", "r0 = 1 2 3\nauto_tangent = true",
     "dt = 1\nt_end = 400\nmethod = rk4_naive", 22.0),
    # the step from t = 6 takes math.sin of an overflowed stage position
    ("taylor_green", "r0 = 2.1 3.3 1.7\nauto_tangent = true",
     "dt = 2\nt_end = 800\nmethod = rk4_naive", 6.0),
    # |n| reaches 2e172 after the step from t = 4; its square overflows at renormalization
    ("taylor_green", "r0 = 2.1 3.3 1.7\nauto_tangent = true",
     "dt = 4\nt_end = 800\nmethod = rk4_naive\nrenormalize_every = 2", 4.0),
    # the same run projected onto the tangent plane instead: the projection's norm overflows
    ("taylor_green", "r0 = 2.1 3.3 1.7\nauto_tangent = true",
     "dt = 4\nt_end = 800\nmethod = rk4_naive\nproject_tangency_every = 2", 4.0),
], ids=["state_nan", "record_overflow", "stage_overflow", "renormalize_overflow",
        "projection_overflow"])
def test_simulate_non_finite_state_terminates_early(tmp_path, capsys, field, particle,
                                                    integrator, final_time):
    # the run stops with a reason instead of writing nan or inf rows
    out = tmp_path / "out"
    text = (f"[field]\nname = {field}\n\n[particle]\n{particle}\n\n"
            f"[integrator]\n{integrator}\n\n[output]\ndirectory = {out}\n")
    assert main(["simulate", _write(tmp_path, text)]) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
    assert summary["terminated_early"] is True
    assert summary["termination_reason"].startswith("non_finite_state: ")
    assert summary["final_time"] == final_time
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 1 + summary["steps"] + 1
    assert not any("nan" in line or "inf" in line for line in lines[1:])
    assert "terminated early (non_finite_state: " in capsys.readouterr().out


def test_simulate_missing_config_exit2(tmp_path):
    rc = main(["simulate", str(tmp_path / "nope.cfg")])
    assert rc == 2


def test_simulate_initial_tangency_exit3(tmp_path, capsys):
    text = RIGID_SIM.format(out=tmp_path / "o").replace("n0 = 0 1 0", "n0 = 0.8 0.6 0")
    rc = main(["simulate", _write(tmp_path, text)])
    assert rc == 3
    assert "tangen" in capsys.readouterr().err
    text = text.replace("beta = 1.0", "beta = 1.0\nproject_initial = true")
    rc = main(["simulate", _write(tmp_path, text)])
    assert rc == 0


def test_print_config_flag(tmp_path, capsys):
    cfgp = _write(tmp_path, RIGID_SIM.format(out=tmp_path / "o"))
    rc = main(["simulate", cfgp, "--print-config"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[field]" in out and "rigid_rotation" in out
    assert not (tmp_path / "o").exists()  # print only, no run


def test_trajectory_csv_numeric_roundtrip(tmp_path):
    # 17 significant digits reproduce the in-memory values exactly
    from ttpsim import (IntegratorConfig, RigidRotationField, TtpState,
                        integrate_trajectory)
    from ttpsim.cli import write_trajectory_csv
    prov = RigidRotationField(omega=1.0, p0=0.5, c=1.0)
    st = TtpState(t=0.0, r=np.array((1.0, 0.0, 0.0)),
                  n=np.array((0.0, 1.0, 0.0)), beta=1.0)
    traj = integrate_trajectory(st, prov, IntegratorConfig(dt=1e-2, t_end=0.2))
    path = tmp_path / "t.csv"
    write_trajectory_csv(traj, path)
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(table[:, 1:4], traj.r)
    assert np.array_equal(table[:, 4:7], traj.n)
    assert np.array_equal(table[:, 18], traj.n_dot_b)


# --- ensemble ----------------------------------------------------------------------

def test_stats_csv_numeric_roundtrip(tmp_path, taylor_green):
    from ttpsim import EnsembleSpec, IntegratorConfig, evolve_ensemble, seed_tangent_circle
    from ttpsim.cli import write_stats_csv
    spec = EnsembleSpec(r0=(2.1, 3.3, 1.7), count=16, beta=0.5)
    states = seed_tangent_circle(spec, taylor_green)
    _, hist = evolve_ensemble(states, taylor_green, IntegratorConfig(dt=0.01, t_end=0.1),
                              stride=5)
    path = tmp_path / "stats.csv"
    write_stats_csv(hist, path)
    assert path.read_text().splitlines()[0] == STATS_COLUMNS
    assert np.array_equal(np.loadtxt(path, delimiter=",", skiprows=1), hist.table)


def test_ensemble_stats_csv(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["ensemble", _write(tmp_path, TG_ENSEMBLE.format(out=out))])
    assert rc == 0
    lines = (out / "stats.csv").read_text().splitlines()
    assert lines[0] == STATS_COLUMNS
    assert len(lines) == 4  # header + steps {0,5,10}
    first = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert first["n_effective"] == "16"
    # reconstruction at t0: mean_u vanishes to rounding
    assert abs(float(first["mean_ux"])) < 1e-13
    assert abs(float(first["mean_uy"])) < 1e-13
    assert abs(float(first["mean_uz"])) < 1e-13


def test_ensemble_degenerate_seed_exit3(tmp_path, capsys):
    text = TG_ENSEMBLE.format(out=tmp_path / "o").replace(
        "name = taylor_green", "name = uniform").replace("A = 1.0", "").replace(
        "k = 1.0", "").replace("nu = 0.0", "").replace("p0 = 1.0", "")
    rc = main(["ensemble", _write(tmp_path, text)])
    assert rc == 3


# --- verify ------------------------------------------------------------------------------

def test_verify_emits_reports(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["verify", _write(tmp_path, RIGID_SIM.format(out=out)), "--points", "40"])
    assert rc == 0
    report = (out / "verify_report.txt").read_text()
    assert "rotation-rate identity sweep" in report
    assert "tangency drift" in report
    assert "position error" in report
    assert (out / "tangency_drift.csv").exists()
    assert (out / "convergence.csv").exists()
    lines = (out / "omega_identity.csv").read_text().splitlines()
    assert lines[0] == "x,y,z,res_fd,res_split_abs,res_split_rel"
    rep = omega_identity_sweep(RigidRotationField(omega=1.0, p0=0.5, c=1.0), n_points=40,
                               beta=1.0)
    assert len(rep) > 0
    assert len(lines) == len(rep) + 1


def test_verify_all_points_skipped_writes_header_only(tmp_path, capsys):
    # the uniform field's pressure gradient is degenerate everywhere
    out = tmp_path / "out"
    text = ("[field]\nname = uniform\n\n[integrator]\ndt = 0.01\nt_end = 0.4\n\n"
            f"[output]\ndirectory = {out}\n")
    assert main(["verify", _write(tmp_path, text), "--points", "10"]) == 0
    assert "points evaluated 0 / 10 (skipped 10 degenerate)" in (
        out / "verify_report.txt").read_text()
    assert (out / "omega_identity.csv").read_text() == (
        "x,y,z,res_fd,res_split_abs,res_split_rel\n")


# --- fields -------------------------------------------------------------------------------

def test_fields_list(capsys):
    rc = main(["fields", "--list"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "registered providers:\n"
        "  uniform            time_dependent=false params: V0x=1 V0y=0 V0z=0 p0=0.5\n"
        "  uniform_gradient   time_dependent=false params: "
        "V0x=1 V0y=0 V0z=0 gx=0 gy=0 gz=1 p0=2\n"
        "  rigid_rotation     time_dependent=false params: c=1 omega=1 p0=0.5\n"
        "  taylor_green       time_dependent=false params: A=1 k=1 nu=0 p0=1\n"
        "  lamb_oseen         time_dependent=false params: Gamma=1 W=0.5 p0=1 pa=0.5 rc=1\n")


def test_fields_check_taylor_green(capsys):
    rc = main(["fields", "--check", "taylor_green"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "max" in out
    # residual line printed by the audit; acceptance threshold
    for line in out.splitlines():
        if line.strip().startswith("max "):
            assert float(line.split()[-1]) < 1e-6


def test_fields_check_unknown_exit2(capsys):
    rc = main(["fields", "--check", "nonexistent"])
    assert rc == 2


# --- benchmark contract ----------------------------------------------------------------

def test_benchmark_binding_sites_resolve(monkeypatch):
    # the benchmark patches these attributes from outside; a refactor that
    # drops one must fail here, not only in a traced benchmark run
    import importlib
    import importlib.util
    import pathlib

    bench = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(bench))

    def load(name):
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", bench / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    sites = [site[:2] for site in load("tracer").BINDING_SITES]
    sites += [site for roles in load("job").PHASES.values() for site in roles.values()]
    missing = [f"{mod}.{attr}" for mod, attr in sites
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing
