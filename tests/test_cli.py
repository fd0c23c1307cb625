"""Config parsing, serialization contracts, and subcommand behavior."""

import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ttpsim import (ParseError, RigidRotationField, ValidationError, convergence_study,
                    omega_identity_sweep, provider_parameters)
from ttpsim.cli import (SCHEMA, STATS_COLUMNS, TRAJECTORY_COLUMNS, build_initial_state,
                        build_provider, main, parse_config, print_config)
from ttpsim.fields.analytic import PROVIDERS

from conftest import EDGE_SEEDS, edge_run_breaches, spy_positions, verify_non_finite

ROOT = pathlib.Path(__file__).resolve().parent.parent

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

[ensemble]
count = 9
sampling = random_circle
seed = 11

[output]
directory = {out}
stride = 4
"""


EVERY_KEY_CASES = {
    "provider_n0": ("name = lamb_oseen\nGamma = 2.5\nW = 0.25\np0 = 3.5\npa = 0.125\nrc = 1.5",
                    "n0 = 0.6 0 0.8"),
    "grid_auto_tangent": ("grid = some/where.grid\ninterpolation = trilinear",
                          "auto_tangent = true"),
}


@pytest.mark.parametrize("field, direction", list(EVERY_KEY_CASES.values()),
                         ids=list(EVERY_KEY_CASES))
def test_print_config_roundtrip_every_key(tmp_path, field, direction):
    # every key set away from its default is echoed once and parses back equal
    src = EVERY_KEY.format(field=field, direction=direction, out=tmp_path / "o")
    cfg = parse_config(_write(tmp_path, src))
    echoed = print_config(cfg)
    assert parse_config(_write(tmp_path, echoed, name="echo.cfg")) == cfg

    def keys(text):
        return sorted(line.split("=")[0].strip() for line in text.splitlines() if "=" in line)

    assert keys(echoed) == keys(src)


def test_every_schema_key_has_roundtrip_coverage():
    # a key added to cli.SCHEMA must also be set in one EVERY_KEY_CASES source
    covered = set()
    for field, direction in EVERY_KEY_CASES.values():
        section = None
        for line in EVERY_KEY.format(field=field, direction=direction, out="o").splitlines():
            if line.startswith("["):
                section = line.strip("[]")
            elif "=" in line:
                covered.add((section, line.split("=")[0].strip()))
    assert {(s, k) for s, keys in SCHEMA.items() for k in keys} <= covered


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
    "\n[integrator]\nt0 = -inf\n",
    "\n[particle]\nbeta = nan\n",
    "\n[particle]\nr0 = 0 inf 0\n",
    "\n[particle]\nn0 = 0 nan 1\n",
    "p0 = nan\n",
], ids=["dt_nan", "t_end_nan", "dt_inf", "t0_inf", "beta_nan",
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
], ids=["non_commensurate", "shorter_than_one_step", "step_count_overflow",
        "empty_horizon"])
def test_rejected_integrator_value_exit2(tmp_path, capsys, integrator, message):
    out = tmp_path / "out"
    text = MINIMAL + f"\n[integrator]\n{integrator}\n\n[output]\ndirectory = {out}\n"
    rc = main(["simulate", _write(tmp_path, text)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("[field]\n", "[field] needs exactly one of 'name' or 'grid'"),
    ("[field]\ngrid = a.grid\nomega = 1\n", "key 'omega' not valid for a gridded field"),
    ("[field]\nname = uniform\ninterpolation = trilinear\n",
     "key 'interpolation' only applies to gridded fields"),
    ("[field]\ngrid = a.grid\ninterpolation = cubic\n", "unknown interpolation 'cubic'"),
    (MINIMAL + "[particle]\nbeta = fast\n", "key 'beta': expected a real number, got 'fast'"),
    (MINIMAL + "[ensemble]\ncount = 2.5\n", "key 'count': expected an integer, got '2.5'"),
    (MINIMAL + "[particle]\nauto_tangent = maybe\n",
     "key 'auto_tangent': expected true/false, got 'maybe'"),
    (MINIMAL + "[particle]\nr0 = 1 2\n", "key 'r0': expected 3 components, got 2"),
    ("[field\nname = uniform\n", "line 1: malformed section header '[field'"),
    (MINIMAL + "[field]\n", "line 4: duplicate section [field]"),
    ("name = uniform\n", "line 1: key outside any section"),
    (MINIMAL + "[output]\nstride = 0\n", "stride must be >= 1"),
], ids=["field_neither_name_nor_grid", "grid_with_provider_param",
        "interpolation_on_analytic", "interpolation_cubic", "real_not_numeric",
        "count_not_integer", "bool_invalid", "r0_two_components", "malformed_header",
        "duplicate_section", "key_outside_section", "stride_zero"])
def test_rejected_config_exit2(tmp_path, capsys, text, message):
    assert main(["simulate", _write(tmp_path, text)]) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [
    ("integrator", "eps_grad"), ("integrator", "omega_route"), ("output", "formats"),
])
def test_removed_key_exit2(tmp_path, capsys, section, key):
    # removed settings are unknown keys, not silently ignored ones
    out = tmp_path / "out"
    text = f"[field]\nname = uniform\n\n[{section}]\n{key} = 1e-10\n"
    if section != "output":
        text += f"\n[output]\ndirectory = {out}\n"
    assert main(["simulate", _write(tmp_path, text)]) == 2
    assert f"line 5: key '{key}' not valid in [{section}]" in capsys.readouterr().err
    assert not out.exists()


def test_n0_norm_underflow_exit2(tmp_path, capsys):
    # |n0| underflows to 0, so normalizing it would give a nan/inf direction
    out = tmp_path / "out"
    text = RIGID_SIM.format(out=out).replace("n0 = 0 1 0", "n0 = 0 1e-200 0").replace(
        "dt = 0.001\nt_end = 0.5", "dt = 0.01\nt_end = 0.1")
    assert main(["simulate", _write(tmp_path, text)]) == 2
    assert "key 'n0': norm 0 is not in (0, inf)" in capsys.readouterr().err
    assert not out.exists()


def _cli_subprocess(tmp_path, code, *argv):
    """Run ``code`` in a fresh interpreter with ``ttpsim.cli.main`` imported as ``main``."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-c", "import sys\nfrom ttpsim.cli import main\n"
                           + code, *argv], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)


def test_n0_norm_overflow_exit2_prints_only_the_error(tmp_path):
    # |n0|^2 overflows: the norm is decided on floats, so numpy prints no RuntimeWarning
    text = RIGID_SIM.format(out=tmp_path / "out").replace("n0 = 0 1 0", "n0 = 1e200 1e200 1e200")
    proc = _cli_subprocess(tmp_path, "sys.exit(main(sys.argv[1:]))", "simulate",
                           _write(tmp_path, text))
    assert proc.returncode == 2
    assert proc.stderr == ("error: key 'n0': norm inf is not in (0, inf), "
                           "so it cannot be normalized\n")


def test_verify_does_not_import_numpy_ma(tmp_path):
    # np.median imports numpy.ma (about 10 ms and 2 MB); verify's medians do not use it
    cfg = _write(tmp_path, (ROOT / "tests" / "golden" / "verify_rigid_rotation" / "run.cfg")
                 .read_text().format(out=tmp_path / "out"))
    proc = _cli_subprocess(tmp_path, "code = main(sys.argv[1:])\n"
                           "print(code, 'numpy.ma' in sys.modules)",
                           "verify", cfg, "--points", "20")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_unallocatable_horizon_exit2(tmp_path, capsys):
    # 1e14 records of 21 floats (15 PiB) exceed any 64-bit address space
    out = tmp_path / "out"
    text = RIGID_SIM.format(out=out).replace("dt = 0.001\nt_end = 0.5",
                                             "dt = 1e-10\nt_end = 10000")
    assert main(["simulate", _write(tmp_path, text)]) == 2
    assert "cannot allocate the table of 100000000000001 records" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()
    # verify runs its pointwise checks and reports both order studies skipped
    assert main(["verify", _write(tmp_path, text), "--points", "5"]) == 0
    report = (out / "verify_report.txt").read_text()
    assert "tangency drift study skipped: cannot allocate the table of" in report
    assert "convergence study skipped: cannot allocate the table of" in report


def test_unallocatable_points_skip_pointwise_studies(tmp_path, capsys):
    # numpy rejects 2**63 - 1 points of three floats before allocating anything: the
    # three pointwise studies print their skip lines and the order studies still run
    out = tmp_path / "out"
    cfg = _golden_config(tmp_path, "verify_rigid_rotation")
    assert main(["verify", cfg, "--points", str(2**63 - 1)]) == 0
    report = (out / "verify_report.txt").read_text()
    err = "cannot allocate 9223372036854775807 random points"
    for label in ("rotation-rate identity sweep", "tangency cancellation check",
                  "reduced-state divergence report"):
        assert f"{label} skipped: {err}\n" in report
    assert "fitted order: n/a" not in report
    assert sorted(os.listdir(out)) == ["convergence.csv", "tangency_drift.csv",
                                       "verify_report.txt"]


@pytest.mark.parametrize("sampling", ["equispaced_circle", "random_circle"])
@pytest.mark.parametrize("count", [2**63 - 1, 2**63, 2**64])
def test_unseedable_ensemble_count_exit2(tmp_path, capsys, sampling, count):
    # numpy refuses these sizes (or np.arange wraps them to an empty array) before
    # allocating anything; either way the count is rejected, not evolved as empty
    out = tmp_path / "out"
    text = RIGID_SIM.format(out=out).replace("dt = 0.001\nt_end = 0.5", "dt = 0.01\nt_end = 0.02")
    text += f"\n[ensemble]\ncount = {count}\nsampling = {sampling}\n"
    assert main(["ensemble", _write(tmp_path, text)]) == 2
    assert capsys.readouterr().err == f"error: cannot draw {count} seed angles; lower count\n"
    assert not (out / "stats.csv").exists()


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
    (["ensemble", "{cfg}"], "\n[ensemble]\nsampling = random_circle\nseed = -1\n"),
], ids=["verify_seed_negative", "verify_points_negative", "verify_points_zero",
        "ensemble_seed_negative"])
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


@pytest.mark.parametrize("field, particle, integrator, final_time, form", [
    # far too large a step: the state overflows to nan at t = 235
    ("rigid_rotation", "r0 = 1 0 0.2\nn0 = 0 0.6 0.8\nbeta = 5", "dt = 5\nt_end = 2000", 230.0,
     "step"),
    # rk4_naive lets |n| grow; at t = 23 the state is finite but |n|^2 overflows
    ("taylor_green", "r0 = 1 2 3\nauto_tangent = true",
     "dt = 1\nt_end = 400\nmethod = rk4_naive", 22.0, "record"),
    # a stage position of the step from t = 6 overflows
    ("taylor_green", "r0 = 2.1 3.3 1.7\nauto_tangent = true",
     "dt = 2\nt_end = 800\nmethod = rk4_naive", 6.0, "step"),
    # |n| reaches 2e172 after the step from t = 4; its square overflows at renormalization
    ("taylor_green", "r0 = 2.1 3.3 1.7\nauto_tangent = true",
     "dt = 4\nt_end = 800\nmethod = rk4_naive\nrenormalize_every = 2", 4.0, "record"),
    # the same run projected onto the tangent plane instead: the projection's norm overflows
    ("taylor_green", "r0 = 2.1 3.3 1.7\nauto_tangent = true",
     "dt = 4\nt_end = 800\nmethod = rk4_naive\nproject_tangency_every = 2", 4.0, "record"),
    # the first stage position overflows to x = inf, outside the domain too (it was out_of_domain)
    ("uniform_gradient\nV0x = 1e308", "r0 = 0.1 0 0\nauto_tangent = true",
     "dt = 10\nt_end = 20", 0.0, "step"),
], ids=["state_nan", "record_overflow", "stage_overflow", "renormalize_overflow",
        "projection_overflow", "stage_overflow_bounded"])
def test_simulate_non_finite_state_terminates_early(tmp_path, capsys, monkeypatch, field,
                                                    particle, integrator, final_time, form):
    # the run stops with a reason instead of writing nan or inf rows, and the field is
    # never sampled at a position that is not finite
    seen = []
    monkeypatch.setattr("ttpsim.cli.build_provider",
                        lambda cfg: spy_positions(build_provider(cfg), seen))
    out = tmp_path / "out"
    text = (f"[field]\nname = {field}\n\n[particle]\n{particle}\n\n"
            f"[integrator]\n{integrator}\n\n[output]\ndirectory = {out}\n")
    assert main(["simulate", _write(tmp_path, text)]) == 0
    assert seen and all(map(math.isfinite, sum(seen, ())))

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
    assert summary["terminated_early"] is True
    prefix = {"step": "non_finite_state: the step from r = ",
              "record": "non_finite_state: the record at r = "}[form]
    assert summary["termination_reason"].startswith(prefix)
    assert summary["final_time"] == final_time
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 1 + summary["steps"] + 1
    assert not any("nan" in line or "inf" in line for line in lines[1:])
    assert f"terminated early ({prefix}" in capsys.readouterr().out


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


# --- CSV writer ------------------------------------------------------------------------

def _ref_write_csv(path, header, table, flag_columns=()):
    """The writer as np.savetxt: the reference bytes for _write_csv."""
    fmt = ["%d" if j in flag_columns else "%.17g" for j in range(table.shape[1])]
    np.savetxt(path, table, fmt=fmt, delimiter=",", header=header, comments="")


# subnormals, the smallest normal, the largest float, decimals that do not round-trip
# in fewer digits, the switch to an exponent between 1e16 and 1e17, and non-finite values
CSV_FLOATS = (0.0, -0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1.7976931348623157e308,
              -1.7976931348623157e308, 0.1, 1 / 3, 1e16, 1e17, math.nan, math.inf, -math.inf)
CSV_FLAGS = (0.0, 1.0, 1024.0)


@pytest.mark.parametrize("rows", [0, 1, 63, 64, 65, 129])
@pytest.mark.parametrize("width, flag_columns", [(2, ()), (6, ()), (14, (1,)), (21, (20,))],
                         ids=["order_study", "identity_sweep", "stats", "trajectory"])
def test_write_csv_matches_savetxt(tmp_path, rows, width, flag_columns):
    # blocks of rows of one % format each write the bytes np.savetxt writes, at and
    # around the block size, for every table shape the CLI writes
    from ttpsim.cli import _write_csv
    cells = np.arange(rows * width).reshape(rows, width)
    table = np.take(CSV_FLOATS, cells % len(CSV_FLOATS))
    for j in flag_columns:
        table[:, j] = np.take(CSV_FLAGS, cells[:, j] % len(CSV_FLAGS))
    header = ",".join(f"c{j}" for j in range(width))
    _write_csv(tmp_path / "block.csv", header, table, flag_columns)
    _ref_write_csv(tmp_path / "savetxt.csv", header, table, flag_columns)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()


def _write_peak_bytes(write):
    """Peak tracemalloc allocation of ``write()``, above what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_write_trajectory_csv_memory_is_bounded(tmp_path):
    # the writer formats a bounded number of rows at a time: on 20,001 rows (a 3.3 MB
    # table) it allocates no more than on 2,001, far less than the table's text
    from ttpsim import Trajectory
    from ttpsim.cli import write_trajectory_csv
    rng = np.random.default_rng(0)
    small, large = (Trajectory(rng.standard_normal((rows, Trajectory.WIDTH)))
                    for rows in (2001, 20001))
    for traj in (small, large):
        traj.table[:, Trajectory.FLAG_COLUMNS] = rng.integers(0, 2, (len(traj), 1))
    write_trajectory_csv(small, tmp_path / "warm.csv")  # first-call imports and caches
    peak_small = _write_peak_bytes(lambda: write_trajectory_csv(small, tmp_path / "s.csv"))
    peak_large = _write_peak_bytes(lambda: write_trajectory_csv(large, tmp_path / "l.csv"))
    assert peak_large < 256 * 1024
    assert peak_large <= 1.1 * peak_small + 16 * 1024


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


def _golden_config(tmp_path, case):
    text = (ROOT / "tests" / "golden" / case / "run.cfg").read_text()
    return _write(tmp_path, text.format(out=tmp_path / "out"))


def test_ensemble_reports_why_particles_stopped(tmp_path, capsys):
    # all eight particles leave the domain after 27 of 200 steps: the stats end
    # at the last output time with survivors, and the run says why
    assert main(["ensemble", _golden_config(tmp_path, "ensemble_uniform_gradient_stopped")]) == 0
    out = capsys.readouterr().out
    assert "ensemble: particles stopped early: out_of_domain 8\n" in out
    assert "ensemble: terminated early (no_survivors: all particles stopped before t = 0.3)" in out
    lines = (tmp_path / "out" / "stats.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "0.10000000000000001",
                                                         "0.20000000000000001"]


def test_ensemble_partial_survival_covers_horizon(tmp_path, capsys):
    assert main(["ensemble", _golden_config(tmp_path, "ensemble_uniform_gradient_partial")]) == 0
    out = capsys.readouterr().out
    assert "ensemble: particles stopped early: out_of_domain 5\n" in out
    assert "terminated early" not in out
    table = np.loadtxt(tmp_path / "out" / "stats.csv", delimiter=",", skiprows=1)
    assert table[:, 1].tolist() == [8, 8, 5, 3, 3]
    assert table[-1, 0] == 0.4


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the covariance overflows, unwarned
def test_ensemble_non_finite_moments_terminate_early(tmp_path, capsys):
    # u = beta v_th n is finite, but its square overflows in the covariance at t0
    text = TG_ENSEMBLE.format(out=tmp_path / "out").replace("beta = 0.5", "beta = 1e160")
    assert main(["ensemble", _write(tmp_path, text)]) == 0
    out = capsys.readouterr().out
    assert "ensemble: 16 particles, 0 output times\n" in out
    assert "terminated early (non_finite_state: the moments at t = 0.0)" in out
    assert (tmp_path / "out" / "stats.csv").read_text() == STATS_COLUMNS + "\n"


def test_ensemble_degenerate_seed_exit3(tmp_path, capsys):
    # the auto_tangent seed of simulate and the ensemble seed share one error
    text = TG_ENSEMBLE.format(out=tmp_path / "o").replace(
        "name = taylor_green", "name = uniform").replace("A = 1.0", "").replace(
        "k = 1.0", "").replace("nu = 0.0", "").replace("p0 = 1.0", "")
    cfgp = _write(tmp_path, text)
    for command in ("ensemble", "simulate"):
        assert main([command, cfgp]) == 3
        assert capsys.readouterr().err == (
            "error: pressure gradient degenerate at the seed point\n")


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


def test_verify_projected_seed_runs_both_order_studies(tmp_path, capsys):
    # project_initial projects n0 once, before any run, so the convergence study's
    # closed form gets the same tangent seed as the drift study
    out = tmp_path / "out"
    text = ("[field]\nname = rigid_rotation\n[particle]\nr0 = 1.2 0.3 0.1\nn0 = 0.3 1 0.2\n"
            "beta = 0.5\nproject_initial = true\n[integrator]\ndt = 0.02\nt_end = 0.4\n"
            f"[output]\ndirectory = {out}\n")
    assert main(["verify", _write(tmp_path, text), "--points", "5"]) == 0
    assert (out / "convergence.csv").exists()
    report = (out / "verify_report.txt").read_text()
    order = float(report.split("position error study:")[1].split("fitted order: ")[1].split()[0])
    assert 3.5 <= order <= 4.5


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


def _golden_verify_config(tmp_path, integrator_keys):
    text = (ROOT / "tests" / "golden" / "verify_rigid_rotation" / "run.cfg").read_text()
    text = text.replace("t_end = 0.4\n", "t_end = 0.4\n" + integrator_keys)
    return _write(tmp_path, text.format(out=tmp_path / "out"))


def _csv_column(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1]


def test_verify_drift_study_runs_configured_projection(tmp_path, capsys):
    # without re-projection the golden config drifts by 1.623e-06 at dt = 0.08
    cfgp = _golden_verify_config(tmp_path, "project_tangency_every = 1\n")
    assert main(["verify", cfgp, "--points", "50", "--seed", "3"]) == 0
    drift = _csv_column(tmp_path / "out" / "tangency_drift.csv")
    assert len(drift) == 3
    assert np.all(drift <= 1e-15)


def test_verify_convergence_study_runs_configured_method(tmp_path, capsys):
    cfgp = _golden_verify_config(tmp_path, "method = rk4_naive\nrenormalize_every = 1\n")
    assert main(["verify", cfgp, "--points", "50", "--seed", "3"]) == 0
    cfg = parse_config(cfgp)
    provider = build_provider(cfg)
    state0 = build_initial_state(cfg, provider)
    dts = [0.08, 0.04, 0.02]
    study = convergence_study(provider, state0, cfg.integrator, dts)
    got = _csv_column(tmp_path / "out" / "convergence.csv")
    assert got.tolist() == study.values
    # the renormalization is not a no-op here, so the comparison can tell
    plain = convergence_study(provider, state0, replace(cfg.integrator, renormalize_every=0), dts)
    assert plain.values != study.values


# --- edge values: every config exits 0, 2 or 3 ---------------------------------------------

EDGE_VALUES = (0.0, 1e-300, -1e-300, 1e-160, 1e160, 1e300, -1e300, 1.7976931348623157e308,
               -1.7976931348623157e308)
EDGE_COMMANDS = (["simulate"], ["ensemble"], ["verify", "--points", "20"])


@pytest.mark.parametrize("provider", sorted(EDGE_SEEDS))
def test_edge_value_sweep_exits_cleanly(tmp_path, provider):
    # each parameter, and beta, set alone to an extreme value under every subcommand
    # keeps the contract of conftest.edge_run_breaches.  t_end is 8 steps so that
    # verify's order studies (4, 2 and 1 dt) run too
    out_dir = tmp_path / "out"
    bad = []
    for key in [*provider_parameters(provider), "beta"]:
        for value in EDGE_VALUES:
            line = f"{key} = {value!r}\n"
            text = (f"[field]\nname = {provider}\n{line if key != 'beta' else ''}"
                    f"[particle]\n{EDGE_SEEDS[provider]}\n{line if key == 'beta' else ''}"
                    "[integrator]\ndt = 0.01\nt_end = 0.08\n[ensemble]\ncount = 4\n"
                    f"[output]\ndirectory = {out_dir}\n")
            cfgp = _write(tmp_path, text)
            for command in EDGE_COMMANDS:
                shutil.rmtree(out_dir, ignore_errors=True)
                bad += edge_run_breaches([command[0], cfgp, *command[1:]], out_dir, 0.08,
                                         f"{key} = {value!r}")
    assert not bad


def _smooth_record(m):
    """Record m of a 4^3 grid: a field with a non-degenerate pressure gradient."""
    i, j, k = m % 4, m // 4 % 4, m // 16
    return 0.1 * j, -0.1 * i, 0.05, 1.0 + 0.1 * i + 0.05 * j * j + 0.02 * k


# name: (spacing, record m -> (Vx, Vy, Vz, p1hat)) of a 4^3 grid file at the origin
GRID_EDGE_FILES = {
    **{f"spacing {h!r}": (h, _smooth_record)
       for h in (1e-320, 1e-200, 1e-160, 1e-154, 1e160, 1e200)},
    "payload alternating +-1.7e308": (1.0, lambda m: (1.7e308 * (-1) ** m,) * 4),
    "payload constant 1e308": (1.0, lambda m: (1e308,) * 4),
    "control": (1.0, _smooth_record),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("interpolation", ["tricubic", "trilinear"])
def test_grid_edge_value_files_exit_cleanly(tmp_path, interpolation):
    # a grid whose spacing or data overflow the interpolant exits 2 with one error: line
    # (it ended in ZeroDivisionError, or warned); any other runs with finite output
    out_dir = tmp_path / "out"
    bad = []
    for name, (h, record) in GRID_EDGE_FILES.items():
        grid = tmp_path / "edge.ttpgrid"
        grid.write_text(f"TTPGRID 1\ndims 4 4 4\norigin 0 0 0\nspacing {h!r} {h!r} {h!r}\n"
                        "fields V p1hat\n"
                        + "".join(" ".join(map(repr, record(m))) + "\n" for m in range(64)))
        cfgp = _write(tmp_path, f"[field]\ngrid = {grid}\ninterpolation = {interpolation}\n"
                                f"[particle]\nr0 = {1.5 * h!r} {1.5 * h!r} {1.5 * h!r}\n"
                                "auto_tangent = true\nbeta = 0.1\n"
                                "[integrator]\ndt = 0.01\nt_end = 0.08\n"
                                f"[output]\ndirectory = {out_dir}\n")
        for command in (["simulate"], ["verify", "--points", "5"]):
            shutil.rmtree(out_dir, ignore_errors=True)
            bad += edge_run_breaches([command[0], cfgp, *command[1:]], out_dir, 0.08, name)
        if name == "control":  # it ran: the sweep is not vacuous
            assert (out_dir / "verify_report.txt").exists()
    assert not bad


TAYLOR_GREEN = ("[field]\nname = taylor_green\nk = {k}\n[particle]\nr0 = 2.1 3.3 1.7\n"
                "auto_tangent = true\n[integrator]\ndt = 0.01\nt_end = 0.08\n[ensemble]\n"
                "count = 4\n[output]\ndirectory = {out}\n")


@pytest.mark.parametrize("k, code", [("5e-324", 2), ("1e-310", 2), ("3.4e-308", 2),
                                     ("3.6e-308", 0)])
def test_taylor_green_period_overflow_exit2(tmp_path, capsys, k, code):
    # below about 3.5e-308 the period 2 pi / k, the side of the reference box, overflows;
    # verify drew its points in that infinite box and ended in a traceback
    out = tmp_path / "out"
    cfgp = _write(tmp_path, TAYLOR_GREEN.format(k=k, out=out))
    assert main(["verify", cfgp, "--points", "8"]) == code
    if code:
        assert f"error: k = {float(k):g} is too small" in capsys.readouterr().err
    else:
        assert verify_non_finite(out, f"k = {k}") == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_taylor_green_largest_k_verify_warns_nothing(tmp_path):
    # H (V + u) meets inf * 0 in the cancellation check, which printed a numpy RuntimeWarning
    out = tmp_path / "out"
    cfgp = _write(tmp_path, TAYLOR_GREEN.format(k="1.7976931348623157e308", out=out))
    assert main(["verify", cfgp, "--points", "20"]) == 0
    report = (out / "verify_report.txt").read_text()
    assert "tangency cancellation check skipped: non-finite cancellation terms at r = (" in report


LAMB_OSEEN = ("[field]\nname = lamb_oseen\nrc = {rc}\n[particle]\nr0 = 0.6 -0.3 0.1\n"
              "auto_tangent = true\n[integrator]\ndt = 0.01\nt_end = 0.1\n[ensemble]\n"
              "count = 4\n[output]\ndirectory = {out}\n")


@pytest.mark.parametrize("rc, command", [
    ("1e-300", ["simulate"]), ("1e-300", ["ensemble"]), ("1e-300", ["verify"]),
    ("1e-160", ["verify", "--points", "50"]), ("1e-100", ["verify", "--points", "50"]),
])
def test_lamb_oseen_tiny_core_exit2(tmp_path, capsys, rc, command):
    # 1/rc^4, the scale of the Hessian and the core profile's derivative, overflows
    out = tmp_path / "out"
    cfgp = _write(tmp_path, LAMB_OSEEN.format(rc=rc, out=out))
    assert main([command[0], cfgp, *command[1:]]) == 2
    assert f"error: rc = {float(rc):g} is outside" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rc, code", [("5e-78", 2), ("1e-77", 0), ("4e153", 0), ("1e154", 2)])
def test_lamb_oseen_core_radius_range_ends_verify(tmp_path, capsys, rc, code):
    # outside the range some fields of the reference box overflow, so it exits 2;
    # inside, verify writes only finite values
    out = tmp_path / "out"
    cfgp = _write(tmp_path, LAMB_OSEEN.format(rc=rc, out=out))
    assert main(["verify", cfgp, "--points", "50"]) == code
    if code:
        assert f"error: rc = {float(rc):g} is outside" in capsys.readouterr().err
    else:
        assert verify_non_finite(out, f"rc = {rc}") == []
        assert "non-finite" not in (out / "verify_report.txt").read_text()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lamb_oseen_small_core_runs(tmp_path, capsys):
    out = tmp_path / "out"
    cfgp = _write(tmp_path, LAMB_OSEEN.format(rc="1e-76", out=out))
    assert main(["verify", cfgp, "--points", "50"]) == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("nu", ["1e160", "1e300"])
def test_taylor_green_huge_viscosity_verify_skips_identity_sweep(tmp_path, capsys, nu):
    # the sweep samples at t0 - h, where the decay factor F^2 = exp(-4 nu k^2 t) overflows
    out = tmp_path / "out"
    text = (f"[field]\nname = taylor_green\nnu = {nu}\n[particle]\nr0 = 2.1 3.3 1.7\n"
            "auto_tangent = true\n[integrator]\ndt = 0.01\nt_end = 0.08\n"
            f"[output]\ndirectory = {out}\n")
    assert main(["verify", _write(tmp_path, text), "--points", "20"]) == 0
    report = (out / "verify_report.txt").read_text()
    assert ("rotation-rate identity sweep skipped: Taylor-Green decay factor F(t)^2 is "
            "not finite at t = -1e-05") in report
    # |dg/dt| overflows in the cancellation normalizer, which used to print a residual of 0
    assert "tangency cancellation check skipped: non-finite cancellation terms at r = (" in report
    assert "tangency cancellation residual" not in report
    assert "reduced-state RHS divergence over 20 states" in report
    assert "tangency drift study:" in report
    assert not (out / "omega_identity.csv").exists()


HUGE_SEED = ("[field]\nname = rigid_rotation\np0 = 1e160\n[particle]\nr0 = 1.2 0.3 0.1\n"
             "auto_tangent = true\nbeta = 1e300\n[integrator]\ndt = 0.01\nt_end = 0.08\n"
             "[ensemble]\ncount = 4\n[output]\ndirectory = {out}\n")


@pytest.mark.parametrize("command, table", [
    (["simulate"], "trajectory.csv"), (["ensemble"], "stats.csv"),
    (["verify", "--points", "20"], None)], ids=["simulate", "ensemble", "verify"])
def test_non_finite_seed_record_is_rejected(tmp_path, capsys, command, table):
    # beta v_th = 1e300 * sqrt(2e160) overflows, so the seed's u is (-inf, inf, nan)
    out = tmp_path / "out"
    code = main([command[0], _write(tmp_path, HUGE_SEED.format(out=out)), *command[1:]])
    message = "the seed record at r = (1.2, 0.3, 0.1), n = ("
    if table:
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (out / table).exists()
    else:
        assert code == 0
        report = (out / "verify_report.txt").read_text()
        assert f"tangency drift study skipped: {message}" in report
        assert f"convergence study skipped: {message}" in report


@pytest.mark.parametrize("direction", ["n0 = 0 0 1", "auto_tangent = true"])
def test_overflowing_gradient_norm_keeps_unit_normal(tmp_path, capsys, direction):
    # |grad p1hat|^2 overflows at c = 1e160: the seed record used to hold b = (0, 0, 0)
    # with the degenerate flag 0, and auto_tangent exited 2 with n = (nan, nan, nan)
    out = tmp_path / "out"
    text = (f"[field]\nname = rigid_rotation\nc = 1e160\n[particle]\nr0 = 1.2 0.3 0.1\n"
            f"{direction}\n[integrator]\ndt = 0.01\nt_end = 0.08\n"
            f"[output]\ndirectory = {out}\n")
    assert main(["simulate", _write(tmp_path, text)]) == 0
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    col = TRAJECTORY_COLUMNS.split(",").index
    b = rows[0, col("bx"):col("bz") + 1]
    assert abs(np.linalg.norm(b) - 1.0) <= 1e-15
    assert rows[0, col("degenerate_flag")] == 0.0
    assert np.all(np.isfinite(rows))
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["final_time"] == 0.08
            or summary["termination_reason"].startswith("non_finite_state: "))
    assert "not finite" not in capsys.readouterr().err


@pytest.mark.parametrize("command", [["simulate"], ["verify", "--points", "20"]],
                         ids=["simulate", "verify"])
@pytest.mark.parametrize("gz", ["1e160", "-1e300"])
def test_uniform_gradient_overflowing_norm_exit2(tmp_path, capsys, gz, command):
    # |g|^2 overflows, so the domain half-width p0 / (2 sqrt(3) |g|) would be 0
    out = tmp_path / "out"
    text = (f"[field]\nname = uniform_gradient\ngz = {gz}\n[particle]\nr0 = 0 0 0\n"
            "auto_tangent = true\n[integrator]\ndt = 0.01\nt_end = 0.08\n"
            f"[output]\ndirectory = {out}\n")
    assert main([command[0], _write(tmp_path, text), *command[1:]]) == 2
    assert "error: |g| = inf must be nonzero and finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_non_finite_identity_residuals_skip_sweep(tmp_path, capsys):
    # |omega_direct| overflows at omega = 1e160: every row used to hold nan
    out = tmp_path / "out"
    text = ("[field]\nname = rigid_rotation\nomega = 1e160\n[particle]\nr0 = 1.2 0.3 0.1\n"
            "auto_tangent = true\n[integrator]\ndt = 0.01\nt_end = 0.08\n"
            f"[output]\ndirectory = {out}\n")
    assert main(["verify", _write(tmp_path, text), "--points", "20"]) == 0
    report = (out / "verify_report.txt").read_text()
    assert "rotation-rate identity sweep skipped: non-finite rotation-rate residuals at r = (" \
        in report
    # a non-finite cancellation term no longer drops the finite divergence report
    assert "tangency cancellation check skipped: non-finite cancellation terms at r = (" \
        in report
    assert ("reduced-state RHS divergence over 20 states (diagnostic, no threshold): "
            "max 0.000e+00 median 0.000e+00") in report
    assert "nan" not in report
    assert not (out / "omega_identity.csv").exists()


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


@pytest.mark.parametrize("flag", ["--h", "--tol"])
def test_fields_check_has_no_step_or_tolerance_flag(capsys, flag):
    # the audit runs at the fixed h = 1e-4 and tol = 1e-5
    with pytest.raises(SystemExit) as stop:
        main(["fields", "--check", "taylor_green", flag, "1e-4"])
    assert stop.value.code == 2
    assert f"unrecognized arguments: {flag} 1e-4" in capsys.readouterr().err


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


@pytest.mark.parametrize("workload", ["trajectory", "grid", "ensemble", "verify"])
def test_benchmark_self_check(tmp_path, workload):
    # the traced benchmark pins the call counts of each workload: one full sample per
    # record plus the seed (steps + 2 on trajectory and grid), the verify studies (12
    # state_rhs calls per divergence state, one omega_direct per omega_decomposed, ...)
    # and the ensemble's steps counted on the trajectories evolve_ensemble returns;
    # run its smallest traced job and require its self-check to pass
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--size", "tiny", "--seed", "7", "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert report["trace"]["self_check"]["mismatches"] == []
    assert result["correct"] is True
