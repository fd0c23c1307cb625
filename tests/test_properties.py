"""Property tests: the invariants and the stop contract over drawn runs.

Each example draws an analytic provider and its parameters, a seed point in
its reference box, a direction tangent to the isobaric surface there,
``beta``, ``dt`` (up to 30, far past stability), the method and the
renormalization and tangency-projection periods.  Whatever
the run does, it must either cover its horizon or stop with a recorded
reason, and every record it keeps must be finite and consistent.

The CLI fuzz test draws whole run configurations with values at the edges
of the floats and holds every subcommand to the edge sweep's contract.  It
steers its search toward accepted configs with the largest k, p0 and beta.
"""

import json
import math
import pathlib
import tempfile
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, settings, target
from hypothesis import strategies as st

from ttpsim import (IntegratorConfig, LambOseenField, RigidRotationField, TaylorGreenField,
                    TtpState, UniformField, UniformGradientField, integrate_trajectory,
                    isobaric_normal, tangent_frame)
from ttpsim import ValidationError, provider_parameters
from ttpsim.cli import SCHEMA, build_provider, parse_config
from ttpsim.errors import TtpsimError
from ttpsim.integrate import step_count

from conftest import EDGE_SEEDS, edge_run_breaches

REASONS = ("out_of_domain: ", "negative_pressure: ", "non_finite_state: ")


def _real(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# zero or well above underflow: |u|^2 must not go subnormal in the checks
_pressure = st.just(0.0) | _real(0.01, 2)


def _velocity(draw):
    return {key: draw(_real(-2, 2)) for key in ("V0x", "V0y", "V0z")}


@st.composite
def _providers(draw):
    name = draw(st.sampled_from(("uniform", "uniform_gradient", "rigid_rotation",
                                 "taylor_green", "lamb_oseen")))
    if name == "uniform":
        return UniformField(p0=draw(_pressure), **_velocity(draw))
    if name == "uniform_gradient":
        return UniformGradientField(p0=draw(_real(0.1, 4)), gx=draw(_real(-2, 2)),
                                    gy=draw(_real(-2, 2)), gz=draw(_real(0.1, 2)),
                                    **_velocity(draw))
    if name == "rigid_rotation":
        return RigidRotationField(omega=draw(_real(-3, 3)), p0=draw(_pressure),
                                  c=draw(_real(0.01, 3)))
    if name == "taylor_green":
        A = draw(_real(-2, 2))
        return TaylorGreenField(A=A, k=draw(_real(0.2, 3)), nu=draw(_real(0, 1)),
                                p0=0.5 * A * A + draw(_real(0.01, 2)))
    p0 = draw(_real(0.1, 3))
    return LambOseenField(Gamma=draw(_real(-3, 3)), rc=draw(_real(0.2, 2)),
                          W=draw(_real(-1, 1)), p0=p0, pa=p0 * draw(_real(0, 0.95)))


@st.composite
def _runs(draw):
    provider = draw(_providers())
    lo, hi = provider.reference_box
    r0 = lo + (hi - lo) * np.array([draw(_real(0.05, 0.95)) for _ in range(3)])
    phi = draw(_real(0, 2 * math.pi))
    b = isobaric_normal(provider.sample(r0, 0.0))
    if b is None:  # degenerate gradient: any direction is tangent
        e1, e2 = np.array((1.0, 0.0, 0.0)), np.array((0.0, 1.0, 0.0))
    else:
        e1, e2 = tangent_frame(b)
    state = TtpState(t=0.0, r=r0, n=math.cos(phi) * e1 + math.sin(phi) * e2,
                     beta=draw(st.just(0.0) | _real(1e-3, 3)))
    dt = draw(_real(1e-3, 30))
    config = IntegratorConfig(dt=dt, t_end=dt * draw(st.integers(1, 40)),
                              method=draw(st.sampled_from(("rk4_rodrigues", "rk4_naive"))),
                              renormalize_every=draw(st.integers(0, 4)),
                              project_tangency_every=draw(st.integers(0, 4)))
    return provider, state, config


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_runs())
def test_run_covers_horizon_or_records_reason(run):
    provider, state, config = run
    traj = integrate_trajectory(state, provider, config)
    s = traj.summary
    n_steps = step_count(0.0, config.t_end, config.dt)
    if s.terminated_early:
        assert s.termination_reason.startswith(REASONS), s.termination_reason
        assert s.steps < n_steps
    else:
        assert s.termination_reason == ""
        assert s.steps == n_steps
    assert len(traj) == s.steps + 1
    assert np.all(np.isfinite(traj.table))
    assert np.all(np.any(traj.n != 0.0, axis=1))  # no direction silently zeroed
    json.dumps(asdict(s), allow_nan=False)

    # each record's relative velocity is beta v_th along its direction
    assert np.array_equal(traj.u, (state.beta * traj.v_th)[:, None] * traj.n)
    if config.method == "rk4_rodrigues":
        # the direction stays a unit vector, so |u| = beta v_th on every record
        assert np.max(traj.norm_err) <= 1e-15
        speed = np.hypot(np.hypot(traj.u[:, 0], traj.u[:, 1]), traj.u[:, 2])  # no overflow
        np.testing.assert_allclose(speed, state.beta * traj.v_th, rtol=4e-15, atol=0)


# --- the CLI fuzz test ----------------------------------------------------------------------

MAX = 1.7976931348623157e308
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-300, -1e-300, 1e160, -1e160, 1e300,
               -1e300, MAX, -MAX)
_floats = st.sampled_from(EDGE_FLOATS + (0.01, 0.08, 0.5, 1.0, 2.0, -1.5)) | _real(-4, 4)
_ints = st.sampled_from((0, 1, 3, 4, -1, 2**63, 10**12))
_texts = {"method": ("rk4_rodrigues", "rk4_naive", "rk4"),
          "sampling": ("equispaced_circle", "random_circle", "grid")}
# [particle], [integrator], [ensemble] and [output] keys that a draw may set, by parser
_DRAWN = {key: parse.__name__ for section in ("particle", "integrator", "ensemble", "output")
          for key, parse in SCHEMA[section].items() if key != "directory"}
_SECTION = {key: section for section, keys in SCHEMA.items() for key in keys}
_BASE = {"integrator": {"dt": "0.01", "t_end": "0.08"}, "ensemble": {"count": "4"}}
FUZZ_STEPS = 16  # a longer horizon is drawn again, to keep the test short


def _value(draw, parser, key):
    if parser == "_parse_vec3":
        return " ".join(repr(draw(_floats)) for _ in range(3))
    if parser == "_parse_bool":
        return draw(st.sampled_from(("true", "false")))
    if parser in ("_parse_int", "_parse_count"):
        return str(draw(_ints))
    if parser == "_text":
        return draw(st.sampled_from(_texts[key]))
    return repr(draw(_floats))


@st.composite
def _cli_runs(draw):
    command = draw(st.sampled_from((["simulate"], ["ensemble"], ["verify", "--points", "8"])))
    provider = draw(st.sampled_from(sorted(EDGE_SEEDS)))
    sections = {"field": {"name": provider},
                "particle": dict(line.split(" = ") for line in EDGE_SEEDS[provider].split("\n"))}
    sections |= {name: dict(keys) for name, keys in _BASE.items()}
    for key in draw(st.lists(st.sampled_from(sorted(provider_parameters(provider))), unique=True)):
        sections["field"][key] = repr(draw(_floats))
    for key in draw(st.lists(st.sampled_from(sorted(_DRAWN)), unique=True, max_size=3)):
        sections.setdefault(_SECTION[key], {})[key] = _value(draw, _DRAWN[key], key)
    # giving both n0 and auto_tangent exits 2 before anything runs: keep one of them
    if sections["particle"].get("n0") and sections["particle"].get("auto_tangent"):
        del sections["particle"][draw(st.sampled_from(("n0", "auto_tangent")))]
    return command, sections


def _last_time(integrator):
    """t0 + steps dt, the time of the horizon's last record; None where parsing rejects it."""
    t0, dt, t_end = (float(integrator.get(k, "0")) for k in ("t0", "dt", "t_end"))
    if not dt > 0.0:
        return None
    try:
        steps = step_count(t0, t_end, dt)
    except ValidationError:
        return None
    assume(steps <= FUZZ_STEPS)
    return t0 + steps * dt


def _steer(cfg, sections):
    """Steer the search toward accepted configs whose k, p0 or beta is at the largest floats.

    For a config that parses and builds its provider, one ``hypothesis.target``
    per drawn key of these: log2 of its magnitude, or -1100 for zero.  The
    search then spends its examples' second half mutating the accepted
    configs with the largest values, so fewer examples exit 2 before they run.
    """
    try:
        build_provider(parse_config(cfg))
    except TtpsimError:
        return
    for section, key in (("field", "k"), ("field", "p0"), ("particle", "beta")):
        if key in sections.get(section, {}):
            v = abs(float(sections[section][key]))
            target(math.log2(v) if v else -1100.0, label=key)


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(_cli_runs())
def test_cli_fuzz_keeps_the_edge_contract(run):
    # exit 0, 2 or 3; error: on a non-zero exit; finite outputs and a horizon that is
    # reached or explained on exit 0 (conftest.edge_run_breaches)
    command, sections = run
    t_last = _last_time(sections["integrator"])
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = pathlib.Path(tmp) / "out"
        sections["output"] = sections.get("output", {}) | {"directory": str(out_dir)}
        text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                       for name, keys in sections.items())
        cfg = pathlib.Path(tmp) / "run.cfg"
        cfg.write_text(text)
        _steer(str(cfg), sections)
        assert edge_run_breaches([command[0], str(cfg), *command[1:]], out_dir, t_last,
                                 text) == []
