"""Correctness gates on a job's output files, and their SHA-256 digests.

Tolerances are the acceptance suite's, unchanged.  Each ``check_*`` returns
``(attempted, failed, breaches)``: the operations the job attempted (one per
particle trajectory or per verify study), how many of them breached a gate,
and one line per breach.  The column layouts are fixed here rather than
imported, so a changed output format fails the gates.
"""

import hashlib
import json
import math
import os
import re

import numpy as np

from workloads import taylor_green

SPEED_RTOL = 1e-13       # criterion 1: | |u| - beta v_th | / (beta v_th)
NORM_TOL = 1e-12         # criterion 2: | |n| - 1 |
MOMENT_RTOL = 1e-13      # criterion 6
CANCEL_TOL = 1e-12       # criterion 3a
FD_TOL = 1e-6            # criterion 5
ORDER_RANGE = (3.5, 4.5)  # criterion 3b, and the convergence order

TRAJECTORY_COLUMNS = ("t,rx,ry,rz,nx,ny,nz,ux,uy,uz,vx,vy,vz,vth,p1hat,"
                      "bx,by,bz,n_dot_b,norm_err,degenerate_flag")
STATS_COLUMNS = ("t,n_effective,mean_vx,mean_vy,mean_vz,mean_ux,mean_uy,mean_uz,"
                 "cov_uxx,cov_uxy,cov_uxz,cov_uyy,cov_uyz,cov_uzz")


def digests(directory):
    """{file name: sha256 hex} for every regular file directly in ``directory``."""
    out = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def operations(spec):
    """Operations one job attempts: particle trajectories, or verify studies."""
    if spec["workload"] == "verify":
        return len(_VERIFY_PATTERNS)
    return spec.get("count", 1)


def _load_csv(path, columns):
    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip()
    if header != columns:
        raise ValueError(f"{os.path.basename(path)}: unexpected header {header!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_trajectory(outdir, spec):
    """simulate: full horizon, unit norm and |u| = beta v_th on every row."""
    fails = []
    try:
        with open(os.path.join(outdir, "summary.json"), encoding="ascii") as fh:
            summary = json.load(fh)
        rows = _load_csv(os.path.join(outdir, "trajectory.csv"), TRAJECTORY_COLUMNS)
    except (OSError, ValueError) as err:
        return 1, 1, [f"unreadable output ({err})"]
    if len(rows) == 0:
        return 1, 1, ["trajectory.csv has no rows"]
    if summary["steps"] != spec["steps"] or summary["terminated_early"]:
        fails.append(f"{summary['steps']} of {spec['steps']} steps, "
                     f"reason {summary['termination_reason']!r}")
    if len(rows) != spec["steps"] + 1 or rows[-1, 0] != spec["t_end"]:
        fails.append(f"{len(rows)} rows ending at t={rows[-1, 0]!r}, "
                     f"expected {spec['steps'] + 1} ending at {spec['t_end']!r}")
    if not summary["max_norm_err"] <= NORM_TOL or not np.all(rows[:, 19] <= NORM_TOL):
        fails.append(f"max | |n|-1 | {summary['max_norm_err']:.3e} > {NORM_TOL:g}")
    bv = spec["beta"] * rows[:, 13]
    speed_err = np.abs(np.linalg.norm(rows[:, 7:10], axis=1) - bv) / bv
    worst = float(np.max(speed_err))
    if not worst <= SPEED_RTOL:
        fails.append(f"| |u| - beta v_th | / (beta v_th) = {worst:.3e} "
                     f"> {SPEED_RTOL:g} on {int(np.sum(~(speed_err <= SPEED_RTOL)))} rows")
    return 1, int(bool(fails)), fails


def check_ensemble(outdir, spec):
    """ensemble: n_effective == count on every row; moments at t0 reconstruct the fluid."""
    count = spec["count"]
    try:
        rows = _load_csv(os.path.join(outdir, "stats.csv"), STATS_COLUMNS)
    except (OSError, ValueError) as err:
        return count, count, [f"unreadable output ({err})"]
    if len(rows) == 0:
        return count, count, ["stats.csv has no rows"]
    fails = []
    expected_rows = len(range(0, spec["steps"] + 1, spec["stride"]))
    expected_rows += spec["steps"] % spec["stride"] != 0
    if len(rows) != expected_rows or not np.all(rows[:, 1] == count):
        fails.append(f"n_effective {rows[:, 1].tolist()} over {len(rows)} rows, "
                     f"expected {count} on {expected_rows} rows")
    first = rows[0]
    V, p1, g = taylor_green(*np.asarray(spec["r0"]))
    b = g / np.linalg.norm(g)
    bv2 = spec["beta"] ** 2 * 2.0 * p1
    v_err = float(np.linalg.norm(first[2:5] - V))
    v_tol = MOMENT_RTOL * float(np.linalg.norm(V)) + 1e-14
    if first[0] != spec["t0"] or not v_err <= v_tol:
        fails.append(f"|mean_v - V| at t0 = {v_err:.3e} > {v_tol:.3e}")
    c = first[8:14]
    cov = np.array(((c[0], c[1], c[2]), (c[1], c[3], c[4]), (c[2], c[4], c[5])))
    c_err = float(np.max(np.abs(cov - 0.5 * bv2 * (np.eye(3) - np.outer(b, b)))))
    if not c_err <= MOMENT_RTOL * bv2:
        fails.append(f"covariance error at t0 = {c_err:.3e} > {MOMENT_RTOL * bv2:.3e}")
    # a breach of an ensemble-wide gate fails every particle of the ensemble
    return count, count if fails else 0, fails


_VERIFY_PATTERNS = {
    "omega_identity_sweep": (r"finite-difference residual\s+max (\S+)",
                             lambda v: v < FD_TOL, f"< {FD_TOL:g}"),
    "cancellation_check": (r"tangency cancellation residual \(max over \d+ states\): (\S+)",
                           lambda v: v <= CANCEL_TOL, f"<= {CANCEL_TOL:g}"),
    "reduced_divergence_report": (r"reduced-state RHS divergence over \d+ states.*max (\S+)",
                                  math.isfinite, "finite"),
    "tangency_drift_study": (r"tangency drift study:(?:\n .*)*?\n  fitted order: (\S+)",
                             lambda v: ORDER_RANGE[0] <= v <= ORDER_RANGE[1],
                             f"in {list(ORDER_RANGE)}"),
    "convergence_study": (r"position error study:(?:\n .*)*?\n  fitted order: (\S+)",
                          lambda v: ORDER_RANGE[0] <= v <= ORDER_RANGE[1],
                          f"in {list(ORDER_RANGE)}"),
}


def verify_values(text):
    """{study: reported figure or None} parsed from verify_report.txt."""
    out = {}
    for study, (pattern, _, _) in _VERIFY_PATTERNS.items():
        m = re.search(pattern, text)
        try:
            out[study] = float(m.group(1)) if m else None
        except ValueError:
            out[study] = None
    return out


def verify_state_counts(text):
    """(points kept by the identity sweep, states in the divergence report)."""
    kept = re.search(r"points evaluated (\d+) /", text)
    div = re.search(r"reduced-state RHS divergence over (\d+) states", text)
    return (int(kept.group(1)) if kept else None, int(div.group(1)) if div else None)


def check_verify(outdir, spec):
    """verify: the five studies, one operation each."""
    ops = len(_VERIFY_PATTERNS)
    try:
        with open(os.path.join(outdir, "verify_report.txt"), encoding="ascii") as fh:
            text = fh.read()
    except OSError as err:
        return ops, ops, [f"unreadable output ({err})"]
    fails = []
    for study, value in verify_values(text).items():
        _, ok, need = _VERIFY_PATTERNS[study]
        if value is None or not ok(value):
            fails.append(f"{study} reported {value}, needs {need}")
    return ops, len(fails), fails


CHECKS = {"trajectory": check_trajectory, "grid": check_trajectory,
          "ensemble": check_ensemble, "verify": check_verify}

