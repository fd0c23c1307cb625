"""ttpsim benchmark harness: one workload, one seed, end-to-end or traced.

Run from the root of a ttpsim checkout:

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 20 --trace 0

It writes the workload's inputs from the seed under ``.perfbench_work/``,
then runs ttpsim jobs one after another (a closed loop with one client), each
in a fresh interpreter that calls ``ttpsim.cli.main`` once, until
``--seconds`` are used.  The first job warms the file cache and is not
timed.  Every job's outputs are digested and checked against the gates in
``gates.py``.  With ``--trace 0`` the jobs are untraced and the medians of
the end-to-end metrics are reported, with times scaled to the reference
speed that ``calib.py`` measures next to every job; with ``--trace 1`` a
share of the time runs untraced jobs and the rest runs traced jobs, which
give the per-layer metrics, the tracer's count self-check and the tracing
overhead.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it is the report: machine context, inputs, the spread of
every metric, output digests, gate breaches and, when traced, the whole
per-function table and the self-check.  The same report, with the
per-parent rows, the outer spans and every job's timings added, is written
to ``.perfbench_work/reports/``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import calib
import gates
import workloads
from tracer import calls_from, function_totals

HERE = os.path.dirname(os.path.abspath(__file__))
JOB = os.path.join(HERE, "job.py")
WORK = ".perfbench_work"
JOB_TIMEOUT_S = 150
UNTRACED_SHARE = 0.4      # of --seconds, in a traced run
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "particle_steps_per_s": "1/s",
              "peak_rss_mb": "MB"}
# This host's speed drifts by tens of percent over seconds to minutes, for
# any CPU-bound Python code alike.  Each job times calib.kernel() right before
# and after its ttpsim call, and the times are scaled by
# calib.NOMINAL_S / (that reference time): seconds at the reference speed.
# Over five 20-s verify runs this cut the spread (IQR/median) of the median
# wall time from 0.25 to 0.04.  The result reports the median over the timed
# jobs of each scaled metric; the report line also has the unscaled figures.
def scaled(job):
    """{end-to-end metric: value} of one job, times at the reference speed."""
    k = calib.NOMINAL_S / job["ref_s"]
    return {"wall_s": job["wall_s"] * k, "setup_s": job["setup_s"] * k,
            "particle_steps_per_s": job["steps"] / (job["solve_s"] * k),
            "peak_rss_mb": job["peak_rss_mb"]}


def unscaled(job):
    """The same times as measured, and the reference time they are scaled by."""
    return {"wall_s": job["wall_s"], "setup_s": job["setup_s"],
            "particle_steps_per_s": job["steps"] / job["solve_s"],
            "ref_s": job["ref_s"]}

# Per-layer metrics printed on every workload.  Call counts are listed for
# every traced function; times only for functions that every workload calls,
# so no reported time is identically zero.  The full table, workload-specific
# times included, is in the report line.
COUNTED = ("fields.sample", "fields.sample_kinetic", "fields.load_grid",
           "kinetics.stage_eval", "kinetics.rhs_terms", "kinetics.state_rhs",
           "kinetics.omega_direct", "kinetics.omega_decomposed",
           "integrate.integrate_trajectory",
           "ensemble.seed_tangent_circle", "ensemble.evolve_ensemble",
           "verify.omega_identity_sweep", "verify.cancellation_check",
           "verify.reduced_divergence_report", "verify.tangency_drift_study",
           "verify.convergence_study",
           "cli.parse_config", "cli.write_trajectory_csv", "cli.write_stats_csv")
TIMED = ("fields.sample", "fields.sample_kinetic", "kinetics.stage_eval",
         "kinetics.rhs_terms", "integrate.integrate_trajectory")
LAYERS = ("fields", "kinetics", "integrate", "ensemble", "cli")


def per_layer(job):
    """{metric: (value, unit)} from one traced job."""
    tr = job["trace"]
    totals = function_totals(tr["rows"])
    zero = (0, 0.0, 0.0)
    m = {f"{n}.calls": (totals.get(n, zero)[0], "count") for n in COUNTED}
    steps = tr["steps"]
    evals = totals.get("fields.sample", zero)[0] + totals.get("fields.sample_kinetic", zero)[0]
    m["integrate.steps"] = (steps, "count")
    m["integrate.evals_per_step"] = (evals / steps if steps else 0.0, "evals/step")
    m["ensemble.retained_bytes"] = (tr["retained_bytes"], "B")
    m["cli.bytes_written"] = (job["bytes_written"], "B")
    for n in TIMED:
        m[f"{n}.total_s"] = (totals.get(n, zero)[1], "s")
        m[f"{n}.self_s"] = (totals.get(n, zero)[2], "s")
    m["cli.parse_config.total_s"] = (totals.get("cli.parse_config", zero)[1], "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(v[2] for k, v in totals.items()
                                    if k.split(".", 1)[0] == layer), "s")
    m["trace.wall_s"] = (job["wall_s"], "s")
    return m


def self_check(spec, job, verify_text):
    """Tracer counts against the step structure; a list of mismatches."""
    tr = job["trace"]
    rows, steps = tr["rows"], tr["steps"]
    totals = function_totals(rows)
    calls = lambda n: totals.get(n, (0,))[0]  # noqa: E731
    bad = []

    def expect(label, got, want):
        if got != want:
            bad.append(f"{label}: {got} != {want}")

    trajectories = calls("integrate.integrate_trajectory")
    expect("kinetics.stage_eval.calls == 3 x integrate.steps",
           calls("kinetics.stage_eval"), 3 * steps)
    expect("fields.sample_kinetic.calls == 3 x integrate.steps",
           calls("fields.sample_kinetic"), 3 * steps)
    expect("kinetics.rhs_terms calls from integrate_trajectory == steps + trajectories",
           calls_from(rows, "kinetics.rhs_terms", "integrate.integrate_trajectory"),
           steps + trajectories)
    # provider samples other than the default sample_kinetic's own
    direct = calls_from(rows, "fields.sample", exclude_parent="fields.sample_kinetic")
    w = spec["workload"]
    if w in ("trajectory", "grid"):
        expect("integrate.integrate_trajectory.calls", trajectories, 1)
        expect("integrate.steps", steps, spec["steps"])
        # one for the auto_tangent seed, one for the initial record, one per step
        expect("fields.sample.calls (not from sample_kinetic) == steps + 2",
               direct, steps + 2)
        expect("fields.load_grid.calls", calls("fields.load_grid"), int(w == "grid"))
    elif w == "ensemble":
        expect("integrate.integrate_trajectory.calls", trajectories, spec["count"])
        expect("integrate.steps", steps, spec["count"] * spec["steps"])
        expect("fields.sample.calls (not from sample_kinetic) == steps + count + 1",
               direct, steps + spec["count"] + 1)
        expect("ensemble.seed_tangent_circle.calls", calls("ensemble.seed_tangent_circle"), 1)
        expect("ensemble.evolve_ensemble.calls", calls("ensemble.evolve_ensemble"), 1)
    elif w == "verify":
        for study in ("omega_identity_sweep", "cancellation_check",
                      "reduced_divergence_report", "tangency_drift_study",
                      "convergence_study"):
            expect(f"verify.{study}.calls", calls(f"verify.{study}"), 1)
        n = spec["steps"]
        expect("integrate.integrate_trajectory.calls", trajectories, 6)
        expect("integrate.steps", steps, 2 * (n // 4 + n // 2 + n))
        kept, div_states = gates.verify_state_counts(verify_text)
        expect("kinetics.state_rhs.calls == 12 x divergence states",
               calls("kinetics.state_rhs"), 12 * (div_states or 0))
        expect("kinetics.rhs_terms calls from state_rhs == state_rhs calls",
               calls_from(rows, "kinetics.rhs_terms", "kinetics.state_rhs"),
               calls("kinetics.state_rhs"))
        expect("kinetics.omega_decomposed.calls == identity-sweep points kept",
               calls("kinetics.omega_decomposed"), kept)
        expect("kinetics.omega_direct calls from omega_decomposed == points kept",
               calls_from(rows, "kinetics.omega_direct", "kinetics.omega_decomposed"), kept)
    return bad


# --- machine context -----------------------------------------------------------

def _git_commit():
    try:
        with open(os.path.join(".git", "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.isfile(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _tree_sha256(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError, ValueError):
        return "unknown"


def machine_context(seed):
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "seed": seed,
            "git_commit": _git_commit(), "src_sha256": _tree_sha256("src"),
            "child_env": {v: "1" for v in THREAD_VARS}}


# --- jobs --------------------------------------------------------------------------

class Ledger:
    """Runs jobs for one workload and keeps their timings and gate results."""

    def __init__(self, spec, workdir):
        self.spec = spec
        self.workdir = workdir
        self.jobs = []
        self.breaches = []
        self._gate_cache = {}   # output digests -> gate result
        self.env = dict(os.environ)
        self.env.update({v: "1" for v in THREAD_VARS})
        self.env["PYTHONHASHSEED"] = "0"

    def run_job(self, trace):
        spec, outdir = self.spec, self.spec["outdir"]
        shutil.rmtree(outdir, ignore_errors=True)
        spec_path = os.path.join(self.workdir, "job.json")
        result_path = os.path.join(self.workdir, "result.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(dict(spec, trace=trace), fh)
        if os.path.exists(result_path):
            os.remove(result_path)
        job = {"trace": None}
        problem = None
        try:
            proc = subprocess.run([sys.executable, JOB, spec_path, result_path],
                                  env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            problem = f"job exceeded {JOB_TIMEOUT_S} s"
        else:
            if proc.returncode != 0:
                problem = f"job interpreter exit {proc.returncode}: {proc.stderr[-2000:]}"
            else:
                with open(result_path, encoding="utf-8") as fh:
                    job.update(json.load(fh))
                if job["error"]:
                    problem = job["error"]
                elif job["rc"] != 0:
                    problem = f"ttpsim exit code {job['rc']}"
        job["ok"] = problem is None
        ops = gates.operations(spec)
        if not job["ok"]:
            job.update(attempted=ops, failed=ops)
            self.breaches.append(f"job {len(self.jobs)}: {problem}")
        else:
            job["digests"] = gates.digests(outdir)
            job["bytes_written"] = sum(os.path.getsize(os.path.join(outdir, f))
                                       for f in job["digests"])
            key = json.dumps(job["digests"], sort_keys=True)
            if key not in self._gate_cache:
                self._gate_cache[key] = gates.CHECKS[spec["workload"]](outdir, spec)
            attempted, failed, fails = self._gate_cache[key]
            if spec["workload"] != "verify":
                failed = max(failed, job["particle_failures"])
                if job["particle_failures"]:
                    fails = fails + [f"{job['particle_failures']} particles ended short "
                                     f"or with | |n|-1 | > {gates.NORM_TOL:g}"]
            job.update(attempted=attempted, failed=failed)
            self.breaches += [f"job {len(self.jobs)}: {f}" for f in fails]
        self.jobs.append(job)
        return job

    def run_phase(self, trace, until, min_jobs):
        """Jobs until the next one would end after ``until``; at least ``min_jobs``."""
        start = time.perf_counter()
        jobs = []
        while True:
            jobs.append(self.run_job(trace))
            if not jobs[-1]["ok"]:
                break
            now = time.perf_counter()
            if len(jobs) >= min_jobs and now + (now - start) / len(jobs) > until:
                break
        return jobs

    def distinct_outputs(self):
        return {json.dumps(j["digests"], sort_keys=True) for j in self.jobs if j["ok"]}


def verify_text(spec):
    """The last job's verify report; every job's outputs are identical or flagged."""
    path = os.path.join(spec["outdir"], "verify_report.txt")
    if spec["workload"] != "verify" or not os.path.isfile(path):
        return ""
    with open(path, encoding="ascii") as fh:
        return fh.read()


def spread(values):
    """Median, quartiles, extremes and count of a list of numbers."""
    values = list(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "min": min(values), "max": max(values), "n": len(values)}


def end_to_end(jobs, metric=scaled):
    """Spread of each metric over the successful jobs."""
    rows = [metric(j) for j in jobs if j["ok"]]
    return {k: spread(r[k] for r in rows) for k in rows[0]} if rows else {}


def traced_metrics(spec, traced, e2e):
    """(per-layer metrics or None, self-check mismatches, trace report)."""
    ok = [j for j in traced if j["ok"]]
    if not ok or "wall_s" not in e2e:
        return None, ["no successful traced and untraced jobs"], {}
    layer = [per_layer(j) for j in ok]
    counts = [{k: v for k, v in m.items() if v[1] != "s"} for m in layer]
    checks = self_check(spec, ok[0], verify_text(spec))
    if any(c != counts[0] for c in counts):
        checks.append("counts differ between traced jobs")
    # counts repeat exactly (checked above); times are medians over traced jobs
    metrics = {k: {"value": statistics.median(m[k][0] for m in layer) if u == "s" else v,
                   "unit": u} for k, (v, u) in layer[0].items()}
    # both walls at the reference speed, so host drift between the phases cancels
    traced_wall = statistics.median(scaled(j)["wall_s"] for j in ok)
    metrics["trace.overhead_s"] = {"value": traced_wall - e2e["wall_s"]["median"], "unit": "s"}
    tr = ok[0]["trace"]
    report = {"self_check": {"passed": not checks, "mismatches": checks, "traced_jobs": len(ok)},
              "functions": {n: {"calls": c, "total_s": t, "self_s": s}
                            for n, (c, t, s) in sorted(function_totals(tr["rows"]).items())},
              "outer_spans": len(tr["spans"]),
              "by_parent": tr["rows"], "spans": tr["spans"]}
    return metrics, checks, report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                    help="input sizes; 'tiny' is for the smoke test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "ttpsim", "cli.py")):
        print("perfbench: src/ttpsim not found; run from the root of a ttpsim checkout",
              file=sys.stderr)
        return 2

    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    spec = workloads.generate(args.workload, args.seed, args.size, workdir)
    report = {"workload": args.workload, "size": args.size, "traced": bool(args.trace),
              "seconds": args.seconds, "context": machine_context(args.seed),
              "inputs": {"argv": spec["argv"], "r0": spec["r0"],
                         "sha256": gates.digests(workdir)},
              "load": "closed loop, 1 client, 1 job at a time, fresh interpreter per job"}

    ledger = Ledger(spec, workdir)
    start = time.perf_counter()
    if args.trace:
        untraced = ledger.run_phase(False, start + UNTRACED_SHARE * args.seconds, 2)
        traced = ledger.run_phase(True, start + args.seconds, 2)
    else:
        untraced = ledger.run_phase(False, start + args.seconds, 3)
        traced = []
    timed = untraced[1:]   # the first job warms the file cache

    outputs = ledger.distinct_outputs()
    if len(outputs) > 1:
        ledger.breaches.append(f"outputs differ between jobs: {len(outputs)} digest sets")
    attempted = sum(j["attempted"] for j in ledger.jobs)
    failed = sum(j["failed"] for j in ledger.jobs)
    correct = failed == 0 and not ledger.breaches
    e2e = end_to_end(timed)
    raw = end_to_end(timed, unscaled)
    report.update(jobs={"untraced": len(untraced), "traced": len(traced),
                        "timed_untraced": len(timed)},
                  end_to_end={k: dict(v, unit=END_TO_END[k]) for k, v in e2e.items()},
                  unscaled=raw, reference_nominal_s=calib.NOMINAL_S,
                  failed_ops_share={"value": failed / attempted, "unit": "ratio",
                                    "failed": failed, "attempted": attempted},
                  output_sha256=[json.loads(k) for k in sorted(outputs)],
                  breaches=ledger.breaches)

    if args.trace:
        metrics, checks, report["trace"] = traced_metrics(spec, traced, e2e)
        correct = correct and not checks
    elif len(e2e) == len(END_TO_END):
        metrics = {k: {"value": v["median"], "unit": END_TO_END[k]} for k, v in e2e.items()}
    else:
        metrics = None

    report["job_series"] = [{k: j.get(k) for k in ("ok", "wall_s", "setup_s", "solve_s",
                                                     "steps", "ref_s", "peak_rss_mb")}
                            for j in ledger.jobs]
    os.makedirs(os.path.join(WORK, "reports"), exist_ok=True)
    with open(os.path.join(WORK, "reports", f"{args.workload}-seed{args.seed}-trace"
                           f"{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    summary = {k: v for k, v in report.items() if k != "job_series"}
    if "trace" in summary:
        summary["trace"] = {k: v for k, v in summary["trace"].items()
                            if k not in ("by_parent", "spans")}
    print(json.dumps(summary))
    if metrics is None:
        print("perfbench: no successful timed job; see the breaches above", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
