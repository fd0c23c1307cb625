"""One benchmark job in a fresh interpreter: ``python3 perfbench/job.py SPEC RESULT``.

Runs ``ttpsim.cli.main(argv)`` once and writes a JSON result: exit code,
wall time of the whole job, set-up time (up to the first integration step
or study), solve time, accepted particle-steps, the interpreter's peak
resident memory, and how many particles ended short or lost their unit
norm.  It also times the reference kernel in ``calib.py`` right before and
right after the job and writes the mean, which the harness uses to scale
the job's times to the reference speed.  Set-up and solve are split by
phase marks that wrap the one outer call which starts the solve, so an
untraced job carries a few wrapped calls and no per-step instrumentation.
With ``"trace": true`` in the spec the outside-in tracer is installed as
well.
"""

import importlib
import json
import os
import resource
import sys
import time
import traceback

import calib
from gates import NORM_TOL

# (module, attribute) whose entry ends set-up and whose return ends the solve;
# steps are counted on the returned trajectories of the "steps" site.
PHASES = {
    "simulate": {"begin": ("ttpsim.cli", "integrate_trajectory"),
                 "end": ("ttpsim.cli", "integrate_trajectory"),
                 "steps": ("ttpsim.cli", "integrate_trajectory")},
    "ensemble": {"begin": ("ttpsim.cli", "evolve_ensemble"),
                 "end": ("ttpsim.cli", "evolve_ensemble"),
                 "steps": ("ttpsim.cli", "evolve_ensemble")},
    "verify": {"begin": ("ttpsim.verify", "omega_identity_sweep"),
               "end": ("ttpsim.verify", "convergence_study"),
               "steps": ("ttpsim.verify", "integrate_trajectory")},
}



class PhaseMarks:
    """Timestamps at the set-up/solve boundary and a count of accepted steps."""

    def __init__(self, phases):
        self.setup_end = None
        self.solve_end = None
        self.results = []
        self._saved = []
        for role in ("begin", "end", "steps"):
            mod_name, attr = phases[role]
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(role, fn))

    def _wrap(self, role, fn):
        clock = time.perf_counter

        def marked(*args, **kwargs):
            if role == "begin" and self.setup_end is None:
                self.setup_end = clock()
            result = fn(*args, **kwargs)
            if role == "end":
                self.solve_end = clock()
            elif role == "steps":
                self.results.append(result)
            return result

        return marked

    def uninstall(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def particle_report(self):
        """Accepted steps, and particles that ended short or lost their unit norm."""
        steps = bad = 0
        for res in self.results:
            for tr in res[0] if isinstance(res, tuple) else [res]:
                steps += tr.summary.steps
                bad += tr.summary.terminated_early or not tr.summary.max_norm_err <= NORM_TOL
        return steps, bad


def run(spec):
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import ttpsim.cli

    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    marks = PhaseMarks(PHASES[spec["argv"][0]])
    out = {"rc": None, "error": None}
    calib.kernel()     # warm-up, untimed
    ref_before = calib.reference_s()
    t0 = time.perf_counter()
    try:
        out["rc"] = ttpsim.cli.main(spec["argv"])
    except Exception:  # the job boundary: report, do not crash the harness
        out["error"] = traceback.format_exc()
    t1 = time.perf_counter()
    ref_after = calib.reference_s()
    marks.uninstall()
    if tracer is not None:
        tracer.uninstall()

    steps, bad = marks.particle_report()
    setup_end = marks.setup_end if marks.setup_end is not None else t1
    solve_end = marks.solve_end if marks.solve_end is not None else t1
    out.update(
        wall_s=t1 - t0, setup_s=setup_end - t0, solve_s=solve_end - setup_end,
        steps=steps, particle_failures=bad, ref_s=0.5 * (ref_before + ref_after),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        out["trace"] = {"rows": tracer.table(), "spans": tracer.spans,
                        "steps": tracer.steps, "retained_bytes": tracer.retained_bytes}
    return out


def main(argv):
    spec_path, result_path = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    out = run(spec)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
