"""Outside-in tracer for ttpsim: wraps public functions at every binding site.

Several ttpsim modules import functions by name (``from .integrate import
integrate_trajectory``), so replacing one module attribute would miss the
calls that go through another.  The tracer therefore patches each binding
site listed in ``BINDING_SITES`` and every provider class method, and puts
the originals back on ``uninstall``.  Nothing under ``src/`` changes.

Hot inner calls are aggregated as (calls, total seconds, self seconds) per
(name, parent name).  Whole spans (id, parent id, name, start, end) are kept
only for the outer calls named in ``OUTER``, so a traced ensemble run does
not hold one span for each of its ~4e5 inner calls.
"""

import functools
import importlib
import itertools
import time

# (module, attribute, traced name).  The traced name is "<layer>.<function>".
BINDING_SITES = (
    ("ttpsim.cli", "main", "cli.main"),
    ("ttpsim.cli", "parse_config", "cli.parse_config"),
    ("ttpsim.cli", "write_trajectory_csv", "cli.write_trajectory_csv"),
    ("ttpsim.cli", "write_stats_csv", "cli.write_stats_csv"),
    ("ttpsim.cli", "load_grid", "fields.load_grid"),
    ("ttpsim.cli", "integrate_trajectory", "integrate.integrate_trajectory"),
    ("ttpsim.ensemble", "integrate_trajectory", "integrate.integrate_trajectory"),
    ("ttpsim.verify", "integrate_trajectory", "integrate.integrate_trajectory"),
    ("ttpsim.integrate", "stage_eval", "kinetics.stage_eval"),
    ("ttpsim.integrate", "rhs_terms", "kinetics.rhs_terms"),
    ("ttpsim.kinetics", "rhs_terms", "kinetics.rhs_terms"),
    ("ttpsim.kinetics", "omega_direct", "kinetics.omega_direct"),
    ("ttpsim.kinetics", "omega_decomposed", "kinetics.omega_decomposed"),
    ("ttpsim.verify", "omega_direct", "kinetics.omega_direct"),
    ("ttpsim.verify", "omega_decomposed", "kinetics.omega_decomposed"),
    ("ttpsim.verify", "state_rhs", "kinetics.state_rhs"),
    ("ttpsim.cli", "seed_tangent_circle", "ensemble.seed_tangent_circle"),
    ("ttpsim.cli", "evolve_ensemble", "ensemble.evolve_ensemble"),
    ("ttpsim.cli", "tangent_frame", "ensemble.tangent_frame"),
    ("ttpsim.ensemble", "tangent_frame", "ensemble.tangent_frame"),
    ("ttpsim.verify", "tangent_frame", "ensemble.tangent_frame"),
    ("ttpsim.verify", "omega_identity_sweep", "verify.omega_identity_sweep"),
    ("ttpsim.verify", "cancellation_check", "verify.cancellation_check"),
    ("ttpsim.verify", "reduced_divergence_report", "verify.reduced_divergence_report"),
    ("ttpsim.verify", "tangency_drift_study", "verify.tangency_drift_study"),
    ("ttpsim.verify", "convergence_study", "verify.convergence_study"),
)

# Provider methods, patched on every class that defines them itself, so an
# inherited default (FieldProvider.sample_kinetic for GridField) is traced once.
PROVIDER_METHODS = ("sample", "sample_kinetic")

OUTER = frozenset((
    "cli.main", "cli.parse_config", "cli.write_trajectory_csv", "cli.write_stats_csv",
    "fields.load_grid", "integrate.integrate_trajectory",
    "ensemble.seed_tangent_circle", "ensemble.evolve_ensemble",
    "verify.omega_identity_sweep", "verify.cancellation_check",
    "verify.reduced_divergence_report", "verify.tangency_drift_study",
    "verify.convergence_study",
))

ROOT = "<root>"


def _provider_classes():
    from ttpsim.fields import FieldProvider, analytic, grid

    classes = [FieldProvider]
    for mod in (analytic, grid):
        for obj in vars(mod).values():
            if (isinstance(obj, type) and issubclass(obj, FieldProvider)
                    and obj is not FieldProvider and obj.__module__ == mod.__name__):
                classes.append(obj)
    return classes


class Tracer:
    """Counts, times and outer spans for one traced job."""

    def __init__(self):
        self.stats = {}       # (name, parent) -> [calls, total_s, self_s]
        self.spans = []       # (span_id, parent_span_id, name, start_s, end_s)
        self.steps = 0        # accepted steps over all integrate_trajectory calls
        self.retained_bytes = 0
        self._origin = time.perf_counter()
        self._span_ids = itertools.count(1)
        # frame: [name, time spent in traced callees, span id]
        self._stack = [[ROOT, 0.0, None]]
        self._saved = []

    def install(self):
        for mod_name, attr, name in BINDING_SITES:
            mod = importlib.import_module(mod_name)
            if not hasattr(mod, attr):
                raise LookupError(f"binding site {mod_name}.{attr} is gone; "
                                  "the tracer's site list needs updating")
            self._patch(mod, attr, name)
        for cls in _provider_classes():
            for attr in PROVIDER_METHODS:
                if attr in vars(cls):
                    self._patch(cls, attr, f"fields.{attr}")

    def uninstall(self):
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    def _patch(self, obj, attr, name):
        original = vars(obj)[attr]
        self._saved.append((obj, attr, original))
        setattr(obj, attr, self._wrap(name, original))

    def _wrap(self, name, fn):
        stack, stats, spans = self._stack, self.stats, self.spans
        clock, span_ids, origin = time.perf_counter, self._span_ids, self._origin
        outer = name in OUTER
        on_return = {"integrate.integrate_trajectory": self._count_steps,
                     "ensemble.evolve_ensemble": self._count_retained}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, next(span_ids) if outer else parent[2]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                parent[1] += dt
                rec = stats.get((name, parent[0]))
                if rec is None:
                    stats[(name, parent[0])] = [1, dt, dt - frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - frame[1]
                if outer:
                    spans.append((frame[2], parent[2], name, t0 - origin, t1 - origin))
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def _count_steps(self, result):
        self.steps += len(result) - 1

    def _count_retained(self, result):
        trajectories, _ = result
        self.retained_bytes += sum(arr.nbytes for tr in trajectories
                                   for arr in vars(tr).values() if hasattr(arr, "nbytes"))

    def table(self):
        """Aggregated rows [name, parent, calls, total_s, self_s], sorted."""
        return sorted([k[0], k[1], v[0], v[1], v[2]] for k, v in self.stats.items())


def function_totals(rows):
    """Fold (name, parent) rows into {name: [calls, total_s, self_s]}."""
    out = {}
    for name, _parent, calls, total, self_s in rows:
        acc = out.setdefault(name, [0, 0.0, 0.0])
        acc[0] += calls
        acc[1] += total
        acc[2] += self_s
    return out


def calls_from(rows, name, parent=None, exclude_parent=None):
    """Calls of ``name`` whose caller is (or is not) the given traced parent."""
    return sum(r[2] for r in rows if r[0] == name
               and (parent is None or r[1] == parent)
               and (exclude_parent is None or r[1] != exclude_parent))
