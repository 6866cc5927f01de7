"""Outside-in layer trace: spans installed around library entry points.

The library has no timing hooks, so the traced run wraps its functions and
methods from outside.  Two wiring rules matter:

* a module that did ``from .smallalg import hessenberg_lsq`` holds its own
  reference, so a function is replaced under every name, in every module of
  the package, that refers to the same object;
* ``as_operator`` binds ``A.matvec`` when an operator is built, so class
  wrappers must be installed before the operators they should see exist.

Spans nest on one stack (the library is single-threaded).  A span's self
time is its duration minus the time covered by its direct child spans.
"""

import functools
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "krylov_recycle"


class Tracer:
    """Aggregates calls, inclusive seconds and self seconds per span name."""

    def __init__(self):
        # name -> [calls, inclusive seconds, self seconds]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self._stack = []  # [name, start, seconds covered by child spans]
        self._depth = defaultdict(int)  # open spans per name
        self._undo = []

    # -- spans --------------------------------------------------------------

    def enter(self, name):
        self._depth[name] += 1
        self._stack.append([name, perf_counter(), 0.0])

    def exit(self):
        name, start, child = self._stack.pop()
        dt = perf_counter() - start
        self._depth[name] -= 1
        st = self.stats[name]
        st[0] += 1
        st[2] += dt - child
        if not self._depth[name]:
            # Only the outermost span of a name counts towards its inclusive
            # time, so a re-entrant entry point is not counted twice.
            st[1] += dt
        if self._stack:
            self._stack[-1][2] += dt

    def calls(self, name):
        return self.stats[name][0] if name in self.stats else 0

    def _wrap(self, name, fn):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return wrapper

    # -- installation -------------------------------------------------------

    def span_function(self, module, attr, name):
        """Wrap a module-level function under every alias in the package."""
        self._replace_everywhere(getattr(module, attr),
                                 lambda fn: self._wrap(name, fn))

    def span_method(self, cls, attr, name):
        """Wrap a method on its class (instances look it up at call time)."""
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original))

    def observe_function(self, module, attr, callback):
        """Pass each return value of a package function to ``callback``."""
        self._replace_everywhere(getattr(module, attr),
                                 lambda fn: _observer(fn, callback))

    def observe_method(self, cls, attr, callback):
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, _observer(original, callback))

    def _replace_everywhere(self, original, make_wrapper):
        wrapper = make_wrapper(original)
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE
                                   or modname.startswith(PACKAGE + ".")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)
                    hits += 1
        if not hits:
            raise RuntimeError(f"{original!r} is not referenced by {PACKAGE}")

    def restore(self):
        """Put every wrapped attribute back as it was."""
        while self._undo:
            obj, key, original = self._undo.pop()
            setattr(obj, key, original)


def _observer(fn, callback):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        callback(result)
        return result

    return wrapper


class SolveTally:
    """Totals read from what the solvers and the coupled driver return."""

    def __init__(self):
        self.cycles = 0
        self.cold_restarts = 0
        self.couplings = 0

    def add_report(self, result):
        report = result[1]  # (x, SolveReport)
        self.cycles += report.cycles
        self.cold_restarts += report.cold_restarts

    def add_history(self, result):
        self.couplings += result[2].couplings  # (lambda_a, lambda_s, history)


def install(tracer, kr, tally):
    """Install every span and observer of the per-layer metrics.

    ``kr`` is the imported library package.  Must run before the operators
    of the traced phase are built.
    """
    ops, gm, gc = kr.operators, kr.gmres, kr.gcro
    sa, cp, rec = kr.smallalg, kr.coupled, kr.records
    tracer.span_method(ops.SparseMatrix, "matvec", "operators.spmv")
    tracer.span_method(ops.IluFactorization, "solve", "operators.ilu_apply")
    tracer.span_function(ops, "ilu_factor", "operators.ilu_factor")
    tracer.span_method(ops.InnerGmresPreconditioner, "apply",
                       "operators.inner_gmres")
    tracer.span_function(gm, "_extend_arnoldi", "gmres.arnoldi")
    for meth in ("__init__", "add_column", "residual_norm", "solve"):
        tracer.span_method(gm._LsqQR, meth, "gmres.lsq_qr")
    tracer.span_function(gm, "harmonic_ritz_standard", "gmres.harmonic_ritz")
    tracer.span_function(gm, "harmonic_ritz_strategy_a", "gmres.harmonic_ritz")
    tracer.span_function(sa, "hessenberg_lsq", "smallalg.hessenberg_lsq")
    tracer.span_function(sa, "small_standard_eig", "smallalg.eig")
    tracer.span_function(sa, "small_generalized_eig", "smallalg.eig")
    tracer.span_function(sa, "reduced_qr", "smallalg.reduced_qr")
    tracer.span_function(sa, "grassmann_distance", "smallalg.grassmann")
    tracer.span_method(gc.RecyclingSolver, "_refresh_spaces",
                       "gcro.recycle_update")
    tracer.span_function(gc, "_polish_pair", "gcro.polish")
    tracer.span_function(gc, "warm_start", "gcro.warm_start")
    tracer.span_function(gc, "gcro_lsq_blockwise", "gcro.lsq_blockwise")
    tracer.span_method(cp._FluidSolver, "solve", "coupled.fluid_solve")
    tracer.span_function(cp, "structural_update", "coupled.structural")
    tracer.span_method(rec.ConvergenceRecord, "append", "records.append")
    # The workloads' solvers return (x, SolveReport) from one of these two.
    tracer.observe_method(gc.RecyclingSolver, "solve", tally.add_report)
    tracer.observe_function(gm, "_dr_solve", tally.add_report)
    tracer.observe_function(cp, "lbgs_solve", tally.add_history)
