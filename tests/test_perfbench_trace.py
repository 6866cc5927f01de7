"""The benchmark's layer trace still finds every library name it wraps.

``perfbench/run.py --trace 1`` installs spans around library functions and
methods by name (``perfbench/layers.py``).  A rename in the library makes
that install fail, so these tests run it, with small solves under it.  A
refactor that stops calling a wrapped name leaves its span at zero without
failing the install, so the recycling tests assert that their spans fire,
and that the traced SpMV calls are exactly the solver's counted matvecs.
"""

import importlib.util
from pathlib import Path

import numpy as np

import krylov_recycle
from krylov_recycle.gcro import fgcrodr_solve, gcrodr_solve
from krylov_recycle.gmres import gmresdr_solve
from krylov_recycle.operators import MatvecCounter, gen_convection_diffusion

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_trace_installs_and_restores():
    layers = load_layers()
    monitor = krylov_recycle.gmres._LsqQR
    originals = {name: monitor.__dict__[name] for name in
                 ("__init__", "add_column", "residual_norm", "solve")}
    hessenberg_lsq = krylov_recycle.smallalg.hessenberg_lsq
    tracer = layers.Tracer()
    try:
        layers.install(tracer, krylov_recycle, layers.SolveTally())
        A = gen_convection_diffusion((8, 8), 5.0)
        _, rep = gmresdr_solve(A, None, np.ones(A.n), m=12, k=3, tol=1e-10)
        assert rep.converged
        assert tracer.calls("gmres.lsq_qr") > 0
        assert tracer.calls("gmres.arnoldi") > 0
    finally:
        tracer.restore()
    assert {name: monitor.__dict__[name] for name in originals} == originals
    assert krylov_recycle.smallalg.hessenberg_lsq is hessenberg_lsq


RECYCLING_SPANS = ("gcro.recycle_update", "gcro.polish", "gcro.warm_start",
                   "gcro.lsq_blockwise", "gmres.harmonic_ritz",
                   "smallalg.eig", "gmres.arnoldi", "operators.spmv")


def _assert_recycling_spans_fire(solve):
    layers = load_layers()
    tracer = layers.Tracer()
    try:
        layers.install(tracer, krylov_recycle, layers.SolveTally())
        A = gen_convection_diffusion((10, 10), 10.0)
        rng = np.random.default_rng(4)
        b = rng.standard_normal(A.n)
        sequence = [(b + 0.05 * s * rng.standard_normal(A.n), None)
                    for s in range(3)]
        counter = MatvecCounter()
        results = solve(A, sequence, counter)
        assert all(rep.converged for _, rep in results)
        for name in RECYCLING_SPANS:
            assert tracer.calls(name) > 0, name
        assert tracer.calls("operators.spmv") == counter.count
    finally:
        tracer.restore()


def test_recycling_spans_fire():
    _assert_recycling_spans_fire(
        lambda A, seq, counter: gcrodr_solve(A, None, seq, m=12, k=4,
                                             tol=1e-10, recycle_from=2,
                                             counter=counter))


def test_flexible_recycling_spans_fire():
    # FGCRO-DR strategy B with inner GMRES, flex_sequence's path.
    _assert_recycling_spans_fire(
        lambda A, seq, counter: fgcrodr_solve(A, None, seq, m=12, k=4,
                                              m_i=3, strategy="B", tol=1e-10,
                                              recycle_from=2, counter=counter))
