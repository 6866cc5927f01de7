"""The benchmark's layer trace still finds every library name it wraps.

``perfbench/run.py --trace 1`` installs spans around library functions and
methods by name (``perfbench/layers.py``).  A rename in the library makes
that install fail, so this test runs it, and one small solve under it.
"""

import importlib.util
from pathlib import Path

import numpy as np

import krylov_recycle
from krylov_recycle.gmres import gmresdr_solve
from krylov_recycle.operators import gen_convection_diffusion

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
