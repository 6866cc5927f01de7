"""The restart loop that GMRES, GMRES-DR, FGMRES-DR, GCRO-DR and FGCRO-DR share.

Every family runs the same loop, so all of them count matvecs, index cycles,
report the least-squares residual, honour the matvec budget, reject
non-finite input and report a singular least-squares triangle the same way.
"""

import numpy as np
import pytest

from krylov_recycle.errors import SingularTriangle
from krylov_recycle.gcro import RecyclingSolver
from krylov_recycle.gmres import fgmresdr_solve, gmres_solve, gmresdr_solve
from krylov_recycle.operators import (
    MatvecCounter,
    SparseMatrix,
    as_operator,
    gen_convection_diffusion,
)

FAMILIES = ("gmres", "gmresdr", "fgmresdr", "gcrodr", "fgcrodr")
M, K, M_I = 10, 3, 2


def solve(family, A, b, x0=None, counter=None, m=M, k=K, m_i=M_I, **kwargs):
    """One solve by ``family``, by default with (m, k, m_i) = (10, 3, 2)."""
    op = as_operator(A, counter)
    if family == "gmres":
        return gmres_solve(op, None, b, x0, m=m, **kwargs)
    if family == "gmresdr":
        return gmresdr_solve(op, None, b, x0, m=m, k=k, **kwargs)
    if family == "fgmresdr":
        return fgmresdr_solve(op, None, b, x0, m=m, k=k, m_i=m_i, **kwargs)
    flexible = family == "fgcrodr"
    solver = RecyclingSolver(op, None, m=m, k=k, flexible=flexible,
                             m_i=m_i if flexible else None, **kwargs)
    return solver.solve(b, x0)


@pytest.fixture(scope="module")
def probe():
    A = gen_convection_diffusion((12, 12), 20.0)
    rng = np.random.default_rng(5)
    return A, rng.standard_normal(A.n), 0.1 * rng.standard_normal(A.n)


def cycle_end_rows(report):
    return [row for row in report.history.rows
            if row.true_residual_rel is not None]


@pytest.mark.parametrize("family", FAMILIES)
def test_reported_matvecs_include_the_initial_residual(probe, family):
    A, b, x0 = probe
    counter = MatvecCounter()
    _, rep = solve(family, A, b, x0, counter, tol=1e-10)
    assert rep.converged
    assert rep.matvecs == counter.count


@pytest.mark.parametrize("family", ["gmresdr", "fgmresdr", "gcrodr"])
def test_state_hook_cycle_is_the_zero_based_restart_row_cycle(probe, family):
    A, b, _ = probe
    seen = []
    _, rep = solve(family, A, b, tol=1e-10,
                   state_hook=lambda state, cycle: seen.append(cycle))
    assert rep.cycles >= 2
    ends = [row.solver_cycle for row in cycle_end_rows(rep)]
    assert seen == ends == list(range(rep.cycles))


def test_gmres_reports_its_last_least_squares_residual(probe):
    A, b, _ = probe
    _, rep = gmres_solve(A, None, b, m=M, tol=1e-10)
    last = cycle_end_rows(rep)[-1]
    assert rep.final_lsq_residual == last.lsq_residual_rel
    assert rep.final_true_residual == last.true_residual_rel


@pytest.mark.parametrize("family", FAMILIES)
def test_budget_overshoot_is_at_most_one_arnoldi_step(family):
    # An unattainable tolerance runs every family into its budget.  The
    # budget is checked after each Arnoldi step, and the cycle then closes
    # with one true-residual matvec, so a solve passes max_matvecs by at
    # most one step's matvecs: 1, or 1 + m_i with inner GMRES(m_i).
    A = gen_convection_diffusion((24, 24), 5.0)
    b = np.random.default_rng(81).standard_normal(A.n)
    budget = 57
    step = 1 + M_I if family.startswith("f") else 1
    counter = MatvecCounter()
    _, rep = solve(family, A, b, counter=counter, tol=1e-14,
                   max_matvecs=budget)
    assert rep.stop_reason == "budget"
    assert rep.matvecs == counter.count
    assert budget <= rep.matvecs <= budget + step


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("bad", ["b", "x0"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_input_is_rejected_before_any_matvec(probe, family, bad,
                                                         value):
    A, b, x0 = probe
    inputs = {"b": b.copy(), "x0": x0.copy()}
    inputs[bad][7] = value
    counter = MatvecCounter()
    with pytest.raises(ValueError, match=f"^{bad} has non-finite entries"):
        solve(family, A, inputs["b"], inputs["x0"], counter, tol=1e-10,
              max_matvecs=200)
    assert counter.count == 0


@pytest.mark.parametrize("family", FAMILIES)
def test_singular_inconsistent_system_raises_singular_triangle(family):
    # b has a component along the null vector e_1 of A, so no x solves
    # A x = b.  Every family ends a cycle on the same singular reduced
    # triangle and reports it the same way.
    A = SparseMatrix.from_dense(np.diag(np.arange(6.0)))
    with pytest.raises(SingularTriangle):
        solve(family, A, np.ones(6), m=8, k=1, m_i=2, max_matvecs=200)
