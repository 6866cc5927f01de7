"""The restart loop that GMRES, GMRES-DR, FGMRES-DR, GCRO-DR and FGCRO-DR share.

Every family runs the same loop, so all of them count matvecs, index cycles,
report the least-squares residual and honour the matvec budget the same way.
"""

import numpy as np
import pytest

from krylov_recycle.gcro import RecyclingSolver
from krylov_recycle.gmres import fgmresdr_solve, gmres_solve, gmresdr_solve
from krylov_recycle.operators import (
    MatvecCounter,
    as_operator,
    gen_convection_diffusion,
)

FAMILIES = ("gmres", "gmresdr", "fgmresdr", "gcrodr", "fgcrodr")
M, K, M_I = 10, 3, 2


def solve(family, A, b, x0=None, counter=None, **kwargs):
    """One solve by ``family`` with (m, k, m_i) = (10, 3, 2); (x, report)."""
    op = as_operator(A, counter)
    if family == "gmres":
        return gmres_solve(op, None, b, x0, m=M, **kwargs)
    if family == "gmresdr":
        return gmresdr_solve(op, None, b, x0, m=M, k=K, **kwargs)
    if family == "fgmresdr":
        return fgmresdr_solve(op, None, b, x0, m=M, k=K, m_i=M_I, **kwargs)
    flexible = family == "fgcrodr"
    solver = RecyclingSolver(op, None, m=M, k=K, flexible=flexible,
                             m_i=M_I if flexible else None, **kwargs)
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
