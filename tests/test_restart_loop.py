"""The restart loop that GMRES, GMRES-DR, FGMRES-DR, GCRO-DR and FGCRO-DR share.

Every family runs the same loop, so all of them count matvecs, index cycles,
report the least-squares residual, honour the matvec budget, reject
non-finite input and report a singular least-squares triangle the same way.
"""

import dataclasses

import numpy as np
import pytest

from krylov_recycle import gmres
from krylov_recycle.errors import SingularHm, SingularTriangle
from krylov_recycle.gcro import RecyclingSolver
from krylov_recycle.gmres import (
    ArnoldiState,
    _DeflatedRestart,
    _Restarted,
    fgmresdr_solve,
    gmres_solve,
    gmresdr_solve,
)
from krylov_recycle.operators import (
    JacobiPreconditioner,
    MatvecCounter,
    SparseMatrix,
    as_operator,
    build_preconditioner,
    gen_convection_diffusion,
)

FAMILIES = ("gmres", "gmresdr", "fgmresdr", "gcrodr", "fgcrodr")
M, K, M_I = 10, 3, 2


def solve(family, A, b, x0=None, counter=None, m=M, k=K, m_i=M_I, Ax0=None,
          **kwargs):
    """One solve by ``family``, by default with (m, k, m_i) = (10, 3, 2)."""
    op = as_operator(A, counter)
    if family == "gmres":
        return gmres_solve(op, None, b, x0, m=m, Ax0=Ax0, **kwargs)
    if family == "gmresdr":
        return gmresdr_solve(op, None, b, x0, m=m, k=k, Ax0=Ax0, **kwargs)
    if family == "fgmresdr":
        return fgmresdr_solve(op, None, b, x0, m=m, k=k, m_i=m_i, Ax0=Ax0,
                              **kwargs)
    flexible = family == "fgcrodr"
    solver = RecyclingSolver(op, None, m=m, k=k, flexible=flexible,
                             m_i=m_i if flexible else None, **kwargs)
    return solver.solve(b, x0, Ax0=Ax0)


def engine(family, A, P, counter=None, m=M, k=K, m_i=M_I, **kwargs):
    """The engine ``family``'s solves run on, as ``lbgs_solve`` builds it,
    by default with (m, k, m_i) = (10, 3, 2)."""
    op = as_operator(A, counter)
    if family == "gmres":
        return _Restarted(op, P, m=m, **kwargs)
    flexible = family.startswith("f")
    build = RecyclingSolver if family.endswith("gcrodr") else _DeflatedRestart
    return build(op, P, m=m, k=k, flexible=flexible,
                 m_i=m_i if flexible else None, **kwargs)


def report_fields(report):
    """The report's fields other than its matvec count and history."""
    return {f.name: getattr(report, f.name)
            for f in dataclasses.fields(report)
            if f.name not in ("matvecs", "history")}


def rows_but_matvecs(report):
    return [dataclasses.replace(row, matvecs=0) for row in report.history.rows]


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
@pytest.mark.parametrize("bad, image", [
    ("b", False), ("x0", False), ("b", True), ("x0", True), ("Ax0", True)],
    ids=["b", "x0", "b-with-Ax0", "x0-with-Ax0", "Ax0"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_input_is_rejected_before_any_matvec(probe, family, bad,
                                                         image, value):
    A, b, x0 = probe
    inputs = {"b": b.copy(), "x0": x0.copy(),
              "Ax0": A.matvec(x0) if image else None}
    inputs[bad][7] = value
    counter = MatvecCounter()
    with pytest.raises(ValueError, match=f"^{bad} has non-finite entries"):
        solve(family, A, inputs["b"], inputs["x0"], counter, tol=1e-10,
              max_matvecs=200, Ax0=inputs["Ax0"])
    assert counter.count == 0


@pytest.mark.parametrize("family", FAMILIES)
def test_a_handed_image_makes_the_initial_residual_free(probe, family):
    # b - Ax0 is the bits of b - A x0, so the solve is the same one with
    # one matvec fewer.
    A, b, x0 = probe
    (x, rep), (x_img, rep_img) = [
        solve(family, A, b, x0, tol=1e-10, Ax0=Ax0)
        for Ax0 in (None, A.matvec(x0))]
    assert rep.converged
    assert x_img.tobytes() == x.tobytes()
    assert report_fields(rep_img) == report_fields(rep)
    assert rep_img.matvecs == rep.matvecs - 1
    assert rows_but_matvecs(rep_img) == rows_but_matvecs(rep)


@pytest.mark.parametrize("flexible", [False, True])
def test_a_handed_image_makes_the_warm_start_free(probe, flexible):
    # The second system starts from x0 over the first one's pair, so its
    # initial residual is the warm start's.
    A, b, x0 = probe
    b2 = b + 0.1 * np.roll(b, 3)
    results = []
    for Ax0 in (None, A.matvec(x0)):
        solver = RecyclingSolver(as_operator(A), None, m=M, k=K,
                                 flexible=flexible,
                                 m_i=M_I if flexible else None, tol=1e-10)
        solver.solve(b)
        results.append(solver.solve(b2, x0, use_recycle=True, Ax0=Ax0))
    (x, rep), (x_img, rep_img) = results
    assert rep.converged
    assert "recycle_start" in [row.event for row in rep.history.rows]
    assert x_img.tobytes() == x.tobytes()
    assert report_fields(rep_img) == report_fields(rep)
    assert rep_img.matvecs == rep.matvecs - 1
    assert rows_but_matvecs(rep_img) == rows_but_matvecs(rep)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("start", ["x0", "zero", "none"])
def test_an_image_of_the_wrong_shape_is_rejected(probe, family, start):
    # The check does not depend on x0, although a zero or missing x0
    # never reads the image.
    A, b, x0 = probe
    x0 = {"x0": x0, "zero": np.zeros(A.n), "none": None}[start]
    counter = MatvecCounter()
    with pytest.raises(ValueError, match="^Ax0 has shape"):
        solve(family, A, b, x0, counter, Ax0=np.ones(A.n + 1))
    assert counter.count == 0


@pytest.mark.parametrize("family", FAMILIES)
def test_singular_inconsistent_system_raises_singular_triangle(family):
    # b has a component along the null vector e_1 of A, so no x solves
    # A x = b.  Every family ends a cycle on the same singular reduced
    # triangle and reports it the same way.
    A = SparseMatrix.from_dense(np.diag(np.arange(6.0)))
    with pytest.raises(SingularTriangle):
        solve(family, A, np.ones(6), m=8, k=1, m_i=2, max_matvecs=200)


@pytest.mark.parametrize("family", FAMILIES)
def test_a_zero_first_image_raises_singular_triangle_after_one_matvec(
        family):
    # A e_3 = 0, so the first Arnoldi column of H-bar is all zero: the
    # least-squares triangle is singular at once, and no family may go on
    # to divide by its zero pivot until the budget runs out.
    A = SparseMatrix.from_dense(np.diag([1.0, 2.0, 0.0]))
    b = np.array([0.0, 0.0, 1.0])
    counter = MatvecCounter()
    with pytest.raises(SingularTriangle) as err:
        solve(family, A, b, counter=counter, m=2, k=1, m_i=None)
    assert err.value.index == 0
    assert counter.count == 1


@pytest.mark.parametrize("family", FAMILIES)
def test_a_zero_right_hand_side_returns_zeros_without_a_matvec(probe,
                                                               family):
    # x = 0 solves A x = 0 exactly, whatever the initial guess.
    A, _, x0 = probe
    counter = MatvecCounter()
    for start in (None, x0):
        x, rep = solve(family, A, np.zeros(A.n), start, counter)
        assert x.tobytes() == np.zeros(A.n).tobytes()
        assert rep.converged and rep.stop_reason == "converged"
        assert rep.matvecs == rep.cycles == rep.iterations == 0
        assert rep.history.rows == []
    assert counter.count == 0


@pytest.mark.parametrize("flexible", [False, True])
def test_a_zero_right_hand_side_keeps_the_recycled_pair(probe, flexible):
    A, b, _ = probe
    solver = RecyclingSolver(A, None, m=M, k=K, flexible=flexible,
                             m_i=M_I if flexible else None, tol=1e-10)
    assert solver.solve(b)[1].converged
    pair, rows = solver.recycle, len(solver.record.rows)
    assert pair is not None and pair.k > 0
    x, rep = solver.solve(np.zeros(A.n))
    assert not np.any(x) and rep.converged and rep.matvecs == 0
    assert solver.recycle is pair
    assert len(solver.record.rows) == rows


def _collapse_once(deflate):
    """``deflate``, except that its first call raises SingularHm."""
    calls = []

    def collapsing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise SingularHm("forced deflation collapse")
        return deflate(*args, **kwargs)

    return collapsing


@pytest.mark.parametrize("family", ["gmresdr", "gcrodr"])
def test_a_deflation_collapse_is_a_cold_restart(probe, family, monkeypatch):
    # GMRES-DR deflates when it builds the next restart head, GCRO-DR when
    # it refreshes the pair; a collapse there drops the spectral
    # information in both, and both count and mark it as a cold restart.
    if family == "gmresdr":
        monkeypatch.setattr(gmres, "harmonic_ritz_standard",
                            _collapse_once(gmres.harmonic_ritz_standard))
    else:
        monkeypatch.setattr(RecyclingSolver, "_deflate",
                            _collapse_once(RecyclingSolver._deflate))
    A, b, _ = probe
    _, rep = solve(family, A, b, tol=1e-10)
    assert rep.converged
    assert rep.cold_restarts == 1
    events = [row.event for row in rep.history.rows]
    assert events.count("cold_restart") == 1


def test_a_collapse_and_the_safeguard_in_one_cycle_end_count_once(
        probe, monkeypatch):
    # With the safeguard forced to fire, every cycle end but the converged
    # last one restarts cold; the first also collapses, and still counts
    # one cold restart.
    monkeypatch.setattr(RecyclingSolver, "_deflate",
                        _collapse_once(RecyclingSolver._deflate))
    monkeypatch.setattr(RecyclingSolver, "safeguard_eps", -1.0)
    A, b, _ = probe
    _, rep = solve("gcrodr", A, b, m=20, tol=1e-8)
    assert rep.converged and rep.cycles >= 2
    assert rep.cold_restarts == rep.cycles - 1


@pytest.mark.parametrize("family", FAMILIES)
def test_every_state_hook_sees_one_state_type_and_its_relation(family):
    # GMRES(m) takes its hook on the restart loop itself; the other four
    # families on their solve functions or engine.  Under Jacobi, Z stays
    # implicit in GMRES(m), GMRES-DR and GCRO-DR, so the solution basis is
    # P Vhat there; the flexible families store Zhat.
    A = gen_convection_diffusion((16, 16), 40.0)
    P = JacobiPreconditioner(A)
    rng = np.random.default_rng(17)
    b = rng.standard_normal(A.n)
    states = []

    def hook(state, cycle):
        states.append(state)

    kwargs = dict(m=M, tol=1e-10, state_hook=hook)
    if family == "gmres":
        assert _Restarted(A, P, **kwargs).solve(b)[1].converged
    elif family == "gmresdr":
        assert gmresdr_solve(A, P, b, k=K, **kwargs)[1].converged
    elif family == "fgmresdr":
        assert fgmresdr_solve(A, P, b, k=K, m_i=M_I, **kwargs)[1].converged
    else:
        flexible = family == "fgcrodr"
        solver = RecyclingSolver(A, P, k=K, flexible=flexible,
                                 m_i=M_I if flexible else None, **kwargs)
        for rhs in (b, b + 0.1 * np.roll(b, 3)):
            assert solver.solve(rhs)[1].converged
        assert any(st.k > 0 for st in states)
    assert len(states) >= 3
    for st in states:
        assert isinstance(st, ArnoldiState)
        Z = st.Zhat if st.Zhat is not None else np.column_stack(
            [P.apply(v) for v in st.vhat().T])
        AZ = np.column_stack([A.matvec(z) for z in Z.T])
        assert np.linalg.norm(AZ - st.What @ st.Hbar) \
            <= 1e-10 * np.linalg.norm(AZ)


@pytest.fixture(scope="module")
def ilu_probe():
    A = gen_convection_diffusion((12, 12), 20.0)
    rng = np.random.default_rng(5)
    return A, build_preconditioner("ilu", A, 0), rng.standard_normal(A.n)


@pytest.mark.parametrize("family", FAMILIES)
def test_the_closing_product_is_exposed_as_the_image(ilu_probe, family):
    # A caller reads A x of the returned x from the cycle's closing
    # product, bit for bit and without another matvec.
    A, P, b = ilu_probe
    counter = MatvecCounter()
    solver = engine(family, A, P, counter, tol=1e-10)
    closing = []  # each cycle end's true residual
    cycle_end = solver._cycle_end
    solver._cycle_end = lambda state, breakdown, cycle, x, r, *rest: \
        closing.append(r.copy()) or cycle_end(state, breakdown, cycle, x, r,
                                              *rest)
    x, rep = solver.solve(b)
    assert rep.converged and rep.cycles == len(closing) >= 1
    count = counter.count
    image = solver.image
    assert counter.count == count == rep.matvecs
    assert image.tobytes() == solver.op.apply_plain(x).tobytes()
    assert (b - image).tobytes() == closing[-1].tobytes()
    assert counter.count == count


@pytest.mark.parametrize("family", FAMILIES)
def test_a_solve_without_a_cycle_exposes_the_image_of_its_start(ilu_probe,
                                                                family):
    # The start already meets the tolerance, so x is x0 (or zero), and its
    # image is the one handed in, the one the initial residual formed, or
    # zero.
    A, P, b = ilu_probe
    x0 = engine(family, A, P, tol=1e-10).solve(b)[0]
    Ax0 = A.matvec(x0)
    for rhs, start, handed, tol, matvecs, expected in (
            (b, x0, Ax0, 1e-6, 0, Ax0), (b, x0, None, 1e-6, 1, Ax0),
            (b, None, None, 1.0, 0, np.zeros(A.n)),
            (np.zeros(A.n), x0, None, 1e-6, 0, np.zeros(A.n))):
        counter = MatvecCounter()
        solver = engine(family, A, P, counter, tol=tol)
        _, rep = solver.solve(rhs, start, Ax0=handed)
        assert rep.cycles == 0 and counter.count == matvecs
        assert solver.image.tobytes() == expected.tobytes()
        assert handed is None or solver.image is handed


@pytest.mark.parametrize("flexible", [False, True])
def test_a_warm_start_without_a_cycle_exposes_no_image(ilu_probe, flexible):
    # The warm start moves x by U C^T r0 without forming its image, so a
    # recycling solve that then runs no cycle cannot expose one.
    A, P, b = ilu_probe
    family = "fgcrodr" if flexible else "gcrodr"
    solver = engine(family, A, P, tol=1e-10)
    x0 = solver.solve(b)[0]
    assert solver.recycle is not None and solver.recycle.k > 0
    solver.tol = 1e-6
    x, rep = solver.solve(b, x0, use_recycle=True, Ax0=A.matvec(x0))
    assert rep.cycles == 0 and rep.matvecs == 0
    assert x.tobytes() != x0.tobytes()
    assert solver.image is None


@pytest.mark.parametrize("family", FAMILIES)
def test_a_solve_at_the_rounding_floor_reports_stagnation(ilu_probe, family):
    # No tolerance below rounding is reachable, so every family runs its
    # whole budget.  The true residual bounces at the floor; a cycle that
    # does not beat the best one so far is a stall, so the flag is set.
    A, P, b = ilu_probe
    _, rep = engine(family, A, P, m=20, k=5, m_i=3, tol=1e-18,
                    max_matvecs=400).solve(b)
    assert rep.stop_reason == "budget"
    assert rep.stagnation is True
    assert rep.cycles > 3 and rep.final_true_residual < 1e-14
