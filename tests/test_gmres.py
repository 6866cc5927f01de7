"""GMRES / FGMRES / deflated-restart solver tests."""

import dataclasses

import numpy as np
import pytest

from conftest import random_sparse, restart_direction
from krylov_recycle.errors import ParameterError
from krylov_recycle.gmres import (
    ArnoldiState,
    _DeflatedRestart,
    fgmres_cycle,
    fgmresdr_solve,
    gmres_solve,
    gmresdr_solve,
    harmonic_ritz_standard,
    harmonic_ritz_strategy_a,
)
from krylov_recycle.operators import (
    IdentityPreconditioner,
    IluPreconditioner,
    InnerGmresPreconditioner,
    JacobiPreconditioner,
    SparseMatrix,
    as_operator,
    gen_convection_diffusion,
    ilu_factor,
)
from krylov_recycle.smallalg import hessenberg_lsq, small_standard_eig


def flexible_defect(A, state):
    """Frobenius defect of A Z - V Hbar, relative to ||Hbar||."""
    AZ = np.column_stack([A.matvec(state.Z[:, j]) for j in range(state.width)])
    return np.linalg.norm(AZ - state.V @ state.Hbar) / np.linalg.norm(state.Hbar)


class TestGmresSolve:
    def test_identity_single_iteration(self):
        A = SparseMatrix.identity(6)
        b = np.arange(1.0, 7.0)
        x, rep = gmres_solve(A, None, b, m=5, tol=1e-12)
        assert rep.converged
        assert rep.iterations == 1
        assert np.allclose(x, b)

    def test_full_space_equals_direct_solve(self):
        rng = np.random.default_rng(25)
        n = 25
        A = random_sparse(rng, n, density=0.5)
        b = rng.standard_normal(n)
        x, rep = gmres_solve(A, None, b, m=n, tol=1e-12)
        xref = np.linalg.solve(A.to_dense(), b)
        assert np.linalg.norm(x - xref) < 1e-10 * np.linalg.norm(xref)

    def test_convection_diffusion_ilu(self):
        rng = np.random.default_rng(7)
        A = gen_convection_diffusion((32, 32), 30.0)
        b = rng.standard_normal(A.n)
        P = IluPreconditioner(ilu_factor(A, 0))
        x, rep = gmres_solve(A, P, b, m=60, tol=1e-8, max_matvecs=20_000)
        assert rep.converged
        res = np.linalg.norm(b - A.matvec(x)) / np.linalg.norm(b)
        assert res <= 1.05e-8

    def test_variable_preconditioner_rejected(self):
        A = SparseMatrix.identity(4)
        P = InnerGmresPreconditioner(as_operator(A), 2)
        with pytest.raises(ValueError):
            gmres_solve(A, P, np.ones(4), m=3)

    @pytest.mark.parametrize("m", [0, -3])
    def test_empty_basis_rejected_before_any_matvec(self, m):
        A = gen_convection_diffusion((6, 6), 5.0)
        op = as_operator(A)
        with pytest.raises(ParameterError, match="m >= 1") as err:
            gmres_solve(op, None, np.ones(A.n), np.ones(A.n), m=m,
                        max_matvecs=50)
        assert err.value.name == "m"
        assert op.counter.count == 0

    @pytest.mark.parametrize("m_i", [0, -1])
    def test_empty_inner_solve_rejected(self, m_i):
        A = gen_convection_diffusion((6, 6), 5.0)
        with pytest.raises(ParameterError, match="m_i >= 1"):
            fgmresdr_solve(A, None, np.ones(A.n), m=10, k=3, m_i=m_i)

    def test_lsq_residual_nonincreasing_within_cycle(self):
        rng = np.random.default_rng(42)
        A = gen_convection_diffusion((12, 12), 8.0)
        b = rng.standard_normal(A.n)
        _, rep = gmres_solve(A, None, b, m=30, tol=1e-10, max_matvecs=2000)
        per_cycle = {}
        for row in rep.history.rows:
            if row.true_residual_rel is None:
                per_cycle.setdefault(row.solver_cycle, []).append(
                    row.lsq_residual_rel)
        for rels in per_cycle.values():
            assert all(b_ <= a_ * (1 + 1e-12)
                       for a_, b_ in zip(rels, rels[1:]))


    def test_breakdown_stops_a_plain_cycle(self):
        # No tolerance below rounding is reachable: each cycle exhausts the
        # 9-dimensional Krylov space, and once a breakdown cycle makes no
        # progress the solve stops, far inside its budget.
        A = gen_convection_diffusion((3, 3), 5.0)
        b = np.ones(A.n)
        x, rep = gmres_solve(A, None, b, m=9, tol=1e-20)
        assert rep.stop_reason == "breakdown" and not rep.converged
        assert (rep.matvecs, rep.cycles) == (18, 3)
        assert np.linalg.norm(b - A.matvec(x)) / np.linalg.norm(b) < 1e-14


class TestFgmresCycle:
    def test_identity_operator_breaks_down_immediately(self):
        A = SparseMatrix.identity(8)
        r0 = np.ones(8)
        state = fgmres_cycle(A, None, r0, 5)
        assert state.width == 1
        y, rho = hessenberg_lsq(state.Hbar, state.c)
        assert rho < 1e-12

    def test_breakdown_basis_holds_no_stale_memory(self):
        # A breakdown never writes the basis column after the last step, yet
        # the state carries it (and recycling multiplies it into C).  Freed
        # NaN blocks of the basis' size must not show through it.
        A = SparseMatrix.from_dense(np.diag(np.arange(1.0, 7.0)))
        freed = [np.full((6, 9), np.nan) for _ in range(50)]
        del freed
        state = fgmres_cycle(A, None, np.ones(6), 8)
        assert state.width == 6
        assert np.all(np.isfinite(state.V))

    def test_identity_preconditioner_reduces_to_standard_arnoldi(self):
        rng = np.random.default_rng(12)
        A = random_sparse(rng, 20)
        state = fgmres_cycle(A, IdentityPreconditioner(),
                             rng.standard_normal(20), 8)
        assert np.linalg.norm(state.Z - state.V[:, : state.width]) < 1e-14

    def test_flexible_invariant_with_inner_gmres(self):
        rng = np.random.default_rng(40)
        A = random_sparse(rng, 40)
        op = as_operator(A)
        Ms = InnerGmresPreconditioner(op, 5)
        state = fgmres_cycle(op, Ms, rng.standard_normal(40), 12)
        assert flexible_defect(A, state) < 1e-10
        VtV = state.V.T @ state.V
        assert np.linalg.norm(VtV - np.eye(state.width + 1)) < 1e-10


def _gmres_state(A, b, m, seed=0):
    rng = np.random.default_rng(seed)
    r0 = b if b is not None else rng.standard_normal(A.n)
    return fgmres_cycle(A, None, r0, m)


class TestHarmonicRitz:
    def test_vanishing_correction_gives_plain_eigenvalues(self):
        rng = np.random.default_rng(3)
        H = np.triu(rng.standard_normal((6, 5)), -1) + 2 * np.eye(6, 5)
        H[5, 4] = 0.0  # exact Arnoldi termination
        state = ArnoldiState(np.eye(6), H, np.eye(6)[0], np.zeros((6, 0)))
        pairs, _, _ = harmonic_ritz_standard(state, 3)
        oracle = small_standard_eig(H[:5, :5], 3)
        assert np.allclose(np.sort_complex(pairs.values),
                           np.sort_complex(oracle.values), atol=1e-12)

    def test_width_one_closed_form(self):
        a, h = 1.7, 0.6
        state = ArnoldiState(np.eye(2), np.array([[a], [h]]),
                             np.array([1.0, 0.0]), np.zeros((2, 0)))
        pairs, _, _ = harmonic_ritz_standard(state, 1)
        # oracle: generalized pencil Hbar^T Hbar g = lam H^T g in 1x1 form
        lam_oracle = (a * a + h * h) / a
        assert pairs.values[0] == pytest.approx(a + h * h / a, rel=1e-14)
        assert pairs.values[0] == pytest.approx(lam_oracle, rel=1e-14)

    def test_harmonic_residual_vector_identity(self):
        # For a harmonic pair, A(V g) - lam (V g) reduces to
        # (e_m.g) (h v_{m+1} - h^2 V f): verify by explicit multiplication.
        rng = np.random.default_rng(23)
        A = random_sparse(rng, 40)
        state = _gmres_state(A, rng.standard_normal(40), 12, seed=23)
        j = state.width
        pairs, _, _ = harmonic_ritz_standard(state, 4)
        H = state.Hbar[:j]
        delta = state.Hbar[j, j - 1]
        f = np.linalg.solve(H.T, np.eye(j)[-1])
        Vm = state.V[:, :j]
        vney = state.V[:, j]
        Hhat = H + delta**2 * np.outer(f, np.eye(j)[-1])
        for lam, g in pairs.complex_pairs():
            y = Vm @ g
            lhs = np.column_stack([A.matvec(y.real), A.matvec(y.imag)])
            lhs = lhs[:, 0] + 1j * lhs[:, 1] - lam * y
            emg = g[-1]
            rhs = emg * (delta * vney.astype(complex) - delta**2 * (Vm @ f))
            assert np.linalg.norm(lhs - rhs) < 1e-9 * np.linalg.norm(A.values)

    def test_plain_ritz_residual_norm_identity(self):
        # For plain Ritz pairs of H_m the spectral residual norm equals
        # |h_{m+1,m}| |e_m.g| exactly.
        rng = np.random.default_rng(29)
        A = random_sparse(rng, 36)
        state = _gmres_state(A, rng.standard_normal(36), 10, seed=29)
        j = state.width
        H = state.Hbar[:j]
        delta = state.Hbar[j, j - 1]
        Vm = state.V[:, :j]
        pairs = small_standard_eig(H, j)
        for lam, g in pairs.complex_pairs():
            y = Vm @ g
            Ay = np.column_stack([A.matvec(y.real), A.matvec(y.imag)])
            lhs = np.linalg.norm(Ay[:, 0] + 1j * Ay[:, 1] - lam * y)
            rhs = abs(delta) * abs(g[-1])
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestStrategyA:
    def test_matches_strategy_b_for_stationary_preconditioning(self):
        rng = np.random.default_rng(31)
        A = random_sparse(rng, 30)
        state = fgmres_cycle(A, IdentityPreconditioner(),
                             rng.standard_normal(30), 10)
        da, _, _ = harmonic_ritz_strategy_a(state, 4)
        db, _, _ = harmonic_ritz_standard(state, 4)
        assert np.allclose(np.sort_complex(da.values),
                           np.sort_complex(db.values), atol=1e-10)

    def test_strategy_a_requires_z(self):
        state = ArnoldiState(np.eye(3),
                             np.array([[1.0, 0.5], [0.1, 2.0], [0.0, 0.3]]),
                             np.eye(3)[0], np.zeros((3, 0)))
        with pytest.raises(ValueError):
            harmonic_ritz_strategy_a(state, 1)


class TestRestartResidualVector:
    def test_exact_termination_leaves_last_axis(self):
        rng = np.random.default_rng(5)
        H = np.triu(rng.standard_normal((6, 5)), -1) + 3 * np.eye(6, 5)
        H[5, 4] = 0.0
        c = rng.standard_normal(6)
        state = ArnoldiState(np.eye(6), H, c, np.zeros((6, 0)))
        y, _ = hessenberg_lsq(H, c)
        direction = restart_direction(state)
        assert np.allclose(direction[:5], 0.0)
        assert direction[5] == 1.0
        resid = c - H @ y
        scale = direction @ resid
        assert np.allclose(resid, direction * scale, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_colinearity_seeded(self, seed):
        # Unpreconditioned convection-diffusion leaves a residual far above
        # rounding after a short cycle, so the direction is meaningful.
        rng = np.random.default_rng(seed)
        A = gen_convection_diffusion((14, 14), 5.0 + 3.0 * seed)
        b = rng.standard_normal(A.n)
        state = fgmres_cycle(A, None, b, 15)
        y, _ = hessenberg_lsq(state.Hbar, state.c)
        resid = state.c - state.Hbar @ y
        direction = restart_direction(state)
        scale = direction @ resid
        u = resid / np.linalg.norm(resid)
        v = direction / np.linalg.norm(direction)
        gap = min(np.linalg.norm(u - v), np.linalg.norm(u + v))
        assert 2 * np.arcsin(gap / 2) < 1e-10
        assert np.linalg.norm(resid - direction * scale) \
            < 1e-12 * max(np.linalg.norm(state.c), 1.0)


class TestGmresDr:
    def test_k_zero_matches_plain_restart_history(self):
        rng = np.random.default_rng(71)
        A = gen_convection_diffusion((16, 16), 10.0)
        b = rng.standard_normal(A.n)
        _, rep_plain = gmres_solve(A, None, b, m=20, tol=1e-8,
                                   max_matvecs=4000)
        x, rep_dr = gmresdr_solve(A, None, b, m=20, k=0, tol=1e-8,
                                  max_matvecs=4000)
        r1 = [r.true_residual_rel for r in rep_plain.history.rows
              if r.true_residual_rel is not None]
        r2 = [r.true_residual_rel for r in rep_dr.history.rows
              if r.true_residual_rel is not None]
        assert len(r1) == len(r2)
        assert rep_plain.matvecs == rep_dr.matvecs
        # Both orthogonalize by CGS2 but differ in the restart vector, so
        # they agree only to rounding.  The late cycle ends sit near 1e-8,
        # where 1e-8 relative falls below the rounding floor of
        # ||b - A x|| / ||b|| itself; that floor,
        # u (||b|| + ||A||_2 ||x||) / ||b||, is added to the bound.
        bnorm = np.linalg.norm(b)
        floor = np.finfo(float).eps * (
            bnorm + np.linalg.norm(A.to_dense(), 2) * np.linalg.norm(x)) / bnorm
        for a_, b_ in zip(r1, r2):
            assert abs(a_ - b_) <= 1e-8 * a_ + floor

    def test_full_space_single_cycle(self):
        rng = np.random.default_rng(72)
        n = 30
        A = random_sparse(rng, n, density=0.4)
        b = rng.standard_normal(n)
        x, rep = gmresdr_solve(A, None, b, m=n, k=5, tol=1e-10)
        assert rep.cycles == 1
        xref = np.linalg.solve(A.to_dense(), b)
        assert np.linalg.norm(x - xref) < 1e-9 * np.linalg.norm(xref)

    def test_deflation_beats_plain_restarts(self):
        # Multi-cycle configuration (Jacobi): deflated restarting must use
        # strictly fewer matvecs than plain restarted GMRES at the same m.
        rng = np.random.default_rng(73)
        A = gen_convection_diffusion((48, 48), 30.0)
        b = rng.standard_normal(A.n)
        P1 = JacobiPreconditioner(A)
        P2 = JacobiPreconditioner(A)
        x1, rp = gmres_solve(A, P1, b, m=60, tol=1e-8, max_matvecs=40_000)
        x2, rd = gmresdr_solve(A, P2, b, m=60, k=20, tol=1e-8,
                               max_matvecs=40_000)
        assert rp.converged and rd.converged
        assert rd.matvecs < rp.matvecs
        for x in (x1, x2):
            res = np.linalg.norm(b - A.matvec(x)) / np.linalg.norm(b)
            assert res <= 1.05e-8

    def test_strategy_a_equals_b_with_stationary_preconditioner(self):
        rng = np.random.default_rng(74)
        A = gen_convection_diffusion((24, 24), 20.0)
        b = rng.standard_normal(A.n)
        hist = {}
        for strat in "AB":
            _, rep = gmresdr_solve(A, JacobiPreconditioner(A), b, m=30, k=10,
                                   strategy=strat, tol=1e-8,
                                   max_matvecs=20_000)
            hist[strat] = [r.lsq_residual_rel for r in rep.history.rows
                           if r.true_residual_rel is not None]
        assert len(hist["A"]) == len(hist["B"])
        for a_, b_ in zip(hist["A"], hist["B"]):
            assert abs(a_ - b_) <= 1e-8 * max(a_, 1e-30)

    def test_restart_compaction_preserves_arnoldi_relation(self):
        rng = np.random.default_rng(75)
        A = gen_convection_diffusion((20, 20), 15.0)
        op = as_operator(A)
        Ms = InnerGmresPreconditioner(op, 4)
        states = []
        fgmresdr_solve(op, Ms, rng.standard_normal(A.n), m=16, k=6, tol=1e-10,
                       max_matvecs=20_000,
                       state_hook=lambda st, cyc: states.append(st))
        assert len(states) >= 2
        for st in states:
            assert flexible_defect(A, st) < 1e-9


class TestFgmresDr:
    def test_solves_with_inner_gmres(self):
        rng = np.random.default_rng(80)
        A = gen_convection_diffusion((20, 20), 25.0)
        b = rng.standard_normal(A.n)
        x, rep = fgmresdr_solve(A, IluPreconditioner(ilu_factor(A, 0)), b,
                                m=20, k=8, m_i=5, tol=1e-10,
                                max_matvecs=20_000)
        assert rep.converged
        res = np.linalg.norm(b - A.matvec(x)) / np.linalg.norm(b)
        assert res <= 1.1e-10

    def test_budget_reported(self):
        rng = np.random.default_rng(81)
        A = gen_convection_diffusion((24, 24), 5.0)
        b = rng.standard_normal(A.n)
        _, rep = fgmresdr_solve(A, None, b, m=10, k=3, m_i=2, tol=1e-14,
                                max_matvecs=50)
        assert not rep.converged
        assert rep.stop_reason == "budget"


class TestDeflatedEngine:
    """One GMRES-DR / FGMRES-DR engine serves a sequence of solves."""

    @pytest.mark.parametrize("flexible,strategy", [
        (False, "A"), (False, "B"), (True, "A"), (True, "B")])
    def test_a_reused_engine_solves_like_a_fresh_one(self, flexible,
                                                     strategy):
        # Each first solve stops after two full cycles, so the engine ends
        # it holding a deflated restart head built from b1's basis.  That
        # head does not span b2's residual: the next solve starts plainly,
        # exactly as a fresh engine does.
        rng = np.random.default_rng(76)
        A = gen_convection_diffusion((16, 16), 20.0)
        P = JacobiPreconditioner(A)
        b1, b2 = rng.standard_normal(A.n), rng.standard_normal(A.n)
        x0 = 0.1 * rng.standard_normal(A.n)

        def engine():
            return _DeflatedRestart(A, P, flexible=flexible, m=12, k=4,
                                    strategy=strategy,
                                    m_i=3 if flexible else None, tol=1e-10,
                                    max_matvecs=5_000)

        reused = engine()
        _, first = reused.solve(b1, None, lambda cycle, *_: cycle == 2)
        assert first.stop_reason == "triggered"
        assert reused._carry is not None
        x, rep = reused.solve(b2, x0)
        x_ref, rep_ref = engine().solve(b2, x0)
        assert rep.converged and rep.cycles >= 2
        assert x.tobytes() == x_ref.tobytes()
        assert dataclasses.replace(rep, history=None) \
            == dataclasses.replace(rep_ref, history=None)


@pytest.mark.parametrize("solve", [gmresdr_solve, fgmresdr_solve])
def test_deflated_restart_rejects_strategy_c(solve):
    # Strategy C propagates an auxiliary basis paired with a recycled pair,
    # which a deflated restart does not keep.
    A = gen_convection_diffusion((8, 8), 5.0)
    with pytest.raises(ValueError, match="strategy"):
        solve(A, None, np.ones(A.n), m=8, k=3, strategy="C")


class TestStagnation:
    def test_flag_reported_not_fatal(self):
        # A cyclic shift makes GMRES(m) with m < n stall completely: the
        # residual norm cannot decrease until the full space is built.
        n = 40
        rows = list(range(n))
        cols = [(i + 1) % n for i in range(n)]
        A = SparseMatrix.from_coo(n, rows, cols, np.ones(n))
        b = np.zeros(n)
        b[0] = 1.0
        x, rep = gmres_solve(A, None, b, m=5, tol=1e-10, max_matvecs=120)
        assert not rep.converged
        assert rep.stagnation
