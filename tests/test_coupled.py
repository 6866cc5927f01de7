"""Partitioned two-field driver tests against the dense monolithic oracle."""

import copy
import dataclasses
import sys
import threading

import numpy as np
import pytest

from conftest import REFERENCE_KWARGS
from krylov_recycle import gmres, operators
from krylov_recycle.coupled import (
    REFINING_SOLVES,
    AitkenRelaxation,
    CoupledProblem,
    PartitionConfig,
    SolverSpec,
    _check_nonsingular,
    _FluidSolver,
    _monolithic_matrix,
    gen_coupled_problem,
    lbgs_solve,
    lbgs_spectral_radius,
    monolithic_oracle,
    structural_response,
    structural_update,
)
from krylov_recycle.errors import (
    DivergenceDetected,
    MaxCouplings,
    SingularMonolithic,
)
from krylov_recycle.operators import (
    MatvecCounter,
    SparseMatrix,
    gen_convection_diffusion,
    ilu_factor,
)
from krylov_recycle.records import ConvergenceRecord


def hand_built_block(singular_schur):
    """A 6 + 2 block whose arithmetic is exact: Aff = 2 I, integer maps.

    Ks = S - Gsf Aff^{-1} Gfs, so the Schur complement Ks + Gsf Aff^{-1}
    Gfs is S, which is singular or not as asked.
    """
    n, n_s = 6, 2
    Gfs = np.arange(n * n_s, dtype=float).reshape(n, n_s) % 5 - 2
    Gsf = np.arange(n_s * n, dtype=float).reshape(n_s, n) % 3 - 1
    S = np.array([[1.0, 2.0], [2.0, 4.0 if singular_schur else 5.0]])
    Ks = S - Gsf @ Gfs / 2.0
    Aff = SparseMatrix.from_dense(2.0 * np.eye(n))
    return CoupledProblem(Aff, Gfs, Gsf, Ks, np.ones(n), np.ones(n_s), 1.0)


def reference_lbgs(problem, config):
    """Block Gauss-Seidel that forms every product of a coupling afresh.

    Each fluid solve forms its own initial residual, r_A its own
    right-hand side and product Aff lambda_a, and each coupling solves
    with Ks twice: once in the structural update and once for r_S.
    Returns (lambda_a, lambda_s, [(r_A, r_S, d_p, p)], record, matvecs).
    """
    record, counter = ConvergenceRecord(), MatvecCounter()
    fluid = _FluidSolver(config.solver, problem.Aff, config.eps_A, record,
                         counter)
    rf = config.recycle_from
    bf_norm = np.linalg.norm(problem.bf)
    la, ls = np.zeros(problem.n), np.zeros(problem.n_s)
    aitken = AitkenRelaxation(config.theta_s) if config.aitken else None

    def fluid_solve(index):
        record.coupling_cycle = record.system_index = index
        rhs = problem.bf + problem.Gfs @ ls
        tol = max(config.eps_A * bf_norm / max(np.linalg.norm(rhs), 1e-300),
                  1e-15)

        def trigger(cycle, prev_rel, rel):
            return rel <= tol or (prev_rel is not None
                                  and rel / prev_rel < config.rho_trigger)

        fluid.engine.tol = tol
        rows_before = len(record.rows)
        x, _ = fluid.solve(rhs, la, trigger, rf is not None and index >= rf,
                           rf is None or index < rf + REFINING_SOLVES)
        # The distance of this solve's last cycle-end row, if it ran one.
        ends = [row for row in record.rows[rows_before:]
                if row.true_residual_rel is not None]
        return x, (ends[-1].d_p, ends[-1].p) if ends else (None, None)

    la, _ = fluid_solve(1)
    rows = []
    for cycle in range(1, config.n_cpl + 1):
        ls = structural_update(structural_response(problem, la), ls,
                               config.theta_s, aitken)
        la, (d_p, p) = fluid_solve(cycle + 1)
        r_A = np.linalg.norm(problem.bf + problem.Gfs @ ls
                             - problem.Aff.matvec(la)) / bf_norm
        counter.add(1)
        raw = np.linalg.solve(problem.Ks, problem.bs - problem.Gsf @ la)
        r_S = np.linalg.norm(raw - ls) / max(np.linalg.norm(ls), 1e-300)
        record.coupling_cycle = cycle
        record.append(cycle, 0, counter.count, r_A, true_rel=r_A,
                      event="coupling", d_p=d_p, p=p)
        rows.append((r_A, r_S, d_p, p))
        if r_A <= config.eps_A and r_S <= config.eps_S:
            break
    return la, ls, rows, record, counter.count


def count_ks_solves(monkeypatch, problem):
    """List that collects one entry per np.linalg.solve with Ks."""
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: (a is problem.Ks and calls.append(1))
                        or solve(a, b))
    return calls


class TestGenCoupledProblem:
    def test_zero_coupling_converges_in_one_coupling(self):
        problem = gen_coupled_problem((8, 8), 4, 10.0, 0.0, seed=5)
        cfg = PartitionConfig(
            solver=SolverSpec(family="gmres", m=30, preconditioner="ilu"))
        la, ls, hist = lbgs_solve(problem, cfg)
        assert hist.converged
        assert hist.couplings == 1
        oa, os_ = monolithic_oracle(problem)
        assert np.linalg.norm(la - oa) <= 1.1e-6 * np.linalg.norm(oa)
        assert np.linalg.norm(ls - os_) <= 1e-10 * max(np.linalg.norm(os_), 1.0)

    def test_determinism(self):
        p1 = gen_coupled_problem((16, 16), 8, 20.0, 5.0, seed=33)
        p2 = gen_coupled_problem((16, 16), 8, 20.0, 5.0, seed=33)
        assert np.array_equal(p1.Aff.values, p2.Aff.values)
        assert np.array_equal(p1.Gfs, p2.Gfs)
        assert np.array_equal(p1.Gsf, p2.Gsf)
        assert np.array_equal(p1.Ks, p2.Ks)
        assert np.array_equal(p1.bf, p2.bf)

    def test_spectral_radius_monotone_in_coupling(self):
        rhos = [lbgs_spectral_radius(
            gen_coupled_problem((12, 12), 6, 15.0, c, seed=7))
            for c in (2.0, 8.0, 20.0, 40.0)]
        assert all(a < b for a, b in zip(rhos, rhos[1:]))

    def test_singular_schur_complement_raises(self):
        problem = hand_built_block(singular_schur=True)
        assert np.linalg.matrix_rank(_monolithic_matrix(problem)) == 7
        with pytest.raises(SingularMonolithic):
            _check_nonsingular(problem)

    def test_nonsingular_schur_complement_passes(self):
        problem = hand_built_block(singular_schur=False)
        assert np.linalg.matrix_rank(_monolithic_matrix(problem)) == 8
        _check_nonsingular(problem)

    @pytest.mark.parametrize("kind", ["zero_pivot", "dependent_row"])
    def test_singular_fluid_block_raises(self, kind):
        # The check needs Aff^{-1}, so a singular Aff raises whether or not
        # the coupling columns would make up for it.  A zero column stops
        # the sparse LU outright; a row that combines three others leaves a
        # rounding-level last pivot instead.
        if kind == "zero_pivot":
            dense = np.diag([2.0, 2.0, 0.0, 2.0, 2.0, 2.0])
        else:
            dense = 2.5 * np.eye(6) - np.eye(6, k=1) - np.eye(6, k=-1)
            dense[5] = 0.1 * dense[0] + 0.3 * dense[2] + 0.7 * dense[4]
        problem = dataclasses.replace(
            hand_built_block(singular_schur=False),
            Aff=SparseMatrix.from_dense(dense))
        assert np.linalg.matrix_rank(dense) == 5
        with pytest.raises(SingularMonolithic, match="fluid block"):
            _check_nonsingular(problem)

    def test_structural_block_spd(self):
        p = gen_coupled_problem((8, 8), 6, 5.0, 3.0, seed=11)
        eig = np.linalg.eigvalsh(p.Ks)
        assert np.all(eig > 0)


class TestStructuralUpdate:
    def test_full_step(self):
        p = gen_coupled_problem((8, 8), 4, 5.0, 2.0, seed=3)
        la = np.zeros(p.n)
        raw = np.linalg.solve(p.Ks, p.bs)
        out = structural_update(structural_response(p, la), np.zeros(4), 1.0)
        assert np.allclose(out, raw)

    def test_fixed_point_under_relaxation(self):
        p = gen_coupled_problem((8, 8), 4, 5.0, 2.0, seed=3)
        la = np.zeros(p.n)
        raw = np.linalg.solve(p.Ks, p.bs)
        out = structural_update(structural_response(p, la), raw, 0.5)
        assert np.allclose(out, raw)

    def test_aitken_scalar_contraction(self):
        # closed-form fixed point oracle: x <- 0.5 x + 1 has x* = 2
        aitken = AitkenRelaxation(1.0)
        x = 0.0
        for step in range(1, 4):
            raw = 0.5 * x + 1.0
            theta = aitken.next_theta(np.array([raw - x]))
            x = x + theta * (raw - x)
            if abs(x - 2.0) < 1e-12:
                break
        assert step <= 3
        assert x == pytest.approx(2.0, abs=1e-12)

    def test_aitken_clamped(self):
        aitken = AitkenRelaxation(1.0, theta_min=0.1, theta_max=2.0)
        aitken.next_theta(np.array([1.0]))
        theta = aitken.next_theta(np.array([10.0]))
        assert 0.1 <= theta <= 2.0


class TestLbgsSolve:
    def test_reference_problem_matches_oracle(self, reference_problem,
                                              reference_oracle):
        cfg = PartitionConfig(solver=SolverSpec(
            family="gcrodr", m=60, k=20, preconditioner="ilu"))
        la, ls, hist = lbgs_solve(reference_problem, cfg)
        assert hist.converged
        oa, os_ = reference_oracle
        assert np.linalg.norm(la - oa) <= 5e-6 * np.linalg.norm(oa)
        assert np.linalg.norm(ls - os_) <= 5e-6 * np.linalg.norm(os_)

    def test_recycling_reduces_matvecs_same_solution(self, reference_problem,
                                                     reference_oracle):
        oa, _ = reference_oracle
        results = {}
        for rf in (None, 2):
            cfg = PartitionConfig(recycle_from=rf, solver=SolverSpec(
                family="gcrodr", m=60, k=20, preconditioner="ilu"))
            la, _, hist = lbgs_solve(reference_problem, cfg)
            assert hist.converged
            results[rf] = (hist.total_matvecs, la)
        assert results[2][0] < results[None][0]
        # recycling changes cost, not the converged solution
        x_cold, x_warm = results[None][1], results[2][1]
        assert np.linalg.norm(x_warm - x_cold) < 1e-5 * np.linalg.norm(x_cold)
        for _, la in results.values():
            assert np.linalg.norm(la - oa) <= 5e-6 * np.linalg.norm(oa)

    def test_fluid_rhs_sequence_converges_geometrically(self,
                                                        reference_problem):
        cfg = PartitionConfig(solver=SolverSpec(
            family="gcrodr", m=60, k=20, preconditioner="ilu"))
        _, _, hist = lbgs_solve(reference_problem, cfg)
        rs = [c.r_S for c in hist.cycles]
        # once the structural update norm is below 0.1, successive values
        # keep contracting
        small = [r for r in rs if r < 0.1]
        assert len(small) >= 3
        assert all(b_ < a_ for a_, b_ in zip(small, small[1:]))

    def test_all_solver_families_agree(self, reference_problem,
                                       reference_oracle):
        oa, _ = reference_oracle
        for family in ("gmres", "gmresdr", "fgmresdr", "fgcrodr"):
            cfg = PartitionConfig(solver=SolverSpec(
                family=family, m=60, k=20, m_i=10, preconditioner="ilu"))
            la, _, hist = lbgs_solve(reference_problem, cfg)
            assert hist.converged, family
            err = np.linalg.norm(la - oa) / np.linalg.norm(oa)
            assert err <= 1e-5, (family, err)

    @pytest.mark.parametrize("family", ["gcrodr", "fgcrodr"])
    def test_kept_pair_matches_oracle(self, reference_problem,
                                      reference_oracle, family):
        # From fluid solve recycle_from + REFINING_SOLVES on the pair is
        # kept, so those coupling rows carry no distance.
        rf = 2
        cfg = PartitionConfig(recycle_from=rf, solver=SolverSpec(
            family=family, m=60, k=20, m_i=10, preconditioner="ilu"))
        la, ls, hist = lbgs_solve(reference_problem, cfg)
        assert hist.converged
        oa, os_ = reference_oracle
        assert np.linalg.norm(la - oa) <= 1e-5 * np.linalg.norm(oa)
        assert np.linalg.norm(ls - os_) <= 1e-5 * np.linalg.norm(os_)
        # Coupling row c follows fluid solve c + 1.
        kept = [c.d_p for c in hist.cycles
                if c.cycle + 1 >= rf + REFINING_SOLVES]
        refined = [c.d_p for c in hist.cycles
                   if c.cycle + 1 < rf + REFINING_SOLVES]
        assert kept and all(d is None for d in kept)
        assert refined and all(d is not None for d in refined)

    def test_max_couplings_raises_with_history(self):
        problem = gen_coupled_problem((12, 12), 6, 10.0, 40.0, seed=21)
        cfg = PartitionConfig(n_cpl=2, solver=SolverSpec(
            family="gmres", m=30, preconditioner="ilu", max_matvecs=5_000))
        with pytest.raises(MaxCouplings) as err:
            lbgs_solve(problem, cfg)
        assert err.value.history.couplings == 2

    def test_divergence_detected_for_supercritical_coupling(self):
        problem = gen_coupled_problem((10, 10), 6, 10.0, 200.0, seed=2)
        assert lbgs_spectral_radius(problem) > 1.0
        cfg = PartitionConfig(n_cpl=40, solver=SolverSpec(
            family="gmres", m=40, preconditioner="ilu", max_matvecs=2_000))
        with pytest.raises((DivergenceDetected, MaxCouplings)):
            lbgs_solve(problem, cfg)

    def test_coupling_rows_logged_once_per_cycle(self, reference_problem):
        cfg = PartitionConfig(solver=SolverSpec(
            family="gcrodr", m=60, k=20, preconditioner="ilu"))
        _, _, hist = lbgs_solve(reference_problem, cfg)
        events = [r for r in hist.record.rows if r.event == "coupling"]
        assert len(events) == hist.couplings

    def test_a_coupling_row_repeats_its_own_sub_solves_distance(
            self, reference_problem):
        # perfbench coupled_ref's load 2 at seed 7, recycling off: fluid
        # sub-solve 13 starts within its tolerance and runs no cycle, so
        # coupling 12 has no distance to repeat.
        rng = np.random.default_rng([7, 2])
        problem = dataclasses.replace(
            reference_problem, bf=rng.standard_normal(reference_problem.n),
            bs=rng.standard_normal(reference_problem.n_s))
        cfg = PartitionConfig(solver=SolverSpec(
            family="gcrodr", m=60, k=20, preconditioner="ilu"))
        _, _, hist = lbgs_solve(problem, cfg)
        assert hist.converged
        rows = hist.record.rows
        couplings = [r for r in rows if r.event == "coupling"]
        no_cycle = []
        for c, row in zip(hist.cycles, couplings, strict=True):
            ends = [r for r in rows if r.event != "coupling"
                    and r.system_index == c.cycle + 1
                    and r.true_residual_rel is not None]
            want = (ends[-1].d_p, ends[-1].p) if ends else (None, None)
            assert (row.d_p, row.p) == (c.d_p, c.p) == want, c.cycle
            if not ends:
                no_cycle.append(c.cycle)
        assert 12 in no_cycle
        # No row measures a distance over zero principal angles.
        assert all(r.p != 0 for r in rows)


class TestOneProductPerCoupling:
    """Each coupling forms its products once; the fields keep their bits."""

    @pytest.mark.parametrize("family,recycle_from,aitken", [
        ("gcrodr", 2, False), ("gcrodr", None, False), ("gcrodr", 2, True),
        ("fgcrodr", 2, False), ("gmres", None, False),
        ("gmresdr", None, False), ("fgmresdr", None, False)])
    def test_matches_a_loop_that_forms_every_product(
            self, reference_problem, monkeypatch, family, recycle_from,
            aitken):
        cfg = PartitionConfig(recycle_from=recycle_from, aitken=aitken,
                              solver=SolverSpec(family=family, m=60, k=20,
                                                m_i=10, preconditioner="ilu"))
        la_ref, ls_ref, rows_ref, record_ref, matvecs_ref = reference_lbgs(
            reference_problem, cfg)
        images = []
        solve = _FluidSolver.solve
        monkeypatch.setattr(
            _FluidSolver, "solve",
            lambda self, *args, Ax0=None, **kwargs:
                images.append(Ax0 is not None)
                or solve(self, *args, Ax0=Ax0, **kwargs))
        la, ls, hist = lbgs_solve(reference_problem, cfg)
        assert hist.converged
        assert la.tobytes() == la_ref.tobytes()
        assert ls.tobytes() == ls_ref.tobytes()
        assert [(c.r_A, c.r_S, c.d_p, c.p) for c in hist.cycles] == rows_ref
        assert len(hist.record.rows) == len(record_ref.rows)
        for row, row_ref in zip(hist.record.rows, record_ref.rows):
            assert dataclasses.replace(row, matvecs=0) \
                == dataclasses.replace(row_ref, matvecs=0)
        # Fluid solves 1 and 2 start without an image: the first from zero,
        # the second before any r_A.
        assert images == [False, False] + [True] * (hist.couplings - 1)
        assert hist.total_matvecs == matvecs_ref - sum(images)

    def test_one_ks_solve_per_coupling(self, reference_problem, monkeypatch):
        cfg = PartitionConfig(recycle_from=2, solver=SolverSpec(
            family="gcrodr", m=60, k=20, preconditioner="ilu"))
        calls = count_ks_solves(monkeypatch, reference_problem)
        rows_ref = reference_lbgs(reference_problem, cfg)[2]
        assert len(calls) == 2 * len(rows_ref)
        calls.clear()
        _, _, hist = lbgs_solve(reference_problem, cfg)
        assert hist.couplings == len(rows_ref) >= 3
        # One for the first fluid state, then one per coupling.
        assert len(calls) == hist.couplings + 1


class TestOneFluidEngine:
    """A coupled solve builds one fluid engine and runs every sub-solve on
    it, whatever the family."""

    FAMILIES = ("gmres", "gmresdr", "fgmresdr", "gcrodr", "fgcrodr")

    @staticmethod
    def config(family):
        return PartitionConfig(recycle_from=2, solver=SolverSpec(
            family=family, m=30, k=10, m_i=5, preconditioner="ilu"))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_sub_solve_runs_on_one_engine(self, reference_problem,
                                                monkeypatch, family):
        # Every engine is a _Restarted and solves through its restart loop.
        built, solved = [], []
        init, solve = gmres._Restarted.__init__, gmres._Restarted.solve
        monkeypatch.setattr(gmres._Restarted, "__init__",
                            lambda self, *args, **kwargs: built.append(self)
                            or init(self, *args, **kwargs))
        monkeypatch.setattr(gmres._Restarted, "solve",
                            lambda self, *args, **kwargs: solved.append(self)
                            or solve(self, *args, **kwargs))
        _, _, hist = lbgs_solve(reference_problem, self.config(family))
        assert hist.converged and hist.couplings >= 3
        assert len(built) == 1
        assert len(solved) == hist.couplings + 1
        assert all(engine is built[0] for engine in solved)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_iteration_counts_arnoldi_steps_across_sub_solves(
            self, reference_problem, family):
        _, _, hist = lbgs_solve(reference_problem, self.config(family))
        rows = [r for r in hist.record.rows if r.event != "coupling"]
        steps = [r.iteration for r in rows if r.true_residual_rel is None]
        assert len({r.system_index for r in rows}) == hist.couplings + 1
        assert all(b > a for a, b in zip(steps, steps[1:]))
        # A cycle-end row repeats the count of the step that closed it.
        assert all(b.iteration >= a.iteration for a, b in zip(rows, rows[1:]))


class TestSharedJacobian:
    """Coupled solves on one fluid Jacobian share its ILU factor."""

    def test_loads_sharing_aff_match_fresh_factors(self, monkeypatch):
        # The paper's setting: one coupled solve per function of interest,
        # every one on the same Jacobian.  Each shared solve must match the
        # same load on a deep copy, whose matrix is factored afresh.
        base = gen_coupled_problem(**REFERENCE_KWARGS)
        rng = np.random.default_rng(19)
        loads = [dataclasses.replace(base, bf=rng.standard_normal(base.n),
                                     bs=rng.standard_normal(base.n_s))
                 for _ in range(2)]
        fresh = [copy.deepcopy(p) for p in loads]
        assert fresh[0].Aff is not base.Aff
        cfg = PartitionConfig(recycle_from=2, solver=SolverSpec(
            family="gcrodr", m=60, k=20, preconditioner="ilu"))
        factored = []
        numeric = operators._ilu_numeric
        monkeypatch.setattr(operators, "_ilu_numeric",
                            lambda A, level: factored.append(A)
                            or numeric(A, level))
        shared = [lbgs_solve(p, cfg) for p in loads]
        assert factored == [base.Aff]
        for (la, ls, hist), p in zip(shared, fresh):
            la_f, ls_f, hist_f = lbgs_solve(p, cfg)
            assert factored[-1] is p.Aff
            assert hist.converged
            assert hist.total_matvecs == hist_f.total_matvecs
            assert hist.cycles == hist_f.cycles
            assert hist.record.rows == hist_f.record.rows
            assert la.tobytes() == la_f.tobytes()
            assert ls.tobytes() == ls_f.tobytes()
        assert len(factored) == 3

    @pytest.mark.parametrize("grid", [(24, 24), (36, 36)])
    def test_shared_factor_applies_concurrently(self, grid):
        # Two threads factor one fresh matrix at once, then apply the factor
        # (the SuperLU object at n = 576, gstrs at n = 1296): both get the
        # one kept factor, and every apply gives the serial apply's bits.
        A = gen_convection_diffusion(grid, 30.0)
        V = np.random.default_rng(23).standard_normal((6, A.n))
        serial = [ilu_factor(copy.deepcopy(A), 0).solve(v).tobytes()
                  for v in V]
        start = threading.Barrier(2, timeout=30)
        got, mismatches = [], []

        def worker():
            start.wait()
            fact = ilu_factor(A, 0)
            got.append(fact)
            for _ in range(100):
                for v, want in zip(V, serial):
                    if fact.solve(v).tobytes() != want:
                        mismatches.append(v)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 2 and got[0] is got[1] is ilu_factor(A, 0)
        assert mismatches == []


class TestMonolithicOracle:
    def test_block_triangular_case(self):
        p = gen_coupled_problem((8, 8), 4, 10.0, 0.0, seed=5)
        la, ls = monolithic_oracle(p)
        la_ref = np.linalg.solve(p.Aff.to_dense(), p.bf)
        ls_ref = np.linalg.solve(p.Ks, p.bs - p.Gsf @ la_ref)
        assert np.allclose(la, la_ref)
        assert np.allclose(ls, ls_ref)

    def test_direct_solve_residual(self, reference_problem,
                                   reference_oracle):
        p = reference_problem
        la, ls = reference_oracle
        rf = p.bf + p.Gfs @ ls - p.Aff.matvec(la)
        rs = p.bs - p.Gsf @ la - p.Ks @ ls
        scale = np.linalg.norm(np.concatenate([p.bf, p.bs]))
        assert np.linalg.norm(np.concatenate([rf, rs])) < 1e-12 * scale


class TestSolverSpec:
    @pytest.mark.parametrize("family,strategy", [
        ("gmres", "A"), ("gmres", "C"), ("gmresdr", "C"), ("fgmresdr", "C"),
        ("gcrodr", "A"), ("gcrodr", "C"), ("fgcrodr", "D")])
    def test_rejects_a_strategy_the_family_does_not_take(self, family,
                                                         strategy):
        with pytest.raises(ValueError, match="strategy"):
            SolverSpec(family=family, strategy=strategy)

    def test_rejects_an_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            SolverSpec(family="bicgstab")

    @pytest.mark.parametrize("family,k", [
        ("gmresdr", -1), ("gmresdr", 20), ("fgmresdr", 25), ("gcrodr", 0),
        ("gcrodr", 20), ("fgcrodr", 0)])
    def test_rejects_a_k_the_family_cannot_keep(self, family, k):
        with pytest.raises(ValueError, match="k < m"):
            SolverSpec(family=family, m=20, k=k)

    @pytest.mark.parametrize("family,k", [
        ("gmres", 40), ("gmresdr", 0), ("fgmresdr", 19), ("gcrodr", 1)])
    def test_accepts_a_k_the_family_can_keep(self, family, k):
        SolverSpec(family=family, m=20, k=k)
