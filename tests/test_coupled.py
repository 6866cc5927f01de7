"""Partitioned two-field driver tests against the dense monolithic oracle."""

import numpy as np
import pytest

from krylov_recycle.coupled import (
    AitkenRelaxation,
    PartitionConfig,
    SolverSpec,
    gen_coupled_problem,
    lbgs_solve,
    lbgs_spectral_radius,
    monolithic_oracle,
    structural_update,
)
from krylov_recycle.errors import DivergenceDetected, MaxCouplings


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

    def test_structural_block_spd(self):
        p = gen_coupled_problem((8, 8), 6, 5.0, 3.0, seed=11)
        eig = np.linalg.eigvalsh(p.Ks)
        assert np.all(eig > 0)


class TestStructuralUpdate:
    def test_full_step(self):
        p = gen_coupled_problem((8, 8), 4, 5.0, 2.0, seed=3)
        la = np.zeros(p.n)
        raw = np.linalg.solve(p.Ks, p.bs)
        out = structural_update(p, la, np.zeros(4), 1.0)
        assert np.allclose(out, raw)

    def test_fixed_point_under_relaxation(self):
        p = gen_coupled_problem((8, 8), 4, 5.0, 2.0, seed=3)
        la = np.zeros(p.n)
        raw = np.linalg.solve(p.Ks, p.bs)
        out = structural_update(p, la, raw, 0.5)
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
