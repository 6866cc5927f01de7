"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 8-10 share the reference coupled runs through a
module-scoped fixture so the suite stays inside the runtime budgets.
"""

import time

import numpy as np
import pytest

from conftest import REFERENCE_KWARGS, random_sparse, restart_direction
from krylov_recycle.coupled import (
    PartitionConfig,
    SolverSpec,
    gen_coupled_problem,
    lbgs_solve,
    monolithic_oracle,
)
from krylov_recycle.gcro import (
    RecyclingSolver,
    arnoldi_projected,
    flexible_strategy_b_pairs,
    gcro_lsq_blockwise,
    warm_start,
)
from krylov_recycle.gmres import (
    _DeflatedRestart,
    fgmres_cycle,
    fgmresdr_solve,
    gmresdr_solve,
)
from krylov_recycle.operators import (
    IluPreconditioner,
    InnerGmresPreconditioner,
    JacobiPreconditioner,
    SparseMatrix,
    as_operator,
    gen_convection_diffusion,
    ilu_factor,
)
from krylov_recycle.smallalg import (
    grassmann_distance,
    hessenberg_lsq,
    reduced_qr,
    small_standard_eig,
)


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion:>2}: {status}  {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def reference_runs():
    """Shared LBGS runs on the reference problem for criteria 8, 9, 10."""
    problem = gen_coupled_problem(**REFERENCE_KWARGS)
    oracle = monolithic_oracle(problem)
    runs = {}
    t0 = time.perf_counter()
    for rf in (None, 2, 3, 4):
        cfg = PartitionConfig(recycle_from=rf, solver=SolverSpec(
            family="gcrodr", m=60, k=20, preconditioner="ilu"))
        la, ls, hist = lbgs_solve(problem, cfg)
        runs[rf] = dict(la=la, ls=ls, hist=hist)
    elapsed = time.perf_counter() - t0
    return dict(problem=problem, oracle=oracle, runs=runs, elapsed=elapsed)


def test_criterion_1_arnoldi_invariants():
    t0 = time.perf_counter()
    worst_rel = 0.0
    worst_orth = 0.0
    states_checked = 0
    for i in range(50):
        rng = np.random.default_rng(1000 + i)
        if i % 2 == 0:
            grid = 7 + (i % 5)
            A = gen_convection_diffusion((grid, grid), float(5 * (i % 7)))
        else:
            A = random_sparse(rng, 60 + (i % 4) * 10, density=0.08)
        op = as_operator(A)
        n = op.dim
        r0 = rng.standard_normal(n)
        kind = i % 3
        states = []
        if kind == 0:
            P = [None, JacobiPreconditioner(A),
                 IluPreconditioner(ilu_factor(A, 0))][i % 3 if False else (i // 3) % 3]
            states.append(fgmres_cycle(op, P, r0, 12))
        elif kind == 1:
            Ms = InnerGmresPreconditioner(op, 4)
            states.append(fgmres_cycle(op, Ms, r0, 10))
        else:
            fgmresdr_solve(op, None, r0, m=14, k=5, m_i=3, tol=1e-10,
                           max_matvecs=800,
                           state_hook=lambda st, cyc: states.append(st))
        for st in states:
            states_checked += 1
            AZ = np.column_stack([A.matvec(st.Z[:, j])
                                  for j in range(st.width)])
            rel = np.linalg.norm(AZ - st.V @ st.Hbar) / np.linalg.norm(st.Hbar)
            orth = np.linalg.norm(st.V.T @ st.V - np.eye(st.width + 1))
            worst_rel = max(worst_rel, rel)
            worst_orth = max(worst_orth, orth)
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-10 and worst_orth <= 1e-10 and elapsed < 30.0
    report(1, ok,
           f"flexible relation <= {worst_rel:.2e}, orthogonality <= "
           f"{worst_orth:.2e} over {states_checked} cycle states "
           f"({elapsed:.1f}s < 30s)")


def test_criterion_2_ritz_residual_identity():
    t0 = time.perf_counter()
    worst = 0.0
    pairs_checked = 0
    for i in range(20):
        rng = np.random.default_rng(2000 + i)
        if i % 2 == 0:
            A = gen_convection_diffusion((8 + i % 4, 8 + i % 3),
                                         float(3 * i))
        else:
            A = random_sparse(rng, 50 + i, density=0.1)
        r0 = rng.standard_normal(A.n)
        state = fgmres_cycle(A, None, r0, 10)
        j = state.width
        H = state.Hbar[:j]
        delta = state.Hbar[j, j - 1]
        Vm = state.V[:, :j]
        ritz = small_standard_eig(H, j)
        for lam, g in ritz.complex_pairs():
            y = Vm @ g
            Ay_re = A.matvec(np.ascontiguousarray(y.real))
            Ay_im = A.matvec(np.ascontiguousarray(y.imag))
            explicit = np.linalg.norm(Ay_re + 1j * Ay_im - lam * y)
            formula = abs(delta) * abs(g[-1])
            worst = max(worst, abs(explicit - formula))
            pairs_checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    report(2, ok, f"|explicit - h*|e_m.g|| <= {worst:.2e} over "
                  f"{pairs_checked} Ritz pairs ({elapsed:.1f}s < 10s)")


def test_criterion_3_restart_vector_colinearity():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        A = gen_convection_diffusion((12 + seed % 5, 12 + seed % 3),
                                     2.0 + 4.0 * seed)
        b = rng.standard_normal(A.n)
        state = fgmres_cycle(A, None, b, 14)
        y, _ = hessenberg_lsq(state.Hbar, state.c)
        resid = state.c - state.Hbar @ y
        direction = restart_direction(state)
        u = resid / np.linalg.norm(resid)
        v = direction / np.linalg.norm(direction)
        gap = min(np.linalg.norm(u - v), np.linalg.norm(u + v))
        worst = max(worst, 2.0 * np.arcsin(gap / 2.0))
    ok = worst < 1e-10
    report(3, ok, f"max angle {worst:.2e} rad over 20 seeded cycles")


def test_criterion_4_gmresdr_gcrodr_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4000)

    def cycle_ends(rep):
        return [r.true_residual_rel for r in rep.history.rows
                if r.true_residual_rel is not None]

    # Pinned configuration: 48x48 convection-diffusion with matched ILU(0),
    # m=60, k=20.  The strong preconditioner converges this problem in
    # fewer than 3 cycles at desk scale, so the agreement is asserted over
    # every completed cycle end.
    A = gen_convection_diffusion((48, 48), 0.0)
    b = rng.standard_normal(A.n)
    _, rep_dr = gmresdr_solve(A, IluPreconditioner(ilu_factor(A, 0)), b,
                              m=60, k=20, tol=1e-8, max_matvecs=20_000)
    solver = RecyclingSolver(A, IluPreconditioner(ilu_factor(A, 0)),
                             m=60, k=20, tol=1e-8, max_matvecs=20_000)
    _, rep_gc = solver.solve(b)
    ends_dr, ends_gc = cycle_ends(rep_dr), cycle_ends(rep_gc)
    pinned_pairs = list(zip(ends_dr[:3], ends_gc[:3]))
    worst_pinned = max(abs(a - b_) / a for a, b_ in pinned_pairs)
    # Companion at the same (m, k) with weak preconditioning runs three or
    # more genuinely deflated cycles with residuals far above rounding.
    A2 = gen_convection_diffusion((48, 48), 30.0)
    b2 = rng.standard_normal(A2.n)
    _, rep_dr2 = gmresdr_solve(A2, None, b2, m=60, k=20, tol=1e-8,
                               max_matvecs=20_000)
    solver2 = RecyclingSolver(A2, None, m=60, k=20, tol=1e-8,
                              max_matvecs=20_000)
    _, rep_gc2 = solver2.solve(b2)
    ends_dr2, ends_gc2 = cycle_ends(rep_dr2), cycle_ends(rep_gc2)
    three = min(len(ends_dr2), len(ends_gc2))
    worst_companion = max(abs(a - b_) / a
                          for a, b_ in zip(ends_dr2[:3], ends_gc2[:3]))
    elapsed = time.perf_counter() - t0
    ok = (worst_pinned <= 1e-8 and three >= 3 and worst_companion <= 1e-8
          and elapsed < 20.0)
    report(4, ok,
           f"pinned ILU(0): {len(pinned_pairs)} cycle ends agree to "
           f"{worst_pinned:.2e}; companion 3 cycles to "
           f"{worst_companion:.2e} ({elapsed:.1f}s < 20s)")


def test_criterion_5_residual_optimality():
    rng = np.random.default_rng(5000)
    A = gen_convection_diffusion((20, 20), 18.0)
    n = A.n
    seq = [rng.standard_normal(n) for _ in range(3)]
    worst_cycle = 0.0
    worst_warm = 0.0
    for flexible in (False, True):
        solver = RecyclingSolver(A, None, m=25, k=8, flexible=flexible,
                                 tol=1e-9, max_matvecs=60_000)
        for s, b in enumerate(seq, start=1):
            r0_norm = np.linalg.norm(b)
            if s > 1 and solver.recycle is not None:
                _, r_warm = warm_start(A, solver.recycle, b, None,
                                       validate=True)
                worst_warm = max(
                    worst_warm,
                    np.linalg.norm(solver.recycle.C.T @ r_warm) / r0_norm)
            ratios = []

            def hook(info, scale=r0_norm, out=ratios):
                if info["C"] is not None:
                    out.append(np.linalg.norm(info["C"].T @ info["r"]) / scale)

            solver.cycle_hook = hook
            _, rep = solver.solve(b)
            assert rep.converged
            worst_cycle = max(worst_cycle, max(ratios))
    ok = worst_cycle <= 1e-10 and worst_warm <= 1e-10
    report(5, ok, f"C.r / ||r0|| <= {worst_cycle:.2e} after cycles, "
                  f"<= {worst_warm:.2e} after warm starts")


def test_criterion_6_blockwise_equals_monolithic():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(6000 + seed)
        n = 40 + seed
        k = 3 + seed % 5
        A = random_sparse(rng, n, density=0.1)
        U0 = rng.standard_normal((n, k))
        AU = np.column_stack([A.matvec(U0[:, j]) for j in range(k)])
        Q, R = reduced_qr(AU)
        import scipy.linalg
        U = scipy.linalg.solve_triangular(R.T, U0.T, lower=True).T
        from krylov_recycle.gcro import RecycleSpace
        space = RecycleSpace(C=Q, U=U)
        b = rng.standard_normal(n)
        _, r1 = warm_start(A, space, b, None, validate=False)
        state = arnoldi_projected(A, None, r1, 8 + seed % 4, space.C,
                                  space.U)
        y_block, _ = gcro_lsq_blockwise(state, r1)
        y_mono, *_ = np.linalg.lstsq(state.Hbar, state.What.T @ r1,
                                     rcond=None)
        worst = max(worst, np.linalg.norm(y_block - y_mono)
                    / max(1.0, np.linalg.norm(y_mono)))
    ok = worst <= 1e-10
    report(6, ok, f"blockwise vs monolithic coordinates <= {worst:.2e} "
                  f"over 20 seeded states")


def test_criterion_7_strategy_b_closed_form():
    rng = np.random.default_rng(7000)
    A = gen_convection_diffusion((24, 24), 30.0)
    op = as_operator(A)
    states = []

    def hook(state, cycle):
        if state.k > 0:
            states.append(state)

    solver = RecyclingSolver(op, None, m=12, k=4, flexible=True, m_i=2,
                             strategy="B", tol=1e-10, max_matvecs=60_000,
                             state_hook=hook)
    solver.solve(rng.standard_normal(A.n))
    assert states, "no flexible recycling cycles captured"
    worst_pair = 0.0
    for state in states[:4]:
        kk = state.k
        _, full = flexible_strategy_b_pairs(state, kk)
        m = state.m
        Hbar = state.Hbar
        H = Hbar[:m, :]
        h = Hbar[m, m - 1]
        f = np.linalg.solve(H.T, np.eye(m)[-1])
        Hhat = H + h**2 * np.outer(f, np.eye(m)[-1])
        unit_count = int(np.count_nonzero(np.abs(full.values - 1.0) < 1e-8))
        assert unit_count == kk, "unit eigenvalue multiplicity mismatch"
        assert np.allclose(full.vectors[:kk, :kk], np.eye(kk))
        assert np.allclose(full.vectors[kk:, :kk], 0.0)
        for lam, g in full.complex_pairs():
            if abs(lam - 1.0) < 1e-8:
                continue
            defect = np.linalg.norm(Hhat @ g - lam * g)
            worst_pair = max(worst_pair, defect)
    ok = worst_pair <= 1e-12 * max(1.0, np.linalg.norm(Hhat))
    report(7, ok,
           f"unit multiplicity exact over {len(states[:4])} states; "
           f"complementary pairs satisfy Hhat g = lambda g to "
           f"{worst_pair:.2e}")


def test_criterion_8_coupled_matches_oracle(reference_runs):
    oa, os_ = reference_runs["oracle"]
    run = reference_runs["runs"][None]
    err_a = np.linalg.norm(run["la"] - oa) / np.linalg.norm(oa)
    err_s = np.linalg.norm(run["ls"] - os_) / np.linalg.norm(os_)
    elapsed = reference_runs["elapsed"]
    ok = (run["hist"].converged and err_a <= 1e-5 and err_s <= 1e-5
          and elapsed < 60.0)
    report(8, ok,
           f"LBGS vs monolithic oracle: fluid {err_a:.2e}, structural "
           f"{err_s:.2e} (rho=0.6, theta_s=1.0; all runs {elapsed:.1f}s)")


def test_criterion_9_recycling_saves_matvecs(reference_runs):
    oa, _ = reference_runs["oracle"]
    base = reference_runs["runs"][None]["hist"].total_matvecs
    savings = {}
    for rf in (2, 3, 4):
        run = reference_runs["runs"][rf]
        assert run["hist"].converged
        err = np.linalg.norm(run["la"] - oa) / np.linalg.norm(oa)
        assert err <= 1e-5
        savings[rf] = 100.0 * (1.0 - run["hist"].total_matvecs / base)
    elapsed = reference_runs["elapsed"]
    ok = all(s >= 15.0 for s in savings.values()) and elapsed < 120.0
    detail = ", ".join(f"recycle_from={rf}: {s:.1f}%"
                       for rf, s in savings.items())
    report(9, ok, f"savings vs {base} baseline matvecs: {detail} "
                  f"({elapsed:.1f}s < 120s)")


def test_criterion_10_grassmann_monitoring():
    rng = np.random.default_rng(10_000)
    C, _ = np.linalg.qr(rng.standard_normal((30, 6)))
    self_distance = grassmann_distance(C, C).d_p
    # Jacobi preconditioning keeps the fluid sub-solves multi-cycle, so the
    # no-recycling run keeps rebuilding genuinely different spaces (the ILU
    # runs converge each fluid solve in one cycle and reproduce the same
    # space, degenerating the cold-run distance series).
    problem = gen_coupled_problem(**REFERENCE_KWARGS)
    finals = {}
    for rf in (None, 2):
        cfg = PartitionConfig(recycle_from=rf, solver=SolverSpec(
            family="gcrodr", m=60, k=20, preconditioner="jacobi"))
        _, _, hist = lbgs_solve(problem, cfg)
        ds = [c.d_p for c in hist.cycles if c.d_p is not None]
        finals[rf] = ds[-1]
    ok = self_distance < 1e-6 and finals[2] < finals[None]
    report(10, ok,
           f"d(C,C)={self_distance:.2e}; final inter-cycle distance "
           f"recycled {finals[2]:.3f} < cold {finals[None]:.3f}")


def test_criterion_11_safeguard_cold_restart():
    # Graded upper-triangular-noise matrix (condition ~1e5); without
    # reorthogonalization the least-squares residual detaches from the true
    # one and the 5% relative-discrepancy rule must fire at least once.
    rng = np.random.default_rng(99)
    n = 150
    d = np.logspace(0, 5, n)
    N = rng.standard_normal((n, n)) * (d[None, :] * 1e-3)
    A = SparseMatrix.from_dense(np.diag(d) + np.triu(N, 1))
    b = rng.standard_normal(n)
    x, rep = _DeflatedRestart(A, None, m=30, k=10, strategy="B", tol=1e-10,
                              max_matvecs=30_000, reorth=False).solve(b)
    events = [r.event for r in rep.history.rows]
    ok = rep.cold_restarts >= 1 and rep.converged \
        and "cold_restart" in events
    report(11, ok,
           f"{rep.cold_restarts} cold restart(s) triggered, converged to "
           f"{rep.final_true_residual:.2e} in {rep.matvecs} matvecs")


def test_criterion_12_determinism(tmp_path):
    from krylov_recycle.cli import run_scenario

    cfg = tmp_path / "scenario.ini"
    cfg.write_text("""[problem]
kind = coupled
nx = 16
ny = 16
peclet = 30.0
ns = 8
coupling_strength = 30.0

[solver]
family = gcrodr
m = 40
k = 12
preconditioner = jacobi

[partition]
recycle_from = 2

[run]
seed = 777
""")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_scenario(cfg, out_dir=out1, quiet=True) == 0
    assert run_scenario(cfg, out_dir=out2, quiet=True) == 0
    h1 = (out1 / "history.csv").read_bytes()
    h2 = (out2 / "history.csv").read_bytes()
    ok = h1 == h2 and len(h1) > 0
    report(12, ok, f"history.csv byte-identical across reruns "
                   f"({len(h1)} bytes)")
