"""Subspace-recycling solver tests: GCRO-DR and FGCRO-DR."""

import numpy as np
import pytest
import scipy.linalg

from conftest import joint_state, random_sparse
from krylov_recycle.errors import (ParameterError, RankDeficient,
                                   StaleRecycle, StrategyBDegenerate)
from krylov_recycle.gcro import (
    POLISH_TOL,
    RecycleSpace,
    RecyclingSolver,
    arnoldi_projected,
    fgcrodr_solve,
    flexible_strategy_b_pairs,
    gcro_harmonic_ritz,
    gcro_lsq_blockwise,
    gcrodr_solve,
    _polish_pair,
    _update_recycle,
    warm_start,
)
from krylov_recycle.gmres import (ArnoldiState, gmresdr_solve,
                                  harmonic_ritz_standard)
from krylov_recycle.operators import (
    IluPreconditioner,
    JacobiPreconditioner,
    SparseMatrix,
    as_operator,
    gen_convection_diffusion,
    ilu_factor,
)
from krylov_recycle.smallalg import (
    grassmann_distance,
    reduced_qr,
    small_standard_eig,
)


def make_recycle_space(A, k, seed=0):
    """Exact pair (U, C) with A U = C built from random directions."""
    rng = np.random.default_rng(seed)
    n = A.n
    U0 = rng.standard_normal((n, k))
    AU = np.column_stack([A.matvec(U0[:, j]) for j in range(k)])
    Q, R = reduced_qr(AU)
    U = scipy.linalg.solve_triangular(R.T, U0.T, lower=True).T
    return RecycleSpace(C=Q, U=U)


def make_projected_state(A, space, r, steps):
    return arnoldi_projected(A, None, r, steps, space.C, space.U)


class TestWarmStart:
    def test_residual_in_range_c_is_removed_exactly(self):
        rng = np.random.default_rng(1)
        A = random_sparse(rng, 30)
        space = make_recycle_space(A, 4, seed=1)
        coef = rng.standard_normal(4)
        b = space.C @ coef  # r0 entirely inside range(C)
        x1, r1 = warm_start(A, space, b, None)
        assert np.linalg.norm(r1) < 1e-12 * np.linalg.norm(b)
        assert np.linalg.norm(b - A.matvec(x1)) < 1e-10 * np.linalg.norm(b)

    def test_empty_space_is_identity(self):
        rng = np.random.default_rng(2)
        A = random_sparse(rng, 12)
        b = rng.standard_normal(12)
        x1, r1 = warm_start(A, None, b, None)
        assert np.array_equal(x1, np.zeros(12))
        assert np.array_equal(r1, b)

    def test_seeded_projection(self):
        rng = np.random.default_rng(3)
        A = random_sparse(rng, 40)
        space = make_recycle_space(A, 5, seed=3)
        b = rng.standard_normal(40)
        _, r1 = warm_start(A, space, b, None)
        assert np.linalg.norm(space.C.T @ r1) < 1e-11

    def test_stale_recycle_detected(self):
        rng = np.random.default_rng(4)
        A = random_sparse(rng, 20)
        space = make_recycle_space(A, 3, seed=4)
        space.U[:, 0] += 0.5  # break A U = C
        with pytest.raises(StaleRecycle):
            warm_start(A, space, rng.standard_normal(20), None)


    def test_validate_checks_the_pair_through_to_x(self):
        # A preconditioned GCRO-DR keeps A P U = C; validation must apply
        # to_x = P before A, and still reject a perturbed pair.
        A = gen_convection_diffusion((16, 16), 12.0)
        P = IluPreconditioner(ilu_factor(A, 0))
        rng = np.random.default_rng(41)
        solver = RecyclingSolver(A, P, m=20, k=6, tol=1e-10)
        assert solver.solve(rng.standard_normal(A.n))[1].converged
        space = solver.recycle
        b = rng.standard_normal(A.n)
        x1, r1 = warm_start(A, space, b, None, validate=True, to_x=P.apply)
        assert np.linalg.norm(b - A.matvec(x1) - r1) \
            < 1e-10 * np.linalg.norm(b)
        bad = RecycleSpace(C=space.C, U=space.U.copy())
        bad.U[:, 0] *= 1.01
        with pytest.raises(StaleRecycle):
            warm_start(A, bad, b, None, validate=True, to_x=P.apply)


class TestArnoldiProjected:
    def test_empty_outer_space_is_plain_arnoldi(self):
        rng = np.random.default_rng(5)
        A = random_sparse(rng, 25)
        r = rng.standard_normal(25)
        empty = np.zeros((25, 0))
        pa = arnoldi_projected(A, None, r, 8, empty, empty)
        assert pa.B.shape == (0, 8)
        AV = np.column_stack([A.matvec(pa.V[:, j]) for j in range(8)])
        assert np.linalg.norm(AV - pa.V @ pa.Hbar) \
            < 1e-10 * np.linalg.norm(pa.Hbar)

    def test_identity_operator_breaks_down_immediately(self):
        A = SparseMatrix.identity(15)
        space = make_recycle_space(A, 3, seed=6)
        rng = np.random.default_rng(6)
        r = rng.standard_normal(15)
        r -= space.C @ (space.C.T @ r)
        pa = arnoldi_projected(A, None, r, 5, space.C, space.U)
        # Only a breakdown ends early, on a zero last basis vector.
        assert not np.any(pa.V[:, -1])
        assert pa.H_inner.shape[1] == 1

    def test_expanded_relation(self):
        rng = np.random.default_rng(7)
        A = random_sparse(rng, 40)
        space = make_recycle_space(A, 5, seed=7)
        b = rng.standard_normal(40)
        _, r1 = warm_start(A, space, b, None)
        pa = arnoldi_projected(A, None, r1, 10, space.C, space.U)
        w = pa.H_inner.shape[1]
        AV = np.column_stack([A.matvec(pa.V[:, j]) for j in range(w)])
        reconstructed = space.C @ pa.B + pa.V @ pa.H_inner
        assert np.linalg.norm(AV - reconstructed) \
            < 1e-10 * np.linalg.norm(AV)
        assert np.linalg.norm(space.C.T @ pa.V) < 1e-10


class TestBlockwiseLsq:
    def test_orthogonal_residual_and_zero_coupling(self):
        rng = np.random.default_rng(8)
        A = random_sparse(rng, 30)
        space = make_recycle_space(A, 4, seed=8)
        b = rng.standard_normal(30)
        _, r1 = warm_start(A, space, b, None)
        state = make_projected_state(A, space, r1, 8)
        state.B[:] = 0.0  # force a decoupled head
        y_full, rho = gcro_lsq_blockwise(state, r1)
        assert np.linalg.norm(y_full[:4]) < 1e-10
        from krylov_recycle.smallalg import hessenberg_lsq
        c = np.zeros(state.width + 1)
        c[0] = np.linalg.norm(r1 - space.C @ (space.C.T @ r1))
        y_inner, rho_inner = hessenberg_lsq(state.H_inner, c)
        assert np.allclose(y_full[4:], y_inner)
        assert rho == pytest.approx(rho_inner)

    def test_pure_recycle_correction(self):
        rng = np.random.default_rng(9)
        A = random_sparse(rng, 20)
        space = make_recycle_space(A, 3, seed=9)
        state = joint_state(
            C=space.C, V=np.zeros((20, 1)), H_inner=np.zeros((1, 0)),
            B=np.zeros((3, 0)), U=space.U)
        r = rng.standard_normal(20)
        y_full, _ = gcro_lsq_blockwise(state, r)
        expected = space.C.T @ r
        assert np.allclose(y_full, expected)

    @pytest.mark.parametrize("m_i", [None, 3])
    def test_cycle_monitor_gives_the_from_scratch_solution(self, monkeypatch,
                                                           m_i):
        # Each projected cycle hands its least-squares monitor's (y, rho) to
        # the blockwise solve in place of a from-scratch inner solve; the
        # two must agree to the byte.
        import krylov_recycle.gcro as gcro

        handed = []

        def checked(state, r_prev, inner=None):
            got = gcro_lsq_blockwise(state, r_prev, inner)
            ref = gcro_lsq_blockwise(state, r_prev)
            assert got[0].tobytes() == ref[0].tobytes()
            assert got[1] == ref[1]
            handed.append(inner is not None)
            return got

        monkeypatch.setattr(gcro, "gcro_lsq_blockwise", checked)
        A = gen_convection_diffusion((12, 12), 20.0)
        rng = np.random.default_rng(12)
        solver = RecyclingSolver(as_operator(A), None, m=15, k=5, m_i=m_i,
                                 tol=1e-10)
        b = rng.standard_normal(A.n)
        for _ in range(3):
            assert solver.solve(b)[1].converged
            b = b + 0.1 * rng.standard_normal(A.n)
        assert len(handed) > 3 and all(handed)

    def test_matches_monolithic(self):
        rng = np.random.default_rng(10)
        A = random_sparse(rng, 45)
        space = make_recycle_space(A, 6, seed=10)
        b = rng.standard_normal(45)
        _, r1 = warm_start(A, space, b, None)
        state = make_projected_state(A, space, r1, 12)
        y_full, rho = gcro_lsq_blockwise(state, r1)
        Hbar = state.Hbar
        rhs = state.What.T @ r1
        y_ref, *_ = np.linalg.lstsq(Hbar, rhs, rcond=None)
        assert np.linalg.norm(y_full - y_ref) < 1e-10 * max(
            1.0, np.linalg.norm(y_ref))


class TestGcroHarmonicRitz:
    def test_reduces_to_standard_with_empty_space(self):
        rng = np.random.default_rng(11)
        A = random_sparse(rng, 25)
        r = rng.standard_normal(25)
        empty = np.zeros((25, 0))
        state = arnoldi_projected(A, None, r, 8, empty, empty)
        _, values = gcro_harmonic_ritz(state, 4)
        Hbar = state.Hbar
        H = Hbar[:8, :]
        h = Hbar[8, 7]
        f = np.linalg.solve(H.T, np.eye(8)[-1])
        Hhat = H + h**2 * np.outer(f, np.eye(8)[-1])
        oracle = small_standard_eig(Hhat, 4)
        assert np.allclose(np.sort_complex(values),
                           np.sort_complex(oracle.values), atol=1e-10)

    def test_identity_head_reduces_to_standard_problem(self):
        # With U aligned with C the head block is the identity and the
        # reformulated pencil collapses onto the standard harmonic problem.
        rng = np.random.default_rng(27)
        A = random_sparse(rng, 30)
        space = make_recycle_space(A, 4, seed=27)
        b = rng.standard_normal(30)
        _, r1 = warm_start(A, space, b, None)
        state = arnoldi_projected(A, None, r1, 8, space.C, space.C)
        _, values = gcro_harmonic_ritz(state, 4)
        Hbar = state.Hbar
        m = state.m
        H = Hbar[:m, :]
        h = Hbar[m, m - 1]
        f = np.linalg.solve(H.T, np.eye(m)[-1])
        Hhat = H + h**2 * np.outer(f, np.eye(m)[-1])
        oracle = small_standard_eig(Hhat, 4)
        assert np.allclose(np.sort_complex(values),
                           np.sort_complex(oracle.values), atol=1e-9)

    def test_matches_raw_pencil_oracle(self):
        # The reformulation's zero blocks hold for states produced by the
        # genuine recycling recursion, so capture one mid-solve.
        rng = np.random.default_rng(12)
        A = gen_convection_diffusion((20, 20), 18.0)
        b = rng.standard_normal(A.n)
        states = []

        def hook(state, cycle):
            if isinstance(state, ArnoldiState) \
                    and state.width == 22:
                states.append(state)

        solver = RecyclingSolver(A, JacobiPreconditioner(A), m=30, k=8,
                                 tol=1e-10, max_matvecs=30_000,
                                 state_hook=hook)
        solver.solve(b)
        assert states
        state = states[0]
        _, values = gcro_harmonic_ritz(state, 5)
        # dense generalized-eig oracle on explicitly formed products
        Hbar = state.Hbar
        WtV = state.What.T @ state.vhat()
        lam, _ = scipy.linalg.eig(Hbar.T @ Hbar, Hbar.T @ WtV)
        lam = np.sort_complex(lam[np.isfinite(lam)])
        got = np.sort_complex(values)
        matched = [lam[np.argmin(np.abs(lam - g))] for g in got]
        for g, near in zip(got, matched):
            assert abs(g - near) < 1e-8 * max(1.0, abs(g))

    def test_head_block_is_formed_from_current_bases(self):
        # After many refreshes of the pair, the eigenproblem head still
        # holds exactly C^T U of the bases the cycle projected against.
        rng = np.random.default_rng(13)
        A = gen_convection_diffusion((24, 24), 25.0)
        states = []

        def hook(state, cycle):
            if state.k > 0:
                states.append(state)

        solver = RecyclingSolver(A, None, m=10, k=4, tol=1e-10,
                                 max_matvecs=30_000, state_hook=hook)
        solver.solve(rng.standard_normal(A.n))
        assert len(states) >= 11
        for state in states[10:]:
            head = state.wtv_head()[: state.k, : state.k]
            assert np.array_equal(head, state.C.T @ state.U)


class TestUpdateRecycleSpace:
    def test_first_cycle_specialization(self):
        rng = np.random.default_rng(13)
        A = random_sparse(rng, 35)
        space = make_recycle_space(A, 4, seed=13)
        b = rng.standard_normal(35)
        _, r1 = warm_start(A, space, b, None)
        state = make_projected_state(A, space, r1, 10)
        P_k, _ = gcro_harmonic_ritz(state, 4)
        new_space = _update_recycle(state, P_k)[0]
        AU = np.column_stack([A.matvec(new_space.U[:, j])
                              for j in range(new_space.k)])
        assert np.linalg.norm(AU - new_space.C) < 1e-9 * max(
            1.0, np.linalg.norm(new_space.C))
        eye = np.eye(new_space.k)
        assert np.linalg.norm(new_space.C.T @ new_space.C - eye) < 1e-10

    def test_duplicate_directions_shrink_with_warning(self):
        rng = np.random.default_rng(14)
        A = random_sparse(rng, 30)
        space = make_recycle_space(A, 4, seed=14)
        b = rng.standard_normal(30)
        _, r1 = warm_start(A, space, b, None)
        state = make_projected_state(A, space, r1, 8)
        P_k, _ = gcro_harmonic_ritz(state, 3)
        P_dup = np.column_stack([P_k[:, 0], P_k[:, 0]])
        with pytest.warns(RuntimeWarning):
            new_space = _update_recycle(state, P_dup)[0]
        assert new_space.k == 1

    def test_unrecoverable_rank_deficiency_raises(self):
        rng = np.random.default_rng(15)
        A = random_sparse(rng, 20)
        space = make_recycle_space(A, 3, seed=15)
        b = rng.standard_normal(20)
        _, r1 = warm_start(A, space, b, None)
        state = make_projected_state(A, space, r1, 6)
        with pytest.raises(RankDeficient):
            _update_recycle(state, np.zeros((state.m, 1)))[0]


def _scaled_head(state, s):
    """A state's factorization in column-scaled form: A [U S, V] = What
    Hbar S with S = diag(s, I), so U takes diag(s) and so does the head."""
    scaled = joint_state(
        C=state.C, V=state.V, H_inner=state.H_inner, B=state.B,
        U=state.U * s)
    scaled.Hbar[: state.k, : state.k] = np.diag(s)
    return scaled


class TestColumnScalingInvariance:
    """Column scaling of U moves only rounding: U keeps no scale."""

    @pytest.mark.parametrize("seed", [30, 31, 32])
    def test_scaled_pair_gives_the_same_refresh_and_correction(self, seed):
        rng = np.random.default_rng(seed)
        A = random_sparse(rng, 60)
        k = 5
        space = make_recycle_space(A, k, seed=seed)
        b = rng.standard_normal(60)
        _, r1 = warm_start(A, space, b, None)
        state = make_projected_state(A, space, r1, 12)
        scaled = _scaled_head(state, 10.0 ** rng.uniform(-3.0, 3.0, k))

        P_k, values = gcro_harmonic_ritz(state, 4)
        P_s, values_s = gcro_harmonic_ritz(scaled, 4)
        values, values_s = np.sort_complex(values), np.sort_complex(values_s)
        assert np.all(np.abs(values - values_s) <= 1e-10 * np.abs(values))

        pairs = [_update_recycle(state, P_k)[0],
                 _update_recycle(scaled, P_s)[0]]
        assert grassmann_distance(pairs[0].C, pairs[1].C).d_p <= 1e-10
        for pair in pairs:
            AU = np.column_stack([A.matvec(u) for u in pair.U.T])
            assert np.linalg.norm(AU - pair.C) \
                <= 1e-9 * np.linalg.norm(pair.C)

        # The blockwise correction U z + V y minimizes the residual over the
        # scaled composite space too (dense least squares there).
        y_full, _ = gcro_lsq_blockwise(state, r1)
        dx = state.vhat() @ y_full
        y_s, *_ = np.linalg.lstsq(scaled.Hbar, scaled.What.T @ r1,
                                  rcond=None)
        dx_s = scaled.vhat() @ y_s
        assert np.linalg.norm(dx - dx_s) <= 1e-10 * np.linalg.norm(dx)


class TestPolishPair:
    """Both branches of the polish gate on the Gram defect of C_raw."""

    @staticmethod
    def _inputs(seed, n=120, k=6):
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((n, k)))
        Y = rng.standard_normal((n, k))
        R = np.triu(rng.standard_normal((k, k))) + 4.0 * np.eye(k)
        return rng, Q, Y, R

    def test_orthonormal_image_is_kept(self):
        _, C_raw, Y, R = self._inputs(40)
        C, U, T = _polish_pair(C_raw, Y, R)
        assert C is C_raw and T is R
        assert np.linalg.norm(U @ R - Y) <= 1e-13 * np.linalg.norm(Y)

    def test_defective_image_is_polished(self):
        rng, Q, Y, R = self._inputs(41)
        k = Q.shape[1]
        T = np.triu(rng.standard_normal((k, k)))
        C_raw = Q @ (np.eye(k) + 1e-8 / np.linalg.norm(T + T.T) * T)
        defect = np.linalg.norm(np.eye(k) - C_raw.T @ C_raw)
        assert 0.9e-8 < defect < 1.1e-8 and defect > POLISH_TOL
        C, U, T = _polish_pair(C_raw, Y, R)
        assert np.linalg.norm(np.eye(k) - C.T @ C) <= 1e-14
        Rc = C.T @ C_raw
        assert np.linalg.norm(np.tril(Rc, -1)) <= 1e-14
        assert np.linalg.norm(C @ Rc - C_raw) <= 1e-14 * np.linalg.norm(C_raw)
        # U Rc = Y R^{-1}, so A U = A Y R^{-1} Rc^{-1} = C_raw Rc^{-1} = C.
        U_raw = scipy.linalg.solve_triangular(R.T, Y.T, lower=True).T
        assert np.linalg.norm(U @ Rc - U_raw) <= 1e-12 * np.linalg.norm(U_raw)
        assert np.linalg.norm(U @ T - Y) <= 1e-12 * np.linalg.norm(Y)


class TestGcroDrSolve:
    @pytest.mark.parametrize("m_i", [None, 3])
    def test_distance_monitor_bases_pass_the_public_check(self, monkeypatch,
                                                          m_i):
        # The monitor skips grassmann_distance's orthonormality check
        # because its bases are polished; the checked call must accept them
        # and give the same distance.  On a cycle over the previous pair the
        # bases are [I_k; 0] and the image QR's Q, which _head_distance
        # reads block by block, so there the distance agrees to rounding.
        import krylov_recycle.gcro as gcro

        unchecked = gcro._grassmann_distance_unchecked
        head = gcro._head_distance
        seen = []

        def checked(C1, C2):
            d = unchecked(C1, C2)
            assert grassmann_distance(C1, C2) == d
            seen.append(d.p)
            return d

        def checked_head(Q, k):
            d = head(Q, k)
            ref = grassmann_distance(np.eye(Q.shape[0], k), Q)
            assert d.p == ref.p
            assert abs(d.d_p - ref.d_p) <= max(1e-12 * ref.d_p, 1e-14)
            seen.append(d.p)
            return d

        monkeypatch.setattr(gcro, "_grassmann_distance_unchecked", checked)
        monkeypatch.setattr(gcro, "_head_distance", checked_head)
        A = gen_convection_diffusion((12, 12), 20.0)
        rng = np.random.default_rng(13)
        solver = RecyclingSolver(as_operator(A), None, m=15, k=5, m_i=m_i,
                                 tol=1e-10)
        b = rng.standard_normal(A.n)
        for _ in range(3):
            assert solver.solve(b)[1].converged
            b = b + 0.1 * rng.standard_normal(A.n)
        assert len(seen) > 3

    @pytest.mark.parametrize("strategy", ["A", "C"])
    def test_nonflexible_method_rejects_strategy_other_than_b(self,
                                                               strategy):
        A = gen_convection_diffusion((8, 8), 10.0)
        with pytest.raises(ValueError, match="strategy"):
            RecyclingSolver(A, None, m=8, k=3, strategy=strategy)
        flexible = RecyclingSolver(A, None, m=8, k=3, m_i=2,
                                   strategy=strategy)
        assert flexible.flexible and flexible.strategy == strategy

    @pytest.mark.parametrize("flexible", [False, True])
    def test_coordinate_distance_matches_the_n_row_one(self, flexible):
        # On a refresh over the previous pair the cycle-end row's d_p is
        # read from the image QR's Q; the n-row formula over the two C
        # bases must agree.
        A = gen_convection_diffusion((16, 16), 12.0)
        rng = np.random.default_rng(29)
        pending, refs, checked = [], [], []

        def state_hook(state, cycle):
            pending.append(state)

        def cycle_hook(info):
            # One call per cycle end: the n-row distance, or None.
            state = pending.pop()
            refs.append(None if state.k == 0 or info["C"] is None
                        else grassmann_distance(state.C, info["C"]).d_p)

        solver = RecyclingSolver(A, None, m=20, k=6, flexible=flexible,
                                 m_i=3 if flexible else None, strategy="B",
                                 tol=1e-10, state_hook=state_hook,
                                 cycle_hook=cycle_hook)
        b = rng.standard_normal(A.n)
        for s in range(1, 5):
            assert solver.solve(b, use_recycle=s >= 2)[1].converged
            b = b + 0.1 * rng.standard_normal(A.n)
        ends = [row for row in solver.record.rows
                if row.true_residual_rel is not None]
        assert len(ends) == len(refs)
        for row, d_ref in zip(ends, refs):
            if d_ref is not None:
                assert abs(row.d_p - d_ref) <= max(1e-12 * d_ref, 1e-14), \
                    (row.d_p, d_ref)
                checked.append(row.d_p)
        assert len(checked) >= 5
        assert max(checked) > 1e-3

    def test_single_system_matches_gmresdr(self):
        # Unpreconditioned instance keeps the compared cycle-end residuals
        # far above rounding so the relative comparison is meaningful.
        rng = np.random.default_rng(16)
        A = gen_convection_diffusion((32, 32), 20.0)
        b = rng.standard_normal(A.n)
        _, rep_dr = gmresdr_solve(A, None, b, m=20, k=6,
                                  tol=1e-8, max_matvecs=20_000)
        solver = RecyclingSolver(A, None, m=20, k=6,
                                 tol=1e-8, max_matvecs=20_000)
        _, rep_gc = solver.solve(b)
        r1 = [r.true_residual_rel for r in rep_dr.history.rows
              if r.true_residual_rel is not None]
        r2 = [r.true_residual_rel for r in rep_gc.history.rows
              if r.true_residual_rel is not None]
        assert min(len(r1), len(r2)) >= 3
        for a_, b_ in zip(r1[:3], r2[:3]):
            assert abs(a_ - b_) <= 1e-8 * a_

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("mode", ["nonflex", "A", "B", "C"])
    def test_order_two_cycle_with_complex_smallest_pair(self, mode, seed):
        # GCRO-DR(2, 1) on a near block-diagonal matrix of rotations: the
        # smallest harmonic pair is complex, so no pair fits the one
        # deflation column and the refresh falls back to a plain restart
        # instead of keeping a recycled pair as wide as the cycle.
        rng = np.random.default_rng(seed)
        n = 40
        D = 0.05 * rng.standard_normal((n, n))
        for i in range(0, n, 2):
            r, t = rng.uniform(0.5, 5.0), rng.uniform(0.2, 1.4)
            D[i:i + 2, i:i + 2] += r * np.array([[np.cos(t), -np.sin(t)],
                                                 [np.sin(t), np.cos(t)]])
        A = SparseMatrix.from_dense(D)
        b = rng.standard_normal(n)
        solver = RecyclingSolver(A, None, m=2, k=1, flexible=mode != "nonflex",
                                 m_i=2 if mode != "nonflex" else None,
                                 strategy="B" if mode == "nonflex" else mode,
                                 tol=1e-8, max_matvecs=3000)
        for s in range(2):
            rhs = b + 0.1 * s * rng.standard_normal(n)
            x, rep = solver.solve(rhs)
            assert rep.converged
            assert np.linalg.norm(rhs - A.matvec(x)) \
                <= 1.05e-8 * np.linalg.norm(rhs)
            assert solver.recycle is None or solver.recycle.k < 2

    def test_two_identical_systems_recycling_saves(self):
        rng = np.random.default_rng(17)
        A = gen_convection_diffusion((24, 24), 20.0)
        b = rng.standard_normal(A.n)
        results = gcrodr_solve(A, JacobiPreconditioner(A),
                               [(b, None), (b, None)], m=40, k=12, tol=1e-8,
                               recycle_from=2)
        (x1, rep1), (x2, rep2) = results
        assert rep1.converged and rep2.converged
        assert rep2.matvecs < rep1.matvecs
        for x in (x1, x2):
            res = np.linalg.norm(b - A.matvec(x)) / np.linalg.norm(b)
            assert res <= 1.05e-8

    def test_identity_sequence_trivial(self):
        A = SparseMatrix.identity(10)
        rng = np.random.default_rng(18)
        seq = [(rng.standard_normal(10), None) for _ in range(3)]
        results = gcrodr_solve(A, None, seq, m=5, k=2, tol=1e-12,
                               recycle_from=2)
        for (x, rep), (b, _) in zip(results, seq):
            assert rep.converged
            assert rep.iterations <= 1
            assert np.allclose(x, b)

    def test_generalized_arnoldi_invariant_at_cycle_ends(self):
        rng = np.random.default_rng(26)
        A = gen_convection_diffusion((22, 22), 25.0)
        states = []

        def hook(state, cycle):
            if isinstance(state, ArnoldiState):
                states.append(state)

        solver = RecyclingSolver(A, None, m=25, k=8, tol=1e-9,
                                 max_matvecs=40_000, state_hook=hook)
        solver.solve(rng.standard_normal(A.n))
        assert states
        for st in states:
            Vhat = st.vhat()
            AV = np.column_stack([A.matvec(Vhat[:, j])
                                  for j in range(Vhat.shape[1])])
            defect = np.linalg.norm(AV - st.What @ st.Hbar)
            assert defect <= 1e-9 * np.linalg.norm(st.Hbar)
            eye = np.eye(st.m + 1)
            assert np.linalg.norm(st.What.T @ st.What - eye) < 1e-10

    def test_optimality_after_cycles(self):
        rng = np.random.default_rng(19)
        A = gen_convection_diffusion((20, 20), 15.0)
        b = rng.standard_normal(A.n)
        bnorm = np.linalg.norm(b)
        seen = []

        def hook(info):
            if info["C"] is not None:
                seen.append(np.linalg.norm(info["C"].T @ info["r"]) / bnorm)

        solver = RecyclingSolver(A, JacobiPreconditioner(A), m=30, k=10,
                                 tol=1e-9, max_matvecs=20_000,
                                 cycle_hook=hook)
        solver.solve(b)
        assert seen
        assert max(seen) < 1e-10


def _kept_pair_solver(flexible, **kw):
    # Short cycles, so that each solve runs several over the pair.
    A = gen_convection_diffusion((24, 24), 30.0)
    P = IluPreconditioner(ilu_factor(A, 0))
    solver = RecyclingSolver(A, P, m=10, k=4, flexible=flexible,
                             m_i=2 if flexible else None, tol=1e-10, **kw)
    return A, P, solver


@pytest.mark.parametrize("flexible", [False, True])
def test_no_distance_is_written_over_an_empty_pair(flexible):
    # A one-step cycle keeps no harmonic vector, so its refresh leaves an
    # empty pair: neither the distance from the last non-empty pair to it
    # nor the one from it to the next pair has a principal angle.
    A = gen_convection_diffusion((12, 12), 20.0)
    rng = np.random.default_rng(31)
    widths = []
    solver = RecyclingSolver(A, None, m=10, k=4, flexible=flexible,
                             tol=1e-10, state_hook=lambda st, cycle:
                             widths.append((st.k, st.width)))
    b = rng.standard_normal(A.n)
    assert solver.solve(b)[1].converged
    assert solver.recycle.k == 4
    solver.max_matvecs = 1  # each solve ends after one Arnoldi step
    for _ in range(2):
        rows_before = len(solver.record.rows)
        widths.clear()
        _, rep = solver.solve(b + rng.standard_normal(A.n),
                              use_recycle=False)
        assert rep.stop_reason == "budget" and widths == [(0, 1)]
        assert solver.recycle.k == 0
        end = solver.record.rows[rows_before:][-1]
        assert end.true_residual_rel is not None
        assert end.d_p is None and end.p is None
    # A full cycle from the empty pair measures none either.
    solver.max_matvecs = 500_000
    rows_before = len(solver.record.rows)
    assert solver.solve(b, use_recycle=False)[1].converged
    ends = [r for r in solver.record.rows[rows_before:]
            if r.true_residual_rel is not None]
    assert ends[0].d_p is None and ends[0].p is None
    assert all(r.p != 0 for r in solver.record.rows)


@pytest.mark.parametrize("flexible", [False, True])
def test_a_solve_over_an_empty_pair_starts_plainly(flexible):
    # A one-step solve leaves an empty pair, so the next solve recycles no
    # vector: it starts as a fresh solver does, and its rows say so.
    A = gen_convection_diffusion((12, 12), 20.0)
    b = np.random.default_rng(3).standard_normal(A.n)
    solver = RecyclingSolver(A, None, m=10, k=4, flexible=flexible,
                             max_matvecs=1)
    solver.solve(b, use_recycle=False)
    assert solver.recycle.k == 0
    solver.max_matvecs = 500_000
    rows_before = len(solver.record.rows)
    x, rep = solver.solve(b)
    fresh = RecyclingSolver(A, None, m=10, k=4, flexible=flexible)
    x_fresh, rep_fresh = fresh.solve(b)
    events = [r.event for r in solver.record.rows[rows_before:]
              if r.true_residual_rel is not None]
    assert events[0] == "restart"
    assert events == [r.event for r in fresh.record.rows
                      if r.true_residual_rel is not None]
    assert np.array_equal(x, x_fresh)
    assert rep.matvecs == rep_fresh.matvecs


class TestKeptPair:
    @pytest.mark.parametrize("flexible", [False, True])
    def test_pair_is_kept_across_systems_with_its_invariants(self,
                                                             flexible):
        A, P, solver = _kept_pair_solver(flexible)
        rng = np.random.default_rng(43)
        b = rng.standard_normal(A.n)
        solver.record.system_index = 1
        assert solver.solve(b)[1].converged
        pair = solver.recycle
        rows_before = len(solver.record.rows)
        for s in range(2, 6):
            b = b + 0.1 * rng.standard_normal(A.n)
            solver.record.system_index = s
            x, rep = solver.solve(b, refresh=False)
            assert rep.converged and rep.cycles >= 2
            assert solver.recycle is pair
        kept_rows = solver.record.rows[rows_before:]
        assert kept_rows and all(r.d_p is None for r in kept_rows)
        # The fixed validation checks A P U = C (A U = C when flexible).
        warm_start(A, pair, b, None, validate=True,
                   to_x=None if flexible else P.apply)
        assert np.linalg.norm(pair.C.T @ pair.C - np.eye(pair.k)) < 1e-10

    @pytest.mark.parametrize("flexible", [False, True])
    def test_kept_solve_over_the_empty_pair_still_builds_one(self,
                                                             flexible):
        seen = []
        A, _, solver = _kept_pair_solver(
            flexible, cycle_hook=lambda info: seen.append(info["C"]))
        b = np.random.default_rng(47).standard_normal(A.n)
        assert solver.solve(b, refresh=False)[1].converged
        assert len(seen) >= 2
        assert solver.recycle is not None and solver.recycle.k == 4
        # Built by the first cycle, then kept by every later one.
        assert all(C is seen[0] for C in seen)
        assert not any(r.d_p is not None for r in solver.record.rows)


def _flexible_pair_state():
    """A flexible cycle's state over a 5-column pair: 10 steps on a random
    40 x 40 matrix, Z = V[:, :10]."""
    rng = np.random.default_rng(20)
    A = random_sparse(rng, 40)
    space = make_recycle_space(A, 5, seed=20)
    b = rng.standard_normal(40)
    _, r1 = warm_start(A, space, b, None)
    pa = arnoldi_projected(A, None, r1, 10, space.C, space.U)
    return joint_state(C=space.C, V=pa.V, H_inner=pa.H_inner, B=pa.B,
                       U=space.U, Z=pa.V[:, :10])


class TestFgcroDr:
    @pytest.mark.parametrize("m_i", [0, -1])
    def test_empty_inner_solve_rejected(self, m_i):
        A = gen_convection_diffusion((6, 6), 5.0)
        with pytest.raises(ParameterError, match="m_i >= 1") as err:
            fgcrodr_solve(A, None, [(np.ones(A.n), None)], m=10, k=3,
                          m_i=m_i)
        assert err.value.name == "m_i"

    def test_strategy_b_closed_form_pairs(self):
        state = _flexible_pair_state()
        selected, full = flexible_strategy_b_pairs(state, 5)
        Hbar = state.Hbar
        m = state.m
        H = Hbar[:m, :]
        h = Hbar[m, m - 1]
        f = np.linalg.solve(H.T, np.eye(m)[-1])
        Hhat = H + h**2 * np.outer(f, np.eye(m)[-1])
        # unit eigenvalue of multiplicity exactly k with eigenvectors [I;0]
        unit_block = full.vectors[:, :5]
        assert np.allclose(unit_block[:5], np.eye(5))
        assert np.allclose(unit_block[5:], 0.0)
        assert np.count_nonzero(np.abs(full.values - 1.0) < 1e-8) == 5
        # every complementary pair satisfies Hhat g = lam g
        for lam, g in full.complex_pairs():
            if abs(lam - 1.0) < 1e-8:
                continue
            assert np.linalg.norm(Hhat @ g - lam * g) < 1e-12 * max(
                1.0, np.linalg.norm(Hhat))

    def test_degenerate_strategy_b_deflates_with_the_standard_pairs(
            self, monkeypatch):
        import krylov_recycle.gcro as gcro

        state = _flexible_pair_state()

        def degenerate(state, k):
            raise StrategyBDegenerate("forced unit trailing eigenvalue")

        monkeypatch.setattr(gcro, "flexible_strategy_b_pairs", degenerate)
        # _deflate reads only the solver's k, strategy and flexibility.
        solver = RecyclingSolver(SparseMatrix.identity(40), None, m=15, k=5,
                                 flexible=True, strategy="B")
        pairs, _, _ = harmonic_ritz_standard(state, 5, state.m - 1)
        assert np.array_equal(solver._deflate(state), pairs.vectors)

    def test_stationary_preconditioner_strategies_share_early_cycles(self):
        # The three strategies share the first (standard-problem) deflation,
        # so the opening cycles coincide; afterwards the Ritz spaces differ
        # by design because the recycled solution set satisfies
        # A Z_k = C_k rather than being a fixed image of the V basis.  All
        # strategies must still converge to the same solution.
        rng = np.random.default_rng(21)
        A = gen_convection_diffusion((20, 20), 15.0)
        b = rng.standard_normal(A.n)
        hist = {}
        sols = {}
        for strat in "ABC":
            solver = RecyclingSolver(A, JacobiPreconditioner(A), m=25, k=8,
                                     flexible=True, strategy=strat, tol=1e-8,
                                     max_matvecs=30_000)
            x, rep = solver.solve(b)
            assert rep.converged
            sols[strat] = x
            hist[strat] = [r.lsq_residual_rel for r in rep.history.rows
                           if r.true_residual_rel is not None]
        for a_, b_, c_ in zip(hist["A"][:2], hist["B"][:2], hist["C"][:2]):
            assert abs(a_ - b_) <= 1e-8 * max(a_, 1e-30)
            assert abs(a_ - c_) <= 1e-8 * max(a_, 1e-30)
        ref = np.linalg.norm(sols["B"])
        assert np.linalg.norm(sols["A"] - sols["B"]) < 1e-5 * ref
        assert np.linalg.norm(sols["C"] - sols["B"]) < 1e-5 * ref

    @pytest.mark.parametrize("strategy", ["A", "B", "C"])
    def test_sequence_recycling_saves(self, strategy):
        rng = np.random.default_rng(22)
        A = gen_convection_diffusion((20, 20), 25.0)
        n = A.n
        base = rng.standard_normal(n)
        bump = rng.standard_normal(n)
        # geometrically converging right-hand sides
        seq = [(base + 0.3**s * bump, None) for s in range(3)]
        totals = {}
        for rf in (None, 2):
            results = fgcrodr_solve(A, JacobiPreconditioner(A), seq, m=25,
                                    k=8, m_i=4, strategy=strategy, tol=1e-8,
                                    recycle_from=rf)
            assert all(rep.converged for _, rep in results)
            for (x, _), (b, _) in zip(results, seq):
                res = np.linalg.norm(b - A.matvec(x)) / np.linalg.norm(b)
                assert res <= 1.05e-8
            totals[rf] = sum(rep.matvecs for _, rep in results)
        assert totals[2] < totals[None]

    def test_first_cycle_recycle_pair_invariant(self):
        rng = np.random.default_rng(25)
        A = gen_convection_diffusion((16, 16), 12.0)
        solver = RecyclingSolver(A, None, m=20, k=6, tol=1e-6,
                                 max_matvecs=5_000)
        solver.solve(rng.standard_normal(A.n))
        space = solver.recycle
        assert space is not None
        AU = np.column_stack([A.matvec(space.U[:, j])
                              for j in range(space.k)])
        assert np.linalg.norm(AU - space.C) <= 1e-9 * np.linalg.norm(space.C)
        assert np.linalg.norm(space.C.T @ space.C - np.eye(space.k)) <= 1e-10

    @pytest.mark.parametrize("mode", ["nonflex", "A", "B", "C"])
    def test_long_sequence_pair_invariants(self, mode):
        # Thirty systems with slowly drifting right-hand sides: the recycled
        # pair must keep its invariants through many polish/refresh rounds.
        rng = np.random.default_rng(28)
        A = gen_convection_diffusion((14, 14), 10.0)
        n = A.n
        base = rng.standard_normal(n)
        bump = rng.standard_normal(n)
        flexible = mode != "nonflex"
        solver = RecyclingSolver(A, None, m=16, k=5, flexible=flexible,
                                 m_i=3 if flexible else None,
                                 strategy=mode if flexible else "B",
                                 tol=1e-9, max_matvecs=500_000)
        for s in range(30):
            b = base + 0.7**s * bump
            _, rep = solver.solve(b, use_recycle=s > 0)
            assert rep.converged
        space = solver.recycle
        AU = np.column_stack([A.matvec(space.U[:, j])
                              for j in range(space.k)])
        assert np.linalg.norm(AU - space.C) <= 1e-9 * np.linalg.norm(space.C)
        assert np.linalg.norm(space.C.T @ space.C - np.eye(space.k)) <= 1e-10

    def test_strategy_c_w_takes_the_polish_triangle(self, monkeypatch):
        # W must take U's coefficients, polish included: a polish on every
        # refresh then only re-signs the columns of C, U and W together, so
        # each system takes the matvecs it takes with the gated polish.
        import krylov_recycle.gcro as gcro

        A = gen_convection_diffusion((16, 16), 20.0)
        P = IluPreconditioner(ilu_factor(A, 0))

        def matvecs():
            rng = np.random.default_rng(1)
            solver = RecyclingSolver(A, P, m=20, k=6, flexible=True, m_i=4,
                                     strategy="C", tol=1e-9)
            b, counts = rng.standard_normal(A.n), []
            for s in range(6):
                x, rep = solver.solve(b, use_recycle=s > 0)
                assert rep.converged
                counts.append(rep.matvecs)
                b = b + 0.1 * rng.standard_normal(A.n)
            return counts

        gated = matvecs()
        monkeypatch.setattr(gcro, "POLISH_TOL", -1.0)
        assert matvecs() == gated

    def test_recycled_solution_matches_cold(self):
        rng = np.random.default_rng(24)
        A = gen_convection_diffusion((16, 16), 12.0)
        b = rng.standard_normal(A.n)
        seq = [(b, None), (b * 1.001, None)]
        cold = fgcrodr_solve(A, JacobiPreconditioner(A), seq, m=20, k=6,
                             m_i=4, tol=1e-10, recycle_from=None)
        warm = fgcrodr_solve(A, JacobiPreconditioner(A), seq, m=20, k=6,
                             m_i=4, tol=1e-10, recycle_from=2)
        x_cold = cold[1][0]
        x_warm = warm[1][0]
        assert np.linalg.norm(x_warm - x_cold) \
            < 1e-5 * np.linalg.norm(x_cold)
