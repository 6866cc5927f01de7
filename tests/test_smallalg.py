"""Dense kernel tests: QR, Hessenberg least squares, eigensolvers, angles."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from krylov_recycle.errors import (
    NotOrthonormal,
    RankDeficient,
    SingularTriangle,
)
from krylov_recycle.smallalg import (
    HessenbergLsq,
    grassmann_distance,
    hessenberg_lsq,
    principal_angles,
    reduced_qr,
    small_generalized_eig,
    small_standard_eig,
)


class TestReducedQr:
    def test_identity_columns(self):
        M = np.eye(3)[:, :2]
        Q, R = reduced_qr(M)
        assert np.allclose(Q, M)
        assert np.allclose(R, np.eye(2))

    def test_single_column(self):
        Q, R = reduced_qr(np.array([[3.0], [4.0]]))
        assert np.allclose(Q, [[0.6], [0.8]])
        assert np.allclose(R, [[5.0]])
        # direct multiplication oracle
        assert abs(Q.T @ Q - 1.0) < 1e-15
        assert np.allclose(Q @ R, [[3.0], [4.0]])

    def test_seeded_reconstruction(self):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((8, 3))
        Q, R = reduced_qr(M)
        assert np.linalg.norm(Q @ R - M) < 1e-12
        assert np.linalg.norm(Q.T @ Q - np.eye(3)) < 1e-12
        assert np.all(np.diag(R) >= 0)
        assert np.allclose(np.tril(R, -1), 0.0)

    def test_rank_deficient(self):
        M = np.column_stack([np.ones(4), np.ones(4)])
        with pytest.raises(RankDeficient) as err:
            reduced_qr(M)
        assert err.value.column == 1

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_invariants_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        k = int(rng.integers(1, n + 1))
        M = rng.standard_normal((n, k)) + np.eye(n, k)
        Q, R = reduced_qr(M)
        assert np.linalg.norm(Q.T @ Q - np.eye(k)) < 1e-12
        assert np.linalg.norm(Q @ R - M) < 1e-12 * max(np.linalg.norm(M), 1.0)


class TestHessenbergLsq:
    def test_exact_consistent(self):
        y, rho = hessenberg_lsq(np.array([[1.0], [0.0]]), np.array([2.0, 0.0]))
        assert np.allclose(y, [2.0])
        assert rho == pytest.approx(0.0, abs=1e-15)

    def test_inconsistent(self):
        y, rho = hessenberg_lsq(np.array([[1.0], [1.0]]), np.array([1.0, 0.0]))
        # normal-equations oracle: 2 y = 1
        assert np.allclose(y, [0.5])
        assert rho == pytest.approx(np.sqrt(2.0) / 2.0, rel=1e-14)

    def test_embedded_identity(self):
        j = 4
        H = np.vstack([np.eye(j), np.zeros(j)])
        c = np.zeros(j + 1)
        c[0] = 1.0
        y, rho = hessenberg_lsq(H, c)
        assert np.allclose(y, np.eye(j)[0])
        assert rho == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("j", [3, 10, 25, 49])
    def test_matches_normal_equations(self, j):
        # Diagonal shift keeps the instance well conditioned; otherwise the
        # brute-force normal equations (condition squared) stop being a
        # trustworthy oracle.
        rng = np.random.default_rng(j)
        H = np.triu(rng.standard_normal((j + 1, j)), -1) + 4.0 * np.eye(j + 1, j)
        c = rng.standard_normal(j + 1)
        y, rho = hessenberg_lsq(H, c)
        yref = np.linalg.solve(H.T @ H, H.T @ c)
        rho_ref = np.linalg.norm(c - H @ yref)
        assert np.linalg.norm(y - yref) < 1e-10 * max(1.0, np.linalg.norm(yref))
        assert rho == pytest.approx(rho_ref, abs=1e-10)

    def test_singular_triangle(self):
        H = np.zeros((3, 2))
        H[0, 1] = 1.0  # first column entirely zero
        with pytest.raises(SingularTriangle):
            hessenberg_lsq(H, np.ones(3))


def givens_from_scratch(Hbar, c, triangle_tol=1e-14):
    """Reference: the whole-matrix Givens solve that HessenbergLsq replaced."""
    j = Hbar.shape[1]
    if j == 0:
        return np.zeros(0), float(abs(c[0]))
    R = Hbar.copy()
    g = c.copy()
    scale = np.linalg.norm(Hbar)
    for col in range(j):
        a, b = R[col, col], R[col + 1, col]
        r = np.hypot(a, b)
        if r == 0.0:
            cs, sn = 1.0, 0.0
        else:
            cs, sn = a / r, b / r
        upper = R[col, col:].copy()
        lower = R[col + 1, col:].copy()
        R[col, col:] = cs * upper + sn * lower
        R[col + 1, col:] = -sn * upper + cs * lower
        g[col], g[col + 1] = cs * g[col] + sn * g[col + 1], -sn * g[col] + cs * g[col + 1]
    for i in range(j):
        if abs(R[i, i]) < triangle_tol * scale:
            raise SingularTriangle(i)
    y = np.zeros(j)
    for i in range(j - 1, -1, -1):
        y[i] = (g[i] - R[i, i + 1:j] @ y[i + 1:]) / R[i, i]
    return y, float(abs(g[j]))


class HouseholderLsq:
    """Reference: the Householder QR updated by qr_insert, once used for a
    least-squares problem with a dense leading block."""

    def __init__(self, H0):
        self.Q, self.R = scipy.linalg.qr(H0)

    def add_column(self, hcol):
        rows, j = self.Q.shape[0], self.R.shape[1]
        Q2 = np.zeros((rows + 1, rows + 1))
        Q2[:rows, :rows] = self.Q
        Q2[rows, rows] = 1.0
        R2 = np.zeros((rows + 1, j))
        R2[:rows, :] = self.R
        self.Q, self.R = scipy.linalg.qr_insert(Q2, R2, hcol, j, which="col")

    def solve(self, c):
        chat = self.Q.T @ c
        w = self.R.shape[1]
        y = scipy.linalg.solve_triangular(self.R[:w, :w], chat[:w])
        return y, float(np.linalg.norm(chat[w:]))


def grown_monitor(H, c, j0, on_column):
    """Feed H to a HessenbergLsq column by column, as Arnoldi writes it."""
    storage = np.zeros_like(H)
    storage[: j0 + 1, :j0] = H[: j0 + 1, :j0]
    lsq = HessenbergLsq(storage, c, j0)
    for j in range(j0, H.shape[1]):
        storage[: j + 2, j] = H[: j + 2, j]
        lsq.add_column()
        on_column(lsq, j + 1)
    return lsq


class TestHessenbergLsqMonitor:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_empty_head_is_bytewise_the_from_scratch_solve(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 13))
        H = np.triu(rng.standard_normal((m + 1, m)), -1) \
            * 10.0 ** float(rng.integers(-3, 4))
        c = rng.standard_normal(m + 1)

        def same_residual(lsq, width):
            _, rho = givens_from_scratch(H[: width + 1, :width],
                                         c[: width + 1])
            assert lsq.residual_norm() == rho

        lsq = grown_monitor(H, c, 0, same_residual)
        y, rho = lsq.solve()
        y_ref, rho_ref = givens_from_scratch(H, c)
        assert rho == rho_ref
        assert y.tobytes() == y_ref.tobytes()
        y1, rho1 = hessenberg_lsq(H, c)
        assert rho1 == rho_ref and y1.tobytes() == y_ref.tobytes()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_dense_head_agrees_with_householder_qr(self, seed):
        rng = np.random.default_rng(seed)
        j0 = int(rng.integers(1, 7))
        m = j0 + int(rng.integers(1, 9))
        H = np.triu(rng.standard_normal((m + 1, m)), -1)
        H[: j0 + 1, :j0] = rng.standard_normal((j0 + 1, j0))
        H += 4.0 * np.eye(m + 1, m)  # keeps y well conditioned
        c = rng.standard_normal(m + 1)
        ref = HouseholderLsq(H[: j0 + 1, :j0])

        # Both residuals come out of orthogonal transforms of c, so they
        # agree to rounding relative to ||c||; a residual that is small
        # against ||c|| keeps only that absolute accuracy.
        def close_residual(lsq, width):
            ref.add_column(H[: width + 1, width - 1])
            _, rho_ref = ref.solve(c[: width + 1])
            assert abs(lsq.residual_norm() - rho_ref) \
                <= 1e-12 * np.linalg.norm(c[: width + 1])

        lsq = grown_monitor(H, c, j0, close_residual)
        y, rho = lsq.solve()
        y_ref, rho_ref = ref.solve(c)
        assert abs(rho - rho_ref) <= 1e-12 * np.linalg.norm(c)
        assert np.linalg.norm(y - y_ref) <= 1e-12 * np.linalg.norm(y_ref)

    def test_singular_triangle_is_reported_by_the_final_solve(self):
        H = np.zeros((4, 3))
        H[0, 1] = H[1, 2] = H[2, 2] = 1.0  # first column entirely zero
        lsq = grown_monitor(H, np.ones(4), 0, lambda lsq, width: None)
        assert lsq.residual_norm() > 0.0
        with pytest.raises(SingularTriangle) as err:
            lsq.solve()
        assert err.value.index == 0


class TestStandardEig:
    def test_diagonal(self):
        pairs = small_standard_eig(np.diag([3.0, 1.0, 2.0]), 2)
        assert np.allclose(sorted(pairs.values.real), [1.0, 2.0])
        assert np.all(pairs.values.imag == 0.0)

    def test_characteristic_polynomial(self):
        # companion-style matrix with char poly x^2 - 3x + 2 = (x-1)(x-2)
        M = np.array([[0.0, 1.0], [-2.0, 3.0]])
        pairs = small_standard_eig(M, 2)
        assert np.allclose(sorted(pairs.values.real), [1.0, 2.0], atol=1e-12)

    def test_identity(self):
        pairs = small_standard_eig(np.eye(5), 3)
        assert np.allclose(pairs.values, 1.0)
        G = pairs.vectors
        assert np.linalg.norm(G.T @ G - np.eye(G.shape[1])) < 1e-12

    def test_conjugate_pair_never_split(self):
        # rotation block: eigenvalues 1 +- i, requesting one pair returns two
        M = np.array([[1.0, -1.0], [1.0, 1.0]])
        pairs = small_standard_eig(M, 1)
        assert len(pairs) == 2
        assert pairs.values[0] == np.conj(pairs.values[1])

    def test_eigen_residual_invariant(self):
        rng = np.random.default_rng(77)
        M = rng.standard_normal((12, 12))
        pairs = small_standard_eig(M, 6)
        for lam, g in pairs.complex_pairs():
            res = np.linalg.norm(M @ g - lam * g)
            assert res < 1e-9 * np.linalg.norm(M)


class TestGeneralizedEig:
    def test_diagonal_pencil(self):
        pairs = small_generalized_eig(np.diag([2.0, 6.0]), np.diag([1.0, 2.0]), 2)
        assert np.allclose(sorted(pairs.values.real), [2.0, 3.0])

    def test_identity_rhs_reduces_to_standard(self):
        rng = np.random.default_rng(5)
        L = rng.standard_normal((6, 6))
        gen = small_generalized_eig(L, np.eye(6), 4)
        std = small_standard_eig(L, 4)
        assert np.allclose(gen.values, std.values, atol=1e-10)

    def test_seeded_pencil_vs_inverse_oracle(self):
        rng = np.random.default_rng(21)
        L = rng.standard_normal((6, 6)) + 3 * np.eye(6)
        Rm = rng.standard_normal((6, 6)) + 3 * np.eye(6)
        pairs = small_generalized_eig(L, Rm, 6)
        # explicit-inverse oracle
        oracle = np.sort_complex(np.linalg.eigvals(np.linalg.solve(Rm, L)))
        got = np.sort_complex(pairs.values)
        assert np.allclose(got, oracle, atol=1e-10)

    def test_pencil_residual_invariant(self):
        rng = np.random.default_rng(13)
        L = rng.standard_normal((8, 8)) + 4 * np.eye(8)
        Rm = rng.standard_normal((8, 8)) + 4 * np.eye(8)
        pairs = small_generalized_eig(L, Rm, 5)
        for lam, g in pairs.complex_pairs():
            res = np.linalg.norm(L @ g - lam * (Rm @ g))
            assert res < 1e-9 * np.linalg.norm(L) * max(1.0, abs(lam))


class TestPrincipalAngles:
    def test_same_subspace(self):
        rng = np.random.default_rng(1)
        C, _ = np.linalg.qr(rng.standard_normal((7, 3)))
        theta = principal_angles(C, C)
        assert np.allclose(theta, 0.0, atol=1e-7)

    def test_orthogonal_vectors(self):
        e1 = np.eye(3)[:, :1]
        e2 = np.eye(3)[:, 1:2]
        theta = principal_angles(e1, e2)
        assert theta == pytest.approx([np.pi / 2])

    def test_45_degrees(self):
        e1 = np.eye(3)[:, :1]
        mix = np.array([[1.0], [1.0], [0.0]]) / np.sqrt(2.0)
        theta = principal_angles(e1, mix)
        # 1x1 SVD oracle: sigma = 1/sqrt(2)
        assert theta == pytest.approx([np.pi / 4], rel=1e-12)

    def test_not_orthonormal(self):
        with pytest.raises(NotOrthonormal):
            principal_angles(np.ones((3, 1)), np.eye(3)[:, :1])

    @pytest.mark.parametrize("t", [6.7e-10, 1e-6, 0.3])
    def test_small_angles_keep_their_digits(self, t):
        # The arccos of cos(t) has an absolute floor near 1e-8; the sine of
        # the projection onto the complement resolves small angles to an
        # absolute accuracy of a few rounding units.
        rng = np.random.default_rng(4)
        C1, _ = np.linalg.qr(rng.standard_normal((40, 5)))
        w = rng.standard_normal(40)
        w -= C1 @ (C1.T @ w)
        w /= np.linalg.norm(w)
        C2 = np.column_stack([np.cos(t) * C1[:, 0] + np.sin(t) * w, C1[:, 1:3]])
        theta = principal_angles(C1, C2)
        assert theta == pytest.approx([0.0, 0.0, t], rel=0, abs=1e-14)
        assert grassmann_distance(C1, C2).d_p == pytest.approx(t, rel=0,
                                                               abs=1e-14)
        assert grassmann_distance(C1, C1).d_p < 1e-14


class TestGrassmannDistance:
    def test_identical(self):
        rng = np.random.default_rng(2)
        C, _ = np.linalg.qr(rng.standard_normal((9, 4)))
        d = grassmann_distance(C, C)
        assert d.d_p == pytest.approx(0.0, abs=1e-6)
        assert d.p == 4

    def test_orthogonal_lines(self):
        d = grassmann_distance(np.eye(3)[:, :1], np.eye(3)[:, 1:2])
        assert d.d_p == pytest.approx(np.pi / 2)
        assert d.p == 1
        assert d.d_tilde == pytest.approx(np.pi / 2)

    def test_mixed_dimensions(self):
        # C1 spans {e1, e2}; C2 spans {e1, e3, e4}: one shared direction,
        # the other orthogonal.  SVD oracle on C1^T C2 gives angles {0, pi/2}.
        C1 = np.eye(5)[:, :2]
        C2 = np.eye(5)[:, [0, 2, 3]]
        d = grassmann_distance(C1, C2)
        assert d.p == 2
        assert d.d_p == pytest.approx(np.pi / 2, rel=1e-12)
        assert d.d_tilde == pytest.approx(np.pi / (2 * np.sqrt(2)), rel=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 10))
        k1 = int(rng.integers(1, n - 1))
        k2 = int(rng.integers(1, n - 1))
        C1, _ = np.linalg.qr(rng.standard_normal((n, k1)))
        C2, _ = np.linalg.qr(rng.standard_normal((n, k2)))
        d12 = grassmann_distance(C1, C2)
        d21 = grassmann_distance(C2, C1)
        assert abs(d12.d_p - d21.d_p) < 1e-12
        assert d12.p == d21.p

    def test_bounds(self):
        rng = np.random.default_rng(6)
        C1, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        C2, _ = np.linalg.qr(rng.standard_normal((8, 5)))
        d = grassmann_distance(C1, C2)
        assert 0.0 <= d.d_p <= np.sqrt(d.p) * (np.pi / 2) + 1e-12
        assert d.d_tilde <= np.pi / 2 + 1e-12
