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
    EigenPairSet,
    HessenbergLsq,
    _grassmann_distance_unchecked,
    _head_distance,
    _select_pairs,
    _smallest_closed,
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

    @pytest.mark.parametrize("m", [1, 3])
    def test_an_all_zero_block_is_singular(self, m):
        # ||Hbar||_F is 0, so no tolerance relative to it can fire; the
        # zero pivot must still be reported, not divided by.
        lsq = grown_monitor(np.zeros((m + 1, m)), np.ones(m + 1), 0,
                            lambda lsq, width: None)
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

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_repeated_conjugate_pair_keeps_full_rank(self, k):
        # 1 +- i twice and 3: magnitude order puts both 1 - i before either
        # 1 + i, yet each stored pair must be one eigenvector's own pair.
        R = np.array([[1.0, -1.0], [1.0, 1.0]])
        M = scipy.linalg.block_diag(R, R, 3.0)
        pairs = small_standard_eig(M, k)
        columns = pairs.vectors.shape[1]
        assert k <= columns <= 4
        assert np.linalg.matrix_rank(pairs.vectors) == columns
        values = pairs.values
        assert np.array_equal(np.sort_complex(values),
                              np.sort_complex(values.conj()))
        for lam, g in pairs.complex_pairs():
            assert np.linalg.norm(M @ g - lam * g) < 1e-12

    def test_eigen_residual_invariant(self):
        rng = np.random.default_rng(77)
        M = rng.standard_normal((12, 12))
        pairs = small_standard_eig(M, 6)
        for lam, g in pairs.complex_pairs():
            res = np.linalg.norm(M @ g - lam * g)
            assert res < 1e-9 * np.linalg.norm(M)


def _fix_phase_reference(g):
    """Rotate a unit eigenvector so its largest entry is real positive."""
    i = int(np.argmax(np.abs(g)))
    pivot = g[i]
    if pivot == 0.0:
        return g
    return g * (np.conj(pivot) / abs(pivot))


def _select_pairs_reference(values, vectors, k):
    """The per-column loop ``_select_pairs`` replaced."""
    sel = _smallest_closed(values, k)
    count = len(sel)
    out_vals = np.empty(count, dtype=complex)
    out_vecs = np.empty((vectors.shape[0], count))
    i = 0
    while i < count:
        lam = values[sel[i]]
        g = vectors[:, sel[i]]
        if lam.imag == 0.0:
            gr = np.real(g)
            nrm = np.linalg.norm(gr)
            if nrm > 0:
                gr = gr / nrm
            if gr[np.argmax(np.abs(gr))] < 0:
                gr = -gr
            out_vals[i] = lam
            out_vecs[:, i] = gr
            i += 1
        else:
            if lam.imag < 0:
                lam_plus, g_plus = np.conj(lam), np.conj(g)
            else:
                lam_plus, g_plus = lam, g
            g_plus = _fix_phase_reference(g_plus / np.linalg.norm(g_plus))
            out_vals[i] = np.conj(lam_plus)
            out_vals[i + 1] = lam_plus
            out_vecs[:, i] = np.real(g_plus)
            out_vecs[:, i + 1] = np.imag(g_plus)
            i += 2
    return EigenPairSet(values=out_vals, vectors=out_vecs)


class TestSelectPairs:
    """The vectorized storage against the per-column reference loop."""

    @staticmethod
    def _assert_matches_reference(values, vectors, k):
        got = _select_pairs(values, vectors, k)
        ref = _select_pairs_reference(values, vectors, k)
        assert np.array_equal(got.values, ref.values)
        assert got.vectors.shape == ref.vectors.shape
        assert np.max(np.abs(got.vectors - ref.vectors), initial=0.0) \
            <= 1e-15

    def test_random_matrices(self):
        rng = np.random.default_rng(90)
        for trial in range(1000):
            order = 2 + trial % 39
            values, vectors = np.linalg.eig(rng.standard_normal((order,
                                                                 order)))
            k = int(rng.integers(1, order + 1))
            self._assert_matches_reference(values.astype(complex),
                                           vectors.astype(complex), k)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_repeated_conjugate_pair(self, k):
        R = np.array([[1.0, -1.0], [1.0, 1.0]])
        values, vectors = np.linalg.eig(scipy.linalg.block_diag(R, R, 3.0))
        self._assert_matches_reference(values, vectors, k)

    def test_zero_real_vector_and_negative_pivots(self):
        # A zero column stays zero; negative largest entries flip, real and
        # complex alike (the pair's pivot is a negative real number).
        values = np.array([0.5, -1.0, 2.0, 3.0 - 1.0j, 3.0 + 1.0j, 4.0])
        vectors = np.array([
            [0.0, 0.3, -0.2, -2.0 + 0.0j, -2.0 - 0.0j, 0.1],
            [0.0, -0.9, 0.1, 0.5 + 0.5j, 0.5 - 0.5j, -3.0],
            [0.0, 0.2, -0.7, 0.1 - 0.3j, 0.1 + 0.3j, 0.4],
        ], dtype=complex)
        for k in range(1, 7):
            self._assert_matches_reference(values, vectors, k)
        got = _select_pairs(values, vectors, 6).vectors
        assert not got[:, 0].any()
        # Columns 1, 2 and 5 are real vectors, column 3 the pair's real part.
        cols = [1, 2, 3, 5]
        assert np.all(got[np.argmax(np.abs(got[:, cols]), axis=0), cols] > 0)


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


def _fitting_pairs_reference(eig, k, k_max):
    """The cut ``EigenPairSet.capped`` replaced: re-solve with a smaller
    request until at most k_max pairs come back (or the request is 1)."""
    request = min(k, k_max)
    pairs = eig(request)
    while len(pairs) > k_max and request > 1:
        request -= 1
        pairs = eig(request)
    return pairs


def _balanced_cut_reference(full, k, k_max):
    """The cut ``EigenPairSet.smallest`` replaced: grow to a conjugate-closed
    prefix of at most k_max, else shrink to one (possibly half a pair).

    Returns (pairs, whether the prefix is conjugate-closed).
    """
    values = full.values
    order = np.lexsort((values.imag, values.real, np.abs(values)))

    def balanced(cnt):
        imag = values[order[:cnt]].imag
        return np.count_nonzero(imag < 0) == np.count_nonzero(imag > 0)

    count = min(k, k_max)
    while count < k_max and not balanced(count):
        count += 1
    while count > 1 and not balanced(count):
        count -= 1
    sel = order[:count]
    return EigenPairSet(values[sel], full.vectors[:, sel]), balanced(count)


def _rotation_matrix(rng, order):
    """Random real matrix whose spectrum mixes conjugate pairs and reals.

    Scaled rotation blocks and signed reals of random magnitude, under a
    random orthogonal similarity.
    """
    D = np.zeros((order, order))
    i = 0
    while i < order:
        r = rng.uniform(0.1, 10.0)
        if i + 1 < order and rng.random() < 0.6:
            t = rng.uniform(0.1, np.pi - 0.1)
            D[i:i + 2, i:i + 2] = r * np.array([[np.cos(t), -np.sin(t)],
                                                [np.sin(t), np.cos(t)]])
            i += 2
        else:
            D[i, i] = r * rng.choice([-1.0, 1.0])
            i += 1
    Q, _ = np.linalg.qr(rng.standard_normal((order, order)))
    return Q @ D @ Q.T


def _same_pairs(a, b):
    return (a.values.shape == b.values.shape
            and a.vectors.shape == b.vectors.shape
            and a.values.tobytes() == b.values.tobytes()
            and a.vectors.tobytes() == b.vectors.tobytes())


def _assert_capped_matches_reference(eig, order):
    for k in range(1, order):
        for k_max in range(1, order):
            ref = _fitting_pairs_reference(eig, k, k_max)
            if len(ref) <= k_max:
                assert _same_pairs(eig(min(k, k_max)).capped(k_max), ref)
            else:
                with pytest.raises(RankDeficient):
                    eig(min(k, k_max)).capped(k_max)


class TestPairCut:
    """One solve plus ``capped`` against the old per-site cuts."""

    @given(st.integers(0, 2**32 - 1), st.integers(2, 12))
    @settings(max_examples=40, deadline=None)
    def test_standard_capped_matches_resolving_cut(self, seed, order):
        M = _rotation_matrix(np.random.default_rng(seed), order)
        _assert_capped_matches_reference(
            lambda request: small_standard_eig(M, request), order)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 12))
    @settings(max_examples=40, deadline=None)
    def test_generalized_capped_matches_resolving_cut(self, seed, order):
        rng = np.random.default_rng(seed)
        L = _rotation_matrix(rng, order)
        Rm = rng.standard_normal((order, order)) + order * np.eye(order)
        _assert_capped_matches_reference(
            lambda request: small_generalized_eig(L, Rm, request), order)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 12))
    @settings(max_examples=40, deadline=None)
    def test_smallest_matches_balanced_cut(self, seed, order):
        # A full spectrum in pair storage with its pair blocks shuffled,
        # as the closed-form strategy-B spectrum is held.
        rng = np.random.default_rng(seed)
        full = small_standard_eig(_rotation_matrix(rng, order), order)
        blocks, i = [], 0
        while i < order:
            width = 1 if full.values[i].imag == 0.0 else 2
            blocks.append(list(range(i, i + width)))
            i += width
        perm = np.concatenate([blocks[b]
                               for b in rng.permutation(len(blocks))])
        full = EigenPairSet(full.values[perm], full.vectors[:, perm])
        for k in range(1, order):
            for k_max in range(1, order):
                ref, closed = _balanced_cut_reference(full, k, k_max)
                if closed:
                    assert _same_pairs(full.smallest(k, k_max), ref)
                else:
                    with pytest.raises(RankDeficient):
                        full.smallest(k, k_max)

    def test_straddling_pair_is_dropped_and_empty_cut_raises(self):
        # Spectrum 0.5, 1 +- i, 5: two columns hold 0.5 only; one column
        # holds nothing when the smallest value is complex.
        M = np.zeros((4, 4))
        M[0, 0], M[3, 3] = 0.5, 5.0
        M[1:3, 1:3] = [[1.0, -1.0], [1.0, 1.0]]
        pairs = small_standard_eig(M, 2)
        assert len(pairs) == 3
        assert _same_pairs(pairs.capped(2), small_standard_eig(M, 1))
        with pytest.raises(RankDeficient):
            small_standard_eig(M[1:3, 1:3], 1).capped(1)


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

    def test_not_orthonormal(self):
        with pytest.raises(NotOrthonormal):
            grassmann_distance(np.eye(3)[:, :2], 2.0 * np.eye(3)[:, :1])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_unchecked_distance_is_the_checked_one(self, seed):
        # The solvers' monitor skips only the orthonormality check.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        C1, _ = np.linalg.qr(rng.standard_normal((n, int(rng.integers(1, n)))))
        C2, _ = np.linalg.qr(rng.standard_normal((n, int(rng.integers(1, n)))))
        assert _grassmann_distance_unchecked(C1, C2) \
            == grassmann_distance(C1, C2)

    def test_bounds(self):
        rng = np.random.default_rng(6)
        C1, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        C2, _ = np.linalg.qr(rng.standard_normal((8, 5)))
        d = grassmann_distance(C1, C2)
        assert 0.0 <= d.d_p <= np.sqrt(d.p) * (np.pi / 2) + 1e-12
        assert d.d_tilde <= np.pi / 2 + 1e-12


class TestHeadDistance:
    """The distance from span [I_k; 0] to span Q, read from Q's blocks."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_n_row_distance(self, seed):
        # Covers Q narrower and wider than k, and Q[k:] with fewer rows
        # than Q has columns.
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(3, 16))
        k = int(rng.integers(1, rows))
        Q, _ = np.linalg.qr(rng.standard_normal((rows, int(rng.integers(1, rows)))))
        d = _head_distance(Q, k)
        ref = grassmann_distance(np.eye(rows, k), Q)
        assert d.p == ref.p
        assert abs(d.d_p - ref.d_p) <= 1e-12 * max(ref.d_p, 1.0)

    @pytest.mark.parametrize("t", [1e-4, 1e-9])
    def test_small_angles_keep_their_digits(self, t):
        rng = np.random.default_rng(12)
        k = 3
        Q, _ = np.linalg.qr(np.vstack([np.eye(k),
                                       t * rng.standard_normal((5, k))]))
        ref = principal_angles(np.eye(8, k), Q)
        d = _head_distance(Q, k)
        assert abs(d.d_p - np.sqrt(np.sum(ref**2))) <= 1e-8 * d.d_p
