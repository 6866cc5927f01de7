"""Sparse operator, ILU, preconditioner, generator and Matrix Market tests."""

import copy
import dataclasses
import gc
import pickle
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu, spsolve_triangular

from conftest import count_splu, random_sparse
from krylov_recycle import operators
from krylov_recycle.errors import (
    DimensionMismatch,
    NonSquare,
    ParameterError,
    ParseError,
    UnsupportedField,
    ZeroPivot,
)
from krylov_recycle.gmres import gmres_solve
from krylov_recycle.operators import (
    ILU_OBJECT_MAX_N,
    IdentityPreconditioner,
    IluFactorization,
    IluPreconditioner,
    InnerGmresPreconditioner,
    JacobiPreconditioner,
    MatvecCounter,
    SparseMatrix,
    _level_pattern,
    as_operator,
    gen_convection_diffusion,
    ilu_factor,
    read_matrix_market,
    read_rhs,
    sparse_lu,
    write_matrix_market,
    write_rhs,
)


class TestSparseMatrix:
    def test_identity_matvec(self):
        A = SparseMatrix.identity(4)
        x = np.array([1.0, -2.0, 3.0, 0.5])
        assert np.array_equal(A.matvec(x), x)

    def test_zero_matrix(self):
        A = SparseMatrix.from_coo(3, [], [], [])
        assert np.array_equal(A.matvec(np.ones(3)), np.zeros(3))

    def test_seeded_vs_dense_oracle(self):
        rng = np.random.default_rng(50)
        A = random_sparse(rng, 50, density=0.15)
        x = rng.standard_normal(50)
        dense = A.to_dense()
        assert np.linalg.norm(A.matvec(x) - dense @ x) < 1e-13 * np.linalg.norm(x)

    def test_dimension_mismatch(self):
        A = SparseMatrix.identity(4)
        with pytest.raises(DimensionMismatch):
            A.matvec(np.ones(5))

    def test_duplicates_summed_in_coo(self):
        A = SparseMatrix.from_coo(2, [0, 0], [1, 1], [2.0, 3.0])
        assert A.nnz == 1
        assert A.to_dense()[0, 1] == 5.0

    def test_spmv_counts(self):
        counter = MatvecCounter()
        A = SparseMatrix.identity(3)
        op = as_operator(A, counter)
        op(np.ones(3))
        op(np.ones(3))
        assert counter.count == 2

    def test_an_operator_counts_on_its_own_counter_only(self):
        A = SparseMatrix.identity(3)
        counter = MatvecCounter()
        op = as_operator(A, counter)
        assert as_operator(op) is op
        assert as_operator(op, counter) is op
        with pytest.raises(ValueError, match="another counter"):
            as_operator(op, MatvecCounter())
        # A solver handed both would count on one and report the other.
        with pytest.raises(ValueError, match="another counter"):
            gmres_solve(op, None, np.ones(3), m=2, counter=MatvecCounter())
        assert counter.count == 0

    def test_linearity(self):
        rng = np.random.default_rng(4)
        A = random_sparse(rng, 30)
        op = as_operator(A)
        x, y = rng.standard_normal(30), rng.standard_normal(30)
        a, b = 0.7, -1.3
        lhs = op(a * x + b * y)
        rhs = a * op(x) + b * op(y)
        assert np.linalg.norm(lhs - rhs) < 1e-12 * max(np.linalg.norm(lhs), 1.0)

    def test_arrays_are_read_only(self):
        A = gen_convection_diffusion((4, 4), 1.0)
        csr = A.to_scipy()
        for a in (A.row_ptr, A.col_idx, A.values,
                  csr.indptr, csr.indices, csr.data):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]

    def test_caller_arrays_are_copied(self):
        # int64 indices and float values are the dtypes the matrix keeps, so
        # these are the arrays an unchecked constructor would alias.
        dense = gen_convection_diffusion((6, 6), 10.0).to_dense()
        ref = SparseMatrix.from_dense(dense)
        row_ptr, col_idx = ref.row_ptr.copy(), ref.col_idx.copy()
        values = ref.values.copy()
        A = SparseMatrix(ref.n, row_ptr, col_idx, values)
        fact = ilu_factor(A, 0)
        values *= 3.0
        col_idx[:] = col_idx[::-1]
        row_ptr[1:-1] = row_ptr[1]
        assert np.array_equal(A.to_dense(), dense)
        assert ilu_factor(A, 0) is fact
        fresh = ilu_factor(ref, 0)
        assert _same_bytes(fact.L, fresh.L)
        assert _same_bytes(fact.U, fresh.U)


class TestIlu:
    def test_diagonal_matrix(self):
        A = SparseMatrix.from_dense(np.diag([2.0, 5.0, -3.0]))
        fact = ilu_factor(A, 0)
        assert np.allclose(fact.L.to_dense(), np.eye(3))
        assert np.allclose(fact.U.to_dense(), A.to_dense())

    def test_tridiagonal_exact(self):
        n = 12
        dense = np.diag(np.full(n, 4.0)) + np.diag(np.full(n - 1, -1.0), 1) \
            + np.diag(np.full(n - 1, -1.5), -1)
        A = SparseMatrix.from_dense(dense)
        fact = ilu_factor(A, 0)
        LU = fact.L.to_dense() @ fact.U.to_dense()
        assert np.linalg.norm(LU - dense) < 1e-12 * np.linalg.norm(dense)
        # exact factorization means one preconditioned iteration suffices
        b = np.arange(1.0, n + 1.0)
        _, report = gmres_solve(A, IluPreconditioner(fact), b, m=10, tol=1e-12)
        assert report.converged
        assert report.iterations == 1

    def test_level_one_has_more_fill_and_smaller_defect(self):
        A = gen_convection_diffusion((16, 16), 25.0)
        f0 = ilu_factor(A, 0)
        f1 = ilu_factor(A, 1)
        assert f1.pattern_nnz > f0.pattern_nnz
        dense = A.to_dense()
        d0 = np.linalg.norm(f0.L.to_dense() @ f0.U.to_dense() - dense)
        d1 = np.linalg.norm(f1.L.to_dense() @ f1.U.to_dense() - dense)
        assert d1 < d0

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_residual_vanishes_on_pattern(self, level):
        # Defining property of the incomplete factorization: A - L U is
        # zero at every position of the level-k pattern (fill appears only
        # outside it).
        A = gen_convection_diffusion((10, 10), 15.0)
        fact = ilu_factor(A, level)
        R = A.to_dense() - fact.L.to_dense() @ fact.U.to_dense()
        for M in (fact.L, fact.U):
            for i in range(A.n):
                cols, _ = M.row(i)
                for j in cols:
                    assert abs(R[i, j]) < 1e-12 * np.abs(A.values).max()

    def test_zero_pivot_shift_retry(self):
        # A shifted factor is not kept, so every call warns again.
        A = SparseMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 1.0]]))
        shifted = []
        for _ in range(2):
            with pytest.warns(RuntimeWarning, match="zero pivot"):
                shifted.append(ilu_factor(A, 0))
            assert shifted[-1].U.diagonal()[0] != 0.0
        assert shifted[0] is not shifted[1]
        with pytest.raises(ZeroPivot):
            ilu_factor(A, 0, shift_retry=False)

    def test_level_is_a_nonnegative_integer(self):
        A = gen_convection_diffusion((6, 6), 5.0)
        with pytest.raises(ParameterError, match="level >= 0") as err:
            ilu_factor(A, -1)
        assert err.value.name == "level"
        with pytest.raises(TypeError):
            ilu_factor(A, 1.5)
        assert A._ilu == {}
        fact = ilu_factor(A, np.int64(1))
        assert ilu_factor(A, 1) is fact
        assert list(A._ilu) == [1] and type(list(A._ilu)[0]) is int

    def test_zero_pivot_fatal(self):
        # the zero matrix cannot be rescued: the diagonal shift is also zero
        A = SparseMatrix.from_coo(2, [], [], [])
        for _ in range(2):
            with pytest.raises(ZeroPivot), pytest.warns(RuntimeWarning):
                ilu_factor(A, 0, shift_retry=True)


def _reference_ilu_symbolic(A, level):
    """Level-of-fill pattern of each row as a sorted integer array, by the
    row-by-row dict-and-bisect merge that the sparse products replaced."""
    n = A.n
    upper = []  # per factored row: (cols > diag, their levels)
    rows = []
    for i in range(n):
        cols, _ = A.row(i)
        lev = {int(j): 0 for j in cols}
        if i not in lev:
            lev[i] = 0  # diagonal always carried for the pivot
        pending = sorted(j for j in lev if j < i)
        pos = 0
        while pos < len(pending):
            kcol = pending[pos]
            pos += 1
            lk = lev[kcol]
            if lk > level:
                continue
            ucols, ulev = upper[kcol]
            for j, lkj in zip(ucols, ulev):
                fill = lk + lkj + 1
                if j in lev:
                    if fill < lev[j]:
                        lev[j] = fill
                elif fill <= level:
                    lev[j] = fill
                    if j < i:
                        # Keep the pending pivots ordered; new fill left of i
                        # must itself be eliminated.
                        lo, hi = pos, len(pending)
                        while lo < hi:
                            mid = (lo + hi) // 2
                            if pending[mid] < j:
                                lo = mid + 1
                            else:
                                hi = mid
                        pending.insert(lo, j)
        keep = sorted(j for j, l in lev.items() if l <= level)
        rows.append(np.array(keep, dtype=np.int64))
        up = [(j, lev[j]) for j in keep if j > i]
        upper.append((np.array([j for j, _ in up], dtype=np.int64),
                      np.array([l for _, l in up], dtype=np.int64)))
    return rows


def _reference_ilu_numeric(A, level, pivot_tol=1e-14):
    """(L, U, pattern_nnz) by the row-by-row dict elimination the sweep replaced."""
    n = A.n
    pattern = _reference_ilu_symbolic(A, level)
    scale = np.abs(A.values).max() if A.nnz else 1.0
    u_rows = []  # (cols >= i, values), diagonal first
    l_rows = []  # (cols < i, values)
    for i in range(n):
        cols_i = pattern[i]
        w = dict.fromkeys(cols_i.tolist(), 0.0)
        acols, avals = A.row(i)
        for j, v in zip(acols, avals):
            if j in w:
                w[j] = v
        for kcol in cols_i:
            if kcol >= i:
                break
            ucols, uvals = u_rows[kcol]
            piv = uvals[0]
            factor = w[kcol] / piv
            w[kcol] = factor
            for j, uv in zip(ucols[1:], uvals[1:]):
                if j in w:
                    w[j] -= factor * uv
        diag = w.get(i, 0.0)
        if abs(diag) < pivot_tol * scale:
            raise ZeroPivot(i)
        lc = cols_i[cols_i < i]
        uc = cols_i[cols_i >= i]
        l_rows.append((lc, np.array([w[j] for j in lc])))
        u_rows.append((uc, np.array([w[j] for j in uc])))

    def build(rows_list, unit_diag):
        ptr = [0]
        cols = []
        vals = []
        for i, (rc, rv) in enumerate(rows_list):
            if unit_diag:
                cols.extend(rc.tolist() + [i])
                vals.extend(rv.tolist() + [1.0])
            else:
                cols.extend(rc.tolist())
                vals.extend(rv.tolist())
            ptr.append(len(cols))
        return SparseMatrix(n, np.array(ptr), np.array(cols, dtype=np.int64),
                            np.array(vals))

    return (build(l_rows, unit_diag=True), build(u_rows, unit_diag=False),
            sum(len(p) for p in pattern))


def _same_bytes(M1, M2):
    return all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
               for a, b in ((M1.row_ptr, M2.row_ptr), (M1.col_idx, M2.col_idx),
                            (M1.values, M2.values)))


def _assert_sweep_matches_reference(A, level):
    """ilu_factor's factors are byte-equal to the dict loop's, or both fail
    on the same row."""
    try:
        L, U, nnz = _reference_ilu_numeric(A, level)
    except ZeroPivot as err:
        with pytest.raises(ZeroPivot) as got:
            ilu_factor(A, level, shift_retry=False)
        assert got.value.row == err.row
        return
    fact = ilu_factor(A, level, shift_retry=False)
    assert _same_bytes(fact.L, L)
    assert _same_bytes(fact.U, U)
    assert fact.pattern_nnz == nnz


@st.composite
def _sparse_with_diagonal(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 12))
    density = draw(st.sampled_from([0.1, 0.3, 0.6]))
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    dense = np.where(mask, rng.standard_normal((n, n)), 0.0)
    # a weak diagonal lets pivots shrink and grow during elimination
    diag = rng.choice([-1.0, 1.0], n) * rng.uniform(0.1, 2.0, n)
    np.fill_diagonal(dense, diag)
    return SparseMatrix.from_dense(dense)


class TestIluSweep:
    @pytest.mark.parametrize("grid", [(12, 9), (7, 13)])
    @pytest.mark.parametrize("peclet", [0.0, 15.0, 50.0])
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_factors_byte_equal_on_convection_diffusion(self, grid, peclet,
                                                        level):
        _assert_sweep_matches_reference(gen_convection_diffusion(grid, peclet),
                                        level)

    @given(_sparse_with_diagonal(), st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_factors_byte_equal_on_random_sparse(self, A, level):
        _assert_sweep_matches_reference(A, level)

    def test_pivot_vanishing_after_elimination_names_its_row(self):
        # u_22 = 2 - (3 / 1.5) * 1 = 0 exactly; rows 3 and 4 would divide by
        # it.  Row 5 fails too, on its own: it stores no diagonal and the
        # elimination of (5, 0) brings no fill there.
        dense = np.array([[2.0, 1.0, 0.0, 0.0, 0.0, 0.0],
                          [1.0, 2.0, 1.0, 0.0, 0.0, 0.0],
                          [0.0, 3.0, 2.0, 1.0, 0.0, 0.0],
                          [0.0, 0.0, 1.0, 2.0, 1.0, 0.0],
                          [0.0, 0.0, 0.0, 1.0, 2.0, 1.0],
                          [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        A = SparseMatrix.from_dense(dense)
        with pytest.raises(ZeroPivot) as ref:
            _reference_ilu_numeric(A, 0)
        assert ref.value.row == 2
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ZeroPivot) as err:
                ilu_factor(A, 0, shift_retry=False)
        assert err.value.row == 2
        assert caught == []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fact = ilu_factor(A, 0)
        assert [str(w.message).split(";")[0] for w in caught] \
            == ["ILU(0) hit a zero pivot"]
        assert np.all(np.isfinite(fact.U.values))

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_structurally_missing_diagonal_is_filled_by_elimination(self,
                                                                    level):
        # Row 1 stores no diagonal; the pattern carries it as a zero that
        # the elimination of (1, 0) turns into u_11 = 0 - 0.5 * 1.
        A = SparseMatrix.from_coo(3, [0, 0, 1, 1, 2, 2], [0, 1, 0, 2, 1, 2],
                                  [2.0, 1.0, 1.0, 1.0, 1.0, 2.0])
        _assert_sweep_matches_reference(A, level)
        fact = ilu_factor(A, level, shift_retry=False)
        assert fact.U.diagonal()[1] == -0.5
        assert fact.pattern_nnz == 7

    def test_structurally_missing_diagonal_without_fill_names_its_row(self):
        # Row 1 stores no diagonal and has no lower entry to fill it.
        A = SparseMatrix.from_coo(3, [0, 1, 2, 2], [0, 2, 1, 2],
                                  [2.0, 1.0, 1.0, 4.0])
        for _ in range(2):  # a failed factorization is not kept
            with pytest.raises(ZeroPivot) as err:
                ilu_factor(A, 0, shift_retry=False)
            assert err.value.row == 1
        _assert_sweep_matches_reference(A, 0)


@st.composite
def _sparse_with_holes(draw):
    """Random sparse matrix that may miss diagonal entries and whole rows."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 30))
    density = draw(st.sampled_from([0.05, 0.1, 0.2, 0.4]))
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((n, n)) < density,
                     rng.standard_normal((n, n)), 0.0)
    dense[rng.random(n) < 0.15] = 0.0
    return SparseMatrix.from_dense(dense)


def _pattern_values(A, level):
    """(rows, cols, vals): A's level-``level`` pattern, row-major, with A's
    values on its own entries and zeros on the others."""
    ptr, cols, at = _level_pattern(A, level)
    vals = np.zeros(len(cols))
    vals[at] = A.values
    return np.repeat(np.arange(A.n), np.diff(ptr)), cols, vals


def _assert_pattern_matches_reference(A, level):
    rows, cols, vals = _pattern_values(A, level)
    ref = _reference_ilu_symbolic(A, level)
    ptr = np.searchsorted(rows, np.arange(A.n + 1))
    assert np.array_equal(ptr, np.cumsum([0] + [len(p) for p in ref]))
    for i, expected in enumerate(ref):
        assert np.array_equal(cols[ptr[i]:ptr[i + 1]], expected)
    # A's values sit on its own entries, and every other entry is zero.
    a_rows = np.repeat(np.arange(A.n), np.diff(A.row_ptr))
    at = np.searchsorted(rows * A.n + cols, a_rows * A.n + A.col_idx)
    assert np.array_equal(vals[at], A.values)
    assert np.count_nonzero(np.delete(vals, at)) == 0


class TestLevelPattern:
    """The sparse-product pattern equals the dict-and-bisect merge's."""

    @given(_sparse_with_holes(), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_rows_match_reference_on_random_sparse(self, A, level):
        _assert_pattern_matches_reference(A, level)

    @pytest.mark.parametrize("grid", [24, 32])
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_rows_match_reference_on_convection_diffusion(self, grid, level):
        _assert_pattern_matches_reference(
            gen_convection_diffusion((grid, grid), 30.0), level)

    def test_missing_diagonal_is_carried_at_every_level(self):
        # Rows 1 and 2 store no diagonal, and row 2 stores nothing at all.
        A = SparseMatrix.from_coo(3, [0, 1], [1, 0], [1.0, 2.0])
        for level in range(4):
            rows, cols, vals = _pattern_values(A, level)
            assert list(zip(rows, cols)) == [(0, 0), (0, 1), (1, 0), (1, 1),
                                             (2, 2)]
            assert vals.tolist() == [0.0, 1.0, 2.0, 0.0, 0.0]


def _reference_ilu_apply(fact, v):
    """U^{-1} L^{-1} v by two generic sparse triangular solves."""
    y = spsolve_triangular(fact.L.to_scipy(), v, lower=True, unit_diagonal=True)
    return spsolve_triangular(fact.U.to_scipy(), y, lower=False)


def _assert_matches_reference(fact, v):
    ref = _reference_ilu_apply(fact, v)
    err = np.linalg.norm(fact.solve(v) - ref, np.inf)
    assert err <= 1e3 * np.finfo(float).eps * np.linalg.norm(ref, np.inf)


class TestIluApply:
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_matches_triangular_solves(self, level):
        A = gen_convection_diffusion((16, 16), 25.0)
        fact = ilu_factor(A, level)
        rng = np.random.default_rng(level)
        for _ in range(3):
            _assert_matches_reference(fact, rng.standard_normal(A.n))

    def test_matches_triangular_solves_after_shift_retry(self):
        dense = gen_convection_diffusion((6, 6), 25.0).to_dense()
        dense[0, 0] = 0.0
        with pytest.warns(RuntimeWarning):
            fact = ilu_factor(SparseMatrix.from_dense(dense), 0)
        v = np.random.default_rng(5).standard_normal(36)
        _assert_matches_reference(fact, v)

    def test_input_not_modified(self):
        A = gen_convection_diffusion((8, 8), 25.0)
        fact = ilu_factor(A, 1)
        v = np.random.default_rng(6).standard_normal(A.n)
        before = v.copy()
        fact.solve(v)
        assert np.array_equal(v, before)

    def test_strided_column_equals_contiguous_copy(self):
        A = gen_convection_diffusion((8, 8), 25.0)
        fact = ilu_factor(A, 0)
        V = np.random.default_rng(7).standard_normal((A.n, 4))
        assert not V[:, 2].flags.contiguous
        assert np.array_equal(fact.solve(V[:, 2]), fact.solve(V[:, 2].copy()))

    def test_wrong_length(self):
        fact = ilu_factor(gen_convection_diffusion((4, 4), 1.0), 0)
        with pytest.raises(DimensionMismatch):
            fact.solve(np.ones(15))

    def test_zero_u_diagonal_raises_at_construction(self):
        L = SparseMatrix.identity(3)
        U = SparseMatrix.from_dense(np.array([[2.0, 1.0, 0.0],
                                              [0.0, 0.0, 1.0],
                                              [0.0, 0.0, 3.0]]))
        with pytest.raises(ZeroPivot) as err:
            IluFactorization(0, L, U, pattern_nnz=5)
        assert err.value.row == 1


class TestIluApplyPaths:
    """The SuperLU-object apply up to ILU_OBJECT_MAX_N, gstrs above it."""

    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("grid, object_path", [((24, 24), True),
                                                   ((36, 36), False)])
    def test_matches_two_step_reference(self, grid, object_path, level):
        A = gen_convection_diffusion(grid, 30.0)
        assert (A.n <= ILU_OBJECT_MAX_N) == object_path
        fact = ilu_factor(A, level)
        assert (fact._lu is not None) == object_path
        rng = np.random.default_rng(level)
        for _ in range(3):
            v = rng.standard_normal(A.n)
            ref = _reference_ilu_apply(fact, v)
            err = np.linalg.norm(fact.solve(v) - ref, np.inf)
            assert err <= 1e-14 * np.linalg.norm(ref, np.inf)

    def test_object_path_allocates_nothing_per_apply(self):
        # scipy's gstrs keeps one allocated block per call; at n = 576 a
        # fast apply turned that into steady RSS growth.
        A = gen_convection_diffusion((24, 24), 30.0)
        fact = ilu_factor(A, 0)
        v = np.random.default_rng(8).standard_normal(A.n)
        fact.solve(v)
        applies = 5000
        before = sys.getallocatedblocks()
        for _ in range(applies):
            fact.solve(v)
        assert (sys.getallocatedblocks() - before) / applies < 0.01

    @pytest.mark.parametrize("n", [3, ILU_OBJECT_MAX_N + 1])
    def test_zero_u_diagonal_raises_on_both_paths(self, n):
        diag = np.ones(n)
        diag[1] = 0.0
        U = SparseMatrix.from_coo(n, [0, *range(n)], [1, *range(n)],
                                  [1.0, *diag])
        with pytest.raises(ZeroPivot) as err:
            IluFactorization(0, SparseMatrix.identity(n), U, pattern_nnz=n)
        assert err.value.row == 1


class TestIluFactorCache:
    """A matrix keeps its unshifted ILU factor of each level."""

    def test_one_factor_per_matrix_and_level(self):
        A = gen_convection_diffusion((8, 8), 25.0)
        f0 = ilu_factor(A, 0)
        assert ilu_factor(A, 0) is f0
        assert ilu_factor(A, 0, shift_retry=False) is f0
        f1 = ilu_factor(A, 1)
        assert f1 is not f0
        assert ilu_factor(A, 1) is f1
        assert (f0.level, f1.level) == (0, 1)

    @pytest.mark.parametrize("grid", [(24, 24), (64, 64)])
    def test_cached_factor_equals_fresh_factor(self, grid):
        # n = 576 applies through the SuperLU object, n = 4096 through gstrs.
        A = gen_convection_diffusion(grid, 30.0)
        cached = ilu_factor(A, 0)
        assert (cached._lu is not None) == (A.n <= ILU_OBJECT_MAX_N)
        V = np.random.default_rng(9).standard_normal((3, A.n))
        first = [cached.solve(v) for v in V]
        assert ilu_factor(A, 0) is cached
        fresh = ilu_factor(copy.deepcopy(A), 0)
        assert fresh is not cached
        assert _same_bytes(cached.L, fresh.L)
        assert _same_bytes(cached.U, fresh.U)
        for v, x in zip(V, first):
            assert cached.solve(v).tobytes() == x.tobytes()
            assert fresh.solve(v).tobytes() == x.tobytes()

    def test_copies_carry_no_factor(self):
        A = gen_convection_diffusion((6, 6), 5.0)
        fact = ilu_factor(A, 0)
        for B in (copy.copy(A), copy.deepcopy(A), pickle.loads(pickle.dumps(A))):
            assert not B.values.flags.writeable
            assert np.array_equal(B.to_dense(), A.to_dense())
            assert ilu_factor(B, 0) is not fact


def _count_analyses(monkeypatch):
    """The (n, nnz, level) of every pattern analysis built from now on."""
    built = []
    analyze = operators._analyze_ilu

    def counted(A, level):
        built.append((A.n, A.nnz, level))
        return analyze(A, level)

    monkeypatch.setattr(operators, "_analyze_ilu", counted)
    return built


def _on_pattern_of(A, values):
    return SparseMatrix(A.n, A.row_ptr, A.col_idx, values)


class TestIluAnalysis:
    """A pattern is analyzed once while a factor built on it lives; every
    fresh matrix on it runs only the value sweep."""

    @pytest.mark.parametrize("grid", [(12, 9), (7, 13)])
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_fresh_matrices_on_one_pattern_share_one_analysis(
            self, monkeypatch, grid, level):
        built = _count_analyses(monkeypatch)
        A = gen_convection_diffusion(grid, 30.0)
        B = gen_convection_diffusion(grid, 31.5)
        assert np.array_equal(A.row_ptr, B.row_ptr)
        assert np.array_equal(A.col_idx, B.col_idx)
        assert not np.array_equal(A.values, B.values)
        _assert_sweep_matches_reference(A, level)
        _assert_sweep_matches_reference(B, level)
        assert built == [(A.n, A.nnz, level)]
        assert ilu_factor(A, level)._analysis is ilu_factor(B, level)._analysis

    @given(_sparse_with_diagonal(), st.integers(0, 3),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_refactored_pattern_matches_reference(self, A, level, seed):
        rng = np.random.default_rng(seed)
        B = _on_pattern_of(A, rng.standard_normal(A.nnz)
                           * rng.choice([1e-3, 1.0, 1e3], A.nnz))
        _assert_sweep_matches_reference(A, level)
        _assert_sweep_matches_reference(B, level)
        if A._ilu and B._ilu:
            assert A._ilu[level]._analysis is B._ilu[level]._analysis

    @pytest.mark.parametrize("level", [0, 1])
    def test_equal_size_other_pattern_gets_its_own_analysis(self, monkeypatch,
                                                             level):
        built = _count_analyses(monkeypatch)
        tri = 4 * np.eye(7) - np.eye(7, k=1) - np.eye(7, k=-1)
        other = tri.copy()
        other[0, 1], other[0, 3] = 0.0, -1.0  # same n and nnz, other pattern
        A, B = SparseMatrix.from_dense(tri), SparseMatrix.from_dense(other)
        assert (A.n, A.nnz) == (B.n, B.nnz)
        _assert_sweep_matches_reference(A, level)
        _assert_sweep_matches_reference(B, level)
        assert built == [(7, A.nnz, level)] * 2
        assert (ilu_factor(A, level)._analysis
                is not ilu_factor(B, level)._analysis)
        # A's pattern lost the table entry to B's; a fresh matrix on it is
        # analyzed again and still factors right.
        _assert_sweep_matches_reference(_on_pattern_of(A, 2 * A.values), level)
        assert len(built) == 3

    def test_analysis_lives_as_long_as_its_factors(self):
        A = gen_convection_diffusion((11, 7), 20.0)
        key = (A.n, A.nnz, 1)
        fact = ilu_factor(A, 1)
        analysis = weakref.ref(fact._analysis)
        assert operators._ILU_ANALYSES[key] is analysis()
        B = _on_pattern_of(A, 2 * A.values)
        assert ilu_factor(B, 1)._analysis is analysis()
        del A, fact
        gc.collect()
        assert analysis() is not None  # B's factor still holds it
        del B
        gc.collect()
        assert analysis() is None
        assert key not in operators._ILU_ANALYSES

    def test_analysis_is_read_only(self):
        analysis = ilu_factor(gen_convection_diffusion((40, 40), 30.0),
                              1)._analysis
        arrays = [getattr(analysis, f.name)
                  for f in dataclasses.fields(analysis)]
        arrays.append(analysis.layout.diag)
        for part in (analysis.layout.parts + analysis.batches
                     + analysis.csr_index):
            arrays += part
        arrays = [a for a in arrays if isinstance(a, np.ndarray)]
        assert len(arrays) > 5 * len(analysis.batches)
        assert not any(a.flags.writeable for a in arrays)

    @pytest.mark.parametrize("level", [0, 1])
    def test_factors_share_their_csr_index_arrays(self, level):
        # scipy keeps its CSR views' indices in int32; every factor on one
        # pattern views the analysis's one int32 copy.
        A = gen_convection_diffusion((40, 40), 30.0)
        B = gen_convection_diffusion((40, 40), 31.5)
        fa, fb = ilu_factor(A, level), ilu_factor(B, level)
        for M in ("L", "U"):
            ca, cb = getattr(fa, M).to_scipy(), getattr(fb, M).to_scipy()
            for name in ("indices", "indptr"):
                a, b = getattr(ca, name), getattr(cb, name)
                assert a.dtype == np.int32 and not a.flags.writeable
                assert np.shares_memory(a, b)
        _assert_sweep_matches_reference(A, level)
        _assert_sweep_matches_reference(B, level)
        v = np.random.default_rng(3).standard_normal(A.n)
        for fact in (fa, fb):
            # A factor built from copies of L and U, whose CSR views hold
            # their own index arrays.
            own = IluFactorization(level, *(
                SparseMatrix(M.n, M.row_ptr, M.col_idx, M.values)
                for M in (fact.L, fact.U)), fact.pattern_nnz)
            assert not np.shares_memory(own.L.to_scipy().indices,
                                        fact.L.to_scipy().indices)
            for x in (v, -2.5 * v):
                assert fact.solve(x).tobytes() == own.solve(x).tobytes()
            assert (fact.L.to_scipy() @ v).tobytes() == (
                own.L.to_scipy() @ v).tobytes()

    def test_zero_pivot_on_a_known_pattern(self, monkeypatch):
        # u_22 = 2 - (3 / 1.5) * 1 = 0 exactly; with 5 in its place the
        # same pattern factors.
        dense = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 3.0, 5.0]])
        kept = ilu_factor(SparseMatrix.from_dense(dense), 0)
        dense[2, 2] = 2.0
        Z = SparseMatrix.from_dense(dense)
        built = _count_analyses(monkeypatch)
        with pytest.raises(ZeroPivot) as ref:
            _reference_ilu_numeric(Z, 0)
        assert ref.value.row == 2
        for _ in range(2):
            with pytest.raises(ZeroPivot) as err:
                ilu_factor(Z, 0, shift_retry=False)
            assert err.value.row == 2
            assert Z._ilu == {}
        shifted = []
        for _ in range(2):
            with pytest.warns(RuntimeWarning, match="zero pivot"):
                shifted.append(ilu_factor(Z, 0))
            assert Z._ilu == {}
            assert shifted[-1]._analysis is kept._analysis
        assert shifted[0] is not shifted[1]
        assert np.all(np.isfinite(shifted[0].U.values))
        assert built == []

    @pytest.mark.parametrize("level", [0, 1])
    def test_racing_threads_give_byte_equal_factors(self, level):
        # Four threads factor four fresh equal matrices of one new pattern
        # at once (n = 1296 applies through gstrs).
        matrices = [gen_convection_diffusion((36, 36), 30.0) for _ in range(4)]
        start = threading.Barrier(4, timeout=30)
        got = [None] * 4

        def worker(i):
            start.wait()
            got[i] = ilu_factor(matrices[i], level)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        L, U, _ = _reference_ilu_numeric(matrices[0], level)
        v = np.random.default_rng(10).standard_normal(L.n)
        x = got[0].solve(v)
        for fact in got:
            assert _same_bytes(fact.L, L)
            assert _same_bytes(fact.U, U)
            assert fact.solve(v).tobytes() == x.tobytes()


def _dependent_row():
    dense = 2.5 * np.eye(4) - np.eye(4, k=1) - np.eye(4, k=-1)
    dense[3] = 0.1 * dense[0] + 0.7 * dense[2]
    return dense


# Singular matrices and the rule that catches each: SuperLU stops at an
# exactly zero pivot; a row that combines two others leaves a last pivot
# at rounding level instead.
SINGULAR = {
    "zero_pivot": (np.diag([2.0, 2.0, 0.0, 2.0]), "exactly singular"),
    "dependent_row": (_dependent_row(), "rounding level"),
}


class TestSparseLu:
    """A matrix keeps its exact sparse LU: factored once, never singular."""

    def test_one_lu_per_matrix(self, monkeypatch):
        factored = count_splu(monkeypatch)
        A = gen_convection_diffusion((8, 8), 25.0)
        assert A._lu is None
        lu = sparse_lu(A)
        assert sparse_lu(A) is lu and A._lu is lu
        assert len(factored) == 1

    def test_solves_as_a_fresh_splu(self):
        A = gen_convection_diffusion((24, 24), 30.0)
        B = np.random.default_rng(4).standard_normal((A.n, 3))
        fresh = splu(A.to_scipy().tocsc())
        for _ in range(2):
            lu = sparse_lu(A)
            assert lu.solve(B).tobytes() == fresh.solve(B).tobytes()
            assert lu.solve(B[:, 0]).tobytes() == fresh.solve(
                B[:, 0]).tobytes()

    @pytest.mark.parametrize("kind", sorted(SINGULAR))
    def test_singular_matrix_is_never_kept(self, monkeypatch, kind):
        factored = count_splu(monkeypatch)
        dense, rule = SINGULAR[kind]
        A = SparseMatrix.from_dense(dense)
        assert np.linalg.matrix_rank(dense) == A.n - 1
        for calls in (1, 2):
            with pytest.raises(np.linalg.LinAlgError, match=rule):
                sparse_lu(A)
            assert A._lu is None
            assert len(factored) == calls

    def test_copies_factor_afresh(self, monkeypatch):
        factored = count_splu(monkeypatch)
        A = gen_convection_diffusion((6, 6), 5.0)
        lu = sparse_lu(A)
        for B in (copy.copy(A), copy.deepcopy(A),
                  pickle.loads(pickle.dumps(A))):
            assert B._lu is None
            assert sparse_lu(B) is not lu
            assert sparse_lu(B) is B._lu
        assert len(factored) == 4
        assert sparse_lu(A) is lu

    def test_racing_threads_share_one_lu(self, monkeypatch):
        # Four threads ask for one fresh matrix's LU at once: the matrix
        # is factored once and every thread gets that LU.
        factored = count_splu(monkeypatch)
        A = gen_convection_diffusion((36, 36), 30.0)
        start = threading.Barrier(4, timeout=30)
        got = []

        def worker():
            start.wait()
            got.append(sparse_lu(A))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 4
        assert all(lu is sparse_lu(A) for lu in got)
        assert len(factored) == 1


class TestPreconditioners:
    def test_identity(self):
        v = np.array([1.0, 2.0])
        out = IdentityPreconditioner().apply(v)
        assert np.array_equal(out, v)

    def test_ilu_on_diagonal(self):
        A = SparseMatrix.from_dense(np.diag([2.0, 4.0]))
        P = IluPreconditioner(ilu_factor(A, 0))
        assert np.allclose(P.apply(np.array([2.0, 4.0])), [1.0, 1.0])

    def test_jacobi(self):
        A = SparseMatrix.from_dense(np.diag([2.0, 4.0]))
        P = JacobiPreconditioner(A)
        assert np.allclose(P.apply(np.array([2.0, 4.0])), [1.0, 1.0])

    def test_inner_gmres_full_space_is_direct_solve(self):
        rng = np.random.default_rng(17)
        n = 12
        A = random_sparse(rng, n, density=0.4)
        op = as_operator(A)
        P = InnerGmresPreconditioner(op, m_i=n)
        v = rng.standard_normal(n)
        z = P.apply(v)
        xref = np.linalg.solve(A.to_dense(), v)
        assert np.linalg.norm(z - xref) < 1e-10 * np.linalg.norm(xref)
        assert P.is_variable

    @pytest.mark.parametrize("m_i", [5, 10])
    def test_inner_gmres_partial_matches_dense_minimal_residual(self, m_i):
        # Reference: the minimal-residual solution over an explicitly built
        # Krylov basis of A M^{-1}, re-orthonormalized by QR at every step.
        rng = np.random.default_rng(19)
        A = gen_convection_diffusion((16, 16), 50.0)
        M = IluPreconditioner(ilu_factor(A, 0))
        v = rng.standard_normal(A.n)
        Q = (v / np.linalg.norm(v))[:, None]
        for _ in range(m_i - 1):
            Q, _ = np.linalg.qr(np.column_stack(
                [Q, A.matvec(M.apply(Q[:, -1]))]))
        MQ = np.column_stack([M.apply(q) for q in Q.T])
        AMQ = A.to_dense() @ MQ
        y = np.linalg.lstsq(AMQ, v, rcond=None)[0]
        zref = MQ @ y
        z = InnerGmresPreconditioner(as_operator(A), m_i, inner=M).apply(v)
        assert np.linalg.norm(z - zref) <= 1e-10 * np.linalg.norm(zref)

    def test_inner_gmres_counts_inner_applications(self):
        rng = np.random.default_rng(18)
        n = 20
        A = random_sparse(rng, n)
        counter = MatvecCounter()
        op = as_operator(A, counter)
        P = InnerGmresPreconditioner(op, m_i=5)
        P.apply(rng.standard_normal(n))
        assert counter.count == 5

    def test_ilu_apply_not_counted(self):
        A = gen_convection_diffusion((4, 4), 1.0)
        counter = MatvecCounter()
        as_operator(A, counter)
        P = IluPreconditioner(ilu_factor(A, 0))
        P.apply(np.ones(A.n))
        assert counter.count == 0

    def test_inner_gmres_happy_breakdown_is_early_success(self):
        # On the identity the inner solve terminates after one step and
        # still returns the exact solution.
        A = SparseMatrix.identity(10)
        counter = MatvecCounter()
        op = as_operator(A, counter)
        P = InnerGmresPreconditioner(op, m_i=6)
        v = np.arange(1.0, 11.0)
        z = P.apply(v)
        assert np.allclose(z, v, atol=1e-13)
        assert counter.count == 1


def _first_bad_row_by_loop(n, row_ptr, col_idx):
    """The per-row check SparseMatrix ran before it was vectorized."""
    for i in range(n):
        cols = col_idx[row_ptr[i]:row_ptr[i + 1]]
        if len(cols) > 1 and np.any(np.diff(cols) <= 0):
            return i
    return None


@st.composite
def _csr_rows(draw):
    n = draw(st.integers(1, 6))
    # short rows over a small column range give empty rows, duplicates and
    # unsorted rows often enough
    rows = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=4),
                         min_size=n, max_size=n))
    if draw(st.booleans()):
        rows = [sorted(set(r)) for r in rows]
    return n, rows


class TestRowCheckProperty:
    @given(_csr_rows())
    @settings(max_examples=200, deadline=None)
    def test_vectorized_check_agrees_with_row_loop(self, case):
        n, rows = case
        row_ptr = np.cumsum([0] + [len(r) for r in rows])
        col_idx = np.array([j for r in rows for j in r], dtype=np.int64)
        expected = _first_bad_row_by_loop(n, row_ptr, col_idx)
        if expected is None:
            A = SparseMatrix(n, row_ptr, col_idx, np.ones(len(col_idx)))
            assert A.nnz == len(col_idx)
        else:
            with pytest.raises(DimensionMismatch,
                               match=f"^row {expected} has unsorted"):
                SparseMatrix(n, row_ptr, col_idx, np.ones(len(col_idx)))


def _convection_diffusion_by_loop(nx, ny, peclet):
    """The generator's triplets pushed one stencil entry at a time."""
    hx = 1.0 / (nx + 1)
    hy = 1.0 / (ny + 1)
    pe = float(peclet)
    a_w = -1.0 / hx**2 - max(pe, 0.0) / hx
    a_e = -1.0 / hx**2 + min(pe, 0.0) / hx
    a_s = -1.0 / hy**2 - max(pe, 0.0) / hy
    a_n = -1.0 / hy**2 + min(pe, 0.0) / hy
    a_c = 2.0 / hx**2 + 2.0 / hy**2 + abs(pe) / hx + abs(pe) / hy
    rows, cols, vals = [], [], []

    def push(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    for iy in range(ny):
        for ix in range(nx):
            r = iy * nx + ix
            push(r, r, a_c)
            if ix > 0:
                push(r, r - 1, a_w)
            if ix < nx - 1:
                push(r, r + 1, a_e)
            if iy > 0:
                push(r, r - nx, a_s)
            if iy < ny - 1:
                push(r, r + nx, a_n)
    return SparseMatrix.from_coo(nx * ny, rows, cols, vals)


class TestConvectionDiffusion:
    @pytest.mark.parametrize("grid", [(3, 3), (5, 3), (3, 8), (9, 4)])
    @pytest.mark.parametrize("peclet", [-12.5, 0.0, 30.0])
    def test_matches_triplet_loop(self, grid, peclet):
        A = gen_convection_diffusion(grid, peclet)
        assert _same_bytes(A, _convection_diffusion_by_loop(*grid, peclet))

    @pytest.mark.parametrize("grid,peclet", [
        ((24, 24), 30.0), ((64, 64), 0.0), ((128, 128), 0.0), ((5, 7), -3.0),
        ((7, 5), 8.0), ((16, 4), -0.5)])
    def test_csr_assembly_matches_triplets(self, grid, peclet):
        # The generator assembles CSR directly; its arrays are byte-equal to
        # the summed, sorted triplets, and the public constructor, which
        # checks every invariant, accepts them.
        A = gen_convection_diffusion(grid, peclet)
        assert _same_bytes(A, _convection_diffusion_by_loop(*grid, peclet))
        assert (A.row_ptr.dtype, A.col_idx.dtype) == (np.int64, np.int64)
        assert not A.values.flags.writeable
        assert _same_bytes(A, SparseMatrix(A.n, A.row_ptr, A.col_idx,
                                           A.values))

    def test_pure_diffusion_symmetric(self):
        A = gen_convection_diffusion((6, 7), 0.0)
        dense = A.to_dense()
        assert np.max(np.abs(dense - dense.T)) < 1e-13 * np.max(np.abs(dense))

    def test_grid_and_stencil(self):
        A = gen_convection_diffusion((4, 4), 3.0)
        assert A.n == 16
        row_counts = np.diff(A.row_ptr)
        assert row_counts.max() <= 5

    def test_nonsymmetric_for_positive_peclet(self):
        A = gen_convection_diffusion((5, 5), 10.0)
        dense = A.to_dense()
        assert np.max(np.abs(dense - dense.T)) > 1.0

    def test_determinism(self):
        A1 = gen_convection_diffusion((8, 8), 12.5)
        A2 = gen_convection_diffusion((8, 8), 12.5)
        assert np.array_equal(A1.values, A2.values)

    def test_ilu_beats_unpreconditioned(self):
        rng = np.random.default_rng(9)
        A = gen_convection_diffusion((32, 32), 50.0)
        b = rng.standard_normal(A.n)
        x_raw, rep_raw = gmres_solve(A, None, b, m=30, tol=1e-8,
                                     max_matvecs=50_000)
        x_ilu, rep_ilu = gmres_solve(A, IluPreconditioner(ilu_factor(A, 0)),
                                     b, m=30, tol=1e-8, max_matvecs=50_000)
        assert rep_ilu.converged
        assert rep_ilu.matvecs < rep_raw.matvecs
        # direct-solve correctness anchor for the returned solution
        res = np.linalg.norm(b - A.matvec(x_ilu)) / np.linalg.norm(b)
        assert res <= 1.05e-8


class TestMatrixMarket:
    def test_identity_roundtrip(self, tmp_path):
        path = tmp_path / "eye.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 2\n1 1 1.0\n2 2 1.0\n")
        A = read_matrix_market(path)
        assert np.allclose(A.to_dense(), np.eye(2))

    def test_symmetric_expansion(self, tmp_path):
        path = tmp_path / "sym.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        "3 3 2\n1 1 2.0\n3 1 -1.5\n")
        A = read_matrix_market(path)
        dense = A.to_dense()
        assert dense[2, 0] == -1.5
        assert dense[0, 2] == -1.5
        assert A.nnz == 3

    def test_write_read_bit_identical(self, tmp_path):
        rng = np.random.default_rng(60)
        A = random_sparse(rng, 25, density=0.2)
        path = tmp_path / "rt.mtx"
        write_matrix_market(path, A)
        B = read_matrix_market(path)
        assert np.array_equal(A.values, B.values)
        assert np.array_equal(A.col_idx, B.col_idx)
        assert np.array_equal(A.row_ptr, B.row_ptr)

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 1\n1 oops 3.0\n")
        with pytest.raises(ParseError) as err:
            read_matrix_market(path)
        assert err.value.line == 3

    def test_nonsquare(self, tmp_path):
        path = tmp_path / "rect.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 3 1\n1 1 1.0\n")
        with pytest.raises(NonSquare):
            read_matrix_market(path)

    def test_unsupported_field(self, tmp_path):
        path = tmp_path / "cplx.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex general\n"
                        "1 1 1\n1 1 1.0 0.0\n")
        with pytest.raises(UnsupportedField):
            read_matrix_market(path)
        path.write_text("%%MatrixMarket matrix coordinate pattern general\n"
                        "1 1 1\n1 1\n")
        with pytest.raises(UnsupportedField):
            read_matrix_market(path)

    def test_rhs_array_format(self, tmp_path):
        path = tmp_path / "b.mtx"
        write_rhs(path, np.array([1.5, -2.25, 3.0]))
        b = read_rhs(path)
        assert np.array_equal(b, [1.5, -2.25, 3.0])

    def test_rhs_plain_lines(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("1.0\n2.5\n-3.5\n")
        assert np.array_equal(read_rhs(path), [1.0, 2.5, -3.5])
