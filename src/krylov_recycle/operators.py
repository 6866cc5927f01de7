"""Sparse operators, preconditioners, the Arnoldi process and problem generation.

Holds the CSR system matrix and its kept exact sparse LU, scalar ILU(k)
on the level-of-fill pattern (built by sparse products of the lower
levels' patterns, one path for every k, and analyzed once per pattern
while a factor built on it lives), the stationary and inner-GMRES
preconditioner handles, the one Arnoldi process (``_extend_arnoldi``)
that every solver cycle and the inner-GMRES preconditioner grow their
bases with, a convection-diffusion test-matrix generator and Matrix
Market ingestion.  The Arnoldi process orthogonalizes by block classical
Gram-Schmidt run twice (CGS2) over column-major bases.
"""

import operator
import threading
import warnings
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# spsolve_triangular ends in this SuperLU sweep, but first copies, rescales
# and re-indexes its factor on every call.  The ILU factors never change, so
# IluFactorization prepares them once and calls the sweep itself.
from scipy.sparse.linalg._dsolve import _superlu

from .errors import (
    DimensionMismatch,
    NonSquare,
    ParameterError,
    ParseError,
    UnsupportedField,
    ZeroPivot,
)
from .smallalg import hessenberg_lsq

BREAKDOWN_TOL = 1e-14
ILU_PIVOT_TOL = 1e-14
# Largest n whose ILU apply runs through a SuperLU object instead of the
# leaking gstrs sweep (32 x 32 grids); see IluFactorization.
ILU_OBJECT_MAX_N = 1024


class MatvecCounter:
    """Thread-safe monotone counter of system-operator applications."""

    __slots__ = ("_count", "_lock")

    def __init__(self):
        self._count = 0
        self._lock = threading.Lock()

    @property
    def count(self):
        return self._count

    def add(self, n=1):
        with self._lock:
            self._count += n


class SparseMatrix:
    """Square real matrix in compressed sparse row storage.

    Column indices are strictly increasing within each row (hence no
    duplicates) and all values are finite.  Instances are immutable after
    construction and safe to share across workers: the constructor copies
    its inputs, and every array it keeps, the scipy CSR view's included, is
    read-only.  A matrix holds its own ILU factors, one per level, built by
    the first :func:`ilu_factor` call and shared by every later one, and
    its exact LU, built by the first :func:`sparse_lu` call; a copy or a
    pickle is a fresh matrix without them.
    """

    def __init__(self, n, row_ptr, col_idx, values):
        row_ptr = np.array(row_ptr, dtype=np.int64)
        col_idx = np.array(col_idx, dtype=np.int64)
        values = np.array(values, dtype=float)
        if row_ptr.shape != (n + 1,) or row_ptr[0] != 0 or row_ptr[-1] != len(values):
            raise DimensionMismatch("row_ptr must have length n+1 spanning the values")
        if np.any(np.diff(row_ptr) < 0):
            raise DimensionMismatch("row_ptr must be nondecreasing")
        if len(col_idx) != len(values):
            raise DimensionMismatch("col_idx and values must have equal length")
        if len(col_idx) and (col_idx.min() < 0 or col_idx.max() >= n):
            raise DimensionMismatch("column index out of range")
        bad = np.diff(col_idx) <= 0
        starts = row_ptr[1:-1]
        # a column drop from one row to the next is legal
        bad[starts[(starts > 0) & (starts < len(col_idx))] - 1] = False
        if bad.any():
            i = np.searchsorted(row_ptr, np.argmax(bad), side="right") - 1
            raise DimensionMismatch(f"row {i} has unsorted or duplicate columns")
        if not np.all(np.isfinite(values)):
            raise DimensionMismatch("matrix values must be finite")
        self._adopt(n, row_ptr, col_idx, values)

    @classmethod
    def _on_pattern(cls, n, row_ptr, col_idx, values, csr_index=None):
        """A matrix on arrays that already hold its invariants (int64
        ``row_ptr`` and ``col_idx``, float ``values``), not copied.

        The generator assembles its matrices this way, and the ILU factors
        of one pattern share their analysis's read-only index arrays, each
        with its own values.  ``csr_index`` is the (indptr, indices) of the
        scipy CSR view in the int32 that scipy keeps, which it then takes
        without a copy; by default scipy makes its own.
        """
        A = cls.__new__(cls)
        A._adopt(n, row_ptr, col_idx, values, csr_index)
        return A

    def _adopt(self, n, row_ptr, col_idx, values, csr_index=None):
        self.n = n
        self.row_ptr = row_ptr
        self.col_idx = col_idx
        self.values = values
        indptr, indices = csr_index or (row_ptr, col_idx)
        self._csr = sp.csr_matrix((values, indices, indptr), shape=(n, n))
        for a in (row_ptr, col_idx, values, self._csr.indptr,
                  self._csr.indices, self._csr.data):
            a.setflags(write=False)
        self._ilu = {}  # level -> IluFactorization, filled by ilu_factor
        self._lu = None  # SuperLU object, set by sparse_lu
        self._lu_lock = threading.Lock()

    def __reduce__(self):
        # Copies and pickles rebuild from the arrays alone: a kept factor's
        # SuperLU object and the lock cannot be pickled.
        return type(self), (self.n, self.row_ptr, self.col_idx, self.values)

    @classmethod
    def from_coo(cls, n, rows, cols, vals):
        """Build from triplets; duplicate entries are summed."""
        m = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        m.sum_duplicates()
        m.sort_indices()
        return cls(n, m.indptr, m.indices, m.data)

    @classmethod
    def from_dense(cls, D, drop_tol=0.0):
        D = np.asarray(D, dtype=float)
        if D.ndim != 2 or D.shape[0] != D.shape[1]:
            raise NonSquare(f"expected square matrix, got {D.shape}")
        rows, cols = np.nonzero(np.abs(D) > drop_tol)
        return cls.from_coo(D.shape[0], rows, cols, D[rows, cols])

    @classmethod
    def identity(cls, n):
        idx = np.arange(n)
        return cls(n, np.arange(n + 1), idx, np.ones(n))

    @property
    def nnz(self):
        return len(self.values)

    def matvec(self, x):
        """Exact CSR product A x; no counting (see LinearOperator)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DimensionMismatch(f"vector length {x.shape} != {self.n}")
        return self._csr @ x

    def to_dense(self):
        return self._csr.toarray()

    def to_scipy(self):
        return self._csr

    def diagonal(self):
        return self._csr.diagonal()

    def row(self, i):
        sl = slice(self.row_ptr[i], self.row_ptr[i + 1])
        return self.col_idx[sl], self.values[sl]


class LinearOperator:
    """Counted apply-only linear operator of fixed dimension.

    Every call adds one to the shared matvec counter; a projected operator
    also counts one, since the projection applies no system matrix.
    """

    def __init__(self, apply_fn, dim, counter):
        self._apply = apply_fn
        self.dim = dim
        self.counter = counter

    def __call__(self, v):
        self.counter.add()
        return self._apply(v)

    def apply_plain(self, v):
        """Apply without counting; for diagnostics and invariant checks."""
        return self._apply(v)


def as_operator(A, counter=None):
    """Wrap a SparseMatrix (or pass through a LinearOperator) with a counter.

    A LinearOperator keeps its own counter, so asking it to count on a
    different one raises ValueError.
    """
    if isinstance(A, LinearOperator):
        if counter is not None and counter is not A.counter:
            raise ValueError("the operator already counts on another counter")
        return A
    counter = counter or MatvecCounter()
    return LinearOperator(A.matvec, A.n, counter)


def sparse_lu(A):
    """Exact sparse LU of A: scipy's ``splu`` of A in CSC, a SuperLU object.

    The LU depends only on the immutable A, so A keeps the first one and
    every later call, from any thread, returns that same object; A is
    factored once.  Raises np.linalg.LinAlgError when A is singular:
    SuperLU meets an exactly zero pivot, or a pivot is at rounding level,
    at most n eps times the largest one.  A singular matrix keeps nothing,
    so each call factors again and raises again.

    The LU lives as long as A; copies and pickles rebuild without it.  Its
    resident size and factor time on convection-diffusion grids (Pe 30,
    VmRSS delta of one call, one BLAS thread on a 2-vCPU guest): 0.17 MB
    and 1.5-2.0 ms at 24 x 24, 1.3-1.5 MB and 5-8 ms at 48 x 48, 2.6 MB
    and 10-14 ms at 64 x 64, 14.6 MB and 70-81 ms at 128 x 128.
    """
    with A._lu_lock:
        if A._lu is None:
            try:
                lu = splu(A.to_scipy().tocsc())
            except RuntimeError as exc:
                raise np.linalg.LinAlgError(str(exc)) from exc
            pivots = np.abs(lu.U.diagonal())
            if pivots.min() <= pivots.max() * A.n * np.finfo(float).eps:
                raise np.linalg.LinAlgError(
                    f"pivot {pivots.min():.3e} at rounding level of the "
                    f"largest, {pivots.max():.3e}")
            A._lu = lu
        return A._lu


# ---------------------------------------------------------------------------
# Incomplete LU with level-of-fill
# ---------------------------------------------------------------------------


# The analysis of each ILU(k) pattern in use, keyed by (n, nnz, level).  An
# entry lives as long as some factor built on it, since every factor that
# ilu_factor returns holds its analysis, and a hit is used only once it
# matches the matrix's own row_ptr and col_idx.
_ILU_ANALYSES = weakref.WeakValueDictionary()

# The tail of the vector an ILU apply's operands are gathered from,
# [L.values, U.values, 1, -1, 0]: the entries of the block matrix's
# identity blocks, and the zero that stands for a diagonal U does not store.
_SENTINELS = np.array([1.0, -1.0, 0.0])


class IluFactorization:
    """Scalar ILU(k): unit-diagonal L and nonsingular U on the level-k pattern.

    The apply U^{-1} L^{-1} v runs through SuperLU in one of two forms, with
    the same result to the last bit.  Up to n = ILU_OBJECT_MAX_N it is one
    scipy ``SuperLU`` object of the 2n x 2n block matrix [[L, 0], [-I, U]],
    factored in its natural order without pivoting: that LU has no fill
    (its factors are [[L, 0], [-I, I]] and [[I, 0], [0, U]]), and solving
    with [v; 0] leaves U^{-1} L^{-1} v in the lower half.  Above it, the
    factors are stored once more in the form SuperLU's triangular sweep
    ``gstrs`` takes: the strictly lower part of L plus the diagonal of U,
    and the strictly upper part of U, each in CSC with sorted ``intc``
    indices.  ``gstrs`` leaks one allocated block per call, which a fast
    small-n apply turns into steady RSS growth; ``SuperLU.solve`` leaks
    nothing.  The object path costs more per apply at every size: 1.2-1.4x
    a ``gstrs`` apply at n = 576 (30 against 21 us under ILU(0)) and
    1.3-1.9x from n = 1024 up to 16384, plus 1-2 ms to build at n = 576
    (ILU(0) and ILU(1) on convection-diffusion grids, one BLAS thread on a
    2-vCPU guest).  So only the small factors, whose fast applies grow the
    leak fastest, take it.  The object allocates SuperLU's working
    storage, sized from a fill estimate, about 2.7 MB of address space at
    n = 576, but only the pages SuperLU touches are resident: ten objects
    at n = 576 under ILU(0) raise VmRSS by 0.6 MB, about 60 kB each, the
    size of L and U (VmSize grows by 27 MB).  ``solve`` writes nothing
    shared, so one factor serves concurrent applies.

    Either form's operands are gathered from L's and U's values through an
    :class:`_ApplyLayout`, which depends only on their patterns.  A factor
    that :func:`ilu_factor` builds takes it from its pattern's analysis,
    shares that analysis's index arrays in L, U and the ``gstrs``
    operands, and holds the analysis, which therefore lives exactly as
    long as the last factor built on it.  A factor built directly from L
    and U works out its own layout.  See :func:`ilu_factor` for the
    analysis's size and resident cost.
    """

    def __init__(self, level, L, U, pattern_nnz, analysis=None):
        if L.n != U.n:
            raise DimensionMismatch(f"L is {L.n}x{L.n} but U is {U.n}x{U.n}")
        self.level = level
        self.L = L
        self.U = U
        self.pattern_nnz = pattern_nnz
        self._analysis = analysis
        layout = (analysis.layout if analysis is not None else _apply_layout(
            U.n, L.row_ptr, L.col_idx, U.row_ptr, U.col_idx))
        self._lu, self._sweep = layout.operands(
            np.concatenate([L.values, U.values, _SENTINELS]))

    def solve(self, v):
        """Apply U^{-1} L^{-1} v with one SuperLU triangular solve."""
        n = self.U.n
        if np.shape(v) != (n,):
            raise DimensionMismatch(f"vector length {np.shape(v)} != {n}")
        if self._lu is not None:
            rhs = np.zeros(2 * n)
            rhs[:n] = v
            return self._lu.solve(rhs)[n:]
        x, info = _superlu.gstrs("N", *self._sweep, np.array(v, dtype=float))
        if info:
            raise np.linalg.LinAlgError(f"SuperLU triangular sweep failed, info {info}")
        return x


@dataclass(frozen=True, eq=False)
class _ApplyLayout:
    """Where an ILU apply's operands sit in w = [L.values, U.values, 1, -1, 0].

    ``diag`` holds the slot of each diagonal entry of U, or of the 0 where
    U stores none.  ``parts`` holds one (take, indices, indptr) per CSC
    matrix handed to SuperLU, with ``intc`` indices sorted within each
    column and ``take`` the slot of each entry: up to n = ILU_OBJECT_MAX_N
    the block matrix [[L, 0], [-I, U]], and above it the strictly lower
    part of L plus U's diagonal, then the strictly upper part of U.  L's
    diagonal is the unit one, whatever L stores there.
    """

    diag: np.ndarray
    parts: tuple

    def operands(self, w):
        """(SuperLU object, None), or (None, ``gstrs`` operands), on values w.

        Raises ZeroPivot at the first zero on U's diagonal.
        """
        zero = np.flatnonzero(w[self.diag] == 0.0)
        if len(zero):
            raise ZeroPivot(int(zero[0]))
        n = len(self.diag)
        if n <= ILU_OBJECT_MAX_N:
            (take, indices, indptr), = self.parts
            return _block_lu(sp.csc_array((w[take], indices, indptr),
                                          shape=(2 * n, 2 * n))), None
        operands = ()
        for take, indices, indptr in self.parts:
            operands += (n, len(take), w[take], indices, indptr)
        return None, operands


def _apply_layout(n, l_ptr, l_cols, u_ptr, u_cols):
    """The :class:`_ApplyLayout` of factors with these CSR patterns.

    Each matrix is assembled row by row, with slots as its entries, and
    turned into CSC by scipy's conversion, which keeps the row indices of
    each column sorted.
    """
    n_l, n_u = len(l_cols), len(u_cols)
    one, zero = n_l + n_u, n_l + n_u + 2  # the slots of the 1 and the 0
    if n_l + n_u + 2 * n + 3 > np.iinfo(np.intc).max:
        raise DimensionMismatch("factor too large for SuperLU's intc indices")
    idx = np.arange(n, dtype=np.intc)
    l_rows = np.repeat(idx, np.diff(l_ptr))
    u_rows = np.repeat(idx, np.diff(u_ptr))
    lower = np.flatnonzero(l_cols < l_rows).astype(np.intc)
    upper = np.flatnonzero(u_cols > u_rows).astype(np.intc)
    on_diag = np.flatnonzero(u_cols == u_rows).astype(np.intc)
    diag = np.full(n, zero, dtype=np.intc)
    diag[u_rows[on_diag]] = n_l + on_diag
    # Row ends of the strictly lower part, row starts of the strictly upper.
    l_counts = np.bincount(l_rows[lower], minlength=n)
    u_counts = np.bincount(u_rows[upper], minlength=n)
    l_ends = np.cumsum(l_counts)
    u_starts = np.cumsum(u_counts) - u_counts
    if n <= ILU_OBJECT_MAX_N:
        # [[L, 0], [-I, U]]: row i is L's lower entries, then the 1 at
        # (i, i); row n + i is the -1 at (n + i, i), then U's row.
        twice = np.repeat(u_starts, 2)
        data = np.concatenate([
            np.insert(lower, l_ends, one),
            np.insert(n_l + upper, twice,
                      np.column_stack([np.full(n, one + 1), diag]).ravel())])
        cols = np.concatenate([
            np.insert(l_cols[lower], l_ends, idx),
            np.insert(n + u_cols[upper], twice,
                      np.column_stack([idx, n + idx]).ravel())])
        counts = np.concatenate([l_counts + 1, u_counts + 2])
        mats = [(data, cols, counts)]
    else:
        # The strictly lower part of L plus U's diagonal, then the strictly
        # upper part of U.
        mats = [(np.insert(lower, l_ends, diag),
                 np.insert(l_cols[lower], l_ends, idx),
                 l_counts + 1),
                (n_l + upper, u_cols[upper], u_counts)]
    parts = []
    for data, cols, counts in mats:
        size = len(counts)
        ptr = np.concatenate([[0], np.cumsum(counts)])
        csc = sp.csr_array((data, cols, ptr), shape=(size, size)).tocsc()
        parts.append(_frozen(csc.data.astype(np.intc),
                             csc.indices.astype(np.intc),
                             csc.indptr.astype(np.intc)))
    return _ApplyLayout(*_frozen(diag), tuple(parts))


def _block_lu(block):
    """SuperLU object of the block matrix [[L, 0], [-I, U]], unpivoted.

    Both permutations are checked to be the identity, since the apply
    reads the solution's place from the block layout.
    """
    lu = splu(block, permc_spec="NATURAL", diag_pivot_thresh=0.0, relax=1,
              panel_size=1, options={"Equil": False})
    order = np.arange(block.shape[0])
    if not (np.array_equal(lu.perm_r, order)
            and np.array_equal(lu.perm_c, order)):
        raise np.linalg.LinAlgError("SuperLU reordered the ILU block matrix")
    return lu


def _frozen(*arrays):
    """The arrays, each made read-only."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _level_pattern(A, level):
    """(indptr, indices, at): A's level-``level`` ILU pattern in row-major
    CSR, and the position of each of A's entries in it.

    Level 0 is A's pattern plus the diagonal, which is always carried for
    the pivot.  By the fill-path theorem (Hysom & Pothen, SISC 2001; Saad,
    *Iterative Methods for Sparse Linear Systems*, 2nd ed., Sec. 10.3), an
    entry (i, j) has level at most l when some k < min(i, j) joins an
    entry (i, k) of level at most a to an entry (k, j) of level at most
    l - 1 - a.  So the level-l pattern is the level-(l - 1) one plus the
    products of the strictly lower and strictly upper parts of the lower
    levels' patterns.
    """
    n = A.n
    a_pattern = sp.csr_array((np.ones(A.nnz), A.col_idx, A.row_ptr),
                             shape=(n, n))
    P = a_pattern + sp.eye_array(n, format="csr")
    lower, upper = [], []
    for ell in range(level):
        lower.append(sp.tril(P, -1, format="csr"))
        upper.append(sp.triu(P, 1, format="csr"))
        P = sum((lower[a] @ upper[ell - a] for a in range(ell + 1)), P)
    P.sort_indices()
    # With ones on P's pattern, the sum holds 2 exactly on A's entries.
    P.data[:] = 1.0
    at = np.flatnonzero((P + a_pattern).data == 2.0)
    return P.indptr.astype(np.int64), P.indices.astype(np.int64), at


def ilu_factor(A, level=0, shift_retry=True):
    """Incomplete LU factorization of A on its level-``level`` pattern.

    When the exact LU of A has no fill outside the pattern, L U reproduces A
    exactly.  A zero pivot triggers one retry with a diagonal shift of
    1e-8 * ||A||_inf (with a warning); a second failure raises ZeroPivot.

    The factor depends only on the immutable A and the level, so A keeps
    the first unshifted factor of each level and every later call returns
    that same object, whatever ``shift_retry`` says.  A zero pivot is never
    kept: each call factors again, and raises or warns again.  ``level``
    is an integer (numpy's included); a negative one raises ParameterError.

    The work that depends only on A's pattern and the level, the pattern's
    analysis (the level-k pattern, the wavefront schedule and batch order,
    where A's values go, and the index arrays of L, U and the apply), is
    done once per pattern: while any factor built on it is alive, a fresh
    matrix on the same pattern, such as the next design step's Jacobian,
    runs only the value sweep.  The analysis lives exactly as long as the
    last factor built on it.  On convection-diffusion grids (Pe 0, one BLAS
    thread, 2-vCPU guest; medians of interleaved runs against the one-pass
    factorization this replaced) a factor on a known pattern takes 1.1 ms
    at 24 x 24 (was 5.5), 1.7 ms at 64 x 64 (11.5), and 3.6, 6.3 and
    10.9 ms at 128 x 128 under ILU(0), (1) and (2) (25.7, 48.6 and 67.9).
    A first-seen pattern runs the analysis and then the sweep, which
    costs 0-24% less than before: 4.2, 10.1, 24.1, 46.9 and 61.3 ms on
    the same cases.  The analysis holds 0.20, 1.1 and 4.2 MB of arrays at
    24 x 24, 64 x 64 and 128 x 128 under ILU(0), and 10.5 MB at 128 x 128
    under ILU(2), against 0.06, 0.43 and 1.74 MB in L and U.  Holding the
    first 128 x 128 ILU(0) factor keeps 1.5 MB more resident than the
    one-pass factorization did (VmRSS delta, 13.6 against 12.1 MB); each
    further factor on the pattern shares the analysis's index arrays, the
    int32 ones of its scipy CSR views included, and holds 1.4 MB of arrays
    of its own, against 3.3 MB before the split.
    """
    level = operator.index(level)
    if level < 0:
        raise ParameterError("level", f"ILU needs a level >= 0, got {level}")
    fact = A._ilu.get(level)
    if fact is not None:
        return fact
    try:
        # setdefault keeps the first factor when two threads race.
        return A._ilu.setdefault(level, _ilu_numeric(A, level))
    except ZeroPivot:
        if not shift_retry:
            raise
    shift = 1e-8 * np.abs(A.to_scipy()).sum(axis=1).max()
    warnings.warn(
        f"ILU({level}) hit a zero pivot; retrying with diagonal shift {shift:.3e}",
        RuntimeWarning,
        stacklevel=2,
    )
    shifted = A.to_scipy() + shift * sp.identity(A.n, format="csr")
    shifted.sort_indices()
    A2 = SparseMatrix(A.n, shifted.indptr, shifted.indices, shifted.data)
    return _ilu_numeric(A2, level)


def _ilu_numeric(A, level):
    """ILU on the level-``level`` pattern: its analysis, then the value sweep.

    The analysis comes from _ILU_ANALYSES when a live factor was built on
    A's pattern at this level; otherwise it is built and entered there.
    """
    key = (A.n, A.nnz, level)
    # Threads that miss together each analyze; each sweeps on its own
    # analysis and the last one entered stays.
    analysis = _ILU_ANALYSES.get(key)
    if analysis is None or not analysis.fits(A):
        analysis = _ILU_ANALYSES[key] = _analyze_ilu(A, level)
    return _ilu_sweep(A, analysis)


@dataclass(frozen=True, eq=False)
class _IluAnalysis:
    """Everything an ILU(k) factorization reads of A's pattern.

    The sweep runs on one vector w = [L.values, U.values]: row i's lower
    entries and then its unit diagonal fill L's row i, and its diagonal
    and upper entries fill U's.  ``a_pos`` holds the slot of each of A's
    values.  Each of ``batches`` is one (wavefront, t-th lower entry)
    batch of the sweep as views (e, piv, dst, own, src) of slots: the
    entries it divides, their pivots, and its updates w[dst] -= f[own] *
    w[src].  ``csr_index`` holds L's and U's (indptr, indices) once more
    in int32, which every factor's scipy CSR view shares.  ``row_ptr`` and
    ``col_idx`` are A's own arrays, which a hit must match.  Every array
    is read-only, so concurrent sweeps share one analysis.
    """

    row_ptr: np.ndarray
    col_idx: np.ndarray
    level: int
    pattern_nnz: int
    a_pos: np.ndarray
    batches: tuple
    l_ptr: np.ndarray
    l_cols: np.ndarray
    u_ptr: np.ndarray
    u_cols: np.ndarray
    csr_index: tuple
    layout: _ApplyLayout

    def fits(self, A):
        return (np.array_equal(self.row_ptr, A.row_ptr)
                and np.array_equal(self.col_idx, A.col_idx))


def _analyze_ilu(A, level):
    """The :class:`_IluAnalysis` of A's pattern at ``level``.

    Row i of the IKJ form (Saad, *Iterative Methods for Sparse Linear
    Systems*, 2nd ed., Alg. 10.4) eliminates its lower entries (i, k) in
    ascending k, each with the finished row k of U.  Rows are grouped into
    wavefronts (Anderson & Saad 1989): a row's wavefront is one past the
    latest wavefront of the rows its lower entries name, so rows of one
    wavefront never read each other.  Each (wavefront, t-th lower entry)
    batch is one division and one scatter update on the values.  Every
    entry receives the same operations in the same order as in a
    row-by-row elimination, so the factors do not depend on the batching.
    """
    n = A.n
    ptr, cols, at = _level_pattern(A, level)
    rows = np.repeat(np.arange(n), np.diff(ptr))
    keys = rows * n + cols  # row-major positions, ascending
    diag = np.flatnonzero(cols == rows)
    n_lower = diag - ptr[:-1]

    # Lower entries in row-major order; the t-th of row i sits at ptr[i] + t.
    # Entry (i, k) eliminates with U's row k: each (k, j), j > k, that row
    # i's pattern holds updates (i, j).  The needles of the position search
    # stay in row-major order, which keeps it cache-friendly.
    lower = np.flatnonzero(cols < rows)
    l_row, l_col = rows[lower], cols[lower]
    owner = np.repeat(np.arange(len(lower)), ptr[l_col + 1] - diag[l_col] - 1)
    src = _ranges(diag[l_col] + 1, ptr[l_col + 1])
    target = l_row[owner] * n + cols[src]
    dst = np.searchsorted(keys, target)
    hit = dst < len(keys)
    hit[hit] = keys[dst[hit]] == target[hit]
    per_entry = np.bincount(owner[hit], minlength=len(lower))
    first = np.concatenate([[0], np.cumsum(per_entry)])

    # The slot in w of each pattern entry: L's row i starts at l_ptr[i],
    # and U's at n_l + u_ptr[i] with its diagonal first.
    above = np.concatenate([[0], np.cumsum(n_lower)])  # lower entries above
    l_ptr = above + np.arange(n + 1)
    u_ptr = ptr - above
    n_l = l_ptr[-1]
    slot = np.arange(len(cols)) + np.where(cols < rows, (l_ptr - ptr)[rows],
                                           (n_l - above[1:])[rows])

    # Batches in order: by wavefront, then by t.
    wave = _wavefronts(n, l_row, l_col, n_lower)
    t = lower - ptr[l_row]
    key = wave[l_row] * (t.max(initial=0) + 1) + t
    batch = np.argsort(key, kind="stable")
    bounds = np.flatnonzero(np.diff(key[batch], prepend=-1, append=-1))
    e, piv = slot[lower[batch]], slot[diag[l_col[batch]]]
    order = _ranges(first[batch], first[batch + 1])
    src, dst = slot[src[hit][order]], slot[dst[hit][order]]
    in_batch = np.arange(len(e)) - np.repeat(bounds[:-1], np.diff(bounds))
    own = np.repeat(in_batch, per_entry[batch])
    upd = np.concatenate([[0], np.cumsum(per_entry[batch])])[bounds]
    # The batch arrays stay intp: an intc index costs numpy a conversion
    # on every gather and scatter of the sweep.
    _frozen(e, piv, dst, own, src)
    batches = tuple(
        (e[lo:hi], piv[lo:hi], dst[u0:u1], own[u0:u1], src[u0:u1])
        for lo, hi, u0, u1 in zip(bounds[:-1].tolist(), bounds[1:].tolist(),
                                  upd[:-1].tolist(), upd[1:].tolist()))

    l_cols = np.insert(l_col, above[1:], np.arange(n))
    u_cols = cols[cols >= rows]
    layout = _apply_layout(n, l_ptr, l_cols, u_ptr, u_cols)
    # The layout checked that w, and so every index here, fits intc.
    a_pos = slot[at].astype(np.intc)
    csr_index = tuple(_frozen(ptr.astype(np.intc), cols.astype(np.intc))
                      for ptr, cols in ((l_ptr, l_cols), (u_ptr, u_cols)))
    return _IluAnalysis(A.row_ptr, A.col_idx, level, len(keys),
                        *_frozen(a_pos), batches,
                        *_frozen(l_ptr, l_cols, u_ptr, u_cols), csr_index,
                        layout)


def _ilu_sweep(A, analysis):
    """A's ILU factor on its analyzed pattern: place A's values, run the
    batches, check the pivots, and build L, U and the factor.

    Raises ZeroPivot at the first pivot below ILU_PIVOT_TOL times A's
    largest entry.
    """
    an = analysis
    n_l = len(an.l_cols)
    w = np.zeros(n_l + len(an.u_cols))
    w[an.l_ptr[1:] - 1] = 1.0  # L's unit diagonal closes each of its rows
    w[an.a_pos] = A.values
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for e, piv, dst, own, src in an.batches:
            f = w[e] / w[piv]
            w[e] = f
            w[dst] -= f[own] * w[src]

    scale = np.abs(A.values).max() if A.nnz else 1.0
    pivots = w[n_l:][an.u_ptr[:-1]]
    bad = np.flatnonzero(np.abs(pivots) < ILU_PIVOT_TOL * scale)
    if len(bad):
        raise ZeroPivot(int(bad[0]))
    w.setflags(write=False)
    l_index, u_index = an.csr_index
    L = SparseMatrix._on_pattern(A.n, an.l_ptr, an.l_cols, w[:n_l], l_index)
    U = SparseMatrix._on_pattern(A.n, an.u_ptr, an.u_cols, w[n_l:], u_index)
    return IluFactorization(an.level, L, U, an.pattern_nnz, an)


def _wavefronts(n, l_row, l_col, waiting):
    """Level-scheduling wavefront of each row of a unit lower triangle.

    (l_row, l_col) are the strictly lower entries and ``waiting`` counts
    them per row.  Wavefront 0 holds the rows without any; a row joins the
    wavefront after the last of the rows it names.
    """
    by_col = np.argsort(l_col, kind="stable")
    dependents = l_row[by_col]
    dep_ptr = np.searchsorted(l_col[by_col], np.arange(n + 1))
    waiting = waiting.copy()
    wave = np.empty(n, dtype=np.int64)
    front = np.flatnonzero(waiting == 0)
    d = 0
    while len(front):
        wave[front] = d
        freed, count = np.unique(
            dependents[_ranges(dep_ptr[front], dep_ptr[front + 1])],
            return_counts=True)
        waiting[freed] -= count
        front = freed[waiting[freed] == 0]
        d += 1
    return wave


def _ranges(starts, stops):
    """Concatenation of ``arange(s, t)`` over paired starts and stops."""
    lens = stops - starts
    offsets = np.repeat(starts - np.cumsum(lens) + lens, lens)
    return offsets + np.arange(len(offsets))


# ---------------------------------------------------------------------------
# The Arnoldi process
# ---------------------------------------------------------------------------


def _extend_arnoldi(apply_op, Ms, V, Z, Hbar, j0, m, reorth=True,
                    step_cb=None):
    """Grow an Arnoldi factorization in place from width j0 up to m.

    apply_op is the (counted) operator; Ms an optional variable
    preconditioner producing the stored solution basis Z.  A recycling
    cycle keeps its C in V's first columns, so its images are projected off
    C with the rest of V.

    Each step is block classical Gram-Schmidt: a pass projects the image
    off the whole current basis V[:, :j+1] with one matrix-vector product
    each way, and every pass's coefficients are summed into Hbar.
    ``reorth`` runs two passes (CGS2; "twice is enough", Giraud, Langou &
    Rozloznik 2005), and ``reorth=False`` one.  The products read whole
    column blocks, so callers store V and Z column-major.  Returns
    (width, breakdown); a breakdown leaves V[:, width] unwritten.
    """
    passes = 2 if reorth else 1
    for j in range(j0, m):
        v = V[:, j]
        if Ms is not None:
            z = Ms.apply(v)
            if Z is not None:
                Z[:, j] = z
        else:
            z = v
        w = apply_op(z)
        wnorm0 = np.linalg.norm(w)
        Vj = V[:, : j + 1]
        for _ in range(passes):
            h = Vj.T @ w
            w -= Vj @ h
            Hbar[: j + 1, j] += h
        hnext = np.linalg.norm(w)
        Hbar[j + 1, j] = hnext
        if hnext <= BREAKDOWN_TOL * max(wnorm0, 1e-300):
            if step_cb is not None:
                step_cb(j + 1)
            return j + 1, True
        V[:, j + 1] = w / hnext
        if step_cb is not None and step_cb(j + 1):
            return j + 1, False
    return m, False


# ---------------------------------------------------------------------------
# Preconditioner handles
# ---------------------------------------------------------------------------


class Preconditioner:
    """Base stationary handle: the identity."""

    is_variable = False

    def apply(self, v):
        return np.array(v, dtype=float, copy=True)


class IdentityPreconditioner(Preconditioner):
    pass


class JacobiPreconditioner(Preconditioner):
    def __init__(self, A):
        d = A.diagonal()
        if np.any(d == 0.0):
            raise ZeroPivot(int(np.argmin(np.abs(d))), "zero diagonal for Jacobi")
        self._inv_diag = 1.0 / d

    def apply(self, v):
        return self._inv_diag * v


class IluPreconditioner(Preconditioner):
    def __init__(self, factorization):
        self.factorization = factorization

    def apply(self, v):
        return self.factorization.solve(v)


class InnerGmresPreconditioner:
    """Variable handle: m_i un-restarted GMRES steps approximating A^{-1} v.

    Starts from the zero guess, right-preconditioned by the (usually
    stationary) inner handle.  Happy breakdown is an early success.  Inner
    system-matrix applications are counted through the wrapped operator.
    Per-call scratch only, hence re-entrant.
    """

    is_variable = True

    def __init__(self, op, m_i, inner=None):
        self.op = as_operator(op)
        self.m_i = m_i
        self.inner = inner or IdentityPreconditioner()

    def apply(self, v):
        n = self.op.dim
        beta = np.linalg.norm(v)
        if beta == 0.0:
            return np.zeros(n)
        m = self.m_i
        V = np.empty((n, m + 1), order="F")
        Z = np.empty((n, m), order="F")
        H = np.zeros((m + 1, m))
        V[:, 0] = v / beta
        width, _ = _extend_arnoldi(self.op, self.inner, V, Z, H, 0, m)
        c = np.zeros(width + 1)
        c[0] = beta
        y, _ = hessenberg_lsq(H[:width + 1, :width], c)
        return Z[:, :width] @ y


def build_preconditioner(kind, A, ilu_level=0):
    """Stationary handle from a configuration name."""
    if kind == "identity":
        return IdentityPreconditioner()
    if kind == "jacobi":
        return JacobiPreconditioner(A)
    if kind == "ilu":
        return IluPreconditioner(ilu_factor(A, ilu_level))
    raise ValueError(f"unknown preconditioner {kind!r}")


# ---------------------------------------------------------------------------
# Synthetic problem generation
# ---------------------------------------------------------------------------


def gen_convection_diffusion(grid, peclet):
    """5-point upwind operator for -lap(u) + peclet*(u_x + u_y).

    Interior-point discretization on the unit square with homogeneous
    Dirichlet boundaries; ``grid`` = (nx, ny) interior points.  Nonsymmetric
    for peclet != 0.  The stencil is fully determined by (grid, peclet).
    """
    if np.isscalar(grid):
        nx = ny = int(grid)
    else:
        nx, ny = (int(g) for g in grid)
    if nx < 3 or ny < 3:
        raise DimensionMismatch("grid must be at least 3x3")
    hx = 1.0 / (nx + 1)
    hy = 1.0 / (ny + 1)
    pe = float(peclet)
    # Upwind convection: backward difference for positive flow, forward
    # otherwise, keeping the operator an M-matrix for all peclet.
    a_w = -1.0 / hx**2 - max(pe, 0.0) / hx
    a_e = -1.0 / hx**2 + min(pe, 0.0) / hx
    a_s = -1.0 / hy**2 - max(pe, 0.0) / hy
    a_n = -1.0 / hy**2 + min(pe, 0.0) / hy
    a_c = 2.0 / hx**2 + 2.0 / hy**2 + abs(pe) / hx + abs(pe) / hy
    # Row r = iy * nx + ix holds its neighbours in column order: south,
    # west, centre, east, north, each where the grid has it.
    n = nx * ny
    has = np.ones((ny, nx, 5), dtype=bool)
    has[0, :, 0] = has[:, 0, 1] = has[:, -1, 3] = has[-1, :, 4] = False
    has = has.reshape(n, 5)
    cols = (np.arange(n, dtype=np.int64)[:, None]
            + np.array([-nx, -1, 0, 1, nx]))
    vals = np.broadcast_to(np.array([a_s, a_w, a_c, a_e, a_n]), (n, 5))
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(has.sum(axis=1), out=row_ptr[1:])
    return SparseMatrix._on_pattern(n, row_ptr, cols[has], vals[has])


# ---------------------------------------------------------------------------
# Matrix Market coordinate format
# ---------------------------------------------------------------------------


def read_matrix_market(path):
    """Read a real coordinate Matrix Market file into a SparseMatrix.

    Supports the general and symmetric qualifiers; symmetric storage is
    expanded to the full pattern and 1-based indices become 0-based.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()
    if not lines:
        raise ParseError(1, "empty file")
    banner = lines[0].strip().split()
    if len(banner) != 5 or banner[0] != "%%MatrixMarket":
        raise ParseError(1, "malformed MatrixMarket banner")
    _, obj, fmt, field, symmetry = (t.lower() for t in banner)
    if obj != "matrix" or fmt != "coordinate":
        raise ParseError(1, f"unsupported object/format '{obj} {fmt}'")
    if field != "real":
        raise UnsupportedField(f"field '{field}' not supported (real only)")
    if symmetry not in ("general", "symmetric"):
        raise UnsupportedField(f"symmetry '{symmetry}' not supported")
    lineno = 1
    size_line = None
    for lineno, raw in enumerate(lines[1:], start=2):
        text = raw.strip()
        if not text or text.startswith("%"):
            continue
        size_line = text
        break
    if size_line is None:
        raise ParseError(lineno, "missing size line")
    parts = size_line.split()
    if len(parts) != 3:
        raise ParseError(lineno, "size line must be 'rows cols nnz'")
    try:
        nrows, ncols, nnz = (int(p) for p in parts)
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from exc
    if nrows != ncols:
        raise NonSquare(f"matrix is {nrows}x{ncols}")
    rows, cols, vals = [], [], []
    seen = 0
    for off, raw in enumerate(lines[lineno:], start=lineno + 1):
        text = raw.strip()
        if not text or text.startswith("%"):
            continue
        parts = text.split()
        if len(parts) != 3:
            raise ParseError(off, "entry line must be 'i j value'")
        try:
            i = int(parts[0]) - 1
            j = int(parts[1]) - 1
            v = float(parts[2])
        except ValueError as exc:
            raise ParseError(off, str(exc)) from exc
        if not (0 <= i < nrows and 0 <= j < ncols):
            raise ParseError(off, "index out of range")
        rows.append(i)
        cols.append(j)
        vals.append(v)
        if symmetry == "symmetric" and i != j:
            rows.append(j)
            cols.append(i)
            vals.append(v)
        seen += 1
    if seen != nnz:
        raise ParseError(len(lines), f"expected {nnz} entries, found {seen}")
    return SparseMatrix.from_coo(nrows, rows, cols, vals)


def write_matrix_market(path, A, comment=None):
    """Write a SparseMatrix in general coordinate format, round-trip exact."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        if comment:
            fh.write(f"% {comment}\n")
        fh.write(f"{A.n} {A.n} {A.nnz}\n")
        for i in range(A.n):
            cols, vals = A.row(i)
            for j, v in zip(cols, vals):
                fh.write(f"{i + 1} {j + 1} {float(v)!r}\n")


def read_rhs(path):
    """Read a right-hand side: MM array format or one value per line."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()
    if lines and lines[0].startswith("%%MatrixMarket"):
        banner = lines[0].strip().split()
        if len(banner) != 5:
            raise ParseError(1, "malformed MatrixMarket banner")
        _, obj, fmt, field, _sym = (t.lower() for t in banner)
        if obj != "matrix" or fmt != "array":
            raise ParseError(1, "rhs must use array format")
        if field != "real":
            raise UnsupportedField(f"field '{field}' not supported (real only)")
        body = [t.strip() for t in lines[1:] if t.strip() and not t.startswith("%")]
        if not body:
            raise ParseError(2, "missing size line")
        dims = body[0].split()
        if len(dims) != 2:
            raise ParseError(2, "size line must be 'rows cols'")
        nrows, ncols = int(dims[0]), int(dims[1])
        if ncols != 1:
            raise ParseError(2, "rhs must be a single column")
        try:
            values = np.array([float(t) for t in body[1:]])
        except ValueError as exc:
            raise ParseError(0, str(exc)) from exc
        if len(values) != nrows:
            raise ParseError(0, f"expected {nrows} values, found {len(values)}")
        return values
    body = [t.strip() for t in lines if t.strip() and not t.startswith(("%", "#"))]
    try:
        return np.array([float(t) for t in body])
    except ValueError as exc:
        raise ParseError(0, str(exc)) from exc


def write_rhs(path, b):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{len(b)} 1\n")
        for v in b:
            fh.write(f"{float(v)!r}\n")
