"""Dense small-matrix kernels used inside every solver cycle.

All routines operate on plain numpy arrays (row-major, float64) of modest
size (a few hundred at most): reduced QR, Hessenberg least squares by Givens
rotations, small standard/generalized eigensolvers with conjugate-pair-aware
real storage, principal angles and the Grassmann distance between subspaces.
Every solver chooses its deflation pairs here: an eigensolve keeps the
smallest-magnitude pairs, growing its cut to the conjugate-closed prefix,
and ``EigenPairSet.capped`` cuts a set back to a column budget without
splitting a conjugate pair.

Everything here but the stateful ``HessenbergLsq`` monitor is a pure
function of its inputs and safe to call concurrently.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotOrthonormal,
    RankDeficient,
    SingularPencil,
    SingularTriangle,
)

QR_RANK_TOL = 1e-14
TRIANGLE_TOL = 1e-14
ORTHONORMAL_TOL = 1e-10
EIG_SIZE_CAP = 512


@dataclass
class EigenPairSet:
    """Eigenpairs kept in real storage, sorted by ascending magnitude as the
    eigensolvers return them.

    ``values`` is a complex vector.  ``vectors`` is a real matrix: a real
    eigenvalue owns one column holding its eigenvector; a complex-conjugate
    pair owns two consecutive columns holding the real and imaginary parts
    of the unit-norm eigenvector of the member with positive imaginary part.
    Requesting k pairs may return k+1 when the cut would split a conjugate
    pair.
    """

    values: np.ndarray
    vectors: np.ndarray

    def __len__(self):
        return len(self.values)

    def capped(self, k_max):
        """The leading pairs that fit in k_max columns, never half a pair.

        Drops the conjugate pair that straddles column k_max; raises
        RankDeficient(0) when no pair is left.
        """
        count = len(self.values)
        if count <= k_max:
            return self
        count = k_max
        if count and self.values[count - 1].imag < 0:
            count -= 1  # the first member of a straddling conjugate pair
        if not count:
            raise RankDeficient(0, "no conjugate-closed pair set fits")
        return EigenPairSet(self.values[:count], self.vectors[:, :count])

    def smallest(self, k, k_max):
        """The k smallest-magnitude pairs of a set held in any order.

        Sorted, grown by one member when the cut would split a conjugate
        pair, then ``capped(k_max)``.
        """
        sel = _smallest_closed(self.values, min(k, k_max))
        chosen = EigenPairSet(self.values[sel], self.vectors[:, sel])
        return chosen.capped(k_max)

    def complex_pairs(self):
        """Yield (value, complex eigenvector) for each retained eigenvalue."""
        i = 0
        n = len(self.values)
        while i < n:
            lam = self.values[i]
            if lam.imag == 0.0:
                yield lam, self.vectors[:, i].astype(complex)
                i += 1
            else:
                g = self.vectors[:, i] + 1j * self.vectors[:, i + 1]
                yield lam, g.conj()  # member with negative imaginary part
                yield lam.conjugate(), g
                i += 2


@dataclass
class SubspaceDistance:
    """Grassmann distance d_p over p principal angles, with d_p/sqrt(p)."""

    d_p: float
    p: int
    d_tilde: float


def reduced_qr(M):
    """Reduced QR factorization with a nonnegative-diagonal R.

    Returns (Q, R) with Q of shape (n, k), R upper triangular (k, k) and
    QR = M.  Raises RankDeficient(j) as soon as |R[j, j]| drops below
    QR_RANK_TOL * ||M||_F, signalling collapse of a deflation subspace.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] < M.shape[1]:
        raise DimensionMismatch(f"expected a tall matrix, got shape {M.shape}")
    if M.shape[1] == 0:
        return M.copy(), np.zeros((0, 0))
    Q, R = np.linalg.qr(M)
    signs = np.sign(np.diag(R))
    signs[signs == 0.0] = 1.0
    Q = Q * signs
    R = signs[:, None] * R
    fro = np.linalg.norm(M)
    if fro == 0.0:
        raise RankDeficient(0)
    for j in range(R.shape[0]):
        if abs(R[j, j]) < QR_RANK_TOL * fro:
            raise RankDeficient(j)
    return Q, R


class HessenbergLsq:
    """min_y ||c - Hbar y||_2 for an upper Hessenberg Hbar that grows by columns.

    ``Hbar`` (m+1, m) and ``c`` are the caller's storage; columns from j0 on
    may be written after the monitor is built.  A dense (j0+1) x j0 leading
    block (a deflated restart's head) is QR-factored once; each later column
    takes one Givens rotation (Saad & Schultz 1986).  With an empty head the
    arithmetic is exactly that of a from-scratch Givens solve.
    """

    def __init__(self, Hbar, c, j0=0):
        self.Hbar = Hbar
        self.width = self._j0 = j0
        self._R = np.zeros((Hbar.shape[1], Hbar.shape[1]))
        self._rotations = []  # (cos, sin) of columns j0, j0 + 1, ...
        g = c.tolist()
        if j0:
            Q, R = np.linalg.qr(Hbar[: j0 + 1, :j0], mode="complete")
            self._Qt = Q.T
            self._R[:j0, :j0] = R[:j0]
            g[: j0 + 1] = (self._Qt @ c[: j0 + 1]).tolist()
        self._g = g

    def add_column(self):
        """Factor column ``width`` of Hbar, which must be written by now."""
        j = self.width
        h = self.Hbar[: j + 2, j].tolist()
        j0 = self._j0
        if j0:
            h[: j0 + 1] = (self._Qt @ self.Hbar[: j0 + 1, j]).tolist()
        for i, (cs, sn) in enumerate(self._rotations, j0):
            a, b = h[i], h[i + 1]
            h[i], h[i + 1] = cs * a + sn * b, -sn * a + cs * b
        a, b = h[j], h[j + 1]
        r = float(np.hypot(a, b))
        cs, sn = (1.0, 0.0) if r == 0.0 else (a / r, b / r)
        self._rotations.append((cs, sn))
        h[j] = cs * a + sn * b
        self._R[: j + 1, j] = h[: j + 1]
        g = self._g
        g[j], g[j + 1] = cs * g[j] + sn * g[j + 1], -sn * g[j] + cs * g[j + 1]
        self.width = j + 1

    def residual_norm(self):
        """Least-squares residual norm at the current width."""
        return abs(self._g[self.width])

    def solve(self):
        """(y, rho) at the current width.

        Raises SingularTriangle when the reduced triangle carries a diagonal
        entry below TRIANGLE_TOL * ||Hbar||_F (solver breakdown).
        """
        j, R, g = self.width, self._R, self._g
        scale = np.linalg.norm(self.Hbar[: j + 1, :j])
        for i in range(j):
            if abs(R[i, i]) < TRIANGLE_TOL * scale:
                raise SingularTriangle(i)
        y = np.zeros(j)
        for i in range(j - 1, -1, -1):
            y[i] = (g[i] - R[i, i + 1:j] @ y[i + 1:]) / R[i, i]
        return y, float(abs(g[j]))


def hessenberg_lsq(Hbar, c):
    """Solve min_y ||c - Hbar y||_2 for an upper Hessenberg Hbar by Givens.

    Hbar has shape (j+1, j) and c length j+1.  Returns (y, rho) where rho is
    the least-squares residual norm.  Raises SingularTriangle when the
    reduced triangle carries a negligible diagonal entry (solver breakdown).
    This is :class:`HessenbergLsq` run over all j columns.
    """
    Hbar = np.asarray(Hbar, dtype=float)
    c = np.asarray(c, dtype=float)
    rows, j = Hbar.shape
    if rows != j + 1 or c.shape != (j + 1,):
        raise DimensionMismatch(
            f"need ({j + 1},{j}) Hessenberg and rhs of length {j + 1}"
        )
    lsq = HessenbergLsq(Hbar, c)
    for _ in range(j):
        lsq.add_column()
    return lsq.solve()


def _sorted_eig_indices(values):
    """Ascending |value|; ties broken by real part, then imaginary part."""
    return np.lexsort((values.imag, values.real, np.abs(values)))


def _normalized(G):
    """The columns of G scaled to unit norm and rotated so that each one's
    largest entry is real positive; a zero column stays zero."""
    norms = np.linalg.norm(G, axis=0)
    G = G / np.where(norms > 0, norms, 1.0)
    pivots = G[np.argmax(np.abs(G), axis=0), np.arange(G.shape[1])]
    mags = np.abs(pivots)
    return G * (np.conj(pivots) / np.where(mags > 0, mags, 1.0))


def _conjugate_adjacent(values, order):
    """``order`` with each complex member followed by its own conjugate.

    Each member is matched to the first later unmatched member whose
    imaginary part has the opposite sign.  In magnitude order only an
    exact repeat of the value can sit between a member and its conjugate,
    so this undoes the one case where sorting separates a pair: a repeated
    complex eigenvalue, whose lower members both sort before either upper
    one.  Otherwise ``order`` is returned unchanged.
    """
    imag = values[order].imag.tolist()
    matched = [False] * len(order)
    out = []
    for p in range(len(order)):
        if matched[p]:
            continue
        out.append(p)
        if imag[p] == 0.0:
            continue
        for q in range(p + 1, len(order)):
            if not matched[q] and imag[q] * imag[p] < 0.0:
                matched[q] = True
                out.append(q)
                break
    return order[out]


def _smallest_closed(values, k):
    """Indices of the k smallest-|value| entries, in sorted order.

    The cut grows until the selection is closed under conjugation, so a
    conjugate pair is never split (usually at most one extra member).  Each
    complex member sits right before its own conjugate.
    """
    m = len(values)
    order = _conjugate_adjacent(values, _sorted_eig_indices(values))
    count = min(k, m)
    while count < m:
        imag = values[order[:count]].imag
        if np.count_nonzero(imag < 0) == np.count_nonzero(imag > 0):
            break
        count += 1
    return order[:count]


def _select_pairs(values, vectors, k):
    """Pick the k smallest-|value| eigenpairs into real pair-aware storage.

    Grows the selection by one when the cut would split a conjugate pair.
    Each stored pair is one member and its own conjugate, adjacent in the
    selection, so a repeated complex eigenvalue keeps one pair per
    eigenvector.  Real columns are normalized with their largest entry
    positive; a pair keeps the unit eigenvector of its positive-imaginary
    member, rotated so its largest entry is real positive, and stores its
    real and imaginary parts.  All columns of a kind are stored at once.
    """
    sel = _smallest_closed(values, k)
    vals = values[sel]
    vecs = vectors[:, sel]
    real = vals.imag == 0.0
    if real.all():
        return EigenPairSet(values=vals, vectors=_normalized(vecs.real))
    out = np.empty(vecs.shape)
    out[:, real] = _normalized(vecs[:, real].real)
    # The members of each conjugate pair sit adjacent: a head, then its
    # partner.
    pair = np.flatnonzero(~real)
    head, partner = pair[0::2], pair[1::2]
    flip = vals[head].imag < 0
    lam_plus = np.where(flip, np.conj(vals[head]), vals[head])
    g = _normalized(np.where(flip, np.conj(vecs[:, head]), vecs[:, head]))
    vals[head] = np.conj(lam_plus)
    vals[partner] = lam_plus
    out[:, head] = g.real
    out[:, partner] = g.imag
    return EigenPairSet(values=vals, vectors=out)


def small_standard_eig(M, k):
    """k eigenpairs of smallest magnitude of a small dense real matrix.

    Backed by the LAPACK Hessenberg-reduction + shifted-QR driver.  Complex
    conjugate pairs are never split: the result may hold k+1 pairs.
    """
    M = np.asarray(M, dtype=float)
    m = M.shape[0]
    if M.shape != (m, m):
        raise DimensionMismatch(f"expected square matrix, got {M.shape}")
    if m > EIG_SIZE_CAP:
        raise DimensionMismatch(f"matrix order {m} exceeds cap {EIG_SIZE_CAP}")
    if k > m:
        raise DimensionMismatch(f"requested {k} pairs from order-{m} matrix")
    try:
        values, vectors = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    values = np.asarray(values, dtype=complex)
    vectors = np.asarray(vectors, dtype=complex)
    return _select_pairs(values, vectors, k)


def small_generalized_eig(L, Rm, k):
    """k smallest-|lambda| eigenpairs of L g = lambda Rm g.

    Solved through the inverted problem Rm g = (1/lambda) L g, i.e. the
    largest eigenvalues of L^{-1} Rm, which avoids forming ill-conditioned
    products and needs no QZ decomposition.  When L is singular the swapped
    direction Rm^{-1} L is used instead; if both are singular the pencil is
    declared singular.
    """
    L = np.asarray(L, dtype=float)
    Rm = np.asarray(Rm, dtype=float)
    m = L.shape[0]
    if L.shape != (m, m) or Rm.shape != (m, m):
        raise DimensionMismatch("pencil matrices must be square and equal-sized")
    if m > EIG_SIZE_CAP:
        raise DimensionMismatch(f"matrix order {m} exceeds cap {EIG_SIZE_CAP}")
    try:
        T = np.linalg.solve(L, Rm)
    except np.linalg.LinAlgError:
        T = None
    if T is not None:
        try:
            mu, vectors = np.linalg.eig(T)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(str(exc)) from exc
        # lambda = 1/mu; mu = 0 maps to an infinite eigenvalue, never among
        # the smallest, so it is naturally discarded by the largest-|mu| pick.
        order = np.argsort(-np.abs(mu))
        keep = order[np.abs(mu[order]) > 0]
        if len(keep) < k:
            raise SingularPencil("fewer finite eigenvalues than requested")
        values = 1.0 / mu[keep]
        return _select_pairs(values, vectors[:, keep], k)
    # L singular: fall back to eig(Rm^{-1} L), eigenvalues are lambda directly.
    try:
        T = np.linalg.solve(Rm, L)
    except np.linalg.LinAlgError as exc:
        raise SingularPencil("both pencil matrices are singular") from exc
    try:
        lam, vectors = np.linalg.eig(T)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return _select_pairs(lam, vectors, k)


def principal_angles(C1, C2):
    """Principal angles between the column spans of two orthonormal bases.

    Returned ascending, length p = min(k1, k2).  Angles above pi/4 are the
    arccosines of the singular values of C1^T C2.  Smaller angles, whose
    digits a cosine near 1 loses, are the arcsines of the singular values of
    the smaller basis projected onto the complement of the larger one
    (Knyazev & Argentati 2002).  Raises NotOrthonormal when a basis deviates
    from orthonormality by more than ORTHONORMAL_TOL.
    """
    C1 = np.atleast_2d(np.asarray(C1, dtype=float))
    C2 = np.atleast_2d(np.asarray(C2, dtype=float))
    if C1.shape[0] != C2.shape[0]:
        raise DimensionMismatch("bases must share the ambient dimension")
    for name, C in (("C1", C1), ("C2", C2)):
        k = C.shape[1]
        if k == 0:
            continue
        defect = np.linalg.norm(C.T @ C - np.eye(k))
        if defect > ORTHONORMAL_TOL:
            raise NotOrthonormal(f"{name} deviates from orthonormality by {defect:.3e}")
    return _principal_angles(C1, C2)


def _principal_angles(C1, C2):
    """``principal_angles`` of two 2-D bases taken to be orthonormal."""
    p = min(C1.shape[1], C2.shape[1])
    if p == 0:
        return np.zeros(0)
    big, small = (C1, C2) if C1.shape[1] >= C2.shape[1] else (C2, C1)
    M = big.T @ small
    return _angles(np.linalg.svd(M, compute_uv=False),
                   np.linalg.svd(small - big @ M, compute_uv=False)[::-1])


def _angles(cosines, sines):
    """Angles from descending cosines and ascending sines of equal length."""
    cosines = np.clip(cosines, 0.0, 1.0)
    sines = np.clip(sines, 0.0, 1.0)
    return np.where(cosines**2 >= 0.5, np.arcsin(sines), np.arccos(cosines))


def grassmann_distance(C1, C2):
    """Grassmann distance between subspaces of possibly different dimension.

    d_p = sqrt(sum of squared principal angles) over p = min(k1, k2) angles,
    plus the normalized variant d_p / sqrt(p).
    """
    return _distance(principal_angles(C1, C2))


def _grassmann_distance_unchecked(C1, C2):
    """``grassmann_distance`` without the orthonormality check.

    For callers whose bases are orthonormal by construction, such as the
    recycling solvers' successive polished C, for whom the check's two
    n x k Gram products are pure overhead.
    """
    return _distance(_principal_angles(C1, C2))


def _head_distance(Q, k):
    """Grassmann distance between span [I_k; 0] and span Q, Q orthonormal.

    The cosines of the principal angles are the singular values of Q[:k],
    their sines those of Q[k:], so no product with [I_k; 0] is formed.  A Q
    of q > k columns gives Q[k:] q - k further unit singular values past
    the k sines, which the cut to the p = min(k, q) smallest drops; the
    zeros svd omits when Q[k:] has fewer than q rows are put back first.
    """
    q = Q.shape[1]
    p = min(k, q)
    tail = np.linalg.svd(Q[k:], compute_uv=False)[::-1]
    sines = np.concatenate([np.zeros(q - len(tail)), tail])[:p]
    return _distance(_angles(np.linalg.svd(Q[:k], compute_uv=False), sines))


def _distance(theta):
    p = len(theta)
    d_p = float(np.sqrt(np.sum(theta**2)))
    d_tilde = d_p / np.sqrt(p) if p > 0 else 0.0
    return SubspaceDistance(d_p=d_p, p=p, d_tilde=float(d_tilde))
