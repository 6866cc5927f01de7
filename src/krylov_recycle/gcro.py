"""GCRO-DR and FGCRO-DR: subspace-recycling minimal-residual solvers.

For a sequence of linear systems sharing one matrix but varying right-hand
sides, these methods keep a pair (U, C) with A U = C, warm-start each new
system by the optimal correction over range(U), and run Arnoldi on the
projected operator (I - C C^T) A so the inner residual stays optimal over
the combined space.  The recycled pair is refreshed each cycle from harmonic
Ritz vectors of a reformulated small eigenproblem whose (k+1) x (k+1) head
block is maintained by a cheap recursion.

Deflation strategies for the flexible variant: A (harmonic pairs over the
stored solution basis Z), B (closed-form spectrum of the block
upper-triangular reformulation), and C (auxiliary basis W propagated across
cycles).
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    NoConvergence,
    RankDeficient,
    SingularHm,
    SingularPencil,
    StaleRecycle,
    StrategyBDegenerate,
)
from .gmres import (
    ArnoldiState,
    _fitting_pairs,
    _initial_residual,
    _Restarted,
    _solve_ht_em,
    harmonic_ritz_standard,
)
from .operators import InnerGmresPreconditioner, as_operator
from .smallalg import (
    EigenPairSet,
    grassmann_distance,
    hessenberg_lsq,
    reduced_qr,
    small_generalized_eig,
    small_standard_eig,
)

RECYCLE_INVARIANT_TOL = 1e-9
DEFAULT_REFRESH_EVERY = 10


@dataclass
class RecycleSpace:
    """Recycled pair (U, C) with A U = C and C orthonormal.

    For flexible solvers ``U`` holds the solution set Z (A Z = C exactly by
    construction) and ``D`` is None; otherwise ``D`` holds the inverse column
    norms of U so that U * D has unit columns.  ``head_CU`` caches C^T (U D)
    (respectively C^T Z) for the next cycle's eigenproblem head block.
    """

    C: np.ndarray
    U: np.ndarray
    D: np.ndarray | None
    k: int
    flexible: bool
    provenance: tuple = (0, 0)
    head_CU: np.ndarray | None = None

    @property
    def U_scaled(self):
        """U with unit columns (U itself in the flexible case)."""
        if self.D is None:
            return self.U
        return self.U * self.D


@dataclass
class GeneralizedArnoldiState:
    """Projected-Arnoldi factorization A Vhat = What Hbar in block form.

    ``V`` is the inner orthonormal basis (width+1 columns), ``H_inner`` the
    inner Hessenberg block, ``B`` the coupling block C^T A V (flexible:
    C^T A Z).  ``Z_inner`` is the stored solution basis for flexible runs.
    The composite matrices of the block factorization are assembled on
    demand.
    """

    C: np.ndarray
    V: np.ndarray
    H_inner: np.ndarray
    B: np.ndarray
    U_scaled: np.ndarray
    D: np.ndarray | None
    flexible: bool
    Z_inner: np.ndarray | None = None
    head_CU: np.ndarray | None = None

    @property
    def k(self):
        return self.C.shape[1]

    @property
    def width(self):
        return self.H_inner.shape[1]

    @property
    def m(self):
        return self.k + self.width

    def what(self):
        return np.column_stack([self.C, self.V])

    def vhat(self):
        if self.flexible:
            return np.column_stack([self.U_scaled, self.Z_inner])
        return np.column_stack([self.U_scaled, self.V[:, : self.width]])

    def hbar(self):
        k, w = self.k, self.width
        H = np.zeros((k + w + 1, k + w))
        if self.flexible or self.D is None:
            H[:k, :k] = np.eye(k)
        else:
            H[:k, :k] = np.diag(self.D)
        H[:k, k:] = self.B[:, :w]
        H[k:, k:] = self.H_inner
        return H

    def wtv_head(self):
        """(k+1) x (k+1) block [C v1]^T [Utilde v1] of What^T Vhat.

        Uses the cached C^T Utilde when available; the v1 row always costs k
        fresh inner products.
        """
        k = self.k
        head = np.zeros((k + 1, k + 1))
        if k:
            CtU = self.head_CU
            if CtU is None:
                CtU = self.C.T @ self.U_scaled
            head[:k, :k] = CtU
            head[k, :k] = self.V[:, 0] @ self.U_scaled
        head[k, k] = 1.0
        return head

    def wtv_full(self):
        """Assembled (m+1) x m What^T Vhat using its exact-arithmetic zeros."""
        k, w = self.k, self.width
        M = np.zeros((k + w + 1, k + w))
        head = self.wtv_head()
        M[: k + 1, :k] = head[:, :k]
        M[k, k] = 1.0
        M[k + 1: k + w, k + 1:] = np.eye(w - 1)
        return M


def warm_start(A, recycle, b, x0=None, validate=True,
               invariant_tol=RECYCLE_INVARIANT_TOL, to_x=None):
    """Optimal initial correction over a recycled pair (U, C).

    Returns (x1, r1) with x1 = x0 + U C^T r0 and r1 = (I - C C^T) r0, so
    that C^T r1 vanishes.  With ``validate`` the invariant A U = C is checked
    first (uncounted applications); a violated invariant raises StaleRecycle
    and the caller should fall back to a cold start.  ``to_x`` maps
    solution-space corrections back to x for right-preconditioned operators.
    """
    op = as_operator(A)
    x, r0 = _initial_residual(op, b, x0)
    if recycle is None or recycle.k == 0:
        return x, r0
    if validate:
        AU = np.column_stack([op.apply_plain(recycle.U[:, j])
                              for j in range(recycle.k)])
        defect = np.linalg.norm(AU - recycle.C)
        if defect > invariant_tol * max(np.linalg.norm(recycle.C), 1e-300):
            raise StaleRecycle(f"recycle invariant violated by {defect:.3e}")
    coef = recycle.C.T @ r0
    correction = recycle.U @ coef
    x += correction if to_x is None else to_x(correction)
    r1 = r0 - recycle.C @ coef
    return x, r1


@dataclass
class ProjectedArnoldi:
    V: np.ndarray
    Hbar: np.ndarray
    B: np.ndarray
    Z: np.ndarray | None
    breakdown: bool


def arnoldi_projected(A, P, r_start, steps, C, reorth=True, counter=None):
    """Arnoldi on (I - C C^T) A from r_start, recording the coupling block.

    Every image A z is first orthogonalized against C, accumulating
    B = C^T A V (flexible: C^T A Z), so C^T V vanishes throughout.  ``P``
    may be a stationary handle (composed into the operator, no Z stored) or
    a variable one (flexible, Z stored).
    """
    flexible = P is not None and P.is_variable
    cycle = _Restarted(A, P, m=steps, reorth=reorth, store_z=flexible,
                       counter=counter)
    state, B, _, breakdown = cycle._krylov_basis(r_start, steps, C)
    return ProjectedArnoldi(state.V, state.Hbar, B, state.Z, breakdown)


def gcro_lsq_blockwise(state, r_prev):
    """Blockwise solve of the composite least-squares problem.

    First the inner problem min ||H_inner y - beta e1|| with
    beta = ||(I - C C^T) r_prev||, then the head coordinates
    z = D^{-1} (C^T r_prev - B y).  Returns (y_full, rho) where y_full
    stacks [z, y] and rho is the assembled residual norm (the head rows
    cancel exactly).
    """
    k, w = state.k, state.width
    Ctr = state.C.T @ r_prev if k else np.zeros(0)
    proj = r_prev - state.C @ Ctr if k else r_prev
    beta = np.linalg.norm(proj)
    c = np.zeros(w + 1)
    c[0] = beta
    y, rho = hessenberg_lsq(state.H_inner, c)
    rhs_head = Ctr - state.B[:, :w] @ y if k else Ctr
    if state.flexible or state.D is None:
        z = rhs_head
    else:
        z = rhs_head / state.D
    return np.concatenate([z, y]), float(rho)


def _composite_hhat(state):
    """Square part H_m of the composite Hbar plus its harmonic correction."""
    Hbar = state.hbar()
    m = state.m
    H = Hbar[:m, :]
    h = Hbar[m, m - 1]
    f = _solve_ht_em(H)
    em = np.zeros(m)
    em[m - 1] = 1.0
    return H + h**2 * np.outer(f, em), H, h, f


def gcro_harmonic_ritz(state, k):
    """Harmonic Ritz vectors of the recycling cycle's reformulated problem.

    Solves [H_m + h^2 f e_m^T] g = theta * blkdiag(What_{k+1}^T Vhat_{k+1},
    I_{m-k-1}) g for the k pairs of smallest magnitude, where the head block
    carries C^T Utilde and v1^T Utilde.  With an empty recycle space this
    reduces to the standard harmonic problem of the plain cycle.
    """
    Hhat, _, _, _ = _composite_hhat(state)
    m = state.m
    G = np.zeros((m, m))
    head = state.wtv_head()
    kk = state.k
    G[: kk + 1, : kk + 1] = head
    G[kk + 1:, kk + 1:] = np.eye(m - kk - 1)
    pairs = _fitting_pairs(
        lambda request: small_generalized_eig(Hhat, G, request), k, m - 1)
    return pairs.vectors, pairs.values


def update_recycle_space(state, P_k, provenance=(0, 0)):
    """New recycled pair from retained eigenvector coordinates P_k.

    Y = Vhat P_k, [Q, R] = reduced QR of (Hbar P_k), C_new = What Q,
    U_new = Y R^{-1}.  On rank deficiency the subspace shrinks to the
    numerical rank with a warning rather than aborting.
    """
    space, _, _, _, _ = _update_recycle(state, P_k, provenance)
    return space


def _right_triangular_inv(R, X):
    """X @ R^{-1} for upper-triangular R."""
    return scipy.linalg.solve_triangular(R.T, X.T, lower=True).T


def _polish_pair(C_raw, U_raw):
    """Re-orthonormalize C and compensate U so A U = C stays exact.

    C inherits the (slowly degrading) orthonormality of the composite basis;
    a QR polish restores it, and rotating U by the same triangular factor
    preserves the image relation.  Returns (C, U, Rc).
    """
    Qc, Rc = np.linalg.qr(C_raw)
    return Qc, _right_triangular_inv(Rc, U_raw), Rc


def _image_qr(Hbar, P_k):
    """Reduced QR of Hbar P_k, shrinking P_k to the numerical rank first.

    Returns (Q, R, P_k); a shrink warns.
    """
    while True:
        try:
            Q, R = reduced_qr(Hbar @ P_k)
            return Q, R, P_k
        except RankDeficient as exc:
            rank = max(exc.column, 1)
            if P_k.shape[1] <= rank:
                raise
            warnings.warn(
                f"deflation subspace rank-deficient; shrinking to {rank}",
                RuntimeWarning,
                stacklevel=4,
            )
            P_k = P_k[:, :rank]


def _update_recycle(state, P_k, provenance=(0, 0)):
    What = state.what()
    Vhat = state.vhat()
    Q, R, P_k = _image_qr(state.hbar(), P_k)
    C_raw = What @ Q
    Y = Vhat @ P_k
    U_raw = _right_triangular_inv(R, Y)
    C_new, U_new, Rc = _polish_pair(C_raw, U_raw)
    if state.flexible:
        D = None
    else:
        norms = np.linalg.norm(U_new, axis=0)
        norms[norms == 0.0] = 1.0
        D = 1.0 / norms
    space = RecycleSpace(C=C_new, U=U_new, D=D, k=U_new.shape[1],
                         flexible=state.flexible, provenance=provenance)
    return space, P_k, Q, R, Rc


def flexible_strategy_b_pairs(state, k):
    """Closed-form deflation spectrum for the flexible reformulated problem.

    The composite Hhat is block upper triangular with an identity head, so
    lambda = 1 has algebraic multiplicity k with eigenvectors [I_k; 0]; each
    trailing-block eigenpair (lambda, g) extends by the head
    x = -(1 - lambda)^{-1} Btilde g.  Raises StrategyBDegenerate when a
    trailing eigenvalue collides with 1 (caller falls back to the dense
    solve).
    """
    kk, w = state.k, state.width
    m = kk + w
    Hbar = state.hbar()
    h = Hbar[m, m - 1]
    f = _solve_ht_em(Hbar[:m, :])
    e_w = np.zeros(w)
    e_w[-1] = 1.0
    Btilde = state.B[:, :w] + h**2 * np.outer(f[:kk], e_w)
    Htilde = state.H_inner[:w, :w] + h**2 * np.outer(f[kk:], e_w)
    trailing = small_standard_eig(Htilde, w)
    if np.any(np.abs(trailing.values - 1.0) < 1e-12):
        raise StrategyBDegenerate("trailing eigenvalue hits the unit head")
    values = np.concatenate([np.ones(kk, dtype=complex), trailing.values])
    vectors = np.zeros((m, m))
    vectors[:kk, :kk] = np.eye(kk)
    # Extend each trailing real-stored column by its head block.  For a
    # conjugate pair the head of the complex eigenvector is
    # -(1-lambda)^{-1} Btilde g, whose real/imag parts line up with the
    # stored columns.
    i = 0
    while i < w:
        lam = trailing.values[i]
        if lam.imag == 0.0:
            g = trailing.vectors[:, i]
            if kk:
                vectors[:kk, kk + i] = -(Btilde @ g) / (1.0 - lam.real)
            vectors[kk:, kk + i] = g
            i += 1
        else:
            g = trailing.vectors[:, i] + 1j * trailing.vectors[:, i + 1]
            lam_plus = trailing.values[i + 1]
            x = -(Btilde @ g) / (1.0 - lam_plus) if kk else np.zeros(0, complex)
            vectors[:kk, kk + i] = np.real(x)
            vectors[:kk, kk + i + 1] = np.imag(x)
            vectors[kk:, kk + i] = np.real(g)
            vectors[kk:, kk + i + 1] = np.imag(g)
            i += 2
    full = EigenPairSet(values=values, vectors=vectors)
    # Select the k smallest-magnitude pairs, pair-aware: grow the cut until
    # it is conjugate-closed, shrinking instead if that would exceed m-1.
    order = np.lexsort((values.imag, values.real, np.abs(values)))

    def balanced(cnt):
        imag = values[order[:cnt]].imag
        return np.count_nonzero(imag < 0) == np.count_nonzero(imag > 0)

    count = min(k, m - 1)
    while count < m - 1 and not balanced(count):
        count += 1
    while count > 1 and not balanced(count):
        count -= 1
    sel = order[:count]
    return EigenPairSet(values=values[sel], vectors=vectors[:, sel]), full


class RecyclingSolver(_Restarted):
    """GCRO-DR / FGCRO-DR engine for a sequence of fixed-matrix systems.

    One instance owns the recycled pair and hands it from system to system;
    ``solve`` may be called repeatedly with varying right-hand sides.  A
    stationary preconditioner runs the non-flexible method in the
    preconditioned variable space; a variable preconditioner (or ``m_i``)
    selects the flexible method with deflation strategy A, B or C.

    On the shared restart loop this family adds the warm start, the
    projected cycle once a recycled pair exists, the pair's refresh after
    every cycle, and drops the pair on a cold restart.

    ``state_hook(state, cycle)`` receives each completed cycle's
    factorization (ArnoldiState for plain cycles, GeneralizedArnoldiState
    for recycling ones); ``cycle_hook(info)`` receives a dict with the
    current C, residual, solution and relative residuals.  ``stop_rule``
    on :meth:`solve` is called at cycle ends with (cycle_index,
    previous_rel, rel) and ends the solve when it returns True.
    """

    breakdown_stops = False

    def __init__(self, A, P=None, *, m, k, flexible=False, strategy="B",
                 m_i=None, tol=1e-8, max_matvecs=500_000,
                 safeguard_eps=0.05, reorth=True,
                 refresh_every=DEFAULT_REFRESH_EVERY, monitor_distances=True,
                 record=None, counter=None, state_hook=None, cycle_hook=None):
        if not 0 < k < m:
            raise ValueError("need 0 < k < m")
        if strategy not in ("A", "B", "C"):
            raise ValueError(f"unknown deflation strategy {strategy!r}")
        op = as_operator(A, counter)
        if m_i is not None and (P is None or not P.is_variable):
            P = InnerGmresPreconditioner(op, m_i, inner=P)
        flexible = flexible or (P is not None and P.is_variable)
        super().__init__(op, P, m=m, tol=tol, max_matvecs=max_matvecs,
                         reorth=reorth, store_z=flexible, record=record,
                         state_hook=state_hook)
        self.k = k
        self.safeguard_eps = safeguard_eps
        self.refresh_every = refresh_every
        self.monitor_distances = monitor_distances
        self.cycle_hook = cycle_hook
        self.flexible = flexible
        self.strategy = strategy if flexible else "B"
        self.recycle = None
        self.W = None  # strategy C auxiliary basis, paired with recycle
        self.head_CW = None
        self.prev_C = None
        self.last_distance = None
        self._space = None  # recycled pair the next cycle projects against
        self._updates = 0
        self._system_index = 0

    # -- deflation --------------------------------------------------------

    def _deflate(self, state, VtZ_full=None):
        """Retained eigenvector coordinates P_k for the completed cycle."""
        m_eff = state.m
        k_max = m_eff - 1
        if self.flexible and self.strategy == "A":
            Hhat, _, h, f = _composite_hhat(state)
            R = VtZ_full[:m_eff, :] + h * np.outer(f, VtZ_full[m_eff, :])
            pairs = _fitting_pairs(
                lambda request: small_generalized_eig(Hhat, R, request),
                self.k, k_max)
            return pairs.vectors
        if self.flexible and self.strategy == "B":
            try:
                pairs, _ = flexible_strategy_b_pairs(state, self.k)
            except StrategyBDegenerate:
                Hhat, _, _, _ = _composite_hhat(state)
                pairs = small_standard_eig(Hhat, min(self.k, k_max))
                while len(pairs) > k_max:
                    pairs = small_standard_eig(Hhat, len(pairs) - 2)
            return pairs.vectors
        if self.flexible and self.strategy == "C":
            Hhat, _, _, _ = _composite_hhat(state)
            m = state.m
            G = np.zeros((m, m))
            kk = state.k
            G[:kk, :kk] = self.head_CW if self.head_CW is not None \
                else state.C.T @ self.W
            G[kk, :kk] = state.V[:, 0] @ self.W if kk else 0.0
            G[kk, kk] = 1.0
            G[kk + 1:, kk + 1:] = np.eye(m - kk - 1)
            pairs = _fitting_pairs(
                lambda request: small_generalized_eig(Hhat, G, request),
                self.k, k_max)
            return pairs.vectors
        P_k, _ = gcro_harmonic_ritz(state, self.k)
        return P_k

    # -- the family's part of the restart loop ------------------------------

    def solve(self, b, x0=None, use_recycle=True, stop_rule=None):
        """Solve A x = b, recycling the retained subspace when allowed."""
        self._system_index += 1
        self._space = self.recycle if use_recycle else None
        return super().solve(b, x0, stop_rule)

    def _start(self, b, x0):
        if self._space is None:
            return super()._start(b, x0)
        x, r = warm_start(self.op, self._space, b, x0, validate=False,
                          to_x=None if self.flexible else self.P.apply)
        return x, r, "recycle_start"

    def _cycle(self, r):
        space = self._space
        if space is None:
            return super()._cycle(r)
        basis, B, _, breakdown = self._krylov_basis(r, self.m - space.k,
                                                    space.C)
        state = GeneralizedArnoldiState(
            C=space.C, V=basis.V, H_inner=basis.Hbar, B=B,
            U_scaled=space.U_scaled, D=space.D, flexible=self.flexible,
            Z_inner=basis.Z, head_CU=space.head_CU)
        y_full, rho = gcro_lsq_blockwise(state, r)
        z, y = y_full[: space.k], y_full[space.k:]
        head = state.U_scaled @ z if space.k else 0.0
        tail = state.Z_inner @ y if self.flexible \
            else state.V[:, : state.width] @ y
        dx = head + tail
        return state, dx if self.flexible else self.P.apply(dx), rho, breakdown

    def _cycle_end(self, state, breakdown, cycle, x, r, rel_true, rel_lsq):
        d_pair = self._refresh_spaces(state, self._space, cycle)
        if d_pair is not None:
            self.record.append(cycle, self.iterations, self.op.counter.count,
                               rel_lsq, d_p=d_pair[0], p=d_pair[1])
        if self.cycle_hook is not None:
            self.cycle_hook({
                "system": self._system_index, "cycle": cycle,
                "C": None if self.recycle is None else self.recycle.C,
                "r": r, "x": x, "rel_true": rel_true, "rel_lsq": rel_lsq,
            })
        self._space = self.recycle

    def _forget(self):
        # Rounding detached the short residual update from the truth, or
        # deflation collapsed: discard all recycled information.
        self.recycle = self.W = self.head_CW = self._space = None

    # -- recycle-space maintenance -----------------------------------------

    def _refresh_spaces(self, state, space, cycle_idx):
        """Update (C, U) from the completed cycle; returns (d_p, p) or None."""
        try:
            if isinstance(state, ArnoldiState):
                new_space = self._update_from_plain(state, cycle_idx)
            else:
                new_space = self._update_from_projected(state, space, cycle_idx)
        except (SingularHm, RankDeficient, SingularPencil, NoConvergence):
            # Deflation collapsed; the next cycle is a plain restart.
            self._forget()
            return None
        d_pair = None
        if self.monitor_distances and self.prev_C is not None:
            dist = grassmann_distance(self.prev_C, new_space.C)
            self.last_distance = dist
            d_pair = (dist.d_p, dist.p)
        self.prev_C = new_space.C
        self.recycle = new_space
        return d_pair

    def _update_from_plain(self, state, cycle_idx):
        """First-cycle recycle construction from a plain (F)GMRES cycle."""
        width = state.j
        defl = harmonic_ritz_standard(state, self.k, k_max=width - 1)
        Q, R, P_k = _image_qr(state.Hbar, defl.Pk)
        basis = state.Z if self.flexible else state.V[:, :width]
        Y = basis @ P_k
        C_new, U_new, Rc = _polish_pair(state.V @ Q,
                                        _right_triangular_inv(R, Y))
        kk = U_new.shape[1]
        CtU_raw = _right_triangular_inv(R, Q[:width, :].T @ P_k)
        if self.flexible:
            # The solution basis Z is not orthonormal, so C^T Z needs real
            # inner products here; the per-cycle recursion takes over after.
            D = None
            CtU = C_new.T @ U_new
        else:
            # With basis V the product C^T U needs no length-n work:
            # C_raw^T (V_m P_k R^{-1}) = Q[:m]^T P_k R^{-1}.
            CtU = _right_triangular_inv(
                Rc, scipy.linalg.solve_triangular(Rc.T, CtU_raw, lower=True))
            norms = np.linalg.norm(U_new, axis=0)
            norms[norms == 0.0] = 1.0
            D = 1.0 / norms
            CtU = CtU * D
        space = RecycleSpace(C=C_new, U=U_new, D=D, k=kk,
                             flexible=self.flexible,
                             provenance=(self._system_index, cycle_idx),
                             head_CU=CtU)
        if self.flexible and self.strategy == "C":
            self.W = _right_triangular_inv(R, state.V[:, :width] @ P_k)
            self.head_CW = scipy.linalg.solve_triangular(
                Rc.T, CtU_raw, lower=True)
        self._updates = 1
        return space

    def _update_from_projected(self, state, space, cycle_idx):
        VtZ_full = None
        if self.flexible and self.strategy == "A":
            VtZ_full = self._strategy_a_product(state, space)
        P_k = self._deflate(state, VtZ_full)
        new_space, P_k, Q, R, Rc = _update_recycle(
            state, P_k, provenance=(self._system_index, cycle_idx))
        self._updates += 1
        refresh = self._updates % self.refresh_every == 0
        if self.flexible and self.strategy in ("B", "C"):
            # No valid structural recursion exists for C^T Z here (the
            # assembled zero pattern of What^T Vhat only holds for the
            # non-flexible basis), and neither strategy consumes the block:
            # B uses the closed form, C maintains its own W head below.
            CtU = None
        elif refresh or state.head_CU is None:
            CtU = new_space.C.T @ new_space.U
        else:
            # Head recursion: C_raw^T U_raw = Q^T (What^T Vhat) P_k R^{-1},
            # then both sides are rotated by the polish factor.
            M_full = VtZ_full if VtZ_full is not None else state.wtv_full()
            CtU_raw = Q.T @ _right_triangular_inv(R, M_full @ P_k)
            CtU = _right_triangular_inv(
                Rc, scipy.linalg.solve_triangular(Rc.T, CtU_raw, lower=True))
        if CtU is None:
            new_space.head_CU = None
        else:
            new_space.head_CU = CtU * new_space.D \
                if new_space.D is not None else CtU
        if self.flexible and self.strategy == "C":
            W_m = np.column_stack([self.W, state.V[:, : state.width]])
            VtW = self._strategy_c_product(state)
            self.W = _right_triangular_inv(R, W_m @ P_k)
            if refresh:
                self.head_CW = new_space.C.T @ self.W
            else:
                head_raw = Q.T @ _right_triangular_inv(R, VtW @ P_k)
                self.head_CW = scipy.linalg.solve_triangular(
                    Rc.T, head_raw, lower=True)
        return new_space

    def _strategy_a_product(self, state, space):
        """Full (m+1) x m product V_{m+1}^T Z_m, head block from the cache."""
        kk, w = state.k, state.width
        V_full = state.what()
        Z_k = space.U
        out = np.empty((kk + w + 1, kk + w))
        if kk:
            head = space.head_CU if space.head_CU is not None \
                else state.C.T @ Z_k
            out[:kk, :kk] = head
            out[kk:, :kk] = state.V.T @ Z_k
        out[:, kk:] = V_full.T @ state.Z_inner
        return out

    def _strategy_c_product(self, state):
        """Assembled V_{m+1}^T W_m using its exact-arithmetic structure."""
        kk, w = state.k, state.width
        out = np.zeros((kk + w + 1, kk + w))
        if kk:
            head = self.head_CW if self.head_CW is not None \
                else state.C.T @ self.W
            out[:kk, :kk] = head
            out[kk, :kk] = state.V[:, 0] @ self.W
        out[kk: kk + w, kk:] = np.eye(w)
        return out


def gcrodr_solve(A, P, sequence, *, m, k, tol=1e-8, max_matvecs=500_000,
                 recycle_from=2, safeguard_eps=0.05, reorth=True,
                 refresh_every=DEFAULT_REFRESH_EVERY, record=None,
                 counter=None, monitor_distances=True, cycle_hook=None):
    """GCRO-DR(m, k) over a sequence of (b, x0) with one fixed matrix.

    ``recycle_from`` is the 1-based system index from which the retained
    subspace may be consumed (None or "never" disables recycling); the
    matvec budget applies per system.  Returns a list of (x, report).
    """
    solver = RecyclingSolver(
        A, P, m=m, k=k, flexible=False, tol=tol, max_matvecs=max_matvecs,
        safeguard_eps=safeguard_eps, reorth=reorth,
        refresh_every=refresh_every, record=record, counter=counter,
        monitor_distances=monitor_distances, cycle_hook=cycle_hook)
    return _run_sequence(solver, sequence, recycle_from)


def fgcrodr_solve(A, Ms, sequence, *, m, k, m_i=None, strategy="B", tol=1e-8,
                  max_matvecs=500_000, recycle_from=2, safeguard_eps=0.05,
                  reorth=True, refresh_every=DEFAULT_REFRESH_EVERY,
                  record=None, counter=None, monitor_distances=True,
                  cycle_hook=None):
    """FGCRO-DR(m, m_i, k) with deflation strategy A, B or C.

    As :func:`gcrodr_solve` but with a variable preconditioner; when ``Ms``
    is stationary and ``m_i`` is given, an inner un-restarted GMRES(m_i)
    preconditioner is built around it.
    """
    solver = RecyclingSolver(
        A, Ms, m=m, k=k, flexible=True, strategy=strategy, m_i=m_i, tol=tol,
        max_matvecs=max_matvecs, safeguard_eps=safeguard_eps, reorth=reorth,
        refresh_every=refresh_every, record=record, counter=counter,
        monitor_distances=monitor_distances, cycle_hook=cycle_hook)
    return _run_sequence(solver, sequence, recycle_from)


def _run_sequence(solver, sequence, recycle_from):
    if recycle_from in (None, "never"):
        recycle_from = float("inf")
    elif recycle_from == "always":
        recycle_from = 2
    results = []
    for idx, (b, x0) in enumerate(sequence, start=1):
        solver.record.system_index = idx
        use = idx >= recycle_from
        x, report = solver.solve(b, x0, use_recycle=use)
        results.append((x, report))
    return results
