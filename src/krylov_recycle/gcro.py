"""GCRO-DR and FGCRO-DR: subspace-recycling minimal-residual solvers.

For a sequence of linear systems sharing one matrix but varying right-hand
sides, these methods keep a pair (U, C) with A U = C and C orthonormal,
warm-start each new system by the optimal correction over range(U), and
run Arnoldi on the projected operator (I - C C^T) A so the inner residual
stays optimal over the combined space.  Both methods keep the pair in
one form, so the composite factorization's head block is I_k; U lies in
the preconditioned variables for GCRO-DR and in the solution space for
FGCRO-DR.  The recycled pair is refreshed each cycle, unless the solve
keeps it, from harmonic Ritz vectors of a reformulated small eigenproblem
whose (k+1) x (k+1) head block is formed from the bases the cycle used.

Every cycle grows from a head in one column-major basis array [C | V]: C
fills the first k columns, the projected residual column k, and Arnoldi
runs from there, so each image is projected off C and V in one pass.  The
Hessenberg array carries the identity head and the coupling block, and a
flexible cycle's Z array carries U at its head, so What, Hbar and the
flexible Vhat are the cycle's own arrays.

The refresh works in the cycle's small coordinates wherever it can.  The
new C = What Q is one product (and so is U = Vhat P_k R^{-1} when
flexible); C is QR-polished only when its Gram defect exceeds POLISH_TOL;
and on a cycle over the previous pair the Grassmann distance between the
old and the new C is that between [I; 0] and Q, with no n-row product.

Deflation strategies for the flexible variant: A (harmonic pairs over the
stored solution basis Z), B (closed-form spectrum of the block
upper-triangular reformulation), and C (auxiliary basis W propagated across
cycles).
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.blas import dtrsm

from .errors import (
    NoConvergence,
    RankDeficient,
    SingularHm,
    SingularPencil,
    StaleRecycle,
    StrategyBDegenerate,
)
from .gmres import (
    DEFAULT_SAFEGUARD_EPS,
    _check_size,
    _check_strategy,
    _harmonic,
    _initial_residual,
    _Restarted,
    _with_inner_gmres,
    harmonic_ritz_standard,
    harmonic_ritz_strategy_a,
)
from .operators import as_operator
from .smallalg import (
    EigenPairSet,
    _grassmann_distance_unchecked,
    _head_distance,
    hessenberg_lsq,
    reduced_qr,
    small_generalized_eig,
    small_standard_eig,
)

RECYCLE_INVARIANT_TOL = 1e-9
# Gram defect of a new C above which the refresh QR-polishes it; 100x
# below the ORTHONORMAL_TOL the public distance check demands.
POLISH_TOL = 1e-12


@dataclass
class RecycleSpace:
    """Recycled pair (U, C) with A U = C and C orthonormal.

    For flexible solvers ``U`` holds solution vectors, A U = C; otherwise U
    is in the preconditioned variables, A P U = C, and x takes P U.
    """

    C: np.ndarray
    U: np.ndarray

    @property
    def k(self):
        return self.C.shape[1]


def warm_start(A, recycle, b, x0=None, validate=True, to_x=None, Ax0=None):
    """Optimal initial correction over a recycled pair (U, C).

    Returns (x1, r1) with x1 = x0 + U C^T r0 and r1 = (I - C C^T) r0, so
    that C^T r1 vanishes.  r0 = b - A x0 costs no matvec when the caller
    passes the image ``Ax0`` = A x0.  ``to_x`` maps corrections in U's
    variables back to x for right-preconditioned operators (GCRO-DR passes
    P.apply).  With ``validate`` the invariant A to_x(U) = C (A U = C
    without ``to_x``) is checked first (uncounted applications); a violated
    invariant raises StaleRecycle and the caller should fall back to a cold
    start.
    """
    op = as_operator(A)
    x, r0, _ = _initial_residual(op, b, x0, Ax0)
    if recycle is None or recycle.k == 0:
        return x, r0
    if validate:
        x_of = to_x or (lambda u: u)
        AU = np.column_stack([op.apply_plain(x_of(recycle.U[:, j]))
                              for j in range(recycle.k)])
        defect = np.linalg.norm(AU - recycle.C)
        if defect > RECYCLE_INVARIANT_TOL * max(np.linalg.norm(recycle.C),
                                                1e-300):
            raise StaleRecycle(f"recycle invariant violated by {defect:.3e}")
    coef = recycle.C.T @ r0
    correction = recycle.U @ coef
    x += correction if to_x is None else to_x(correction)
    r1 = r0 - recycle.C @ coef
    return x, r1


def arnoldi_projected(A, P, r_start, steps, C, U, counter=None):
    """Arnoldi on (I - C C^T) A from r_start over the pair (U, C).

    C heads the basis, so every image is orthogonalized against C with V,
    the coupling block B = C^T A V (flexible: C^T A Z) fills Hbar's head
    rows and C^T V vanishes throughout.  ``P`` may be a stationary handle
    (composed into the operator, no Z stored) or a variable one (flexible,
    Zhat = [U | Z] stored).  Returns the run's ArnoldiState; a breakdown
    leaves fewer than ``steps`` columns and a zero last basis vector.
    """
    flexible = P is not None and P.is_variable
    cycle = _Restarted(A, P, m=C.shape[1] + steps, store_z=flexible,
                       counter=counter)
    return cycle._grow(*cycle._pair_head(r_start, C, U))[0]


def gcro_lsq_blockwise(state, r_prev, inner=None):
    """Blockwise solve of the composite least-squares problem.

    First the inner problem min ||H_inner y - beta e1|| with
    beta = ||(I - C C^T) r_prev||, then the head coordinates
    z = C^T r_prev - B y of the identity head block.  ``inner`` is that
    inner solution (y, rho) when the caller already holds it, as a cycle's
    least-squares monitor does; otherwise it is solved here.  Returns
    (y_full, rho) where y_full stacks [z, y] and rho is the assembled
    residual norm (the head rows cancel exactly).
    """
    Ctr = state.C.T @ r_prev
    if inner is None:
        c = np.zeros(state.width + 1)
        c[0] = np.linalg.norm(r_prev - state.C @ Ctr)
        inner = hessenberg_lsq(state.H_inner, c)
    y, rho = inner
    return np.concatenate([Ctr - state.B @ y, y]), float(rho)


def gcro_harmonic_ritz(state, k):
    """Harmonic Ritz vectors of the recycling cycle's reformulated problem.

    Solves [H_m + h^2 f e_m^T] g = theta * blkdiag(What_{k+1}^T Vhat_{k+1},
    I_{m-k-1}) g for the k pairs of smallest magnitude, where the head block
    carries C^T U and v1^T U.  With an empty recycle space this reduces to
    the standard harmonic problem of the plain cycle.
    """
    Hhat, _, _ = _harmonic(state.Hbar)
    m = state.m
    G = np.zeros((m, m))
    head = state.wtv_head()
    kk = state.k
    G[: kk + 1, : kk + 1] = head
    G[kk + 1:, kk + 1:] = np.eye(m - kk - 1)
    pairs = small_generalized_eig(Hhat, G, min(k, m - 1)).capped(m - 1)
    return pairs.vectors, pairs.values


def _right_triangular_inv(R, X):
    """X @ R^{-1} for upper-triangular R, as one right-side BLAS trsm.

    On a tall X this takes about half the time of solve_triangular on the
    transposed system.
    """
    return dtrsm(1.0, R, X, side=1)


def _polish_pair(C_raw, Y, R):
    """The pair (C, U) from C_raw = A Y R^{-1}, with C orthonormal.

    C_raw is the cycle's composite basis times an orthonormal Q, so it is
    exactly as orthonormal as that basis.  Its Gram defect
    ||I - C_raw^T C_raw||_F, read from the k x k Gram matrix, decides: up
    to POLISH_TOL, C = C_raw and T = R; above it, a QR polish C_raw = C Rc
    restores orthonormality and T = Rc R.  Returns (C, U, T) with
    U = Y T^{-1}, one triangular solve, so A U = C holds either way.
    """
    k = C_raw.shape[1]
    if np.linalg.norm(C_raw.T @ C_raw - np.eye(k)) <= POLISH_TOL:
        C, T = C_raw, R
    else:
        C, Rc = np.linalg.qr(C_raw)
        T = Rc @ R
    return C, _right_triangular_inv(T, Y), T


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


def _update_recycle(state, P_k):
    """The pair of a cycle's factorization A Vhat = What Hbar and P_k.

    What Q is one product over the cycle's [C | V] array, and so is
    Vhat P_k over a flexible cycle's [U | Z]; otherwise Vhat P_k is formed
    block by block, U P_k[:k] + V P_k[k:], since U is not in the basis.
    Returns (space, P_k, T, Q): the pair, P_k after any rank shrink, the
    triangle with U = Vhat P_k T^{-1}, and the image QR's Q, whose span
    What Q is the new C's.
    """
    k = state.k
    Q, R, P_k = _image_qr(state.Hbar, P_k)
    C_raw = state.What @ Q
    if state.Zhat is not None:
        Y = state.Zhat @ P_k
    else:
        Y = state.U @ P_k[:k] + state.tail() @ P_k[k:]
    C_new, U_new, T = _polish_pair(C_raw, Y, R)
    return RecycleSpace(C=C_new, U=U_new), P_k, T, Q


def flexible_strategy_b_pairs(state, k):
    """Closed-form deflation spectrum for the flexible reformulated problem.

    The composite Hhat is block upper triangular with an identity head, so
    lambda = 1 has algebraic multiplicity k with eigenvectors [I_k; 0]; each
    trailing-block eigenpair (lambda, g) extends by the head
    x = -(1 - lambda)^{-1} Btilde g.  Raises StrategyBDegenerate when a
    trailing eigenvalue collides with 1 (caller falls back to the dense
    solve).  Returns (the k smallest pairs cut to at most m - 1 columns,
    the full spectrum).
    """
    kk, w = state.k, state.width
    m = kk + w
    Hhat, _, _ = _harmonic(state.Hbar)
    Btilde = Hhat[:kk, kk:]
    Htilde = Hhat[kk:, kk:]
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
    return full.smallest(k, m - 1), full


class RecyclingSolver(_Restarted):
    """GCRO-DR / FGCRO-DR engine for a sequence of fixed-matrix systems.

    One instance owns the recycled pair and hands it from system to system;
    ``solve`` may be called repeatedly with varying right-hand sides.  A
    stationary preconditioner runs the non-flexible method in the
    preconditioned variable space; a variable preconditioner (or ``m_i``)
    selects the flexible method with deflation strategy A, B or C.

    On the shared restart loop and its cycle this family adds the warm
    start, the current pair as the cycle's head (empty before the first
    refresh, without recycling and after a cold restart), the blockwise
    coordinates ``gcro_lsq_blockwise``, the pair's refresh after every
    cycle unless the solve keeps the pair (``refresh=False``), and drops
    the pair on a cold restart, which a collapsed deflation also triggers.
    The refresh forms the new C as one product over the cycle's [C | V]
    array, polishes C only when its Gram defect asks for it, and on a
    cycle over the previous pair takes the Grassmann distance to it from
    the image QR's coordinates.
    The non-flexible method deflates with strategy B only; asking it for A
    or C raises ValueError.

    ``state_hook(state, cycle)`` receives each completed cycle's
    ArnoldiState, with k = 0 for a cycle over the empty pair;
    ``cycle_hook(info)`` receives a dict with the current C, residual,
    solution and relative residuals.  ``stop_rule`` on :meth:`solve` is
    called at cycle ends with (cycle_index, previous_rel, rel) and ends the
    solve when it returns True.
    """

    safeguard_eps = DEFAULT_SAFEGUARD_EPS
    breakdown_stops = False

    def __init__(self, A, P=None, *, m, k, flexible=False, strategy="B",
                 m_i=None, tol=1e-8, max_matvecs=500_000, record=None,
                 counter=None, state_hook=None, cycle_hook=None):
        op = as_operator(A, counter)
        P = _with_inner_gmres(op, P, m_i)
        flexible = flexible or (P is not None and P.is_variable)
        family = "fgcrodr" if flexible else "gcrodr"
        _check_size(family, m, k, m_i)
        _check_strategy(family, strategy)
        super().__init__(op, P, m=m, tol=tol, max_matvecs=max_matvecs,
                         store_z=flexible, record=record,
                         state_hook=state_hook)
        self.k = k
        self.cycle_hook = cycle_hook
        self.flexible = flexible
        self.strategy = strategy
        self.recycle = None
        self.W = None  # strategy C auxiliary basis, paired with recycle
        self.prev_C = None
        self._space = None  # recycled pair the next cycle projects against
        self._system_index = 0
        self._refresh = True  # the running solve's ``refresh``

    # -- deflation --------------------------------------------------------

    def _deflate(self, state):
        """Retained eigenvector coordinates P_k of a projected cycle.

        GMRES-DR's selectors pick the pairs here too: a cycle over the
        empty pair, whatever the strategy, and a flexible strategy B whose
        closed form degenerates take ``harmonic_ritz_standard``, and
        strategy A takes ``harmonic_ritz_strategy_a`` (What^T Vhat from the
        cycle's bases).  Strategy C, and B without flexibility, solve the
        reformulated problem of ``gcro_harmonic_ritz``.
        """
        k_max = state.m - 1
        if not state.k:
            return harmonic_ritz_standard(state, self.k, k_max)[0].vectors
        if self.strategy == "A":
            return harmonic_ritz_strategy_a(state, self.k, k_max)[0].vectors
        if self.flexible and self.strategy == "B":
            try:
                pairs, _ = flexible_strategy_b_pairs(state, self.k)
            except StrategyBDegenerate:
                pairs, _, _ = harmonic_ritz_standard(state, self.k, k_max)
            return pairs.vectors
        if self.strategy == "C":
            # The head block pairs [C v1] with W in place of U.
            state = replace(state, U=self.W)
        P_k, _ = gcro_harmonic_ritz(state, self.k)
        return P_k

    # -- the family's part of the restart loop ------------------------------

    def solve(self, b, x0=None, use_recycle=True, stop_rule=None,
              refresh=True, Ax0=None):
        """Solve A x = b, recycling the retained subspace when allowed.

        With ``refresh`` False the pair is kept: a cycle that ran over a
        non-empty pair skips the refresh and reports no d_p.  A cycle over
        the empty pair (the first system, or after a cold restart) still
        builds one.  ``Ax0`` is the image A x0 when the caller holds it
        (see ``_Restarted.solve``).
        """
        self._system_index += 1
        self._space = self.recycle if use_recycle else None
        self._refresh = refresh
        return super().solve(b, x0, stop_rule, Ax0)

    def _start(self, b, x0, Ax0):
        if self._space is None or not self._space.k:
            return super()._start(b, x0, Ax0)
        x, r = warm_start(self.op, self._space, b, x0, validate=False,
                          to_x=None if self.flexible else self.P.apply,
                          Ax0=Ax0)
        return x, r, None, "recycle_start"  # x moved by U C^T r0, unimaged

    def _head(self, r):
        if self._space is None:
            return super()._head(r)
        return self._pair_head(r, self._space.C, self._space.U)

    def _coordinates(self, state, r, lsq):
        # The monitor's c[0] is the blockwise beta, computed the same way
        # from the same r, so its (y, rho) is the inner solution.
        return gcro_lsq_blockwise(state, r, lsq.solve())

    def _cycle_end(self, state, breakdown, cycle, x, r, rel_true, rel_lsq):
        d_pair = None
        if self._refresh or not state.k:
            d_pair = self._refresh_spaces(state)
        if self.cycle_hook is not None:
            self.cycle_hook({
                "system": self._system_index, "cycle": cycle,
                "C": None if self.recycle is None else self.recycle.C,
                "r": r, "x": x, "rel_true": rel_true, "rel_lsq": rel_lsq,
            })
        self._space = self.recycle
        return d_pair

    def _forget(self):
        # Rounding detached the short residual update from the truth, or
        # deflation collapsed: discard all recycled information.
        self.recycle = self.W = self._space = None

    # -- recycle-space maintenance -----------------------------------------

    def _refresh_spaces(self, state):
        """Update (C, U) from the completed cycle; returns (d_p, p) or None."""
        k = state.k
        try:
            new_space, P_k, T, Q = _update_recycle(state, self._deflate(state))
            if self.strategy == "C":
                # W takes U's coefficients, polish included, so the head
                # block [C v1]^T [W v1] pairs each C column with its own.
                W_m = state.V[:, : state.width] @ P_k[k:]
                if k:
                    W_m = self.W @ P_k[:k] + W_m
                self.W = _right_triangular_inv(T, W_m)
        except (SingularHm, RankDeficient, SingularPencil, NoConvergence):
            # Deflation collapsed: a cold restart, so the next cycle runs
            # over the empty pair.
            self._cold_restart()
            return None
        d_pair = None
        # Over an empty pair there are no principal angles to measure.
        if self.prev_C is not None and self.prev_C.shape[1] and new_space.k:
            if k:
                # The cycle ran over the previous pair: in the coordinates
                # of [C V] the old C is [I; 0] and the new one spans Q.
                dist = _head_distance(Q, k)
            else:
                # Both bases come from _polish_pair, orthonormal.
                dist = _grassmann_distance_unchecked(self.prev_C,
                                                     new_space.C)
            d_pair = (dist.d_p, dist.p)
        self.prev_C = new_space.C
        self.recycle = new_space
        return d_pair


def gcrodr_solve(A, P, sequence, *, m, k, tol=1e-8, max_matvecs=500_000,
                 recycle_from=2, record=None, counter=None, cycle_hook=None):
    """GCRO-DR(m, k) over a sequence of (b, x0) with one fixed matrix.

    ``recycle_from`` is the 1-based system index from which the retained
    subspace may be consumed (None disables recycling); the matvec budget
    applies per system.  Returns a list of (x, report).
    """
    solver = RecyclingSolver(
        A, P, m=m, k=k, flexible=False, tol=tol, max_matvecs=max_matvecs,
        record=record, counter=counter, cycle_hook=cycle_hook)
    return _run_sequence(solver, sequence, recycle_from)


def fgcrodr_solve(A, Ms, sequence, *, m, k, m_i=None, strategy="B", tol=1e-8,
                  max_matvecs=500_000, recycle_from=2, record=None,
                  counter=None, cycle_hook=None):
    """FGCRO-DR(m, m_i, k) with deflation strategy A, B or C.

    As :func:`gcrodr_solve` but with a variable preconditioner; when ``Ms``
    is stationary and ``m_i`` is given, an inner un-restarted GMRES(m_i)
    preconditioner is built around it.
    """
    solver = RecyclingSolver(
        A, Ms, m=m, k=k, flexible=True, strategy=strategy, m_i=m_i, tol=tol,
        max_matvecs=max_matvecs, record=record, counter=counter,
        cycle_hook=cycle_hook)
    return _run_sequence(solver, sequence, recycle_from)


def _run_sequence(solver, sequence, recycle_from):
    results = []
    for idx, (b, x0) in enumerate(sequence, start=1):
        solver.record.system_index = idx
        use = recycle_from is not None and idx >= recycle_from
        x, report = solver.solve(b, x0, use_recycle=use)
        results.append((x, report))
    return results
