"""GMRES(m), FGMRES(m, m_i) and deflated-restarting variants.

Holds the restart loop that every solver family shares (``_Restarted``,
which as it stands is restarted GMRES(m) with a fixed right preconditioner),
the flexible Arnoldi cycle, harmonic Ritz extraction (deflation strategies
A and B), the closed-form restart residual direction, and GMRES-DR /
FGMRES-DR, whose cycles start from the carried harmonic Ritz restart under
the relative-discrepancy cold-restart safeguard.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import RankDeficient, SingularHm, SingularPencil, NoConvergence
from .operators import (
    BREAKDOWN_TOL,  # noqa: F401  (kept importable from this module)
    IdentityPreconditioner,
    InnerGmresPreconditioner,
    _extend_arnoldi,
    as_operator,
)
from .records import ConvergenceRecord, SolveReport
from .smallalg import (
    hessenberg_lsq,
    reduced_qr,
    small_generalized_eig,
    small_standard_eig,
)

DEFAULT_SAFEGUARD_EPS = 0.05  # cold restart at 5% true-vs-lsq discrepancy
STAGNATION_CYCLES = 3


@dataclass
class ArnoldiState:
    """One (flexible) Arnoldi factorization: A Z = V Hbar, c the lsq rhs.

    ``Z`` is None for stationary right preconditioning where the solution
    basis is the preconditioned image of V and is never stored.
    """

    V: np.ndarray
    Z: np.ndarray | None
    Hbar: np.ndarray
    c: np.ndarray
    j: int

    @property
    def delta(self):
        """Trailing subdiagonal entry h_{j+1,j}."""
        return float(self.Hbar[self.j, self.j - 1])

    def square_block(self):
        return self.Hbar[: self.j, : self.j]


@dataclass
class DeflationSubspace:
    """Retained harmonic Ritz directions plus the orthonormalized restart map.

    ``Pk`` holds the raw (real-stored) eigenvector columns, ``Pk1`` the
    QR-orthonormalized (m+1) x (k+1) restart matrix whose extra column is the
    least-squares residual direction, ``f`` the solve H^{-T} e_m, and ``VtZ``
    the cached full V^T Z product when strategy A is in use.
    """

    Pk: np.ndarray
    Pk1: np.ndarray
    f: np.ndarray
    strategy: str
    values: np.ndarray
    VtZ: np.ndarray | None = None

    @property
    def k(self):
        return self.Pk1.shape[1] - 1


class _LsqQR:
    """Incrementally updated QR for min ||c - H y|| with a dense leading block.

    After a deflated restart the first k+1 rows of H are dense, so plain
    Givens recursion on the subdiagonal is not enough; this keeps H in
    factored form and appends one column (and one row) per Arnoldi step.
    """

    def __init__(self, H0):
        rows, cols = H0.shape
        if cols == 0:
            self.Q = np.eye(rows)
            self.R = np.zeros((rows, 0))
        else:
            self.Q, self.R = scipy.linalg.qr(H0)

    @property
    def width(self):
        return self.R.shape[1]

    def add_column(self, hcol):
        j = self.width
        rows = self.Q.shape[0]
        Q2 = np.zeros((rows + 1, rows + 1))
        Q2[:rows, :rows] = self.Q
        Q2[rows, rows] = 1.0
        R2 = np.zeros((rows + 1, j))
        R2[:rows, :] = self.R
        self.Q, self.R = scipy.linalg.qr_insert(
            Q2, R2, hcol, j, which="col", overwrite_qru=True, check_finite=False
        )

    def residual_norm(self, c):
        chat = self.Q.T @ c
        return float(np.linalg.norm(chat[self.width:]))

    def solve(self, c):
        chat = self.Q.T @ c
        w = self.width
        rho = float(np.linalg.norm(chat[w:]))
        if w == 0:
            return np.zeros(0), rho
        diag = np.abs(np.diag(self.R[:w, :w]))
        if diag.min() <= 1e-14 * max(diag.max(), 1e-300):
            y, *_ = np.linalg.lstsq(self.R[:w, :w], chat[:w], rcond=None)
        else:
            y = scipy.linalg.solve_triangular(self.R[:w, :w], chat[:w])
        return y, rho


def _initial_residual(op, b, x0):
    """(x, b - A x) for the initial guess; a missing or zero x0 costs no matvec."""
    if x0 is None or not np.any(x0):
        return np.zeros(op.dim), np.asarray(b, dtype=float).copy()
    x = np.array(x0, dtype=float, copy=True)
    return x, b - op(x)


class _Restarted:
    """Restarted minimal-residual solver: the one restart loop of the library.

    As it stands this is GMRES(m) with plain cycles and no safeguard.
    :meth:`solve` owns the initial residual, the matvec budget, the true
    residual at each cycle end, the history rows, ``state_hook``, stall
    counting, the stop rule, the cold-restart safeguard, the breakdown stop
    and the SolveReport.  A solver family overrides only what differs:
    ``_start`` (initial guess), ``_monitor`` (least-squares residual per
    Arnoldi step), ``_cycle`` (one cycle's correction), ``_cycle_end`` (what
    the next cycle keeps) and ``_forget`` (what a cold restart drops).

    With ``store_z`` the preconditioned basis Z is kept and ``P`` may be a
    variable (flexible) preconditioner; otherwise P is composed into the
    operator and corrections are mapped back through it.
    """

    safeguard_eps = None  # no cold-restart safeguard in GMRES(m)
    # A plain cycle that broke down without progress would rebuild the same
    # space; deflated and recycling cycles restart from a different one.
    breakdown_stops = True

    def __init__(self, A, P, *, m, tol=1e-8, max_matvecs=10_000, reorth=True,
                 store_z=False, record=None, counter=None, state_hook=None):
        self.op = op = as_operator(A, counter)
        self.P = P = P or IdentityPreconditioner()
        self.store_z = store_z
        self._apply = op if store_z else lambda v: op(P.apply(v))
        self.m = m
        self.tol = tol
        self.max_matvecs = max_matvecs
        self.reorth = reorth
        self.record = record if record is not None else ConvergenceRecord()
        self.state_hook = state_hook
        self.iterations = 0
        self.cold_restarts = 0
        self._step = None  # per-step callback of the running solve

    # -- the restart loop ---------------------------------------------------

    def solve(self, b, x0=None, stop_rule=None):
        """Solve A x = b; returns (x, SolveReport).

        ``stop_rule(cycle, previous_rel, rel)`` is called at each cycle end
        with the 1-based cycle count and ends the solve when it returns True.
        """
        op, record, tol = self.op, self.record, self.tol
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            return np.zeros(op.dim), SolveReport(True, 0, 0, 0, 0.0, 0.0,
                                                 history=record)
        start_count = op.counter.count
        x, r, event = self._start(b, x0)
        rel_true = rel_lsq = np.linalg.norm(r) / bnorm
        iter_start = self.iterations
        self.cold_restarts = 0
        cycle = stalled = 0
        stop_reason = "converged"
        prev_rel = None

        def step(width, rho):
            self.iterations += 1
            rel = rho(width) / bnorm
            record.append(cycle, self.iterations, op.counter.count, rel)
            return (rel <= self.tol
                    or op.counter.count - start_count >= self.max_matvecs)

        self._step = step
        while True:
            if rel_true <= tol:
                break
            if op.counter.count - start_count >= self.max_matvecs:
                stop_reason = "budget"
                break
            state, dx, rho, breakdown = self._cycle(r)
            x += dx
            r = b - op(x)
            new_rel = np.linalg.norm(r) / bnorm
            rel_lsq = rho / bnorm
            record.append(cycle, self.iterations, op.counter.count, rel_lsq,
                          true_rel=new_rel, event=event or "restart")
            event = None
            if self.state_hook is not None:
                self.state_hook(state, cycle)
            stalled = stalled + 1 if new_rel >= rel_true * (1 - 1e-12) else 0
            self._cycle_end(state, breakdown, cycle, x, r, new_rel, rel_lsq)
            cycle += 1
            if stop_rule is not None and stop_rule(cycle, prev_rel, new_rel):
                rel_true = new_rel
                stop_reason = "triggered"
                break
            prev_rel = rel_true = new_rel
            if rel_true <= tol:
                break
            if self.breakdown_stops and breakdown and stalled:
                stop_reason = "breakdown"
                break
            # Cold-restart safeguard: when rounding has detached the cheap
            # least-squares residual from the true one, drop all spectral
            # information and restart from the explicit residual.
            if self.safeguard_eps is not None and new_rel > 0 \
                    and abs(new_rel - rel_lsq) / new_rel > self.safeguard_eps:
                self._cold_restart()
        self._step = None
        converged = rel_true <= tol
        return x, SolveReport(
            converged, self.iterations - iter_start,
            op.counter.count - start_count, cycle, rel_lsq, rel_true,
            stop_reason=stop_reason if not converged else "converged",
            cold_restarts=self.cold_restarts,
            stagnation=stalled >= STAGNATION_CYCLES, history=record)

    def _cold_restart(self):
        self.cold_restarts += 1
        self.record.mark_event("cold_restart")
        self._forget()

    # -- what a family overrides --------------------------------------------

    def _start(self, b, x0):
        """Initial (x, r) and the event of the first cycle-end row."""
        return (*_initial_residual(self.op, b, x0), None)

    def _monitor(self, Hbar, c, j0):
        """Least-squares residual norm at each width: Givens from scratch."""
        return lambda width: hessenberg_lsq(Hbar[: width + 1, :width],
                                            c[: width + 1])[1]

    def _cycle(self, r):
        """One plain cycle from r: (state, dx, lsq residual, breakdown)."""
        state, _, breakdown = self._krylov_basis(r, self.m)
        y, rho = hessenberg_lsq(state.Hbar, state.c)
        return state, self._correction(state, y), rho, breakdown

    def _cycle_end(self, state, breakdown, cycle, x, r, rel_true, rel_lsq):
        """Called after each cycle-end row, before the stop rule."""

    def _forget(self):
        """Drop what a cold restart discards; plain cycles keep nothing."""

    # -- Arnoldi ---------------------------------------------------------------

    def _krylov_basis(self, start, steps, C=None):
        """Arnoldi from ``start``, on (I - C C^T) A when C is given.

        Returns (state, B, breakdown): the cycle's ArnoldiState (Z stored
        with ``store_z``) and the coupling block B = C^T A V (C^T A Z when
        Z is stored).
        """
        kc = 0 if C is None else C.shape[1]
        if kc:
            # Project the start vector too: near convergence the residual's
            # rounding-level components along C are no longer small relative
            # to its norm and would degrade the orthogonality of [C V].
            start = start - C @ (C.T @ start)
        beta = np.linalg.norm(start)
        if beta == 0.0:
            raise ValueError("Arnoldi needs a nonzero start vector")
        V, Z, Hbar, c = self._allocate(steps)
        B = np.zeros((kc, steps))
        V[:, 0] = start / beta
        c[0] = beta
        return self._grow(V, Z, Hbar, c, 0, C, B)

    def _allocate(self, steps):
        n = self.op.dim
        return (np.empty((n, steps + 1)),
                np.empty((n, steps)) if self.store_z else None,
                np.zeros((steps + 1, steps)), np.zeros(steps + 1))

    def _grow(self, V, Z, Hbar, c, j0, C=None, B=None):
        """Extend a factorization of width j0 to full width (or breakdown)."""
        rho = self._monitor(Hbar, c, j0)
        step = self._step
        width, breakdown = _extend_arnoldi(
            self._apply, self.P if self.store_z else None, V, Z, Hbar, j0,
            Hbar.shape[1], C=C, B=B, reorth=self.reorth,
            step_cb=None if step is None else lambda w: step(w, rho))
        state = ArnoldiState(V[:, : width + 1],
                             None if Z is None else Z[:, :width],
                             Hbar[: width + 1, :width], c[: width + 1], width)
        return state, None if B is None else B[:, :width], breakdown

    def _correction(self, state, y):
        """x-space correction of basis coordinates y."""
        if self.store_z:
            return state.Z @ y
        return self.P.apply(state.V[:, : state.j] @ y)


def fgmres_cycle(A, Ms, r0, m, reorth=True, counter=None):
    """One cycle of flexible Arnoldi (modified Gram-Schmidt) from r0.

    Returns the ArnoldiState; happy breakdown yields a truncated state.  A
    second orthogonalization pass is on by default, as used by the deflated
    solvers.
    """
    cycle = _Restarted(A, Ms, m=m, reorth=reorth, store_z=True,
                       counter=counter)
    state, _, _ = cycle._krylov_basis(r0, m)
    return state


def gmres_solve(A, P, b, x0=None, *, m, tol=1e-8, max_matvecs=10_000,
                reorth=False, record=None, cycle_stop=None, counter=None):
    """Restarted GMRES(m) with a fixed right preconditioner.

    The least-squares residual steers the inner iteration; convergence is
    verified against the true residual at every cycle end.  Returns
    (x, SolveReport).
    """
    if P is not None and P.is_variable:
        raise ValueError("gmres_solve needs a stationary preconditioner")
    solver = _Restarted(A, P, m=m, tol=tol, max_matvecs=max_matvecs,
                        reorth=reorth, record=record, counter=counter)
    return solver.solve(b, x0, cycle_stop)


def restart_residual_vector(state, y):
    """Closed-form direction of the small least-squares residual c - Hbar y.

    Returns (direction, scale) with direction = (-delta f, 1) and scale
    (omega - delta f.v) / (1 + delta^2 f.f), so that c - Hbar y equals
    direction * scale; here f = H^{-T} e_m, delta = h_{m+1,m}, v the leading
    m entries of c and omega its last entry.  Using this vector instead of
    the explicitly subtracted residual curbs rounding-error growth at
    restart (Rollin & Fichtner).
    """
    j = state.j
    H = state.square_block()
    delta = state.delta
    f = _solve_ht_em(H)
    v = state.c[:j]
    omega = state.c[j]
    direction = np.concatenate([-delta * f, [1.0]])
    scale = (omega - delta * (f @ v)) / (1.0 + delta**2 * (f @ f))
    return direction, float(scale)


def _solve_ht_em(H):
    em = np.zeros(H.shape[0])
    em[-1] = 1.0
    try:
        return np.linalg.solve(H.T, em)
    except np.linalg.LinAlgError as exc:
        raise SingularHm(str(exc)) from exc


def _augmented_restart_basis(Pk, f, delta, k_max):
    """Orthonormalize [[Pk; 0], (-delta f, 1)] into the restart map."""
    m = Pk.shape[0]
    kk = Pk.shape[1]
    if kk > k_max:
        raise RankDeficient(k_max, "deflation basis exceeds cycle size")
    raw = np.zeros((m + 1, kk + 1))
    raw[:m, :kk] = Pk
    raw[:m, kk] = -delta * f
    raw[m, kk] = 1.0
    Pk1, _ = reduced_qr(raw)
    return Pk1


def _fitting_pairs(eig, k, k_max):
    """``eig(request)`` for the largest request <= min(k, k_max) that fits.

    A request may return one pair more than asked for when the cut would
    split a conjugate pair; the request shrinks until at most k_max pairs
    come back (or it reaches 1).
    """
    request = min(k, k_max)
    pairs = eig(request)
    while len(pairs) > k_max and request > 1:
        request -= 1
        pairs = eig(request)
    return pairs


def harmonic_ritz_standard(state, k, k_max=None):
    """Deflation strategy B: harmonic Ritz pairs from the standard problem.

    Solves (H + h_{m+1,m}^2 H^{-T} e_m e_m^T) g = lambda g for the k
    smallest-magnitude pairs (k+1 when a conjugate pair would split) and
    augments them with the restart residual direction.
    """
    j = state.j
    H = state.square_block()
    delta = state.delta
    f = _solve_ht_em(H)
    Hhat = H + delta**2 * np.outer(f, _unit(j, j - 1))
    k_max = k_max if k_max is not None else j
    pairs = _fitting_pairs(lambda request: small_standard_eig(Hhat, request),
                           k, k_max)
    Pk1 = _augmented_restart_basis(pairs.vectors, f, delta, k_max)
    return DeflationSubspace(Pk=pairs.vectors, Pk1=Pk1, f=f, strategy="B",
                             values=pairs.values)


def harmonic_ritz_strategy_a(state, k, cached_VtZ=None, k_max=None):
    """Deflation strategy A: harmonic Ritz pairs over the solution basis Z.

    Solves [H + h^2 f e_m^T] g = lambda [I  h f] V^T Z g, where the full
    (m+1) x m product V^T Z may be supplied from the previous cycle's cache;
    its leading block is then maintained by the restart recursion instead of
    full-length inner products.
    """
    if state.Z is None:
        raise ValueError("strategy A needs the stored solution basis Z")
    j = state.j
    VtZ = cached_VtZ if cached_VtZ is not None else state.V.T @ state.Z
    H = state.square_block()
    delta = state.delta
    f = _solve_ht_em(H)
    L = H + delta**2 * np.outer(f, _unit(j, j - 1))
    R = VtZ[:j, :] + delta * np.outer(f, VtZ[j, :])
    k_max = k_max if k_max is not None else j
    pairs = _fitting_pairs(lambda request: small_generalized_eig(L, R, request),
                           k, k_max)
    Pk1 = _augmented_restart_basis(pairs.vectors, f, delta, k_max)
    return DeflationSubspace(Pk=pairs.vectors, Pk1=Pk1, f=f, strategy="A",
                             values=pairs.values, VtZ=VtZ)


def _unit(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


class _DeflatedRestart(_Restarted):
    """GMRES-DR / FGMRES-DR: each cycle starts from the harmonic Ritz
    restart carried over from the previous full cycle.

    After a deflated restart the leading k+1 rows of Hbar are dense, so the
    least-squares monitor is the incrementally updated QR ``_LsqQR``.
    """

    breakdown_stops = False

    def __init__(self, A, P, *, k, strategy, safeguard_eps, **kwargs):
        super().__init__(A, P, **kwargs)
        self.k = k
        self.strategy = strategy
        self.safeguard_eps = safeguard_eps
        self._carry = None  # (last full cycle's state, its V^T Z head block)

    def _monitor(self, Hbar, c, j0):
        # The cycle's final least-squares solve reuses this factorization.
        self._lsq = lsq = _LsqQR(Hbar[: j0 + 1, :j0])

        def rho(width):
            lsq.add_column(Hbar[: width + 1, width - 1])
            return lsq.residual_norm(c[: width + 1])

        return rho

    def _cycle(self, r):
        head = self._restart_head(r)
        if head is None:
            state, _, breakdown = self._krylov_basis(r, self.m)
            VtZ_head = None
        else:
            V, Z, Hbar, c, kk, VtZ_head = head
            state, _, breakdown = self._grow(V, Z, Hbar, c, kk)
        self._carry = (state, VtZ_head)
        y, rho = self._lsq.solve(state.c)
        return state, self._correction(state, y), rho, breakdown

    def _cycle_end(self, state, breakdown, *_):
        if breakdown or state.j < self.m:
            # A truncated basis cannot be compacted consistently; restart
            # plainly from the current residual.
            self._carry = None

    def _forget(self):
        self._carry = None

    def _restart_head(self, r):
        """Leading block of the next factorization, or None for a plain start."""
        if self._carry is None:
            return None
        prev, VtZ_head = self._carry
        m, k = self.m, self.k
        try:
            if self.strategy == "A":
                defl = harmonic_ritz_strategy_a(
                    prev, k, cached_VtZ=self._full_vtz(prev, VtZ_head),
                    k_max=prev.j - 1)
            else:
                defl = harmonic_ritz_standard(prev, k, k_max=prev.j - 1)
        except (SingularHm, RankDeficient, SingularPencil, NoConvergence):
            self._cold_restart()
            return None
        Pk1 = defl.Pk1
        kk = defl.k
        Pbar_k = Pk1[:m, :kk]
        V, Z, Hbar, c = self._allocate(m)
        V[:, : kk + 1] = prev.V @ Pk1
        if Z is not None:
            Z[:, :kk] = prev.Z @ Pbar_k
        Hbar[: kk + 1, :kk] = Pk1.T @ prev.Hbar @ Pbar_k
        c[: kk + 1] = V[:, : kk + 1].T @ r
        VtZ_head = (Pk1.T @ defl.VtZ) @ Pbar_k if self.strategy == "A" else None
        return V, Z, Hbar, c, kk, VtZ_head

    def _full_vtz(self, state, head):
        """V^T Z of a full strategy-A cycle, its restart head block cached."""
        if self.k == 0:
            return None
        m = self.m
        V, Z = state.V, state.Z
        VtZ = np.empty((m + 1, m))
        if head is not None:
            kk = head.shape[1]
            VtZ[: kk + 1, :kk] = head
            VtZ[kk + 1:, :kk] = V[:, kk + 1:].T @ Z[:, :kk]
            VtZ[:, kk:] = V.T @ Z[:, kk:]
        else:
            VtZ[:] = V.T @ Z
        return VtZ


def _dr_solve(A, P, b, x0=None, *, flexible, m, k, strategy="B", tol=1e-8,
              max_matvecs=50_000, safeguard_eps=DEFAULT_SAFEGUARD_EPS,
              reorth=True, record=None, state_hook=None, cycle_stop=None,
              counter=None):
    """Shared deflated-restart driver for GMRES-DR and FGMRES-DR."""
    if not 0 <= k < m:
        raise ValueError("deflation size k must satisfy 0 <= k < m")
    if not flexible and P is not None and P.is_variable:
        raise ValueError("non-flexible solve needs a stationary preconditioner")
    # Strategy A needs V^T Z, so the preconditioned basis is stored
    # explicitly; strategy B keeps Z implicit and halves the memory.
    solver = _DeflatedRestart(
        A, P, m=m, k=k, strategy=strategy, tol=tol, max_matvecs=max_matvecs,
        safeguard_eps=safeguard_eps, reorth=reorth,
        store_z=flexible or strategy == "A", record=record, counter=counter,
        state_hook=state_hook)
    return solver.solve(b, x0, cycle_stop)


def gmresdr_solve(A, P, b, x0=None, *, m, k, strategy="B", tol=1e-8,
                  max_matvecs=50_000, safeguard_eps=DEFAULT_SAFEGUARD_EPS,
                  reorth=True, record=None, state_hook=None, cycle_stop=None,
                  counter=None):
    """GMRES-DR(m, k) with a stationary right preconditioner."""
    return _dr_solve(A, P, b, x0, flexible=False, m=m, k=k, strategy=strategy,
                     tol=tol, max_matvecs=max_matvecs,
                     safeguard_eps=safeguard_eps, reorth=reorth, record=record,
                     state_hook=state_hook, cycle_stop=cycle_stop,
                     counter=counter)


def fgmresdr_solve(A, Ms, b, x0=None, *, m, k, m_i=None, strategy="B",
                   tol=1e-8, max_matvecs=50_000,
                   safeguard_eps=DEFAULT_SAFEGUARD_EPS, reorth=True,
                   record=None, state_hook=None, cycle_stop=None,
                   counter=None):
    """FGMRES-DR(m, m_i, k) with a variable right preconditioner.

    When ``Ms`` is stationary (or None) and ``m_i`` is given, an inner
    un-restarted GMRES(m_i) preconditioner is built around it, sharing the
    operator's matvec counter.
    """
    op = as_operator(A, counter)
    if (Ms is None or not Ms.is_variable) and m_i is not None:
        Ms = InnerGmresPreconditioner(op, m_i, inner=Ms)
    return _dr_solve(op, Ms, b, x0, flexible=True, m=m, k=k, strategy=strategy,
                     tol=tol, max_matvecs=max_matvecs,
                     safeguard_eps=safeguard_eps, reorth=reorth, record=record,
                     state_hook=state_hook, cycle_stop=cycle_stop)
