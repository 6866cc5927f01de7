"""GMRES(m), FGMRES(m, m_i) and deflated-restarting variants.

Holds the restart loop that every solver family shares (``_Restarted``,
which as it stands is restarted GMRES(m) with a fixed right preconditioner),
the flexible Arnoldi cycle, harmonic Ritz extraction (deflation strategies
A and B), the closed-form restart residual direction, and GMRES-DR /
FGMRES-DR, whose cycles start from the carried harmonic Ritz restart under
the relative-discrepancy cold-restart safeguard.  Every cycle tracks its
least-squares residual with one monitor, ``smallalg.HessenbergLsq``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient, SingularHm, SingularPencil, NoConvergence
from .operators import (
    IdentityPreconditioner,
    InnerGmresPreconditioner,
    _extend_arnoldi,
    as_operator,
)
from .records import ConvergenceRecord, SolveReport
from .smallalg import (
    HessenbergLsq,
    reduced_qr,
    small_generalized_eig,
    small_standard_eig,
)

DEFAULT_SAFEGUARD_EPS = 0.05  # cold restart at 5% true-vs-lsq discrepancy
STAGNATION_CYCLES = 3

# The deflation strategies of each solver family.  GMRES(m) deflates nothing
# and takes only the default B; C needs FGCRO-DR's recycled pair.
FAMILY_STRATEGIES = {
    "gmres": ("B",),
    "gmresdr": ("A", "B"),
    "fgmresdr": ("A", "B"),
    "gcrodr": ("B",),
    "fgcrodr": ("A", "B", "C"),
}

# The name under which perfbench/layers.py traces the least-squares monitor.
_LsqQR = HessenbergLsq


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
    least-squares residual direction and ``f`` the solve H^{-T} e_m.
    """

    Pk: np.ndarray
    Pk1: np.ndarray
    f: np.ndarray
    strategy: str
    values: np.ndarray

    @property
    def k(self):
        return self.Pk1.shape[1] - 1


def _check_strategy(family, strategy):
    """Raise ValueError unless ``family`` is known and takes ``strategy``."""
    if family not in FAMILY_STRATEGIES:
        raise ValueError(f"unknown solver family {family!r}")
    accepted = FAMILY_STRATEGIES[family]
    if strategy not in accepted:
        raise ValueError(f"{family} has no deflation strategy {strategy!r}; "
                         f"it takes {', '.join(accepted)}")


def _with_inner_gmres(op, P, m_i):
    """P, or inner GMRES(m_i) around it when m_i is given and P stationary."""
    if m_i is None or (P is not None and P.is_variable):
        return P
    return InnerGmresPreconditioner(op, m_i, inner=P)


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
    and the SolveReport.  Every cycle grows its Arnoldi factorization from
    a head, the leading block the cycle starts with.  A solver family
    overrides only what differs: ``_start`` (initial guess), ``_head`` (the
    block the cycle grows from), ``_cycle`` (one cycle's correction),
    ``_cycle_end`` (what the next cycle keeps) and ``_forget`` (what a cold
    restart drops).

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
        Non-finite ``b`` or ``x0`` raises ValueError before any matvec.
        """
        op, record, tol = self.op, self.record, self.tol
        for name, v in (("b", b), ("x0", x0)):
            if v is not None and not np.all(np.isfinite(v)):
                raise ValueError(f"{name} has non-finite entries")
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

        def step(rho):
            self.iterations += 1
            rel = rho / bnorm
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

    def _head(self, r):
        """Arguments of :meth:`_grow` for the next cycle; here r alone."""
        return self._basis_head(r, self.m)

    def _cycle(self, r):
        """One cycle from r: (state, dx, lsq residual, breakdown)."""
        state, _, lsq, breakdown = self._grow(*self._head(r))
        y, rho = lsq.solve()
        return state, self._correction(state, y), rho, breakdown

    def _cycle_end(self, state, breakdown, cycle, x, r, rel_true, rel_lsq):
        """Called after each cycle-end row, before the stop rule."""

    def _forget(self):
        """Drop what a cold restart discards; plain cycles keep nothing."""

    # -- Arnoldi ---------------------------------------------------------------

    def _basis_head(self, start, steps, C=None):
        """Head of an Arnoldi of ``steps`` steps from ``start`` alone.

        On (I - C C^T) A when C is given; :meth:`_grow` then accumulates the
        coupling block B = C^T A V (C^T A Z when Z is stored).
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
        return V, Z, Hbar, c, 0, C, B

    def _allocate(self, steps):
        n = self.op.dim
        # Zeroed, since a breakdown leaves the state's last V column unwritten.
        return (np.zeros((n, steps + 1), order="F"),
                np.empty((n, steps), order="F") if self.store_z else None,
                np.zeros((steps + 1, steps)), np.zeros(steps + 1))

    def _grow(self, V, Z, Hbar, c, j0, C=None, B=None):
        """Extend a factorization of width j0 to full width (or breakdown).

        Returns (state, B, lsq, breakdown): the cycle's ArnoldiState (Z
        stored with ``store_z``), the coupling block cut to the grown width
        (None without one) and the cycle's least-squares monitor.
        """
        lsq = HessenbergLsq(Hbar, c, j0)
        step = self._step

        def grown(width):
            lsq.add_column()
            return step is not None and step(lsq.residual_norm())

        width, breakdown = _extend_arnoldi(
            self._apply, self.P if self.store_z else None, V, Z, Hbar, j0,
            Hbar.shape[1], C=C, B=B, reorth=self.reorth, step_cb=grown)
        state = ArnoldiState(V[:, : width + 1],
                             None if Z is None else Z[:, :width],
                             Hbar[: width + 1, :width], c[: width + 1], width)
        return state, None if B is None else B[:, :width], lsq, breakdown

    def _correction(self, state, y):
        """x-space correction of basis coordinates y."""
        if self.store_z:
            return state.Z @ y
        return self.P.apply(state.V[:, : state.j] @ y)


def fgmres_cycle(A, Ms, r0, m, counter=None):
    """One cycle of flexible Arnoldi from r0, orthogonalized by block CGS2.

    Returns the ArnoldiState; happy breakdown yields a truncated state.
    """
    cycle = _Restarted(A, Ms, m=m, store_z=True, counter=counter)
    return cycle._grow(*cycle._head(r0))[0]


def gmres_solve(A, P, b, x0=None, *, m, tol=1e-8, max_matvecs=10_000,
                record=None, cycle_stop=None, counter=None):
    """Restarted GMRES(m) with a fixed right preconditioner.

    The least-squares residual steers the inner iteration; convergence is
    verified against the true residual at every cycle end.  Returns
    (x, SolveReport).
    """
    if P is not None and P.is_variable:
        raise ValueError("gmres_solve needs a stationary preconditioner")
    solver = _Restarted(A, P, m=m, tol=tol, max_matvecs=max_matvecs,
                        record=record, counter=counter)
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
    _, f, delta = _harmonic(state.Hbar)
    v = state.c[:j]
    omega = state.c[j]
    direction = np.concatenate([-delta * f, [1.0]])
    scale = (omega - delta * (f @ v)) / (1.0 + delta**2 * (f @ f))
    return direction, float(scale)


def _harmonic(Hbar):
    """Harmonic Ritz matrix of an (m+1) x m Hessenberg matrix Hbar.

    Returns (Hhat, f, h): Hhat = H + h^2 f e_m^T, where H is the leading
    m x m block, h = Hbar[m, m-1] and f = H^{-T} e_m.  Raises SingularHm
    when H is singular.
    """
    m = Hbar.shape[1]
    H = Hbar[:m, :]
    h = Hbar[m, m - 1]
    e_m = np.zeros(m)
    e_m[-1] = 1.0
    try:
        f = np.linalg.solve(H.T, e_m)
    except np.linalg.LinAlgError as exc:
        raise SingularHm(str(exc)) from exc
    return H + h**2 * np.outer(f, e_m), f, h


def _standard_pairs(Hbar, k, k_max):
    """Strategy B: (pairs, f, h) of the standard problem Hhat g = lambda g.

    The k smallest-|lambda| pairs, cut back to at most k_max columns.
    """
    Hhat, f, h = _harmonic(Hbar)
    return small_standard_eig(Hhat, min(k, k_max)).capped(k_max), f, h


def _strategy_a_pairs(Hbar, W, Vhat, k, k_max):
    """Strategy A: (pairs, f, h) of a flexible factorization A Vhat = W Hbar.

    Solves [H + h^2 f e_m^T] g = lambda [I  h f] W^T Vhat g for the k
    smallest-|lambda| pairs, cut back to at most k_max columns.
    """
    Hhat, f, h = _harmonic(Hbar)
    m = Hbar.shape[1]
    WtV = W.T @ Vhat
    R = WtV[:m, :] + h * np.outer(f, WtV[m, :])
    pairs = small_generalized_eig(Hhat, R, min(k, k_max)).capped(k_max)
    return pairs, f, h


def _augmented_restart_basis(Pk, f, delta):
    """Orthonormalize [[Pk; 0], (-delta f, 1)] into the restart map."""
    m = Pk.shape[0]
    kk = Pk.shape[1]
    raw = np.zeros((m + 1, kk + 1))
    raw[:m, :kk] = Pk
    raw[:m, kk] = -delta * f
    raw[m, kk] = 1.0
    Pk1, _ = reduced_qr(raw)
    return Pk1


def harmonic_ritz_standard(state, k, k_max=None):
    """Deflation strategy B: harmonic Ritz pairs from the standard problem.

    Solves (H + h_{m+1,m}^2 H^{-T} e_m e_m^T) g = lambda g for the k
    smallest-magnitude pairs (k+1 when a conjugate pair would split), cut
    back to at most k_max (default m) columns, and augments them with the
    restart residual direction.
    """
    k_max = k_max if k_max is not None else state.j
    pairs, f, h = _standard_pairs(state.Hbar, k, k_max)
    Pk1 = _augmented_restart_basis(pairs.vectors, f, h)
    return DeflationSubspace(Pk=pairs.vectors, Pk1=Pk1, f=f, strategy="B",
                             values=pairs.values)


def harmonic_ritz_strategy_a(state, k, k_max=None):
    """Deflation strategy A: harmonic Ritz pairs over the solution basis Z.

    Solves [H + h^2 f e_m^T] g = lambda [I  h f] V^T Z g, with the full
    (m+1) x m product V^T Z formed from the cycle's bases.
    """
    if state.Z is None:
        raise ValueError("strategy A needs the stored solution basis Z")
    k_max = k_max if k_max is not None else state.j
    pairs, f, h = _strategy_a_pairs(state.Hbar, state.V, state.Z, k, k_max)
    Pk1 = _augmented_restart_basis(pairs.vectors, f, h)
    return DeflationSubspace(Pk=pairs.vectors, Pk1=Pk1, f=f, strategy="A",
                             values=pairs.values)


class _DeflatedRestart(_Restarted):
    """GMRES-DR / FGMRES-DR: each cycle grows from the harmonic Ritz
    restart head carried over from the previous full cycle.

    After a deflated restart the leading (k+1) x k block of Hbar is dense;
    the least-squares monitor QR-factors it once and then takes one Givens
    rotation per Arnoldi column, as in every other cycle.
    """

    safeguard_eps = DEFAULT_SAFEGUARD_EPS
    breakdown_stops = False

    def __init__(self, A, P, *, k, strategy, **kwargs):
        super().__init__(A, P, **kwargs)
        self.k = k
        self.strategy = strategy
        self._carry = None  # last full cycle's state

    def _head(self, r):
        return self._restart_head(r) or super()._head(r)

    def _cycle_end(self, state, breakdown, *_):
        # A truncated basis cannot be compacted consistently; the next
        # cycle restarts plainly from the current residual.
        self._carry = None if breakdown or state.j < self.m else state

    def _forget(self):
        self._carry = None

    def _restart_head(self, r):
        """Leading block of the next factorization, or None for a plain start."""
        prev = self._carry
        if prev is None:
            return None
        m, k = self.m, self.k
        try:
            if self.strategy == "A":
                defl = harmonic_ritz_strategy_a(prev, k, k_max=prev.j - 1)
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
        return V, Z, Hbar, c, kk


def _dr_solve(A, P, b, x0=None, *, flexible, m, k, strategy="B", tol=1e-8,
              max_matvecs=50_000, record=None, state_hook=None,
              cycle_stop=None, counter=None):
    """Shared deflated-restart driver for GMRES-DR and FGMRES-DR."""
    if not 0 <= k < m:
        raise ValueError("deflation size k must satisfy 0 <= k < m")
    _check_strategy("fgmresdr" if flexible else "gmresdr", strategy)
    if not flexible and P is not None and P.is_variable:
        raise ValueError("non-flexible solve needs a stationary preconditioner")
    # Strategy A needs V^T Z, so the preconditioned basis is stored
    # explicitly; strategy B keeps Z implicit and halves the memory.
    solver = _DeflatedRestart(
        A, P, m=m, k=k, strategy=strategy, tol=tol, max_matvecs=max_matvecs,
        store_z=flexible or strategy == "A", record=record, counter=counter,
        state_hook=state_hook)
    return solver.solve(b, x0, cycle_stop)


def gmresdr_solve(A, P, b, x0=None, *, m, k, strategy="B", tol=1e-8,
                  max_matvecs=50_000, record=None, state_hook=None,
                  cycle_stop=None, counter=None):
    """GMRES-DR(m, k) with a stationary right preconditioner."""
    return _dr_solve(A, P, b, x0, flexible=False, m=m, k=k, strategy=strategy,
                     tol=tol, max_matvecs=max_matvecs, record=record,
                     state_hook=state_hook, cycle_stop=cycle_stop,
                     counter=counter)


def fgmresdr_solve(A, Ms, b, x0=None, *, m, k, m_i=None, strategy="B",
                   tol=1e-8, max_matvecs=50_000, record=None,
                   state_hook=None, cycle_stop=None, counter=None):
    """FGMRES-DR(m, m_i, k) with a variable right preconditioner.

    When ``Ms`` is stationary (or None) and ``m_i`` is given, an inner
    un-restarted GMRES(m_i) preconditioner is built around it, sharing the
    operator's matvec counter.
    """
    op = as_operator(A, counter)
    return _dr_solve(op, _with_inner_gmres(op, Ms, m_i), b, x0,
                     flexible=True, m=m, k=k, strategy=strategy, tol=tol,
                     max_matvecs=max_matvecs, record=record,
                     state_hook=state_hook, cycle_stop=cycle_stop)
