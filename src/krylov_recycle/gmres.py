"""GMRES(m), FGMRES(m, m_i) and deflated-restarting variants.

Holds the one restart loop and cycle that every solver family shares
(``_Restarted``: a cycle over a recycled pair (U, C), which is empty for
GMRES(m), GMRES-DR and FGMRES-DR), the flexible Arnoldi cycle, harmonic Ritz extraction (deflation strategies
A and B), the closed-form restart residual direction, and GMRES-DR /
FGMRES-DR, whose cycles start from the carried harmonic Ritz restart under
the relative-discrepancy cold-restart safeguard.  Every cycle tracks its
least-squares residual with one monitor, ``smallalg.HessenbergLsq``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (NoConvergence, ParameterError, RankDeficient,
                     SingularHm, SingularPencil)
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
    """One cycle's (flexible) Arnoldi factorization A Vhat = What Hbar.

    What = [C | V] is the cycle's basis array: the C of the recycled pair
    (U, C) the cycle ran over in its first k columns, then the width + 1
    Arnoldi vectors V.  Hbar holds the head block I_k, the coupling block
    B = C^T A V (flexible: C^T A Z) and the inner Hessenberg block H_inner,
    and c is the least-squares monitor's right-hand side.  The solution
    basis is Vhat = [U | tail]: a flexible cycle stores it as Zhat = [U | Z],
    and Zhat is None when the preconditioned basis stays implicit.  A plain
    or deflated-restart cycle runs over no pair, so k = 0, U is n x 0, and
    V and Z are the whole What and Zhat.  The blocks are views of these
    arrays.
    """

    What: np.ndarray
    Hbar: np.ndarray
    c: np.ndarray
    U: np.ndarray
    Zhat: np.ndarray | None = None

    # The sizes, and the blocks as views.
    k = property(lambda self: self.U.shape[1])
    m = property(lambda self: self.Hbar.shape[1])
    width = property(lambda self: self.m - self.k)
    C = property(lambda self: self.What[:, : self.k])
    V = property(lambda self: self.What[:, self.k:])
    Z = property(lambda self: None if self.Zhat is None
                 else self.Zhat[:, self.k:])
    B = property(lambda self: self.Hbar[: self.k, self.k:])
    H_inner = property(lambda self: self.Hbar[self.k:, self.k:])

    def tail(self):
        """Inner block of Vhat: Z when flexible, else V[:, :width]."""
        return self.V[:, : self.width] if self.Zhat is None else self.Z

    def vhat(self):
        if self.Zhat is not None:
            return self.Zhat
        tail = self.tail()
        return np.column_stack([self.U, tail]) if self.k else tail

    def wtv_head(self):
        """(k+1) x (k+1) block [C v1]^T [U v1] of What^T Vhat.

        Formed from the current bases: (k+1) k length-n inner products, the
        same O(n k^2) order as the pair's polish QR.
        """
        k = self.k
        head = np.zeros((k + 1, k + 1))
        head[:k, :k] = self.C.T @ self.U
        head[k, :k] = self.V[:, 0] @ self.U
        head[k, k] = 1.0
        return head


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
        raise ParameterError("family", f"unknown solver family {family!r}")
    accepted = FAMILY_STRATEGIES[family]
    if strategy not in accepted:
        raise ParameterError("strategy", f"{family} has no deflation strategy "
                             f"{strategy!r}; it takes {', '.join(accepted)}")


def _check_size(family, m, k):
    """Raise ValueError unless ``family`` can keep k of its m basis vectors."""
    low = 1 if family in ("gcrodr", "fgcrodr") else 0  # a pair is never empty
    if family != "gmres" and not low <= k < m:  # GMRES(m) keeps none
        raise ParameterError("k", f"{family} needs {low} <= k < m, got "
                                  f"k = {k}, m = {m}")


def _with_inner_gmres(op, P, m_i):
    """P, or inner GMRES(m_i) around it when m_i is given and P stationary."""
    if m_i is None or (P is not None and P.is_variable):
        return P
    return InnerGmresPreconditioner(op, m_i, inner=P)


def _initial_residual(op, b, x0, Ax0=None):
    """(x, b - A x) for the initial guess.

    A missing or zero x0 costs no matvec, and neither does one whose image
    ``Ax0`` = A x0 the caller already holds; any other x0 costs one.
    """
    if x0 is None or not np.any(x0):
        return np.zeros(op.dim), np.asarray(b, dtype=float).copy()
    x = np.array(x0, dtype=float, copy=True)
    return x, b - (op(x) if Ax0 is None else Ax0)


class _Restarted:
    """Restarted minimal-residual solver: the one restart loop of the library.

    As it stands this is GMRES(m) with plain cycles and no safeguard.
    :meth:`solve` owns the initial residual, the matvec budget, the true
    residual at each cycle end, the history rows, ``state_hook``, stall
    counting, the stop rule, the cold-restart safeguard, the breakdown stop
    and the SolveReport.  Every cycle is one cycle over a recycled pair
    (U, C), empty (k = 0) unless the family keeps one: it grows its Arnoldi
    factorization from a head, the leading block the cycle starts with,
    hands it to ``state_hook`` as an ArnoldiState, and corrects x over
    Vhat = [U | tail].  A solver family overrides only what differs:
    ``_start`` (initial guess), ``_head`` (the block the next cycle grows
    from), ``_coordinates`` (the cycle's least-squares coordinates),
    ``_cycle_end`` (what the next cycle keeps) and ``_forget`` (what a cold
    restart drops).  A cycle end first fixes everything its history row
    holds: the pair's distance, the stop decision, any cold restart and,
    when the loop goes on, the next head; then it writes the row, once.

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

    def solve(self, b, x0=None, stop_rule=None, Ax0=None):
        """Solve A x = b; returns (x, SolveReport).

        ``stop_rule(cycle, previous_rel, rel)`` is called at each cycle end
        with the 1-based cycle count and ends the solve when it returns True.
        ``Ax0``, when the caller holds it, is the image A x0 of the initial
        guess; the initial residual b - Ax0 then costs no matvec, and the
        solve is otherwise the same to the last bit.
        Non-finite ``b``, ``x0`` or ``Ax0``, or an ``Ax0`` of the wrong
        shape, raises ValueError before any matvec.
        """
        op, record, tol = self.op, self.record, self.tol
        for name, v in (("b", b), ("x0", x0), ("Ax0", Ax0)):
            if v is not None and not np.all(np.isfinite(v)):
                raise ValueError(f"{name} has non-finite entries")
        if Ax0 is not None and np.shape(Ax0) != (op.dim,):
            raise ValueError(f"Ax0 has shape {np.shape(Ax0)}, not "
                             f"({op.dim},)")
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            return np.zeros(op.dim), SolveReport(True, 0, 0, 0, 0.0, 0.0,
                                                 history=record)
        start_count = op.counter.count
        x, r, event = self._start(b, x0, Ax0)
        rel_true = rel_lsq = np.linalg.norm(r) / bnorm
        iter_start = self.iterations
        self.cold_restarts = 0
        cycle = stalled = 0
        prev_rel = None

        def over_budget():
            return op.counter.count - start_count >= self.max_matvecs

        def step(rho):
            self.iterations += 1
            rel = rho / bnorm
            record.append(cycle, self.iterations, op.counter.count, rel)
            return rel <= self.tol or over_budget()

        self._step = step
        stop_reason = ("converged" if rel_true <= tol
                       else "budget" if over_budget() else None)
        head = None if stop_reason else self._head(r)
        while head is not None:
            state, lsq, breakdown = self._grow(*head)
            y, rho = self._coordinates(state, r, lsq)
            x += self._correction(state, y)
            r = b - op(x)
            new_rel = np.linalg.norm(r) / bnorm
            rel_lsq = rho / bnorm
            if self.state_hook is not None:
                self.state_hook(state, cycle)
            stalled = stalled + 1 if new_rel >= rel_true * (1 - 1e-12) else 0
            cold = self.cold_restarts
            distance = self._cycle_end(state, breakdown, cycle, x, r, new_rel,
                                       rel_lsq)
            if stop_rule is not None and stop_rule(cycle + 1, prev_rel,
                                                   new_rel):
                stop_reason = "triggered"
            elif new_rel <= tol:
                stop_reason = "converged"
            elif self.breakdown_stops and breakdown and stalled:
                stop_reason = "breakdown"
            else:
                # Cold-restart safeguard: when rounding has detached the
                # cheap least-squares residual from the true one, drop all
                # spectral information and restart from the explicit
                # residual, unless the cycle end has just done so.
                if self.safeguard_eps is not None and new_rel > 0 \
                        and self.cold_restarts == cold \
                        and abs(new_rel - rel_lsq) / new_rel \
                        > self.safeguard_eps:
                    self._cold_restart()
                if over_budget():
                    stop_reason = "budget"
            # Building the next head may collapse a deflation into a cold
            # restart, which this cycle's row reports.
            head = None if stop_reason else self._head(r)
            d_p, p = distance or (None, None)
            record.append(cycle, self.iterations, op.counter.count, rel_lsq,
                          true_rel=new_rel,
                          event=("cold_restart" if self.cold_restarts > cold
                                 else event or "restart"),
                          d_p=d_p, p=p)
            event = None
            cycle += 1
            prev_rel = rel_true = new_rel
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
        self._forget()

    # -- what a family overrides --------------------------------------------

    def _start(self, b, x0, Ax0):
        """Initial (x, r) and the event of the first cycle-end row."""
        return (*_initial_residual(self.op, b, x0, Ax0), None)

    def _head(self, r):
        """Arguments of :meth:`_grow` for the next cycle: here a cycle over
        the empty pair, from r alone."""
        empty = np.empty((self.op.dim, 0))
        return self._pair_head(r, empty, empty)

    def _coordinates(self, state, r, lsq):
        """(y, rho): the cycle's coordinates over Vhat and its least-squares
        residual; here the monitor's own solution."""
        return lsq.solve()

    def _cycle_end(self, state, breakdown, cycle, x, r, rel_true, rel_lsq):
        """Called at each cycle end before the stop decisions; returns the
        (d_p, p) that the cycle-end row reports, or None."""

    def _forget(self):
        """Drop what a cold restart discards; plain cycles keep nothing."""

    # -- Arnoldi ---------------------------------------------------------------

    def _pair_head(self, r, C, U):
        """Arguments of :meth:`_grow` for a cycle over the pair (U, C).

        The basis holds C in columns [:k] and the projected residual in
        column k, Hbar holds I_k at its head, and a stored Z holds U in
        columns [:k].  With an empty pair this is the plain head of r.
        """
        k = C.shape[1]
        V, Z, Hbar, c = self._allocate(self.m)
        V[:, :k] = C
        # Project the start vector too: near convergence the residual's
        # rounding-level components along C are no longer small relative to
        # its norm and would degrade the orthogonality of [C V].  C is read
        # from the basis, as gcro_lsq_blockwise reads it, so both get the
        # same beta.
        r = r - V[:, :k] @ (V[:, :k].T @ r)
        beta = np.linalg.norm(r)
        if beta == 0.0:
            raise ValueError("Arnoldi needs a nonzero start vector")
        V[:, k] = r / beta
        c[k] = beta
        Hbar[:k, :k] = np.eye(k)
        if Z is not None:
            Z[:, :k] = U
        return V, Z, Hbar, c, k, U

    def _allocate(self, steps):
        n = self.op.dim
        return (np.empty((n, steps + 1), order="F"),
                np.empty((n, steps), order="F") if self.store_z else None,
                np.zeros((steps + 1, steps)), np.zeros(steps + 1))

    def _grow(self, V, Z, Hbar, c, j0, U):
        """Extend a factorization of width j0 to full width (or breakdown).

        A cycle over a pair (U, C) holds C in its first k head columns, so
        the least-squares monitor runs on Hbar[k:, k:].  Returns (state,
        lsq, breakdown): the cycle's ArnoldiState (Zhat stored with
        ``store_z``) and its monitor.
        """
        k = U.shape[1]
        lsq = HessenbergLsq(Hbar[k:, k:], c[k:], j0 - k)
        step = self._step

        def grown(width):
            lsq.add_column()
            return step is not None and step(lsq.residual_norm())

        end, breakdown = _extend_arnoldi(
            self._apply, self.P if self.store_z else None, V, Z, Hbar, j0,
            Hbar.shape[1], reorth=self.reorth, step_cb=grown)
        if breakdown:
            V[:, end] = 0.0  # the one column the state holds unwritten
        state = ArnoldiState(V[:, : end + 1], Hbar[: end + 1, :end],
                             c[: end + 1], U,
                             None if Z is None else Z[:, :end])
        return state, lsq, breakdown

    def _correction(self, state, y):
        """x-space correction of the coordinates y over Vhat = [U | tail]."""
        if self.store_z:
            return state.Zhat @ y
        k = state.k
        return self.P.apply(state.U @ y[:k] + state.tail() @ y[k:])


def fgmres_cycle(A, Ms, r0, m, counter=None):
    """One cycle of flexible Arnoldi from r0, orthogonalized by block CGS2.

    Returns the ArnoldiState; happy breakdown yields a truncated state.
    """
    cycle = _Restarted(A, Ms, m=m, store_z=True, counter=counter)
    return cycle._grow(*cycle._head(r0))[0]


def gmres_solve(A, P, b, x0=None, *, m, tol=1e-8, max_matvecs=10_000,
                record=None, cycle_stop=None, counter=None, Ax0=None):
    """Restarted GMRES(m) with a fixed right preconditioner.

    The least-squares residual steers the inner iteration; convergence is
    verified against the true residual at every cycle end.  ``Ax0`` is the
    image A x0 when the caller holds it (see ``_Restarted.solve``).
    Returns (x, SolveReport).
    """
    if P is not None and P.is_variable:
        raise ValueError("gmres_solve needs a stationary preconditioner")
    solver = _Restarted(A, P, m=m, tol=tol, max_matvecs=max_matvecs,
                        record=record, counter=counter)
    return solver.solve(b, x0, cycle_stop, Ax0)


def restart_residual_vector(state, y):
    """Closed-form direction of the small least-squares residual c - Hbar y.

    Returns (direction, scale) with direction = (-delta f, 1) and scale
    (omega - delta f.v) / (1 + delta^2 f.f), so that c - Hbar y equals
    direction * scale; here f = H^{-T} e_m, delta = h_{m+1,m}, v the leading
    m entries of c and omega its last entry.  Using this vector instead of
    the explicitly subtracted residual curbs rounding-error growth at
    restart (Rollin & Fichtner).
    """
    j = state.m
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
    k_max = k_max if k_max is not None else state.m
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
    k_max = k_max if k_max is not None else state.m
    pairs, f, h = _strategy_a_pairs(state.Hbar, state.V, state.Z, k, k_max)
    Pk1 = _augmented_restart_basis(pairs.vectors, f, h)
    return DeflationSubspace(Pk=pairs.vectors, Pk1=Pk1, f=f, strategy="A",
                             values=pairs.values)


class _DeflatedRestart(_Restarted):
    """GMRES-DR(m, k) or, ``flexible``, FGMRES-DR(m, m_i, k), for repeated
    solves: each cycle grows from the harmonic Ritz restart head carried
    over from the previous full cycle, over the empty pair.

    ``m_i`` wraps a stationary P in inner GMRES(m_i).  After a deflated
    restart the leading (k+1) x k block of Hbar is dense; the
    least-squares monitor QR-factors it once and then takes one Givens
    rotation per Arnoldi column, as in every other cycle.
    """

    safeguard_eps = DEFAULT_SAFEGUARD_EPS
    breakdown_stops = False

    def __init__(self, A, P, *, m, k, flexible=False, strategy="B", m_i=None,
                 counter=None, **kwargs):
        family = "fgmresdr" if flexible else "gmresdr"
        _check_size(family, m, k)
        _check_strategy(family, strategy)
        op = as_operator(A, counter)
        P = _with_inner_gmres(op, P, m_i)
        if not flexible and P is not None and P.is_variable:
            raise ValueError("non-flexible solve needs a stationary "
                             "preconditioner")
        # Strategy A needs V^T Z, so the preconditioned basis is stored
        # explicitly; strategy B keeps Z implicit and halves the memory.
        super().__init__(op, P, m=m, store_z=flexible or strategy == "A",
                         **kwargs)
        self.k = k
        self.strategy = strategy
        self._carry = None  # last full cycle's state

    def _start(self, b, x0, Ax0):
        self._carry = None  # a head from another system does not span r
        return super()._start(b, x0, Ax0)

    def _head(self, r):
        return self._restart_head(r) or super()._head(r)

    def _cycle_end(self, state, breakdown, *_):
        # A truncated basis cannot be compacted consistently; the next
        # cycle restarts plainly from the current residual.
        self._carry = None if breakdown or state.m < self.m else state

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
                defl = harmonic_ritz_strategy_a(prev, k, k_max=prev.m - 1)
            else:
                defl = harmonic_ritz_standard(prev, k, k_max=prev.m - 1)
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
        return V, Z, Hbar, c, kk, prev.U  # the empty pair


def _dr_solve(A, P, b, x0=None, *, cycle_stop=None, Ax0=None, **engine):
    """One solve of a fresh ``_DeflatedRestart(A, P, **engine)``."""
    return _DeflatedRestart(A, P, **engine).solve(b, x0, cycle_stop, Ax0)


def gmresdr_solve(A, P, b, x0=None, *, m, k, strategy="B", tol=1e-8,
                  max_matvecs=50_000, record=None, state_hook=None,
                  cycle_stop=None, counter=None, Ax0=None):
    """GMRES-DR(m, k) with a stationary right preconditioner."""
    return _dr_solve(A, P, b, x0, flexible=False, m=m, k=k, strategy=strategy,
                     tol=tol, max_matvecs=max_matvecs, record=record,
                     state_hook=state_hook, cycle_stop=cycle_stop,
                     counter=counter, Ax0=Ax0)


def fgmresdr_solve(A, Ms, b, x0=None, *, m, k, m_i=None, strategy="B",
                   tol=1e-8, max_matvecs=50_000, record=None,
                   state_hook=None, cycle_stop=None, counter=None, Ax0=None):
    """FGMRES-DR(m, m_i, k) with a variable right preconditioner.

    When ``Ms`` is stationary (or None) and ``m_i`` is given, an inner
    un-restarted GMRES(m_i) preconditioner is built around it, sharing the
    operator's matvec counter.
    """
    return _dr_solve(A, Ms, b, x0, flexible=True, m=m, k=k, m_i=m_i,
                     strategy=strategy, tol=tol, max_matvecs=max_matvecs,
                     record=record, state_hook=state_hook,
                     cycle_stop=cycle_stop, counter=counter, Ax0=Ax0)
