"""Two-field coupled block system and the partitioned block Gauss-Seidel driver.

A sparse "fluid" block is coupled to a small dense "structural" block
through dense rectangular coupling maps.  The driver alternates approximate
fluid solves (any Krylov family from this library) with direct structural
updates, exchanging source terms, with optional relaxation (constant or
Aitken-adapted), a residual-ratio trigger that ends each fluid sub-solve,
and recycling of the fluid solver's retained subspace across coupling
cycles.  Block elimination over the one sparse LU that the fluid block
keeps serves as the verification oracle; a :class:`CoupledBlock` forms the
products it needs once and shares them across the loads on one block.
"""

import operator
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DivergenceDetected,
    MaxCouplings,
    ParameterError,
    SingularKs,
    SingularMonolithic,
)
from .gcro import RecyclingSolver
from .gmres import _check_size, _check_strategy, _DeflatedRestart, _Restarted
from .operators import (
    MatvecCounter,
    as_operator,
    build_preconditioner,
    gen_convection_diffusion,
    sparse_lu,
)
from .records import ConvergenceRecord

# Fluid solves that consume the recycled pair and still refine it; later
# ones keep it, since under LBGS the fluid right-hand side settles.
REFINING_SOLVES = 2


class CoupledBlock:
    """The operator [[Aff, -Gfs], [Gsf, Ks]] of a coupled system, shared by
    every load (bf, bs) on it.

    The first use forms Y = Aff^{-1} Gfs and the n_s x n_s Schur
    complement S = Ks + Gsf Y from Aff's kept sparse LU (``sparse_lu``)
    and checks S's rank; the first radius forms the LBGS spectral radius.
    The block keeps both for as long as it lives, so the oracles of many
    loads and the radius form each once.  Racing threads form Y once.  A
    singular Aff or S raises SingularMonolithic on every call and keeps
    nothing.

    The products hold only while the arrays do, so the block makes Gfs,
    Gsf and Ks read-only (Aff is immutable).  Copies and pickles rebuild
    from the four arrays, without the products.
    """

    def __init__(self, Aff, Gfs, Gsf, Ks):
        for a in (Gfs, Gsf, Ks):
            a.setflags(write=False)
        self.Aff, self.Gfs, self.Gsf, self.Ks = Aff, Gfs, Gsf, Ks
        self._factors = None  # (lu, Y, S), set by factors
        self._radius = None
        self._lock = threading.Lock()

    def __reduce__(self):
        # The lock cannot be copied or pickled, and the products are rebuilt.
        return type(self), (self.Aff, self.Gfs, self.Gsf, self.Ks)

    def factors(self):
        """(lu, Y, S); see :func:`factor_blocks`."""
        with self._lock:
            if self._factors is None:
                self._factors = self._eliminate()
            return self._factors

    def _eliminate(self):
        try:
            lu = sparse_lu(self.Aff)
        except np.linalg.LinAlgError as exc:
            raise SingularMonolithic(
                f"fluid block is singular: {exc}") from exc
        Y = lu.solve(self.Gfs)
        schur = self.Ks + self.Gsf @ Y
        if np.linalg.matrix_rank(schur) < self.Ks.shape[0]:
            raise SingularMonolithic("assembled block matrix is singular")
        return lu, Y, schur

    def oracle(self, bf, bs):
        """(lambda_a, lambda_s) of the load (bf, bs); see
        :func:`monolithic_oracle`."""
        lu, Y, schur = self.factors()
        a0 = lu.solve(bf)
        lambda_s = np.linalg.solve(schur, bs - self.Gsf @ a0)
        return a0 + Y @ lambda_s, lambda_s

    def spectral_radius(self):
        """See :func:`lbgs_spectral_radius`."""
        if self._radius is None:
            _, Y, _ = self.factors()
            sweep = np.linalg.solve(self.Ks, self.Gsf @ Y)
            self._radius = float(np.max(np.abs(np.linalg.eigvals(sweep))))
        return self._radius


@dataclass(frozen=True)
class CoupledProblem:
    """Block system [[Aff, -Gfs], [Gsf, Ks]] [xf, xs] = [bf, bs].

    Aff is the large sparse block, Ks the small dense nonsingular block,
    Gfs/Gsf the dense coupling maps (already scaled by the coupling
    strength), bf/bs the right-hand sides.  ``block`` is the problem's
    :class:`CoupledBlock`: the one handed in when it holds these very four
    arrays, else a new one.  So ``dataclasses.replace(problem, bf=...,
    bs=...)`` draws another load on the same block, and replacing any of
    the four arrays gives a fresh block.  The problem is frozen, so that no
    assigned field leaves the block on the old arrays.
    """

    Aff: object
    Gfs: np.ndarray
    Gsf: np.ndarray
    Ks: np.ndarray
    bf: np.ndarray
    bs: np.ndarray
    coupling_strength: float
    block: CoupledBlock | None = field(default=None, compare=False,
                                       repr=False)

    def __post_init__(self):
        arrays = (self.Aff, self.Gfs, self.Gsf, self.Ks)
        b = self.block
        if b is None or any(x is not y for x, y in zip(
                arrays, (b.Aff, b.Gfs, b.Gsf, b.Ks))):
            object.__setattr__(self, "block", CoupledBlock(*arrays))

    @property
    def n(self):
        return self.Aff.n

    @property
    def n_s(self):
        return self.Ks.shape[0]


@dataclass
class SolverSpec:
    """Fluid-block solver family and its parameters."""

    family: str = "gcrodr"
    m: int = 60
    k: int = 20
    m_i: int = 10
    strategy: str = "B"
    preconditioner: str = "ilu"
    ilu_level: int = 0
    max_matvecs: int = 500_000

    def __post_init__(self):
        _check_strategy(self.family, self.strategy)
        _check_size(self.family, self.m, self.k, self.m_i)
        if operator.index(self.ilu_level) < 0:
            raise ParameterError("ilu_level", "ILU needs a level >= 0, got "
                                              f"{self.ilu_level}")


@dataclass
class PartitionConfig:
    """Partitioned-driver knobs; defaults follow the reference settings.

    The fluid sub-solve ends when its cycle-over-cycle residual ratio drops
    below ``rho_trigger`` or its relative residual reaches ``eps_A``; the
    driver stops when both the fluid and structural relative residuals are
    within tolerance.  ``recycle_from`` is the first fluid-solve index
    (1-based) allowed to consume the recycled subspace; None disables
    recycling.  The pair is refreshed through fluid solve
    ``recycle_from + REFINING_SOLVES - 1`` and kept from then on.
    """

    rho_trigger: float = 0.6
    theta_s: float = 1.0
    aitken: bool = False
    eps_A: float = 1e-6
    eps_S: float = 1e-6
    n_cpl: int = 50
    recycle_from: int | None = None
    solver: SolverSpec = field(default_factory=SolverSpec)

    def __post_init__(self):
        if not 0.0 < self.rho_trigger < 1.0:
            raise ParameterError("rho_trigger", "must lie in (0, 1)")
        if not 0.0 < self.theta_s <= 1.0:
            raise ParameterError("theta_s", "must lie in (0, 1]")


@dataclass
class CouplingCycle:
    cycle: int
    lambda_s_norm: float
    r_A: float
    r_S: float
    matvecs_cumulative: int
    d_p: float | None = None
    p: int | None = None


@dataclass
class CouplingHistory:
    cycles: list = field(default_factory=list)
    converged: bool = False
    stop_reason: str = "converged"
    total_matvecs: int = 0
    record: ConvergenceRecord | None = None

    @property
    def couplings(self):
        return len(self.cycles)


def gen_coupled_problem(n_grid, n_s, peclet, coupling_strength, seed):
    """Deterministic synthetic coupled problem.

    The fluid block is the convection-diffusion operator; the structural
    block is a seeded symmetric diagonally dominant (hence SPD) matrix; the
    coupling maps have unit-norm columns scaled by ``coupling_strength``.
    Raises SingularMonolithic when the assembled block matrix is singular
    (regenerate with another seed).
    """
    if n_s > 64:
        raise ValueError("structural block limited to 64 unknowns")
    rng = np.random.default_rng(seed)
    Aff = gen_convection_diffusion(n_grid, peclet)
    n = Aff.n
    S = rng.standard_normal((n_s, n_s))
    Ks = 0.5 * (S + S.T)
    Ks += np.diag(np.sum(np.abs(Ks), axis=1) + 1.0)
    Gfs = rng.standard_normal((n, n_s))
    Gfs *= coupling_strength / np.linalg.norm(Gfs, axis=0)
    Gsf = rng.standard_normal((n_s, n))
    Gsf *= coupling_strength / np.linalg.norm(Gsf, axis=0)
    bf = rng.standard_normal(n)
    bs = rng.standard_normal(n_s)
    problem = CoupledProblem(Aff, Gfs, Gsf, Ks, bf, bs, coupling_strength)
    factor_blocks(problem)
    return problem


def factor_blocks(problem):
    """(lu, Y, S): the one factorization of the coupled block that the
    oracle, the generator's check and the spectral radius share, kept on
    ``problem.block``.

    ``lu`` is the sparse LU of Aff, Y = Aff^{-1} Gfs and S the n_s x n_s
    Schur complement Ks + Gsf Y.  Raises SingularMonolithic when the block
    is singular.  With Aff nonsingular the block is singular exactly when
    S is, so one sparse LU of Aff stands in for the rank of the
    (n + n_s)-square block, at any size.  Elimination needs Aff^{-1}, as
    every fluid sub-solve does, so a singular Aff raises too, under
    ``sparse_lu``'s rule: an exactly zero pivot, or one at rounding level
    relative to the largest.  Aff keeps its LU (``sparse_lu``), so every
    call on problems that share Aff factors it once, and the block keeps
    Y and S, so every call on problems that share the block forms them
    once.  The generated Aff is never singular.
    """
    return problem.block.factors()


def monolithic_oracle(problem):
    """Direct solve of the assembled two-field system by block elimination.

    a0 = Aff^{-1} bf, lambda_s = S^{-1} (bs - Gsf a0) over the Schur
    complement S, and lambda_a = a0 + Aff^{-1} Gfs lambda_s, all from one
    ``factor_blocks``.  Raises SingularMonolithic under its rule.
    """
    return problem.block.oracle(problem.bf, problem.bs)


def lbgs_spectral_radius(problem):
    """Spectral radius of one block Gauss-Seidel sweep on the structural
    unknown, the n_s x n_s map Ks^{-1} Gsf Aff^{-1} Gfs.

    The partitioned iteration contracts iff it is below one.  The block
    keeps it.
    """
    return problem.block.spectral_radius()


class AitkenRelaxation:
    """Aitken delta-squared adaptive relaxation for fixed-point updates.

    Classical Irons-Tuck recurrence on the update vector; the factor is
    clamped to [theta_min, theta_max].  The scalar linear contraction
    x <- 0.5 x + 1 reaches its fixed point in two relaxed steps, which
    requires allowing factors up to 2.
    """

    def __init__(self, theta_init=1.0, theta_min=0.1, theta_max=2.0):
        self.theta = theta_init
        self.theta_min = theta_min
        self.theta_max = theta_max
        self._prev_update = None

    def next_theta(self, update):
        if self._prev_update is not None:
            diff = update - self._prev_update
            denom = float(diff @ diff)
            if denom > 0.0:
                self.theta = -self.theta * float(self._prev_update @ diff) / denom
                self.theta = min(max(self.theta, self.theta_min), self.theta_max)
        self._prev_update = np.array(update, copy=True)
        return self.theta


def structural_response(problem, lambda_a):
    """The dense structural solve raw = Ks^{-1} (bs - Gsf lambda_a)."""
    try:
        return np.linalg.solve(problem.Ks, problem.bs - problem.Gsf @ lambda_a)
    except np.linalg.LinAlgError as exc:
        raise SingularKs(str(exc)) from exc


def structural_update(raw, lambda_s_prev, theta_s, aitken_state=None):
    """(Optionally Aitken-adapted) relaxation of the structural response.

    Relaxes lambda_s = lambda_s_prev + theta (raw - lambda_s_prev), where
    raw is ``structural_response(problem, lambda_a)``.
    """
    update = raw - lambda_s_prev
    theta = theta_s if aitken_state is None else aitken_state.next_theta(update)
    return lambda_s_prev + theta * update


class _FluidSolver:
    """The coupled driver's fluid solver: one engine of the spec's family,
    built once for every sub-solve, which counts its Arnoldi steps across
    them and, when it recycles, hands its pair from one to the next."""

    def __init__(self, spec, A, eps_A, record, counter):
        op = as_operator(A, counter)
        P = build_preconditioner(spec.preconditioner, A, spec.ilu_level)
        shared = dict(m=spec.m, tol=eps_A, max_matvecs=spec.max_matvecs,
                      record=record)
        if spec.family == "gmres":
            self.engine = _Restarted(op, P, **shared)
            return
        flexible = spec.family in ("fgmresdr", "fgcrodr")
        build = (_DeflatedRestart if spec.family in ("gmresdr", "fgmresdr")
                 else RecyclingSolver)
        self.engine = build(op, P, flexible=flexible, k=spec.k,
                            strategy=spec.strategy,
                            m_i=spec.m_i if flexible else None, **shared)

    def solve(self, b, x0, stop_rule, use_recycle, refresh=True, Ax0=None):
        # Only a recycling engine keeps a pair to use or to refresh.
        pair = (dict(use_recycle=use_recycle, refresh=refresh)
                if isinstance(self.engine, RecyclingSolver) else {})
        return self.engine.solve(b, x0, stop_rule=stop_rule, Ax0=Ax0, **pair)


def lbgs_solve(problem, config, record=None, counter=None):
    """Partitioned linear block Gauss-Seidel solution of the coupled system.

    Alternates approximate fluid solves (ended by the residual-ratio
    trigger) with relaxed structural updates until both relative residuals
    are within tolerance.  With recycling on, the first REFINING_SOLVES
    fluid solves that consume the recycled pair also refresh it; later ones
    keep it, since the fluid right-hand side settles, so their coupling
    rows carry no d_p.  Without recycling every cycle refreshes the pair.

    A coupling row repeats the d_p and p of its fluid solve's last
    cycle-end row, and carries none when that solve ran no cycle.

    Each coupling forms each of its quantities once.  The fluid solve's
    right-hand side rhs = bf + Gfs lambda_s gives r_A = ||rhs - Aff
    lambda_a|| / ||bf||.  Aff lambda_a is the fluid solve's closing
    product, which the engine exposes as ``image``; it is formed here
    only when that is None (a warm start that ran no cycle).  It is
    handed to the next fluid solve as the image of its initial guess, so
    that solve's initial residual costs no matvec; fluid solve 1's image
    serves solve 2 the same way.  The structural response
    Ks^{-1} (bs - Gsf lambda_a) that gives r_S is the next structural
    update's.  A coupling thus forms Aff lambda_a once and Ks^{-1} once,
    and every field is the same to the last bit.  A coupling row whose
    r_A came from the engine's image repeats the matvec count of the row
    before it.
    Returns (lambda_a, lambda_s, CouplingHistory).
    Raises MaxCouplings and DivergenceDetected on the documented failure
    modes.
    """
    record = record if record is not None else ConvergenceRecord()
    counter = counter or MatvecCounter()
    fluid = _FluidSolver(config.solver, problem.Aff, config.eps_A, record,
                         counter)
    n, n_s = problem.n, problem.n_s
    bf_norm = np.linalg.norm(problem.bf)
    lambda_a = np.zeros(n)
    lambda_s = np.zeros(n_s)
    aitken = AitkenRelaxation(config.theta_s) if config.aitken else None
    history = CouplingHistory(record=record)
    tiny = 1e-300

    # A sub-solve ends at its tolerance, or once a cycle cuts rho_trigger.
    def trigger(cycle, prev_rel, rel):
        return prev_rel is not None and rel / prev_rel < config.rho_trigger

    def fluid_solve(fs_index, Ax0):
        """Fluid solve ``fs_index`` from lambda_a; returns (rhs, x, d_pair).

        ``Ax0`` is Aff lambda_a when the driver holds it, else None.
        ``d_pair`` is the (d_p, p) of the solve's last cycle-end row, or
        (None, None) when it ran no cycle.
        """
        use_recycle = (config.recycle_from is not None
                       and fs_index >= config.recycle_from)
        refresh = (config.recycle_from is None or fs_index
                   < config.recycle_from + REFINING_SOLVES)
        record.coupling_cycle = fs_index
        record.system_index = fs_index
        rhs = problem.bf + problem.Gfs @ lambda_s
        # The sub-solve stops at the coupled-system normalization
        # ||rhs - Aff x|| <= eps_A ||bf||, matching the r_A definition; the
        # floor keeps a diverging coupling from demanding sub-rounding
        # accuracy (the budget and divergence checks handle that case).
        scale = bf_norm / max(np.linalg.norm(rhs), tiny)
        fluid.engine.tol = max(config.eps_A * scale, 1e-15)
        x, report = fluid.solve(rhs, lambda_a, trigger, use_recycle, refresh,
                                Ax0=Ax0)
        last = record.rows[-1] if report.cycles else None
        return rhs, x, (last.d_p, last.p) if last else (None, None)

    _, lambda_a, _ = fluid_solve(1, None)
    A_lambda_a = fluid.engine.image
    raw = structural_response(problem, lambda_a)
    r_A_hist = []
    for cycle in range(1, config.n_cpl + 1):
        lambda_s_prev = lambda_s
        lambda_s = structural_update(raw, lambda_s_prev, config.theta_s,
                                     aitken)
        rhs, lambda_a, (d_p, p) = fluid_solve(cycle + 1, A_lambda_a)
        A_lambda_a = fluid.engine.image
        if A_lambda_a is None:
            A_lambda_a = fluid.engine.op(lambda_a)
        r_A = np.linalg.norm(rhs - A_lambda_a) / bf_norm
        # Structural stationarity at the incoming fluid state: zero exactly
        # when lambda_s is the structural response to the current lambda_a,
        # so a decoupled problem converges after one coupling.
        raw = structural_response(problem, lambda_a)
        r_S = np.linalg.norm(raw - lambda_s) / max(
            np.linalg.norm(lambda_s), tiny)
        record.coupling_cycle = cycle
        record.append(cycle, 0, counter.count, r_A, true_rel=r_A,
                      event="coupling", d_p=d_p, p=p)
        history.cycles.append(CouplingCycle(
            cycle, float(np.linalg.norm(lambda_s)), float(r_A), float(r_S),
            counter.count, d_p=d_p, p=p))
        r_A_hist.append(r_A)
        if r_A <= config.eps_A and r_S <= config.eps_S:
            history.converged = True
            break
        if len(r_A_hist) > 3 and r_A > config.eps_A \
                and r_A > 10.0 * r_A_hist[-4]:
            history.stop_reason = "diverged"
            history.total_matvecs = counter.count
            exc = DivergenceDetected(
                f"fluid residual grew from {r_A_hist[-4]:.3e} to {r_A:.3e}")
            exc.history = history
            raise exc
    else:
        history.stop_reason = "max_couplings"
        history.total_matvecs = counter.count
        exc = MaxCouplings(f"no convergence within {config.n_cpl} couplings")
        exc.history = history
        raise exc
    history.total_matvecs = counter.count
    return lambda_a, lambda_s, history
