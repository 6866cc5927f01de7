"""Two-field coupled block system and the partitioned block Gauss-Seidel driver.

A sparse "fluid" block is coupled to a small dense "structural" block
through dense rectangular coupling maps.  The driver alternates approximate
fluid solves (any Krylov family from this library) with direct structural
updates, exchanging source terms, with optional relaxation (constant or
Aitken-adapted), a residual-ratio trigger that ends each fluid sub-solve,
and recycling of the fluid solver's retained subspace across coupling
cycles.  A dense monolithic factorization serves as the verification
oracle.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DivergenceDetected,
    MaxCouplings,
    SingularKs,
    SingularMonolithic,
)
from .gcro import RecyclingSolver
from .gmres import _check_strategy, fgmresdr_solve, gmres_solve, gmresdr_solve
from .operators import (
    MatvecCounter,
    as_operator,
    build_preconditioner,
    gen_convection_diffusion,
)
from .records import ConvergenceRecord


@dataclass
class CoupledProblem:
    """Block system [[Aff, -Gfs], [Gsf, Ks]] [xf, xs] = [bf, bs].

    Aff is the large sparse block, Ks the small dense nonsingular block,
    Gfs/Gsf the dense coupling maps (already scaled by the coupling
    strength), bf/bs the right-hand sides.
    """

    Aff: object
    Gfs: np.ndarray
    Gsf: np.ndarray
    Ks: np.ndarray
    bf: np.ndarray
    bs: np.ndarray
    coupling_strength: float

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


@dataclass
class PartitionConfig:
    """Partitioned-driver knobs; defaults follow the reference settings.

    The fluid sub-solve ends when its cycle-over-cycle residual ratio drops
    below ``rho_trigger`` or its relative residual reaches ``eps_A``; the
    driver stops when both the fluid and structural relative residuals are
    within tolerance.  ``recycle_from`` is the first fluid-solve index
    (1-based) allowed to consume the recycled subspace; None disables
    recycling.
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
            raise ValueError("rho_trigger must lie in (0, 1)")
        if not 0.0 < self.theta_s <= 1.0:
            raise ValueError("theta_s must lie in (0, 1]")


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
    if n + n_s <= 4000:
        block = _monolithic_matrix(problem)
        if np.linalg.matrix_rank(block) < n + n_s:
            raise SingularMonolithic("assembled block matrix is singular")
    return problem


def _monolithic_matrix(problem):
    n, n_s = problem.n, problem.n_s
    block = np.zeros((n + n_s, n + n_s))
    block[:n, :n] = problem.Aff.to_dense()
    block[:n, n:] = -problem.Gfs
    block[n:, :n] = problem.Gsf
    block[n:, n:] = problem.Ks
    return block


def monolithic_oracle(problem):
    """Direct dense solve of the assembled two-field system."""
    n, n_s = problem.n, problem.n_s
    if n + n_s > 4000:
        raise ValueError("monolithic oracle limited to 4000 unknowns")
    block = _monolithic_matrix(problem)
    rhs = np.concatenate([problem.bf, problem.bs])
    try:
        sol = np.linalg.solve(block, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMonolithic(str(exc)) from exc
    return sol[:n], sol[n:]


def lbgs_iteration_matrix(problem):
    """Dense map of one block Gauss-Seidel sweep on the structural unknown.

    The partitioned iteration contracts iff the spectral radius of
    Ks^{-1} Gsf Aff^{-1} Gfs is below one.
    """
    Ainv_G = np.linalg.solve(problem.Aff.to_dense(), problem.Gfs)
    return np.linalg.solve(problem.Ks, problem.Gsf @ Ainv_G)


def lbgs_spectral_radius(problem):
    return float(np.max(np.abs(np.linalg.eigvals(lbgs_iteration_matrix(problem)))))


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


def structural_update(problem, lambda_a, lambda_s_prev, theta_s,
                      aitken_state=None):
    """Dense structural solve plus (optionally Aitken-adapted) relaxation.

    Computes raw = Ks^{-1} (bs - Gsf lambda_a) and relaxes
    lambda_s = lambda_s_prev + theta (raw - lambda_s_prev).
    """
    try:
        raw = np.linalg.solve(problem.Ks, problem.bs - problem.Gsf @ lambda_a)
    except np.linalg.LinAlgError as exc:
        raise SingularKs(str(exc)) from exc
    update = raw - lambda_s_prev
    theta = theta_s if aitken_state is None else aitken_state.next_theta(update)
    return lambda_s_prev + theta * update


class _FluidSolver:
    """Uniform adapter over the solver families for the coupled driver."""

    def __init__(self, spec, A, eps_A, record, counter):
        self.spec = spec
        self.op = as_operator(A, counter)
        self.record = record
        self.tol = eps_A
        self.P = build_preconditioner(spec.preconditioner, A,
                                      spec.ilu_level)
        self.engine = None
        if spec.family in ("gcrodr", "fgcrodr"):
            flexible = spec.family == "fgcrodr"
            self.engine = RecyclingSolver(
                self.op, self.P, m=spec.m, k=spec.k, flexible=flexible,
                strategy=spec.strategy, m_i=spec.m_i if flexible else None,
                tol=eps_A, max_matvecs=spec.max_matvecs, record=record)

    def set_tol(self, tol):
        self.tol = tol
        if self.engine is not None:
            self.engine.tol = tol

    def solve(self, b, x0, stop_rule, use_recycle):
        spec = self.spec
        if self.engine is not None:
            return self.engine.solve(b, x0, use_recycle=use_recycle,
                                     stop_rule=stop_rule)
        if spec.family == "gmres":
            return gmres_solve(self.op, self.P, b, x0, m=spec.m,
                               tol=self.tol, max_matvecs=spec.max_matvecs,
                               record=self.record, cycle_stop=stop_rule)
        if spec.family == "gmresdr":
            return gmresdr_solve(self.op, self.P, b, x0, m=spec.m, k=spec.k,
                                 strategy=spec.strategy, tol=self.tol,
                                 max_matvecs=spec.max_matvecs,
                                 record=self.record, cycle_stop=stop_rule)
        return fgmresdr_solve(self.op, self.P, b, x0, m=spec.m, k=spec.k,
                              m_i=spec.m_i, strategy=spec.strategy,
                              tol=self.tol, max_matvecs=spec.max_matvecs,
                              record=self.record, cycle_stop=stop_rule)

    @property
    def last_distance(self):
        if self.engine is not None and self.engine.last_distance is not None:
            d = self.engine.last_distance
            return d.d_p, d.p
        return None


def lbgs_solve(problem, config, record=None, counter=None):
    """Partitioned linear block Gauss-Seidel solution of the coupled system.

    Alternates approximate fluid solves (ended by the residual-ratio
    trigger) with relaxed structural updates until both relative residuals
    are within tolerance.  Returns (lambda_a, lambda_s, CouplingHistory).
    Raises MaxCouplings and DivergenceDetected on the documented failure
    modes.
    """
    record = record if record is not None else ConvergenceRecord()
    counter = counter or MatvecCounter()
    spec = config.solver
    fluid = _FluidSolver(spec, problem.Aff, config.eps_A, record, counter)
    n, n_s = problem.n, problem.n_s
    bf_norm = np.linalg.norm(problem.bf)
    lambda_a = np.zeros(n)
    lambda_s = np.zeros(n_s)
    aitken = AitkenRelaxation(config.theta_s) if config.aitken else None
    history = CouplingHistory(record=record)
    tiny = 1e-300

    def fluid_solve(fs_index):
        use_recycle = (config.recycle_from is not None
                       and fs_index >= config.recycle_from)
        record.coupling_cycle = fs_index
        record.system_index = fs_index
        rhs = problem.bf + problem.Gfs @ lambda_s
        # The sub-solve stops at the coupled-system normalization
        # ||rhs - Aff x|| <= eps_A ||bf||, matching the r_A definition; the
        # floor keeps a diverging coupling from demanding sub-rounding
        # accuracy (the budget and divergence checks handle that case).
        scale = bf_norm / max(np.linalg.norm(rhs), tiny)
        fluid_tol = max(config.eps_A * scale, 1e-15)

        def trigger(cycle, prev_rel, rel):
            if rel <= fluid_tol:
                return True
            return prev_rel is not None and rel / prev_rel < config.rho_trigger

        fluid.set_tol(fluid_tol)
        x, rep = fluid.solve(rhs, lambda_a, trigger, use_recycle)
        return x, rep

    lambda_a, rep = fluid_solve(1)
    r_A_hist = []
    for cycle in range(1, config.n_cpl + 1):
        lambda_s_prev = lambda_s
        lambda_s = structural_update(problem, lambda_a, lambda_s_prev,
                                     config.theta_s, aitken)
        lambda_a, rep = fluid_solve(cycle + 1)
        residual_f = problem.bf + problem.Gfs @ lambda_s \
            - problem.Aff.matvec(lambda_a)
        counter.add(1)
        r_A = np.linalg.norm(residual_f) / bf_norm
        # Structural stationarity at the incoming fluid state: zero exactly
        # when lambda_s is the structural response to the current lambda_a,
        # so a decoupled problem converges after one coupling.
        raw_next = np.linalg.solve(problem.Ks,
                                   problem.bs - problem.Gsf @ lambda_a)
        r_S = np.linalg.norm(raw_next - lambda_s) / max(
            np.linalg.norm(lambda_s), tiny)
        d_pair = fluid.last_distance
        record.coupling_cycle = cycle
        record.append(cycle, 0, counter.count, r_A, true_rel=r_A,
                      event="coupling",
                      d_p=None if d_pair is None else d_pair[0],
                      p=None if d_pair is None else d_pair[1])
        history.cycles.append(CouplingCycle(
            cycle, float(np.linalg.norm(lambda_s)), float(r_A), float(r_S),
            counter.count,
            d_p=None if d_pair is None else d_pair[0],
            p=None if d_pair is None else d_pair[1]))
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
