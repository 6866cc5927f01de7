"""The benchmark's three workloads, built only from the library's public API.

Each workload turns a seed into a fixed set of inputs (``setup``) and then
yields its operations one round at a time.  A round covers every input once.
Each input's matvec count is the same in every round, so their mean over the
inputs repeats exactly from run to run, however many rounds a run takes.  Every
operation's output is checked independently of the library's own report:
residuals are recomputed with a scipy CSR matrix built here from the raw
arrays, and the coupled fields are compared against the dense oracle.
"""

import dataclasses
from collections.abc import Callable

import numpy as np
import scipy.sparse as sp

import krylov_recycle as kr

REFERENCE_SEED = 1234  # seed of the reference coupled problem in the tests
ORACLE_TOL = 1e-5  # acceptance criterion 8
EPS_A = 1e-6  # PartitionConfig's default fluid tolerance
SOLVE_TOL = 1e-8
# A recomputed residual may differ from the solver's own in the last digits.
RESIDUAL_SLACK = 1.0 + 1e-6


@dataclasses.dataclass
class Verdict:
    """Outcome of one operation, judged after it was timed."""

    matvecs: int
    failure: str | None = None  # the library reported that it did not solve
    wrong: str | None = None  # the output failed the independent check
    spmv_calls: int | None = None  # set by the traced phase


@dataclasses.dataclass
class Op:
    label: str
    run: Callable[[], object]  # the timed part
    check: Callable[[object], Verdict]


def _csr(A):
    return sp.csr_matrix((A.values, A.col_idx, A.row_ptr), shape=(A.n, A.n))


def _residual_verdict(csr, b, x, report, tol):
    if not report.converged:
        return Verdict(report.matvecs,
                       failure=f"not converged: {report.stop_reason}")
    rel = np.linalg.norm(b - csr @ x) / np.linalg.norm(b)
    if not rel <= tol * RESIDUAL_SLACK:
        return Verdict(report.matvecs,
                       wrong=f"true residual {rel:.3e} above {tol:.0e}")
    return Verdict(report.matvecs)


class CoupledRef:
    """LBGS with GCRO-DR(60, 20) on the reference coupled problem.

    The block operator is the reference problem's (seed 1234); the workload
    seed draws the loads (bf, bs).  Drawing the whole problem from the seed
    moves the block Gauss-Seidel spectral radius between 0.23 and 0.77 and
    the matvecs between 99 and 403, which no run-to-run bound could absorb;
    the loads alone move them by about 5%, and the mean over 8 loads averages
    that down.  Load 0 takes the loads of ``gen_coupled_problem(..., seed)``,
    so at seed 1234 it is the reference problem itself.
    """

    name = "coupled_ref"
    loads = 8
    warmup_ops = 4
    grid, n_s, peclet, coupling = (24, 24), 8, 30.0, 45.0

    def setup(self, seed):
        ref = kr.gen_coupled_problem(self.grid, self.n_s, self.peclet,
                                     self.coupling, REFERENCE_SEED)
        try:
            own = kr.gen_coupled_problem(self.grid, self.n_s, self.peclet,
                                         self.coupling, seed)
        except kr.errors.SingularMonolithic as exc:
            own = exc
        problems = []
        for j in range(self.loads):
            if j == 0 and isinstance(own, Exception):
                problems.append((None, None, f"SingularMonolithic: {own}"))
                continue
            if j == 0:
                bf, bs = own.bf, own.bs
            else:
                rng = np.random.default_rng([seed, j])
                bf = rng.standard_normal(ref.n)
                bs = rng.standard_normal(ref.n_s)
            problem = dataclasses.replace(ref, bf=bf, bs=bs)
            problems.append((problem, kr.monolithic_oracle(problem), None))
        return dict(csr=_csr(ref.Aff), problems=problems)

    def round_ops(self, state, recycle=True):
        config = kr.PartitionConfig(
            recycle_from=2 if recycle else None,
            solver=kr.SolverSpec(family="gcrodr", m=60, k=20,
                                 preconditioner="ilu"))
        for j, (problem, oracle, failure) in enumerate(state["problems"]):
            yield Op(f"load{j}",
                     lambda p=problem: self._run(p, config),
                     lambda raw, p=problem, o=oracle, f=failure:
                         self._check(state["csr"], p, o, f, raw))

    @staticmethod
    def _run(problem, config):
        if problem is None:
            return None
        try:
            return kr.lbgs_solve(problem, config)
        except (kr.errors.MaxCouplings, kr.errors.DivergenceDetected) as exc:
            return exc

    @staticmethod
    def _check(csr, problem, oracle, failure, raw):
        if failure is not None:
            return Verdict(0, failure=failure)
        if isinstance(raw, Exception):
            return Verdict(raw.history.total_matvecs,
                           failure=type(raw).__name__)
        la, ls, hist = raw
        if not hist.converged:
            return Verdict(hist.total_matvecs, failure=hist.stop_reason)
        r_a = np.linalg.norm(problem.bf + problem.Gfs @ ls - csr @ la) \
            / np.linalg.norm(problem.bf)
        oa, os_ = oracle
        err_a = np.linalg.norm(la - oa) / np.linalg.norm(oa)
        err_s = np.linalg.norm(ls - os_) / np.linalg.norm(os_)
        if not (r_a <= EPS_A * RESIDUAL_SLACK and err_a <= ORACLE_TOL
                and err_s <= ORACLE_TOL):
            return Verdict(hist.total_matvecs,
                           wrong=f"fluid residual {r_a:.2e}, oracle error "
                                 f"fluid {err_a:.2e} structural {err_s:.2e}")
        return Verdict(hist.total_matvecs)


class FlexSequence:
    """FGCRO-DR(70, 10, 35), strategy B, over sequences of 10 right-hand sides.

    Inner GMRES(10) around ILU(0) on a 64x64 grid at Peclet 0 (n = 4096).
    Each right-hand side is the previous one plus a seeded random
    perturbation of 5% of its norm.  Each sequence gets a fresh solver and
    record, and recycling starts at system 2.
    """

    name = "flex_sequence"
    loads = 2  # sequences per round
    systems = 10
    warmup_ops = 10

    def setup(self, seed):
        A = kr.gen_convection_diffusion((64, 64), 0.0)
        P = kr.IluPreconditioner(kr.ilu_factor(A, 0))
        rng = np.random.default_rng(seed)
        sequences = []
        for _ in range(self.loads):
            b = rng.standard_normal(A.n)
            seq = [b]
            for _ in range(self.systems - 1):
                d = rng.standard_normal(A.n)
                b = b + 0.05 * np.linalg.norm(b) * d / np.linalg.norm(d)
                seq.append(b)
            sequences.append(seq)
        return dict(A=A, P=P, csr=_csr(A), sequences=sequences)

    def round_ops(self, state, recycle=True):
        A, P, csr = state["A"], state["P"], state["csr"]
        for s, seq in enumerate(state["sequences"]):
            holder = {}
            for i, b in enumerate(seq, start=1):
                use = recycle and i >= 2
                yield Op(f"seq{s}.sys{i}",
                         lambda b=b, i=i, use=use: self._run(A, P, holder, b,
                                                             i, use),
                         lambda raw, b=b: _residual_verdict(csr, b, raw[0],
                                                            raw[1], SOLVE_TOL))

    @staticmethod
    def _run(A, P, holder, b, index, use_recycle):
        if index == 1:
            holder["solver"] = kr.RecyclingSolver(
                kr.as_operator(A), P, m=70, k=35, flexible=True,
                strategy="B", m_i=10, tol=SOLVE_TOL,
                record=kr.ConvergenceRecord())
        solver = holder["solver"]
        solver.record.system_index = index
        return solver.solve(b, use_recycle=use_recycle)


class SingleLarge:
    """GMRES-DR(40, 15) with ILU(0) on a 128x128 grid at Peclet 0 (n = 16384).

    One solve from zero per operation.  The right-hand sides are uniform on
    [0, 1) from the legacy seeded generator.  Recycling across solves does
    not exist here, so the recycling-off variant is the same solve.
    """

    name = "single_large"
    loads = 4
    warmup_ops = 1

    def setup(self, seed):
        A = kr.gen_convection_diffusion((128, 128), 0.0)
        P = kr.IluPreconditioner(kr.ilu_factor(A, 0))
        rs = np.random.RandomState(seed)
        rhs = [rs.rand(A.n) for _ in range(self.loads)]
        return dict(A=A, P=P, csr=_csr(A), rhs=rhs)

    def round_ops(self, state, recycle=True):
        A, P, csr = state["A"], state["P"], state["csr"]
        for j, b in enumerate(state["rhs"]):
            yield Op(f"load{j}",
                     lambda b=b: kr.gmresdr_solve(A, P, b, m=40, k=15,
                                                  tol=SOLVE_TOL),
                     lambda raw, b=b: _residual_verdict(csr, b, raw[0],
                                                        raw[1], SOLVE_TOL))


WORKLOADS = {w.name: w for w in (CoupledRef(), FlexSequence(), SingleLarge())}
