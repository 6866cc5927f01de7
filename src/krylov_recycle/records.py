"""Convergence bookkeeping shared by the solvers, the driver and the CLI."""

import io
from dataclasses import dataclass, field

from .errors import SchemaMismatch

CSV_COLUMNS = (
    "system_index",
    "coupling_cycle",
    "solver_cycle",
    "iteration",
    "matvecs",
    "lsq_residual_rel",
    "true_residual_rel",
    "event",
    "d_p",
    "p",
)


@dataclass
class Row:
    system_index: int
    coupling_cycle: int
    solver_cycle: int
    iteration: int
    matvecs: int
    lsq_residual_rel: float
    true_residual_rel: float | None = None
    event: str = "none"
    d_p: float | None = None
    p: int | None = None


class ConvergenceRecord:
    """Ordered per-iteration rows of one run; serializes to a stable CSV.

    Each ``append`` adds one row.  The solvers and the coupled driver write
    a row only after a new matvec, so within a run the matvec column is
    strictly increasing; floats are formatted with the shortest round-trip
    representation so identical runs produce byte-identical files.
    """

    def __init__(self):
        self.rows: list[Row] = []
        self.system_index = 0
        self.coupling_cycle = 0

    def append(self, solver_cycle, iteration, matvecs, lsq_rel, true_rel=None,
               event="none", d_p=None, p=None):
        lsq_rel = float(lsq_rel)
        true_rel = None if true_rel is None else float(true_rel)
        d_p = None if d_p is None else float(d_p)
        self.rows.append(Row(self.system_index, self.coupling_cycle,
                             solver_cycle, iteration, matvecs, lsq_rel,
                             true_rel, event, d_p, p))

    def to_csv(self):
        buf = io.StringIO()
        buf.write(",".join(CSV_COLUMNS) + "\n")
        for r in self.rows:
            buf.write(
                f"{r.system_index},{r.coupling_cycle},{r.solver_cycle},"
                f"{r.iteration},{r.matvecs},{r.lsq_residual_rel!r},"
                f"{'' if r.true_residual_rel is None else repr(r.true_residual_rel)},"
                f"{r.event},"
                f"{'' if r.d_p is None else repr(r.d_p)},"
                f"{'' if r.p is None else r.p}\n"
            )
        return buf.getvalue()

    def write_csv(self, path):
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(self.to_csv())


def read_history_csv(path):
    """Parse a history CSV back into raw rows; validates the schema."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if tuple(header.split(",")) != CSV_COLUMNS:
            raise SchemaMismatch(f"{path}: unexpected columns {header!r}")
        rows = []
        for line in fh:
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(CSV_COLUMNS):
                raise SchemaMismatch(f"{path}: ragged row {line!r}")
            rows.append(
                dict(
                    system_index=int(parts[0]),
                    coupling_cycle=int(parts[1]),
                    solver_cycle=int(parts[2]),
                    iteration=int(parts[3]),
                    matvecs=int(parts[4]),
                    lsq_residual_rel=float(parts[5]),
                    true_residual_rel=float(parts[6]) if parts[6] else None,
                    event=parts[7],
                    d_p=float(parts[8]) if parts[8] else None,
                    p=int(parts[9]) if parts[9] else None,
                )
            )
    return rows


@dataclass
class SolveReport:
    """Outcome of one linear solve (or one system of a sequence).

    ``matvecs`` counts every system-matrix application of the solve on the
    operator's counter, including the initial residual of a nonzero x0 and
    the inner GMRES steps of a flexible preconditioner built by the solver
    (``m_i``).  A caller that hands in the image ``Ax0`` = A x0 makes that
    initial residual free, so the count is one lower and every other field
    is the same.  The budget ``max_matvecs`` is
    checked after each Arnoldi step and the cycle then closes with one
    true-residual matvec, so ``matvecs`` may pass the budget by at most one
    Arnoldi step's matvecs: 1, or 1 + m_i with an inner GMRES(m_i)
    preconditioner.  ``final_lsq_residual`` is the last cycle's
    least-squares residual, relative to ||b||.
    """

    converged: bool
    iterations: int
    matvecs: int
    cycles: int
    final_lsq_residual: float
    final_true_residual: float
    stop_reason: str = "converged"
    cold_restarts: int = 0
    stagnation: bool = False
    history: ConvergenceRecord | None = field(default=None, repr=False)
