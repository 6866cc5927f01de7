"""Batch front-end: scenario configs, deterministic CSV outputs, comparisons.

A scenario is an INI-style file with [problem], [solver], [partition],
[output] and [run] sections.  ``solve`` executes it and writes history.csv
(one file per sweep value when recycle_from is a list) plus summary.txt;
``compare`` tabulates matvec totals of several histories.  Identical config
and seed produce byte-identical CSV files.
"""

import argparse
import configparser
import os
import sys
from pathlib import Path

import numpy as np

from .coupled import (
    PartitionConfig,
    SolverSpec,
    _FluidSolver,
    gen_coupled_problem,
    lbgs_solve,
)
from .errors import (
    ConfigError,
    DivergenceDetected,
    KrylovError,
    MaxCouplings,
    SchemaMismatch,
)
from .operators import (
    gen_convection_diffusion,
    read_matrix_market,
    read_rhs,
)
from .records import ConvergenceRecord, read_history_csv

# Solver defaults follow the reference settings: GMRES-DR(120, 40) for the
# non-flexible families, FGMRES-DR(70, 10, 35) for the flexible ones,
# tolerance 1e-8 for single systems and 1e-6 for coupled runs.
SINGLE_DEFAULTS = {
    "gmres": dict(m=120),
    "gmresdr": dict(m=120, k=40),
    "gcrodr": dict(m=120, k=40),
    "fgmresdr": dict(m=70, m_i=10, k=35),
    "fgcrodr": dict(m=70, m_i=10, k=35),
}


def _get(cfg, section, key, default=None, cast=str):
    if not cfg.has_option(section, key):
        if default is None:
            raise ConfigError(f"{section}.{key}", "missing required key")
        return default
    raw = cfg.get(section, key)
    try:
        if cast is bool:
            return raw.strip().lower() in ("1", "true", "yes", "on")
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}", str(exc)) from exc


def _parse_recycle_from(raw):
    values = []
    for tok in str(raw).split(","):
        tok = tok.strip().lower()
        if not tok:
            continue
        if tok == "never":
            values.append(None)
        elif tok == "always":
            values.append(2)
        else:
            try:
                idx = int(tok)
            except ValueError as exc:
                raise ConfigError("partition.recycle_from", str(exc)) from exc
            if idx < 1:
                raise ConfigError("partition.recycle_from",
                                  "cycle index must be >= 1")
            values.append(idx)
    if not values:
        raise ConfigError("partition.recycle_from", "empty value")
    return values


class Scenario:
    """Validated scenario configuration."""

    def __init__(self, path, out_override=None, seed_override=None):
        cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        read = cfg.read(path)
        if not read:
            raise ConfigError("file", f"cannot read config {path!r}")
        if not cfg.has_section("problem"):
            raise ConfigError("problem", "missing [problem] section")
        self.kind = _get(cfg, "problem", "kind")
        if self.kind not in ("synthetic", "matrixmarket", "coupled"):
            raise ConfigError("problem.kind", f"unknown kind {self.kind!r}")
        self.seed = seed_override if seed_override is not None else \
            _get(cfg, "run", "seed", default=0, cast=int)
        self.out_dir = Path(out_override
                            or _get(cfg, "output", "out", default="out"))
        family = _get(cfg, "solver", "family", default="gmresdr")
        defaults = SINGLE_DEFAULTS.get(family)
        if defaults is None:
            raise ConfigError("solver.family", f"unknown family {family!r}")
        spec = dict(
            family=family,
            m=_get(cfg, "solver", "m", default=defaults.get("m", 120), cast=int),
            k=_get(cfg, "solver", "k", default=defaults.get("k", 40), cast=int),
            m_i=_get(cfg, "solver", "m_i", default=defaults.get("m_i", 10), cast=int),
            strategy=_get(cfg, "solver", "strategy", default="B"),
            preconditioner=_get(cfg, "solver", "preconditioner", default="ilu"),
            ilu_level=_get(cfg, "solver", "ilu_level", default=0, cast=int),
            max_matvecs=_get(cfg, "solver", "max_matvecs", default=500_000,
                             cast=int),
        )
        try:
            self.solver = SolverSpec(**spec)
        except ValueError as exc:  # the family is known: a bad strategy
            raise ConfigError("solver.strategy", str(exc)) from exc
        default_tol = 1e-6 if self.kind == "coupled" else 1e-8
        self.tol = _get(cfg, "solver", "tol", default=default_tol, cast=float)
        if self.kind == "matrixmarket":
            self.matrix_path = _get(cfg, "problem", "matrix")
            if not os.path.exists(self.matrix_path):
                raise ConfigError("problem.matrix",
                                  f"no such file {self.matrix_path!r}")
            self.rhs_path = _get(cfg, "problem", "rhs", default="__ones__")
            if self.rhs_path not in ("__ones__", "ones", "random") \
                    and not os.path.exists(self.rhs_path):
                raise ConfigError("problem.rhs",
                                  f"no such file {self.rhs_path!r}")
        else:
            self.nx = _get(cfg, "problem", "nx", default=32, cast=int)
            self.ny = _get(cfg, "problem", "ny", default=self.nx, cast=int)
            self.peclet = _get(cfg, "problem", "peclet", default=0.0, cast=float)
            if self.nx < 3 or self.ny < 3:
                raise ConfigError("problem.nx", "grid must be at least 3x3")
            self.rhs_path = _get(cfg, "problem", "rhs", default="random")
        if self.kind == "coupled":
            self.n_s = _get(cfg, "problem", "ns", default=8, cast=int)
            self.coupling_strength = _get(cfg, "problem", "coupling_strength",
                                          default=45.0, cast=float)
            part = "partition"
            self.recycle_values = _parse_recycle_from(
                _get(cfg, part, "recycle_from", default="never"))
            self.partition = dict(
                rho_trigger=_get(cfg, part, "rho_trigger", default=0.6,
                                 cast=float),
                theta_s=_get(cfg, part, "theta_s", default=1.0, cast=float),
                aitken=_get(cfg, part, "aitken", default=False, cast=bool),
                eps_A=_get(cfg, part, "eps_A", default=self.tol, cast=float),
                eps_S=_get(cfg, part, "eps_S", default=self.tol, cast=float),
                n_cpl=_get(cfg, part, "n_cpl", default=50, cast=int),
            )
            if not 0.0 < self.partition["rho_trigger"] < 1.0:
                raise ConfigError("partition.rho_trigger", "must lie in (0,1)")

    def tag(self, recycle_from):
        return "never" if recycle_from is None else str(recycle_from)


def _build_rhs(scenario, n, rng):
    if scenario.rhs_path in ("__ones__", "ones"):
        return np.ones(n)
    if scenario.rhs_path == "random":
        return rng.standard_normal(n)
    b = read_rhs(scenario.rhs_path)
    if len(b) != n:
        raise ConfigError("problem.rhs", f"rhs length {len(b)} != n {n}")
    return b


def _run_single(scenario):
    rng = np.random.default_rng(scenario.seed)
    if scenario.kind == "matrixmarket":
        A = read_matrix_market(scenario.matrix_path)
    else:
        A = gen_convection_diffusion((scenario.nx, scenario.ny),
                                     scenario.peclet)
    b = _build_rhs(scenario, A.n, rng)
    record = ConvergenceRecord()
    record.system_index = 1
    solver = _FluidSolver(scenario.solver, A, scenario.tol, record, None)
    _, report = solver.solve(b, None, None, True)
    summary = {
        "total_matvecs": report.matvecs,
        "couplings": 0,
        "converged": str(report.converged).lower(),
        "final_rA": repr(float(report.final_true_residual)),
        "final_rS": repr(0.0),
    }
    return record, summary, report.converged


def _run_coupled_one(scenario, problem, recycle_from):
    config = PartitionConfig(recycle_from=recycle_from,
                             solver=scenario.solver, **scenario.partition)
    record = ConvergenceRecord()
    converged = True
    try:
        _, _, history = lbgs_solve(problem, config, record=record)
    except (MaxCouplings, DivergenceDetected) as exc:
        history = exc.history
        converged = False
    last = history.cycles[-1] if history.cycles else None
    summary = {
        "total_matvecs": history.total_matvecs,
        "couplings": history.couplings,
        "converged": str(converged and history.converged).lower(),
        "final_rA": repr(last.r_A) if last else "",
        "final_rS": repr(last.r_S) if last else "",
    }
    return record, summary, converged and history.converged


def run_scenario(config_path, out_dir=None, seed=None, quiet=False):
    """Execute a scenario config; returns the process exit code.

    0 on convergence, 2 when a budget/coupling limit stopped the run, 1 on
    configuration or runtime errors.  No partial outputs are written when
    validation fails.
    """
    try:
        scenario = Scenario(config_path, out_override=out_dir,
                            seed_override=seed)
    except (ConfigError, KrylovError) as exc:
        if not quiet:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if scenario.kind == "coupled":
            problem = gen_coupled_problem(
                (scenario.nx, scenario.ny), scenario.n_s, scenario.peclet,
                scenario.coupling_strength, scenario.seed)
            results = [(scenario.tag(rf),
                        _run_coupled_one(scenario, problem, rf))
                       for rf in scenario.recycle_values]
        else:
            record, summary, ok = _run_single(scenario)
            results = [("single", (record, summary, ok))]
    except KrylovError as exc:
        if not quiet:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    scenario.out_dir.mkdir(parents=True, exist_ok=True)
    all_ok = True
    summary_lines = []
    sweep = len(results) > 1
    for tag, (record, summary, ok) in results:
        all_ok = all_ok and ok
        name = f"history_{tag}.csv" if sweep else "history.csv"
        record.write_csv(scenario.out_dir / name)
        prefix = f"recycle_{tag}." if sweep else ""
        for key, value in summary.items():
            summary_lines.append(f"{prefix}{key}={value}")
    if sweep:
        base = next((s for t, (r, s, o) in results if t == "never"), None)
        if base and base["total_matvecs"]:
            for tag, (_, summary, _) in results:
                if tag == "never":
                    continue
                saving = 100.0 * (1.0 - summary["total_matvecs"]
                                  / base["total_matvecs"])
                summary_lines.append(f"recycle_{tag}.saving_pct={saving:.2f}")
    with open(scenario.out_dir / "summary.txt", "w", encoding="ascii",
              newline="\n") as fh:
        fh.write("\n".join(summary_lines) + "\n")
    if not quiet:
        for line in summary_lines:
            print(line)
    return 0 if all_ok else 2


def compare_runs(paths):
    """Text table of matvec totals and savings across history CSVs."""
    if len(paths) < 2:
        raise SchemaMismatch("need at least two histories to compare")
    rows = []
    for path in paths:
        data = read_history_csv(path)
        if not data:
            raise SchemaMismatch(f"{path}: empty history")
        total = data[-1]["matvecs"]
        finals = [r for r in data if r["true_residual_rel"] is not None]
        final_true = finals[-1]["true_residual_rel"] if finals else float("nan")
        final_lsq = data[-1]["lsq_residual_rel"]
        rows.append((os.path.basename(path), total, final_lsq, final_true))
    base = rows[0][1]
    lines = [f"{'run':<30} {'matvecs':>9} {'saving%':>8} "
             f"{'final_lsq':>12} {'final_true':>12}"]
    for name, total, lsq, true in rows:
        saving = 100.0 * (1.0 - total / base) if base else 0.0
        lines.append(f"{name:<30} {total:>9d} {saving:>8.2f} "
                     f"{lsq:>12.3e} {true:>12.3e}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="krylov-recycle",
        description="Deflated/recycled Krylov solver scenarios")
    sub = parser.add_subparsers(dest="command", required=True)
    p_solve = sub.add_parser("solve", help="run a scenario config")
    p_solve.add_argument("config")
    p_solve.add_argument("--out", default=None, help="output directory")
    p_solve.add_argument("--seed", type=int, default=None)
    p_solve.add_argument("--quiet", action="store_true")
    p_cmp = sub.add_parser("compare", help="compare history CSV files")
    p_cmp.add_argument("csv", nargs="+")
    args = parser.parse_args(argv)
    if args.command == "solve":
        return run_scenario(args.config, out_dir=args.out, seed=args.seed,
                            quiet=args.quiet)
    try:
        print(compare_runs(args.csv))
    except (SchemaMismatch, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
