"""Scenario front-end tests: configs, outputs, determinism, comparisons."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from krylov_recycle import gmres
from krylov_recycle.cli import Scenario, compare_runs, main, run_scenario
from krylov_recycle.coupled import (
    gen_coupled_problem,
    lbgs_solve,
    monolithic_oracle,
)
from krylov_recycle.errors import ConfigError, SchemaMismatch
from krylov_recycle.operators import SparseMatrix, write_matrix_market
from krylov_recycle.records import read_history_csv


REFERENCE_SCENARIO = (Path(__file__).parents[1] / "scenarios"
                      / "coupled_ref.ini")


def write_single_config(tmp_path, matrix_path, family="gmres", extra=""):
    cfg = tmp_path / "single.ini"
    cfg.write_text(f"""[problem]
kind = matrixmarket
matrix = {matrix_path}
rhs = ones

[solver]
family = {family}
m = 10
preconditioner = identity
{extra}
[run]
seed = 7
""")
    return cfg


def write_coupled_config(tmp_path, recycle="never,2", n_cpl=50):
    cfg = tmp_path / "coupled.ini"
    cfg.write_text(f"""[problem]
kind = coupled
nx = 16
ny = 16
peclet = 30.0
ns = 8
coupling_strength = 30.0

[solver]
family = gcrodr
m = 40
k = 12
preconditioner = jacobi

[partition]
recycle_from = {recycle}
n_cpl = {n_cpl}

[run]
seed = 42
""")
    return cfg


def write_deflated_config(tmp_path, family, strategy):
    cfg = tmp_path / "deflated.ini"
    cfg.write_text(f"""[problem]
kind = synthetic
nx = 16
ny = 16
peclet = 20.0

[solver]
family = {family}
m = 8
k = 3
m_i = 2
strategy = {strategy}
preconditioner = jacobi

[run]
seed = 3
""")
    return cfg


@pytest.fixture
def identity_mtx(tmp_path):
    path = tmp_path / "eye.mtx"
    write_matrix_market(path, SparseMatrix.identity(2))
    return path


class TestRunScenario:
    def test_identity_single_row(self, tmp_path, identity_mtx):
        cfg = write_single_config(tmp_path, identity_mtx)
        out = tmp_path / "out"
        assert run_scenario(cfg, out_dir=out, quiet=True) == 0
        rows = read_history_csv(out / "history.csv")
        iteration_rows = [r for r in rows if r["true_residual_rel"] is None]
        assert len(iteration_rows) == 1
        assert rows[-1]["true_residual_rel"] < 1e-12
        summary = (out / "summary.txt").read_text()
        assert "converged=true" in summary
        assert "total_matvecs=" in summary

    def test_determinism_byte_identical(self, tmp_path, identity_mtx):
        cfg = write_coupled_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run_scenario(cfg, out_dir=out1, quiet=True) == 0
        assert run_scenario(cfg, out_dir=out2, quiet=True) == 0
        for name in ("history_never.csv", "history_2.csv", "summary.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_sweep_reports_savings(self, tmp_path):
        cfg = write_coupled_config(tmp_path, recycle="never,2,3")
        out = tmp_path / "out"
        assert run_scenario(cfg, out_dir=out, quiet=True) == 0
        summary = dict(
            line.split("=", 1)
            for line in (out / "summary.txt").read_text().splitlines())
        base = int(summary["recycle_never.total_matvecs"])
        for tag in ("2", "3"):
            assert int(summary[f"recycle_{tag}.total_matvecs"]) < base
            assert float(summary[f"recycle_{tag}.saving_pct"]) > 0.0

    def test_coupled_summary_reports_oracle_errors(self, tmp_path):
        cfg = write_coupled_config(tmp_path)
        out = tmp_path / "out"
        assert run_scenario(cfg, out_dir=out, quiet=True) == 0
        summary = dict(
            line.split("=", 1)
            for line in (out / "summary.txt").read_text().splitlines())
        scenario = Scenario(cfg)
        problem = gen_coupled_problem(
            (scenario.nx, scenario.ny), scenario.n_s, scenario.peclet,
            scenario.coupling_strength, scenario.seed)
        oracle = monolithic_oracle(problem)
        for tag, rf in (("never", None), ("2", 2)):
            la, ls, _ = lbgs_solve(problem, dataclasses.replace(
                scenario.partition, recycle_from=rf))
            for name, x, ref in zip("as", (la, ls), oracle):
                err = float(summary[f"recycle_{tag}.oracle_err_{name}"])
                assert err == np.linalg.norm(x - ref) / np.linalg.norm(ref)
                assert 0.0 < err < 1e-5

    def test_stopped_coupled_run_reports_no_oracle_error(self, tmp_path):
        cfg = write_coupled_config(tmp_path, recycle="never", n_cpl=1)
        out = tmp_path / "out"
        assert run_scenario(cfg, out_dir=out, quiet=True) == 2
        lines = (out / "summary.txt").read_text().splitlines()
        assert "converged=false" in lines
        assert "oracle_err_a=" in lines and "oracle_err_s=" in lines

    def test_config_error_no_partial_outputs(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[problem]\nkind = nonsense\n")
        out = tmp_path / "out"
        assert run_scenario(cfg, out_dir=out, quiet=True) == 1
        assert not out.exists()

    def test_missing_matrix_file_is_config_error(self, tmp_path):
        cfg = write_single_config(tmp_path, tmp_path / "missing.mtx")
        assert run_scenario(cfg, out_dir=tmp_path / "o", quiet=True) == 1
        assert not (tmp_path / "o").exists()

    def test_budget_exhaustion_exit_code(self, tmp_path):
        cfg = tmp_path / "hard.ini"
        cfg.write_text("""[problem]
kind = synthetic
nx = 24
ny = 24
peclet = 10.0

[solver]
family = gmres
m = 10
preconditioner = identity
tol = 1e-12
max_matvecs = 30

[run]
seed = 1
""")
        out = tmp_path / "out"
        assert run_scenario(cfg, out_dir=out, quiet=True) == 2
        assert (out / "history.csv").exists()

    def test_seed_override_changes_history(self, tmp_path):
        cfg = write_coupled_config(tmp_path, recycle="2")
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run_scenario(cfg, out_dir=out1, seed=1, quiet=True) == 0
        assert run_scenario(cfg, out_dir=out2, seed=2, quiet=True) == 0
        assert (out1 / "history.csv").read_bytes() \
            != (out2 / "history.csv").read_bytes()

    def test_matvecs_strictly_increasing(self, tmp_path):
        cfg = write_coupled_config(tmp_path, recycle="2")
        out = tmp_path / "out"
        assert run_scenario(cfg, out_dir=out, quiet=True) == 0
        rows = read_history_csv(out / "history.csv")
        for prev, row in zip(rows, rows[1:]):
            if row["event"] != "coupling":
                assert row["matvecs"] > prev["matvecs"]
            elif prev["event"] != "coupling" \
                    and prev["system_index"] == row["system_index"]:
                # The sub-solve ran a cycle, and r_A is read from the
                # closing product of its last one.
                assert row["matvecs"] == prev["matvecs"]
            else:
                assert row["matvecs"] == prev["matvecs"] + 1
        events = [r["event"] for r in rows]
        assert "recycle_start" in events
        couplings = sum(1 for e in events if e == "coupling")
        assert couplings >= 2

    @pytest.mark.parametrize("strategy", ["A", "B", "C"])
    def test_flexible_family_with_strategy(self, tmp_path, strategy):
        cfg = tmp_path / "flex.ini"
        cfg.write_text(f"""[problem]
kind = synthetic
nx = 16
ny = 16
peclet = 20.0

[solver]
family = fgcrodr
m = 20
k = 6
m_i = 4
strategy = {strategy}
preconditioner = jacobi

[run]
seed = 3
""")
        out = tmp_path / "out"
        assert run_scenario(cfg, out_dir=out, quiet=True) == 0
        summary = (out / "summary.txt").read_text()
        assert "converged=true" in summary

    @pytest.mark.parametrize("family", ["gmresdr", "fgmresdr"])
    @pytest.mark.parametrize("strategy", ["A", "B"])
    def test_deflated_family_runs_its_strategy(self, tmp_path, monkeypatch,
                                               family, strategy):
        calls = {"A": 0, "B": 0}
        for tag, name in (("A", "harmonic_ritz_strategy_a"),
                          ("B", "harmonic_ritz_standard")):
            def counted(*args, _fn=getattr(gmres, name), _tag=tag,
                        **kwargs):
                calls[_tag] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(gmres, name, counted)
        cfg = write_deflated_config(tmp_path, family, strategy)
        assert run_scenario(cfg, out_dir=tmp_path / "out", quiet=True) == 0
        other = "B" if strategy == "A" else "A"
        assert calls[strategy] > 0
        assert calls[other] == 0

    @pytest.mark.parametrize("family", ["gmresdr", "fgmresdr"])
    def test_deflated_family_rejects_strategy_c(self, tmp_path, family):
        cfg = write_deflated_config(tmp_path, family, "C")
        out = tmp_path / "out"
        assert run_scenario(cfg, out_dir=out, quiet=True) == 1
        assert not out.exists()


    @pytest.mark.parametrize("strategy", ["A", "C"])
    def test_gcrodr_rejects_strategy_other_than_b(self, tmp_path, strategy):
        cfg = write_deflated_config(tmp_path, "gcrodr", strategy)
        with pytest.raises(ConfigError) as err:
            Scenario(cfg)
        assert err.value.field == "solver.strategy"
        out = tmp_path / "out"
        assert run_scenario(cfg, out_dir=out, quiet=True) == 1
        assert not out.exists()

    @pytest.mark.parametrize("strategy", ["A", "C"])
    def test_gmres_rejects_strategy_other_than_b(self, tmp_path, strategy):
        cfg = write_deflated_config(tmp_path, "gmres", strategy)
        with pytest.raises(ConfigError) as err:
            Scenario(cfg)
        assert err.value.field == "solver.strategy"
        out = tmp_path / "out"
        assert run_scenario(cfg, out_dir=out, quiet=True) == 1
        assert not out.exists()


    @pytest.mark.parametrize("family,m,k,partition,field,solver", [
        ("gcrodr", 40, 12, "theta_s = 0", "partition.theta_s", ""),
        ("gcrodr", 40, 12, "rho_trigger = 1.0", "partition.rho_trigger", ""),
        ("gcrodr", 20, 25, "", "solver.k", ""),
        ("fgcrodr", 20, 0, "", "solver.k", ""),
        ("gmresdr", 20, 20, "", "solver.k", ""),
        ("gmres", 0, 0, "", "solver.m", ""),
        ("gcrodr", -3, 1, "", "solver.m", ""),
        ("fgmresdr", 10, 3, "", "solver.m_i", "m_i = 0"),
        ("fgcrodr", 10, 3, "", "solver.m_i", "m_i = -1"),
        ("gcrodr", 40, 12, "", "solver.ilu_level", "ilu_level = -1"),
    ], ids=["theta_s", "rho_trigger", "gcrodr-k", "fgcrodr-k", "gmresdr-k",
            "gmres-m", "gcrodr-m", "fgmresdr-m_i", "fgcrodr-m_i",
            "ilu_level"])
    def test_out_of_range_value_is_a_config_error(self, tmp_path, capsys,
                                                  family, m, k, partition,
                                                  field, solver):
        cfg = tmp_path / "range.ini"
        cfg.write_text(f"""[problem]
kind = coupled
nx = 16

[solver]
family = {family}
m = {m}
k = {k}
{solver}

[partition]
{partition}
""")
        with pytest.raises(ConfigError) as err:
            Scenario(cfg)
        assert err.value.field == field
        out = tmp_path / "out"
        assert run_scenario(cfg, out_dir=out) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: config field '{field}'")
        assert captured.out == ""
        assert not out.exists()


    @pytest.mark.parametrize("value, parsed", [
        ("always", [2]), ("never", [None]), ("never, 3", [None, 3])])
    def test_recycle_from_values(self, tmp_path, value, parsed):
        cfg = write_coupled_config(tmp_path, recycle=value)
        assert Scenario(cfg).recycle_values == parsed

    @pytest.mark.parametrize("value", ["0", "x", ""],
                             ids=["zero", "word", "empty"])
    def test_bad_recycle_from_is_a_config_error(self, tmp_path, value):
        cfg = write_coupled_config(tmp_path, recycle=value)
        with pytest.raises(ConfigError) as err:
            Scenario(cfg)
        assert err.value.field == "partition.recycle_from"

    @pytest.mark.parametrize("text, field", [
        ("```ini\n" + REFERENCE_SCENARIO.read_text() + "```\n", "file"),
        ("[problem]\nkind = synthetic\nnx = 8\nnx = 9\n", "file"),
        ("[problem]\nkind = synthetic\npeclet = 5%\n", "problem.peclet"),
    ], ids=["fenced", "duplicate-key", "percent"])
    def test_unparsable_file_is_a_config_error(self, tmp_path, capsys, text,
                                               field):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        with pytest.raises(ConfigError) as err:
            Scenario(cfg)
        assert err.value.field == field
        out = tmp_path / "out"
        assert run_scenario(cfg, out_dir=out) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("old, new, field", [
        ("[partition]", "[partiton]", "partiton.recycle_from"),
        ("n_cpl = 50", "rho_triger = 0.3", "partition.rho_triger"),
        ("kind = coupled", "kind = synthetic", "problem.ns"),
    ], ids=["section", "key", "key-of-another-kind"])
    def test_unknown_section_or_key_is_a_config_error(self, tmp_path, capsys,
                                                      old, new, field):
        cfg = write_coupled_config(tmp_path)
        cfg.write_text(cfg.read_text().replace(old, new))
        with pytest.raises(ConfigError) as err:
            Scenario(cfg)
        assert err.value.field == field
        out = tmp_path / "out"
        assert run_scenario(cfg, out_dir=out, seed=1) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""
        assert not out.exists()


class TestCompareRuns:
    def test_identical_runs_zero_saving(self, tmp_path, identity_mtx):
        cfg = write_single_config(tmp_path, identity_mtx)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_scenario(cfg, out_dir=out1, quiet=True)
        run_scenario(cfg, out_dir=out2, quiet=True)
        table = compare_runs([out1 / "history.csv", out2 / "history.csv"])
        lines = table.splitlines()
        assert len(lines) == 3
        assert "0.00" in lines[2]

    def test_recycled_vs_cold_positive_saving(self, tmp_path):
        cfg = write_coupled_config(tmp_path, recycle="never,2")
        out = tmp_path / "out"
        run_scenario(cfg, out_dir=out, quiet=True)
        table = compare_runs([out / "history_never.csv",
                              out / "history_2.csv"])
        saving = float(table.splitlines()[2].split()[2])
        assert saving > 0.0

    def test_schema_mismatch(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,columns\n1,2\n")
        good = tmp_path / "good.csv"
        good.write_text("also,bad\n")
        with pytest.raises(SchemaMismatch):
            compare_runs([bad, good])


class TestMainEntry:
    def test_solve_and_compare_subcommands(self, tmp_path, identity_mtx,
                                           capsys):
        cfg = write_single_config(tmp_path, identity_mtx)
        out = tmp_path / "out"
        assert main(["solve", str(cfg), "--out", str(out), "--quiet"]) == 0
        assert main(["compare", str(out / "history.csv"),
                     str(out / "history.csv")]) == 0
        captured = capsys.readouterr()
        assert "matvecs" in captured.out
