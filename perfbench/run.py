"""Closed-loop benchmark of krylov_recycle: one process, one client.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload coupled_ref --seed 1 --seconds 35 --trace 0

``--workload all`` runs coupled_ref, flex_sequence and single_large in turn.

The next operation starts only when the previous one has returned.  Every
operation is timed on its own and its output is checked independently.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a separate traced phase (see layers.py).  Metric names and units come from
BENCHMARK.json at the checkout root.  Lines before the last one are for
people: every metric with its unit, the environment, the per-input counts.
"""

import os
import sys

# BLAS threads are read when numpy loads its BLAS, so pin them first.  On a
# 2-CPU KVM guest, two threads make the reference coupled solve (n = 576)
# take about twice as long as one.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-up is timed before and after the timed phase, so that its median
# spans more than one of the machine's speed phases.  Each time it runs at
# least SETUP_REPEATS times, and again while under SETUP_SECONDS.
SETUP_REPEATS = 2
SETUP_SECONDS = 1.0
SETUP_MAX_REPEATS = 5
CALIBRATION_REPEATS = 3
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail


def main(argv=None):
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "krylov_recycle" / "__init__.py").is_file():
        sys.exit(f"error: library source not found under {SRC}")
    if not spec_path.is_file():
        sys.exit(f"error: {spec_path} not found")
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="'all' runs every workload, each in its own "
                             "process, one after the other")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed),
                                 "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        sys.exit(max(codes))
    workload = WORKLOADS[args.workload]
    print(f"# workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(environment(), sort_keys=True))
    calib = [calibrate() for _ in range(CALIBRATION_REPEATS)]
    if args.trace:
        run = traced_run(workload, args.seed, args.seconds)
        wanted = spec["per_layer"]
    else:
        run = timed_run(workload, args.seed, args.seconds)
        wanted = spec["end_to_end"]
    calib_end = [calibrate() for _ in range(CALIBRATION_REPEATS)]
    run.values["machine.calib_s"] = statistics.median(calib + calib_end)
    print(f"# calibration kernel: start {min(calib):.4f} s, "
          f"end {min(calib_end):.4f} s (drift probe, not used to rescale)")
    for note in run.notes:
        print("# " + note)

    metrics = {}
    for m in wanted:
        value = float(run.values[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<32} {value:<14.6g} {m['unit']}")
    for note in run.extra_lines:
        print(note)
    for problem in run.problems:
        print("# INCORRECT: " + problem)
    print(json.dumps({"correct": not run.problems,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))


# ---------------------------------------------------------------------------
# Environment and drift probe
# ---------------------------------------------------------------------------


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_build(numpy),
        "scipy_blas": _blas_build(scipy),
        "blas_threads_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "blas_threads_runtime": _openblas_threads(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def _blas_build(module):
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _openblas_threads():
    """Thread count reported by each OpenBLAS loaded into this process."""
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        return {}
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def calibrate():
    """Seconds for a fixed pure-Python plus BLAS-1 kernel."""
    import numpy as np

    v = np.linspace(0.0, 1.0, 50_000)
    t0 = perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    s = 0.0
    for _ in range(300):
        s += float(v @ v)
    return perf_counter() - t0


# ---------------------------------------------------------------------------
# Timed phases
# ---------------------------------------------------------------------------


class Run:
    def __init__(self):
        self.values = {}
        self.notes = []
        self.extra_lines = []
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def account(self, samples):
        self.attempted += len(samples)
        for label, _, verdict in samples:
            if verdict.failure is not None:
                self.failed += 1
                self.notes.append(f"failed {label}: {verdict.failure}")
            if verdict.wrong is not None:
                self.problems.append(f"{label}: {verdict.wrong}")


def run_ops(ops, deadline=None, tracer=None):
    """Run ``ops`` one after the other; returns a list of samples.

    A sample is (label, seconds, verdict).  Only the operation itself is
    timed; its check runs after the clock stops.  With a ``deadline`` the
    loop stops after the first operation that ends past it.
    """
    samples = []
    for op in ops:
        if tracer is not None:
            spmv0 = tracer.calls("operators.spmv")
            tracer.enter("bench.op")
        t = perf_counter()
        try:
            raw = op.run()
        finally:
            dt = perf_counter() - t
            if tracer is not None:
                tracer.exit()
        verdict = op.check(raw)
        if tracer is not None:
            verdict.spmv_calls = tracer.calls("operators.spmv") - spmv0
        samples.append((op.label, dt, verdict))
        if deadline is not None and perf_counter() >= deadline:
            break
    return samples


def endless_rounds(workload, state):
    while True:
        yield from workload.round_ops(state)


def warm_up(workload, state):
    """Run the first operations of a round once, untimed."""
    for i, op in enumerate(workload.round_ops(state)):
        if i == workload.warmup_ops:
            break
        op.run()


def repeated_setup(workload, seed):
    """Set up several times; returns (last state, seconds of each set-up)."""
    times = []
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_SECONDS
                                         and len(times) < SETUP_MAX_REPEATS):
        t = perf_counter()
        state = workload.setup(seed)
        times.append(perf_counter() - t)
    return state, times


def tail(times):
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, pct)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def upper_quartile(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def by_label(samples):
    out = {}
    for label, dt, _ in samples:
        out.setdefault(label, []).append(dt)
    return out


def matvecs_by_label(samples, run):
    """Matvecs per input; a count that differs between rounds is a problem."""
    out = {}
    for label, _, verdict in samples:
        first = out.setdefault(label, verdict.matvecs)
        if verdict.matvecs != first:
            run.problems.append(f"{label}: {verdict.matvecs} matvecs, "
                                f"{first} in an earlier round")
    return out


def timed_run(workload, seed, seconds):
    run = Run()
    state, setups = repeated_setup(workload, seed)
    warm_up(workload, state)
    t0 = perf_counter()
    samples = run_ops(endless_rounds(workload, state), deadline=t0 + seconds)
    elapsed = perf_counter() - t0
    setups += repeated_setup(workload, seed)[1]
    run.account(samples)
    good = [s for s in samples if s[2].failure is None]
    if not good:
        run.problems.append("no operation succeeded")
        good = samples
    ok = [dt for _, dt, _ in good]
    tail_value, tail_pct = tail(ok)
    per_input = by_label(good)
    solves_per_s = (len(samples) - run.failed) / elapsed
    v = run.values
    # On a shared 2-CPU KVM guest each CPU switches between two speeds, about
    # 1.4x apart, every 0.5 to 5 s, and the share of fast time drifts for
    # minutes.  An operation shorter than a phase runs at one speed, so op
    # times are bimodal: their median jumps between the modes and their mean
    # follows the share of fast time in the run.  The upper quartile of each
    # input's own times sits in the slow mode, which holds most of the time;
    # taking it per input keeps inputs of different cost apart, and the mean
    # over inputs is the time of a round at that speed.
    v["time_to_solution_s"] = statistics.fmean(
        upper_quartile(times) for times in per_input.values())
    v["time_to_solution_s.tail"] = tail_value
    matvecs = matvecs_by_label(samples, run)
    v["matvecs_per_solve"] = statistics.fmean(matvecs.values())
    v["setup_s"] = statistics.median(setups)
    v["success_ratio"] = 1.0 - run.failed / run.attempted
    v["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.notes.append(f"{len(samples)} operations over {len(per_input)} "
                     f"inputs; op time median {statistics.median(ok):.6g} s, "
                     f"mean {statistics.fmean(ok):.6g} s")
    run.notes.append(f"tail: p{tail_pct:.1f} of {len(ok)} samples, "
                     f"{min(TAIL_BEYOND, len(ok) - 1)} beyond it")
    run.notes.append(f"setup runs: {', '.join(f'{s:.4f}' for s in setups)} s")
    run.notes.append("matvecs per input: " + json.dumps(matvecs))
    # Not gated: with one client, throughput is the reciprocal of the mean
    # op time, which spreads too widely here; fail_ratio is 1 - success_ratio.
    run.extra_lines += [
        f"{'solves_per_s':<32} {solves_per_s:<14.6g} 1/s",
        f"{'fail_ratio':<32} {run.failed / run.attempted:<14.6g} "
        f"ratio ({run.failed}/{run.attempted} operations)"]
    return run


def traced_run(workload, seed, seconds):
    """Plain, recycling-off and traced rounds in turn for ``seconds``.

    Taking the three kinds of round in turn keeps the machine's slow and
    fast phases out of the ratios between them.  The wrappers are installed
    before each traced round builds its operators and removed after it.
    """
    import krylov_recycle as kr
    from layers import SolveTally, Tracer, install

    run = Run()
    tracer = Tracer()
    tally = SolveTally()
    install(tracer, kr, tally)
    try:
        state = workload.setup(seed)
    finally:
        tracer.restore()
    setup_ilu_s = tracer.stats["operators.ilu_factor"][1]
    tracer.stats.clear()
    warm_up(workload, state)

    rounds = {"plain": [], "never": [], "traced": []}
    t_end = perf_counter() + seconds
    while True:
        for kind, per_kind in rounds.items():
            traced = kind == "traced"
            if traced:
                install(tracer, kr, tally)
            try:
                samples = run_ops(
                    workload.round_ops(state, recycle=kind != "never"),
                    tracer=tracer if traced else None)
            finally:
                if traced:
                    tracer.restore()
            run.account(samples)
            per_kind.append(samples)
        if perf_counter() >= t_end:
            break

    def round_median(kind):
        return statistics.median(sum(dt for _, dt, _ in samples)
                                 for samples in rounds[kind])

    def round_matvecs(kind):
        return sum(x.matvecs for _, _, x in rounds[kind][0])

    reference = matvecs_by_label(
        [s for samples in rounds["plain"] for s in samples], run)
    traced = [s for samples in rounds["traced"] for s in samples]
    for label, _, verdict in traced:
        if verdict.failure is not None:
            continue
        if verdict.matvecs != reference.get(label):
            run.problems.append(f"{label}: traced run used {verdict.matvecs} "
                                f"matvecs, untraced {reference.get(label)}")
        if verdict.spmv_calls != verdict.matvecs:
            run.problems.append(f"{label}: {verdict.spmv_calls} traced spmv "
                                f"calls for {verdict.matvecs} matvecs")

    n = len(traced)
    stats = tracer.stats

    def per_op(name, field):
        return stats[name][field] / n if name in stats else 0.0

    v = run.values
    for name in ("operators.spmv", "operators.ilu_apply",
                 "operators.ilu_factor", "operators.inner_gmres",
                 "gmres.arnoldi", "gmres.lsq_qr", "gmres.harmonic_ritz",
                 "smallalg.hessenberg_lsq", "smallalg.eig",
                 "smallalg.reduced_qr", "smallalg.grassmann",
                 "gcro.recycle_update", "gcro.polish", "gcro.warm_start",
                 "gcro.lsq_blockwise", "coupled.fluid_solve",
                 "coupled.structural", "records.append"):
        v[name + ".calls"] = per_op(name, 0)
        v[name + ".s"] = per_op(name, 1)
        v[name + ".self_s"] = per_op(name, 2)
    v["gmres.cycles"] = tally.cycles / n
    v["gmres.cold_restarts"] = (tally.cold_restarts / tally.cycles
                                if tally.cycles else 0.0)
    v["coupled.couplings"] = tally.couplings / n
    mv_on, mv_off = round_matvecs("plain"), round_matvecs("never")
    v["gcro.matvec_saving_pct"] = 100.0 * (1.0 - mv_on / mv_off)
    v["gcro.time_ratio_vs_never"] = round_median("plain") / round_median("never")
    v["trace.overhead_ratio"] = round_median("traced") / round_median("plain")
    _, op_incl, op_self = stats["bench.op"]
    v["trace.uncovered_share"] = op_self / op_incl
    v["setup.ilu_factor.s"] = setup_ilu_s
    run.notes.append(
        f"{len(rounds['traced'])} rounds of each kind; {n} traced operations; "
        f"matvecs per round {mv_on} with recycling, {mv_off} without")
    run.notes.append("matvecs per input: " + json.dumps(reference))
    return run


if __name__ == "__main__":
    main()
