"""End-to-end and per-layer benchmark of the atombench package.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ./src.  Each run
is one closed loop in one process, with workers=1 and BLAS pinned to one
thread.  It sets up (import, inputs, golden table, one warm-up call) three
times, then repeats whole passes of the workload until --seconds have
passed, and checks every output.

--trace 0 reports the end-to-end metrics.  --trace 1 runs one untraced pass,
one traced pass and one operation under tracemalloc, and reports the
per-layer metrics.  Its exact counts must equal those of any earlier traced
run of the same sources, workload and seed, which are kept under
perfbench/out.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.

--workload all runs every workload in its own process and prints a table.
--smoke runs each workload at a tiny size.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# Pinned before NumPy loads, so that no BLAS thread pool starts.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
              "op_tail_s": "s", "peak_rss_mb": "MB"}

SITE_RANGE = range(2, 9)
KERNELS = ("1site", "2site", "global", "invariant")
MODULE_SELF = {"bench": "bench.self_s", "circuit": "circuit.self_s",
               "routing": "routing.self_s", "channels": "channels.build_s",
               "gatemodel": "gatemodel.self_s", "state": "state.self_s",
               "runner": "runner.self_s", "metrics": "metrics.self_s",
               "fit": "fit.nm_self_s"}
PER_LAYER = {
    "state.invariant_s": "s", "state.invariant_checks": "count",
    "state.invariant_share": "ratio", "state.kernel_s": "s",
    "state.apply_calls": "count", "state.passes_per_gate": "count",
    "state.superop_s": "s", "state.bytes_moved": "B-computed",
    "state.peak_alloc_over_state": "ratio",
    **{f"state.call_s.{k}.n{n}": "s" for k in KERNELS for n in SITE_RANGE},
    "channels.built": "count",
    "gatemodel.grot_s": "s", "gatemodel.rz_s": "s", "gatemodel.cz_s": "s",
    "gatemodel.decoherence_s": "s", "gatemodel.preparation_s": "s",
    "circuit.lower_s": "s", "circuit.optimize_s": "s",
    "circuit.schedule_s": "s", "circuit.grot_count": "count",
    "circuit.rz_count": "count", "circuit.cz_count": "count",
    "circuit.depth": "count", "circuit.changed_circuits": "count",
    "routing.route_s": "s", "routing.swaps": "count",
    "bench.generate_s": "s",
    "fit.evals": "count", "fit.objective_s": "s",
    "fit.transpile_share": "ratio",
    "runner.simulate_s": "s", "runner.readout_s": "s",
    "metrics.score_s": "s",
    **{name: "s" for name in MODULE_SELF.values()},
    "trace.wall_s": "s", "trace.overhead_ratio": "ratio",
    "trace.self_sum_ratio": "ratio", "trace.spans": "count",
}
SELF_SUM_TOL = 0.05


def tail(values: list) -> tuple:
    """(latency, percentile, samples beyond) at the highest percentile with
    at least ten samples beyond it; the maximum when there are fewer than
    eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def machine() -> dict:
    import numpy as np

    info = {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "platform": platform.platform()}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info[f"L{level} {kind} cache"] = (index / "size").read_text().strip()
        except OSError:
            continue
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), "unknown")
    except OSError:
        info["cpu"] = platform.processor() or "unknown"
    return info


def run_passes(wl, inputs, probe, golden, seed, outcome, seconds):
    """Whole passes, at least one, until `seconds` have elapsed; returns
    pass walls and per-operation latencies."""
    walls, latencies = [], []
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin < seconds:
        probe.reset()
        start = time.perf_counter()
        result = wl.run(inputs)
        walls.append(time.perf_counter() - start)
        latencies.extend(probe.latencies)
        wl.check(result, probe, golden, seed, outcome)
    return walls, latencies


def traced_pass(wl, inputs, probe, golden, seed, outcome):
    from spans import Tracer

    tracer = Tracer()
    probe.reset()
    tracer.install()
    try:
        start = time.perf_counter()
        result = wl.run(inputs)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    wl.check(result, probe, golden, seed, outcome)
    counts = dict(tracer.counts())
    counts.update({f"circuit.{g}_count": probe.gates.get(g, 0)
                   for g in ("grot", "rz", "cz")})
    counts["circuit.depth"] = probe.depth
    counts["fit.evals"] = len(probe.values)
    return tracer, wall, counts


def peak_alloc_ratio(wl, inputs) -> float:
    """Largest extra allocation of one state-kernel call, over the state size.

    One operation of the workload runs under tracemalloc.  For each
    `apply_channel` or `apply_global_unitary` call (neither calls the other),
    the peak traced memory above its level at the start of the call is divided
    by the bytes of the state; the largest such ratio is returned.
    """
    from atombench.state import QuquartState

    ratios = []

    def measured(fn):
        def kernel(self, *args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(self, *args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                ratios.append((peak - base) / self.blocks.nbytes)
        return kernel

    originals = {name: vars(QuquartState)[name]
                 for name in ("apply_channel", "apply_global_unitary")}
    for name, fn in originals.items():
        setattr(QuquartState, name, measured(fn))
    tracemalloc.start()
    try:
        wl.sample_op(inputs)
    finally:
        tracemalloc.stop()
        for name, fn in originals.items():
            setattr(QuquartState, name, fn)
    return max(ratios, default=0.0)


def source_digest() -> str:
    """Digest of the package and benchmark sources."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def recheck_counts(args, counts: dict) -> tuple:
    """Exact counts must repeat across traced runs of the same code and inputs.

    The first traced run of a source version records its counts under OUT;
    each later one compares against them.  Returns (compared, differing keys).
    """
    smoke = "-smoke" if args.smoke else ""
    path = OUT / (f"counts-{args.workload}-seed{args.seed}{smoke}-"
                  f"{source_digest()}.json")
    if not path.exists():
        path.write_text(json.dumps(counts, sort_keys=True))
        return False, []
    previous = json.loads(path.read_text())
    return True, sorted(k for k in set(previous) | set(counts)
                        if previous.get(k) != counts.get(k))


def layer_metrics(tracer, probe_counts, wall, untraced_wall, changed,
                  peak_ratio) -> dict:
    t = tracer
    st = "state.QuquartState."
    inv = t.self_time(lambda n: n in (st + "_check_invariants", st + "trace",
                                      st + "hermiticity_defect"))
    kernel = t.self_time(lambda n: n in (st + "apply_channel",
                                         st + "apply_global_unitary"))
    passes = bytes_moved = 0
    for name, per_call in ((st + "apply_channel", lambda n: 1),
                           (st + "apply_global_unitary", lambda n: n),
                           (st + "_check_invariants", lambda n: 1 + n)):
        for label in t.labels(name):
            n = int(label.rsplit(".n", 1)[1])
            calls = t.calls[t.key_ids[(name, label)]]
            passes += calls * per_call(n)
            bytes_moved += calls * per_call(n) * 16 * 6 ** n
    gm = "gatemodel.apply_"
    gates = t.count(lambda n: n in (gm + "noisy_global_rotation",
                                    gm + "noisy_local_rz", gm + "noisy_cz"))
    lower = t.inclusive("circuit.lower_to_native")
    optimize = t.inclusive("circuit.optimize_native")
    schedule = t.inclusive("circuit.schedule_layers")
    objective = t.inclusive("fit.mean_reference_fidelity")
    m = {
        "state.invariant_s": inv,
        "state.invariant_checks": t.count(lambda n: n == st + "_check_invariants"),
        "state.invariant_share": inv / wall,
        "state.kernel_s": kernel,
        "state.apply_calls": t.count(lambda n: n in (st + "apply_channel",
                                                     st + "apply_global_unitary")),
        "state.passes_per_gate": passes / gates if gates else 0.0,
        "state.superop_s": t.self_time(lambda n: n.startswith(("state._superop",
                                                               "state._leakage"))),
        "state.bytes_moved": bytes_moved,
        "state.peak_alloc_over_state": peak_ratio,
        "channels.built": t.count(lambda n: n == "channels.KrausSet.__post_init__"),
        "gatemodel.grot_s": t.family_time(gm + "noisy_global_rotation"),
        "gatemodel.rz_s": t.family_time(gm + "noisy_local_rz"),
        "gatemodel.cz_s": t.family_time(gm + "noisy_cz"),
        "gatemodel.decoherence_s": t.family_time(gm + "decoherence"),
        "gatemodel.preparation_s": t.family_time(gm + "preparation"),
        "circuit.lower_s": lower,
        "circuit.optimize_s": optimize,
        "circuit.schedule_s": schedule,
        "circuit.changed_circuits": changed,
        "routing.route_s": t.inclusive("routing.route"),
        "routing.swaps": t.count(lambda n: n == "routing._swap_native_ops"),
        "bench.generate_s": t.inclusive("bench.generate"),
        "fit.objective_s": objective,
        "fit.transpile_share": (lower + optimize + schedule) / objective
        if objective else 0.0,
        "runner.simulate_s": t.inclusive("runner.execute_native"),
        "runner.readout_s": t.inclusive("runner.output_distribution"),
        "metrics.score_s": t.inclusive("metrics.classical_fidelity"),
        "trace.wall_s": wall,
        "trace.overhead_ratio": (wall - untraced_wall) / untraced_wall,
        "trace.spans": t.n_spans,
    }
    # Kernel calls report self time, which leaves out the superoperator
    # rebuild and the invariant check; the invariant check reports its whole
    # duration, which includes the trace and hermiticity passes.
    for kernel_name in KERNELS:
        method = {"global": "apply_global_unitary",
                  "invariant": "_check_invariants"}.get(kernel_name, "apply_channel")
        for n in SITE_RANGE:
            m[f"state.call_s.{kernel_name}.n{n}"] = t.median_per_call(
                st + method, f"{kernel_name}.n{n}",
                inclusive=kernel_name == "invariant")
    module_self = 0.0
    for module, name in MODULE_SELF.items():
        m[name] = t.self_time(lambda n, p=module + ".": n.startswith(p))
        module_self += m[name]
    m["trace.self_sum_ratio"] = module_self / wall
    for name in ("circuit.grot_count", "circuit.rz_count", "circuit.cz_count",
                 "circuit.depth", "fit.evals"):
        m[name] = probe_counts[name]
    return m


def run_workload(args) -> int:
    if not (SRC / "atombench" / "__init__.py").is_file():
        print(f"atombench sources not found under {SRC}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - start

    wl = workloads.WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = wl.prepare(args.seed, args.smoke)
        golden = workloads.load_golden()
        wl.warm(inputs)
        setups.append(time.perf_counter() - start)

    probe = workloads.Probe()
    outcome = workloads.Outcome()
    probe.install()
    try:
        if args.trace:
            walls, latencies = run_passes(wl, inputs, probe, golden, args.seed,
                                          outcome, seconds=0)
            tracer, wall, counts = traced_pass(wl, inputs, probe, golden,
                                               args.seed, outcome)
        else:
            walls, latencies = run_passes(wl, inputs, probe, golden, args.seed,
                                          outcome, seconds=args.seconds)
    finally:
        probe.uninstall()

    details = {"workload": args.workload, "seed": args.seed,
               "smoke": args.smoke, "passes": len(walls),
               "pass_walls_s": walls, "ops": len(latencies),
               "op_latencies_s": [round(v, 6) for v in latencies],
               "setup_runs_s": setups, "import_s": import_s,
               "changed_circuits": outcome.changed,
               "failed_ratio": outcome.failed / max(outcome.attempted, 1),
               "failures": outcome.reasons}
    problems = []
    if args.trace:
        metrics = layer_metrics(tracer, counts, wall, statistics.median(walls),
                                outcome.changed, peak_alloc_ratio(wl, inputs))
        if abs(metrics["trace.self_sum_ratio"] - 1.0) > SELF_SUM_TOL:
            problems.append(f"layer self times sum to "
                            f"{metrics['trace.self_sum_ratio']:.4f} of wall")
        OUT.mkdir(exist_ok=True)
        compared, diff = recheck_counts(args, counts)
        if diff:
            problems.append(f"exact counts differ from an earlier traced run "
                            f"of the same code: {diff[:10]}")
        details["counts_compared"] = compared
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(trace_path)
        details["trace_file"] = str(trace_path.relative_to(ROOT))
        units = PER_LAYER
    else:
        value, pct, beyond = tail(latencies)
        details.update(op_tail_percentile=pct, op_tail_beyond=beyond)
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "wall_s": statistics.median(walls),
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    details["problems"] = problems
    print(json.dumps({"machine": machine()}))
    print(json.dumps({"details": details}))
    for name in units:
        print(f"{args.workload:6s} {name:34s} {metrics[name]:>16.6g} {units[name]}")
    print(f"{args.workload:6s} {'failed_ratio':34s} {details['failed_ratio']:>16.6g} ratio")
    print(json.dumps({
        "correct": outcome.failed == 0 and not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints their tables and a summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("sweep", "fit", "wide"):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[2:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "fit", "wide", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for a quick end-to-end check")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
