#!/usr/bin/env python3
"""Time `runner.execute_native` on named circuits with large states.

    python3 scripts/time_execute.py --runs 7 QftMethod1:7:grid

Each circuit is named kind:width:topology.  Its instance is the first that
`bench.sample_instances` draws at --seed; it is generated, lowered and
routed once, outside the timed region, as `run_instance` would do it.
Every circuit is run once untimed (the warm-up, which also counts the
state passes: calls of `QuquartState.apply_channel`), then --runs times.
The package is imported from ./src next to this script, with BLAS pinned
to one thread.  Standard output is one JSON object: the settings and, per
circuit, its instance, sites, `cz` count, pass count and the median and
best of the timed runs in seconds.
"""

from __future__ import annotations

import os

# Pinned before NumPy loads, so that no BLAS thread pool starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from atombench import bench, runner  # noqa: E402
from atombench.channels import NoiseParams  # noqa: E402
from atombench.routing import (lower_and_optimize,  # noqa: E402
                               route_and_optimize)
from atombench.state import QuquartState  # noqa: E402

# the deep circuits of the ROADMAP's pair-block table
DEFAULT_CIRCUITS = ("QftMethod1:7:grid", "QftMethod1:7:all_to_all",
                    "PhaseEstimation:7:grid", "HamiltonianSim:8:grid",
                    "QftMethod1:8:all_to_all")


def routed_circuit(name: str, seed: int):
    """The routed native circuit of kind:width:topology, and its instance
    parameter."""
    kind, width, topology = name.split(":")
    spec = bench.sample_instances(kind, int(width), 1, seed)[0]
    circuit, _ = bench.generate(spec)
    native = lower_and_optimize(circuit)
    routed, _ = route_and_optimize(
        native, runner.make_topology(topology, native.n_qubits))
    return routed, spec.instance_param


def count_passes(circuit, params, timing_model: str) -> int:
    calls, apply = [], QuquartState.apply_channel

    def counted(self, *args):
        calls.append(1)
        return apply(self, *args)

    QuquartState.apply_channel = counted
    try:
        runner.execute_native(circuit, params, timing_model=timing_model)
    finally:
        QuquartState.apply_channel = apply
    return len(calls)


def time_circuit(name: str, runs: int, seed: int, timing_model: str) -> dict:
    circuit, param = routed_circuit(name, seed)
    params = NoiseParams()
    passes = count_passes(circuit, params, timing_model)
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        runner.execute_native(circuit, params, timing_model=timing_model)
        times.append(time.perf_counter() - start)
    return {"circuit": name, "instance_param": param,
            "sites": circuit.n_qubits,
            "cz": circuit.gate_counts().get("cz", 0), "passes": passes,
            "median_s": statistics.median(times), "best_s": min(times)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("circuits", nargs="*", default=DEFAULT_CIRCUITS,
                    help="kind:width:topology, topology all_to_all or grid")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--timing-model", default="gate",
                    choices=("gate", "layer"))
    args = ap.parse_args()
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    rows = [time_circuit(name, args.runs, args.seed, args.timing_model)
            for name in args.circuits]
    print(json.dumps({"python": platform.python_version(),
                      "numpy": np.__version__, "runs": args.runs,
                      "seed": args.seed, "timing_model": args.timing_model,
                      "circuits": rows}))


if __name__ == "__main__":
    main()
