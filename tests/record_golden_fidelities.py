"""Record the fidelities that test_golden_fidelities.py pins.

    python3 tests/record_golden_fidelities.py

Runs every benchmark kind at its two lowest widths, with its default
instance draws at seed 0, on all-to-all and on the grid, under both timing
models and the default noise.  Each run's f and f_s are written to
tests/golden_fidelities.json at full precision, keyed by the digest of the
routed native circuit and its readout map (perfbench's ``circuit_digest``
form) and the timing model.  Re-record only in a change that alters
circuits, and list every changed value in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from atombench import bench, runner
from atombench.channels import NoiseParams
from atombench.routing import transpile

PATH = Path(__file__).with_name("golden_fidelities.json")
TOPOLOGIES = ("all_to_all", "grid")
TIMING_MODELS = ("gate", "layer")


def circuit_digest(circuit, l2p, measured) -> str:
    """Digest of a routed native circuit and its readout map."""
    doc = [circuit.n_qubits,
           [[g.name, list(g.sites), list(g.params)] for g in circuit.ops],
           list(l2p), list(measured)]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:20]


def runs():
    """Yield (label, key, record) for every pinned run: label is (kind,
    width, topology, instance), key the circuit digest and timing model,
    record the run's ``ResultRecord``."""
    params = NoiseParams()
    for kind in bench.KINDS:
        lo, hi = bench.WIDTH_BOUNDS[kind]
        widths = [w for w in range(lo, hi + 1) if bench.width_allowed(kind, w)]
        for width in widths[:2]:
            for spec in bench.sample_instances(kind, width, seed=0):
                circuit, _ = bench.generate(spec)
                for topology in TOPOLOGIES:
                    routed, l2p = transpile(circuit, runner.make_topology(
                        topology, circuit.n_qubits))
                    digest = circuit_digest(routed, l2p,
                                            circuit.measured_qubits)
                    label = (kind, width, topology, spec.instance_param)
                    for timing_model in TIMING_MODELS:
                        yield label, f"{digest}/{timing_model}", \
                            runner.run_instance(spec, topology, params,
                                                timing_model=timing_model)


def main() -> int:
    golden, n_runs = {}, 0
    for label, key, rec in runs():
        # a small grid routes like all-to-all, so runs may share a key
        value = {"f": rec.f, "f_s": rec.f_s}
        if rec.status != "ok" or golden.setdefault(key, value) != value:
            print(f"{label}: {rec.status}, or a key shared with another "
                  f"value; nothing written", file=sys.stderr)
            return 1
        n_runs += 1
    PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"{n_runs} runs, {len(golden)} records written to {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
