"""Record the golden fidelities that the benchmark checks outputs against.

    python3 perfbench/record_golden.py

Runs one sweep pass and one wide pass at the golden seed and writes each
instance's fidelity, keyed by the digest of its routed native circuit, to
perfbench/golden.json.  Run it only on the commit whose results are the
reference; every later commit must reproduce them within 1e-10 wherever it
simulates the same circuit.
"""

from __future__ import annotations

import json
import sys

import run  # pins BLAS threads before NumPy loads

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402


def main() -> int:
    golden = {}
    for name in ("sweep", "wide"):
        wl = workloads.WORKLOADS[name]
        inputs = wl.prepare(workloads.GOLDEN_SEED, smoke=False)
        probe = workloads.Probe()
        probe.install()
        try:
            records = wl.run(inputs)
        finally:
            probe.uninstall()
        bad = [r for r in records if r.status != "ok"]
        if bad:
            print(f"{name}: {len(bad)} instances failed, nothing written: "
                  f"{bad[0].error}", file=sys.stderr)
            return 1
        golden[name] = wl.golden_entries(records, probe)
        print(f"{name}: {len(golden[name])} fidelities")
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1,
                                                sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
