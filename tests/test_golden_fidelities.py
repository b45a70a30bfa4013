"""Every kind's fidelities at its two lowest widths stay as recorded.

golden_fidelities.json holds f and f_s of each run of
record_golden_fidelities.py, keyed by the routed circuit's digest and the
timing model.  A change that keeps every circuit must reproduce them within
1e-10; a run whose circuit is not in the file fails and is named.
"""

from __future__ import annotations

import json

import record_golden_fidelities as golden_runs

ATOL = 1e-10


def test_fidelities_match_the_recorded_values():
    golden = json.loads(golden_runs.PATH.read_text())
    missing, moved, seen = [], [], set()
    for label, key, rec in golden_runs.runs():
        want = golden.get(key)
        if want is None:
            missing.append(label)
            continue
        seen.add(key)
        for name in ("f", "f_s"):
            got = getattr(rec, name)
            if not abs(got - want[name]) <= ATOL:
                moved.append((label, key, name, got, want[name]))
    assert not missing, (
        f"circuits not in {golden_runs.PATH.name}, as (kind, width, "
        f"topology, instance): {missing}")
    assert not moved, f"fidelities moved beyond {ATOL}: {moved}"
    assert seen == set(golden)
