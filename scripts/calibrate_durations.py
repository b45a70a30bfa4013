#!/usr/bin/env python3
"""Calibrate pulse durations against the reference average gate fidelities.

The channel rates in NoiseParams are measured quantities, but the pulse
durations are not: they are chosen so that the Haar-average fidelity of each
noisy native gate, including the decoherence accrued over the pulse, lands on
the reference values (global pi pulse 0.9995, local Rz pi pulse 0.995).  The
CZ duration is a fixed hardware figure (0.5 us) and is not calibrated; its
fidelity budget is dominated by the discrete error channels, not decoherence.

Run:  python3 scripts/calibrate_durations.py

The average fidelity is exact (metrics.average_gate_fidelity), so the
bisection is deterministic.  It gives dur_uw_pi = 5.2404e-6 s and
dur_rz_pi = 4.9506e-5 s.  The shipped defaults, 5.243e-6 s and 4.772e-5 s,
came from an earlier Monte Carlo estimate of the average (4000 Haar samples
per step); the gaps are its sampling error.  They are kept so that every
recorded fidelity stays as it is.
"""

import argparse

from atombench.channels import NoiseParams
from atombench.metrics import average_gate_fidelity

TARGETS = {
    "global_rotation": ("dur_uw_pi", 0.9995),
    "local_rz": ("dur_rz_pi", 0.995),
}


def fidelity_at(gate: str, field: str, duration: float) -> float:
    return average_gate_fidelity(gate, NoiseParams().replace(**{field: duration}))


def solve_duration(gate: str, field: str, target: float,
                   lo: float = 1e-9, hi: float = 1e-2) -> float:
    """Bisect on duration; fidelity decreases monotonically with duration."""
    f_lo = fidelity_at(gate, field, lo)
    f_hi = fidelity_at(gate, field, hi)
    if not f_hi < target < f_lo:
        raise SystemExit(
            f"{gate}: target {target} not bracketed "
            f"(f({lo:.1e})={f_lo:.6f}, f({hi:.1e})={f_hi:.6f}); "
            f"the discrete channel rates alone already exceed the budget")
    for _ in range(60):
        mid = (lo * hi) ** 0.5
        if fidelity_at(gate, field, mid) > target:
            lo = mid
        else:
            hi = mid
    return (lo * hi) ** 0.5


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    defaults = NoiseParams()
    for gate, (field, target) in TARGETS.items():
        d = solve_duration(gate, field, target)
        f = fidelity_at(gate, field, d)
        print(f"{field:12s} = {d:.4e} s  (average fidelity {f:.8f}, "
              f"target {target}; shipped default {getattr(defaults, field):.4e})")


if __name__ == "__main__":
    main()
