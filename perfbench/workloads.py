"""The benchmark's workloads: inputs made from a seed, one pass, and checks.

Each workload builds its inputs from the workload seed and hands the package
only what it generated: specs, circuits and reference distributions.  A pass
is one complete run of the workload's job list; a run repeats passes until
its time is used up.

- sweep: five QED-C kinds on 4 to 6 sites and both topologies, one instance
  per point, run through `runner.run_instance` in the order and with the
  error handling of `runner.run_suite` with one worker.  The paper's main
  use; states stay within 6^6 symbols, and routing is active on the grid.
- fit:   `fit.fit_noise_params` on the planted-rate calibration of the
  acceptance test.  Small states, so per-call overhead dominates.
- wide:  one shallow 8-site BernsteinVazirani instance.  Its 27 MB state is
  larger than L2, so passes over the state set the time and the state sets
  the peak memory.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np

from atombench import bench, fit, runner
from atombench.bench import BenchmarkSpec
from atombench.channels import NoiseParams
from atombench.errors import AtombenchError

GOLDEN_PATH = Path(__file__).with_name("golden.json")
GOLDEN_SEED = 0          # the seed whose fidelities golden.json records
FID_ATOL = 1e-10         # agreement required on an unchanged circuit
DIST_ATOL = 1e-9         # output distributions sum to 1 within this

SWEEP_KINDS = ("Ghz", "BernsteinVazirani", "QftMethod2", "HamiltonianSim",
               "PhaseEstimation")
SWEEP_SITES = (4, 5, 6)
SMOKE_SITES = (3,)
TOPOLOGIES = ("grid", "all_to_all")
# BernsteinVazirani adds one ancilla site to its width.
EXTRA_SITES = {"BernsteinVazirani": 1}

PLANTED = {"cz_phaseflip": 0.045, "cz_loss_dark": 0.012}
FIT_REFS = (("Ghz", 2), ("Ghz", 3), ("BernsteinVazirani", 3))
FIT_RTOL = 0.2
FIT_MIN_FIDELITY = 0.999

WIDE_WIDTH = 7           # 8 sites with the ancilla


def draw_param(kind: str, width: int, seed: int):
    """Instance parameter of one benchmark instance, drawn from the seed.

    Draws are restricted to instances that all do the same work, so that a
    run's cost does not depend on its seed while the seed still changes the
    circuit.  A BernsteinVazirani secret has ceil(width / 2) bits set (one CZ
    per set bit).  QftMethod2 inputs and PhaseEstimation phase indices are
    odd: an even value has trailing zero bits, whose rotations vanish and are
    optimized away.  HamiltonianSim draws its couplings from the parameter.
    """
    rng = np.random.default_rng((seed, bench.KINDS.index(kind), width))
    if kind == "Ghz":
        return None
    if kind == "BernsteinVazirani":
        ones = rng.choice(width, size=(width + 1) // 2, replace=False)
        return "".join("1" if i in ones else "0" for i in range(width))
    if kind == "QftMethod2":
        return 2 * int(rng.integers(0, 2 ** (width - 1))) + 1
    if kind == "PhaseEstimation":
        return 2 * int(rng.integers(0, 2 ** (width - 2))) + 1
    if kind == "HamiltonianSim":
        return int(rng.integers(0, 2**31))
    raise ValueError(f"no parameter draw for {kind}")


def circuit_digest(circuit, l2p, measured) -> str:
    """Digest of a routed native circuit and its readout map."""
    doc = [circuit.n_qubits,
           [[g.name, list(g.sites), list(g.params)] for g in circuit.ops],
           list(l2p), list(measured)]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:20]


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


class Probe:
    """Hooks on the package's entry points that time each operation.

    The hooks time each instance (`runner.run_instance`) and each fit
    objective evaluation (`fit.mean_reference_fidelity`).  For instances they
    also capture the routed native circuit that was simulated, as a digest,
    and the sum of the output distribution.  They add a clock read and
    bookkeeping per operation only.
    """

    def __init__(self):
        self._patches: list = []
        self.reset()

    def reset(self):
        """Forget what earlier passes recorded; the hooks stay installed."""
        self.latencies: list = []
        self.outputs: list = []      # per instance: circuit, readout, dist_sum
        self.values: list = []       # per objective evaluation: mean fidelity
        self.gates: Counter = Counter()
        self.depth = 0

    def install(self):
        self._patch(runner, "run_instance", self._timed_instance)
        self._patch(runner, "execute_native", self._executed)
        self._patch(runner, "output_distribution", self._readout)
        self._patch(fit, "mean_reference_fidelity", self._timed_eval)

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _patch(self, mod, attr, make):
        original = getattr(mod, attr)
        hook = functools.wraps(original)(make(original))
        self._patches.append((mod, attr, original))
        setattr(mod, attr, hook)

    def _timed_instance(self, original):
        def hook(*args, **kwargs):
            self.outputs.append({"circuit": None, "readout": None,
                                 "dist_sum": None})
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.latencies.append(time.perf_counter() - start)
        return hook

    def _executed(self, original):
        def hook(circuit, *args, **kwargs):
            state, depth = original(circuit, *args, **kwargs)
            self.gates.update(circuit.gate_counts())
            self.depth += depth
            if self.outputs:
                self.outputs[-1]["circuit"] = circuit
            return state, depth
        return hook

    def _readout(self, original):
        def hook(state, l2p, measured, *args, **kwargs):
            dist = original(state, l2p, measured, *args, **kwargs)
            if self.outputs:
                out = self.outputs[-1]
                out["readout"] = (list(l2p), list(measured))
                out["dist_sum"] = float(sum(dist.entries.values()))
            return dist
        return hook

    def _timed_eval(self, original):
        def hook(*args, **kwargs):
            start = time.perf_counter()
            try:
                value = original(*args, **kwargs)
            finally:
                self.latencies.append(time.perf_counter() - start)
            self.values.append(value)
            return value
        return hook


class Outcome:
    """Operations attempted and failed over a run, with reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.changed = 0             # new circuit digests in the last pass
        self.reasons: list = []

    def fail(self, n: int, reason: str):
        self.failed += n
        if len(self.reasons) < 20:
            self.reasons.append(reason)


def check_instances(records: list, outputs: list, golden: dict,
                    require_known: bool, outcome: Outcome):
    """Validity of every instance, and agreement with the golden fidelity.

    An instance whose digest is in the golden table must reproduce its
    fidelity within FID_ATOL.  At the golden seed every digest should be
    known; an unknown one is a changed circuit and is checked for validity
    only, as is every instance of a held-out seed.
    """
    outcome.attempted += len(records)
    outcome.changed = 0
    if len(outputs) != len(records):
        outcome.fail(len(records), f"{len(records)} records but "
                                   f"{len(outputs)} instances observed")
        return
    for rec, out in zip(records, outputs):
        tag = f"{rec.kind} w{rec.width} {rec.topology} {rec.instance_param}"
        if rec.status != "ok":
            outcome.fail(1, f"{tag}: status {rec.status} {rec.error}")
            continue
        if not 0.0 <= rec.f <= 1.0:
            outcome.fail(1, f"{tag}: fidelity {rec.f} outside [0, 1]")
            continue
        if out["dist_sum"] is not None and abs(out["dist_sum"] - 1) > DIST_ATOL:
            outcome.fail(1, f"{tag}: distribution sums to {out['dist_sum']}")
            continue
        digest = None
        if out["circuit"] is not None and out["readout"] is not None:
            digest = circuit_digest(out["circuit"], *out["readout"])
        if digest in golden:
            if abs(rec.f - golden[digest]) > FID_ATOL:
                outcome.fail(1, f"{tag}: f={rec.f!r}, golden {golden[digest]!r}")
        elif require_known:
            outcome.changed += 1


def run_jobs(jobs: list, params: NoiseParams) -> list:
    """Run (spec, topology) jobs in order, as `runner.run_suite` does with one
    worker: an instance that raises an AtombenchError is recorded as failed."""
    records = []
    for spec, topology in jobs:
        try:
            records.append(runner.run_instance(spec, topology, params))
        except AtombenchError as exc:
            records.append(runner.ResultRecord(
                spec.kind, spec.width, topology, spec.instance_param,
                status="error", error=f"{type(exc).__name__}: {exc}"))
    return records


class Sweep:
    name = "sweep"

    def prepare(self, seed: int, smoke: bool) -> dict:
        sites = SMOKE_SITES if smoke else SWEEP_SITES
        jobs = []
        for kind in SWEEP_KINDS:
            for n in sites:
                width = n - EXTRA_SITES.get(kind, 0)
                spec = BenchmarkSpec(kind, width, draw_param(kind, width, seed),
                                     seed)
                jobs.extend((spec, topology) for topology in TOPOLOGIES)
        largest = BenchmarkSpec("Ghz", max(sites))
        return {"jobs": jobs, "largest": largest, "params": NoiseParams()}

    def warm(self, inputs: dict):
        runner.run_instance(BenchmarkSpec("Ghz", 3), "grid", inputs["params"])

    def run(self, inputs: dict) -> list:
        return run_jobs(inputs["jobs"], inputs["params"])

    def check(self, records, probe, golden, seed, outcome):
        check_instances(records, probe.outputs, golden.get(self.name, {}),
                        seed == GOLDEN_SEED, outcome)

    def sample_op(self, inputs: dict):
        """One instance at the sweep's largest register."""
        run_jobs([(inputs["largest"], "grid")], inputs["params"])

    def golden_entries(self, records, probe) -> dict:
        return {circuit_digest(o["circuit"], *o["readout"]): r.f
                for r, o in zip(records, probe.outputs)}


class Wide(Sweep):
    name = "wide"

    def prepare(self, seed: int, smoke: bool) -> dict:
        width = 3 if smoke else WIDE_WIDTH
        kind = "BernsteinVazirani"
        spec = BenchmarkSpec(kind, width, draw_param(kind, width, seed), seed)
        return {"jobs": [(spec, "all_to_all")], "params": NoiseParams()}

    def sample_op(self, inputs: dict):
        self.run(inputs)


class Fit:
    name = "fit"

    def prepare(self, seed: int, smoke: bool) -> dict:
        base = NoiseParams()
        planted = base.replace(**PLANTED)
        refs = []
        for kind, width in FIT_REFS[:1] if smoke else FIT_REFS:
            spec = BenchmarkSpec(kind, width, draw_param(kind, width, seed), seed)
            circuit, _ = bench.generate(spec)
            refs.append((circuit, runner.run_reference(circuit, planted)))
        problem = fit.FitProblem(refs, free_params=tuple(PLANTED),
                                 base_params=base, n_starts=1 if smoke else 3,
                                 max_evals=400, seed=seed)
        return {"problem": problem}

    def warm(self, inputs: dict):
        self.sample_op(inputs)

    def run(self, inputs: dict):
        return fit.fit_noise_params(inputs["problem"])

    def check(self, result, probe, golden, seed, outcome):
        fitted, fidelity, report = result
        evals = len(probe.values)
        outcome.attempted += evals
        bad = [v for v in probe.values if not 0.0 <= v <= 1.0]
        if bad:
            outcome.fail(len(bad), f"objective fidelity outside [0, 1]: {bad[:3]}")
        errors = {name: getattr(fitted, name) / want - 1.0
                  for name, want in PLANTED.items()}
        if not fidelity > FIT_MIN_FIDELITY or any(abs(e) > FIT_RTOL
                                                 for e in errors.values()):
            outcome.fail(evals - len(bad),
                         f"fit missed: fidelity {fidelity}, rate errors {errors}")

    def sample_op(self, inputs: dict):
        problem = inputs["problem"]
        fit.mean_reference_fidelity(problem.references, problem.base_params)


WORKLOADS = {w.name: w for w in (Sweep(), Fit(), Wide())}
