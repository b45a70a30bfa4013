"""Runner pipeline: execute, score, sweep, serialize."""

import gc
import json
import math
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import dense_ref
from atombench import bench, gatemodel, routing, runner
from atombench.bench import BenchmarkSpec
from atombench.channels import NoiseParams
from atombench.circuit import (Circuit, Gate, cz, gate_duration, grot,
                               lower_to_native, rz, schedule_layers)
from atombench.errors import CapacityError, PatternLeakError, ValidationError
from atombench.metrics import classical_fidelity
from atombench.routing import Topology, transpile
from atombench.runner import (
    ResultRecord,
    RunConfig,
    execute_native,
    make_topology,
    run_instance,
    run_reference,
    run_suite,
    save_records,
    topology_label,
)
from atombench.state import (DEFAULT_MEMORY_CAP, N_SYMBOLS, QuquartState,
                             footprint)

NOISELESS = NoiseParams.noiseless()


def test_run_config_from_dict():
    cfg = RunConfig.from_dict({
        "noise": {"cz_phaseflip": 0.01},
        "topologies": ["all_to_all", {"grid": [2, 2]}],
        "kinds": ["Ghz", "BernsteinVazirani"],
        "widths": {"min": 2, "max": 4},
        "seed": 7,
    })
    assert cfg.noise.cz_phaseflip == 0.01
    assert cfg.widths == [2, 3, 4]
    with pytest.raises(ValidationError):
        RunConfig.from_dict({"margins": True})
    with pytest.raises(ValidationError):
        RunConfig.from_dict({"timing_model": "sundial"})
    with pytest.raises(ValidationError):
        RunConfig.from_dict({"samples_per_point": 1})
    with pytest.raises(ValidationError):
        RunConfig.from_dict({"noise": 5})


@pytest.mark.parametrize("field,value", [
    ("kinds", ["Ghz", "Ghzz"]),
    ("kinds", ["ExternalCircuit"]),
    ("samples_per_point", {"Ghz": 0}),
    ("samples_per_point", {"Ghz": 1.5}),
    ("samples_per_point", {"Ghzz": 1}),
    ("topologies", ["all_to_all", "ring"]),
    ("topologies", [{"grid": 3}]),
    ("widths", {"min": 2}),
    ("workers", "2"),
    ("workers", 0),
    ("seed", 1.5),
    ("memory_cap", "8GiB"),
    # a list of the wrong items, or no list, after the {min, max} expansion
    ("widths", [2.5]),
    ("widths", ["3"]),
    ("widths", [True]),
    ("widths", 5),
    ("kinds", "Ghz"),
    ("topologies", "grid"),
])
def test_run_config_rejects_unrunnable_values(field, value):
    with pytest.raises(ValidationError):
        RunConfig.from_dict({"noise": "noiseless", field: value})


def test_run_config_reads_no_string_as_a_list():
    # a string is iterable: kinds "Ghz" was read as the kinds G, h and z
    for field, value in (("kinds", "Ghz"), ("topologies", "grid")):
        with pytest.raises(ValidationError, match="must be lists"):
            RunConfig(**{field: value})


def test_make_topology_and_label():
    assert make_topology("all_to_all", 3).mode == "all_to_all"
    topo = make_topology({"grid": [2, 3]}, 5)
    assert (topo.rows, topo.cols) == (2, 3)
    assert topology_label("all_to_all") == "all_to_all"
    assert topology_label({"grid": [2, 3]}) == "grid"
    assert topology_label("grid") == "grid"


def test_execute_native_noiseless_matches_oracle():
    circuit, _ = bench.generate(BenchmarkSpec("Ghz", 3))
    native = lower_to_native(circuit)
    parts, depth = execute_native(native, NOISELESS)
    psi = bench.statevector(native).reshape(-1)
    red = dense_ref.reduced_qubit_density(dense_ref.join(parts))
    assert np.max(np.abs(red - np.outer(psi, psi.conj()))) < 1e-10
    assert depth > 0


# strong noise and long pulses, so every channel and idle interval counts
STRONG = NoiseParams(uw_depol_per_pi=0.02, rz_phaseflip_per_pi=0.03,
                     rz_loss_dark_per_pi=0.02, cz_phaseflip=0.08,
                     cz_loss_bright=0.07, cz_decay=0.02, cz_phaseshift=0.3,
                     prep_error=0.05, dur_uw_pi=2e-5, dur_rz_pi=1e-4,
                     dur_cz=2e-4)


def dense_error(c: Circuit, params: NoiseParams, timing_model: str) -> float:
    parts, _ = execute_native(c, params, timing_model=timing_model)
    rho = dense_ref.execute_native(c, params, timing_model=timing_model)
    return float(np.max(np.abs(dense_ref.to_dense(dense_ref.join(parts))
                               - dense_ref.to_matrix(rho))))


def cz_component(c: Circuit, site: int) -> set:
    """The sites that a chain of the circuit's czs joins to `site`."""
    component, grown = {site}, True
    while grown:
        grown = False
        for g in c.ops:
            if g.name == "cz" and len(component & set(g.sites)) == 1:
                component |= set(g.sites)
                grown = True
    return component


def same_parts(a, b) -> bool:
    return [sites for sites, _ in a] == [sites for sites, _ in b] and all(
        np.array_equal(x.blocks, y.blocks) for (_, x), (_, y) in zip(a, b))


@pytest.mark.parametrize("timing_model", ["gate", "layer"])
def test_execute_native_matches_dense_engine(timing_model):
    params = STRONG
    rng = np.random.default_rng(17)
    for trial in range(6):
        n = 3 + trial % 2
        c = Circuit(n)
        for _ in range(int(rng.integers(6, 14))):
            r = rng.integers(3)
            if r == 0:
                c.add(grot(*map(float, rng.uniform(-np.pi, np.pi, size=2))))
            elif r == 1:
                c.add(rz(int(rng.integers(n)), float(rng.uniform(-6, 6))))
            else:
                c.add(cz(*map(int, rng.choice(n, 2, replace=False))))
        err = dense_error(c, params, timing_model)
        assert err < 1e-10, (trial, err)


@pytest.mark.parametrize("timing_model", ["gate", "layer"])
@pytest.mark.parametrize("n,ops", [
    # no cz: every site starts in its own product
    (3, [grot(0.3, 1.1), rz(0, 0.7), rz(2, -1.9), grot(1.2, 0.4)]),
    # a one-site register
    (1, [rz(0, 0.4), grot(0.2, 2.1), rz(0, -0.8)]),
    # a cz first, then many 1-site ops on its sites fold into its pass
    (3, [cz(0, 1)] + [rz(s % 2, 0.3 * s) for s in range(12)]
     + [grot(0.5, 0.9), rz(2, 1.3)]),
    # a grot after every cz
    (4, [g for a, b in ((0, 1), (2, 3), (1, 2), (3, 0))
         for g in (cz(a, b), grot(0.4 * a, 0.7 + b))]),
])
def test_execute_native_matches_dense_engine_on_folded_ops(timing_model, n,
                                                           ops):
    err = dense_error(Circuit(n, ops), STRONG, timing_model)
    assert err < 1e-10, err


@pytest.mark.parametrize("timing_model", ["gate", "layer"])
def test_execute_native_makes_one_pass_per_cz_and_site(monkeypatch,
                                                      timing_model):
    passes = []
    for name in ("apply_channel", "apply_global_unitary"):
        def counted(self, *args, _name=name, _fn=getattr(QuquartState, name)):
            passes.append(_name)
            return _fn(self, *args)
        monkeypatch.setattr(QuquartState, name, counted)
    params = NoiseParams(uw_depol_per_pi=0.02, rz_loss_dark_per_pi=0.02,
                         cz_phaseflip=0.08, cz_loss_bright=0.07,
                         prep_error=0.05, dur_uw_pi=2e-5, dur_rz_pi=1e-4,
                         dur_cz=2e-4)
    rng = np.random.default_rng(23)
    for trial in range(6):
        n = 2 + trial % 3
        c = Circuit(n)
        for _ in range(int(rng.integers(10, 30))):
            r = rng.integers(3)
            if r == 0:
                c.add(grot(*map(float, rng.uniform(-np.pi, np.pi, size=2))))
            elif r == 1:
                c.add(rz(int(rng.integers(n)), float(rng.uniform(-6, 6))))
            else:
                c.add(cz(*map(int, rng.choice(n, 2, replace=False))))
        passes.clear()
        parts, _ = execute_native(c, params, timing_model=timing_model)
        n_cz = c.gate_counts().get("cz", 0)
        # one pass per cz and none for 1-site ops: each site's ops ride its
        # cz passes or the initial product state
        assert set(passes) <= {"apply_channel"}
        assert len(passes) == n_cz, (trial, len(passes), n_cz)
        # no state is larger than its component of the cz graph
        assert sorted(s for sites, _ in parts for s in sites) == list(range(n))
        for sites, state in parts:
            assert state.n_sites == len(sites) == len(cz_component(c, sites[0]))
        rho = dense_ref.execute_native(c, params, timing_model=timing_model)
        err = np.max(np.abs(dense_ref.to_dense(dense_ref.join(parts))
                            - dense_ref.to_matrix(rho)))
        assert err < 1e-10, (trial, err)


def test_wide_bernstein_vazirani_makes_no_register_sized_state(monkeypatch):
    # the wide benchmark workload's instance at seed 1: czs on (0, 7),
    # (1, 7), (3, 7) and (5, 7), so sites 2, 4 and 6 never share a cz
    sizes, init = [], QuquartState.__init__

    def recorded(self, n_sites, *args):
        sizes.append(n_sites)
        init(self, n_sites, *args)

    monkeypatch.setattr(QuquartState, "__init__", recorded)
    rec = run_instance(BenchmarkSpec("BernsteinVazirani", 7, "1101010"),
                       "all_to_all", NoiseParams())
    assert rec.status == "ok" and rec.native_gate_counts["cz"] == 4
    assert max(sizes) == 5 and 8 not in sizes, sizes


def test_memory_cap_bounds_the_sum_of_the_components(monkeypatch):
    made, init = [], QuquartState.__init__
    monkeypatch.setattr(QuquartState, "__init__",
                        lambda self, *a: made.append(a) or init(self, *a))
    c = Circuit(4, [cz(0, 2), cz(1, 3)])
    # the cap admits either 2-site state but not both
    cap = 2 * footprint(2) - 1
    assert footprint(2) <= cap
    with pytest.raises(CapacityError, match=r"\[2, 2\] sites"):
        execute_native(c, NOISELESS, memory_cap=cap)
    assert made == []   # checked before any state is allocated
    parts, _ = execute_native(c, NOISELESS, memory_cap=cap + 1)
    assert [sites for sites, _ in parts] == [(0, 2), (1, 3)]


def test_a_register_past_the_cap_runs_when_its_components_fit():
    # BernsteinVazirani on 11 data qubits and an ancilla with a 2-bit
    # secret, built as its generator builds it (the kind's widths stop at
    # 10): no cap admits 12 sites in one state, but the largest component
    # has 3
    w, secret = 11, "10000001000"
    c = Circuit(w + 1, metadata={"measured_qubits": list(range(w))})
    c.add(Gate("x", (w,)))
    c.add(grot(math.pi / 2, math.pi / 2))
    for i, bit in enumerate(secret):
        if bit == "1":
            c.add(Gate("cx", (i, w)))
    c.add(grot(math.pi / 2, -math.pi / 2))
    assert footprint(w + 1) > DEFAULT_MEMORY_CAP
    out = run_reference(c, NOISELESS)
    ideal = bench.ideal_distribution(c)
    assert ideal.entries == {secret: pytest.approx(1.0)}
    assert classical_fidelity(ideal, out)[2] == pytest.approx(1.0, abs=1e-9)


def split_circuit(rng, n: int) -> tuple:
    """A random native circuit on n sites in site groups, sites shuffled:
    the czs stay inside pairs, a site left over is a group with rz gates
    alone, and the last site has no op but global pulses.  On 4 sites that
    is a pair, a single site and the last site.  Returns (circuit,
    groups)."""
    order = [int(s) for s in rng.permutation(n)]
    pairs = [order[k:k + 2] for k in range(0, n - 2, 2)]
    groups = pairs + [[s] for s in order[2 * len(pairs):]]
    c = Circuit(n)
    for _ in range(int(rng.integers(8, 13))):
        r = rng.integers(5)
        if r == 0:
            c.add(grot(*map(float, rng.uniform(-np.pi, np.pi, size=2))))
        elif r < 3:
            c.add(rz(int(rng.choice(order[:-1])), float(rng.uniform(-6, 6))))
        else:
            c.add(cz(*pairs[int(rng.integers(len(pairs)))]))
    return c, groups


@pytest.mark.parametrize("timing_model", ["gate", "layer"])
def test_split_components_match_the_dense_engine(timing_model):
    # 4 sites: the dense engine holds 16^n complex numbers and applies each
    # Kraus operator densely, so a 5-site circuit costs it seconds
    rng, n = np.random.default_rng(41), 4
    for trial in range(2):
        c, groups = split_circuit(rng, n)
        parts, _ = execute_native(c, STRONG, timing_model=timing_model)
        assert len(parts) >= len(groups), (trial, groups)
        for sites, state in parts:
            assert set(sites) == cz_component(c, sites[0]), (trial, sites)
        rho = dense_ref.execute_native(c, STRONG, timing_model=timing_model)
        err = np.max(np.abs(dense_ref.to_dense(dense_ref.join(parts))
                            - dense_ref.to_matrix(rho)))
        assert err < 1e-10, (trial, err)
        # readout of a permuted placement and a subset of the qubits
        l2p = [int(s) for s in rng.permutation(n)]
        measured = sorted(int(q) for q in rng.choice(n, n - 1, replace=False))
        out = runner.output_distribution(parts, l2p, measured, 0.03)
        expect = dense_readout(rho, l2p, measured, 0.03)
        assert np.max(np.abs(out.probs - expect)) < 1e-12, trial


def test_a_layer_decoheres_every_component_for_its_slowest_gate():
    # each layer holds a cz in one component and an rz in the other: under
    # "layer" every site idles for the cz's duration, not for the slowest
    # gate of its own component
    c = Circuit(4, [cz(0, 1), rz(2, 1.3), cz(3, 2), rz(0, -0.7)])
    layers = schedule_layers(c)[0]
    assert [[g.name for g in layer] for layer in layers] == [["cz", "rz"]] * 2
    assert gate_duration(cz(0, 1), STRONG) > gate_duration(rz(2, 1.3), STRONG)
    parts, _ = execute_native(c, STRONG, timing_model="layer")
    assert [sites for sites, _ in parts] == [(0, 1), (2, 3)]
    rho = dense_ref.execute_native(c, STRONG, timing_model="layer")
    err = np.max(np.abs(dense_ref.to_dense(dense_ref.join(parts))
                        - dense_ref.to_matrix(rho)))
    assert err < 1e-10, err
    l2p, measured = [3, 0, 2, 1], [0, 2, 3]
    out = runner.output_distribution(parts, l2p, measured, 0.03)
    expect = dense_readout(rho, l2p, measured, 0.03)
    assert np.max(np.abs(out.probs - expect)) < 1e-12


def dense_readout(rho, l2p, measured, meas_error):
    """The readout distribution of a dense rho, as a 2^k vector: loss folds
    onto its bit, the measured qubits' physical sites are kept in qubit
    order, and each bit flips with probability meas_error."""
    n = rho.ndim // 2
    diag = np.diagonal(dense_ref.to_matrix(rho)).real
    # a site index 0..3 is (loss flag, bit) for |0>, |1>, |l0>, |l1>
    bits = diag.reshape((2, 2) * n).sum(axis=tuple(range(0, 2 * n, 2)))
    keep = [l2p[q] for q in measured]
    t = bits.sum(axis=tuple(s for s in range(n) if s not in keep))
    t = t.transpose([sorted(keep).index(k) for k in keep])
    for ax in range(t.ndim):
        t = (1 - meas_error) * t + meas_error * np.flip(t, axis=ax)
    return t.reshape(-1)


@pytest.mark.parametrize("timing_model", ["gate", "layer"])
@pytest.mark.parametrize("spec,topology", [
    # a star: every cz shares the ancilla, the last site
    (BenchmarkSpec("BernsteinVazirani", 3, "101"), "all_to_all"),
    # routed, so qubits sit at permuted physical sites too
    (BenchmarkSpec("Ghz", 4), "grid"),
])
def test_readout_maps_sites_through_a_permuted_axis_order(spec, topology,
                                                          timing_model):
    circuit, _ = bench.generate(spec)
    routed, l2p = transpile(circuit,
                            make_topology(topology, circuit.n_qubits))
    params = NoiseParams(meas_error=0.03)
    parts, _ = execute_native(routed, params, timing_model=timing_model)
    assert any(state.axes != tuple(range(state.n_sites))
               for _, state in parts)
    out = runner.output_distribution(parts, l2p, circuit.measured_qubits,
                                     params.meas_error)
    rho = dense_ref.execute_native(routed, params, timing_model=timing_model)
    expect = dense_readout(rho, l2p, circuit.measured_qubits,
                           params.meas_error)
    assert np.max(np.abs(out.probs - expect)) < 1e-12


@pytest.mark.parametrize("bad", [float("-inf"), float("nan"), float("inf")])
def test_readout_floor_keeps_a_non_finite_entry(monkeypatch, bad):
    # the floor used to turn -inf into 0 before the finiteness check
    monkeypatch.setattr(runner.metrics, "apply_measurement_error_vector",
                        lambda v, n, e: np.array([1.0, bad]))
    with pytest.raises(ValidationError, match="finite"):
        runner.output_distribution([((0,), QuquartState(1))], [0], [0], 0.0)


@pytest.mark.parametrize("ops,carrier", [
    ([rz(0, 0.7), cz(0, 1)], (0, 1)),   # a later cz carries the rz
    ([cz(0, 1), rz(0, 0.7)], (0, 1)),   # so does the site's last cz
    ([cz(0, 1), rz(2, 0.7)], None),     # the initial product state, no pass
])
def test_trace_breaking_pending_op_is_caught_before_readout(monkeypatch, ops,
                                                            carrier):
    real = gatemodel.native_op

    def scaled_rz(g, params, decohere=True):
        op = real(g, params, decohere)
        if g.name == "rz":
            op = 1.01 * op
        return op

    monkeypatch.setattr(gatemodel, "native_op", scaled_rz)
    calls = []
    apply_channel = QuquartState.apply_channel

    def recorded(self, sites, op):
        calls.append(tuple(sites))
        return apply_channel(self, sites, op)

    monkeypatch.setattr(QuquartState, "apply_channel", recorded)
    with pytest.raises(PatternLeakError, match="trace"):
        execute_native(Circuit(3, ops), NOISELESS)
    assert calls[-1:] == ([carrier] if carrier else [])


def test_execute_native_holds_no_matrix_per_gate():
    # the executor records references to the cached ops; holding one fused
    # 36x36 op per cz until the end would take about 10 KB per cz
    c = Circuit(3, [g for k in range(3000)
                    for g in (cz(k % 3, (k + 1) % 3), rz(k % 3, 0.3))])
    execute_native(c, STRONG)
    tracemalloc.start()
    try:
        execute_native(c, STRONG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6, peak


# the Gate(*args) of native gates that no 2-qubit circuit may hold, made
# inside pytest.raises: a repeated site or a wrong site or parameter count is
# rejected when the gate is made, a site off the register when its circuit is
# built
BAD_SITES_OR_ARITY = [
    ("rz", (-1,), (0.3,)), ("cz", (0, -1)), ("cz", (1, 1)),
    # wrong parameter or site counts
    ("grot", (), (0.3,)), ("rz", (0,), ()), ("cz", (0, 1), (0.2,)),
    ("rz", (0, 1), (0.3,)), ("cz", (0,))]
OFF_THE_REGISTER = [("rz", (2,), (0.3,)), ("rz", (-1,), (0.3,)), ("cz", (0, 2))]


@pytest.mark.parametrize("gate", BAD_SITES_OR_ARITY)
def test_execute_native_rejects_sites_off_the_register(gate):
    # Gate or Circuit(n, ops) rejects these when it is made, so neither
    # timing model simulates them
    for timing_model in ("gate", "layer"):
        with pytest.raises(ValidationError, match="site"):
            execute_native(Circuit(2, [Gate(*gate)]), NoiseParams(),
                           timing_model=timing_model)


def test_layer_decoheres_for_its_slowest_gate(monkeypatch):
    intervals = []
    decohere = gatemodel.apply_decoherence
    monkeypatch.setattr(gatemodel, "apply_decoherence",
                        lambda s, t, p: intervals.append(t) or decohere(s, t, p))
    c = Circuit(4, [rz(0, 1.0), rz(1, 1.0), cz(2, 3), grot(0.0, 1.0)])
    p = NoiseParams()
    execute_native(c, p, timing_model="layer")
    # a layer lasts as long as its slowest gate
    assert intervals == [
        max(gate_duration(rz(0, 1.0), p), gate_duration(cz(2, 3), p)),
        gate_duration(grot(0.0, 1.0), p)]


@pytest.mark.parametrize("gate", OFF_THE_REGISTER)
def test_schedule_rejects_sites_off_the_register(gate):
    # the scheduler indexes per-site lists and checks nothing: Circuit(n, ops)
    # must reject these, not let a negative index wrap or an IndexError out
    with pytest.raises(ValidationError, match="off the register"):
        execute_native(Circuit(2, [Gate(*gate)]), NoiseParams())


@pytest.mark.parametrize("gate", BAD_SITES_OR_ARITY + OFF_THE_REGISTER)
def test_circuit_rejects_a_malformed_gate_when_built(gate):
    with pytest.raises(ValidationError, match="site"):
        Circuit(2, [Gate(*gate)])


def test_run_reference_lowers_each_circuit_once(monkeypatch):
    lowered, lower = [], routing.lower_to_native
    monkeypatch.setattr(routing, "lower_to_native",
                        lambda c: lowered.append(c) or lower(c))
    runner._reference.cache_clear()
    circuit, _ = bench.generate(BenchmarkSpec("Ghz", 3))
    p = NoiseParams()
    first = run_reference(circuit, p)
    assert run_reference(circuit, p).entries == first.entries
    assert len(lowered) == 1
    # keyed on content: a mutated circuit gives what a fresh copy gives
    circuit.ops.append(Gate("x", (0,)))
    fresh = Circuit(3, list(circuit.ops), dict(circuit.metadata))
    mutated = run_reference(circuit, p)
    assert mutated.entries != first.entries
    assert mutated.entries == run_reference(fresh, p).entries
    assert len(lowered) == 2


@pytest.mark.parametrize("spec", [
    BenchmarkSpec("BernsteinVazirani", 3, "101"),
    BenchmarkSpec("DeutschJozsa", 3, "balanced"),
    BenchmarkSpec("QftMethod1", 2, 0),
])
def test_run_reference_reads_out_what_the_all_to_all_sweep_simulates(spec):
    # fit calibrates on the native circuit that run_instance simulates on
    # all-to-all, not on a circuit optimized fewer times
    circuit, _ = bench.generate(spec)
    n = circuit.n_qubits
    p = NoiseParams()
    routed, l2p = transpile(circuit, Topology.all_to_all(n))
    state, _ = execute_native(routed, p)
    expect = runner.output_distribution(state, l2p, circuit.measured_qubits,
                                        p.meas_error)
    assert np.array_equal(run_reference(circuit, p).probs, expect.probs)


def test_run_reference_lowers_each_of_many_circuits_once():
    # a fit walks its references in the same order every evaluation: a
    # bounded memo would evict each one just before it is needed again
    runner._reference.cache_clear()
    refs = [Circuit(2, [Gate("rx", (0,), (0.01 * k,)), Gate("cx", (0, 1))])
            for k in range(65)]
    for _ in range(3):
        for circuit in refs:
            run_reference(circuit, NOISELESS)
    assert runner._reference.cache_info().misses == 65


CZ_FIELDS = gatemodel.CZ_FIELDS
# the fields a pass plan may read, listed here without runner._PLAN_FIELDS
PLAN_FIELDS = [f for f in NoiseParams.__dataclass_fields__
               if f not in CZ_FIELDS + ("meas_error",)]


def _doubled(params, field):
    return params.replace(**{field: 2 * getattr(params, field)})


def test_plan_memo_is_keyed_on_every_field_the_plan_reads():
    # a stale plan would give the output under the warm value of a field
    # missing from the key
    circuit, _ = bench.generate(BenchmarkSpec("BernsteinVazirani", 3, "101"))
    base = NoiseParams()
    runner._reference.cache_clear()
    warm = run_reference(circuit, base).entries
    for f in PLAN_FIELDS:
        p = _doubled(base, f)
        run_reference(circuit, base)
        memo = run_reference(circuit, p).entries
        runner._reference.cache_clear()
        assert memo == run_reference(circuit, p).entries, f
        assert memo != warm, f
    # a reference's native circuit run directly, under the layer timing
    # model too, gives what its copy gives: execute_native keeps no plan
    native, _ = runner._reference(circuit.n_qubits, tuple(circuit.ops))
    copy = Circuit(native.n_qubits, list(native.ops))
    for f in [None] + PLAN_FIELDS:
        p = base if f is None else _doubled(base, f)
        for timing_model in ("gate", "layer"):
            execute_native(native, base)
            direct, _ = execute_native(native, p, timing_model=timing_model)
            fresh, _ = execute_native(copy, p, timing_model=timing_model)
            assert same_parts(direct, fresh), (f, timing_model)


def test_plan_memo_recompiles_nothing_for_a_cz_field(monkeypatch):
    compiled, compile_ = [], runner._compile
    monkeypatch.setattr(runner, "_compile",
                        lambda *args: compiled.append(args) or compile_(*args))
    circuit, _ = bench.generate(BenchmarkSpec("BernsteinVazirani", 3, "101"))
    modes = ("conditional", "correlated", "per_site")
    for mode in modes:
        base = NoiseParams(cz_phaseflip_mode=mode)
        runner._reference.cache_clear()
        warm = run_reference(circuit, base).entries
        for f in CZ_FIELDS:
            if f == "cz_phaseflip_mode":
                p = base.replace(cz_phaseflip_mode=modes[modes.index(mode) - 1])
            else:
                p = _doubled(base, f)
            compiled.clear()
            memo = run_reference(circuit, p).entries
            assert not compiled, (mode, f)
            assert memo != warm, (mode, f)
            runner._reference.cache_clear()
            assert memo == run_reference(circuit, p).entries, (mode, f)
            run_reference(circuit, base)


def test_execute_native_keeps_no_plan(monkeypatch):
    compiled, compile_ = [], runner._compile
    monkeypatch.setattr(runner, "_compile",
                        lambda *args: compiled.append(args) or compile_(*args))
    circuit, _ = bench.generate(BenchmarkSpec("BernsteinVazirani", 3, "101"))
    native, _ = runner._reference(circuit.n_qubits, tuple(circuit.ops))
    first, _ = execute_native(native, NoiseParams())
    second, _ = execute_native(native, NoiseParams())
    assert len(compiled) == 2
    assert same_parts(first, second)


def test_plan_memo_holds_at_most_two_pair_matrices_per_cz():
    circuit, _ = bench.generate(BenchmarkSpec("QftMethod2", 3, 5))
    runner._reference.cache_clear()
    run_reference(circuit, NoiseParams())
    native, (_, groups, passes) = runner._reference(circuit.n_qubits,
                                                    tuple(circuit.ops))
    n_cz = native.gate_counts()["cz"]
    assert len(passes) == n_cz > 2
    held = sum(m.nbytes for *_, before, after in passes
               for m in (before, after) if m is not None)
    assert held <= n_cz * 2 * (N_SYMBOLS**2) ** 2 * 8, held
    assert sorted(s for sites, _ in groups for s in sites) == list(
        range(native.n_qubits))
    assert all(start is None or len(start) == len(sites)
               for sites, start in groups)


def test_plan_memo_is_thread_safe():
    # threads alternate between values of fields the plan reads, so plans
    # are replaced while other threads look them up and run them
    circuit, _ = bench.generate(BenchmarkSpec("BernsteinVazirani", 3, "101"))
    values = [NoiseParams(), STRONG, NoiseParams(prep_error=0.05, t1=5.0),
              STRONG.replace(cz_phaseflip=0.01)]
    expect = []
    for p in values:
        runner._reference.cache_clear()
        expect.append(run_reference(circuit, p).entries)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            got = list(pool.map(
                lambda i: run_reference(circuit, values[i % 4]).entries,
                range(64), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for i, entries in enumerate(got):
        assert entries == expect[i % 4], i


def test_execute_timing_models_differ():
    circuit, _ = bench.generate(BenchmarkSpec("Ghz", 2))
    native = lower_to_native(circuit)
    p = NoiseParams()
    a, _ = execute_native(native, p, timing_model="gate")
    b, _ = execute_native(native, p, timing_model="layer")
    assert np.max(np.abs(dense_ref.join(a).blocks
                         - dense_ref.join(b).blocks)) > 1e-12
    with pytest.raises(ValidationError):
        execute_native(native, p, timing_model="sundial")


def test_run_instance_noiseless_perfect():
    rec = run_instance(BenchmarkSpec("BernsteinVazirani", 3,
                                     instance_param="101"),
                       "grid", NOISELESS)
    assert rec.status == "ok"
    assert rec.f == pytest.approx(1.0, abs=1e-6)
    assert rec.topology.startswith("grid")
    d = rec.to_dict()
    assert d["kind"] == "BernsteinVazirani" and d["width"] == 3


def test_run_instance_noisy_below_one():
    rec = run_instance(BenchmarkSpec("Ghz", 3), "all_to_all", NoiseParams())
    assert rec.status == "ok"
    assert 0.0 < rec.f < 1.0
    assert rec.native_gate_counts.get("cz") == 2


def test_run_instance_degenerate_ideal():
    # a uniform ideal distribution cannot be scored by the normalized metric
    circuit = Circuit(1, [Gate("h", (0,))])
    out = run_reference(circuit, NoiseParams())
    assert abs(sum(out.entries.values()) - 1.0) < 1e-9
    from atombench.errors import DegenerateIdealError
    from atombench.metrics import Distribution, classical_fidelity
    with pytest.raises(DegenerateIdealError):
        classical_fidelity(Distribution(np.array([0.5, 0.5])), out)
    # GhzParity at phase pi/4 on two qubits has a uniform ideal
    rec = run_instance(BenchmarkSpec("GhzParity", 2, math.pi / 4),
                       "all_to_all", NoiseParams())
    assert rec.status == "degenerate_ideal"
    assert math.isfinite(rec.f_s) and math.isnan(rec.f)


def test_run_suite_aggregates(tmp_path):
    cfg = RunConfig.from_dict({
        "noise": "noiseless",
        "topologies": ["all_to_all", "grid"],
        "kinds": ["Ghz", "HiddenShift"],
        "widths": [2, 3],
        "samples_per_point": {"Ghz": 1, "HiddenShift": 1},
    })
    records, summary = run_suite(cfg)
    # hidden shift skips odd widths; GHZ runs both
    kinds = {(r.kind, r.width, r.topology) for r in records}
    assert ("HiddenShift", 3, "all_to_all") not in kinds
    assert ("Ghz", 3, "grid") in kinds
    assert all(r.f == pytest.approx(1.0, abs=1e-6) for r in records)
    for row in summary:
        assert row["mean_fidelity"] == pytest.approx(1.0, abs=1e-6)
    path = tmp_path / "records.json"
    save_records(records, path)
    loaded = json.loads(path.read_text())
    assert len(loaded) == len(records)


def test_run_suite_parallel_matches_serial():
    base = {
        "kinds": ["Ghz"], "widths": [2, 3], "topologies": ["all_to_all"],
        "samples_per_point": {"Ghz": 1},
    }
    serial, _ = run_suite(RunConfig.from_dict(base))
    parallel, _ = run_suite(RunConfig.from_dict({**base, "workers": 4}))
    key = lambda r: (r.kind, r.width, r.topology, str(r.instance_param))
    for a, b in zip(sorted(serial, key=key), sorted(parallel, key=key)):
        assert a.f == pytest.approx(b.f, abs=1e-12)


def test_run_suite_records_do_not_depend_on_worker_count():
    # the fused-operator cache is shared by the worker threads
    base = {
        "kinds": ["Ghz", "BernsteinVazirani", "QftMethod2"],
        "widths": [2, 3], "topologies": ["all_to_all", "grid"],
        "samples_per_point": {"BernsteinVazirani": 2, "QftMethod2": 2},
    }
    serial, serial_agg = run_suite(RunConfig.from_dict({**base, "workers": 1}))
    parallel, parallel_agg = run_suite(
        RunConfig.from_dict({**base, "workers": 2}))

    def without_time(records):
        return [{k: v for k, v in r.to_dict().items() if k != "wall_time"}
                for r in records]

    assert serial and all(r.status == "ok" for r in serial)
    assert without_time(serial) == without_time(parallel)
    assert serial_agg == parallel_agg


def test_run_suite_maps_one_pool_over_every_point(monkeypatch):
    pools, pool = [], runner.ThreadPoolExecutor
    monkeypatch.setattr(runner, "ThreadPoolExecutor",
                        lambda *a: pools.append(a) or pool(*a))
    records, aggregates = run_suite(RunConfig.from_dict({
        "noise": "noiseless", "kinds": ["Ghz", "BernsteinVazirani"],
        "widths": [2, 3], "topologies": ["all_to_all", "grid"],
        "samples_per_point": {"Ghz": 1, "BernsteinVazirani": 2},
        "workers": 2}))
    assert len(pools) == 1
    assert len(aggregates) == 8 and len(records) == 12
    # each point's aggregate counts its own records, in job order
    assert [a["n_instances"] for a in aggregates] == [1] * 4 + [2] * 4


def test_run_suite_records_memory_error(monkeypatch):
    real = runner.run_instance

    def run_instance(spec, *args, **kwargs):
        if spec.width == 3:
            raise MemoryError("no room for the state")
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(runner, "run_instance", run_instance)
    records, aggregates = run_suite(RunConfig.from_dict({
        "noise": "noiseless", "kinds": ["Ghz"], "widths": [2, 3],
        "samples_per_point": {"Ghz": 1}}))
    status = {r.width: (r.status, r.error) for r in records}
    assert status[2] == ("ok", "")
    assert status[3] == ("error", "MemoryError: no room for the state")
    assert [a["n_failed"] for a in aggregates] == [0, 1]


def without_time(record: ResultRecord) -> dict:
    return {k: v for k, v in record.to_dict().items() if k != "wall_time"}


@pytest.fixture
def fresh_front(monkeypatch):
    """An empty front-end memo for this thread."""
    monkeypatch.setattr(runner, "_front", threading.local())


@pytest.mark.parametrize("timing_model", ["gate", "layer"])
@pytest.mark.parametrize("order", [("all_to_all", "grid"),
                                   ("grid", "all_to_all")])
def test_memo_serves_the_record_of_a_cold_call(monkeypatch, order,
                                                timing_model):
    spec = BenchmarkSpec("QftMethod2", 3, 5)
    cold = []
    for topology in order:
        monkeypatch.setattr(runner, "_front", threading.local())
        cold.append(run_instance(spec, topology, NoiseParams(),
                                 timing_model=timing_model))
    monkeypatch.setattr(runner, "_front", threading.local())
    served = [run_instance(spec, topology, NoiseParams(),
                           timing_model=timing_model) for topology in order]
    assert [without_time(r) for r in served] == [without_time(r) for r in cold]
    assert cold[0].f != cold[1].f   # the topologies differ


@pytest.mark.parametrize("workers", [1, 2])
def test_run_suite_generates_each_spec_once(monkeypatch, fresh_front,
                                            workers):
    calls, generate = [], bench.generate
    monkeypatch.setattr(bench, "generate",
                        lambda spec: calls.append(spec) or generate(spec))
    records, _ = run_suite(RunConfig.from_dict({
        "kinds": ["Ghz", "BernsteinVazirani"], "widths": [2, 3],
        "topologies": ["all_to_all", "grid"],
        "samples_per_point": {"BernsteinVazirani": 2}, "workers": workers}))
    specs = {(r.kind, r.width, r.instance_param) for r in records}
    assert len(records) == 2 * len(specs) == 12
    assert len(calls) == len(specs)
    assert {(s.kind, s.width, s.instance_param) for s in calls} == specs


def test_front_end_of_the_previous_spec_is_released(fresh_front):
    run_instance(BenchmarkSpec("QftMethod2", 3, 5), "grid", NOISELESS)
    entry = runner._front.entry
    held = [weakref.ref(entry[2]), weakref.ref(entry[3])]
    del entry
    run_instance(BenchmarkSpec("QftMethod2", 3, 6), "grid", NOISELESS)
    gc.collect()
    assert [ref() for ref in held] == [None, None]


@pytest.mark.parametrize("line_first", [False, True])
def test_capacity_error_on_one_topology_leaves_the_others(line_first):
    # a 1x2 grid cannot hold 3 qubits; it fails after the front end is made
    base = {"kinds": ["Ghz", "QftMethod2"], "widths": [3],
            "samples_per_point": {"QftMethod2": 2}}
    line = {"grid": [1, 2]}
    topologies = ["all_to_all", line, "grid"]
    if line_first:
        topologies = topologies[1:] + topologies[:1]
    records, aggregates = run_suite(RunConfig.from_dict(
        {**base, "topologies": topologies}))
    alone, _ = run_suite(RunConfig.from_dict(
        {**base, "topologies": [t for t in topologies if t != line]}))
    failed = [r for r in records if r.status == "error"]
    assert len(failed) == 3 and all(
        r.error.startswith("CapacityError: grid 1x2") for r in failed)
    assert [without_time(r) for r in records if r.status != "error"] == [
        without_time(r) for r in alone]
    assert [a["n_failed"] for a in aggregates] == [
        a["n_instances"] * (t == line) for a, t in zip(
            aggregates, topologies * 2)]


def test_topologies_do_not_change_the_shared_circuit(fresh_front):
    spec = BenchmarkSpec("PhaseEstimation", 4, 3)

    def digest(entry):
        _, measured, ideal, native = entry
        return json.dumps([measured, ideal.probs.tolist(), native.to_dict()])

    run_instance(spec, "all_to_all", NoiseParams())
    entry = runner._front.entry
    before = digest(entry)
    for topology in ("grid", {"grid": [1, 4]}, "all_to_all", "grid"):
        run_instance(spec, topology, NoiseParams(), timing_model="layer")
    assert runner._front.entry is entry
    assert digest(entry) == before


@pytest.mark.parametrize("workers", [1, 2])
def test_run_suite_returns_records_point_by_point(workers):
    kinds, widths, topologies = ["BernsteinVazirani", "QftMethod2"], [2, 3], [
        "grid", "all_to_all"]
    records, aggregates = run_suite(RunConfig.from_dict({
        "noise": "noiseless", "kinds": kinds, "widths": widths,
        "topologies": topologies, "workers": workers,
        "samples_per_point": {"BernsteinVazirani": 3, "QftMethod2": 3}}))
    # each (kind, width, topology) point, its instances in sampled order
    want = [(kind, width, topology, spec.instance_param)
            for kind in kinds for width in widths for topology in topologies
            for spec in bench.sample_instances(kind, width, 3)]
    assert [(r.kind, r.width, r.topology, r.instance_param)
            for r in records] == want
    assert [(a["kind"], a["width"], a["topology"]) for a in aggregates] == [
        (kind, width, topology) for kind in kinds for width in widths
        for topology in topologies]


def test_bell_state_fidelity_bounds():
    assert dense_ref.bell_state_fidelity(NOISELESS) == pytest.approx(
        1.0, abs=1e-9)
    f = dense_ref.bell_state_fidelity(NoiseParams())
    assert 0.85 < f < 0.96
