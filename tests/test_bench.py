"""Benchmark generators: ideal distributions, instance sampling, loading."""

import hashlib
import json
import math

import numpy as np
import pytest

from atombench import bench
from atombench.bench import KINDS, WIDTH_BOUNDS, BenchmarkSpec, generate, sample_instances
from atombench.errors import CapacityError, SchemaError, ValidationError
from atombench.state import footprint


def test_kind_and_width_validation():
    with pytest.raises(ValidationError):
        BenchmarkSpec("QuantumSupremacy", 3)
    with pytest.raises(ValidationError):
        BenchmarkSpec("Grover", 1)
    with pytest.raises(ValidationError):
        BenchmarkSpec("HiddenShift", 5)  # pairwise oracle needs even width
    with pytest.raises(ValidationError):
        BenchmarkSpec("AmplitudeEstimation", 2)  # needs counting + object


@pytest.mark.parametrize("width", [2.5, 3.0, True, "3", None])
def test_spec_rejects_a_width_that_is_not_an_int(width):
    # a float width was accepted and failed in generate with a TypeError
    with pytest.raises(ValidationError, match="width"):
        BenchmarkSpec("Ghz", width)
    with pytest.raises(ValidationError, match="width"):
        sample_instances("Ghz", width)


@pytest.mark.parametrize("n_samples", [2.0, True, "2"])
def test_sample_instances_rejects_a_count_that_is_not_an_int(n_samples):
    with pytest.raises(ValidationError, match="n_samples"):
        sample_instances("Ghz", 3, n_samples)


def test_bernstein_vazirani_ideal_is_secret():
    spec = BenchmarkSpec("BernsteinVazirani", 4, instance_param="1011")
    circuit, ideal = generate(spec)
    assert circuit.n_qubits == 5  # data register plus ancilla
    assert ideal.entries == pytest.approx({"1011": 1.0})


def test_deutsch_jozsa_constant_and_balanced():
    c_const, ideal_const = generate(
        BenchmarkSpec("DeutschJozsa", 3, instance_param="constant_1"))
    assert ideal_const.entries == pytest.approx({"000": 1.0})
    c_bal, ideal_bal = generate(
        BenchmarkSpec("DeutschJozsa", 3, instance_param="balanced"))
    assert ideal_bal.entries.get("000", 0.0) == pytest.approx(0.0, abs=1e-12)


def test_hidden_shift_ideal_is_shift():
    spec = BenchmarkSpec("HiddenShift", 4, instance_param="1101")
    _, ideal = generate(spec)
    assert ideal.entries == pytest.approx({"1101": 1.0})


def test_qft_method1_increments():
    for a in range(8):
        _, ideal = generate(BenchmarkSpec("QftMethod1", 3, instance_param=a))
        expect = format((a + 1) % 8, "03b")
        assert ideal.entries == pytest.approx({expect: 1.0}), (a, ideal.entries)


def test_qft_method2_decodes_value():
    for a in range(8):
        _, ideal = generate(BenchmarkSpec("QftMethod2", 3, instance_param=a))
        assert ideal.entries == pytest.approx({format(a, "03b"): 1.0})


def test_phase_estimation_reads_phase():
    # width w = w-1 counting qubits plus one target; dyadic phase k/2^(w-1)
    for k in (1, 2, 3):
        _, ideal = generate(BenchmarkSpec("PhaseEstimation", 3, instance_param=k))
        assert ideal.entries == pytest.approx({format(k, "02b"): 1.0})


def test_grover_amplifies_marked_item():
    for marked in (0, 3, 5):
        _, ideal = generate(BenchmarkSpec("Grover", 3, instance_param=marked))
        top = max(ideal.entries, key=ideal.entries.get)
        assert top == format(marked, "03b")
        assert ideal.entries[top] > 0.9


def test_ghz_ideal():
    _, ideal = generate(BenchmarkSpec("Ghz", 4))
    assert ideal.entries == pytest.approx({"0000": 0.5, "1111": 0.5})


def test_ghz_parity_oscillation():
    # the analysis pulse turns GHZ parity into an oscillation at n times the
    # analysis angle: P(even) - P(odd) = sin(n phi) for odd n
    n = 3
    for phi in (0.2, 0.9, 2.0):
        _, ideal = generate(BenchmarkSpec("GhzParity", n, instance_param=phi))
        parity = sum(p * (-1) ** key.count("1")
                     for key, p in ideal.entries.items())
        assert parity == pytest.approx(math.sin(n * phi), abs=1e-9)


def test_amplitude_estimation_peaks():
    # exact dyadic amplitude concentrates on the encoding pair
    _, ideal = generate(BenchmarkSpec("AmplitudeEstimation", 3, instance_param=1))
    assert sum(ideal.entries.values()) == pytest.approx(1.0)
    top = sorted(ideal.entries.values(), reverse=True)
    assert top[0] > 0.4


def test_hamiltonian_sim_normalized():
    _, ideal = generate(BenchmarkSpec("HamiltonianSim", 3, instance_param=5))
    assert sum(ideal.entries.values()) == pytest.approx(1.0)


def test_width_bounds_cover_all_kinds():
    for kind in KINDS:
        lo, hi = WIDTH_BOUNDS[kind]
        assert 2 <= lo <= hi <= 11


def test_sample_instances_deterministic_and_admissible():
    for kind in KINDS:
        lo, _ = WIDTH_BOUNDS[kind]
        a = sample_instances(kind, lo, seed=0)
        b = sample_instances(kind, lo, seed=0)
        assert [s.instance_param for s in a] == [s.instance_param for s in b]
        assert all(s.kind == kind and s.width == lo for s in a)
        for s in a:
            generate(s)  # must be constructible


def test_sample_instances_draws_are_pinned():
    # every trend window and every run_suite result depends on these draws:
    # one digest over each parameter's value and type, recorded once
    h = hashlib.sha256()
    for kind in KINDS:
        lo, hi = WIDTH_BOUNDS[kind]
        for width in range(lo, hi + 1):
            if not bench.width_allowed(kind, width):
                continue
            for seed in (0, 1, 5):
                for n in (None, 1, 2, 3, 7):
                    for s in sample_instances(kind, width, n, seed):
                        p = s.instance_param
                        h.update(f"{s.kind}|{s.width}|{s.seed}|"
                                 f"{type(p).__name__}|{p!r};".encode())
    assert h.hexdigest() == ("26222d1691ea405976d0f76a188fbda6"
                             "cf561837a6d5f3c7d020d634bfaf233c")


def test_sample_instances_enumerates_small_spaces():
    # phase estimation width 3 admits exactly three dyadic phases
    specs = sample_instances("PhaseEstimation", 3, seed=1)
    assert sorted(s.instance_param for s in specs) == [1, 2, 3]
    # amplitude estimation samples two instances by default
    assert len(sample_instances("AmplitudeEstimation", 4, seed=1)) == 2
    assert len(sample_instances("MonteCarlo", 3, seed=1)) == 1


def test_statevector_oracle_vs_dense_unitary():
    # spot-check the oracle against explicit matrix algebra on a ccx circuit
    from atombench.circuit import Circuit, Gate
    c = Circuit(3)
    c.add(Gate("h", (0,)))
    c.add(Gate("h", (1,)))
    c.add(Gate("ccx", (0, 1, 2)))
    psi = bench.statevector(c).reshape(-1)
    expect = np.zeros(8, dtype=complex)
    expect[[0, 2, 4]] = 0.5   # |000>,|010>,|100>
    expect[7] = 0.5           # |110> flips target -> |111>
    assert np.max(np.abs(psi - expect)) < 1e-12


def test_load_external_round_trip(tmp_path):
    from atombench.circuit import Circuit, Gate
    c = Circuit(2, [Gate("h", (0,)), Gate("cx", (0, 1))])
    ideal = bench.ideal_distribution(c)
    doc = {"n_qubits": 2, "ops": [g.to_record() for g in c.ops],
           "measured": ideal.entries}
    path = tmp_path / "ref.json"
    path.write_text(json.dumps(doc))
    circuit, dist = bench.load_external(path)
    assert circuit.ops == c.ops
    assert dist.entries == pytest.approx(ideal.entries)


def test_load_external_schema_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n_qubits": 2, "ops": []}))
    with pytest.raises(SchemaError):
        bench.load_external(path)
    path.write_text(json.dumps(
        {"n_qubits": 1, "ops": [], "measured": {"0": 0.2}}))
    with pytest.raises(SchemaError):
        bench.load_external(path)
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        bench.load_external(path)


def test_load_external_rejects_a_register_no_cap_can_hold(tmp_path):
    # the measured vector is dense: a 40-bit key used to ask for 8 TiB, a
    # 64-bit one raised a bare ValueError
    assert footprint(22) <= np.iinfo(np.intp).max < footprint(23)
    path = tmp_path / "ref.json"
    for n in (23, 40, 64):
        path.write_text(json.dumps(
            {"n_qubits": n, "ops": [], "measured": {"0" * n: 1.0}}))
        with pytest.raises(CapacityError, match=f"{n} qubits"):
            bench.load_external(path)


@pytest.mark.parametrize("text", ["5", "null", "[]", '"ref"'])
def test_load_external_rejects_a_document_that_is_no_object(tmp_path, text):
    path = tmp_path / "ref.json"
    path.write_text(text)
    with pytest.raises(SchemaError, match="JSON object"):
        bench.load_external(path)


def _external(tmp_path, measured, **metadata):
    path = tmp_path / "ref.json"
    path.write_text(json.dumps({
        "n_qubits": 2, "ops": [{"gate": "h", "sites": [0]}],
        "measured": measured, "metadata": metadata}))
    return path


def test_load_external_rejects_non_finite_probabilities(tmp_path):
    path = tmp_path / "ref.json"
    path.write_text('{"n_qubits": 1, "ops": [], '
                    '"measured": {"0": NaN, "1": 1.0}}')
    with pytest.raises(SchemaError, match="finite"):
        bench.load_external(path)


@pytest.mark.parametrize("doc", [
    {"measured": {"0": "0.5", "1": 0.5}},
    {"measured": {"0": True}},
    {"measured": {"0": 1.0}, "metadata": [1]},
])
def test_load_external_rejects_malformed_documents(tmp_path, doc):
    path = tmp_path / "ref.json"
    path.write_text(json.dumps({"n_qubits": 1, "ops": [], **doc}))
    with pytest.raises(SchemaError):
        bench.load_external(path)


@pytest.mark.parametrize("qubits", [
    [0, 0],         # a repeated qubit
    [0, 5],         # off the register
    [-1, 0],        # off the register, from the end
    [1],            # fewer qubits than measured bits
    [0, 1, 0],      # more qubits than measured bits
    [0, True],
    "01",
])
def test_load_external_checks_measured_qubits(tmp_path, qubits):
    measured = {"00": 0.5, "10": 0.5}
    path = _external(tmp_path, measured, measured_qubits=qubits)
    with pytest.raises(SchemaError, match="measured_qubits"):
        bench.load_external(path)
    # the same file with measured qubits that fit loads
    circuit, dist = bench.load_external(
        _external(tmp_path, measured, measured_qubits=[1, 0]))
    assert circuit.measured_qubits == [1, 0] and dist.n_bits == 2


def test_load_external_default_measured_qubits_match_the_bits(tmp_path):
    # without measured_qubits every qubit is measured, so the bitstrings
    # must be as wide as the register
    with pytest.raises(SchemaError, match="measured_qubits"):
        bench.load_external(_external(tmp_path, {"0": 0.5, "1": 0.5}))
