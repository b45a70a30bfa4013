"""Lowering, peephole optimization, scheduling, serialization."""

import json
import math

import numpy as np
import pytest

from atombench import bench
from atombench.channels import NoiseParams
from atombench.circuit import (
    GATE_ARITY,
    NATIVE_GATES,
    Circuit,
    Gate,
    cz,
    decompose_local_rotation,
    gate_duration,
    lower_to_native,
    optimize_native,
    schedule_layers,
)
from atombench.errors import SchemaError, ValidationError
from atombench.routing import Topology, route
from dense_ref import circuit_unitary

ABSTRACT_1Q = ["x", "y", "z", "h"]
ROT_1Q = ["rx", "ry", "rz", "rphi"]
RNG = np.random.default_rng(13)


def assert_same_up_to_phase(u: np.ndarray, v: np.ndarray, atol=1e-12):
    k = np.argmax(np.abs(v))
    i, j = np.unravel_index(k, v.shape)
    phase = u[i, j] / v[i, j]
    assert abs(abs(phase) - 1.0) < 1e-9
    assert np.max(np.abs(u - phase * v)) < atol


def random_abstract_circuit(n, depth, rng):
    c = Circuit(n)
    for _ in range(depth):
        r = rng.integers(4)
        if r == 0:
            c.add(Gate(str(rng.choice(ABSTRACT_1Q)), (int(rng.integers(n)),)))
        elif r == 1:
            name = str(rng.choice(ROT_1Q))
            params = tuple(rng.uniform(-2 * np.pi, 2 * np.pi,
                                       size=2 if name == "rphi" else 1))
            c.add(Gate(name, (int(rng.integers(n)),), params))
        elif r == 2:
            a, b = map(int, rng.choice(n, 2, replace=False))
            name = str(rng.choice(["cx", "cp", "swap", "cz"]))
            params = (float(rng.uniform(-2 * np.pi, 2 * np.pi)),) \
                if name == "cp" else ()
            c.add(Gate(name, (a, b), params))
        else:
            c.add(Gate("grot", tuple(range(n)),
                       tuple(rng.uniform(-np.pi, np.pi, size=2))))
    return c


def test_local_rotation_identity():
    # R_phi(theta) from two global pulses and one local Rz, with spectator
    # sites seeing no net rotation.
    rng = np.random.default_rng(2)
    for _ in range(100):
        phi, theta = rng.uniform(-2 * np.pi, 2 * np.pi, size=2)
        c = Circuit(2, list(decompose_local_rotation(phi, theta, 0)))
        u = circuit_unitary(c)
        target = np.kron(bench.gate_unitary(Gate("rphi", (0,), (phi, theta))),
                         np.eye(2))
        assert_same_up_to_phase(u, target)


@pytest.mark.parametrize("name,n_sites,n_params",
                         [("x", 1, 0), ("y", 1, 0), ("z", 1, 0), ("h", 1, 0),
                          ("rx", 1, 1), ("ry", 1, 1), ("rz", 1, 1),
                          ("rphi", 1, 2), ("cx", 2, 0), ("cp", 2, 1),
                          ("swap", 2, 0), ("ccx", 3, 0)])
def test_each_lowering_is_exact(name, n_sites, n_params):
    rng = np.random.default_rng(hash(name) % 2**32)
    for _ in range(5):
        params = tuple(rng.uniform(-2 * np.pi, 2 * np.pi, size=n_params))
        g = Gate(name, tuple(range(n_sites)), params)
        abstract = Circuit(n_sites, [g])
        native = lower_to_native(abstract)
        assert native.is_native
        assert_same_up_to_phase(circuit_unitary(abstract),
                                circuit_unitary(native), atol=1e-11)


def test_lowering_random_circuits():
    for _ in range(10):
        c = random_abstract_circuit(3, 12, RNG)
        native = lower_to_native(c)
        assert native.is_native
        assert_same_up_to_phase(circuit_unitary(c), circuit_unitary(native),
                                atol=1e-10)


def test_optimize_preserves_semantics():
    for _ in range(10):
        c = random_abstract_circuit(3, 15, RNG)
        native = lower_to_native(c)
        opt = optimize_native(native)
        assert opt.is_native
        assert_same_up_to_phase(circuit_unitary(native), circuit_unitary(opt),
                                atol=1e-9)


def test_optimize_fuses_diagonals():
    c = Circuit(2)
    c.add(Gate("rz", (0,), (0.4,)))
    c.add(Gate("cz", (0, 1)))
    c.add(Gate("rz", (0,), (-0.4,)))   # commutes through the cz, cancels
    c.add(Gate("rz", (1,), (0.3,)))
    c.add(Gate("rz", (1,), (-0.3,)))
    opt = optimize_native(c)
    assert opt.gate_counts() == {"cz": 1}


def test_optimize_merges_global_pulses():
    c = Circuit(2)
    c.add(Gate("grot", (0, 1), (0.7, 0.5)))
    c.add(Gate("grot", (0, 1), (0.7, 0.8)))
    opt = optimize_native(c)
    assert opt.gate_counts() == {"grot": 1}
    assert opt.ops[0].params[1] == pytest.approx(1.3)


def test_optimize_drops_full_turns():
    c = Circuit(1)
    c.add(Gate("rz", (0,), (2 * math.pi,)))
    c.add(Gate("grot", (0,), (0.2, 4 * math.pi)))
    opt = optimize_native(c)
    assert opt.ops == []


def test_lowering_unknown_gate():
    # an unknown name is rejected when its gate is made, so no pass sees it
    with pytest.raises(ValidationError, match="unknown gate"):
        lower_to_native(Circuit(1, [Gate("toffoli_prime", (0,))]))


def test_cp_special_angles():
    assert lower_to_native(Circuit(2, [Gate("cp", (0, 1), (2 * math.pi,))])).ops == []
    single = lower_to_native(Circuit(2, [Gate("cp", (0, 1), (math.pi,))]))
    assert single.gate_counts() == {"cz": 1}
    assert lower_to_native(
        Circuit(2, [Gate("cp", (0, 1), (3 * math.pi,))])).gate_counts() == {"cz": 1}


def test_schedule_layers_parallelism():
    c = Circuit(4)
    c.add(Gate("rz", (0,), (1.0,)))
    c.add(Gate("rz", (1,), (1.0,)))
    c.add(Gate("cz", (2, 3)))
    c.add(Gate("grot", (0, 1, 2, 3), (0.0, 1.0)))
    c.add(Gate("rz", (0,), (1.0,)))
    layers, depth = schedule_layers(c)
    assert depth == 3
    assert [len(layer) for layer in layers] == [3, 1, 1]


def test_gate_duration_scales_with_angle():
    p = NoiseParams()
    assert gate_duration(Gate("rz", (0,), (math.pi,)), p) == pytest.approx(p.dur_rz_pi)
    assert gate_duration(Gate("rz", (0,), (math.pi / 2,)), p) == pytest.approx(p.dur_rz_pi / 2)
    assert gate_duration(Gate("grot", (0,), (0.0, math.pi)), p) == pytest.approx(p.dur_uw_pi)
    assert gate_duration(Gate("cz", (0, 1)), p) == pytest.approx(p.dur_cz)


def test_circuit_validation():
    with pytest.raises(ValidationError):
        Circuit(2).add(Gate("cz", (0, 2)))
    with pytest.raises(ValidationError):
        Circuit(2).add(Gate("cz", (1, 1)))


@pytest.mark.parametrize("gate", [("rz", (0,), ()),
                                  ("grot", (), (1.0,)),
                                  ("cz", (0,))])
def test_circuit_rejects_wrong_arity(gate):
    # the gate is rejected when it is made, before Circuit.add sees it
    with pytest.raises(ValidationError, match=gate[0]):
        Circuit(3).add(Gate(*gate))


def test_serialization_round_trip():
    c = random_abstract_circuit(3, 8, np.random.default_rng(1))
    c.metadata["measured_qubits"] = [0, 2]
    back = Circuit.from_dict(json.loads(json.dumps(c.to_dict())))
    assert back.n_qubits == c.n_qubits
    assert back.ops == c.ops
    assert back.measured_qubits == [0, 2]
    with pytest.raises(SchemaError):
        Circuit.from_dict({"ops": []})
    with pytest.raises(SchemaError):
        Circuit.from_dict({"n_qubits": 2, "ops": [{"sites": [0]}]})


@pytest.mark.parametrize("ops", [5, None, "h", {"gate": "h", "sites": [0]}])
def test_from_dict_rejects_ops_that_are_no_list(ops):
    with pytest.raises(SchemaError, match="ops must be a list"):
        Circuit.from_dict({"n_qubits": 2, "ops": ops})


@pytest.mark.parametrize("rec", [
    {"gate": "cz", "sites": [0, 1.7]},
    {"gate": "h", "sites": "1"},
    {"gate": "h", "sites": [True]},
    {"gate": "rz", "sites": [0], "params": ["0.5"]},
    {"gate": "rz", "sites": [0], "params": [False]},
    {"gate": ["x"], "sites": [0]},
    {"gate": 5, "sites": [0]},
    {"gate": "rz", "sites": [0], "params": [math.nan]},
    {"gate": "rz", "sites": [0], "params": [math.inf]},
    {"gate": "rz", "sites": [0], "params": [-math.inf]},
    {"gate": "rz", "sites": [0], "params": [10**400]},
])
def test_from_dict_does_not_coerce_a_gate_record(rec):
    # int() and float() would read the first five as cz(0, 1), h(1), h(1),
    # rz(0, 0.5) and rz(0, 0.0); a gate name that is no string used to pass,
    # or fail in the arity check with a bare TypeError; a non-finite angle
    # used to load and run, and an int too large for a float raised a bare
    # OverflowError
    with pytest.raises(SchemaError, match="bad gate record"):
        Circuit.from_dict({"n_qubits": 2, "ops": [rec]})
    record = {"gate": "rz", "sites": [1], "params": [1]}
    assert Circuit.from_dict({"n_qubits": 2, "ops": [record]}).ops == [
        Gate("rz", (1,), (1.0,))]


@pytest.mark.parametrize("name,sites,params", [
    ("cz", (0, 1.7), ()), ("cz", (0.0, 1), ()), ("rz", (True,), (0.5,)),
    ("cz", (False, 1), ()), ("h", ("1",), ()), ("h", (np.bool_(True),), ()),
    ("rz", (np.float64(1),), (0.5,)),
])
def test_a_gate_rejects_a_site_that_is_no_integer(name, sites, params):
    # int() read the first four as cz(0, 1), cz(0, 1), rz(1, 0.5) and
    # cz(0, 1), and Circuit took them
    with pytest.raises(ValidationError, match="not all integers"):
        Gate(name, sites, params)


@pytest.mark.parametrize("name,sites,params,match", [
    ("rz", (0,), ("0.5",), "finite real"), ("rz", (0,), (True,), "finite real"),
    ("rz", (0,), (np.bool_(True),), "finite real"),
    ("rz", (0,), (1j,), "finite real"), ("rz", (0,), (math.nan,), "finite real"),
    ("rz", (0,), (math.inf,), "finite real"),
    ("rz", (0,), (-math.inf,), "finite real"),
    ("grot", (), (0.1, 10**400), "finite real"),
    ("toffoli_prime", (0,), (), "unknown gate"),
    (["h"], (0,), (), "unknown gate"),
    ("cz", (1, 1), (), "distinct site"),
    ("ccx", (0, 2, 0), (), "distinct site"),
])
def test_a_gate_is_rejected_when_it_is_made(name, sites, params, match):
    # each used to be made and to enter a Circuit: float() read "0.5" and
    # True as 0.5 and 1.0, a NaN or infinite angle reached the passes, an
    # unknown name failed only when it was lowered
    with pytest.raises(ValidationError, match=match):
        Gate(name, sites, params)


def test_a_gate_takes_real_params_as_floats():
    for value in (1, np.float64(0.5), np.float32(0.25), np.int64(-2)):
        gate = Gate("rz", (0,), (value,))
        assert gate.params == (float(value),)
        assert type(gate.params[0]) is float
    assert Gate("cz", [0, 1]).sites == (0, 1)


def _any_gate(name: str) -> Gate:
    """A gate of this name on the first sites with every parameter 0.3."""
    n_sites, n_params = GATE_ARITY[name]
    return Gate(name, tuple(range(n_sites or 0)), (0.3,) * n_params)


@pytest.mark.parametrize("name", GATE_ARITY)
def test_every_gate_has_an_oracle_unitary(name):
    # a grot's 2x2 acts on each qubit in turn
    n_sites = GATE_ARITY[name][0] or 1
    u = bench.gate_unitary(_any_gate(name))
    assert u.shape == (2**n_sites, 2**n_sites)
    assert np.allclose(u.conj().T @ u, np.eye(2**n_sites))


@pytest.mark.parametrize("name", sorted(set(GATE_ARITY) - set(NATIVE_GATES)))
def test_every_abstract_gate_lowers_to_native_gates(name):
    gate = _any_gate(name)
    lowered = lower_to_native(Circuit(len(gate.sites), [gate]))
    assert lowered.ops
    assert {g.name for g in lowered.ops} <= set(NATIVE_GATES)


def test_a_gate_takes_numpy_integer_sites_as_ints():
    gate = Gate("cz", (np.int64(0), np.int32(2)))
    assert gate == cz(0, 2)
    assert all(type(s) is int for s in gate.sites)
    assert Circuit(3).add(gate).ops == [cz(0, 2)]


def test_a_malformed_gate_is_rejected_when_its_circuit_is_built():
    # each used to reach a pass and fail there with a bare ValueError or
    # IndexError; a wrong site count now fails when the gate is made
    for n, gate in ((1, ("cx", (0,))), (2, ("cz", (0, 3))),
                    (3, ("ccx", (0, 1)))):
        with pytest.raises(ValidationError):
            Circuit(n, [Gate(*gate)])


def test_each_pass_builds_one_checked_circuit(monkeypatch):
    # a built Circuit is valid: each pass checks its output once, through the
    # constructor, and the scheduler checks nothing again
    spec = bench.sample_instances("QftMethod2", 4, 1, seed=0)[0]
    circuit = bench.generate(spec)[0]
    topology = Topology.grid(circuit.n_qubits)
    native = optimize_native(lower_to_native(circuit))
    routed = route(native, topology)[0]  # lowers the SWAPs it needs
    assert routed.gate_counts()["cz"] > native.gate_counts()["cz"]
    built, checked = [], []
    init, check = Circuit.__post_init__, Circuit._check
    monkeypatch.setattr(Circuit, "__post_init__",
                        lambda c: built.append(id(c)) or init(c))
    monkeypatch.setattr(Circuit, "_check",
                        lambda c, g: checked.append(g) or check(c, g))
    monkeypatch.setattr(Circuit, "add", lambda c, g: pytest.fail("add"))
    passes = (lower_to_native, optimize_native,
              lambda c: route(c, topology)[0], optimize_native)
    for run in passes:
        built.clear()
        checked.clear()
        out = run(circuit)
        assert built == [id(out)]
        assert checked == out.ops
        circuit = out
    checked.clear()
    schedule_layers(circuit)
    assert checked == []


@pytest.mark.parametrize("n_qubits", [2.7, True, "3", 0, -1, None])
def test_from_dict_rejects_a_qubit_count_that_is_no_positive_int(n_qubits):
    # int() would load 2.7, True and "3" as 2, 1 and 3 qubits
    with pytest.raises(SchemaError, match="n_qubits"):
        Circuit.from_dict({"n_qubits": n_qubits, "ops": []})
