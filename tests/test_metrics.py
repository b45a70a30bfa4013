"""Distributions, classical/quantum fidelity, readout reduction, average
gate fidelity."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

import dense_ref
from atombench import gatemodel
from atombench.channels import KrausSet, NoiseParams, controlled_phase_matrix
from atombench.circuit import cz, grot, rz
from atombench.errors import DegenerateIdealError, ValidationError
from atombench.metrics import (
    Distribution,
    apply_measurement_error_vector,
    average_gate_fidelity,
    classical_fidelity,
    marginalize,
    reduce_readout_array,
)
from atombench.state import QuquartState, SymbolOp


def test_distribution_validation():
    Distribution.from_entries({"00": 0.5, "11": 0.5})
    with pytest.raises(ValidationError):
        Distribution.from_entries({"00": 0.5, "1": 0.5})      # wrong key width
    with pytest.raises(ValidationError):
        Distribution.from_entries({"00": 0.6, "11": 0.6})     # not normalized
    with pytest.raises(ValidationError):
        Distribution.from_entries({"02": 1.0})                # non-binary key


@pytest.mark.parametrize("p", [float("nan"), float("inf"), float("-inf")])
def test_distribution_rejects_non_finite_probabilities(p):
    # abs(nan - 1) > tol is false, so the sum check alone lets NaN through
    with pytest.raises(ValidationError, match="finite"):
        Distribution.from_entries({"0": p, "1": 1.0})
    with pytest.raises(ValidationError, match="finite"):
        Distribution(np.array([p, 1.0]))


def test_distribution_vector_round_trip():
    d = Distribution.from_entries({"01": 0.25, "10": 0.75})
    v = d.probs
    assert np.allclose(v, [0.0, 0.25, 0.75, 0.0])
    assert Distribution(v).entries == d.entries


@pytest.mark.parametrize("entries", [
    {"00": 0.5, "1": 0.5},              # mixed key widths
    {"0": 0.5, "11": 0.5},
    {"02": 1.0},                        # non-binary keys
    {"1 ": 1.0},
    {},                                 # empty mapping
    {"": 1.0},                          # empty key
    {0: 1.0},                           # a key that is no string
])
def test_from_entries_rejects_a_malformed_mapping(entries):
    with pytest.raises(ValidationError):
        Distribution.from_entries(entries)


@pytest.mark.parametrize("probs", [
    [],                                 # lengths that are no power of two
    [0.5, 0.25, 0.25],
    np.full(6, 1 / 6),
    [[0.5, 0.5]],                       # not one vector
    [-2e-12, 1.0 + 2e-12],              # an entry below -1e-12
    [0.5, 0.5 + 2e-9],                  # sums off 1 by more than 1e-9
    [0.5, 0.5 - 2e-9],
])
def test_distribution_rejects_a_malformed_vector(probs):
    with pytest.raises(ValidationError):
        Distribution(np.array(probs))


def test_distribution_accepts_rounding_within_its_tolerances():
    assert Distribution(np.array([-5e-13, 1.0 + 5e-13])).n_bits == 1
    assert Distribution(np.array([0.5, 0.5 + 5e-10])).n_bits == 1
    assert Distribution(np.array([1.0])).n_bits == 0


def test_distribution_holds_a_read_only_copy():
    v = np.array([0.0, 0.25, 0.75, 0.0])
    d = Distribution(v)
    v[0] = 1.0
    assert d.probs[0] == 0.0 and d.n_bits == 2
    with pytest.raises(ValueError, match="read-only"):
        d.probs[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.probs = v
    assert d.entries == {"01": 0.25, "10": 0.75}
    assert list(d.entries) == ["01", "10"]


def test_from_entries_round_trips_entries():
    rng = np.random.default_rng(3)
    for n in range(1, 7):
        v = rng.random(2**n) * (rng.random(2**n) < 0.5)
        v[rng.integers(2**n)] += 0.5
        d = Distribution(v / v.sum())
        back = Distribution.from_entries(d.entries)
        assert np.array_equal(back.probs, d.probs)
        assert back.entries == d.entries


def _dict_fidelity(v_ideal, v_out, floor):
    """The classical fidelity as computed when distributions were bitstring
    dicts: each vector pruned to a dict of the entries above the floor, the
    dicts turned back into vectors, then the overlap."""
    n = len(v_ideal).bit_length() - 1
    vectors = []
    for v in (v_ideal, v_out):
        entries = {format(i, f"0{n}b"): float(p)
                   for i, p in enumerate(v) if p > floor}
        back = np.zeros(2**n)
        for key, p in entries.items():
            back[int(key, 2)] = p
        vectors.append(back)
    vi, vo = vectors
    f_s = float(np.sum(np.sqrt(np.clip(vi, 0, None) * np.clip(vo, 0, None))) ** 2)
    f_u = float(np.sum(np.sqrt(np.clip(vi, 0, None))) ** 2) / len(vi)
    f_n = (f_s - f_u) / (1.0 - f_u)
    return f_s, f_n, max(f_n, 0.0)


@pytest.mark.parametrize("floor", [1e-12, 1e-15])
def test_classical_fidelity_equals_the_dict_formula(floor):
    rng = np.random.default_rng(11)
    for trial in range(200):
        n = int(rng.integers(1, 7))
        pair = []
        for _ in range(2):
            v = rng.random(2**n) ** 3
            v[rng.random(2**n) < 0.4] = 0.0
            # residue around the floor, on both sides and below zero
            v[rng.random(2**n) < 0.2] = rng.choice(
                [floor / 2, floor, 2 * floor, -floor / 4])
            v[rng.integers(2**n)] += 1.0
            pair.append(v / v.sum())
        want = _dict_fidelity(*pair, floor)
        got = classical_fidelity(
            *(Distribution(np.where(v <= floor, 0.0, v)) for v in pair))
        assert got == want, (trial, got, want)


def test_classical_fidelity_hand_value():
    # Bhattacharyya overlap squared: perfectly matching -> 1; disjoint -> 0.
    ideal = Distribution.from_entries({"00": 1.0})
    out = Distribution.from_entries({"00": 0.81, "01": 0.19})
    f_s, f_n, f = classical_fidelity(ideal, out)
    assert f_s == pytest.approx(0.81)
    assert f_n == pytest.approx((0.81 - 0.25) / 0.75)
    assert f == pytest.approx(f_n)
    f_s, _, f = classical_fidelity(ideal, Distribution.from_entries({"11": 1.0}))
    assert f_s == 0.0 and f == 0.0  # clamped at zero


def test_classical_fidelity_is_capped_at_one():
    # a noiseless run sums to 1 only up to rounding, and scored f above 1
    d = Distribution(np.array([0.6, 0.3, 0.1, 0.0]) * (1 + 5e-10))
    f_s, f_n, f = classical_fidelity(d, d)
    assert f_s > 1.0 and f_n > 1.0  # kept raw
    assert f == 1.0


def test_classical_fidelity_uniform_normalization():
    # Against-uniform output scores 0 after normalization.
    ideal = Distribution.from_entries({"00": 0.5, "11": 0.5})
    uni = Distribution(np.full(4, 0.25))
    f_s, f_n, f = classical_fidelity(ideal, uni)
    assert f_s == pytest.approx(0.5)
    assert f_n == pytest.approx(0.0, abs=1e-12)
    assert f == 0.0


def test_classical_fidelity_degenerate_ideal():
    uni = Distribution(np.full(4, 0.25))
    with pytest.raises(DegenerateIdealError):
        classical_fidelity(uni, Distribution.from_entries({"00": 1.0}))


def test_quantum_fidelity_pure_states():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    ra, rb = np.outer(a, a.conj()), np.outer(b, b.conj())
    assert dense_ref.quantum_fidelity(ra, ra) == pytest.approx(1.0)
    assert (dense_ref.quantum_fidelity(ra, rb)
            == pytest.approx(abs(np.vdot(a, b)) ** 2))


def test_quantum_fidelity_mixed_vs_pure():
    rho = np.diag([0.7, 0.3]).astype(complex)
    pure = np.diag([1.0, 0.0]).astype(complex)
    assert dense_ref.quantum_fidelity(pure, rho) == pytest.approx(0.7)
    with pytest.raises(ValidationError):
        # trace != 1
        dense_ref.quantum_fidelity(pure, np.diag([0.7, 0.7]).astype(complex))


def test_reduce_readout_folds_loss_states():
    # site order |0>, |1>, |l0>, |l1>: "0 1" 0.5, "l0 1" 0.3, "l1 l0" 0.2
    diag = np.zeros((4, 4))
    diag[0, 1], diag[2, 1], diag[3, 2] = 0.5, 0.3, 0.2
    assert np.allclose(reduce_readout_array(diag), [0.0, 0.8, 0.2, 0.0])


def test_reduce_readout_array_matches_per_index_fold():
    rng = np.random.default_rng(8)
    for n in range(1, 9):
        diag = rng.random((4,) * n)
        diag /= diag.sum()
        expect = np.zeros(2**n)
        for idx in np.ndindex(diag.shape):
            bits = "".join("0101"[i] for i in idx)  # l0 reads 0, l1 reads 1
            expect[int(bits, 2)] += diag[idx]
        assert np.allclose(reduce_readout_array(diag), expect), n


def test_permute_and_marginalize():
    v = np.arange(8, dtype=float)
    v /= v.sum()
    # swap bits 0 and 2
    w = marginalize(v, 3, [2, 1, 0])
    t = v.reshape(2, 2, 2).transpose(2, 1, 0).reshape(-1)
    assert np.allclose(w, t)
    m = marginalize(v, 3, [0, 2])
    assert np.allclose(m, v.reshape(2, 2, 2).sum(axis=1).reshape(-1))
    m2 = marginalize(v, 3, [2, 0])
    assert np.allclose(m2, v.reshape(2, 2, 2).sum(axis=1).T.reshape(-1))


def test_measurement_error_single_bit():
    out = apply_measurement_error_vector(np.array([1.0, 0.0]), 1, 0.1)
    assert np.allclose(out, [0.9, 0.1])


def test_measurement_error_vector_independent_bits():
    v = np.zeros(4)
    v[0] = 1.0
    out = apply_measurement_error_vector(v, 2, 0.1)
    assert np.allclose(out, [0.81, 0.09, 0.09, 0.01])


@pytest.mark.parametrize("mode", ["conditional", "correlated", "per_site"])
def test_noiseless_native_op_is_the_ideal_unitary(mode):
    # average_gate_fidelity takes its ideal from the noiseless fused op; it
    # must equal the op of the bare unitary bit for bit
    params = NoiseParams.noiseless().replace(cz_phaseflip_mode=mode)
    cases = [(cz(0, 1), controlled_phase_matrix(-1.0))]
    for t in (math.pi, 0.4):
        cases += [(grot(0.0, t), gatemodel.global_rotation_matrix(0.0, t)),
                  (rz(0, t), gatemodel.rz_matrix(t))]
    for g, u in cases:
        got = gatemodel.native_op(g, params).matrix
        want = SymbolOp.from_kraus(KrausSet((u,))).matrix
        assert np.array_equal(got, want), g


def test_average_gate_fidelity_noiseless_is_one():
    p = NoiseParams.noiseless()
    for gate in ("global_rotation", "local_rz", "cz"):
        assert average_gate_fidelity(gate, p) == pytest.approx(1.0, abs=1e-12)


def _paulis():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]])
    z = np.diag([1.0, -1.0]).astype(complex)
    return {"I": np.eye(2), "X": x, "Y": y, "Z": z}


def _two_design(n_qubits: int) -> list:
    """Pauli eigenstates (one qubit) or the 20 states of the five mutually
    unbiased bases (two qubits): complex projective 2-designs."""
    p = _paulis()
    if n_qubits == 1:
        return [v for k in "XYZ" for v in np.linalg.eigh(p[k])[1].T]
    states = []
    # each set commutes; the first two generate it, and a + 2b has four
    # distinct eigenvalues, so its eigenvectors are the common eigenbasis
    for a, b in (("ZI", "IZ"), ("XI", "IX"), ("YI", "IY"),
                 ("XY", "YZ"), ("YX", "ZY")):
        pa = np.kron(p[a[0]], p[a[1]])
        pb = np.kron(p[b[0]], p[b[1]])
        states += list(np.linalg.eigh(pa + 2 * pb)[1].T)
    return states


def test_two_design_is_a_two_design():
    # frame potential sum |<a|b>|^4 / N^2 = 2 / (d (d + 1)) only for 2-designs
    for n in (1, 2):
        d, states = 2**n, _two_design(n)
        overlaps = np.abs(np.array(states).conj() @ np.array(states).T) ** 4
        assert overlaps.sum() / len(states) ** 2 == pytest.approx(
            2 / (d * (d + 1)), abs=1e-12)


_NP = NoiseParams()


@pytest.mark.parametrize("gate,theta,params", [
    *[pytest.param(g, t, _NP, id=f"{g}-theta{t:.3g}")
      for g in ("global_rotation", "local_rz") for t in (math.pi, 0.4)],
    *[pytest.param("cz", math.pi, _NP.replace(cz_phaseflip_mode=mode,
                                              cz_phaseshift=shift),
                   id=f"cz-{mode}-shift{shift}")
      for mode, shift in itertools.product(
          ("conditional", "correlated", "per_site"), (0.0, 0.3))],
])
def test_average_gate_fidelity_matches_two_design_mean(gate, theta, params):
    # the mean over a 2-design equals the Haar average; the design side runs
    # each input through the state engine and the global rotation at a
    # nonzero phi
    phi = 0.7
    n = 2 if gate == "cz" else 1
    if gate == "global_rotation":
        u = gatemodel.global_rotation_matrix(phi, theta)[:2, :2]
        apply = lambda st: gatemodel.apply_gate(st, grot(phi, theta), params)
    elif gate == "local_rz":
        u = gatemodel.rz_matrix(theta)[:2, :2]
        apply = lambda st: gatemodel.apply_gate(st, rz(0, theta), params)
    else:
        u = np.diag([1.0, 1.0, 1.0, -1.0])
        apply = lambda st: gatemodel.apply_gate(st, cz(0, 1), params)
    fids = []
    for psi in _two_design(n):
        st = apply(dense_ref.set_pure(QuquartState(n), psi))
        ideal = u @ psi
        fids.append(np.real(ideal.conj() @ dense_ref.reduced_qubit_density(st) @ ideal))
    exact = average_gate_fidelity(gate, params, theta=theta)
    assert abs(exact - np.mean(fids)) < 1e-12, (exact, np.mean(fids))
