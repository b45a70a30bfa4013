"""Distributions, classical/quantum fidelity, readout reduction."""

import math

import numpy as np
import pytest

from dense_ref import SITE_LABELS
from atombench.errors import DegenerateIdealError, ValidationError
from atombench.metrics import (
    Distribution,
    apply_measurement_error,
    apply_measurement_error_vector,
    average_gate_fidelity,
    classical_fidelity,
    haar_state,
    marginalize,
    permute_bits,
    quantum_fidelity,
    reduce_readout,
    reduce_readout_array,
)


def test_distribution_validation():
    Distribution({"00": 0.5, "11": 0.5}, 2)
    with pytest.raises(ValidationError):
        Distribution({"00": 0.5, "1": 0.5}, 2)      # wrong key width
    with pytest.raises(ValidationError):
        Distribution({"00": 0.6, "11": 0.6}, 2)     # not normalized
    with pytest.raises(ValidationError):
        Distribution({"02": 1.0}, 2)                # non-binary key


def test_distribution_vector_round_trip():
    d = Distribution({"01": 0.25, "10": 0.75}, 2)
    v = d.to_vector()
    assert np.allclose(v, [0.0, 0.25, 0.75, 0.0])
    assert Distribution.from_vector(v, 2).entries == d.entries


def test_classical_fidelity_hand_value():
    # Bhattacharyya overlap squared: perfectly matching -> 1; disjoint -> 0.
    ideal = Distribution({"00": 1.0}, 2)
    out = Distribution({"00": 0.81, "01": 0.19}, 2)
    f_s, f_n, f = classical_fidelity(ideal, out)
    assert f_s == pytest.approx(0.81)
    assert f_n == pytest.approx((0.81 - 0.25) / 0.75)
    assert f == pytest.approx(f_n)
    f_s, _, f = classical_fidelity(ideal, Distribution({"11": 1.0}, 2))
    assert f_s == 0.0 and f == 0.0  # clamped at zero


def test_classical_fidelity_uniform_normalization():
    # Against-uniform output scores 0 after normalization.
    ideal = Distribution({"00": 0.5, "11": 0.5}, 2)
    uni = Distribution({k: 0.25 for k in ("00", "01", "10", "11")}, 2)
    f_s, f_n, f = classical_fidelity(ideal, uni)
    assert f_s == pytest.approx(0.5)
    assert f_n == pytest.approx(0.0, abs=1e-12)
    assert f == 0.0


def test_classical_fidelity_degenerate_ideal():
    uni = Distribution({k: 0.25 for k in ("00", "01", "10", "11")}, 2)
    with pytest.raises(DegenerateIdealError):
        classical_fidelity(uni, Distribution({"00": 1.0}, 2))


def test_quantum_fidelity_pure_states():
    rng = np.random.default_rng(4)
    a = haar_state(4, rng)
    b = haar_state(4, rng)
    ra, rb = np.outer(a, a.conj()), np.outer(b, b.conj())
    assert quantum_fidelity(ra, ra) == pytest.approx(1.0)
    assert quantum_fidelity(ra, rb) == pytest.approx(abs(np.vdot(a, b)) ** 2)


def test_quantum_fidelity_mixed_vs_pure():
    rho = np.diag([0.7, 0.3]).astype(complex)
    pure = np.diag([1.0, 0.0]).astype(complex)
    assert quantum_fidelity(pure, rho) == pytest.approx(0.7)
    with pytest.raises(ValidationError):
        quantum_fidelity(pure, np.diag([0.7, 0.7]).astype(complex))  # trace != 1


def test_reduce_readout_folds_loss_states():
    q = {"0 1": 0.5, "l0 1": 0.3, "l1 l0": 0.2}
    d = reduce_readout(q)
    assert d.entries == pytest.approx({"01": 0.8, "10": 0.2})


def test_reduce_readout_array_matches_dict_path():
    rng = np.random.default_rng(8)
    diag = rng.random((4, 4))
    diag /= diag.sum()
    v = reduce_readout_array(diag)
    q = {}
    for idx in np.ndindex(4, 4):
        q[" ".join(SITE_LABELS[i] for i in idx)] = float(diag[idx])
    d = reduce_readout(q)
    assert np.allclose(v, d.to_vector())


def test_permute_and_marginalize():
    v = np.arange(8, dtype=float)
    v /= v.sum()
    # swap bits 0 and 2
    w = permute_bits(v, [2, 1, 0])
    t = v.reshape(2, 2, 2).transpose(2, 1, 0).reshape(-1)
    assert np.allclose(w, t)
    m = marginalize(v, 3, [0, 2])
    assert np.allclose(m, v.reshape(2, 2, 2).sum(axis=1).reshape(-1))
    m2 = marginalize(v, 3, [2, 0])
    assert np.allclose(m2, v.reshape(2, 2, 2).sum(axis=1).T.reshape(-1))


def test_measurement_error_single_bit():
    d = Distribution({"0": 1.0}, 1)
    out = apply_measurement_error(d, 0.1)
    assert out.entries == pytest.approx({"0": 0.9, "1": 0.1})


def test_measurement_error_vector_independent_bits():
    v = np.zeros(4)
    v[0] = 1.0
    out = apply_measurement_error_vector(v, 2, 0.1)
    assert np.allclose(out, [0.81, 0.09, 0.09, 0.01])


def test_haar_state_normalized():
    rng = np.random.default_rng(0)
    psi = haar_state(8, rng)
    assert np.linalg.norm(psi) == pytest.approx(1.0)


def test_average_gate_fidelity_noiseless_is_one():
    from atombench.channels import NoiseParams
    p = NoiseParams.noiseless()
    for gate in ("global_rotation", "local_rz", "cz"):
        mean, sem = average_gate_fidelity(gate, p, n_samples=20, seed=1)
        assert mean == pytest.approx(1.0, abs=1e-9)
        assert sem < 1e-9
