"""Fidelity measures, readout reduction, and measurement-error folding.

Classical fidelity is the squared Bhattacharyya overlap of bitstring
distributions, normalized so the maximally mixed output scores 0 and floored
at 0.  Quantum fidelity is the Uhlmann form (Tr sqrt(sqrt(rho) sigma
sqrt(rho)))^2 computed by Hermitian eigendecomposition.  Readout reduction
maps ququart populations onto bitstrings (l0 -> 0, l1 -> 1), mimicking
state-selective readout of lost atoms.  The average gate fidelity of a noisy
native gate is computed exactly from its fused operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gatemodel
from .channels import KrausSet, controlled_phase_matrix
from .circuit import cz, grot, rz
from .errors import DegenerateIdealError, ValidationError
from .state import DIAG_SYMBOLS, N_SYMBOLS, QUBIT_FOLD, SymbolOp

_UNIFORM_TOL = 1e-12


@dataclass
class Distribution:
    """Normalized map from n-bit strings (qubit 0 leftmost) to probabilities."""

    entries: dict
    n_bits: int

    def __post_init__(self):
        total = 0.0
        for key, p in self.entries.items():
            if len(key) != self.n_bits or set(key) - {"0", "1"}:
                raise ValidationError(f"bad bitstring key {key!r} for n_bits={self.n_bits}")
            if p < -1e-12:
                raise ValidationError(f"negative probability {p} at {key!r}")
            total += p
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"distribution sums to {total}, not 1")

    def __getitem__(self, key: str) -> float:
        return self.entries.get(key, 0.0)

    def to_vector(self) -> np.ndarray:
        v = np.zeros(2**self.n_bits)
        for key, p in self.entries.items():
            v[int(key, 2)] = p
        return v

    @classmethod
    def from_vector(cls, v: np.ndarray, n_bits: int, prune: float = 0.0
                    ) -> "Distribution":
        v = np.asarray(v, dtype=float)
        if v.shape != (2**n_bits,):
            raise ValidationError(f"vector length {v.shape} != 2^{n_bits}")
        entries = {
            format(i, f"0{n_bits}b"): float(p)
            for i, p in enumerate(v)
            if p > prune
        }
        return cls(entries, n_bits)


def classical_fidelity(p_ideal: Distribution, p_out: Distribution
                       ) -> tuple[float, float, float]:
    """(f_s, f_n, f): raw overlap, uniform-normalized, and floored fidelity."""
    if p_ideal.n_bits != p_out.n_bits:
        raise ValidationError(
            f"width mismatch: {p_ideal.n_bits} vs {p_out.n_bits} bits"
        )
    vi = p_ideal.to_vector()
    vo = p_out.to_vector()
    f_s = float(np.sum(np.sqrt(np.clip(vi, 0, None) * np.clip(vo, 0, None))) ** 2)
    # overlap of the ideal with the uniform distribution
    f_u = float(np.sum(np.sqrt(np.clip(vi, 0, None))) ** 2) / len(vi)
    if abs(1.0 - f_u) < _UNIFORM_TOL:
        raise DegenerateIdealError(f_s)
    f_n = (f_s - f_u) / (1.0 - f_u)
    return f_s, f_n, max(f_n, 0.0)


def _psd_sqrt(m: np.ndarray, floor: float = -1e-8) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    if vals.min() < floor:
        raise ValidationError(f"matrix not PSD (min eigenvalue {vals.min()})")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def quantum_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity of two density matrices."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    for name, m in (("rho", rho), ("sigma", sigma)):
        if abs(np.trace(m) - 1.0) > 1e-8:
            raise ValidationError(f"{name} has trace {np.trace(m)}")
        if np.max(np.abs(m - m.conj().T)) > 1e-8:
            raise ValidationError(f"{name} is not Hermitian")
    sq = _psd_sqrt(rho)
    inner = _psd_sqrt(sq @ sigma @ sq)
    f = float(np.real(np.trace(inner)) ** 2)
    return min(max(f, 0.0), 1.0)


# -- readout --------------------------------------------------------------

# ququart diagonal order |0>, |1>, |l0>, |l1> maps onto bits 0, 1, 0, 1:
# the qubit-diagonal rows of QUBIT_FOLD on the diagonal symbols
_REDUCE = QUBIT_FOLD[[0, 3]][:, DIAG_SYMBOLS]


def reduce_readout_array(diag: np.ndarray) -> np.ndarray:
    """(4,)*n diagonal tensor -> flat 2^n bit-distribution vector."""
    n = diag.ndim
    t = diag
    for _ in range(n):
        # fold leading ququart axis to a bit axis, appended last
        t = np.tensordot(t, _REDUCE, axes=([0], [1]))
    return t.reshape(-1)


def permute_bits(v: np.ndarray, l2p: list) -> np.ndarray:
    """Reorder a 2^n distribution so bit i reads physical position l2p[i]."""
    n = len(l2p)
    t = v.reshape((2,) * n)
    return t.transpose(l2p).reshape(-1)


def marginalize(v: np.ndarray, n_bits: int, keep: list) -> np.ndarray:
    """Marginal distribution over the kept bit positions, in the given order."""
    t = v.reshape((2,) * n_bits)
    drop = tuple(i for i in range(n_bits) if i not in keep)
    if drop:
        t = t.sum(axis=drop)
    remaining = [i for i in range(n_bits) if i not in drop]
    order = [remaining.index(k) for k in keep]
    return t.transpose(order).reshape(-1)


def apply_measurement_error_vector(v: np.ndarray, n_bits: int, p: float
                                   ) -> np.ndarray:
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"measurement error {p} outside [0, 1]")
    for bit in range(n_bits):
        t = v.reshape((2**bit, 2, -1))
        v = ((1 - p) * t + p * t[:, ::-1, :]).reshape(-1)
    return v


# -- average gate fidelity --------------------------------------------------


def average_gate_fidelity(gate: str, params, theta: float = math.pi) -> float:
    """Exact Haar-average fidelity of a noisy native gate on the qubit space.

    gate is "global_rotation", "local_rz" or "cz".  The noisy map is the
    gate's fused SymbolOp followed by the readout reduction (l0 -> 0,
    l1 -> 1), without SPAM.  With S and S_U the matrices of the noisy and the
    ideal gate on the stored symbols, reduced to qubit symbols, the
    entanglement fidelity is F_e = Re<S_U, S> / d^2 and the Haar average is
    (d F_e + 1) / (d + 1) (Horodecki et al., PRA 60, 1888 (1999); Nielsen,
    Phys. Lett. A 303, 249 (2002)).

    The global rotation is evaluated at phi = 0: its noise follows its
    unitary U, and the Haar measure is unitarily invariant, so
    F_avg(N o U, U) = F_avg(N, id) for every phi.
    """
    if gate == "global_rotation":
        g, u = grot(0.0, theta), gatemodel.global_rotation_matrix(0.0, theta)
    elif gate == "local_rz":
        g, u = rz(0, theta), gatemodel.rz_matrix(theta)
    elif gate == "cz":
        g, u = cz(0, 1), controlled_phase_matrix(-1.0)
    else:
        raise ValidationError(f"unknown gate {gate!r}")
    op = gatemodel.native_op(g, params)
    comp, fold = np.arange(4), QUBIT_FOLD
    if op.n_sites == 2:
        comp = (N_SYMBOLS * comp[:, None] + comp).ravel()
        fold = np.kron(fold, fold)
    ideal = SymbolOp.from_kraus(KrausSet((u,))).matrix
    d = 2**op.n_sites
    f_e = np.vdot(fold @ ideal[:, comp], fold @ op.matrix[:, comp]).real / d**2
    return float((d * f_e + 1.0) / (d + 1.0))
