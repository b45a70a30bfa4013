"""Fidelity measures, readout reduction, and measurement-error folding.

Classical fidelity is the squared Bhattacharyya overlap of two probability
vectors over bitstrings, normalized so the maximally mixed output scores 0,
and clipped to [0, 1].  Readout reduction maps ququart populations onto bits
(l0 -> 0, l1 -> 1), mimicking state-selective readout of lost atoms.  The
average gate fidelity of a noisy native gate is exact, from its fused op.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gatemodel
from .channels import NoiseParams
from .circuit import cz, grot, rz
from .errors import DegenerateIdealError, ValidationError
from .state import BASIS, BASIS_INV, QUBIT_FOLD, QUBIT_SYMBOLS

_UNIFORM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probabilities of the 2^n bitstrings of n bits as one read-only float64
    vector (a copy); entry i is ``format(i, f"0{n}b")``, qubit 0 leftmost.
    Bitstrings appear only in ``from_entries`` and ``entries``."""

    probs: np.ndarray
    n_bits: int = field(init=False)

    def __post_init__(self):
        v = np.array(self.probs, dtype=np.float64)
        if v.ndim != 1 or v.size == 0 or v.size & (v.size - 1):
            raise ValidationError(f"need 2^n probabilities, got shape {v.shape}")
        if not np.isfinite(v).all() or v.min() < -1e-12:
            raise ValidationError(f"probabilities are not all finite and "
                                  f"non-negative, the least is {v.min()}")
        if abs(v.sum() - 1.0) > 1e-9:
            raise ValidationError(f"distribution sums to {v.sum()}, not 1")
        v.flags.writeable = False
        object.__setattr__(self, "probs", v)
        object.__setattr__(self, "n_bits", v.size.bit_length() - 1)

    @classmethod
    def from_entries(cls, entries: dict) -> "Distribution":
        """Read a {bitstring: probability} map; a bitstring left out is 0."""
        first = next(iter(entries), "")
        for key in entries:
            if (not isinstance(key, str) or not key or len(key) != len(first)
                    or set(key) - {"0", "1"}):
                raise ValidationError(f"bad bitstring key {key!r}")
        v = np.zeros(2**len(first))
        v[[int(key, 2) for key in entries]] = list(entries.values())
        return cls(v)

    @property
    def entries(self) -> dict:
        """The non-zero probabilities by bitstring, in index order."""
        return {format(i, f"0{self.n_bits}b"): float(self.probs[i])
                for i in np.flatnonzero(self.probs)}


def classical_fidelity(p_ideal: Distribution, p_out: Distribution
                       ) -> tuple[float, float, float]:
    """(f_s, f_n, f): raw overlap, uniform-normalized, and that clipped to
    [0, 1].  f_s and f_n are raw, so rounding may put them above 1."""
    if p_ideal.n_bits != p_out.n_bits:
        raise ValidationError(
            f"width mismatch: {p_ideal.n_bits} vs {p_out.n_bits} bits")
    vi, vo = p_ideal.probs, p_out.probs
    f_s = float(np.sum(np.sqrt(np.clip(vi, 0, None) * np.clip(vo, 0, None))) ** 2)
    # overlap of the ideal with the uniform distribution
    f_u = float(np.sum(np.sqrt(np.clip(vi, 0, None))) ** 2) / len(vi)
    if abs(1.0 - f_u) < _UNIFORM_TOL:
        raise DegenerateIdealError(f_s)
    f_n = (f_s - f_u) / (1.0 - f_u)
    return f_s, f_n, min(max(f_n, 0.0), 1.0)


# -- readout --------------------------------------------------------------

def reduce_readout_array(diag: np.ndarray) -> np.ndarray:
    """(4,)*n diagonal tensor -> flat 2^n bit-distribution vector: a site's
    population index (|0>, |1>, |l0>, |l1>) is 2 * lost + bit, so each site
    folds to its bit by adding its two lost halves."""
    t = diag
    for p in range(diag.ndim):
        # the p bits folded so far, this site's (lost, bit), the rest
        t = t.reshape(2**p, 2, 2, -1)
        t = t[:, 0] + t[:, 1]
    return t.reshape(-1)


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
    g = {"global_rotation": grot(0.0, theta), "local_rz": rz(0, theta),
         "cz": cz(0, 1)}.get(gate)
    if g is None:
        raise ValidationError(f"unknown gate {gate!r}")
    ideal = gatemodel.native_op(g, NoiseParams.noiseless()).matrix
    op = gatemodel.native_op(g, params)
    # the ops' real matrices back on the symbols: qubit symbols in through
    # BASIS, out through BASIS_INV
    comp, fold = BASIS[:, QUBIT_SYMBOLS], QUBIT_FOLD @ BASIS_INV
    if op.n_sites == 2:
        comp, fold = np.kron(comp, comp), np.kron(fold, fold)
    d = 2**op.n_sites
    f_e = np.vdot(fold @ ideal @ comp, fold @ op.matrix @ comp).real / d**2
    return float((d * f_e + 1.0) / (d + 1.0))
