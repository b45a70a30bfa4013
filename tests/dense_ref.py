"""Dense 4^n density-matrix reference engine, used only by the tests.

The production simulator stores 6^n real coordinates per state; this module
applies the same gates and Kraus channels to the full complex (4,)*2n
density tensor with no sparsity assumptions, so any bookkeeping error in the
sparse engine shows up as an elementwise mismatch.  `symbols` maps a state's
coordinates back to its complex symbols, one site axis at a time.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from atombench import channels as ch
from atombench.bench import _ghz_ops, statevector
from atombench.channels import NoiseParams, controlled_phase_matrix
from atombench.circuit import Circuit, Gate, gate_duration, schedule_layers
from atombench.errors import CapacityError, ValidationError
from atombench.gatemodel import global_rotation_matrix, rz_matrix
from atombench.routing import Topology, transpile
from atombench.runner import execute_native as run_native
from atombench.state import (BASIS, BASIS_INV, N_SYMBOLS, QUBIT_FOLD,
                             SYMBOL_PAIRS, QuquartState)

D = 4
SITE_LABELS = ("0", "1", "l0", "l1")


# -- views and loading of a sparse QuquartState ---------------------------------


def symbols(blocks: np.ndarray, basis: np.ndarray = BASIS_INV) -> np.ndarray:
    """The complex symbols of a (6,)*n coordinate tensor (with basis=BASIS,
    the coordinates of a symbol tensor), one site axis at a time."""
    t = blocks
    for _ in range(blocks.ndim):
        # contract the leading axis, appending the new one last
        t = np.tensordot(t, basis, axes=([0], [1]))
    return t


def to_dense(state, max_sites: int = 6) -> np.ndarray:
    """Full 4^n x 4^n density matrix of a sparse QuquartState (small n)."""
    n = state.n_sites
    if n > max_sites:
        raise CapacityError(f"dense reconstruction capped at {max_sites} sites")
    # per-site embedding of the 6 symbols into the 16 (row, col) pairs
    e = np.zeros((D * D, N_SYMBOLS))
    for s, (r, c) in enumerate(SYMBOL_PAIRS):
        e[D * r + c, s] = 1.0
    t = symbols(state.blocks)
    for _ in range(n):
        # contract the leading symbol axis, appending the pair axis last,
        # so after n steps axes are (pair_1, ..., pair_n)
        t = np.tensordot(t, e, axes=([0], [1]))
    t = t.reshape((D, D) * n)
    order = [2 * i for i in range(n)] + [2 * i + 1 for i in range(n)]
    return t.transpose(order).reshape(D**n, D**n)


def join(parts) -> QuquartState:
    """One QuquartState holding the Kronecker product of the parts' blocks,
    each (sites, state) of ``runner.execute_native``, in site order."""
    t, order = np.ones(()), []
    for sites, state in parts:
        t = np.multiply.outer(t, state.blocks)
        order += sites
    joined = QuquartState(len(order))
    joined.blocks = t.transpose(np.argsort(order))
    return joined


def set_product(state, vectors) -> QuquartState:
    """state <- the product of one 6-vector of coordinates per site, site 0
    first, written through ``blocks`` (``QuquartState.set_site`` sets one
    site)."""
    state.blocks = functools.reduce(np.multiply.outer, vectors)
    return state


def dense_element(state, row, col) -> complex:
    """Element of the full 4^n x 4^n matrix; exact 0 outside the pattern."""
    sym = []
    for r, c in zip(row, col):
        if (r, c) not in SYMBOL_PAIRS:
            return 0j
        sym.append(SYMBOL_PAIRS.index((r, c)))
    return complex(symbols(state.blocks)[tuple(sym)])


def ququart_distribution(state) -> dict[str, float]:
    """Exact readout populations keyed by space-separated site labels."""
    d = state.diagonal()
    out = {}
    for idx in np.ndindex(d.shape):
        p = float(d[idx])
        if p != 0.0:
            out[" ".join(SITE_LABELS[i] for i in idx)] = p
    return out


def reduced_qubit_density(state, max_sites: int = 6) -> np.ndarray:
    """2^n x 2^n qubit density matrix after the readout reduction.

    Loss populations fold onto the computational diagonal (l0 -> 0,
    l1 -> 1); computational coherences are kept, loss-state coherence
    does not exist in the block pattern.
    """
    n = state.n_sites
    if n > max_sites:
        raise CapacityError(f"qubit reduction capped at {max_sites} sites")
    t = symbols(state.blocks)
    for _ in range(n):
        t = np.tensordot(t, QUBIT_FOLD, axes=([0], [1]))
    t = t.reshape((2, 2) * n)
    order = [2 * i for i in range(n)] + [2 * i + 1 for i in range(n)]
    return t.transpose(order).reshape(2**n, 2**n)


def set_pure(state, psi: np.ndarray):
    """Load a pure computational state (2^n amplitudes) into a QuquartState."""
    psi = np.asarray(psi, dtype=complex)
    n = state.n_sites
    if psi.shape != (2**n,):
        raise ValidationError(f"need 2^{n} amplitudes, got shape {psi.shape}")
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-12:
        raise ValidationError(f"state not normalized (|psi| = {nrm})")
    outer = np.outer(psi, psi.conj()).reshape((2, 2) * n)
    # interleave to (r1, c1, r2, c2, ...) then merge each (2, 2) pair into
    # one axis of the pairs 00, 01, 10, 11
    order = []
    for i in range(n):
        order += [i, n + i]
    # the symbol of each qubit (row, col) pair 00, 01, 10, 11
    qubit = [SYMBOL_PAIRS.index(divmod(i, 2)) for i in range(4)]
    comp = np.zeros((N_SYMBOLS,) * n, dtype=complex)
    comp[np.ix_(*[qubit] * n)] = outer.transpose(order).reshape((4,) * n)
    # a hermitian rho has real coordinates
    state.blocks = symbols(comp, BASIS).real.copy()
    state._check_invariants()
    return state


def decoherence(t: float, params: NoiseParams) -> tuple:
    """Idle T1/T2* decoherence over a time t, as a two-stage Kraus channel.

    Stage one is the three-operator population channel {A, B, C}; stage two is
    a phase flip whose probability is chosen so the composition reproduces the
    direct matrix action (d1 scaling plus equilibrium refill on the diagonal,
    d2 scaling on the off-diagonal) on the computational block, which is the
    op ``gatemodel`` applies.
    """
    d1, d2 = ch.idle_decay(t, params)
    p0 = params.p0_equilibrium
    p1 = 1.0 - p0
    g0 = p0 * (1 - d1) + d1
    g1 = p1 * (1 - d1) + d1
    a = np.diag([math.sqrt(g0), math.sqrt(g1), 1.0, 1.0]).astype(complex)
    b = np.zeros((4, 4), dtype=complex)
    b[0, 1] = math.sqrt(p0 * (1 - d1))
    c = np.zeros((4, 4), dtype=complex)
    c[1, 0] = math.sqrt(p1 * (1 - d1))
    phi = min(max(0.5 - d2 / (2.0 * math.sqrt(g0 * g1)), 0.0), 0.5)
    return (ch.KrausSet((a, b, c), label="decoherence_population"),
            ch.phase_flip(phi))


def decoherence_direct_action(rho: np.ndarray, t: float,
                              params: NoiseParams) -> np.ndarray:
    """Direct 2x2-computational-block form of the decoherence channel.

    Cross-checks the composed Kraus form of `decoherence`; acts on
    a single-site 4x4 density matrix, leaving loss populations alone.
    """
    p0 = params.p0_equilibrium
    p1 = 1.0 - p0
    d1 = math.exp(-t / params.t1)
    d2 = math.exp(-t / params.t2_star)
    out = rho.astype(complex).copy()
    pt = rho[0, 0] + rho[1, 1]
    out[0, 0] = d1 * rho[0, 0] + (1 - d1) * p0 * pt
    out[1, 1] = d1 * rho[1, 1] + (1 - d1) * p1 * pt
    out[0, 1] = d2 * rho[0, 1]
    out[1, 0] = d2 * rho[1, 0]
    return out


# -- per-axis references for the state's invariant check and kernels ------------

_HERM_PERM = np.array([0, 1, 2, 3, 5, 4])
_TRACE_VEC = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])


def trace(blocks: np.ndarray) -> float:
    """Trace of a symbol tensor, contracting one site axis at a time."""
    t = blocks
    for _ in range(blocks.ndim):
        t = np.tensordot(_TRACE_VEC, t, axes=([0], [0]))
    return float(t.real)


def hermiticity_defect(blocks: np.ndarray) -> float:
    """max |rho^dagger - rho|, permuting rho_01 <-> rho_10 one axis at a time."""
    h = blocks
    for ax in range(blocks.ndim):
        h = np.take(h, _HERM_PERM, axis=ax)
    return float(np.max(np.abs(h.conj() - blocks)))


def apply_symbol_matrix(blocks: np.ndarray, matrix: np.ndarray,
                        sites) -> np.ndarray:
    """A 6x6 or 36x36 symbol-space matrix applied on `sites` by tensordot."""
    k = len(sites)
    m = matrix.reshape((N_SYMBOLS,) * (2 * k))
    out = np.tensordot(m, blocks, axes=(list(range(k, 2 * k)), list(sites)))
    return np.moveaxis(out, list(range(k)), list(sites))


# -- dense engine -----------------------------------------------------------------


def initial_rho(n: int) -> np.ndarray:
    rho = np.zeros((D,) * (2 * n), dtype=complex)
    rho[(0,) * (2 * n)] = 1.0
    return rho


def to_matrix(rho: np.ndarray) -> np.ndarray:
    n = rho.ndim // 2
    return rho.reshape(D**n, D**n)


def apply_ops(rho: np.ndarray, ops, sites) -> np.ndarray:
    """rho -> sum_i A_i rho A_i^dag on the given sites, densely."""
    n = rho.ndim // 2
    sites = list(sites)
    k = len(sites)
    col_axes = [n + s for s in sites]
    out = np.zeros_like(rho)
    for a in ops:
        a = np.asarray(a, dtype=complex)
        at = a.reshape((D,) * (2 * k))
        t = np.tensordot(at, rho, axes=(list(range(k, 2 * k)), sites))
        t = np.moveaxis(t, list(range(k)), sites)
        ac = a.conj().reshape((D,) * (2 * k))
        t = np.tensordot(t, ac, axes=(col_axes, list(range(k, 2 * k))))
        t = np.moveaxis(t, list(range(2 * n - k, 2 * n)), col_axes)
        out += t
    return out


def apply_channel(rho: np.ndarray, kraus: ch.KrausSet, sites) -> np.ndarray:
    return apply_ops(rho, kraus.operators, sites)


def apply_decoherence(rho: np.ndarray, t: float, params: NoiseParams,
                      sites=None) -> np.ndarray:
    if t <= 0.0:
        return rho
    n = rho.ndim // 2
    pop, deph = decoherence(t, params)
    for s in range(n) if sites is None else sites:
        rho = apply_channel(rho, pop, (s,))
        rho = apply_channel(rho, deph, (s,))
    return rho


def apply_grot(rho: np.ndarray, phi: float, theta: float,
               params: NoiseParams, decohere: bool = True) -> np.ndarray:
    n = rho.ndim // 2
    u = global_rotation_matrix(phi, theta)
    for s in range(n):
        rho = apply_ops(rho, (u,), (s,))
    p = ch.scaled_probability(params.uw_depol_per_pi, theta)
    if p > 0.0:
        depol = ch.depolarization(p)
        for s in range(n):
            rho = apply_channel(rho, depol, (s,))
    if decohere:
        rho = apply_decoherence(rho, params.dur_uw_pi * abs(theta) / math.pi,
                                params)
    return rho


def apply_rz(rho: np.ndarray, site: int, theta: float,
             params: NoiseParams, decohere: bool = True) -> np.ndarray:
    rho = apply_ops(rho, (rz_matrix(theta),), (site,))
    scale = lambda r: ch.scaled_probability(r, theta)
    for kraus in (
        ch.phase_flip(scale(params.rz_phaseflip_per_pi)),
        ch.decay(scale(params.rz_decay_per_pi)),
        ch.loss_channel(scale(params.rz_loss_dark_per_pi), "dark"),
        ch.loss_channel(scale(params.rz_loss_bright_per_pi), "bright"),
    ):
        rho = apply_channel(rho, kraus, (site,))
    if decohere:
        rho = apply_decoherence(rho, params.dur_rz_pi * abs(theta) / math.pi,
                                params, sites=(site,))
    return rho


def apply_cz(rho: np.ndarray, a: int, b: int, params: NoiseParams,
             decohere: bool = True) -> np.ndarray:
    sites = (a, b)
    rho = apply_ops(rho, (controlled_phase_matrix(-1.0),), sites)
    for target, p in (("dark", params.cz_loss_dark),
                      ("bright", params.cz_loss_bright)):
        kraus = ch.loss_channel(p, target)
        for s in sites:
            rho = apply_channel(rho, kraus, (s,))
    dec = ch.decay(params.cz_decay)
    for s in sites:
        rho = apply_channel(rho, dec, (s,))
    if params.cz_phaseflip_mode == "conditional":
        rho = apply_channel(rho, ch.conditional_phase_flip(params.cz_phaseflip),
                            sites)
    elif params.cz_phaseflip_mode == "correlated":
        rho = apply_channel(rho, ch.correlated_phase_flip(params.cz_phaseflip),
                            sites)
    else:
        pf = ch.phase_flip(params.cz_phaseflip)
        for s in sites:
            rho = apply_channel(rho, pf, (s,))
    if params.cz_phaseshift != 0.0:
        shift = controlled_phase_matrix(np.exp(1j * params.cz_phaseshift))
        rho = apply_ops(rho, (shift,), sites)
    if decohere:
        rho = apply_decoherence(rho, params.dur_cz, params, sites=sites)
    return rho


def apply_preparation(rho: np.ndarray, params: NoiseParams) -> np.ndarray:
    n = rho.ndim // 2
    if params.prep_error > 0.0:
        bf = ch.bit_flip(params.prep_error)
        for s in range(n):
            rho = apply_channel(rho, bf, (s,))
    return rho


def _apply_native(rho: np.ndarray, g, params: NoiseParams,
                  decohere: bool) -> np.ndarray:
    if g.name == "grot":
        return apply_grot(rho, g.params[0], g.params[1], params, decohere)
    if g.name == "rz":
        return apply_rz(rho, g.sites[0], g.params[0], params, decohere)
    if g.name == "cz":
        return apply_cz(rho, g.sites[0], g.sites[1], params, decohere)
    raise ValueError(f"non-native gate {g.name}")


def execute_native(circuit, params: NoiseParams, prepare: bool = True,
                   timing_model: str = "gate") -> np.ndarray:
    """Dense replay of a native circuit under either timing model.

    "gate" replays ops in program order, each with its own decoherence:
    within a scheduled layer all gates act on disjoint sites, so this equals
    the production runner's layered execution.  "layer" applies each
    scheduled layer's gates without decoherence and then decoheres every
    site over the layer's duration.
    """
    rho = initial_rho(circuit.n_qubits)
    if prepare:
        rho = apply_preparation(rho, params)
    if timing_model == "gate":
        for g in circuit.ops:
            rho = _apply_native(rho, g, params, decohere=True)
        return rho
    for layer in schedule_layers(circuit)[0]:
        for g in layer:
            rho = _apply_native(rho, g, params, decohere=False)
        rho = apply_decoherence(
            rho, max(gate_duration(g, params) for g in layer), params)
    return rho


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Unitary of a circuit via the statevector oracle, column by column:
    column k is the circuit run after x gates prepare basis state k."""
    n = circuit.n_qubits
    u = np.zeros((2**n, 2**n), dtype=complex)
    for col in range(2**n):
        # qubit 0 is the leading bit of the column index
        prepare = [Gate("x", (q,)) for q in range(n) if col >> (n - 1 - q) & 1]
        u[:, col] = statevector(Circuit(n, prepare + circuit.ops)).reshape(-1)
    return u


def bell_state_fidelity(params: NoiseParams) -> float:
    """Quantum fidelity of a Bell state prepared by the production runner.

    Preparation: Ry(pi/2) pulse on the first qubit, native CX onto the
    second, with SPAM preparation errors and per-gate decoherence; scored on
    the readout-reduced two-qubit density matrix.
    """
    c = Circuit(2, metadata={"measured_qubits": [0, 1]})
    for op in _ghz_ops(2):
        c.add(op)
    parts, _ = run_native(transpile(c, Topology.all_to_all(2))[0], params)
    rho = reduced_qubit_density(join(parts))
    ideal = np.zeros(4, dtype=complex)
    ideal[0] = ideal[3] = 1.0 / np.sqrt(2.0)
    return quantum_fidelity(np.outer(ideal, ideal.conj()), rho)


def _psd_sqrt(m: np.ndarray, floor: float = -1e-8) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    if vals.min() < floor:
        raise ValidationError(f"matrix not PSD (min eigenvalue {vals.min()})")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def quantum_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 of two density
    matrices, by Hermitian eigendecomposition."""
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
