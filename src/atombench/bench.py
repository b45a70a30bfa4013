"""Benchmark-circuit generators with statevector-computed ideal outputs.

Each generator builds an abstract circuit (``Circuit`` of qubit-level gates)
and its ideal noiseless output distribution over the measured qubits.  Ideal
distributions are always computed by the statevector oracle in this module,
never substituted from closed forms, so the generators double as a check on
the gate definitions.

Each kind is one row of ``_KIND_TABLE``: generator, widths, instance space
and default sample count.  ``KINDS`` is its key order (a kind's index seeds
its instance draws) and ``WIDTH_BOUNDS`` a view of its widths.

Bit-order convention: qubit 0 is the leftmost character of a bitstring (most
significant).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .circuit import Circuit, Gate, cz, grot, rz
from .errors import CapacityError, SchemaError, ValidationError
from .metrics import Distribution, marginalize
from .state import footprint

HALF_PI = math.pi / 2.0
_IDEAL_FLOOR = 1e-12     # ideal probabilities at or below it are stored as 0

# Trotterization constants for the Heisenberg-chain benchmark
HAMSIM_STEPS = 1
HAMSIM_DT = 0.25
HAMSIM_J = 1.0
HAMSIM_H_SCALE = 1.0


@dataclass(frozen=True)
class BenchmarkSpec:
    kind: str
    width: int
    instance_param: object = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown benchmark kind {self.kind!r}")
        if (type(self.width) is not int
                or not width_allowed(self.kind, self.width)):
            lo, hi = WIDTH_BOUNDS[self.kind]
            even = " and even" if _KIND_TABLE[self.kind].even else ""
            raise ValidationError(f"{self.kind} width must be an int in "
                                  f"[{lo}, {hi}]{even}, got {self.width!r}")
        if isinstance(self.instance_param, bool):  # no kind reads one
            raise ValidationError(f"{self.kind} instance parameter is a bool")


def width_allowed(kind: str, width: int) -> bool:
    """Whether a known kind has instances of this width: inside its
    WIDTH_BOUNDS, and even if its row says so."""
    lo, hi = WIDTH_BOUNDS[kind]
    return lo <= width <= hi and not (_KIND_TABLE[kind].even and width % 2)


# -- statevector oracle ----------------------------------------------------

_H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
_X = np.array([[0.0, 1], [1, 0]])
_Y = np.array([[0.0, -1j], [1j, 0]])
_Z = np.diag([1.0, -1.0])


def _rx(t):
    return math.cos(t / 2) * np.eye(2) - 1j * math.sin(t / 2) * _X


def _ry(t):
    return math.cos(t / 2) * np.eye(2) - 1j * math.sin(t / 2) * _Y


def _rz(t):
    return np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)])


def _rphi(phi, t):
    # rotation by t about the equatorial axis at azimuth phi
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([
        [c, -1j * s * np.exp(-1j * phi)],
        [-1j * s * np.exp(1j * phi), c],
    ])


# unitary of each gate from its parameters; a grot's acts on every qubit
_UNITARIES = {
    "h": lambda: _H, "x": lambda: _X, "y": lambda: _Y, "z": lambda: _Z,
    "rx": _rx, "ry": _ry, "rz": _rz, "rphi": _rphi, "grot": _rphi,
    "cx": lambda: np.eye(4)[[0, 1, 3, 2]],
    "cz": lambda: np.diag([1.0, 1, 1, -1]),
    "swap": lambda: np.eye(4)[[0, 2, 1, 3]],
    "cp": lambda t: np.diag([1.0, 1, 1, np.exp(1j * t)]),
    "ccx": lambda: np.eye(8)[[0, 1, 2, 3, 4, 5, 7, 6]],
}


def gate_unitary(g: Gate) -> np.ndarray:
    """2^k x 2^k unitary of a gate on its k qubits (one qubit for grot)."""
    return _UNITARIES[g.name](*g.params)


def _apply(psi: np.ndarray, u: np.ndarray, sites: tuple) -> np.ndarray:
    k = len(sites)
    psi = np.tensordot(u.reshape((2,) * (2 * k)), psi,
                       axes=(list(range(k, 2 * k)), list(sites)))
    return np.moveaxis(psi, list(range(k)), list(sites))


def statevector(circuit: Circuit) -> np.ndarray:
    """Noiseless final state of an abstract or native circuit, shape (2,)*n."""
    n = circuit.n_qubits
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for g in circuit.ops:
        u = gate_unitary(g)
        for sites in ([(q,) for q in range(n)] if g.name == "grot"
                      else [g.sites]):
            psi = _apply(psi, u, sites)
    return psi


def ideal_distribution(circuit: Circuit) -> Distribution:
    """Measured-qubit marginal of |psi|^2 for the noiseless circuit."""
    probs = np.abs(statevector(circuit)) ** 2
    keep = circuit.measured_qubits
    probs = marginalize(probs.reshape(-1), circuit.n_qubits, keep)
    return Distribution(np.where(probs <= _IDEAL_FLOOR, 0.0, probs))


# -- circuit-construction helpers ------------------------------------------


def _mcp_ops(theta: float, qubits: tuple) -> list:
    """Multi-controlled phase on the last of two or more qubits, recursive
    and ancilla-free."""
    if len(qubits) == 2:
        return [Gate("cp", qubits, (theta,))]
    *controls, last_c, target = qubits
    ops = [Gate("cp", (last_c, target), (theta / 2,))]
    ops += _mcx_ops(tuple(controls), last_c)
    ops += [Gate("cp", (last_c, target), (-theta / 2,))]
    ops += _mcx_ops(tuple(controls), last_c)
    ops += _mcp_ops(theta / 2, tuple(controls) + (target,))
    return ops


def _mcx_ops(controls: tuple, target: int) -> list:
    if len(controls) == 1:
        return [Gate("cx", (controls[0], target))]
    if len(controls) == 2:
        return [Gate("ccx", (*controls, target))]
    return ([Gate("h", (target,))]
            + _mcp_ops(math.pi, (*controls, target))
            + [Gate("h", (target,))])


def _qft_ops(qubits: list, inverse: bool = False) -> list:
    """Swapless QFT: qubit order carries the bit reversal.

    Maps |x> to a product state where qubit i (of the given list) holds the
    relative phase 2*pi*x / 2^(n-i).
    """
    ops = []
    n = len(qubits)
    for i in range(n):
        ops.append(Gate("h", (qubits[i],)))
        for k in range(i + 1, n):
            ops.append(Gate("cp", (qubits[k], qubits[i]), (math.pi / 2 ** (k - i),)))
    if inverse:
        ops = [
            Gate(o.name, o.sites, tuple(-p for p in o.params) if o.name == "cp" else o.params)
            for o in reversed(ops)
        ]
    return ops


def _cry_ops(theta: float, control: int, target: int) -> list:
    return [
        Gate("cx", (control, target)),
        Gate("ry", (target,), (-theta / 2,)),
        Gate("cx", (control, target)),
        Gate("ry", (target,), (theta / 2,)),
    ]


def _heisenberg_bond_ops(a: int, b: int, theta: float) -> list:
    """exp(-i theta (XX + YY + ZZ) / 2) on the pair, up to global phase."""
    return [
        Gate("cx", (a, b)),
        Gate("h", (a,)),
        Gate("cp", (a, b), (2 * theta,)),
        Gate("h", (a,)),
        Gate("cx", (a, b)),
    ]


# -- generators -------------------------------------------------------------


def _bitstring_param(param, width: int, what: str) -> str:
    if isinstance(param, int):
        param = format(param, f"0{width}b")
    if not isinstance(param, str) or len(param) != width or set(param) - {"0", "1"}:
        raise ValidationError(f"{what} must be a {width}-bit string, got {param!r}")
    return param


def _bernstein_vazirani(spec: BenchmarkSpec) -> Circuit:
    w = spec.width
    secret = _bitstring_param(spec.instance_param, w, "secret")
    if secret == "0" * w:
        raise ValidationError("secret must be nonzero")
    anc = w
    c = Circuit(w + 1, metadata={"measured_qubits": list(range(w))})
    c.add(Gate("x", (anc,)))
    c.add(grot(HALF_PI, HALF_PI))           # global Ry(pi/2)
    for i, bit in enumerate(secret):
        if bit == "1":
            c.add(Gate("cx", (i, anc)))
    c.add(grot(HALF_PI, -HALF_PI))
    return c


_DJ_VARIANTS = ("constant_0", "constant_1", "balanced")


def _deutsch_jozsa(spec: BenchmarkSpec) -> Circuit:
    w = spec.width
    variant = spec.instance_param
    if variant not in _DJ_VARIANTS:
        raise ValidationError(f"bad DeutschJozsa variant {variant!r}")
    anc = w
    c = Circuit(w + 1, metadata={"measured_qubits": list(range(w))})
    c.add(Gate("x", (anc,)))
    c.add(grot(HALF_PI, HALF_PI))
    if variant == "constant_1":
        c.add(Gate("x", (anc,)))
    elif variant == "balanced":
        for i in range(w):
            c.add(Gate("cx", (i, anc)))
    c.add(grot(HALF_PI, -HALF_PI))
    return c


def _hidden_shift(spec: BenchmarkSpec) -> Circuit:
    w = spec.width
    shift = _bitstring_param(spec.instance_param, w, "shift")
    pairs = [(2 * i, 2 * i + 1) for i in range(w // 2)]
    c = Circuit(w, metadata={"measured_qubits": list(range(w))})
    c.add(grot(HALF_PI, HALF_PI))           # H layer from |0...0>
    for i, bit in enumerate(shift):
        if bit == "1":
            c.add(Gate("x", (i,)))
    for a, b in pairs:
        c.add(Gate("cz", (a, b)))
    for i, bit in enumerate(shift):
        if bit == "1":
            c.add(Gate("x", (i,)))
    for i in range(w):
        c.add(Gate("h", (i,)))
    for a, b in pairs:
        c.add(Gate("cz", (a, b)))
    c.add(grot(HALF_PI, -HALF_PI))          # Z.H per site; Z is harmless pre-readout
    return c


def _encoded_value(param, width: int) -> int:
    if not isinstance(param, (int, np.integer)) or not 0 <= param < 2**width:
        raise ValidationError(f"encoded value {param!r} outside [0, 2^{width})")
    return int(param)


def _qft_method1(spec: BenchmarkSpec) -> Circuit:
    w = spec.width
    a = _encoded_value(spec.instance_param, w)
    c = Circuit(w, metadata={"measured_qubits": list(range(w))})
    for i, bit in enumerate(format(a, f"0{w}b")):
        if bit == "1":
            c.add(Gate("x", (i,)))
    for op in _qft_ops(list(range(w))):
        c.add(op)
    for i in range(w):                       # increment by 1 in the Fourier basis
        c.add(rz(i, 2 * math.pi / 2 ** (w - i)))
    for op in _qft_ops(list(range(w)), inverse=True):
        c.add(op)
    return c


def _qft_method2(spec: BenchmarkSpec) -> Circuit:
    w = spec.width
    a = _encoded_value(spec.instance_param, w)
    c = Circuit(w, metadata={"measured_qubits": list(range(w))})
    c.add(grot(HALF_PI, HALF_PI))
    for i in range(w):
        angle = 2 * math.pi * a / 2 ** (w - i)
        c.add(rz(i, angle))
    for op in _qft_ops(list(range(w)), inverse=True):
        c.add(op)
    return c


def _phase_estimation(spec: BenchmarkSpec) -> Circuit:
    w = spec.width
    t = w - 1
    k = spec.instance_param
    if not isinstance(k, (int, np.integer)) or not 1 <= k < 2**t:
        raise ValidationError(f"phase index {k!r} outside [1, 2^{t})")
    target = t
    c = Circuit(w, metadata={"measured_qubits": list(range(t))})
    c.add(grot(HALF_PI, HALF_PI))
    c.add(Gate("ry", (target,), (HALF_PI,)))  # |+> -> |1>, eigenstate of the phase
    theta = 2 * math.pi * k / 2**t
    for j in range(t):
        c.add(Gate("cp", (j, target), (theta * 2**j,)))
    for op in _qft_ops(list(range(t)), inverse=True):
        c.add(op)
    return c


def _grover_power_ops(mu: float, control: int, obj: int, power: int) -> list:
    """power sequential applications of the controlled Grover iterate.

    Q = A S0 A^dag S_chi with A = Ry(2 mu), S0/S_chi = Z reflections; each
    factor is individually controlled on the counting qubit.
    """
    ops = []
    for _ in range(power):
        ops.append(Gate("cz", (control, obj)))            # controlled S_chi
        ops += _cry_ops(-2 * mu, control, obj)          # controlled A^dag
        ops.append(Gate("x", (obj,)))                     # controlled S0
        ops.append(Gate("cz", (control, obj)))
        ops.append(Gate("x", (obj,)))
        ops += _cry_ops(2 * mu, control, obj)           # controlled A
    return ops


def _amplitude_estimation(spec: BenchmarkSpec) -> Circuit:
    w = spec.width
    t = w - 1
    k = spec.instance_param
    if not isinstance(k, (int, np.integer)) or not 1 <= k < 2**t:
        raise ValidationError(f"amplitude index {k!r} outside [1, 2^{t})")
    mu = math.pi * k / 2**t
    return _ae_like_circuit(w, mu)


def _ae_like_circuit(w: int, mu: float) -> Circuit:
    t = w - 1
    obj = t
    c = Circuit(w, metadata={"measured_qubits": list(range(t))})
    c.add(grot(HALF_PI, HALF_PI))
    c.add(Gate("ry", (obj,), (2 * mu - HALF_PI,)))  # net effect: A = Ry(2 mu) from |0>
    for j in range(t):
        for op in _grover_power_ops(mu, j, obj, 2**j):
            c.add(op)
    for op in _qft_ops(list(range(t)), inverse=True):
        c.add(op)
    return c


def _monte_carlo(spec: BenchmarkSpec) -> Circuit:
    w = spec.width
    a = spec.instance_param
    if not isinstance(a, float) or not 0.0 < a < 1.0:
        raise ValidationError(f"target amplitude {a!r} outside (0, 1)")
    mu = math.asin(math.sqrt(a))
    return _ae_like_circuit(w, mu)


def _grover(spec: BenchmarkSpec) -> Circuit:
    w = spec.width
    marked = _bitstring_param(spec.instance_param, w, "marked item")
    c = Circuit(w, metadata={"measured_qubits": list(range(w))})
    c.add(grot(HALF_PI, HALF_PI))
    n_iter = max(1, int(math.floor(math.pi / 4 * math.sqrt(2**w))))
    for _ in range(n_iter):
        # oracle: phase flip on the marked string
        for i, bit in enumerate(marked):
            if bit == "0":
                c.add(Gate("x", (i,)))
        for op in _mcp_ops(math.pi, tuple(range(w))):
            c.add(op)
        for i, bit in enumerate(marked):
            if bit == "0":
                c.add(Gate("x", (i,)))
        # diffuser: reflection about the uniform state
        c.add(grot(HALF_PI, -HALF_PI))
        for i in range(w):
            c.add(Gate("x", (i,)))
        for op in _mcp_ops(math.pi, tuple(range(w))):
            c.add(op)
        for i in range(w):
            c.add(Gate("x", (i,)))
        c.add(grot(HALF_PI, HALF_PI))
    return c


def _hamiltonian_sim(spec: BenchmarkSpec) -> Circuit:
    w = spec.width
    seed = spec.instance_param
    if not isinstance(seed, (int, np.integer)):
        raise ValidationError(f"disorder seed must be an int, got {seed!r}")
    rng = np.random.default_rng(int(seed))
    fields = rng.uniform(-HAMSIM_H_SCALE, HAMSIM_H_SCALE, size=w)
    c = Circuit(w, metadata={
        "measured_qubits": list(range(w)),
        "hamsim": {"steps": HAMSIM_STEPS, "dt": HAMSIM_DT, "j": HAMSIM_J,
                   "fields": [float(h) for h in fields]},
    })
    for i in range(1, w, 2):                 # Neel-like initial state
        c.add(Gate("x", (i,)))
    theta = 2 * HAMSIM_J * HAMSIM_DT
    for _ in range(HAMSIM_STEPS):
        for i in range(w):
            c.add(rz(i, 2 * fields[i] * HAMSIM_DT))
        for start in (0, 1):                 # even bonds, then odd bonds
            for a in range(start, w - 1, 2):
                for op in _heisenberg_bond_ops(a, a + 1, theta):
                    c.add(op)
    return c


def _ghz_ops(w: int) -> list:
    ops = [Gate("ry", (0,), (HALF_PI,))]
    ops += [Gate("cx", (i, i + 1)) for i in range(w - 1)]
    return ops


def _ghz(spec: BenchmarkSpec) -> Circuit:
    c = Circuit(spec.width, metadata={"measured_qubits": list(range(spec.width))})
    for op in _ghz_ops(spec.width):
        c.add(op)
    return c


def _ghz_parity(spec: BenchmarkSpec) -> Circuit:
    c = Circuit(spec.width, metadata={"measured_qubits": list(range(spec.width))})
    for op in _ghz_ops(spec.width):
        c.add(op)
    c.add(grot(spec.instance_param, HALF_PI))  # the analysis angle
    return c


# -- the kind table ----------------------------------------------------------


@dataclass(frozen=True)
class _Enumerable:
    """A finite instance space: count(width) instances, the i-th of them
    value(width, i).  A draw of n takes every instance when there are at
    most n, else n distinct seeded indices."""
    count: Callable
    value: Callable

    def __call__(self, width: int, rng, n: int) -> list:
        count = self.count(width)
        picks = (range(count) if count <= n
                 else rng.choice(count, size=n, replace=False))
        return [self.value(width, int(i)) for i in picks]


@dataclass(frozen=True)
class _Kind:
    generator: Callable
    lo: int              # lowest and highest width; simulation memory is
    hi: int              # guarded separately
    draw: Callable       # (width, rng, n) -> n instance parameters
    samples: int = 3     # default draw size
    even: bool = False   # even widths only


_NONZERO_BITSTRINGS = _Enumerable(lambda w: 2**w - 1,
                                  lambda w, i: format(i + 1, f"0{w}b"))
_BITSTRINGS = _Enumerable(lambda w: 2**w, lambda w, i: format(i, f"0{w}b"))
_VALUES = _Enumerable(lambda w: 2**w, lambda w, i: i)
_PHASES = _Enumerable(lambda w: 2 ** (w - 1) - 1, lambda w, i: i + 1)

_KIND_TABLE = {
    # one ancilla site on top of the width
    "BernsteinVazirani": _Kind(_bernstein_vazirani, 2, 10, _NONZERO_BITSTRINGS),
    "DeutschJozsa": _Kind(_deutsch_jozsa, 2, 10, _Enumerable(
        lambda w: len(_DJ_VARIANTS), lambda w, i: _DJ_VARIANTS[i])),
    # the oracle acts on pairs
    "HiddenShift": _Kind(_hidden_shift, 2, 10, _NONZERO_BITSTRINGS, even=True),
    "QftMethod1": _Kind(_qft_method1, 2, 11, _VALUES),
    "QftMethod2": _Kind(_qft_method2, 2, 11, _VALUES),
    "PhaseEstimation": _Kind(_phase_estimation, 2, 11, _PHASES),
    "AmplitudeEstimation": _Kind(_amplitude_estimation, 3, 11, _PHASES,
                                 samples=2),
    "Grover": _Kind(_grover, 2, 8, _BITSTRINGS),
    "HamiltonianSim": _Kind(_hamiltonian_sim, 2, 11, lambda w, rng, n: [
        int(s) for s in rng.integers(0, 2**31, size=n)]),
    "MonteCarlo": _Kind(_monte_carlo, 3, 11, lambda w, rng, n: [
        float(a) for a in rng.uniform(0.05, 0.95, size=n)], samples=1),
    "Ghz": _Kind(_ghz, 2, 11, _Enumerable(lambda w: 1, lambda w, i: None)),
    "GhzParity": _Kind(_ghz_parity, 2, 11, lambda w, rng, n: [
        float(phi) for phi in rng.uniform(0.0, 2 * math.pi, size=n)]),
}
# the index of a kind seeds its instance draws
KINDS = tuple(_KIND_TABLE)
WIDTH_BOUNDS = {kind: (k.lo, k.hi) for kind, k in _KIND_TABLE.items()}


def generate(spec: BenchmarkSpec) -> tuple[Circuit, Distribution]:
    """Build the circuit for a benchmark instance and its ideal distribution."""
    circuit = _KIND_TABLE[spec.kind].generator(spec)
    circuit.metadata.setdefault("kind", spec.kind)
    circuit.metadata.setdefault("width", spec.width)
    return circuit, ideal_distribution(circuit)


def sample_instances(kind: str, width: int, n_samples: int = None,
                     seed: int = 0) -> list:
    """Distinct seeded instance draws; enumerates small instance spaces."""
    BenchmarkSpec(kind, width)  # checks the kind and the width
    row = _KIND_TABLE[kind]
    if n_samples is None:
        n_samples = row.samples
    if type(n_samples) is not int or n_samples < 1:
        raise ValidationError(
            f"n_samples must be an int >= 1, got {n_samples!r}")
    rng = np.random.default_rng((KINDS.index(kind), width, seed))
    return [BenchmarkSpec(kind, width, param, seed)
            for param in row.draw(width, rng, n_samples)]


# -- external circuits --------------------------------------------------------


def load_external(path) -> tuple[Circuit, Distribution]:
    """Parse an external circuit file with a measured bitstring distribution.

    Format: {"n_qubits": int, "ops": [{"gate", "sites", "params"}, ...],
    "measured": {"bitstring": prob, ...}}.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read external circuit {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"external circuit must be a JSON object, got {data!r}")
    for field in ("n_qubits", "ops", "measured"):
        if field not in data:
            raise SchemaError(f"external circuit missing field {field!r}")
    circuit = Circuit.from_dict(data)
    measured = data["measured"]
    if not isinstance(measured, dict) or not measured or not all(
            type(p) in (int, float) for p in measured.values()):
        raise SchemaError("'measured' must be a non-empty mapping of "
                          "bitstrings to numbers")
    total = sum(measured.values())
    if abs(total - 1.0) > 1e-6:
        raise SchemaError(f"measured distribution sums to {total}, not 1")
    n_bits = len(next(iter(measured)))
    qubits = circuit.metadata.setdefault("measured_qubits",
                                         list(range(circuit.n_qubits)))
    if not (isinstance(qubits, list) and len(qubits) == n_bits
            and len(set(qubits)) == n_bits and all(
                type(q) is int and 0 <= q < circuit.n_qubits for q in qubits)):
        raise SchemaError(
            f"measured_qubits {qubits!r} must list {n_bits} distinct qubits "
            f"of the {circuit.n_qubits}-qubit register, one per measured bit")
    # no cap admits a state numpy cannot index, so at most 22 qubits (a 32 MB
    # measured vector) pass here
    if footprint(circuit.n_qubits) > np.iinfo(np.intp).max:
        raise CapacityError(f"no memory cap holds {circuit.n_qubits} qubits")
    try:
        dist = Distribution.from_entries(
            {k: v / total for k, v in measured.items()})
    except ValidationError as exc:
        raise SchemaError(f"bad measured distribution: {exc}") from exc
    return circuit, dist
