"""Suite orchestration: generate, transpile, simulate, score.

The executor runs a native circuit in two steps under one of two timing
models.  "gate" (the default) attaches each gate's own idle decoherence to
its sites, and a global pulse decoheres every site.  "layer" applies the
gates of a scheduled layer without their idle decoherence and then one
decoherence interval, the layer's maximum gate duration, to every site.

Compile (``_compile``) schedules the circuit and records every 1-site op
that ``gatemodel`` gives, and each ``cz`` as its sites.  Ops on disjoint
sites commute and each site keeps its order, so the 1-site ops fold into
the ``cz`` passes: a ``cz`` carries its two sites' 1-site ops since their
previous ``cz`` (before) and, at a site's last ``cz``, every op after it
(after); a site with no ``cz`` starts in the product of all its ops
applied to |0>.  Sites that no chain of ``cz``s joins share no op that
entangles, so run (``_run``) holds one state per connected component of
the ``cz`` graph, their footprints within ``memory_cap`` together.  It
sets each site with no ``cz`` to its vector, checked once, and makes one
checked pass per ``cz`` on its component's state: after @ cz_op @ before,
the ``cz`` op looked up once under the run's params.  The 1-site ops, a
layer's decoherence included, come from the whole schedule, so the states
are exactly the factors of the register's state.

Both ``run_instance`` and ``run_reference`` simulate the native circuit
that ``routing.transpile`` gives, a reference's on all-to-all.
``run_instance`` runs its two halves apart: a spec's circuit, ideal and
``lower_and_optimize`` circuit once per thread for a run of equal specs
(``_front``), and ``route_and_optimize`` per topology.  ``run_suite``
runs a spec's topologies in order on one thread, so the ``wall_time`` of
its first record pays that front end and the later ones do not.
``execute_native`` compiles on every call and streams its plan, so a long
circuit holds no matrix per gate.  ``run_reference`` keeps one plan per
reference in its memo entry (``_reference``), keyed on the value of every
``NoiseParams`` field but the ``cz`` op's own and the readout error.  So a
fit with only ``cz`` rates free compiles each reference once, and each
evaluation builds one ``cz`` op and makes two 36x36 products per pass.
Readout reduces each component to the bitstring probabilities of its
measured sites, the physical positions of the measured qubits under the
router's final placement, and joins them by outer product into one
vector, which is convolved with the measurement-error channel and scored
against the ideal distribution's vector.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bench, gatemodel, metrics
from .channels import NoiseParams
from .circuit import Circuit, cz, gate_duration, schedule_layers
from .errors import (AtombenchError, CapacityError, DegenerateIdealError,
                     ValidationError)
from .routing import (Topology, lower_and_optimize, route_and_optimize,
                      transpile)
from .state import (DEFAULT_MEMORY_CAP, N_SYMBOLS, QuquartState, footprint,
                    pair_kron)

_READOUT_FLOOR = 1e-15   # readout probabilities at or below it are stored as 0


@dataclass
class RunConfig:
    noise: NoiseParams = field(default_factory=NoiseParams)
    topologies: list = field(default_factory=lambda: ["all_to_all"])
    kinds: list = field(default_factory=lambda: ["Ghz"])
    widths: list = field(default_factory=lambda: [2, 3])
    samples_per_point: dict = field(default_factory=dict)
    seed: int = 0
    memory_cap: int = DEFAULT_MEMORY_CAP
    workers: int = 1
    timing_model: str = "gate"

    def __post_init__(self):
        ints = (self.seed, self.workers, self.memory_cap)
        if any(type(v) is not int for v in ints) or self.workers < 1:
            raise ValidationError(f"seed, workers and memory_cap must be ints "
                                  f"and workers >= 1, got {ints}")
        if self.timing_model not in ("gate", "layer"):
            raise ValidationError(
                f"unknown timing_model {self.timing_model!r}")
        lists = (self.kinds, self.topologies, self.widths)
        if not all(isinstance(v, list) for v in lists) or any(
                type(w) is not int for w in self.widths):
            raise ValidationError(f"kinds, topologies and widths must be lists, "
                                  f"widths of ints, got {lists}")
        counts = self.samples_per_point
        if not isinstance(counts, dict) or not all(
                type(n) is int and n >= 1 for n in counts.values()):
            raise ValidationError(
                f"samples_per_point must map kinds to counts >= 1, got {counts!r}")
        bad = [k for k in (*self.kinds, *counts) if k not in bench.KINDS]
        if bad:
            raise ValidationError(f"cannot sample kind(s) {bad}")
        for descriptor in self.topologies:
            make_topology(descriptor, 1)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        d = dict(d)
        if not isinstance(d.get("noise"), NoiseParams):
            d["noise"] = NoiseParams.load(d.get("noise", {}))
        widths = d.get("widths", [2, 3])
        if isinstance(widths, dict):
            lo, hi = widths.get("min"), widths.get("max")
            if type(lo) is not int or type(hi) is not int:
                raise ValidationError(
                    f"a widths range needs int min and max, got {widths!r}")
            d["widths"] = list(range(lo, hi + 1))
        extra = set(d) - set(cls.__dataclass_fields__)
        if extra:
            raise ValidationError(f"unknown config fields: {sorted(extra)}")
        return cls(**d)


@dataclass
class ResultRecord:
    kind: str
    width: int
    topology: str
    instance_param: object
    transpiled_depth: int = 0
    native_gate_counts: dict = field(default_factory=dict)
    f: float = float("nan")
    f_s: float = float("nan")
    f_n: float = float("nan")
    wall_time: float = 0.0
    status: str = "ok"
    error: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def make_topology(descriptor, n_qubits: int) -> Topology:
    """Build a Topology from "all_to_all", {"grid": [r, c]} or "grid"."""
    if descriptor == "all_to_all":
        return Topology.all_to_all(n_qubits)
    if descriptor == "grid":
        return Topology.grid(n_qubits)
    if isinstance(descriptor, dict) and "grid" in descriptor:
        shape = descriptor["grid"]
        if not (isinstance(shape, (list, tuple)) and len(shape) == 2):
            raise ValidationError(f"grid shape must be [rows, cols], got {shape!r}")
        return Topology.grid(n_qubits, *shape)
    raise ValidationError(f"unknown topology descriptor {descriptor!r}")


def topology_label(descriptor) -> str:
    if isinstance(descriptor, dict) and "grid" in descriptor:
        return "grid"
    return str(descriptor)


class _Recorder:
    """A native circuit's operators, recorded as ``gatemodel`` hands them
    over; ``_compile`` adds each ``cz`` as (sites, None).

    It takes the state's place in ``gatemodel``: ``apply_channel`` and
    ``apply_global_unitary`` record (sites, op), sites None for a global op.
    Only references to the cached, read-only ops are kept, never products,
    so a long circuit holds no matrix per gate.
    """

    def __init__(self):
        self.ops = []

    def apply_channel(self, sites, op: np.ndarray):
        self.ops.append((tuple(sites), op))
        return self

    def apply_global_unitary(self, op: np.ndarray):
        self.ops.append((None, op))
        return self


def _compile(circuit: Circuit, params: NoiseParams, per_gate: bool
             ) -> tuple:
    """The pass plan of a native circuit: (depth, groups, passes).

    The circuit is scheduled and its ops are recorded; ``Circuit`` checked
    its gates when it was built.  A union-find over the ``cz`` sites gives
    the components of the ``cz`` graph, and one backward walk finds each
    site's last ``cz`` and the product T_s of its 1-site ops after it.
    groups holds one (sites, start) per component, sites ascending, ordered
    by their least site: start is [T_s e0] for a site with no ``cz`` and an
    op, and None (the state's |0...0>) for the others.  passes yields one
    (component, local sites, before, after) per ``cz``, in circuit order:
    before is kron(P_a, P_b), P_s the product of the site's 1-site ops since
    its previous ``cz``, and after is kron(T_a, T_b), T_s taken only at the
    site's last ``cz`` (the identity elsewhere); either is None for the
    identity.  passes is a generator, so a streamed plan holds no matrix
    per gate.
    """
    layers, depth = schedule_layers(circuit)
    n_sites = circuit.n_qubits
    root = list(range(n_sites))     # union-find parents over the cz sites

    def find(s):
        while root[s] != s:
            s = root[s]
        return s

    rec = _Recorder()
    gatemodel.apply_preparation(rec, params)
    for layer in layers:
        for g in layer:
            if g.name == "cz":
                rec.ops.append((g.sites, None))
                root[find(g.sites[0])] = find(g.sites[1])
            else:
                gatemodel.apply_gate(rec, g, params, decohere=per_gate)
        if not per_gate:
            interval = max(gate_duration(g, params) for g in layer)
            gatemodel.apply_decoherence(rec, interval, params)
    ops, every = rec.ops, range(n_sites)
    last, tail = [-1] * n_sites, [None] * n_sites
    open_sites = set(every)
    for i in range(len(ops) - 1, -1, -1):
        if not open_sites:
            break
        sites, m = ops[i]
        for s in every if sites is None else sites:
            if s not in open_sites:
                continue
            if m is None:
                last[s] = i
                open_sites.discard(s)
            else:
                t = tail[s]
                tail[s] = m if t is None else t @ m
    components = {}
    for s in every:
        components.setdefault(find(s), []).append(s)
    groups, where = [], [None] * n_sites  # where: (component, local site)
    for k, sites in enumerate(components.values()):
        for j, s in enumerate(sites):
            where[s] = (k, j)
        # a site with a cz starts at |0>: its earlier ops ride its first pass
        t = tail[sites[0]] if len(sites) == 1 else None
        groups.append((tuple(sites), None if t is None else [t[:, 0]]))

    def passes():
        pending = [None] * n_sites
        for i, (sites, m) in enumerate(ops):
            if m is not None:
                for s in every if sites is None else sites:
                    if i < last[s]:
                        p = pending[s]
                        pending[s] = m if p is None else m @ p
                continue
            a, b = sites
            before = _pair(pending[a], pending[b])
            after = _pair(tail[a] if last[a] == i else None,
                          tail[b] if last[b] == i else None)
            pending[a] = pending[b] = None
            (k, la), (_, lb) = where[a], where[b]
            yield k, (la, lb), before, after

    return depth, tuple(groups), passes()


def _pair(a, b):
    """kron(a, b) of two site matrices, None standing for the identity;
    None if both are."""
    if a is None and b is None:
        return None
    eye = np.eye(N_SYMBOLS)
    return pair_kron(eye if a is None else a, eye if b is None else b)


# every NoiseParams field but the cz op's own and the readout error: the
# fields a pass plan may read
_PLAN_FIELDS = tuple(f for f in NoiseParams.__dataclass_fields__
                     if f not in gatemodel.CZ_FIELDS + ("meas_error",))


def _run(groups, passes, params: NoiseParams, per_gate: bool,
         memory_cap: int) -> tuple:
    """Run a pass plan (``_compile``): make one state per group, all within
    `memory_cap` together, set each given start, checked, then make one
    checked pass per item of `passes` on its group's state: the ``cz`` op
    under `params`, which reads no site, between its before and after.
    Returns the parts, one (sites, state) per group."""
    sizes = [len(sites) for sites, _ in groups]
    need = sum(map(footprint, sizes))
    if need > memory_cap:
        raise CapacityError(f"components of {sizes} sites need {need} bytes "
                            f"together, cap is {memory_cap}")
    states = [QuquartState(n, memory_cap) for n in sizes]
    for state, (_, start) in zip(states, groups):
        if start is not None:
            state.set_site(*start)
    op = gatemodel.native_op(cz(0, 1), params, decohere=per_gate)
    for k, sites, before, after in passes:
        m = op if before is None else op @ before
        states[k].apply_channel(sites, m if after is None else after @ m)
    return tuple((sites, state) for (sites, _), state in zip(groups, states))


def execute_native(circuit: Circuit, params: NoiseParams,
                   memory_cap: int = DEFAULT_MEMORY_CAP,
                   timing_model: str = "gate") -> tuple[tuple, int]:
    """Run a native circuit with SPAM preparation and idle decoherence.

    timing_model "gate" attaches each gate's decoherence interval to its own
    sites (global pulses decohere every site); "layer" instead applies one
    decoherence interval to all sites after each layer, the duration of the
    layer's slowest gate on any component.  The plan is compiled and
    streamed on every call.  Returns (parts, depth): parts holds one (sites,
    state) per connected component of the ``cz`` graph, sites ascending,
    whose states' Kronecker product in site order is the register's state;
    depth is the transpiled depth (layer count).
    """
    if timing_model not in ("gate", "layer"):
        raise ValidationError(f"unknown timing_model {timing_model!r}")
    per_gate = timing_model == "gate"
    depth, groups, passes = _compile(circuit, params, per_gate)
    return _run(groups, passes, params, per_gate, memory_cap), depth


def output_distribution(parts, l2p, measured: list,
                        meas_error: float) -> metrics.Distribution:
    """Readout pipeline: reduce, keep the measured qubits' physical bits
    (qubit q sits at l2p[q]), measurement error.

    Each part's diagonal is reduced in its state's buffer order, which needs
    no copy, so bit p of the reduced vector is site ``sites[state.axes[p]]``;
    it is marginalized to its measured sites before the parts are joined by
    outer product, so no vector of unmeasured bits is built.
    """
    phys = [l2p[q] for q in measured]
    v, held = None, []
    for sites, state in parts:
        axes = [sites[a] for a in state.axes]
        keep = [s for s in phys if s in axes]
        bits = metrics.reduce_readout_array(
            state.diagonal().transpose(state.axes))
        bits = metrics.marginalize(bits, state.n_sites,
                                   [axes.index(s) for s in keep])
        v = bits if v is None else np.outer(v, bits).reshape(-1)
        held += keep
    if held != phys:
        v = metrics.marginalize(v, len(held), [held.index(s) for s in phys])
    v = metrics.apply_measurement_error_vector(v, len(measured), meas_error)
    return metrics.Distribution(
        np.where((v <= _READOUT_FLOOR) & np.isfinite(v), 0.0, v))


_front = threading.local()  # .entry: the thread's last prepared instance


def run_instance(spec: bench.BenchmarkSpec, topology, params: NoiseParams,
                 memory_cap: int = DEFAULT_MEMORY_CAP,
                 timing_model: str = "gate") -> ResultRecord:
    rec = ResultRecord(spec.kind, spec.width, topology_label(topology),
                       spec.instance_param)
    start = time.perf_counter()
    # the work every topology shares, reused for an equal spec (compared,
    # not hashed); the native circuit is only read after
    entry = getattr(_front, "entry", None)
    if entry is None or entry[0] != spec:
        circuit, ideal = bench.generate(spec)
        entry = _front.entry = (spec, circuit.measured_qubits, ideal,
                                lower_and_optimize(circuit))
    _, measured, ideal, native = entry
    routed, l2p = route_and_optimize(
        native, make_topology(topology, native.n_qubits))
    rec.native_gate_counts = routed.gate_counts()
    parts, depth = execute_native(routed, params, memory_cap,
                                  timing_model=timing_model)
    rec.transpiled_depth = depth
    out = output_distribution(parts, l2p, measured, params.meas_error)
    try:
        rec.f_s, rec.f_n, rec.f = metrics.classical_fidelity(ideal, out)
    except DegenerateIdealError as exc:
        rec.f_s = exc.f_s
        rec.status = "degenerate_ideal"
    rec.wall_time = time.perf_counter() - start
    return rec


@functools.cache
def _reference(n_qubits: int, ops: tuple) -> list:
    """The memo entry [native, plan] of the abstract circuit (n_qubits,
    ops), keyed on content (a ``Circuit`` is mutable) and never evicted.

    native is transpile's circuit on all-to-all; plan is None or (key,
    groups, passes), its pass plan under the "gate" timing model, key the values of
    _PLAN_FIELDS it was compiled under.  ``run_reference`` replaces plan by
    one store of a tuple, so a thread reads the old plan or the new one.
    """
    return [transpile(Circuit(n_qubits, list(ops)),
                      Topology.all_to_all(n_qubits))[0], None]


def run_reference(circuit: Circuit, params: NoiseParams,
                  memory_cap: int = DEFAULT_MEMORY_CAP) -> metrics.Distribution:
    """Simulate an already-built abstract circuit on all-to-all connectivity
    under the "gate" timing model.

    Each distinct circuit is transpiled once, as ``run_instance`` would
    transpile it on all-to-all, and its pass plan is compiled once per value
    of the fields it reads (``_reference``), so the objective evaluations of
    a fit with only ``cz`` rates free only run the plan.
    """
    entry = _reference(circuit.n_qubits, tuple(circuit.ops))
    native, plan = entry
    # from a list: tuple() of a generator put 0.2-0.4 MB on fit's peak RSS
    key = tuple([getattr(params, f) for f in _PLAN_FIELDS])
    if plan is None or plan[0] != key:
        _, groups, passes = _compile(native, params, True)
        plan = entry[1] = (key, groups, tuple(passes))
    parts = _run(*plan[1:], params, True, memory_cap)
    return output_distribution(parts, range(native.n_qubits),
                               circuit.measured_qubits, params.meas_error)


def run_suite(config: RunConfig) -> tuple[list, list]:
    """Run every (kind, width, topology, instance); aggregate per point.

    Every point is sampled first and one pool of ``config.workers`` threads
    runs the specs, each one's topologies in order, so up to that many
    states are live at once.  Returns (records, aggregates); records are in
    point order, and aggregates are dicts with mean fidelity and mean
    transpiled depth.  Per-instance failures (package errors and
    MemoryError) are recorded with status "error" and excluded from the
    means.
    """
    sampled = [(kind, width, bench.sample_instances(
        kind, width, config.samples_per_point.get(kind), config.seed))
        for kind in config.kinds for width in config.widths
        if bench.width_allowed(kind, width)]

    def one(spec):
        records = []
        for topology in config.topologies:
            try:
                records.append(run_instance(spec, topology, config.noise,
                                            config.memory_cap,
                                            config.timing_model))
            except (AtombenchError, MemoryError) as exc:
                records.append(ResultRecord(
                    spec.kind, spec.width, topology_label(topology),
                    spec.instance_param, status="error",
                    error=f"{type(exc).__name__}: {exc}"))
        return records

    jobs = [spec for *_, specs in sampled for spec in specs]
    if config.workers > 1:
        with ThreadPoolExecutor(config.workers) as pool:
            runs = pool.map(one, jobs)
    else:
        runs = map(one, jobs)
    records, aggregates = [], []
    for kind, width, specs in sampled:
        # a topology's point is its column of the specs' records
        columns = zip(*itertools.islice(runs, len(specs)))
        for topology, point in zip(config.topologies, columns):
            records += point
            good = [r for r in point if r.status == "ok"]
            aggregates.append({
                "kind": kind, "width": width,
                "topology": topology_label(topology),
                "n_instances": len(specs),
                "n_failed": len(specs) - len(good),
                "mean_fidelity": float(np.mean([r.f for r in good]))
                if good else float("nan"),
                "mean_depth": float(np.mean([r.transpiled_depth
                                             for r in good]))
                if good else float("nan"),
            })
    return records, aggregates


def save_records(records: list, path) -> None:
    with open(path, "w") as fh:
        json.dump([r.to_dict() for r in records], fh, indent=1)
