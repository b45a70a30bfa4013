"""Circuit IR, lowering to the native gate set, and layer scheduling.

Native gates:
    grot(phi, theta)   global microwave rotation, acts on every qubit
    rz(theta) @ site   local Stark-shift Rz
    cz @ (a, b)        Rydberg controlled-Z

Abstract gates (h, x, y, z, rx, ry, cx, cp, swap, ccx) lower to these.  A
``Gate`` checks itself against ``GATE_ARITY``, the one gate table, when it is
made.  A local equatorial rotation on one site costs two global pulses plus
one local Rz: R_phi(theta) = G(phi+pi/2, pi/2) . Rz(theta) . G(phi+pi/2,
-pi/2), with the two global pulses cancelling exactly on every other site.
"""

from __future__ import annotations

import math
import numbers
from math import isfinite
from dataclasses import dataclass, field

from .errors import SchemaError, ValidationError

NATIVE_GATES = ("grot", "rz", "cz")
# (site count, parameter count) of each known gate; a grot acts on every site
# whatever sites it lists
GATE_ARITY = {"grot": (None, 2), "rz": (1, 1), "cz": (2, 0),
              "h": (1, 0), "x": (1, 0), "y": (1, 0), "z": (1, 0), "rx": (1, 1),
              "ry": (1, 1), "rphi": (1, 2), "cx": (2, 0), "cp": (2, 1),
              "swap": (2, 0), "ccx": (3, 0)}


@dataclass(frozen=True)
class Gate:
    """A gate, checked against its ``GATE_ARITY`` entry when it is made;
    numpy integer sites become ints and real params floats."""

    name: str
    sites: tuple = ()
    params: tuple = ()

    def __post_init__(self):
        name, sites, params = self.name, tuple(self.sites), tuple(self.params)
        try:
            n_sites, n_params = GATE_ARITY[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise ValidationError(f"unknown gate {name!r}") from None
        for s in sites:
            if type(s) is not int:
                # int() would read a site 1.7, "1" or True as 1
                if not all(isinstance(s, numbers.Integral)
                           and not isinstance(s, bool) for s in sites):
                    raise ValidationError(f"{name} sites {sites!r} are not "
                                          f"all integers")
                sites = tuple(map(int, sites))
                break
        for p in params:
            if type(p) is not float or not isfinite(p):
                # float() would read a param "0.5" or True as 0.5 or 1.0, and
                # isfinite raises OverflowError on an int no float can hold
                try:
                    real = all(isinstance(p, numbers.Real) and isfinite(p)
                               and not isinstance(p, bool) for p in params)
                except OverflowError:
                    real = False
                if not real:
                    raise ValidationError(f"{name} params {params!r} are not "
                                          f"all finite real numbers")
                params = tuple(map(float, params))
                break
        if (len(params) != n_params or n_sites not in (None, len(sites))
                or len(set(sites)) != len(sites)):
            raise ValidationError(
                f"{name} takes {n_sites or 'any'} distinct site(s) and "
                f"{n_params} parameter(s), got {sites} and {params}")
        if sites is not self.sites:
            object.__setattr__(self, "sites", sites)
        if params is not self.params:
            object.__setattr__(self, "params", params)

    @property
    def is_native(self) -> bool:
        return self.name in NATIVE_GATES

    def to_record(self) -> dict:
        return {"gate": self.name, "sites": list(self.sites),
                "params": list(self.params)}

    @classmethod
    def from_record(cls, rec: dict) -> "Gate":
        # the record's JSON shape only; the gate checks the rest
        if not (isinstance(rec, dict) and isinstance(rec.get("gate"), str)
                and isinstance(sites := rec.get("sites", []), list)
                and isinstance(params := rec.get("params", []), list)):
            raise SchemaError(f"bad gate record {rec!r}: want a gate name and "
                              f"lists of sites and params")
        try:
            return cls(rec["gate"], sites, params)
        except ValidationError as exc:
            raise SchemaError(f"bad gate record {rec!r}: {exc}") from exc


def grot(phi: float, theta: float) -> Gate:
    return Gate("grot", (), (phi, theta))


def rz(site: int, theta: float) -> Gate:
    return Gate("rz", (site,), (theta,))


def cz(a: int, b: int) -> Gate:
    return Gate("cz", (a, b))


@dataclass
class Circuit:
    """A register and its gates.  The constructor and ``add`` check that each
    op's sites lie on the register; a gate checked the rest when it was made."""

    n_qubits: int
    ops: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for g in self.ops:
            self._check(g)

    def add(self, gate: Gate):
        self._check(gate)
        self.ops.append(gate)
        return self

    def _check(self, gate: Gate):
        for s in gate.sites:
            if not 0 <= s < self.n_qubits:
                raise ValidationError(f"{gate.name} site {s} off the "
                                      f"register ({self.n_qubits} qubits)")

    @property
    def is_native(self) -> bool:
        return all(g.is_native for g in self.ops)

    def gate_counts(self) -> dict:
        counts: dict = {}
        for g in self.ops:
            counts[g.name] = counts.get(g.name, 0) + 1
        return counts

    @property
    def measured_qubits(self) -> list:
        return list(self.metadata.get("measured_qubits", range(self.n_qubits)))

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "ops": [g.to_record() for g in self.ops],
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Circuit":
        try:
            n = d["n_qubits"]
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"bad circuit document: {exc}") from exc
        # bool is an int subclass; a float or string is no qubit count
        if type(n) is not int or n < 1:
            raise SchemaError(f"n_qubits must be an int >= 1, got {n!r}")
        metadata = d.get("metadata", {})
        if not isinstance(metadata, dict):
            raise SchemaError(f"circuit metadata must be a mapping, "
                              f"got {metadata!r}")
        ops = d.get("ops", [])
        if not isinstance(ops, list):
            raise SchemaError(f"circuit ops must be a list, got {ops!r}")
        return cls(n, [Gate.from_record(rec) for rec in ops], dict(metadata))


def decompose_local_rotation(phi: float, theta: float, site: int) -> list:
    """Equatorial rotation on one site as two global pulses and a local Rz."""
    return [
        grot(phi + math.pi / 2, -math.pi / 2),
        rz(site, theta),
        grot(phi + math.pi / 2, math.pi / 2),
    ]


def _lower_gate(g: Gate) -> list:
    """One lowering step; may emit abstract gates that lower further."""
    s = g.sites
    if g.name == "rphi":
        return decompose_local_rotation(g.params[0], g.params[1], s[0])
    if g.name == "rx":
        return [Gate("rphi", s, (0.0, g.params[0]))]
    if g.name == "ry":
        return [Gate("rphi", s, (math.pi / 2, g.params[0]))]
    if g.name == "x":
        return [Gate("rphi", s, (0.0, math.pi))]
    if g.name == "y":
        return [Gate("rphi", s, (math.pi / 2, math.pi))]
    if g.name == "z":
        return [rz(s[0], math.pi)]
    if g.name == "h":
        # H = Ry(pi/2) . Z up to a global phase
        return [rz(s[0], math.pi), Gate("ry", s, (math.pi / 2,))]
    if g.name == "cx":
        # CX = (I x Ry(pi/2)) CZ (I x Ry(-pi/2)), exact
        c, t = s
        return [Gate("ry", (t,), (-math.pi / 2,)), cz(c, t),
                Gate("ry", (t,), (math.pi / 2,))]
    if g.name == "cp":
        c, t = s
        tau = math.remainder(g.params[0], 2 * math.pi)
        if abs(tau) < 1e-12:
            return []
        if abs(abs(tau) - math.pi) < 1e-12:
            return [cz(c, t)]
        # CP(t) = Rz_c(t/2) Rz_t(t/2) CX Rz_t(-t/2) CX, up to global phase
        return [
            Gate("cx", (c, t)),
            rz(t, -tau / 2),
            Gate("cx", (c, t)),
            rz(t, tau / 2),
            rz(c, tau / 2),
        ]
    if g.name == "swap":
        a, b = s
        return [Gate("cx", (a, b)), Gate("cx", (b, a)), Gate("cx", (a, b))]
    # ccx: every other abstract gate returned above
    a, b, c = s
    t = math.pi / 4  # rz(pi/4) plays the role of T, up to global phase
    return [
        Gate("h", (c,)),
        Gate("cx", (b, c)), rz(c, -t),
        Gate("cx", (a, c)), rz(c, t),
        Gate("cx", (b, c)), rz(c, -t),
        Gate("cx", (a, c)), rz(c, t), rz(b, t),
        Gate("h", (c,)),
        Gate("cx", (a, b)), rz(a, t), rz(b, -t),
        Gate("cx", (a, b)),
    ]


def lower_to_native(circuit: Circuit) -> Circuit:
    """Expand all abstract gates; result contains only grot/rz/cz."""
    ops, pending = [], list(reversed(circuit.ops))
    while pending:
        g = pending.pop()
        if g.is_native:
            ops.append(g)
        else:
            pending.extend(reversed(_lower_gate(g)))
    return Circuit(circuit.n_qubits, ops, dict(circuit.metadata))


def _norm_angle(theta: float) -> float:
    """Equivalent rotation angle of minimal magnitude (2*pi-periodic gates)."""
    return math.remainder(theta, 2 * math.pi)


def optimize_native(circuit: Circuit) -> Circuit:
    """Peephole pass on a native circuit.

    All native gates except the global rotation are diagonal, so between any
    two global pulses the local Rz angles fuse per site and commute with the
    CZ gates.  Empty-segment global pulses about the same axis also fuse.
    Angles are normalized to minimal magnitude; full-turn gates vanish (they
    act as at most a global sign, invisible to density-matrix conjugation).
    """
    if not circuit.is_native:
        raise ValidationError("optimize_native requires a lowered circuit")

    # split into diagonal segments separated by global pulses
    segments = [[]]
    pulses = []        # grot between segment i and i+1
    for g in circuit.ops:
        if g.name == "grot":
            pulses.append(g)
            segments.append([])
        else:
            segments[-1].append(g)

    def fuse(segment: list) -> list:
        angles: dict = {}
        czs = []
        for g in segment:
            if g.name == "rz":
                site = g.sites[0]
                angles[site] = angles.get(site, 0.0) + g.params[0]
            else:
                czs.append(g)
        ops = [rz(site, _norm_angle(a)) for site, a in sorted(angles.items())
               if abs(_norm_angle(a)) > 1e-12]
        return ops + czs

    segments = [fuse(seg) for seg in segments]

    # fuse same-axis global pulses across empty segments, drop full turns
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(pulses):
            theta = _norm_angle(pulses[i].params[1])
            if abs(theta) < 1e-12:
                segments[i].extend(segments.pop(i + 1))
                pulses.pop(i)
                changed = True
                continue
            if (not segments[i + 1] and i + 1 < len(pulses)
                    and abs(_norm_angle(pulses[i].params[0]
                                        - pulses[i + 1].params[0])) < 1e-12):
                merged = grot(pulses[i].params[0],
                              pulses[i].params[1] + pulses[i + 1].params[1])
                pulses[i] = merged
                segments.pop(i + 1)
                pulses.pop(i + 1)
                changed = True
                continue
            if abs(abs(theta) - abs(pulses[i].params[1])) > 1e-12:
                pulses[i] = grot(pulses[i].params[0], theta)
                changed = True
            i += 1

    ops = segments[0]
    for pulse, seg in zip(pulses, segments[1:]):
        ops += [pulse, *seg]
    return Circuit(circuit.n_qubits, ops, dict(circuit.metadata))


def gate_duration(g: Gate, params) -> float:
    if g.name == "grot":
        return params.dur_uw_pi * abs(g.params[1]) / math.pi
    if g.name == "rz":
        return params.dur_rz_pi * abs(g.params[0]) / math.pi
    if g.name == "cz":
        return params.dur_cz
    raise ValidationError(f"no duration for non-native gate {g.name!r}")


def schedule_layers(circuit: Circuit) -> tuple[list, int]:
    """Greedy ASAP layering of a native circuit into lists of gates.

    A global rotation touches every qubit and so occupies an exclusive layer;
    local gates on disjoint sites share one.  Returns (layers, depth).
    """
    if not circuit.is_native:
        raise ValidationError("schedule_layers requires a lowered circuit")
    layers: list[list] = []
    frontier = [0] * circuit.n_qubits  # 1-based index of last layer used per qubit
    for g in circuit.ops:
        sites = range(circuit.n_qubits) if g.name == "grot" else g.sites
        at = max((frontier[q] for q in sites), default=0) + 1
        if at > len(layers):
            layers.append([])
        layers[at - 1].append(g)
        for q in sites:
            frontier[q] = at
    return layers, len(layers)
