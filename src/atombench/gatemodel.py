"""Noisy native gates: ideal unitary first, then the gate's error channels,
then idle decoherence.

Gate error channels follow the fixed ordering: the unitary itself, then
(for the microwave gate) depolarization, (for the local Rz) phase-flip,
decay and both loss channels, (for the CZ) loss channels, decay, phase-flip
and the conditional-phase offset; T1/T2* decoherence over the pulse length
``circuit.gate_duration`` is always last.

Every CZ channel acts alike on both atoms of the pair: a one-site channel
(loss, decay, a per-site phase flip, idle decoherence) is listed once and
``state.fuse`` applies it to each site.  The CZ phase-flip is applied either
as one correlated ZZ flip or as an independent flip on each site, selected by
``NoiseParams.cz_phaseflip_mode``.
The Table-derived conditional phase offset is coherent: diag(1,1,1,e^{i d})
on the computational block of the pair.

This module alone maps a native gate to physics: ``native_op(g, params)``
is the product of its channels' ops in this order, one cached read-only
float64 array (6x6 on the ``rz`` site or on every ``grot`` site, 36x36 on
the ``cz`` pair), and ``apply_gate(state, g, params)`` applies it.

A channel's op is a fixed combination of constant ops, with coefficients in
its rate: (1 - p) I + p S for a mixture (depolarization, the phase and bit
flips, both CZ phase flips), C0 + p C1 + sqrt(1 - p) C2 for a level transfer
(loss, decay) and C0 + cos d C1 + sin d C2 for the CZ phase offset.  Each
constant is the ``state.kraus_matrix`` op of a ``channels`` Kraus form at a
fixed rate, built and checked on first use, never at import, and cached.
Idle decoherence is its direct 6x6 action (d1 scaling and equilibrium
refill on the populations, d2 on the coherence).  The ``grot`` and ``rz``
unitaries are converted once per angle, when their gate's op is built.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from . import channels as ch
from .channels import KrausSet, NoiseParams
from .circuit import Gate, gate_duration
from .errors import ValidationError
from .state import QuquartState, fuse, kraus_matrix


def global_rotation_matrix(phi: float, theta: float) -> np.ndarray:
    """4x4 rotation about the equatorial axis at angle phi; identity on loss."""
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    u = np.eye(4, dtype=complex)
    u[0, 0] = c
    u[0, 1] = -1j * s * np.exp(-1j * phi)
    u[1, 0] = -1j * s * np.exp(1j * phi)
    u[1, 1] = c
    return u


def rz_matrix(theta: float) -> np.ndarray:
    """4x4 local Rz(theta) = diag(e^{-i t/2}, e^{i t/2}, 1, 1)."""
    u = np.eye(4, dtype=complex)
    u[0, 0] = np.exp(-1j * theta / 2.0)
    u[1, 1] = np.exp(1j * theta / 2.0)
    return u


def _unitary_op(u: np.ndarray, label: str) -> np.ndarray:
    """The op of the unitary u, built and checked by ``kraus_matrix``."""
    return kraus_matrix(KrausSet((u,), label=label))


@functools.cache
def _constant(make, *args) -> np.ndarray:
    """The op of the channel make(*args), a KrausSet or a unitary, built
    and checked by ``kraus_matrix`` once, when first used."""
    channel = make(*args)
    if isinstance(channel, KrausSet):
        return kraus_matrix(channel)
    return _unitary_op(channel, make.__name__)


def _read_only(*ms) -> tuple:
    """ms, made read-only: cached constants are shared by every caller."""
    for m in ms:
        m.flags.writeable = False
    return ms


def _mixture(make, p: float, *args) -> np.ndarray:
    """The op of the mixture make(p, *args): (1 - p) I + p S, S its op at
    p = 1."""
    m = p * _constant(make, 1.0, *args)
    m.ravel()[::len(m) + 1] += 1.0 - p
    return m


@functools.cache
def _transfer_basis(make, *args) -> tuple:
    """(C0, C1, C2) such that the transfer make(p, *args) has the op
    C0 + p C1 + sqrt(1 - p) C2, solved from its ops at p = 0, 1 and 3/4."""
    at0, at1, at34 = (_constant(make, p, *args) for p in (0.0, 1.0, 0.75))
    c0 = 3.0 * at1 + 2.0 * at0 - 4.0 * at34
    return _read_only(c0, at1 - c0, at0 - c0)


def _transfer(make, p: float, *args) -> np.ndarray:
    c0, c1, c2 = _transfer_basis(make, *args)
    return c0 + p * c1 + math.sqrt(1.0 - p) * c2


@functools.cache
def _shift_basis() -> tuple:
    """(C0, C1, C2) such that diag(1, 1, 1, e^{i d}) on a pair has the op
    C0 + cos d C1 + sin d C2, from its ops at e^{i d} = 1, -1 and i."""
    at1, at_1, at_i = (_constant(ch.controlled_phase_matrix, f)
                       for f in (1.0, -1.0, 1j))
    c0 = 0.5 * (at1 + at_1)
    return _read_only(c0, 0.5 * (at1 - at_1), at_i - c0)


def _grot_steps(phi: float, theta: float, params: NoiseParams) -> list:
    steps = [_unitary_op(global_rotation_matrix(phi, theta), "grot")]
    p = ch.scaled_probability(params.uw_depol_per_pi, theta)
    if p > 0.0:
        steps.append(_mixture(ch.depolarization, p))
    return steps


def _rz_steps(theta: float, params: NoiseParams) -> list:
    scale = lambda r: ch.scaled_probability(r, theta)
    return [
        _unitary_op(rz_matrix(theta), "rz"),
        _mixture(ch.phase_flip, scale(params.rz_phaseflip_per_pi)),
        _transfer(ch.decay, scale(params.rz_decay_per_pi)),
        _transfer(ch.loss_channel, scale(params.rz_loss_dark_per_pi), "dark"),
        _transfer(ch.loss_channel, scale(params.rz_loss_bright_per_pi),
                  "bright"),
    ]


_CZ_FLIPS = {"conditional": ch.conditional_phase_flip,
             "correlated": ch.correlated_phase_flip,
             "per_site": ch.phase_flip}


def _cz_steps(params: NoiseParams) -> list:
    """Steps on a pair, each channel listed once: a one-site step (loss,
    decay, a per-site phase flip) acts on both sites when fused."""
    steps = [_constant(ch.controlled_phase_matrix, -1.0),
             _transfer(ch.loss_channel, params.cz_loss_dark, "dark"),
             _transfer(ch.loss_channel, params.cz_loss_bright, "bright"),
             _transfer(ch.decay, params.cz_decay),
             _mixture(_CZ_FLIPS[params.cz_phaseflip_mode],
                      params.cz_phaseflip)]
    if params.cz_phaseshift != 0.0:
        c0, c1, c2 = _shift_basis()
        d = params.cz_phaseshift
        steps.append(c0 + math.cos(d) * c1 + math.sin(d) * c2)
    return steps


def _decoherence_steps(t: float, params: NoiseParams) -> list:
    """Idle T1/T2* decoherence over t as its direct action on a site: a
    fraction d1 of the populations stays and the rest refills at
    equilibrium, the coherence is scaled by d2, the loss states stay."""
    d1, d2 = ch.idle_decay(t, params)
    p0 = params.p0_equilibrium
    m = np.diag([d1, d1, 1.0, 1.0, d2, d2])
    m[0, :2] += p0 * (1.0 - d1)
    m[1, :2] += (1.0 - p0) * (1.0 - d1)
    return [m]


# idle T1/T2* decoherence, alone or attached to any operator, reads the
# first fields; the cz operator's own channel steps read CZ_FIELDS
_DECOHERENCE_FIELDS = ("t1", "t2_star", "p0_equilibrium")
CZ_FIELDS = ("cz_loss_dark", "cz_loss_bright", "cz_decay", "cz_phaseflip_mode",
             "cz_phaseflip", "cz_phaseshift")

# each operator's channel steps, steps(*args, params), and the NoiseParams
# fields they read: a cached operator is valid while those values hold
_STEPS = {
    "grot": (_grot_steps, ("uw_depol_per_pi",)),
    "rz": (_rz_steps, ("rz_phaseflip_per_pi", "rz_decay_per_pi",
                       "rz_loss_dark_per_pi", "rz_loss_bright_per_pi")),
    "cz": (_cz_steps, CZ_FIELDS),
    "decoherence": (_decoherence_steps, _DECOHERENCE_FIELDS),
    "preparation": (lambda params: [_mixture(ch.bit_flip, params.prep_error)],
                    ("prep_error",)),
}

FUSED_CACHE_SIZE = 1024
_fused_lock = threading.Lock()
_fused_ops: dict = {}  # (name, args, idle) -> (NoiseParams, op)


def _fields(name: str, idle) -> tuple:
    """The NoiseParams fields that the operator of `name` reads, with its
    idle decoherence unless idle is None."""
    fields = _STEPS[name][1]
    return fields if idle is None else fields + _DECOHERENCE_FIELDS


def _steps(name: str, args: tuple, params: NoiseParams, idle) -> list:
    """The channel steps of `name`, then (unless idle is None) idle
    decoherence over `idle` seconds on each of its sites."""
    steps = list(_STEPS[name][0](*args, params))
    if idle is not None:
        steps += _decoherence_steps(idle, params)
    return steps


def _fused(name: str, args: tuple, params: NoiseParams, idle=None
           ) -> np.ndarray:
    """The steps of `name` fused into one op, then (unless idle is None)
    idle decoherence over `idle` seconds on each of its sites.

    Built on first use and then cached, one entry per (name, args, idle)
    holding the operator and the NoiseParams it was built under.  A lookup
    hits when the fields the operator reads (``_fields``) have equal values;
    otherwise it rebuilds the operator and replaces the entry, so a fit with
    only ``cz`` rates free rebuilds only the ``cz`` operator.  The entry
    keeps the immutable record, not a tuple of its values, so a table of one
    NoiseParams value holds no copies.  A full table is emptied, so at most
    FUSED_CACHE_SIZE operators are held.  Sweep threads share the table.
    """
    key = (name, args, idle)
    with _fused_lock:
        entry = _fused_ops.get(key)
        if entry is not None and (entry[0] is params or all(
                getattr(entry[0], f) == getattr(params, f)
                for f in _fields(name, idle))):
            return entry[1]
        if entry is None and len(_fused_ops) >= FUSED_CACHE_SIZE:
            _fused_ops.clear()
        op = fuse(_steps(name, args, params, idle))
        _fused_ops[key] = (params, op)
    return op


def native_op(g: Gate, params: NoiseParams, decohere: bool = True
              ) -> np.ndarray:
    """The cached fused operator of native gate g; g checked itself when made.

    It acts on one site for ``rz`` (and on each site in turn for ``grot``)
    and on the ordered pair for ``cz``; it does not depend on ``g.sites``.
    With decohere, it ends in idle decoherence over ``gate_duration(g)``.
    """
    if not g.is_native:
        raise ValidationError(f"non-native gate {g.name!r}")
    idle = gate_duration(g, params) if decohere else None
    return _fused(g.name, g.params, params, idle)


def apply_gate(state: QuquartState, g: Gate, params: NoiseParams,
               decohere: bool = True) -> QuquartState:
    """Apply native gate g with its noise: a ``grot`` to every site, an
    ``rz`` or ``cz`` to its own sites."""
    op = native_op(g, params, decohere)
    if g.name == "grot":
        return state.apply_global_unitary(op)
    return state.apply_channel(g.sites, op)


def apply_decoherence(state: QuquartState, t: float, params: NoiseParams
                      ) -> QuquartState:
    """Idle T1/T2* decoherence over time t on every site."""
    if t > 0.0:
        state.apply_global_unitary(_fused("decoherence", (t,), params))
    return state


def apply_preparation(state: QuquartState, params: NoiseParams) -> QuquartState:
    """Independent bit-flip preparation error on every site; run at t=0."""
    if params.prep_error > 0.0:
        state.apply_global_unitary(_fused("preparation", (), params))
    return state
