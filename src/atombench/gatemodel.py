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
is the product of its channels in this order, one cached read-only float64
array (6x6 on the ``rz`` site or on every ``grot`` site, 36x36 on the
``cz`` pair), and ``apply_gate(state, g, params)`` applies it.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from . import channels as ch
from .channels import KrausSet, NoiseParams
from .circuit import Gate, gate_duration
from .errors import ValidationError
from .state import QuquartState, fuse


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


def _grot_steps(phi: float, theta: float, params: NoiseParams) -> list:
    steps = [KrausSet((global_rotation_matrix(phi, theta),), label="grot")]
    p = ch.scaled_probability(params.uw_depol_per_pi, theta)
    if p > 0.0:
        steps.append(ch.depolarization(p))
    return steps


def _rz_steps(theta: float, params: NoiseParams) -> list:
    scale = lambda r: ch.scaled_probability(r, theta)
    return [
        KrausSet((rz_matrix(theta),), label="rz"),
        ch.phase_flip(scale(params.rz_phaseflip_per_pi)),
        ch.decay(scale(params.rz_decay_per_pi)),
        ch.loss_channel(scale(params.rz_loss_dark_per_pi), "dark"),
        ch.loss_channel(scale(params.rz_loss_bright_per_pi), "bright"),
    ]


def _cz_steps(params: NoiseParams) -> list:
    """Steps on a pair, each channel listed once: a one-site step (loss,
    decay, a per-site phase flip) acts on both sites when fused."""
    steps = [KrausSet((ch.controlled_phase_matrix(-1.0),), label="cz"),
             ch.loss_channel(params.cz_loss_dark, "dark"),
             ch.loss_channel(params.cz_loss_bright, "bright"),
             ch.decay(params.cz_decay)]
    if params.cz_phaseflip_mode == "conditional":
        steps.append(ch.conditional_phase_flip(params.cz_phaseflip))
    elif params.cz_phaseflip_mode == "correlated":
        steps.append(ch.correlated_phase_flip(params.cz_phaseflip))
    else:
        steps.append(ch.phase_flip(params.cz_phaseflip))
    if params.cz_phaseshift != 0.0:
        shift = ch.controlled_phase_matrix(np.exp(1j * params.cz_phaseshift))
        steps.append(KrausSet((shift,), label="cz_phaseshift"))
    return steps


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
    "decoherence": (ch.decoherence, _DECOHERENCE_FIELDS),
    "preparation": (lambda params: [ch.bit_flip(params.prep_error)],
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
        steps += ch.decoherence(idle, params)
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
