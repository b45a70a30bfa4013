"""Noisy native gates: ideal unitary first, then the gate's error channels,
then idle decoherence.

Gate error channels follow the fixed ordering: the unitary itself, then
(for the microwave gate) depolarization, (for the local Rz) phase-flip,
decay and both loss channels, (for the CZ) loss channels, decay, phase-flip
and the conditional-phase offset; T1/T2* decoherence is always last.

The CZ phase-flip is applied either as one correlated ZZ flip or as an
independent flip on each site, selected by ``NoiseParams.cz_phaseflip_mode``.
The Table-derived conditional phase offset is coherent: diag(1,1,1,e^{i d})
on the computational block of the pair.

Each noisy gate is one SymbolOp, the product of its channels in this order
(6x6 on the ``rz`` site or on every ``grot`` site, 36x36 on the ``cz`` pair),
cached per (gate, angles, NoiseParams) for one NoiseParams value at a time.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from . import channels as ch
from .channels import KrausSet, NoiseParams
from .state import QuquartState, SymbolOp, fuse


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


def cz_matrix() -> np.ndarray:
    """16x16 controlled-Z on the computational block of a site pair."""
    u = np.eye(16, dtype=complex)
    u[5, 5] = -1.0  # |11><11|
    return u


def cz_phaseshift_matrix(delta: float) -> np.ndarray:
    """Coherent conditional-phase offset diag(1, 1, 1, e^{i delta})."""
    u = np.eye(16, dtype=complex)
    u[5, 5] = np.exp(1j * delta)
    return u


FUSED_CACHE_SIZE = 1024
_fused_lock = threading.Lock()
_fused_table: tuple = (None, {})  # (NoiseParams value, {key: SymbolOp})


def _fused(build, args: tuple, params: NoiseParams) -> SymbolOp:
    """build(*args, params), built on first use and then cached.

    The table of one NoiseParams value is kept: a lookup under another value
    starts a new one, and a full table is emptied, so at most
    FUSED_CACHE_SIZE operators are held.  An operator depends on its build
    function, arguments and params alone, so sweep threads share the table.
    """
    global _fused_table
    key = (build, *args)
    with _fused_lock:
        owner, ops = _fused_table
        if owner is not params and owner != params:
            owner, ops = _fused_table = (params, {})
        op = ops.get(key)
        if op is None:
            if len(ops) >= FUSED_CACHE_SIZE:
                ops.clear()
            op = ops[key] = build(*args, params)
    return op


def _grot_op(phi: float, theta: float, decohere: bool,
             params: NoiseParams) -> SymbolOp:
    steps = [KrausSet((global_rotation_matrix(phi, theta),), label="grot")]
    p = ch.scaled_probability(params.uw_depol_per_pi, theta)
    if p > 0.0:
        steps.append(ch.depolarization(p))
    if decohere:
        steps += ch.decoherence(params.dur_uw_pi * abs(theta) / math.pi, params)
    return fuse(steps, "grot")


def _rz_op(theta: float, decohere: bool, params: NoiseParams) -> SymbolOp:
    scale = lambda r: ch.scaled_probability(r, theta)
    steps = [
        KrausSet((rz_matrix(theta),), label="rz"),
        ch.phase_flip(scale(params.rz_phaseflip_per_pi)),
        ch.decay(scale(params.rz_decay_per_pi)),
        ch.loss_channel(scale(params.rz_loss_dark_per_pi), "dark"),
        ch.loss_channel(scale(params.rz_loss_bright_per_pi), "bright"),
    ]
    if decohere:
        steps += ch.decoherence(params.dur_rz_pi * abs(theta) / math.pi, params)
    return fuse(steps, "rz")


def _cz_op(decohere: bool, params: NoiseParams) -> SymbolOp:
    """36x36 CZ on a pair; one-site steps are (channel, 0 or 1)."""
    steps = [KrausSet((cz_matrix(),), label="cz")]
    for target, p in (("dark", params.cz_loss_dark),
                      ("bright", params.cz_loss_bright)):
        loss = ch.loss_channel(p, target)
        steps += [(loss, 0), (loss, 1)]
    dec = ch.decay(params.cz_decay)
    steps += [(dec, 0), (dec, 1)]
    if params.cz_phaseflip_mode == "conditional":
        steps.append(ch.conditional_phase_flip(params.cz_phaseflip))
    elif params.cz_phaseflip_mode == "correlated":
        steps.append(ch.correlated_phase_flip(params.cz_phaseflip))
    else:
        pf = ch.phase_flip(params.cz_phaseflip)
        steps += [(pf, 0), (pf, 1)]
    if params.cz_phaseshift != 0.0:
        steps.append(KrausSet((cz_phaseshift_matrix(params.cz_phaseshift),),
                              label="cz_phaseshift"))
    if decohere:
        for i in (0, 1):
            steps += [(k, i) for k in ch.decoherence(params.dur_cz, params)]
    return fuse(steps, "cz")


def _decoherence_op(t: float, params: NoiseParams) -> SymbolOp:
    return fuse(ch.decoherence(t, params), "decoherence")


def _preparation_op(params: NoiseParams) -> SymbolOp:
    return fuse([ch.bit_flip(params.prep_error)], "preparation")


def apply_decoherence(state: QuquartState, t: float, params: NoiseParams,
                      sites=None) -> QuquartState:
    """Idle T1/T2* decoherence over time t on the given sites (default all)."""
    if t <= 0.0:
        return state
    op = _fused(_decoherence_op, (t,), params)
    if sites is None:
        return state.apply_global_unitary(op)
    for s in sites:
        state.apply_channel((s,), op)
    return state


def apply_noisy_global_rotation(state: QuquartState, phi: float, theta: float,
                                params: NoiseParams, decohere: bool = True
                                ) -> QuquartState:
    op = _fused(_grot_op, (phi, theta, decohere), params)
    return state.apply_global_unitary(op)


def apply_noisy_local_rz(state: QuquartState, site: int, theta: float,
                         params: NoiseParams, decohere: bool = True
                         ) -> QuquartState:
    op = _fused(_rz_op, (theta, decohere), params)
    return state.apply_channel((site,), op)


def apply_noisy_cz(state: QuquartState, site_a: int, site_b: int,
                   params: NoiseParams, decohere: bool = True) -> QuquartState:
    op = _fused(_cz_op, (decohere,), params)
    return state.apply_channel((site_a, site_b), op)


def apply_preparation(state: QuquartState, params: NoiseParams) -> QuquartState:
    """Independent bit-flip preparation error on every site; run at t=0."""
    if params.prep_error > 0.0:
        state.apply_global_unitary(_fused(_preparation_op, (), params))
    return state
