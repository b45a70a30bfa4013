"""Noisy native gates against the dense reference engine and frozen values."""

import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

import dense_ref
from atombench import channels as ch
from atombench import gatemodel
from atombench.bench import BenchmarkSpec, generate
from atombench.channels import KrausSet, NoiseParams, controlled_phase_matrix
from atombench.circuit import Gate, cz, gate_duration, grot, rz
from atombench.errors import ParameterRegimeError, ValidationError
from atombench.fit import FitProblem, fit_noise_params
from atombench.gatemodel import (
    FUSED_CACHE_SIZE,
    apply_decoherence,
    apply_gate,
    apply_preparation,
    global_rotation_matrix,
    native_op,
    rz_matrix,
)
from atombench.runner import run_reference
from atombench.state import QuquartState, kraus_matrix, pair_kron

NP = NoiseParams()
IDEAL_PULSE = NP.replace(uw_depol_per_pi=0.0, dur_uw_pi=1e-30)


def _minus_states(n):
    """|-...-> register prepared with an ideal Ry(-pi/2) global pulse."""
    st = QuquartState(n)
    apply_gate(st, grot(-np.pi / 2, np.pi / 2), IDEAL_PULSE)
    return st


def test_noiseless_gates_are_pure_unitaries():
    p = NoiseParams.noiseless()
    st = QuquartState(2)
    apply_gate(st, grot(0.4, 1.3), p)
    apply_gate(st, rz(1, -2.1), p)
    apply_gate(st, cz(0, 1), p)
    u = controlled_phase_matrix(-1.0) @ np.kron(np.eye(4), rz_matrix(-2.1)) \
        @ np.kron(global_rotation_matrix(0.4, 1.3),
                  global_rotation_matrix(0.4, 1.3))
    rho0 = np.zeros((16, 16), dtype=complex)
    rho0[0, 0] = 1.0
    assert np.max(np.abs(dense_ref.to_dense(st) - u @ rho0 @ u.conj().T)) < 1e-12


def test_noisy_cz_frozen_reference():
    # Dense-reference values for a default-noise CZ on |-->, frozen.
    st = _minus_states(2)
    apply_gate(st, cz(0, 1), NP)
    dense = dense_ref.to_dense(st)
    diag = np.real(np.diag(dense))
    expect = [0.25001001, 0.23838027, 0.00450009, 0.00711964, 0.23838027,
              0.22729151]
    assert np.allclose(diag[:6], expect, atol=1e-8)
    assert dense[0, 5] == pytest.approx(-0.22257866313013855
                                        - 0.0004451579198043011j, abs=1e-9)


def test_noisy_rz_frozen_reference():
    st = _minus_states(1)
    apply_gate(st, rz(0, np.pi), NP)
    dense = dense_ref.to_dense(st)
    assert dense[0, 0].real == pytest.approx(4.99999628e-01, abs=1e-9)
    assert dense[0, 1].real == pytest.approx(4.92800078e-01, abs=1e-9)
    assert dense[2, 2].real == pytest.approx(9.49999981e-05, abs=1e-12)
    assert dense[3, 3].real == pytest.approx(1.34974347e-04, abs=1e-12)


def test_gates_match_dense_reference():
    rng = np.random.default_rng(21)
    p = NoiseParams()
    st = QuquartState(3)
    rho = dense_ref.initial_rho(3)
    apply_preparation(st, p)
    rho = dense_ref.apply_preparation(rho, p)
    for _ in range(12):
        r = rng.integers(3)
        if r == 0:
            phi, th = rng.uniform(-np.pi, np.pi, size=2)
            apply_gate(st, grot(phi, th), p)
            rho = dense_ref.apply_grot(rho, phi, th, p)
        elif r == 1:
            s, th = int(rng.integers(3)), float(rng.uniform(-2 * np.pi, 2 * np.pi))
            apply_gate(st, rz(s, th), p)
            rho = dense_ref.apply_rz(rho, s, th, p)
        else:
            a, b = map(int, rng.choice(3, 2, replace=False))
            apply_gate(st, cz(a, b), p)
            rho = dense_ref.apply_cz(rho, a, b, p)
    assert np.max(np.abs(dense_ref.to_dense(st) - dense_ref.to_matrix(rho))) < 1e-12


def test_cz_phaseflip_modes_differ():
    outs = {}
    for mode in ("conditional", "correlated", "per_site"):
        st = _minus_states(2)
        apply_gate(st, cz(0, 1), NP.replace(cz_phaseflip_mode=mode))
        outs[mode] = dense_ref.to_dense(st)
    assert np.max(np.abs(outs["conditional"] - outs["correlated"])) > 1e-4
    assert np.max(np.abs(outs["correlated"] - outs["per_site"])) > 1e-4


def test_decoherence_equilibrium_on_register():
    st = _minus_states(2)
    apply_decoherence(st, 1e6 * NP.t1, NP)
    red = dense_ref.reduced_qubit_density(st)
    expect = np.kron(np.diag([0.42, 0.58]), np.diag([0.42, 0.58]))
    assert np.max(np.abs(red - expect)) < 1e-9


def test_decoherence_site_scoping():
    # an rz decoheres only its own site: a 1 ms pi pulse on site 0 with
    # its error channels switched off
    p = NP.replace(rz_phaseflip_per_pi=0.0, rz_loss_dark_per_pi=0.0,
                   rz_loss_bright_per_pi=0.0, rz_decay_per_pi=0.0,
                   dur_rz_pi=1e-3)
    st = _minus_states(2)
    apply_gate(st, rz(0, np.pi), p)
    dense = dense_ref.to_dense(st)
    # site 1 coherence untouched, site 0 coherence damped by exp(-t/T2*)
    d2 = np.exp(-1e-3 / NP.t2_star)
    # site-0 diagonal relaxes slightly under T1; site-1 coherence untouched
    assert abs(dense[0, 1]) == pytest.approx(0.25, abs=1e-5)
    assert abs(dense[0, 4]) == pytest.approx(0.25 * d2, abs=1e-6)


def test_native_op_ignores_sites():
    assert native_op(rz(0, 0.7), NP) is native_op(rz(3, 0.7), NP)
    assert native_op(cz(0, 1), NP) is native_op(cz(1, 0), NP)


def test_apply_gate_rejects_non_native_gate():
    st = _minus_states(1)
    before = st.blocks.copy()
    # an abstract gate, then native gates with too few parameters, which are
    # rejected when they are made
    for g in (("h", (0,)), ("rz", (0,), ()), ("grot", (), (1.0,))):
        with pytest.raises(ValidationError):
            apply_gate(st, Gate(*g), NP)
    assert np.array_equal(st.blocks, before)


def test_preparation_error_distribution():
    st = QuquartState(2)
    apply_preparation(st, NP)
    p = NP.prep_error
    dist = dense_ref.ququart_distribution(st)
    assert dist["0 0"] == pytest.approx((1 - p) ** 2)
    assert dist["1 1"] == pytest.approx(p**2)


# Rates raised so that every channel of a fused gate moves the state well
# above the 1e-12 tolerance.
STRONG = NP.replace(uw_depol_per_pi=0.02, rz_phaseflip_per_pi=0.03,
                    rz_loss_dark_per_pi=0.02, rz_loss_bright_per_pi=0.03,
                    rz_decay_per_pi=0.01, cz_phaseflip=0.08,
                    cz_loss_dark=0.05, cz_loss_bright=0.07, cz_decay=0.02,
                    cz_phaseshift=0.3, prep_error=0.05, dur_uw_pi=2e-5,
                    dur_rz_pi=1e-4, dur_cz=2e-4)

FUSED_CASES = (
    [pytest.param(g, STRONG, d, id=f"{g}-decohere{d}")
     for g in ("grot", "rz") for d in (True, False)]
    + [pytest.param("cz", STRONG.replace(cz_phaseflip_mode=mode,
                                         cz_phaseshift=shift), d,
                    id=f"cz-{mode}-shift{shift}-decohere{d}")
       for mode in ("conditional", "correlated", "per_site")
       for shift in (0.0, 0.3) for d in (True, False)]
    + [pytest.param(g, STRONG, True, id=g)
       for g in ("layer_decoherence", "preparation")]
)


@pytest.mark.parametrize("gate,params,decohere", FUSED_CASES)
def test_fused_gate_equals_unfused_kraus_sequence(gate, params, decohere):
    # a mixed 2-site start with coherences and both loss levels populated
    st, rho = QuquartState(2), dense_ref.initial_rho(2)
    apply_preparation(st, STRONG)
    apply_gate(st, grot(0.3, 1.1), STRONG)
    apply_gate(st, cz(0, 1), STRONG)
    apply_gate(st, rz(1, 0.7), STRONG)
    rho = dense_ref.apply_preparation(rho, STRONG)
    rho = dense_ref.apply_grot(rho, 0.3, 1.1, STRONG)
    rho = dense_ref.apply_cz(rho, 0, 1, STRONG)
    rho = dense_ref.apply_rz(rho, 1, 0.7, STRONG)

    if gate == "grot":
        apply_gate(st, grot(-0.4, 2.3), params, decohere)
        rho = dense_ref.apply_grot(rho, -0.4, 2.3, params, decohere)
    elif gate == "rz":
        apply_gate(st, rz(0, -1.9), params, decohere)
        rho = dense_ref.apply_rz(rho, 0, -1.9, params, decohere)
    elif gate == "cz":
        apply_gate(st, cz(1, 0), params, decohere)
        rho = dense_ref.apply_cz(rho, 1, 0, params, decohere)
    elif gate == "layer_decoherence":
        apply_decoherence(st, 7e-4, params)
        rho = dense_ref.apply_decoherence(rho, 7e-4, params)
    else:
        apply_preparation(st, params)
        rho = dense_ref.apply_preparation(rho, params)
    assert np.max(np.abs(dense_ref.to_dense(st) - dense_ref.to_matrix(rho))) < 1e-12


def test_fused_cache_stays_bounded():
    # many NoiseParams values: every objective evaluation of a fit
    circuit, _ = generate(BenchmarkSpec("Ghz", 2))
    problem = FitProblem([(circuit, run_reference(circuit, NP))],
                         free_params=("cz_phaseflip",), n_starts=1,
                         max_evals=30)
    fit_noise_params(problem)
    assert len(gatemodel._fused_ops) <= FUSED_CACHE_SIZE
    # many angles under one value: 500 random phi, then more rz angles
    # than the cache holds
    st = QuquartState(1)
    for phi in np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, 500):
        apply_gate(st, grot(float(phi), np.pi), NP)
    assert len(gatemodel._fused_ops) <= FUSED_CACHE_SIZE
    for theta in np.linspace(0.1, 3.0, FUSED_CACHE_SIZE + 50):
        apply_gate(st, rz(0, float(theta)), NP)
        assert len(gatemodel._fused_ops) <= FUSED_CACHE_SIZE


# Each differs from NP in one cz field alone and shares its durations, so
# the cz operator of NP serves it only if the cache ignores that field.
ONE_CZ_FIELD = [NP.replace(**{f: getattr(STRONG, f)})
                for f in NoiseParams.__dataclass_fields__
                if f.startswith("cz_") and f != "cz_phaseflip_mode"
                ] + [NP.replace(cz_phaseflip_mode="per_site")]


def test_fused_cache_is_thread_safe():
    # threads alternate between NP and other NoiseParams values, so cached
    # operators are replaced while other threads look up and build; an
    # operator stored under the wrong value would move a final state off the
    # dense reference
    def gates(i):
        for k in range(15):
            yield "grot", (0.1 * k, 1.0 + 0.01 * i)
            yield "cz", (0, 1)
            yield "rz", (1, 0.3 * k + 0.01 * i)

    others = [STRONG, *ONE_CZ_FIELD]

    def params(i):
        return NP if i % 2 == 0 else others[(i // 2) % len(others)]

    def run(i):
        p, st = params(i), QuquartState(2)
        make = {"grot": grot, "cz": cz, "rz": rz}
        for name, args in gates(i):
            apply_gate(st, make[name](*args), p)
        return dense_ref.to_dense(st)

    def reference(i):
        p, rho = params(i), dense_ref.initial_rho(2)
        apply = {"grot": dense_ref.apply_grot, "cz": dense_ref.apply_cz,
                 "rz": dense_ref.apply_rz}
        for name, args in gates(i):
            rho = apply[name](rho, *args, p)
        return dense_ref.to_matrix(rho)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            got = list(pool.map(run, range(16), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for i, have in enumerate(got):
        assert np.max(np.abs(have - reference(i))) < 1e-12, i
    assert len(gatemodel._fused_ops) <= FUSED_CACHE_SIZE


class _ReadRecorder:
    """A NoiseParams stand-in that records which fields are read."""

    def __init__(self, params):
        self.params, self.read = params, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self.params, name)


OPERATORS = [("grot", (0.3, 1.1)), ("rz", (0.7,)), ("cz", ()),
             ("decoherence", (7e-4,)), ("preparation", ())]


def _changed(params, field):
    if field == "cz_phaseflip_mode":
        return params.replace(cz_phaseflip_mode="per_site")
    return params.replace(**{field: 1.1 * getattr(params, field)})


@pytest.mark.parametrize("idle", [None, 3e-6])
@pytest.mark.parametrize("name,args", OPERATORS)
def test_fused_op_reads_only_its_declared_fields(name, args, idle):
    for params in (STRONG, STRONG.replace(cz_phaseflip_mode="correlated"),
                   STRONG.replace(cz_phaseflip_mode="per_site",
                                  cz_phaseshift=0.0)):
        recorder = _ReadRecorder(params)
        gatemodel._steps(name, args, recorder, idle)
        assert recorder.read <= set(gatemodel._fields(name, idle))


@pytest.mark.parametrize("idle", [None, 3e-6])
@pytest.mark.parametrize("name,args", OPERATORS)
def test_fused_op_is_rebuilt_only_for_its_declared_fields(name, args, idle):
    declared = gatemodel._fields(name, idle)
    for field in NoiseParams.__dataclass_fields__:
        op = gatemodel._fused(name, args, STRONG, idle)
        other = gatemodel._fused(name, args, _changed(STRONG, field), idle)
        if field in declared:
            assert not np.array_equal(other, op), field
        else:
            assert other is op, field


@pytest.mark.parametrize("name,args", OPERATORS)
def test_every_native_op_is_float64(name, args):
    for mode in ("conditional", "correlated", "per_site"):
        params = STRONG.replace(cz_phaseflip_mode=mode, cz_phaseshift=0.3)
        for idle in (None, 3e-6):
            op = gatemodel._fused(name, args, params, idle)
            assert op.dtype == np.float64, (mode, idle)
            assert not op.flags.writeable, (mode, idle)


# -- every op against the op of its Kraus form ---------------------------------

MIXTURES = [ch.depolarization, ch.phase_flip, ch.bit_flip,
            ch.correlated_phase_flip, ch.conditional_phase_flip]
TRANSFERS = [(ch.decay, ()), (ch.loss_channel, ("dark",)),
             (ch.loss_channel, ("bright",))]
OP_ATOL = 1e-13


def _rates(seed):
    return [0.0, 1.0, *np.random.default_rng(seed).uniform(0.0, 1.0, 20),
            1e-12, 1.0 - 1e-12]


def _kraus_op(channels) -> np.ndarray:
    """The product of Kraus channels in order, each converted on its own
    and, in a pair op, a one-site channel applied to both sites."""
    ops = [kraus_matrix(k) for k in channels]
    width = max(len(op) for op in ops)
    m = np.eye(width)
    for op in ops:
        m = (op if len(op) == width else pair_kron(op, op)) @ m
    return m


def _kraus_steps(name, args, params, idle):
    """The Kraus channels of an op, as the op's builder once listed them."""
    if name == "grot":
        phi, theta = args
        steps = [KrausSet((global_rotation_matrix(phi, theta),))]
        p = ch.scaled_probability(params.uw_depol_per_pi, theta)
        steps += [ch.depolarization(p)] if p > 0.0 else []
    elif name == "rz":
        scale = lambda r: ch.scaled_probability(r, args[0])
        steps = [KrausSet((rz_matrix(args[0]),)),
                 ch.phase_flip(scale(params.rz_phaseflip_per_pi)),
                 ch.decay(scale(params.rz_decay_per_pi)),
                 ch.loss_channel(scale(params.rz_loss_dark_per_pi), "dark"),
                 ch.loss_channel(scale(params.rz_loss_bright_per_pi), "bright")]
    elif name == "cz":
        flip = {"conditional": ch.conditional_phase_flip,
                "correlated": ch.correlated_phase_flip,
                "per_site": ch.phase_flip}[params.cz_phaseflip_mode]
        steps = [KrausSet((controlled_phase_matrix(-1.0),)),
                 ch.loss_channel(params.cz_loss_dark, "dark"),
                 ch.loss_channel(params.cz_loss_bright, "bright"),
                 ch.decay(params.cz_decay), flip(params.cz_phaseflip)]
        if params.cz_phaseshift != 0.0:
            steps.append(KrausSet((controlled_phase_matrix(
                np.exp(1j * params.cz_phaseshift)),)))
    elif name == "decoherence":
        steps = list(dense_ref.decoherence(args[0], params))
    else:
        steps = [ch.bit_flip(params.prep_error)]
    if idle is not None:
        steps += dense_ref.decoherence(idle, params)
    return steps


def test_every_channel_op_equals_its_kraus_op():
    for make in MIXTURES:
        for p in _rates(1):
            want = kraus_matrix(make(p))
            have = gatemodel._mixture(make, p)
            assert np.max(np.abs(have - want)) <= OP_ATOL, (make.__name__, p)
    for make, args in TRANSFERS:
        for p in _rates(2):
            want = kraus_matrix(make(p, *args))
            have = gatemodel._transfer(make, p, *args)
            assert np.max(np.abs(have - want)) <= OP_ATOL, (make.__name__, p)
    c0, c1, c2 = gatemodel._shift_basis()
    for d in [math.pi, -math.pi / 2, 1e-9, *np.random.default_rng(3).uniform(
            -math.pi, math.pi, 20)]:
        want = kraus_matrix(KrausSet((controlled_phase_matrix(np.exp(1j * d)),)))
        have = c0 + math.cos(d) * c1 + math.sin(d) * c2
        assert np.max(np.abs(have - want)) <= OP_ATOL, d
    rng = np.random.default_rng(4)
    for p0 in (0.0, 0.42, 1.0):
        params = NP.replace(p0_equilibrium=p0)
        for t in [0.0, 1e-9, 1e3, *rng.uniform(0.0, 5e-3, 20)]:
            want = _kraus_op(dense_ref.decoherence(t, params))
            (have,) = gatemodel._decoherence_steps(t, params)
            assert np.max(np.abs(have - want)) <= OP_ATOL, (p0, t)


@pytest.mark.parametrize("name,args", OPERATORS)
def test_every_fused_op_equals_its_kraus_product(name, args):
    rng = np.random.default_rng(5)
    rates = NoiseParams.names("rate")
    drawn = [STRONG, NP, NoiseParams.noiseless()] + [
        NP.replace(**{f: float(rng.uniform(0.0, 0.3)) for f in rates},
                   cz_phaseshift=float(rng.uniform(-1.0, 1.0)))
        for _ in range(8)]
    for params in drawn:
        for mode in ("conditional", "correlated", "per_site"):
            p = params.replace(cz_phaseflip_mode=mode)
            for idle in (None, gate_duration(cz(0, 1), p), 7e-4):
                have = gatemodel._fused(name, args, p, idle)
                want = _kraus_op(_kraus_steps(name, args, p, idle))
                assert np.max(np.abs(have - want)) <= OP_ATOL, (mode, idle, p)


def test_inconsistent_t1_t2_star_raises_parameter_regime_error():
    # NoiseParams admits only t1 >= t2_star, for which the channel is CPTP
    # at every t; a record whose coherence outlives its populations is not
    bad = SimpleNamespace(t1=1e-3, t2_star=1.0, p0_equilibrium=0.42)
    with pytest.raises(ParameterRegimeError, match="t1/t2_star"):
        gatemodel._decoherence_steps(1e-3, bad)
    with pytest.raises(ParameterRegimeError, match="t1/t2_star"):
        dense_ref.decoherence(1e-3, bad)


def test_cz_rebuild_allocates_little():
    # a rebuild under a changed cz rate combines cached constants; rebuilt
    # from Kraus sets it peaked at about 600 KB of short-lived arrays, whose
    # pages malloc may hand back and fault in again on every evaluation
    idle = gate_duration(cz(0, 1), NP)
    for mode in ("conditional", "correlated", "per_site"):
        base = NP.replace(cz_phaseflip_mode=mode, cz_phaseshift=0.3)
        gatemodel._fused("cz", (), base, idle)
        changed = base.replace(cz_loss_dark=0.5 * base.cz_loss_dark)
        tracemalloc.start()
        try:
            op = gatemodel._fused("cz", (), changed, idle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not np.array_equal(op, gatemodel._fused("cz", (), base, idle))
        assert peak < 100_000, (mode, peak)
