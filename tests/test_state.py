"""Sparse block-structured density matrix: pattern, invariants, capacity."""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest

import dense_ref
from atombench import channels as ch
from atombench import gatemodel, state
from atombench.channels import KrausSet, NoiseParams, controlled_phase_matrix
from atombench.circuit import cz, gate_duration, grot, rz
from atombench.errors import CapacityError, PatternLeakError, ValidationError
from atombench.gatemodel import global_rotation_matrix, rz_matrix
from atombench.state import (DEFAULT_MEMORY_CAP, N_SYMBOLS, QUBIT_SYMBOLS,
                             SYMBOL_PAIRS, QuquartState, footprint, fuse,
                             kraus_matrix, pair_kron, symbol_matrix)

# the symbols of the populations |0>, |1>, |l0>, |l1>
_POPULATIONS = [SYMBOL_PAIRS.index((k, k)) for k in range(4)]


def test_initial_state():
    st = QuquartState(2)
    assert st.trace() == pytest.approx(1.0)
    assert dense_ref.dense_element(st, (0, 0), (0, 0)) == 1.0 + 0j
    assert dense_ref.ququart_distribution(st) == {"0 0": 1.0}


def test_set_pure_round_trip():
    rng = np.random.default_rng(3)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    st = dense_ref.set_pure(QuquartState(3), psi)
    dense = dense_ref.to_dense(st)
    expect = np.zeros((64, 64), dtype=complex)
    # embed the 2^3 computational state into the 4^3 site space
    idx = [int("".join(str(b) for b in bits), 4)
           for bits in np.ndindex(2, 2, 2)]
    sub = np.outer(psi, psi.conj())
    for i, a in enumerate(idx):
        for j, b in enumerate(idx):
            expect[a, b] = sub[i, j]
    assert np.max(np.abs(dense - expect)) < 1e-12


def test_set_pure_rejects_unnormalized():
    with pytest.raises(ValidationError):
        dense_ref.set_pure(QuquartState(1), np.array([1.0, 1.0]))


def _op(channel):
    return kraus_matrix(channel)


def _unitary(u):
    return _op(KrausSet((u,), label="unitary"))


def test_site_unitary_matches_dense_conjugation():
    st = QuquartState(2)
    st.apply_channel((0,), _unitary(global_rotation_matrix(0.3, 1.1)))
    st.apply_channel((1,), _unitary(global_rotation_matrix(-0.7, 0.4)))
    st.apply_channel((1,), _unitary(rz_matrix(2.2)))
    u0 = global_rotation_matrix(0.3, 1.1)
    u1 = rz_matrix(2.2) @ global_rotation_matrix(-0.7, 0.4)
    u = np.kron(u0, u1)
    rho0 = np.zeros((16, 16), dtype=complex)
    rho0[0, 0] = 1.0
    assert np.max(np.abs(dense_ref.to_dense(st) - u @ rho0 @ u.conj().T)) < 1e-12


def test_global_unitary_equals_per_site():
    u = global_rotation_matrix(0.9, -0.6)
    a = QuquartState(3).apply_global_unitary(_unitary(u))
    b = QuquartState(3)
    for s in range(3):
        b.apply_channel((s,), _unitary(u))
    assert np.max(np.abs(a.blocks - b.blocks)) < 1e-13


def test_site_unitary_must_fix_loss_subspace():
    u = np.eye(4, dtype=complex)[[0, 2, 1, 3]]  # swaps |1> and |l0>
    with pytest.raises(PatternLeakError):
        _unitary(u)


def test_out_of_pattern_elements_are_exact_zero():
    st = QuquartState(2)
    st.apply_global_unitary(_unitary(global_rotation_matrix(0.0, np.pi / 2)))
    st.apply_channel((0,), _op(ch.loss_channel(0.3, "dark")))
    st.apply_channel((1,), _op(ch.loss_channel(0.2, "bright")))
    pattern = set(SYMBOL_PAIRS)
    for r0 in range(4):
        for c0 in range(4):
            for r1 in range(4):
                for c1 in range(4):
                    v = dense_ref.dense_element(st, (r0, r1), (c0, c1))
                    if (r0, c0) not in pattern or (r1, c1) not in pattern:
                        assert v == 0j


def test_pattern_leak_detection():
    # A "unitary" that builds coherence between |1> and |l0> cannot be
    # represented in the 6-symbol pattern and must be rejected, not silently
    # truncated.
    u = np.eye(4, dtype=complex)
    c, s = np.cos(0.3), np.sin(0.3)
    u[1, 1], u[1, 2], u[2, 1], u[2, 2] = c, -s, s, c
    with pytest.raises(PatternLeakError):
        kraus_matrix(KrausSet((u,), label="leaky"))


def test_pattern_leak_detection_on_a_pair():
    # each site alone stays in its pattern, but |11> and |l0 l0> mix, which
    # makes coherence between |1> and |l0> on both sites
    u = np.eye(16, dtype=complex)
    c, s = np.cos(0.4), np.sin(0.4)
    a, b = 4 * 1 + 1, 4 * 2 + 2
    u[a, a], u[a, b], u[b, a], u[b, b] = c, -s, s, c
    with pytest.raises(PatternLeakError, match="pattern leakage"):
        kraus_matrix(KrausSet((u,), label="leaky pair"))
    assert _gathered(KrausSet((u,)))[1] > 0.1


def _gathered(channel: KrausSet) -> tuple:
    """(symbol matrix, leakage) of a channel by the two-gather formula that
    kraus_matrix used before its broadcast product: np.ix_ grids of
    the stored rows and columns, and of every entry outside the pattern."""
    rows = cols = None
    for _ in range(channel.n_sites):
        r1 = np.array([r for r, _ in SYMBOL_PAIRS])
        c1 = np.array([c for _, c in SYMBOL_PAIRS])
        rows = r1 if rows is None else (4 * rows[:, None] + r1).ravel()
        cols = c1 if cols is None else (4 * cols[:, None] + c1).ravel()
    stored = set(zip(rows.tolist(), cols.tolist()))
    out = np.array([(r, c) for r in range(channel.dim)
                    for c in range(channel.dim) if (r, c) not in stored])
    m = leak = 0
    for a in channel.operators:
        ac = a.conj()
        m = m + a[np.ix_(rows, rows)] * ac[np.ix_(cols, cols)]
        leak = leak + a[np.ix_(out[:, 0], rows)] * ac[np.ix_(out[:, 1], cols)]
    return m, float(np.max(np.abs(leak)))


def _random_site_channel(rng) -> list:
    """Kraus operators of a random channel on one site that keeps the
    pattern: a unitary on the computational block with loss phases,
    transfers of computational amplitude into one loss state and back, all
    normalized by (sum A^dag A)^(-1/2), which keeps that block form."""
    def cnormal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    block = np.zeros((4, 4), dtype=complex)
    block[:2, :2] = cnormal(2, 2)
    block[2, 2], block[3, 3] = np.exp(1j * rng.uniform(0, 6, size=2))
    into_loss = np.zeros((4, 4), dtype=complex)
    into_loss[int(rng.integers(2, 4)), :2] = 0.3 * cnormal(2)
    back = np.zeros((4, 4), dtype=complex)
    back[:2, int(rng.integers(2, 4))] = 0.3 * cnormal(2)
    ops = [block, into_loss, back]
    w, v = np.linalg.eigh(sum(a.conj().T @ a for a in ops))
    norm = v @ np.diag(w ** -0.5) @ v.conj().T
    return [a @ norm for a in ops]


def _random_pair_channel(rng) -> list:
    """A random unitary on the pair's computational block (the identity on
    every state with a loss level), mixed with the product of two random
    site channels."""
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(z)
    u = np.eye(16, dtype=complex)
    comp = [0, 1, 4, 5]
    u[np.ix_(comp, comp)] = q
    p = float(rng.uniform(0.1, 0.9))
    return [np.sqrt(1 - p) * u] + [
        np.sqrt(p) * np.kron(a, b) for a in _random_site_channel(rng)
        for b in _random_site_channel(rng)]


def _channels_of_every_constructor():
    for p in (0.0, 0.37, 1.0):
        yield from (ch.depolarization(p), ch.phase_flip(p), ch.bit_flip(p),
                    ch.loss_channel(p, "dark"), ch.loss_channel(p, "bright"),
                    ch.decay(p), ch.correlated_phase_flip(p),
                    ch.conditional_phase_flip(p))
    yield from dense_ref.decoherence(7e-4, NoiseParams())
    yield KrausSet((global_rotation_matrix(0.3, 1.1),), label="grot")
    yield KrausSet((rz_matrix(0.7),), label="rz")
    yield KrausSet((controlled_phase_matrix(-1.0),), label="cz")
    yield KrausSet((controlled_phase_matrix(np.exp(0.3j)),),
                   label="cz_phaseshift")


def test_from_kraus_equals_the_gathered_formula():
    rng = np.random.default_rng(31)
    channels = list(_channels_of_every_constructor())
    labels = {k.label for k in channels}
    assert {"depolarization", "phase_flip", "bit_flip", "loss_dark",
            "loss_bright", "decay", "correlated_phase_flip",
            "conditional_phase_flip", "decoherence_population", "grot", "rz",
            "cz", "cz_phaseshift"} <= labels
    channels += [KrausSet(_random_site_channel(rng), label="random site")
                 for _ in range(20)]
    channels += [KrausSet(_random_pair_channel(rng), label="random pair")
                 for _ in range(20)]
    for k in channels:
        m, leak = _gathered(k)
        assert leak <= 1e-12, (k.label, leak)
        expect = symbol_matrix(m, k.label)
        assert np.array_equal(kraus_matrix(k), expect), k.label


def test_trace_and_hermiticity_preserved_under_noise():
    rng = np.random.default_rng(9)
    st = QuquartState(3)
    p = NoiseParams()
    for _ in range(25):
        st.apply_channel((int(rng.integers(3)),), _op(ch.depolarization(0.05)))
        st.apply_channel((int(rng.integers(3)),),
                         _op(ch.loss_channel(0.02, "dark")))
        st.apply_global_unitary(_unitary(
            global_rotation_matrix(float(rng.uniform(-3, 3)),
                                   float(rng.uniform(-3, 3)))))
    assert st.trace() == pytest.approx(1.0, abs=1e-10)
    assert dense_ref.hermiticity_defect(dense_ref.symbols(st.blocks)) < 1e-10


def test_storage_is_six_symbols_per_site():
    for n in range(1, 5):
        st = QuquartState(n)
        assert st.blocks.shape == (N_SYMBOLS,) * n
        assert st.blocks.size == 6**n


def test_memory_cap():
    with pytest.raises(CapacityError):
        QuquartState(8, memory_cap=1 << 20)  # 6^8 float64s > 1 MiB
    QuquartState(4, memory_cap=1 << 20)      # 6^4 fits
    # both buffers, nothing else: the default cap admits 11 sites
    # (arithmetic only: an 11-site state takes about 5.8 GB)
    assert footprint(11) <= DEFAULT_MEMORY_CAP < footprint(12)
    assert footprint(4) == 2 * 8 * 6**4


def test_memory_cap_bounds_gate_peak():
    # with every fused op built, a gate allocates at most what the cap
    # charges beyond the state itself
    n, p = 6, NoiseParams()
    st = QuquartState(n)
    gatemodel.apply_preparation(st, p)
    gates = {
        "grot": lambda: gatemodel.apply_gate(st, grot(0.3, 0.9), p),
        "rz": lambda: gatemodel.apply_gate(st, rz(2, 0.7), p),
        "cz": lambda: gatemodel.apply_gate(st, cz(1, 4), p),
        "cz reversed": lambda: gatemodel.apply_gate(st, cz(4, 1), p),
        "decoherence": lambda: gatemodel.apply_decoherence(st, 2e-6, p),
        # the first and last axes of the buffer are never neighbours, so
        # this cz moves an axis of an already permuted state
        "cz moving an axis": lambda: gatemodel.apply_gate(
            st, cz(st.axes[0], st.axes[-1]), p),
    }
    for gate in gates.values():
        gate()
    gatemodel.apply_gate(st, cz(0, 5), p)
    gatemodel.apply_gate(st, cz(5, 2), p)
    assert st.axes != tuple(range(n))
    allowed = footprint(n) - st.blocks.nbytes
    tracemalloc.start()
    try:
        for name, gate in gates.items():
            before = st.axes
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            gate()
            peak = tracemalloc.get_traced_memory()[1] - base
            assert peak <= allowed, (name, peak, allowed)
    finally:
        tracemalloc.stop()
    assert st.axes != before  # the last case took the move path
    # and its copy went into the spare buffer, not into a new array
    assert peak < st.blocks.nbytes // 10, peak


@pytest.mark.parametrize("n", range(1, 8))
def test_check_matches_per_axis_reference(n):
    # a random tensor whose trace is of order one, as for a state
    rng = np.random.default_rng(n)
    blocks = rng.normal(size=(N_SYMBOLS,) * n) / 4**n
    st = QuquartState(n)
    st.blocks = blocks.copy()
    assert abs(st.trace() - dense_ref.trace(blocks)) < 1e-12
    assert np.array_equal(st.blocks, blocks)


def test_kernels_match_reference_on_every_site_and_ordered_pair():
    n = 4
    rng = np.random.default_rng(11)
    shape = (N_SYMBOLS,) * n
    blocks = rng.normal(size=shape)
    pair = rng.normal(size=(36, 36))
    one = rng.normal(size=(6, 6))
    cases = [(pair, s) for s in itertools.permutations(range(n), 2)]
    cases += [(one, (s,)) for s in range(n)]
    st = QuquartState(n)
    for matrix, sites in cases:
        st.blocks = blocks.copy()
        st._apply(matrix, sites)
        expect = dense_ref.apply_symbol_matrix(blocks, matrix, sites)
        assert np.max(np.abs(st.blocks - expect)) < 1e-12, sites


def _natural_diagonal(blocks):
    return blocks[np.ix_(*[_POPULATIONS] * blocks.ndim)]


@pytest.mark.parametrize("n", range(3, 7))
def test_random_sequences_carry_the_axis_order_between_passes(n):
    # every pass starts from the order the last one left, so a wrong order
    # would show up in a later pass, in any reader or in the check
    rng = np.random.default_rng(100 + n)
    ones = [_unitary(global_rotation_matrix(0.7, 1.9)), _unitary(rz_matrix(1.3)),
            _op(ch.loss_channel(0.2, "dark")), _op(ch.depolarization(0.1))]
    cz_op = _unitary(controlled_phase_matrix(-1.0))
    # different ops on the two sites, so a pair applied the wrong way round
    # gives a different state
    pairs = [cz_op, pair_kron(ones[0], ones[2]) @ cz_op
             @ pair_kron(ones[1], ones[3])]
    st, ref = QuquartState(n), np.zeros((N_SYMBOLS,) * n)
    ref[(0,) * n] = 1.0
    orders = set()
    for step in range(60):
        kind = rng.choice(["pair"] * 6 + ["site", "global", "product", "set"])
        if kind == "pair":
            sites = tuple(int(s) for s in rng.choice(n, 2, replace=False))
            op = pairs[int(rng.integers(2))]
            st.apply_channel(sites, op)
            ref = dense_ref.apply_symbol_matrix(ref, op, sites)
        elif kind == "site":
            s, op = int(rng.integers(n)), ones[int(rng.integers(4))]
            st.apply_channel((s,), op)
            ref = dense_ref.apply_symbol_matrix(ref, op, (s,))
        elif kind == "global":
            op = ones[int(rng.integers(4))]
            st.apply_global_unitary(op)
            for s in range(n):
                ref = dense_ref.apply_symbol_matrix(ref, op, (s,))
        elif kind == "product":
            vs = _site_vectors(rng, n)
            st.set_product(vs)
            ref = functools.reduce(np.kron, vs).reshape((N_SYMBOLS,) * n)
        else:
            ref = dense_ref.apply_symbol_matrix(
                functools.reduce(np.kron, _site_vectors(rng, n)).reshape(
                    (N_SYMBOLS,) * n), pairs[1], (n - 1, 0))
            st.blocks = ref.copy()
        if kind in ("product", "set"):
            assert st.axes == tuple(range(n))
        orders.add(st.axes)
        assert np.max(np.abs(st.blocks - ref)) < 1e-12, (step, kind)
        assert np.max(np.abs(st.diagonal() - _natural_diagonal(ref))) < 1e-12
        assert abs(st.trace() - dense_ref.trace(ref)) < 1e-12
    assert orders - {tuple(range(n))}, "no step left a permuted order"


def test_populations_come_first():
    # the diagonal is the first four symbols of every axis, in site-basis
    # order, and QUBIT_SYMBOLS names the qubit pairs 00, 01, 10, 11
    assert SYMBOL_PAIRS[:4] == tuple((k, k) for k in range(4))
    for i, s in enumerate(QUBIT_SYMBOLS):
        assert SYMBOL_PAIRS[s] == divmod(i, 2)


def test_diagonal_read_before_a_pass_is_unchanged_after_it():
    # each pass makes the buffer the diagonal was read from the spare,
    # which the trace check and the next pass overwrite
    op = _unitary(global_rotation_matrix(0.4, 1.3))
    st = QuquartState(3).apply_global_unitary(op)
    d = st.diagonal()
    before = d.copy()
    st.apply_channel((0,), _op(ch.loss_channel(0.2, "dark")))
    st.apply_channel((2, 0), _unitary(controlled_phase_matrix(-1.0)))
    st.apply_global_unitary(op)
    assert np.array_equal(d, before)
    assert not np.array_equal(st.diagonal(), before)


def test_blocks_setter_checks_the_shape():
    st = QuquartState(3)
    with pytest.raises(ValidationError):
        st.blocks = np.zeros((N_SYMBOLS,) * 2)


def test_injected_defect_is_caught():
    op = _unitary(global_rotation_matrix(0.4, 1.3))
    st = QuquartState(3).apply_global_unitary(op)
    st.blocks[3, 0, 0] += 1e-8
    with pytest.raises(PatternLeakError, match="trace"):
        st.apply_channel((2,), op)
    # rho -> U rho does not keep rho hermitian: its matrix on the symbols,
    # U_rk on (k, c) -> (r, c), is rejected when converted, on a site and
    # on a pair
    u = rz_matrix(0.8)
    left = np.array([[u[r, k] if c == c2 else 0.0 for k, c2 in SYMBOL_PAIRS]
                     for r, c in SYMBOL_PAIRS])
    for m in (left, pair_kron(left, np.eye(N_SYMBOLS))):
        with pytest.raises(PatternLeakError, match="hermitian"):
            symbol_matrix(m, "left multiplication")


def test_trace_check_rejects_nan():
    # abs(nan - 1) > atol is False: the check must not let a NaN trace pass
    with pytest.raises(PatternLeakError, match="trace"):
        QuquartState(2).apply_channel(
            (0,), np.full((N_SYMBOLS, N_SYMBOLS), np.nan))
    vs = _site_vectors(np.random.default_rng(0), 2)
    vs[1][0] = np.nan
    with pytest.raises(PatternLeakError, match="trace"):
        QuquartState(2).set_product(vs)


def test_fuse_converts_each_site_channel_once(monkeypatch):
    # a cz op with idle decoherence, rebuilt under many rates in every
    # phase-flip mode: each channel's constant ops are converted from its
    # Kraus form once, and a rebuild converts nothing.  The 15 conversions:
    # the cz unitary, each of the three transfers (loss dark and bright,
    # decay) at p = 0, 1 and 3/4, the three flips at p = 1, and the phase
    # shift at e^{i d} = 1 and i (at -1 it is the cz unitary).  Idle
    # decoherence is built from its direct action, and each one-site run
    # is lifted to the pair once
    for cached in (gatemodel._constant, gatemodel._transfer_basis,
                   gatemodel._shift_basis):
        monkeypatch.setattr(gatemodel, cached.__name__,
                            functools.cache(cached.__wrapped__))
    calls, convert = [], kraus_matrix
    monkeypatch.setattr(gatemodel, "kraus_matrix",
                        lambda channel: calls.append(channel) or convert(channel))
    lifts, lift = [], pair_kron
    monkeypatch.setattr(state, "pair_kron",
                        lambda a, b: lifts.append(a) or lift(a, b))
    rates = np.random.default_rng(2).uniform(0.0, 0.2, (20, 5))
    for mode in ("conditional", "correlated", "per_site"):
        for i, r in enumerate(rates):
            p = NoiseParams(cz_phaseflip_mode=mode, cz_phaseshift=r[0] - 0.1,
                            **dict(zip(gatemodel.CZ_FIELDS[:3], r[1:4])),
                            cz_phaseflip=r[4])
            before = len(calls)
            fuse(gatemodel._steps("cz", (), p, gate_duration(cz(0, 1), p)))
            assert i == 0 or len(calls) == before, mode
    assert len(calls) == 15
    assert len({(k.label, k.operators[-1].tobytes()) for k in calls}) == 15
    # conditional and correlated: loss, loss, decay | idle decoherence;
    # per-site: loss, loss, decay, flip | idle decoherence
    assert len(lifts) == 3 * len(rates) * 2


def test_apply_after_set_pure_rebinds_blocks():
    rng = np.random.default_rng(5)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    st = dense_ref.set_pure(QuquartState(3), psi / np.linalg.norm(psi))
    rho = dense_ref.to_dense(st).reshape((4,) * 6)
    cz_u = controlled_phase_matrix(-1.0)
    steps = [((2, 0), cz_u), ((1,), rz_matrix(0.8)),
             ((0, 1), cz_u), ((2,), global_rotation_matrix(0.2, 1.1))]
    for sites, u in steps:
        st.apply_channel(sites, _unitary(u))
        rho = dense_ref.apply_ops(rho, (u,), sites)
    assert np.max(np.abs(dense_ref.to_dense(st) - dense_ref.to_matrix(rho))) < 1e-12


def test_reduced_qubit_density_folds_loss():
    st = QuquartState(1)
    st.apply_channel((0,), _unitary(global_rotation_matrix(0.0, np.pi / 2)))
    st.apply_channel((0,), _op(ch.loss_channel(0.4, "bright")))
    red = dense_ref.reduced_qubit_density(st)
    assert red.shape == (2, 2)
    assert np.trace(red).real == pytest.approx(1.0)
    # bright loss folds onto the |1> diagonal entry
    assert red[1, 1].real == pytest.approx(0.5)
    assert abs(red[0, 1]) == pytest.approx(0.5 * np.sqrt(0.6))


def test_channel_sites_checked():
    pair = _op(ch.correlated_phase_flip(0.1))
    for sites in ((1, 1), (0, 2), (-1, 0)):
        with pytest.raises(ValidationError):
            QuquartState(2).apply_channel(sites, pair)
    with pytest.raises(ValidationError):
        QuquartState(2).apply_channel((2,), _op(ch.phase_flip(0.1)))


def test_channel_arity_checked():
    with pytest.raises(ValidationError):
        QuquartState(2).apply_channel((0, 1), _op(ch.phase_flip(0.1)))
    with pytest.raises(ValidationError):
        QuquartState(2).apply_channel((0,), _op(ch.correlated_phase_flip(0.1)))
    with pytest.raises(ValidationError):
        QuquartState(2).apply_global_unitary(
            _op(ch.correlated_phase_flip(0.1)))
    # a misshapen matrix fails here, not in the kernel's matmul
    for sites, shape in [((0, 1), (5, 5)), ((0,), (5, 5)), ((0,), (6, 5)),
                         ((0, 1), (36, 6)), ((0,), (36, 36))]:
        with pytest.raises(ValidationError):
            QuquartState(2).apply_channel(sites, np.eye(*shape))
    with pytest.raises(ValidationError):
        QuquartState(2).apply_global_unitary(np.eye(5))
    # as is an op of another dtype: a complex one raised numpy's casting
    # error from the kernel
    for dtype in (complex, np.float32, int):
        with pytest.raises(ValidationError, match="float64"):
            QuquartState(2).apply_channel((0,), np.eye(6, dtype=dtype))
        with pytest.raises(ValidationError, match="float64"):
            QuquartState(2).apply_global_unitary(np.eye(6, dtype=dtype))


def _site_vectors(rng, n):
    """n random coordinate vectors, each of trace one."""
    vs = rng.uniform(0.1, 1.0, size=(n, N_SYMBOLS))
    return list(vs / vs[:, _POPULATIONS].sum(axis=1, keepdims=True))


@pytest.mark.parametrize("n", range(1, 6))
def test_set_product_is_the_kronecker_product(n):
    vs = _site_vectors(np.random.default_rng(n), n)
    st = QuquartState(n).apply_global_unitary(
        _unitary(global_rotation_matrix(0.4, 1.3)))
    st.set_product(vs)
    expect = functools.reduce(np.kron, vs).reshape((N_SYMBOLS,) * n)
    assert np.max(np.abs(st.blocks - expect)) < 1e-15
    with pytest.raises(PatternLeakError, match="trace"):
        st.set_product([1.01 * vs[0]] + vs[1:])
    with pytest.raises(ValidationError):
        st.set_product(vs + vs[:1])


def test_set_product_allocates_nothing_per_site():
    # the build writes only into the state's two buffers, and its trace
    # check gathers into the spare: neither allocates with n
    vs = _site_vectors(np.random.default_rng(8), 8)
    st = QuquartState(8).set_product(vs)
    peaks = []
    tracemalloc.start()
    try:
        for call in (st.trace, lambda: st.set_product(vs)):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    check, product = peaks
    assert check < 2048, check
    assert product - check < 1024, peaks
