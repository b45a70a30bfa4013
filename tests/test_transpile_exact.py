"""Transpiling keeps the state: the routed native circuit, read through its
final placement, prepares the abstract circuit's statevector up to a global
phase, its ``cz``s lie on the topology's edges and every op is native.

These guard ``routing.transpile``'s two halves, ``lower_and_optimize`` (once
per circuit) and ``route_and_optimize`` (per topology), whatever circuits
they are handed.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atombench import bench
from atombench.bench import statevector
from atombench.circuit import GATE_ARITY, Circuit, Gate
from atombench.routing import (lower_and_optimize, route_and_optimize,
                               transpile)
from atombench.runner import make_topology

ATOL = 1e-10
# on a failure, hypothesis's pytest plugin imports libcst to write a patch,
# and libcst's import warns; the warnings-as-errors setting would turn that
# into an INTERNALERROR that ends the whole session instead of one failure
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")


def descriptors(n: int) -> list:
    """One descriptor of each form ``make_topology`` accepts, the explicit
    grid a line of n nodes."""
    return ["all_to_all", "grid", {"grid": [1, n]}]


def assert_same_state(abstract: Circuit, native: Circuit, l2p: list):
    """native's statevector, logical qubit q read at site l2p[q], equals
    abstract's up to a global phase; every spare site ends in |0>."""
    n, m = abstract.n_qubits, native.n_qubits
    spare = [s for s in range(m) if s not in l2p]
    psi = statevector(native).transpose(list(l2p) + spare)
    rest = psi[(...,) + (0,) * len(spare)]
    assert abs(np.linalg.norm(rest) - 1.0) < ATOL, "a spare site left |0>"
    want = statevector(abstract)
    overlap = np.vdot(want, rest)
    assert abs(abs(overlap) - 1.0) < ATOL, overlap
    phase = overlap / abs(overlap)
    assert np.max(np.abs(rest - phase * want)) < ATOL
    assert rest.shape == (2,) * n


def assert_native_on_edges(native: Circuit, topology):
    assert native.is_native
    for g in native.ops:
        if g.name == "cz":
            assert topology.adjacent(*g.sites), g


def lowest_specs() -> list:
    """One instance of every kind at each of its three lowest widths."""
    specs = []
    for kind in bench.KINDS:
        lo, hi = bench.WIDTH_BOUNDS[kind]
        widths = [w for w in range(lo, hi + 1) if bench.width_allowed(kind, w)]
        specs += [bench.sample_instances(kind, w, 1, seed=0)[0]
                  for w in widths[:3]]
    return specs


@pytest.mark.parametrize("spec", lowest_specs(),
                         ids=lambda s: f"{s.kind}-w{s.width}")
def test_every_kind_keeps_its_state_on_every_topology(spec):
    circuit, _ = bench.generate(spec)
    native = lower_and_optimize(circuit)
    for descriptor in descriptors(circuit.n_qubits):
        topology = make_topology(descriptor, circuit.n_qubits)
        routed, l2p = route_and_optimize(native, topology)
        whole, whole_l2p = transpile(circuit, topology)
        assert whole.ops == routed.ops and whole_l2p == l2p
        assert_native_on_edges(routed, topology)
        assert_same_state(circuit, routed, l2p)


ABSTRACT = sorted(GATE_ARITY)
ANGLES = st.floats(-7.0, 7.0, allow_nan=False)


@st.composite
def circuits(draw) -> Circuit:
    """A random 2-5 qubit circuit of up to 14 gates of every known kind."""
    n = draw(st.integers(2, 5))
    ops = []
    for _ in range(draw(st.integers(0, 14))):
        name = draw(st.sampled_from(ABSTRACT))
        n_sites, n_params = GATE_ARITY[name]
        n_sites = 0 if n_sites is None else n_sites
        if n_sites > n:
            continue
        sites = draw(st.permutations(range(n)))[:n_sites]
        params = [draw(ANGLES) for _ in range(n_params)]
        ops.append(Gate(name, tuple(sites), tuple(params)))
    return Circuit(n, ops)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(circuits(), st.integers(0, 2))
def test_random_circuits_keep_their_state(circuit, which):
    topology = make_topology(descriptors(circuit.n_qubits)[which],
                             circuit.n_qubits)
    routed, l2p = transpile(circuit, topology)
    assert_native_on_edges(routed, topology)
    assert_same_state(circuit, routed, l2p)
