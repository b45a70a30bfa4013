"""Placement and SWAP routing on the occupied grid patch."""

import hashlib

import numpy as np
import pytest

from atombench import bench
from atombench.bench import BenchmarkSpec, generate
from atombench.circuit import (Circuit, Gate, cz, lower_to_native,
                               optimize_native, rz)
from atombench.errors import CapacityError, ValidationError
from atombench.metrics import marginalize
from atombench.routing import (Topology, interaction_placement,
                               most_square_grid, route, transpile)


def test_most_square_grid():
    assert most_square_grid(2) == (1, 2)
    assert most_square_grid(4) == (2, 2)
    assert most_square_grid(5) == (2, 3)
    assert most_square_grid(9) == (3, 3)
    assert most_square_grid(11) == (3, 4)


def test_grid_adjacency():
    topo = Topology.grid(5)  # 2x3 patch, last node unoccupied
    assert topo.adjacent(0, 1) and topo.adjacent(0, 3) and topo.adjacent(1, 4)
    assert not topo.adjacent(0, 4)   # diagonal
    assert not topo.adjacent(2, 5) and not topo.adjacent(4, 5)  # unoccupied
    assert topo.distance(2, 3) == 3


@pytest.mark.parametrize("shape", [
    {"rows": 1}, {"cols": 4}, {"rows": -1, "cols": -5}, {"rows": 0, "cols": 4},
    {"rows": 2.0, "cols": 2}, {"rows": True, "cols": 4},
])
def test_grid_rejects_a_bad_shape(shape):
    # rows alone was ignored (a 2x2 grid), and a negative shape built
    # adjacency to negative nodes
    with pytest.raises(ValidationError, match="rows and cols"):
        Topology.grid(4, **shape)
    assert Topology.grid(4, rows=1, cols=4).adjacency[0] == (1,)


def test_all_to_all_adjacency():
    topo = Topology.all_to_all(4)
    assert topo.neighbors(2) == (0, 1, 3)
    assert topo.adjacent(0, 3) and not topo.adjacent(1, 1)
    assert topo.distance(0, 3) == 1 and topo.distance(2, 2) == 0
    assert topo.shortest_path(3, 0) == [3, 0]


def test_all_to_all_passthrough():
    c = lower_to_native(Circuit(3, [Gate("cx", (0, 2))]))
    routed, l2p = route(c, Topology.all_to_all(3))
    assert routed.ops == c.ops
    assert l2p == [0, 1, 2]


def test_route_requires_native():
    with pytest.raises(ValidationError):
        route(Circuit(2, [Gate("cx", (0, 1))]), Topology.grid(2))


def test_capacity_error():
    c = lower_to_native(Circuit(5, [Gate("cx", (0, 4))]))
    with pytest.raises(CapacityError):
        route(c, Topology.grid(5, rows=2, cols=2))


@pytest.mark.parametrize("topology", [Topology.grid(3), Topology.all_to_all(3)])
def test_route_rejects_a_topology_with_fewer_qubits(topology):
    # a 2x2 grid with three occupied nodes, and an all-to-all register of
    # three: neither holds qubit 3
    c = Circuit(4, [cz(0, 1), cz(2, 3), rz(3, 0.5)])
    with pytest.raises(CapacityError):
        route(c, topology)


def test_routed_cz_all_adjacent():
    rng = np.random.default_rng(17)
    for n in (4, 5, 6):
        c = Circuit(n)
        for _ in range(15):
            a, b = map(int, rng.choice(n, 2, replace=False))
            c.add(Gate("cz", (a, b)))
        topo = Topology.grid(n)
        routed, _ = route(c, topo)
        for g in routed.ops:
            if g.name == "cz":
                assert topo.adjacent(*g.sites)


def ideal_vector(circuit, measured=None):
    probs = np.abs(bench.statevector(circuit)) ** 2
    v = probs.reshape(-1)
    if measured is not None and measured != list(range(circuit.n_qubits)):
        v = marginalize(v, circuit.n_qubits, measured)
    return v


def test_routing_preserves_noiseless_distribution():
    rng = np.random.default_rng(23)
    for trial in range(6):
        n = 4
        c = Circuit(n)
        for _ in range(12):
            r = rng.integers(3)
            if r == 0:
                c.add(Gate("grot", tuple(range(n)),
                           tuple(rng.uniform(-np.pi, np.pi, size=2))))
            elif r == 1:
                c.add(Gate("rz", (int(rng.integers(n)),),
                           (float(rng.uniform(-np.pi, np.pi)),)))
            else:
                a, b = map(int, rng.choice(n, 2, replace=False))
                c.add(Gate("cz", (a, b)))
        routed, l2p = route(c, Topology.grid(n))
        v_routed = marginalize(ideal_vector(routed), n, l2p)
        assert np.max(np.abs(v_routed - ideal_vector(c))) < 1e-12


def test_hidden_shift_routes_without_swaps():
    # pairwise-entangling oracles admit a zero-SWAP pair placement
    circuit, _ = generate(BenchmarkSpec("HiddenShift", 4, instance_param="1011"))
    native = optimize_native(lower_to_native(circuit))
    routed, _ = route(native, Topology.grid(4))
    assert routed.gate_counts().get("cz", 0) == native.gate_counts().get("cz", 0)


def test_interaction_placement_prefers_hub_center():
    # star interaction graph on a 1x3 line: the hub must take the middle node
    c = Circuit(3, [Gate("cz", (2, 0)), Gate("cz", (2, 1))])
    topo = Topology.grid(3, rows=1, cols=3)
    placement = interaction_placement(c, topo)
    assert placement[2] == 1


@pytest.mark.parametrize("a,b", [(0, 3), (3, 0)])
def test_swap_is_lowered_once_per_ordered_pair(a, b):
    from atombench.routing import _swap_native_ops

    cx = [Gate("cx", ct) for ct in ((a, b), (b, a), (a, b))]
    lowered = lower_to_native(Circuit(4, cx)).ops
    ops = _swap_native_ops(a, b)
    assert isinstance(ops, tuple) and list(ops) == lowered
    assert _swap_native_ops(a, b) is ops


def test_grover_w8_grid_route_digest():
    # 50 496 CZs: the routed ops and final placement, digested, are those
    # recorded from the router that scanned the adjacency set per lookup
    spec = bench.sample_instances("Grover", 8, 1, seed=0)[0]
    routed, l2p = route(lower_to_native(generate(spec)[0]), Topology.grid(8))
    ops = [(g.name, g.sites, tuple(map(float, g.params))) for g in routed.ops]
    assert l2p == [0, 1, 2, 4, 7, 5, 6, 3]
    assert hashlib.sha256(repr((ops, l2p)).encode()).hexdigest() == (
        "8b2e63e471bccccc27452686d855ad8df08cde578697fa8b8d412a59aac167ce")


def test_transpiled_circuits_digest():
    # every kind at its two lowest widths, default samples, seed 0, both
    # topologies: 120 instances through transpile (lower, optimize, route,
    # optimize again).  A change to the passes that must not change a
    # circuit keeps this digest
    circuits = []
    specs = []
    for kind in bench.KINDS:
        lo, hi = bench.WIDTH_BOUNDS[kind]
        widths = [w for w in range(lo, hi + 1) if bench.width_allowed(kind, w)]
        for width in widths[:2]:
            specs += bench.sample_instances(kind, width, seed=0)
    for spec in specs:
        circuit = generate(spec)[0]
        n = circuit.n_qubits
        for topology in (Topology.all_to_all(n), Topology.grid(n)):
            routed, l2p = transpile(circuit, topology)
            ops = [(g.name, g.sites, g.params) for g in routed.ops]
            circuits.append((ops, l2p))
    assert len(circuits) == 120
    assert hashlib.sha256(repr(circuits).encode()).hexdigest() == (
        "3de34e6375a930680a407797f01db74966ea14a14c927de95acd8105e1193dcd")
