"""Qubit placement and SWAP routing for all-to-all vs grid connectivity.

The grid topology places n qubits row-major on the most-square rows x cols
grid with rows*cols >= n; only occupied nodes exist (routing never moves an
atom through an empty trap site).  Routing is greedy and deterministic: for
each CZ whose endpoints are not adjacent, one endpoint is walked along a BFS
shortest path with SWAPs, the moving endpoint chosen by a small lookahead
over upcoming two-qubit gates.  SWAPs are emitted pre-lowered to native
gates, and the accumulated qubit permutation is returned for readout
un-permutation.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass, field

from .circuit import Circuit, Gate, lower_to_native, optimize_native
from .errors import CapacityError, RoutingError, ValidationError

LOOKAHEAD = 5


def most_square_grid(n_qubits: int) -> tuple[int, int]:
    """Smallest-aspect (rows, cols), rows <= cols, with rows*cols >= n."""
    best = None
    for rows in range(1, n_qubits + 1):
        cols = math.ceil(n_qubits / rows)
        if rows > cols:
            break
        key = (cols - rows, rows * cols)
        if best is None or key < best[0]:
            best = (key, (rows, cols))
    return best[1]


@dataclass
class Topology:
    """Connectivity constraint: "all_to_all" or an occupied square-grid patch."""

    mode: str  # "all_to_all" | "grid"
    rows: int = 0
    cols: int = 0
    n_qubits: int = 0
    adjacency: dict = field(default_factory=dict)  # node -> sorted neighbours

    @classmethod
    def all_to_all(cls, n_qubits: int) -> "Topology":
        nodes = range(n_qubits)
        return cls("all_to_all", n_qubits=n_qubits, adjacency={
            node: tuple(other for other in nodes if other != node)
            for node in nodes})

    @classmethod
    def grid(cls, n_qubits: int, rows: int | None = None,
             cols: int | None = None) -> "Topology":
        if rows is None and cols is None:
            rows, cols = most_square_grid(n_qubits)
        elif not all(type(x) is int and x > 0 for x in (rows, cols)):
            raise ValidationError(f"grid rows and cols must be given together "
                                  f"as positive ints, got {rows!r}x{cols!r}")
        if rows * cols < n_qubits:
            raise CapacityError(
                f"grid {rows}x{cols} cannot hold {n_qubits} qubits"
            )
        topo = cls("grid", rows=rows, cols=cols, n_qubits=n_qubits)
        # occupied nodes are the first n in row-major order; neighbours
        # above, left, right and below are in ascending order
        for node in range(n_qubits):
            c = node % cols
            topo.adjacency[node] = tuple(
                other for other, inside in ((node - cols, node >= cols),
                                            (node - 1, c > 0),
                                            (node + 1, c + 1 < cols),
                                            (node + cols, True))
                if inside and other < n_qubits)
        return topo

    def adjacent(self, a: int, b: int) -> bool:
        return b in self.neighbors(a)

    def neighbors(self, node: int) -> tuple:
        return self.adjacency.get(node, ())

    def distance(self, a: int, b: int) -> int:
        """Hop count between occupied nodes, read from the hop table."""
        try:
            return self._hops[a][b]
        except KeyError:
            raise RoutingError(f"nodes {a} and {b} are disconnected") from None

    @functools.cached_property
    def _hops(self) -> dict:
        """{a: {b: hops}} over the reachable pairs, one BFS from each node,
        built on first use; the adjacency must not change after."""
        table = {}
        for source in self.adjacency:
            hops = table[source] = {source: 0}
            queue = deque([source])
            while queue:
                cur = queue.popleft()
                for nxt in self.neighbors(cur):
                    if nxt not in hops:
                        hops[nxt] = hops[cur] + 1
                        queue.append(nxt)
        return table

    def shortest_path(self, a: int, b: int) -> list:
        """Nodes of a BFS shortest path from a to b, both included."""
        prev = {a: None}
        queue = deque([a])
        while queue:
            cur = queue.popleft()
            if cur == b:
                break
            for nxt in self.neighbors(cur):
                if nxt not in prev:
                    prev[nxt] = cur
                    queue.append(nxt)
        if b not in prev:
            raise RoutingError(f"nodes {a} and {b} are disconnected")
        path = [b]
        while prev[path[-1]] is not None:
            path.append(prev[path[-1]])
        return list(reversed(path))


def interaction_placement(circuit: Circuit, topology: Topology) -> list:
    """Greedy initial placement matching CZ-heavy qubits to central nodes.

    Qubits are ordered once, up front, by their total time-weighted CZ
    degree.  The first goes to the best-connected node; each later one takes
    the free node minimizing its distance-weighted coupling to the qubits
    already placed.
    """
    n = circuit.n_qubits
    czs = [g for g in circuit.ops if g.name == "cz"]
    m = len(czs)
    weight: dict = {}
    degree = [0.0] * n
    # Earlier gates weigh more: a good initial placement should serve the
    # first interactions directly and let SWAPs absorb the later ones.
    for idx, g in enumerate(czs):
        a, b = sorted(g.sites)
        w = 1.0 + (m - idx) / m
        weight[(a, b)] = weight.get((a, b), 0.0) + w
        degree[a] += w
        degree[b] += w

    free = set(range(n))
    placement = [-1] * n
    placed: list = []
    remaining = sorted(range(n), key=lambda q: (-degree[q], q))
    for q in remaining:
        if not placed:
            node = max(free, key=lambda v: (len([u for u in topology.neighbors(v)
                                                 if u in free]), -v))
        else:
            def cost(v):
                total = 0
                for p in placed:
                    w = weight.get((min(q, p), max(q, p)), 0)
                    if w:
                        total += w * topology.distance(v, placement[p])
                return total
            node = min(free, key=lambda v: (cost(v), v))
        placement[q] = node
        free.discard(node)
        placed.append(q)
    return placement


_SWAP_OPS: dict = {}  # (a, b) -> lowered SWAP; Gate is frozen, so shared


def _swap_native_ops(a: int, b: int) -> tuple:
    """SWAP(a, b) lowered to native gates, once per ordered pair."""
    ops = _SWAP_OPS.get((a, b))
    if ops is None:
        swap = Circuit(max(a, b) + 1, [Gate("swap", (a, b))])
        ops = _SWAP_OPS[a, b] = tuple(lower_to_native(swap).ops)
    return ops


def route(circuit: Circuit, topology: Topology) -> tuple[Circuit, list]:
    """Make every CZ act on adjacent nodes by inserting SWAP chains.

    Returns (routed circuit, final logical->physical map).  All-to-all input
    is returned unchanged.  Local gate sites in the output are physical node
    ranks; the caller un-permutes measured bitstrings with the returned map.
    """
    if not circuit.is_native:
        raise ValidationError("route requires a lowered circuit")
    n = circuit.n_qubits
    if topology.n_qubits < n:
        raise CapacityError(f"topology too small for {n} qubits")
    if topology.mode == "all_to_all":
        return circuit, list(range(n))

    l2p = interaction_placement(circuit, topology)
    p2l = [-1] * n
    for logical, phys in enumerate(l2p):
        p2l[phys] = logical
    ops = []

    # positions of upcoming CZ gates, for lookahead scoring
    cz_indices = [i for i, g in enumerate(circuit.ops) if g.name == "cz"]
    cz_cursor = 0

    def swap_phys(pa: int, pb: int):
        ops.extend(_swap_native_ops(pa, pb))
        la, lb = p2l[pa], p2l[pb]
        p2l[pa], p2l[pb] = lb, la
        l2p[la], l2p[lb] = pb, pa

    def lookahead_cost(trial_l2p) -> int:
        cost = 0
        for idx in cz_indices[cz_cursor: cz_cursor + LOOKAHEAD]:
            ga, gb = circuit.ops[idx].sites
            cost += topology.distance(trial_l2p[ga], trial_l2p[gb])
        return cost

    for g in circuit.ops:
        if g.name == "grot":
            ops.append(g)
        elif g.name == "rz":
            ops.append(Gate("rz", (l2p[g.sites[0]],), g.params))
        else:  # cz
            a, b = g.sites
            while not topology.adjacent(l2p[a], l2p[b]):
                path = topology.shortest_path(l2p[a], l2p[b])
                # candidate moves: step a forward along the path, or b backward
                candidates = []
                for logical, frm, to in ((a, path[0], path[1]),
                                         (b, path[-1], path[-2])):
                    trial = list(l2p)
                    trial[logical] = to
                    trial[p2l[to]] = frm
                    candidates.append((lookahead_cost(trial), logical, frm, to))
                candidates.sort(key=lambda cand: (cand[0], cand[1]))
                _, _, frm, to = candidates[0]
                swap_phys(frm, to)
            ops.append(Gate("cz", (l2p[a], l2p[b])))
            cz_cursor += 1
    return Circuit(n, ops, dict(circuit.metadata)), l2p


def lower_and_optimize(circuit: Circuit) -> Circuit:
    """Transpile's topology-free half: lower, then optimize."""
    return optimize_native(lower_to_native(circuit))


def route_and_optimize(native: Circuit, topology: Topology
                       ) -> tuple[Circuit, list]:
    """Transpile's per-topology half: route, then optimize; `native` is
    only read."""
    routed, l2p = route(native, topology)
    return optimize_native(routed), l2p


def transpile(circuit: Circuit, topology: Topology) -> tuple[Circuit, list]:
    """Lower, optimize, route, optimize: the native circuit simulated for an
    abstract circuit on `topology`, and its final logical->physical map."""
    return route_and_optimize(lower_and_optimize(circuit), topology)
