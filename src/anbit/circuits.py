"""Combinational and feedback circuits built from gates, fan-in, and fan-out.

Fan-in adds two andits (Cartesian composition keeps it linear); fan-out
clones one. A circuit node is its operator: a `GateMatrix`, `FanInGate` or
`FanOutGate`, or a `SourceNode`/`SinkNode` marker for the circuit's inputs
and outputs. `circuit_transfer` computes a circuit's linear map in one walk
over its strongly connected components in topological order, from identity
columns: each node sets its outputs from its known inputs, and a feedback
component is first cut open at its back edges, so that one small closure
system settles it. The graph keeps the map; `solve` applies it to inputs.
A graph is checked once, when it is built: it numbers its nodes, indexes its
edges by node and port, and lists its sources, sinks and components; the
component search, the walk and the netlist lowering read those tables.
Closed-form resolvents of the single- and two-anbit loops are oracles for
the walk.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .algebra import AnbitState, _frozen
from .errors import DimError, GraphError, LoopSingularError, ParamError, _integer
from .gates import GateMatrix, _singular

__all__ = [
    "FanInGate",
    "FanOutGate",
    "SourceNode",
    "SinkNode",
    "CircuitGraph",
    "fan_in",
    "fan_out",
    "loop_equivalent",
    "two_anbit_loop",
    "solve",
    "circuit_transfer",
    "fanin_tensor_nonlinearity_witness",
]


_I2 = _frozen(np.eye(2))  # the read-only 2x2 identity every fan block is built from


def _nonzero_complex(value, name: str) -> complex:
    v = complex(value)
    if v == 0:
        raise ParamError(f"{name} must be nonzero")
    return v


def _positive_real(value, name: str) -> float:
    v = complex(value)
    if v.imag != 0.0:
        raise ParamError(f"{name} must be real")
    if not v.real > 0.0:
        raise ParamError(f"{name} must be positive")
    return float(v.real)


@dataclass(frozen=True, eq=False)
class FanInGate:
    """Anbit addition: (psi, phi) -> (n(psi+phi), m(psi-phi)), n, m complex nonzero."""

    n: complex = 1.0 + 0.0j
    m: complex = 1.0 + 0.0j

    def __post_init__(self):
        object.__setattr__(self, "n", _nonzero_complex(self.n, "n"))
        object.__setattr__(self, "m", _nonzero_complex(self.m, "m"))

    @property
    def matrix(self) -> np.ndarray:
        """4x4 block form [[nI, nI], [mI, -mI]] on (psi0, psi1, phi0, phi1)."""
        return np.block([[self.n * _I2, self.n * _I2], [self.m * _I2, -self.m * _I2]])


@dataclass(frozen=True, eq=False)
class FanOutGate:
    """Anbit cloning: psi -> (n psi, m psi) with positive real n, m.

    The ancilla input columns are free submatrices m12, m22 (defaults n I and
    -m I, the fan-in shape); with a null ancilla they never matter.
    """

    n: float = 1.0
    m: float = 1.0
    m12: np.ndarray | None = None
    m22: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", _positive_real(self.n, "n"))
        object.__setattr__(self, "m", _positive_real(self.m, "m"))
        for name, default in (("m12", self.n), ("m22", -self.m)):
            given = getattr(self, name)
            block = _I2 * default if given is None else np.array(given, dtype=complex)
            if block.shape != (2, 2):
                raise DimError(f"{name} must be 2x2")
            block.setflags(write=False)
            object.__setattr__(self, name, block)

    @property
    def is_default_ancilla(self) -> bool:
        return bool(np.array_equal(self.m12, self.n * _I2) and np.array_equal(self.m22, -self.m * _I2))

    @property
    def matrix(self) -> np.ndarray:
        return np.block([[self.n * _I2, self.m12], [self.m * _I2, self.m22]])


def fan_in(psi: AnbitState, phi: AnbitState, n=1.0, m=1.0) -> tuple[AnbitState, AnbitState]:
    """Sum and difference ports: (n(psi+phi), m(psi-phi)).

    Commutes as fan_in(psi, phi; n, m) = fan_in(phi, psi; n, -m), exactly.
    """
    if psi.dim != phi.dim:
        raise DimError(f"dims differ: {psi.dim} vs {phi.dim}")
    n = _nonzero_complex(n, "n")
    m = _nonzero_complex(m, "m")
    dt = psi.delta_t if psi.delta_t == phi.delta_t else None
    return (
        AnbitState(n * (psi.amps + phi.amps), dt),
        AnbitState(m * (psi.amps - phi.amps), dt),
    )


def fan_out(psi: AnbitState, n=1.0, m=1.0) -> tuple[AnbitState, AnbitState]:
    """Cloning ports (n psi, m psi); n = m = 1 is perfect cloning."""
    n = _positive_real(n, "n")
    m = _positive_real(m, "m")
    return AnbitState(n * psi.amps, psi.delta_t), AnbitState(m * psi.amps, psi.delta_t)


def _resolvent_solve(g: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    if _singular(g):
        raise LoopSingularError("loop resolvent is singular; no steady state")
    return np.linalg.solve(g, rhs)


def loop_equivalent(m1: GateMatrix, m2: GateMatrix, n1=1.0, n2=1.0, m2_param=1.0) -> GateMatrix:
    """Combinational equivalent of the single-anbit feedback loop.

    The loop feeds m2_param times the fan-out copy of M1's output through M2
    back into the fan-in; the steady state gives
    M_eq = n1 n2 (I - n1 m2 M1 M2)^(-1) M1.
    """
    if m1.dim != m2.dim:
        raise DimError("loop gates must share a dimension")
    n1 = _nonzero_complex(n1, "n1")
    n2 = _positive_real(n2, "n2")
    m2_param = _positive_real(m2_param, "m2_param")
    d = m1.dim
    g = np.eye(d, dtype=complex) - n1 * m2_param * (m1.entries @ m2.entries)
    return GateMatrix(_resolvent_solve(g, n1 * n2 * m1.entries))


def two_anbit_loop(
    m1: GateMatrix,
    m2: GateMatrix,
    *,
    n1=1.0,
    n2=1.0,
    n3=1.0,
    n4=1.0,
    m3=1.0,
    m4=1.0,
) -> tuple[GateMatrix, GateMatrix, GateMatrix, GateMatrix]:
    """Operators (A1, A2, B1, B2) of the crossed two-anbit feedback loop.

    With k = n1 n2 m3 m4:
      A1 = n1 n3 (I - k M1 M2)^(-1) M1
      A2 = n1 n2 n3 m4 (I - k M1 M2)^(-1) M1 M2
      B1 = n1 n2 m3 n4 (I - k M2 M1)^(-1) M2 M1
      B2 = n2 n4 (I - k M2 M1)^(-1) M2
    The fan-in difference weights only scale garbage ports, so they are not
    parameters here.
    """
    if m1.dim != m2.dim:
        raise DimError("loop gates must share a dimension")
    n1 = _nonzero_complex(n1, "n1")
    n2 = _nonzero_complex(n2, "n2")
    n3 = _positive_real(n3, "n3")
    n4 = _positive_real(n4, "n4")
    m3 = _positive_real(m3, "m3")
    m4 = _positive_real(m4, "m4")
    d = m1.dim
    eye = np.eye(d, dtype=complex)
    k = n1 * n2 * m3 * m4
    m1m2 = m1.entries @ m2.entries
    m2m1 = m2.entries @ m1.entries
    ga = eye - k * m1m2
    gb = eye - k * m2m1
    a1 = _resolvent_solve(ga, n1 * n3 * m1.entries)
    a2 = _resolvent_solve(ga, n1 * n2 * n3 * m4 * m1m2)
    b1 = _resolvent_solve(gb, n1 * n2 * m3 * n4 * m2m1)
    b2 = _resolvent_solve(gb, n2 * n4 * m2.entries)
    return GateMatrix(a1), GateMatrix(a2), GateMatrix(b1), GateMatrix(b2)


# --- circuit graphs ---------------------------------------------------------

@dataclass(frozen=True)
class SourceNode:
    pass


@dataclass(frozen=True)
class SinkNode:
    pass


# (inputs, outputs) port counts per node kind
_PORTS = {
    GateMatrix: (1, 1),
    FanInGate: (2, 2),
    FanOutGate: (2, 2),
    SourceNode: (0, 1),
    SinkNode: (1, 0),
}


@dataclass(frozen=True, eq=False)
class CircuitGraph:
    """Directed signal graph; cycles are permitted and mean physical feedback.

    nodes maps each node id to its operator: a GateMatrix (1 input, 1
    output), FanInGate or FanOutGate (2, 2), SourceNode (0, 1) or SinkNode
    (1, 0); any other node is a GraphError. Edges run from an output port to
    an input port, written ((from_id, from_port), (to_id, to_port)). Cloning a signal requires an
    explicit fan-out node; wiring one output to two inputs is an error.
    Fan-in/fan-out second ports are garbage/ancilla and may stay unwired.

    Construction numbers the nodes once, checks the wiring in one pass over
    the edges and builds every table later passes read: in_edges[node] holds
    the index of the edge feeding each input port (None when unwired),
    out_edges[node] the (edge index, output port) pairs the node drives, in
    edge order, and _succ the node numbers they feed, then the sources, sinks
    and `components()`. Nodes and edges are fixed from then on: nodes is
    kept as a read-only copy, edges as a tuple, in_edges and out_edges as
    read-only mappings of tuples, and `circuit_transfer` keeps its map per
    dim.
    """

    nodes: MappingProxyType
    edges: tuple
    in_edges: MappingProxyType = field(init=False, repr=False)
    out_edges: MappingProxyType = field(init=False, repr=False)
    _succ: list = field(init=False, repr=False, compare=False)
    _ends: tuple = field(init=False, repr=False, compare=False)
    _components: tuple = field(init=False, repr=False, compare=False)
    _transfers: dict = field(init=False, repr=False, compare=False)  # dim -> (map, clean)

    def __post_init__(self):
        """Check the wiring; edges are normalized to ((str, int), (str, int)) here."""
        nodes, index = dict(self.nodes), operator.index
        object.__setattr__(self, "nodes", MappingProxyType(nodes))
        pos, ports = {}, []  # node id -> number; number -> (inputs, outputs)
        for nid, node in nodes.items():
            if not isinstance(nid, str):
                raise GraphError(f"node id {nid!r} is not a string")
            pos[nid] = len(ports)
            ports.append(_PORTS.get(type(node)))
            if ports[-1] is None:
                kinds = ", ".join(k.__name__ for k in _PORTS)
                raise GraphError(f"node {nid!r} is a {type(node).__name__}; a node is one of {kinds}")
        ins = [[None] * n for n, _ in ports]
        outs: list = [[] for _ in ports]
        succ: list = [[] for _ in ports]
        edges = []
        for i, edge in enumerate(self.edges):
            try:
                (src, sp), (dst, dp) = edge
                sp, dp = index(sp), index(dp)
            except (TypeError, ValueError):
                raise GraphError(f"edge {edge!r} is not two (node, integer port) ends") from None
            src, dst = str(src), str(dst)
            s, t = pos.get(src), pos.get(dst)
            for nid, v, port, io in ((src, s, sp, 1), (dst, t, dp, 0)):
                if v is None:
                    raise GraphError(f"edge references unknown node {nid!r}")
                if not 0 <= port < ports[v][io]:
                    raise GraphError(f"node {nid!r} has no port {port} on that side")
                if any(p == port for _, p in outs[v]) if io else ins[v][port] is not None:
                    raise GraphError(f"port {(nid, port)} wired twice; cloning needs a fan-out node")
            outs[s].append((i, sp))
            succ[s].append(t)
            ins[t][dp] = i
            edges.append(((src, sp), (dst, dp)))
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "_succ", succ)
        object.__setattr__(self, "_transfers", {})
        ends = (tuple(nid for nid, node in nodes.items() if type(node) is k) for k in (SourceNode, SinkNode))
        object.__setattr__(self, "_ends", tuple(ends))  # (source ids, sink ids), in declaration order
        for (nid, node), fed, drives in zip(nodes.items(), ins, outs):
            for port, i in enumerate(fed) if None in fed else ():
                if i is None and not (type(node) is FanOutGate and port == 1):
                    # a fan-out ancilla may stay unwired (implicit null)
                    raise GraphError(f"input port ({nid!r}, {port}) is not fed")
            if not drives and type(node) is SourceNode:
                raise GraphError(f"source {nid!r} drives nothing")
        object.__setattr__(self, "in_edges", MappingProxyType(dict(zip(nodes, map(tuple, ins)))))
        object.__setattr__(self, "out_edges", MappingProxyType(dict(zip(nodes, map(tuple, outs)))))
        object.__setattr__(self, "_components", self._tarjan())

    def sources(self) -> list:
        return list(self._ends[0])

    def sinks(self) -> list:
        return list(self._ends[1])

    def components(self) -> tuple:
        """Strongly connected components in topological order, as (node ids, cyclic).

        Found when the graph is built: every `solve` and `lower_circuit` read
        this same tuple.
        """
        return self._components

    def _tarjan(self) -> tuple:
        """The component search behind `components()`, run once by the constructor.

        Iterative Tarjan (SIAM J. Comput. 1, 1972) on the constructor's
        successor lists: roots are tried in node declaration order, sources
        first, and successors in edge order; components come out in reverse
        topological order and are returned reversed. Every node of an acyclic
        graph is reachable from a source, so its order depends on the source
        and edge order only. The members of a component are listed in DFS
        visiting order, so the edges that run back against that order close
        all its cycles. A component is cyclic when it holds more than one node
        or a node wired to itself.
        """
        ids, succ = list(self.nodes), self._succ
        n = len(ids)
        index = [-1] * n
        low = [0] * n
        stack: list = []
        found: list = []
        count = 0
        sources = [v for v, fed in enumerate(self.in_edges.values()) if not fed]
        for root in (*sources, *range(n)):
            if index[root] >= 0:
                continue
            index[root] = low[root] = count
            count += 1
            stack.append(root)
            work = [(root, iter(succ[root]))]  # DFS path: (node, its successors not yet tried)
            while work:
                v, children = work[-1]
                for w in children:
                    if index[w] < 0:
                        index[w] = low[w] = count
                        count += 1
                        stack.append(w)
                        work.append((w, iter(succ[w])))
                        break
                    if index[w] < low[v]:
                        low[v] = index[w]
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        if low[v] < low[parent]:
                            low[parent] = low[v]
                    if low[v] == index[v]:
                        w = stack.pop()
                        members = [ids[w]]
                        index[w] = n  # done: above every low-link, so it lowers none
                        while w != v:
                            w = stack.pop()
                            members.append(ids[w])
                            index[w] = n
                        if len(members) > 1:
                            members.reverse()  # popped last-visited first
                        found.append((tuple(members), len(members) > 1 or v in succ[v]))
        return tuple(reversed(found))


def _fan_terms(node, port: int, ins: list) -> list:
    """(coefficient, input edge) pairs: output `port` of a fan-in or fan-out is the sum of coefficient . input.

    ins holds the node's input edge per input port (None when unwired). A
    coefficient is a complex scalar or a 2 x 2 matrix; an unwired fan-out
    ancilla is the null state and contributes no term.
    """
    if type(node) is FanInGate:
        w = node.n if port == 0 else node.m
        return [(w, ins[0]), (w if port == 0 else -w, ins[1])]
    terms = [(node.n if port == 0 else node.m, ins[0])]
    if ins[1] is not None:
        terms.append((node.m12 if port == 0 else node.m22, ins[1]))
    return terms


def _tear(graph: CircuitGraph, members: list, x: list, d: int, w: int) -> tuple:
    """Cut a feedback component open after the heads of its back edges.

    A back edge runs to a member, its head, that does not come after its
    tail in the member order. The heads' internal outputs are cut: their
    k = c . d signals are unknowns y, and each (d, w) signal in the component
    becomes a (d, w + k) block [a | B] for a + B y: an entering signal as
    [x | 0] and a cut one as its unit columns. Cut there, a fan-in head's
    output is solved for, not formed as the sum of its entering and fed-back
    signals, which cancel in a strong loop. Returns (walk order with the
    heads last, cut edges in column order, edges leaving the component).
    """
    pos = {nid: p for p, nid in enumerate(members)}
    heads, entering = {}, []  # heads as dict keys, in member order
    for p, nid in enumerate(members):
        for j in graph.in_edges[nid]:
            q = -1 if j is None else pos.get(graph.edges[j][0][0])  # -1: an unwired ancilla
            if q is None:
                entering.append(j)
            elif q >= p:
                heads[nid] = None
    cut = {i: c for c, i in enumerate(i for h in heads for i, _ in graph.out_edges[h] if graph.edges[i][1][0] in pos)}
    k = len(cut) * d
    for j in entering:
        x[j] = np.hstack((x[j], np.zeros((d, k))))
    for j, c in cut.items():
        x[j] = np.eye(d, w + k, w + c * d, dtype=complex)
    exits = [i for nid in members for i, _ in graph.out_edges[nid] if graph.edges[i][1][0] not in pos]
    return sorted(members, key=heads.__contains__), cut, exits


def _walk(graph: CircuitGraph, d: int, rhs: np.ndarray) -> np.ndarray:
    """The sinks' (d, w) signals stacked in declaration order; source k emits rows k.d to k.d+d of rhs.

    Each edge carries one block, set in topological order of the components
    from the node's known input edges and dropped once its one reader has run.
    A feedback component is torn first (`_tear`; Kron, Diakoptics, 1963), and
    the cut signals its walk produces must equal Y. That closure,
    (I - B_cut) Y = A_cut, has the determinant of the component's full wire
    equations (Schur complement). LoopSingularError names its nodes when it is
    singular; otherwise each block leaving it becomes A + B Y.
    """
    nodes, ins, outs = graph.nodes, graph.in_edges, graph.out_edges
    emitted, w = {s: rhs[k * d:(k + 1) * d] for k, s in enumerate(graph._ends[0])}, rhs.shape[1]
    x: list = [None] * len(graph.edges)  # block per edge, set in topological order
    produced: dict = {}  # cut edge -> the block its head sets; x keeps the unit columns
    for members, cyclic in graph.components():
        members, cut, exits = _tear(graph, members, x, d, w) if cyclic else (members, (), ())
        for nid in members:
            node, fed = nodes[nid], ins[nid]
            for i, sp in outs[nid]:
                if type(node) is GateMatrix:
                    total = node.entries.dot(x[fed[0]])
                elif type(node) is SourceNode:
                    total = emitted[nid]
                else:
                    total = None
                    for coef, j in _fan_terms(node, sp, fed):
                        term = coef.dot(x[j]) if isinstance(coef, np.ndarray) else coef * x[j]
                        total = term if total is None else total + term
                (produced if i in cut else x)[i] = total
            for j in fed if outs[nid] else ():  # sinks keep theirs for the final read
                if j is not None:
                    x[j] = None
        if cyclic:
            closure = np.concatenate([produced[i] for i in cut])
            system = np.eye(len(closure), dtype=complex) - closure[:, w:]
            if _singular(system):
                ids = sorted(members, key=list(nodes).index)
                raise LoopSingularError(f"feedback loop through nodes {ids} is singular; no steady state")
            y = np.vstack((np.eye(w), np.linalg.solve(system, closure[:, :w])))
            for i in exits:  # signals inside the component have no later reader
                x[i] = x[i].dot(y)
    return np.concatenate([x[ins[t][0]] for t in graph._ends[1]] or [np.zeros((0, w), complex)])


def circuit_transfer(graph: CircuitGraph, dim: int = 2) -> np.ndarray:
    """The circuit's [sink . dim, source . dim] map, sinks and sources in declaration order.

    Walked from identity columns on the first call at this dim and kept, read-only, on the
    graph; an error keeps nothing. Entries past the float range are inf or nan.
    """
    dim = _integer(dim, "dim")
    if dim < 1:
        raise DimError("dim must be >= 1")
    if dim not in graph._transfers:
        for nid, node in graph.nodes.items():
            if isinstance(node, GateMatrix) and node.dim != dim:
                raise DimError(f"gate {nid!r} has dim {node.dim}, circuit carries {dim}")
        if dim != 2 and any(isinstance(v, FanOutGate) and graph.in_edges[n][1] is not None and graph.out_edges[n]
                            for n, v in graph.nodes.items()):
            raise DimError("fan-out ancilla submatrices are defined for dim 2")
        flagged = []  # floating-point exceptions met by the walk
        with np.errstate(all="call", call=lambda kind, _: flagged.append(kind)):
            t = _walk(graph, dim, np.eye(len(graph._ends[0]) * dim, dtype=complex))
        t.setflags(write=False)
        graph._transfers[dim] = (t, not flagged and bool(np.isfinite(t).all()))
    return graph._transfers[dim][0]


def solve(graph: CircuitGraph, inputs: dict) -> dict:
    """Steady-state signals at every sink, keyed by sink node id: the kept map times the inputs.

    Where walking the map overflowed, underflowed or met inf or nan, it would
    lose what a walk of the inputs keeps, so `_walk` runs on them instead.
    """
    sources = graph._ends[0]
    missing = [s for s in sources if s not in inputs or not isinstance(inputs[s], AnbitState)]
    if missing:
        raise GraphError(f"sources without an AnbitState input: {missing}")
    extra = [s for s in inputs if s not in sources]
    if extra:
        raise GraphError(f"inputs for non-source nodes: {extra}")

    dims = {s: inputs[s].dim for s in sources}
    d = next(iter(dims.values()), 2)
    if any(v != d for v in dims.values()):
        raise DimError("all source states must share one dimension")
    t = circuit_transfer(graph, d)
    amps = np.concatenate([inputs[s].amps for s in sources]) if sources else np.zeros(0, complex)
    x = t.dot(amps) if graph._transfers[d][1] else _walk(graph, d, amps[:, None])[:, 0]

    dts = {inputs[s].delta_t for s in sources}
    dt = dts.pop() if len(dts) == 1 else None
    return {nid: AnbitState(x[k * d:(k + 1) * d], dt) for k, nid in enumerate(graph._ends[1])}


def fanin_tensor_nonlinearity_witness(psi: AnbitState, phi: AnbitState):
    """Two outputs a tensor-product fan-in would have to reconcile, and cannot.

    Returns (tensor_route, matrix_route): the direct tensor evaluation
    kron(psi+phi, psi-phi) versus the apparent matrix diag(0,-1,-1,0) applied
    to kron(psi, phi). They differ for generic inputs, which is exactly why
    fan-in is defined through the Cartesian product instead.
    """
    if psi.dim != 2 or phi.dim != 2:
        raise DimError("witness is defined for dim 2")
    tensor_route = np.kron(psi.amps + phi.amps, psi.amps - phi.amps)
    apparent = np.diag([0.0, -1.0, -1.0, 0.0]).astype(complex)
    matrix_route = apparent @ np.kron(psi.amps, phi.amps)
    return tensor_route, matrix_route
