"""Combinational and feedback circuits built from gates, fan-in, and fan-out.

Fan-in adds two andits (Cartesian composition keeps it linear); fan-out
clones one. A circuit node is its operator: a `GateMatrix`, `FanInGate` or
`FanOutGate`, or a `SourceNode`/`SinkNode` marker for the circuit's inputs
and outputs. `solve` resolves a circuit in steady state over the condensation
of its node graph into strongly connected components, visited in topological
order: feed-forward nodes set their output signals directly from their
already-known inputs, and each feedback component solves only the small
linear system over its own internal wires. A graph indexes its edges by node
and port once, when it is validated; the component search, `solve` and the
netlist lowering all read those tables. The closed-form resolvent formulas
for the canonical single- and two-anbit loops are also provided and serve as
oracles for the generic solver.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .algebra import AnbitState
from .errors import DimError, GraphError, LoopSingularError, ParamError
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
    "fanin_tensor_nonlinearity_witness",
]


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
        i2 = np.eye(2, dtype=complex)
        return np.block([[self.n * i2, self.n * i2], [self.m * i2, -self.m * i2]])


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
            block = np.eye(2, dtype=complex) * default if given is None else np.array(given, dtype=complex)
            if block.shape != (2, 2):
                raise DimError(f"{name} must be 2x2")
            block.setflags(write=False)
            object.__setattr__(self, name, block)

    @property
    def is_default_ancilla(self) -> bool:
        i2 = np.eye(2, dtype=complex)
        return bool(np.array_equal(self.m12, self.n * i2) and np.array_equal(self.m22, -self.m * i2))

    @property
    def matrix(self) -> np.ndarray:
        i2 = np.eye(2, dtype=complex)
        return np.block([[self.n * i2, self.m12], [self.m * i2, self.m22]])


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

    `validate` builds the per-node port tables every later pass reads:
    in_edges[node] holds the index of the edge feeding each input port (None
    when unwired), out_edges[node] the (edge index, output port) pairs the
    node drives, in edge order.
    """

    nodes: dict
    edges: tuple
    in_edges: dict = field(init=False, repr=False)
    out_edges: dict = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", dict(self.nodes))
        self.validate()

    def validate(self):
        """Check the wiring; edges are normalized to ((str, int), (str, int)) here."""
        ports = {}
        for nid, node in self.nodes.items():
            ports[nid] = _PORTS.get(type(node))
            if ports[nid] is None:
                kinds = ", ".join(k.__name__ for k in _PORTS)
                raise GraphError(f"node {nid!r} is a {type(node).__name__}; a node is one of {kinds}")
        ins = {nid: [None] * ports[nid][0] for nid in self.nodes}
        outs: dict = {nid: [] for nid in self.nodes}
        edges = []
        for i, edge in enumerate(self.edges):
            (src, sp), (dst, dp) = edge
            ends = []
            for nid, port, io in ((src, sp, 1), (dst, dp, 0)):
                nid = str(nid)
                try:
                    port = operator.index(port)
                except TypeError:
                    raise GraphError(f"edge {edge!r}: port {port!r} is not an integer") from None
                if nid not in self.nodes:
                    raise GraphError(f"edge references unknown node {nid!r}")
                if not 0 <= port < ports[nid][io]:
                    raise GraphError(f"node {nid!r} has no port {port} on that side")
                if io == 0:
                    wired = ins[nid][port] is not None
                else:
                    wired = any(p == port for _, p in outs[nid])
                if wired:
                    raise GraphError(f"port {(nid, port)} wired twice; cloning needs a fan-out node")
                ends.append((nid, port))
            (src, sp), (dst, dp) = ends
            outs[src].append((i, sp))
            ins[dst][dp] = i
            edges.append(tuple(ends))
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "in_edges", ins)
        object.__setattr__(self, "out_edges", outs)
        for nid, node in self.nodes.items():
            for port, i in enumerate(ins[nid]):
                if i is None and not (isinstance(node, FanOutGate) and port == 1):
                    # a fan-out ancilla may stay unwired (implicit null)
                    raise GraphError(f"input port ({nid!r}, {port}) is not fed")
            if isinstance(node, SourceNode) and not outs[nid]:
                raise GraphError(f"source {nid!r} drives nothing")

    def sources(self) -> list:
        return [nid for nid, n in self.nodes.items() if isinstance(n, SourceNode)]

    def sinks(self) -> list:
        return [nid for nid, n in self.nodes.items() if isinstance(n, SinkNode)]

    def components(self) -> list:
        """Strongly connected components in topological order, as (node ids, cyclic).

        Iterative Tarjan (SIAM J. Comput. 1, 1972): roots are tried in node
        declaration order, nodes with no incoming edge first, and successors
        in edge order; components come out in reverse topological order and
        are returned reversed. Every node of an acyclic graph is reachable
        from a source, so its order depends on the source and edge order
        only. A component is cyclic when it holds more than one node or a
        node wired to itself.
        """
        ids = list(self.nodes)
        pos = {nid: k for k, nid in enumerate(ids)}
        succ = [[pos[self.edges[i][1][0]] for i, _ in self.out_edges[nid]] for nid in ids]
        looped = {v for v, ws in enumerate(succ) if v in ws}
        index = [-1] * len(ids)
        low = [0] * len(ids)
        on_stack = [False] * len(ids)
        stack: list = []
        work: list = []  # DFS path: (node, its successors not yet tried)
        found: list = []
        count = 0

        def visit(v):
            nonlocal count
            index[v] = low[v] = count
            count += 1
            stack.append(v)
            on_stack[v] = True
            work.append((v, iter(succ[v])))

        fed = [any(i is not None for i in self.in_edges[nid]) for nid in ids]
        for root in sorted(range(len(ids)), key=fed.__getitem__):  # stable: unfed first
            if index[root] >= 0:
                continue
            visit(root)
            while work:
                v, children = work[-1]
                for w in children:
                    if index[w] < 0:
                        visit(w)
                        break
                    if on_stack[w] and index[w] < low[v]:
                        low[v] = index[w]
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        if low[v] < low[parent]:
                            low[parent] = low[v]
                    if low[v] == index[v]:
                        members = []
                        while True:
                            w = stack.pop()
                            on_stack[w] = False
                            members.append(ids[w])
                            if w == v:
                                break
                        found.append((members, len(members) > 1 or v in looped))
        found.reverse()
        return found


def _terms(node, port: int, ins: list) -> list:
    """(coefficient, input edge) pairs: output `port` of `node` is the sum of coefficient . input.

    ins holds the node's input edge per input port (None when unwired). A
    coefficient is a complex scalar or a d x d matrix; an unwired fan-out
    ancilla is the null state and contributes no term.
    """
    if isinstance(node, GateMatrix):
        return [(node.entries, ins[0])]
    if isinstance(node, FanInGate):
        w = node.n if port == 0 else node.m
        return [(w, ins[0]), (w if port == 0 else -w, ins[1])]
    # FanOutGate; sources are set from the inputs and sinks drive no edge
    terms = [(node.n if port == 0 else node.m, ins[0])]
    if ins[1] is not None:
        terms.append((node.m12 if port == 0 else node.m22, ins[1]))
    return terms


def _apply(coef, v: np.ndarray) -> np.ndarray:
    return coef @ v if isinstance(coef, np.ndarray) else coef * v


def _solve_feedback(graph: CircuitGraph, members: list, x: list, d: int):
    """Set the signals of one feedback component's internal edges; returns those edges.

    One block equation per internal edge; signals entering from earlier
    components are known in x and move to the right-hand side.
    """
    member_set = set(members)
    inner: dict = {}  # internal edge -> position in the local system
    for nid in members:
        for i, _ in graph.out_edges[nid]:
            if graph.edges[i][1][0] in member_set:
                inner[i] = len(inner)
    eye = np.eye(d, dtype=complex)
    a = np.eye(len(inner) * d, dtype=complex)
    b = np.zeros((len(inner), d), dtype=complex)
    for i, k in inner.items():
        (src, sp), _ = graph.edges[i]
        for coef, j in _terms(graph.nodes[src], sp, graph.in_edges[src]):
            if j in inner:
                blk = coef if isinstance(coef, np.ndarray) else coef * eye
                a[k * d:(k + 1) * d, inner[j] * d:(inner[j] + 1) * d] -= blk
            else:
                b[k] += _apply(coef, x[j])
    if _singular(a):
        ids = sorted(members, key=list(graph.nodes).index)
        raise LoopSingularError(f"feedback loop through nodes {ids} is singular; no steady state")
    x_inner = np.linalg.solve(a, b.reshape(-1)).reshape(-1, d)
    for i, k in inner.items():
        x[i] = x_inner[k]
    return inner


def solve(graph: CircuitGraph, inputs: dict) -> dict:
    """Steady-state signals at every sink, keyed by sink node id.

    Each edge carries one signal, produced by exactly one output port. The
    strongly connected components of the node graph are visited in
    topological order. A feed-forward node sets its output edges from its
    already-known input edges. A feedback component assembles one block
    equation per internal edge, moves the edges entering it from earlier
    components to the right-hand side, and solves that local system by direct
    elimination; LoopSingularError names the component's nodes when the
    system is singular.
    """
    sources = graph.sources()
    missing = [s for s in sources if s not in inputs]
    if missing:
        raise GraphError(f"sources without inputs: {missing}")
    extra = [s for s in inputs if s not in sources]
    if extra:
        raise GraphError(f"inputs for non-source nodes: {extra}")

    dims = {s: inputs[s].dim for s in sources}
    d = next(iter(dims.values()), 2)
    if any(v != d for v in dims.values()):
        raise DimError("all source states must share one dimension")
    for nid, node in graph.nodes.items():
        if isinstance(node, GateMatrix) and node.dim != d:
            raise DimError(f"gate {nid!r} has dim {node.dim}, circuit carries {d}")

    ins, outs = graph.in_edges, graph.out_edges
    if d != 2:
        for nid, node in graph.nodes.items():
            if isinstance(node, FanOutGate) and ins[nid][1] is not None and outs[nid]:
                raise DimError("fan-out ancilla submatrices are defined for dim 2")

    x: list = [None] * len(graph.edges)  # signal per edge, set in topological order
    for members, cyclic in graph.components():
        inner = _solve_feedback(graph, members, x, d) if cyclic else ()
        for nid in members:
            node = graph.nodes[nid]
            for i, sp in outs[nid]:
                if i in inner:
                    continue
                if isinstance(node, SourceNode):
                    x[i] = inputs[nid].amps
                    continue
                total = None
                for coef, j in _terms(node, sp, ins[nid]):
                    term = _apply(coef, x[j])
                    total = term if total is None else total + term
                x[i] = total

    dts = {inputs[s].delta_t for s in sources}
    dt = dts.pop() if len(dts) == 1 else None
    return {nid: AnbitState(x[ins[nid][0]], dt) for nid in graph.sinks()}


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
