import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anbit import (
    AnbitState,
    CircuitGraph,
    FanInGate,
    FanOutGate,
    GateMatrix,
    SinkNode,
    SourceNode,
    fan_in,
    fan_out,
    fanin_tensor_nonlinearity_witness,
    identity_gate,
    loop_equivalent,
    null_state,
    solve,
    two_anbit_loop,
)
from anbit.errors import DimError, GraphError, LoopSingularError, ParamError

from conftest import random_matrix, random_state_vec, random_unitary


def test_fanin_gate_matrix_blocks():
    g = FanInGate(2.0, 3.0j)
    m = g.matrix
    assert m.shape == (4, 4)
    assert np.array_equal(m[:2, :2], 2.0 * np.eye(2))
    assert np.array_equal(m[:2, 2:], 2.0 * np.eye(2))
    assert np.array_equal(m[2:, :2], 3.0j * np.eye(2))
    assert np.array_equal(m[2:, 2:], -3.0j * np.eye(2))


def test_fanin_gate_rejects_zero_params():
    with pytest.raises(ParamError):
        FanInGate(0.0, 1.0)
    with pytest.raises(ParamError):
        FanInGate(1.0, 0.0)


def test_fanin_determinant_law(rng):
    # det [[nI, nI], [mI, -mI]] = 4 n^2 m^2 for commuting 2x2 blocks
    for _ in range(50):
        n = complex(rng.normal(), rng.normal())
        m = complex(rng.normal(), rng.normal())
        if abs(n) < 1e-3 or abs(m) < 1e-3:
            continue
        det = np.linalg.det(FanInGate(n, m).matrix)
        assert det == pytest.approx(4.0 * n**2 * m**2, abs=1e-10)


def test_fanin_unitary_exactly_on_boundary(rng):
    for _ in range(20):
        n = np.exp(1j * rng.uniform(0, 2 * np.pi)) / np.sqrt(2.0)
        m = np.exp(1j * rng.uniform(0, 2 * np.pi)) / np.sqrt(2.0)
        g = FanInGate(n, m).matrix
        assert np.max(np.abs(g.conj().T @ g - np.eye(4))) < 1e-15
    # off the boundary the gram matrix departs from identity
    g = FanInGate(0.8, 1.0 / np.sqrt(2.0)).matrix
    assert np.max(np.abs(g.conj().T @ g - np.eye(4))) > 0.1


def test_fan_in_frozen():
    s, d = fan_in(AnbitState([1.0, 0.0]), AnbitState([0.0, 1.0]))
    assert np.array_equal(s.amps, [1.0, 1.0])
    assert np.array_equal(d.amps, [1.0, -1.0])


def test_fan_in_commutativity_exact(rng):
    for _ in range(50):
        a = AnbitState(random_state_vec(rng))
        b = AnbitState(random_state_vec(rng))
        n = complex(rng.normal(), rng.normal())
        m = complex(rng.normal(), rng.normal())
        s1, d1 = fan_in(a, b, n, m)
        s2, d2 = fan_in(b, a, n, -m)
        assert np.array_equal(s1.amps, s2.amps)
        assert np.array_equal(d1.amps, d2.amps)


def test_fan_out_is_fan_in_with_null_ancilla(rng):
    a = AnbitState(random_state_vec(rng))
    c1, c2 = fan_out(a, 1.5, 0.5)
    s, d = fan_in(a, null_state(2), 1.5, 0.5)
    assert np.array_equal(c1.amps, s.amps)
    assert np.array_equal(c2.amps, d.amps)


def test_fan_out_rejects_nonpositive():
    a = AnbitState([1.0, 0.0])
    with pytest.raises(ParamError):
        fan_out(a, -1.0, 1.0)
    with pytest.raises(ParamError):
        fan_out(a, 1.0, 0.0)


def test_fan_in_delta_t_rules():
    a = AnbitState([1.0, 0.0], delta_t=2.0)
    b = AnbitState([0.0, 1.0], delta_t=2.0)
    s, _ = fan_in(a, b)
    assert s.delta_t == 2.0
    c = AnbitState([0.0, 1.0], delta_t=3.0)
    s, _ = fan_in(a, c)
    assert s.delta_t is None


def test_fan_in_dim_mismatch():
    with pytest.raises(DimError):
        fan_in(AnbitState([1.0]), AnbitState([1.0, 0.0]))


def test_loop_equivalent_worked_case():
    half = GateMatrix(0.5 * np.eye(2))
    eq = loop_equivalent(half, half)
    assert np.array_equal(eq.entries, (2.0 / 3.0) * np.eye(2))


def test_loop_equivalent_matches_inverse_formula(rng):
    for _ in range(50):
        m1 = GateMatrix(random_matrix(rng, 0.4))
        m2 = GateMatrix(random_matrix(rng, 0.4))
        n1, n2, mp = 0.9 + 0.2j, 1.3, 0.8
        eq = loop_equivalent(m1, m2, n1, n2, mp)
        g = np.eye(2) - n1 * mp * (m1.entries @ m2.entries)
        want = n1 * n2 * np.linalg.inv(g) @ m1.entries
        assert np.max(np.abs(eq.entries - want)) < 1e-12


def test_loop_equivalent_singular():
    with pytest.raises(LoopSingularError):
        loop_equivalent(identity_gate(), identity_gate())


def loop_graph(m1, m2, n1=1.0, n2=1.0, m1_param=1.0, m2_param=1.0):
    """Single-anbit loop: fan-in, gate, fan-out, with the copy fed back."""
    nodes = {
        "src": SourceNode(),
        "fi": FanInGate(n1, m1_param),
        "g1": m1,
        "fo": FanOutGate(n2, m2_param),
        "g2": m2,
        "out": SinkNode(),
        "diff": SinkNode(),
    }
    edges = (
        (("src", 0), ("fi", 0)),
        (("fi", 0), ("g1", 0)),
        (("g1", 0), ("fo", 0)),
        (("fo", 0), ("out", 0)),
        (("fo", 1), ("g2", 0)),
        (("g2", 0), ("fi", 1)),
        (("fi", 1), ("diff", 0)),
    )
    return CircuitGraph(nodes, edges)


def test_solve_loop_matches_loop_equivalent(rng):
    for _ in range(30):
        m1 = GateMatrix(random_matrix(rng, 0.4))
        m2 = GateMatrix(random_matrix(rng, 0.4))
        g = loop_graph(m1, m2, n1=0.9, n2=1.1, m2_param=0.7)
        psi = AnbitState(random_state_vec(rng))
        out = solve(g, {"src": psi})["out"]
        want = loop_equivalent(m1, m2, 0.9, 1.1, 0.7).entries @ psi.amps
        assert np.max(np.abs(out.amps - want)) < 1e-12


def test_solve_combinational_chain(rng):
    m1 = GateMatrix(random_matrix(rng))
    m2 = GateMatrix(random_matrix(rng))
    nodes = {
        "s": SourceNode(),
        "a": m1,
        "b": m2,
        "t": SinkNode(),
    }
    edges = ((("s", 0), ("a", 0)), (("a", 0), ("b", 0)), (("b", 0), ("t", 0)))
    g = CircuitGraph(nodes, edges)
    psi = AnbitState(random_state_vec(rng))
    out = solve(g, {"s": psi})["t"]
    assert np.allclose(out.amps, m2.entries @ m1.entries @ psi.amps, atol=1e-13)


def test_solve_singular_loop_raises():
    g = loop_graph(identity_gate(), identity_gate())
    with pytest.raises(LoopSingularError):
        solve(g, {"src": AnbitState([1.0, 0.0])})


def test_solve_missing_input():
    g = loop_graph(identity_gate(), GateMatrix(0.5 * np.eye(2)))
    with pytest.raises(GraphError):
        solve(g, {})


def test_solve_delta_t_propagation(rng):
    m = GateMatrix(random_matrix(rng))
    nodes = {"s": SourceNode(), "a": m, "t": SinkNode()}
    edges = ((("s", 0), ("a", 0)), (("a", 0), ("t", 0)))
    g = CircuitGraph(nodes, edges)
    out = solve(g, {"s": AnbitState([1.0, 0.0], delta_t=1.5)})["t"]
    assert out.delta_t == 1.5


def test_two_anbit_loop_matches_sequential_graph(rng):
    m1 = GateMatrix(random_matrix(rng, 0.4))
    m2 = GateMatrix(random_matrix(rng, 0.4))
    n1, n2 = 0.8 + 0.1j, 1.1 - 0.2j
    n3, n4, m3, m4 = 0.9, 1.2, 0.7, 0.6
    a1, a2, b1, b2 = two_anbit_loop(
        m1, m2, n1=n1, n2=n2, n3=n3, n4=n4, m3=m3, m4=m4
    )
    nodes = {
        "s1": SourceNode(),
        "s2": SourceNode(),
        "fia": FanInGate(n1, 1.0),
        "g1": m1,
        "foa": FanOutGate(n3, m3),
        "fib": FanInGate(n2, 1.0),
        "g2": m2,
        "fob": FanOutGate(n4, m4),
        "outa": SinkNode(),
        "outb": SinkNode(),
    }
    edges = (
        (("s1", 0), ("fia", 0)),
        (("fob", 1), ("fia", 1)),
        (("fia", 0), ("g1", 0)),
        (("g1", 0), ("foa", 0)),
        (("foa", 0), ("outa", 0)),
        (("foa", 1), ("fib", 1)),
        (("s2", 0), ("fib", 0)),
        (("fib", 0), ("g2", 0)),
        (("g2", 0), ("fob", 0)),
        (("fob", 0), ("outb", 0)),
    )
    g = CircuitGraph(nodes, edges)
    p1 = AnbitState(random_state_vec(rng))
    p2 = AnbitState(random_state_vec(rng))
    res = solve(g, {"s1": p1, "s2": p2})
    want_a = a1.entries @ p1.amps + a2.entries @ p2.amps
    want_b = b1.entries @ p1.amps + b2.entries @ p2.amps
    assert np.max(np.abs(res["outa"].amps - want_a)) < 1e-12
    assert np.max(np.abs(res["outb"].amps - want_b)) < 1e-12


def test_two_anbit_loop_param_validation():
    m = GateMatrix(0.5 * np.eye(2))
    with pytest.raises(ParamError):
        two_anbit_loop(m, m, n1=0.0)
    with pytest.raises(ParamError):
        two_anbit_loop(m, m, n3=-1.0)


def test_graph_validation_unknown_node():
    nodes = {"s": SourceNode(), "t": SinkNode()}
    with pytest.raises(GraphError):
        CircuitGraph(nodes, ((("s", 0), ("ghost", 0)),))


@pytest.mark.parametrize("foreign", [5, np.eye(2), identity_gate().entries.tolist()], ids=["int", "ndarray", "list"])
def test_graph_validation_foreign_node(foreign):
    nodes = {"s": SourceNode(), "x": foreign, "t": SinkNode()}
    edges = ((("s", 0), ("x", 0)), (("x", 0), ("t", 0)))
    with pytest.raises(GraphError, match=f"node 'x' is a {type(foreign).__name__};"):
        CircuitGraph(nodes, edges)


def test_graph_validation_double_wired_port():
    nodes = {"s": SourceNode(), "a": identity_gate(), "t": SinkNode()}
    edges = ((("s", 0), ("a", 0)), (("s", 0), ("t", 0)))
    with pytest.raises(GraphError):
        CircuitGraph(nodes, edges)


def test_graph_validation_unfed_input():
    nodes = {"s": SourceNode(), "a": identity_gate(), "t": SinkNode()}
    edges = ((("s", 0), ("a", 0)),)  # sink input never fed
    with pytest.raises(GraphError):
        CircuitGraph(nodes, edges)


def test_graph_validation_port_range():
    nodes = {"s": SourceNode(), "t": SinkNode()}
    with pytest.raises(GraphError):
        CircuitGraph(nodes, ((("s", 3), ("t", 0)),))


def test_graph_fanout_ancilla_may_dangle(rng):
    # unwired ancilla input acts as a null state
    m = GateMatrix(random_matrix(rng))
    nodes = {
        "s": SourceNode(),
        "fo": FanOutGate(2.0, 0.5),
        "g": m,
        "t1": SinkNode(),
        "t2": SinkNode(),
    }
    edges = (
        (("s", 0), ("fo", 0)),
        (("fo", 0), ("g", 0)),
        (("g", 0), ("t1", 0)),
        (("fo", 1), ("t2", 0)),
    )
    g = CircuitGraph(nodes, edges)
    psi = AnbitState(random_state_vec(rng))
    res = solve(g, {"s": psi})
    assert np.allclose(res["t1"].amps, 2.0 * m.entries @ psi.amps, atol=1e-13)
    assert np.allclose(res["t2"].amps, 0.5 * psi.amps, atol=1e-13)


def test_witness_frozen():
    t, m = fanin_tensor_nonlinearity_witness(
        AnbitState([1.0, 0.0]), AnbitState([0.0, 1.0])
    )
    assert np.array_equal(t, [1.0, -1.0, 1.0, -1.0])
    assert np.array_equal(m, [0.0, -1.0, 0.0, 0.0])


def test_witness_differs_generically(rng):
    for _ in range(50):
        a = AnbitState(random_state_vec(rng))
        b = AnbitState(random_state_vec(rng))
        t, m = fanin_tensor_nonlinearity_witness(a, b)
        assert np.max(np.abs(t - m)) > 1e-6


def test_components_topological_with_cycle_flags():
    nodes = {
        "t": SinkNode(),
        "fi": FanInGate(),
        "a": identity_gate(),
        "s": SourceNode(),
        "b": identity_gate(),
        "fo": FanOutGate(),
    }
    edges = (
        (("s", 0), ("fo", 0)),
        (("fo", 0), ("a", 0)),
        (("fo", 1), ("fi", 0)),
        (("fi", 1), ("fi", 1)),  # difference port fed back to itself
        (("fi", 0), ("b", 0)),
        (("b", 0), ("t", 0)),
    )
    comps = CircuitGraph(nodes, edges).components()
    assert sorted(ids for members, _ in comps for ids in members) == sorted(nodes)
    position = {members[0]: k for k, (members, _) in enumerate(comps)}
    for (src, _), (dst, _) in edges:
        assert position[src] <= position[dst]
    assert {members[0]: cyclic for members, cyclic in comps} == {
        "s": False, "fo": False, "a": False, "fi": True, "b": False, "t": False
    }


def _loop_nodes(prefix, m1, m2, n1=1.0, m2_param=1.0):
    """Single-anbit loop nodes named prefix_*: fan-in, gate, fan-out, gate back."""
    nodes = {
        f"{prefix}_fi": FanInGate(n1, 1.0),
        f"{prefix}_g1": m1,
        f"{prefix}_fo": FanOutGate(1.0, m2_param),
        f"{prefix}_g2": m2,
    }
    edges = [
        ((f"{prefix}_fi", 0), (f"{prefix}_g1", 0)),
        ((f"{prefix}_g1", 0), (f"{prefix}_fo", 0)),
        ((f"{prefix}_fo", 1), (f"{prefix}_g2", 0)),
        ((f"{prefix}_g2", 0), (f"{prefix}_fi", 1)),
    ]
    return nodes, edges


def test_singular_loop_error_names_its_component(rng):
    # two loops in series; only the second (identity gates, unit weights) is singular
    good_nodes, good_edges = _loop_nodes(
        "p", GateMatrix(random_matrix(rng, 0.3)), GateMatrix(random_matrix(rng, 0.3))
    )
    bad_nodes, bad_edges = _loop_nodes("q", identity_gate(), identity_gate())
    nodes = {"src": SourceNode(), **good_nodes, **bad_nodes, "out": SinkNode()}
    edges = good_edges + bad_edges + [
        (("src", 0), ("p_fi", 0)),
        (("p_fo", 0), ("q_fi", 0)),
        (("q_fo", 0), ("out", 0)),
    ]
    with pytest.raises(LoopSingularError) as info:
        solve(CircuitGraph(nodes, edges), {"src": AnbitState([1.0, 0.0])})
    message = str(info.value)
    for nid in bad_nodes:
        assert repr(nid) in message
    for nid in list(good_nodes) + ["src", "out"]:
        assert nid not in message


def test_long_census_chain_solves(rng):
    # a feed-forward gain chain has no feedback to be singular, whatever its total gain
    nodes = {"s": SourceNode(), "t": SinkNode()}
    edges = []
    psi = random_state_vec(rng)
    want, prev = psi, "s"
    for k in range(160):
        m = random_matrix(rng)
        want = m @ want
        nodes[f"g{k}"] = GateMatrix(m)
        edges.append(((prev, 0), (f"g{k}", 0)))
        prev = f"g{k}"
    edges.append(((prev, 0), ("t", 0)))
    out = solve(CircuitGraph(nodes, edges), {"s": AnbitState(psi)})["t"].amps
    assert np.linalg.norm(out - want) <= 1e-12 * np.linalg.norm(want)


class _Builder:
    """Random circuit grown on open output ports, each with its signal.

    Every port carries (signal, magnitude): the signal by direct propagation
    in build order, the magnitude as the same propagation over entrywise
    absolute values, which bounds the rounding of any evaluation order.
    """

    def __init__(self, draw, rng, gate_draw):
        self.draw, self.rng, self.gate_draw = draw, rng, gate_draw
        self.nodes, self.edges, self.inputs, self.live = {}, [], {}, []
        self.loops = 0

    def add(self, node) -> str:
        nid = f"n{len(self.nodes)}"
        self.nodes[nid] = node
        return nid

    def source(self):
        v = random_state_vec(self.rng)
        s = self.add(SourceNode())
        self.inputs[s] = AnbitState(v)
        self.live.append(((s, 0), v, np.abs(v)))

    def take(self):
        return self.live.pop(self.draw(st.integers(0, len(self.live) - 1)))

    def gate(self, port, v, mag):
        m = self.gate_draw(self.rng)
        g = self.add(GateMatrix(m))
        self.edges.append((port, (g, 0)))
        return (g, 0), m @ v, np.abs(m) @ mag

    def fanout(self, port, v, mag):
        n, m = self.rng.uniform(0.5, 1.5, size=2)
        fo = self.add(FanOutGate(n, m))
        self.edges.append((port, (fo, 0)))
        return ((fo, 0), n * v, n * mag), ((fo, 1), m * v, m * mag)

    def ancilla_fanout(self, a, b):
        """Fan-out of a with its ancilla input wired to b through free m12, m22."""
        n, m = self.rng.uniform(0.5, 1.5, size=2)
        m12, m22 = random_matrix(self.rng), random_matrix(self.rng)
        fo = self.add(FanOutGate(n, m, m12, m22))
        self.edges += [(a[0], (fo, 0)), (b[0], (fo, 1))]
        for port, w, sub in ((0, n, m12), (1, m, m22)):
            self.live.append(((fo, port), w * a[1] + sub @ b[1], w * a[2] + np.abs(sub) @ b[2]))

    def fanin(self, a, b, keep_difference=True):
        n, m = random_state_vec(self.rng)
        fi = self.add(FanInGate(n, m))
        self.edges += [(a[0], (fi, 0)), (b[0], (fi, 1))]
        self.live.append(((fi, 0), n * (a[1] + b[1]), abs(n) * (a[2] + b[2])))
        if keep_difference:
            self.live.append(((fi, 1), m * (a[1] - b[1]), abs(m) * (a[2] + b[2])))

    def step(self, kinds):
        kind = self.draw(st.sampled_from(kinds))
        if kind in ("fanin", "ancilla") and len(self.live) < 2:
            kind = "gate"
        if kind == "gate":  # a run of 1-12 gates in series
            port = self.take()
            for _ in range(self.draw(st.integers(1, 12))):
                port = self.gate(*port)
            self.live.append(port)
        elif kind == "fanout":
            self.live.extend(self.fanout(*self.take()))
        elif kind == "fanin":
            self.fanin(self.take(), self.take(), self.draw(st.booleans()))
        elif kind == "ancilla":
            self.ancilla_fanout(self.take(), self.take())
        else:  # rung: fan-out, two gate branches, fan-in
            a, b = self.fanout(*self.take())
            for _ in range(self.draw(st.integers(1, 3))):
                a = self.gate(*a)
            for _ in range(self.draw(st.integers(1, 3))):
                b = self.gate(*b)
            self.fanin(a, b, self.draw(st.booleans()))

    def finish(self):
        """(graph, inputs, {sink: (signal, magnitude)}), node and edge order shuffled."""
        want = {}
        for port, v, mag in self.live:
            t = self.add(SinkNode())
            self.edges.append((port, (t, 0)))
            want[t] = (v, mag)
        if self.draw(st.booleans()):
            ids = list(self.nodes)
            self.nodes = {ids[k]: self.nodes[ids[k]] for k in self.rng.permutation(len(ids))}
            self.edges = [self.edges[k] for k in self.rng.permutation(len(self.edges))]
        return CircuitGraph(self.nodes, self.edges), self.inputs, want


@st.composite
def acyclic_circuits(draw):
    """Chains, rungs, merges and wired-ancilla fan-outs of 1-3 sources, census gates.

    Up to about 200 edges.
    """
    b = _Builder(draw, np.random.default_rng(draw(st.integers(0, 2**32 - 1))), random_matrix)
    for _ in range(draw(st.integers(1, 3))):
        b.source()
    for _ in range(draw(st.integers(1, 40))):
        if len(b.edges) > 170:
            break
        b.step(["gate", "gate", "rung", "fanout", "fanin", "ancilla"])
    return b.finish()


@settings(max_examples=60, deadline=None)
@given(acyclic_circuits())
def test_acyclic_solve_matches_direct_propagation(case):
    graph, inputs, want = case
    assert not any(cyclic for _, cyclic in graph.components())
    out = solve(graph, inputs)  # never LoopSingularError: nothing feeds back
    assert set(out) == set(want)
    for sink, (v, mag) in want.items():
        assert np.all(np.abs(out[sink].amps - v) <= 1e-9 * mag)


def _contraction(rng, norm=0.7):
    m = random_matrix(rng)
    return norm * m / np.linalg.norm(m, 2)


def _add_loop(b: _Builder, kind: str):
    """Embed a feedback loop on open ports; its outputs join them with zero placeholders."""
    rng = b.rng
    unknown = (np.zeros(2), np.zeros(2))  # loop outputs are not propagated directly
    if kind == "self":  # fan-in whose difference port feeds its own second input
        port = b.take()[0]
        z = random_state_vec(rng)
        fi = b.add(FanInGate(*(0.7 * z / np.abs(z))))  # |1 + m| >= 0.3
        b.edges += [(port, (fi, 0)), ((fi, 1), (fi, 1))]
        b.live.append(((fi, 0), *unknown))
    elif kind == "loop":
        nodes, edges = _loop_nodes(
            f"L{len(b.nodes)}", GateMatrix(_contraction(rng)), GateMatrix(_contraction(rng)),
            n1=complex(*rng.uniform(-0.7, 0.7, 2)), m2_param=rng.uniform(0.3, 1.0),
        )
        fi, _g1, fo, _g2 = nodes
        b.nodes.update(nodes)
        b.edges += edges + [(b.take()[0], (fi, 0))]
        b.live += [((fo, 0), *unknown), ((fi, 1), *unknown)]
    else:  # crossed two-anbit loop on two open ports
        ports = [b.take()[0], b.take()[0]]
        fis = [b.add(FanInGate(0.7, 1.0)) for _ in range(2)]
        gs = [b.add(GateMatrix(_contraction(rng))) for _ in range(2)]
        fos = [b.add(FanOutGate(1.0, 0.7)) for _ in range(2)]
        for k in range(2):
            b.edges += [
                (ports[k], (fis[k], 0)),
                ((fis[k], 0), (gs[k], 0)),
                ((gs[k], 0), (fos[k], 0)),
                ((fos[k], 1), (fis[1 - k], 1)),
            ]
            b.live.append(((fos[k], 0), *unknown))
    b.loops += 1


def dense_solve(graph, inputs):
    """Reference: one block equation per edge, the whole system solved at once."""
    edges = graph.edges
    d = 2
    in_edge = {dst: i for i, (_, dst) in enumerate(edges)}
    a = np.eye(len(edges) * d, dtype=complex)
    rhs = np.zeros(len(edges) * d, dtype=complex)
    eye = np.eye(d)
    for i, ((src, sp), _) in enumerate(edges):
        node = graph.nodes[src]
        row = slice(i * d, (i + 1) * d)

        def sub(j, block):
            a[row, j * d:(j + 1) * d] -= block

        if isinstance(node, SourceNode):
            rhs[row] = inputs[src].amps
        elif isinstance(node, GateMatrix):
            sub(in_edge[(src, 0)], node.entries)
        elif isinstance(node, FanInGate):
            w = node.n if sp == 0 else node.m
            sub(in_edge[(src, 0)], w * eye)
            sub(in_edge[(src, 1)], (w if sp == 0 else -w) * eye)
        else:
            sub(in_edge[(src, 0)], (node.n if sp == 0 else node.m) * eye)
            if (src, 1) in in_edge:
                sub(in_edge[(src, 1)], node.m12 if sp == 0 else node.m22)
    x = np.linalg.solve(a, rhs).reshape(-1, d)
    return {nid: x[in_edge[(nid, 0)]] for nid in graph.sinks()}, float(np.max(np.abs(x)))


@st.composite
def feedback_circuits(draw):
    """Unitary-gate feed-forward parts around one or two embedded feedback loops."""
    b = _Builder(draw, np.random.default_rng(draw(st.integers(0, 2**32 - 1))), random_unitary)
    for _ in range(draw(st.integers(1, 3))):
        b.source()
    loops = draw(st.lists(st.sampled_from(["self", "loop", "cross"]), min_size=1, max_size=2))
    for kind in loops:
        for _ in range(draw(st.integers(0, 8))):
            b.step(["gate", "rung", "fanout", "fanin", "ancilla"])
        while kind == "cross" and len(b.live) < 2:
            b.step(["fanout"])
        _add_loop(b, kind)
    for _ in range(draw(st.integers(0, 8))):
        b.step(["gate", "rung", "fanin"])
    graph, inputs, _ = b.finish()
    return graph, inputs, b.loops


@settings(max_examples=60, deadline=None)
@given(feedback_circuits())
def test_feedback_solve_matches_dense_global_solve(case):
    graph, inputs, n_loops = case
    assert sum(cyclic for _, cyclic in graph.components()) == n_loops
    out = solve(graph, inputs)
    want, scale = dense_solve(graph, inputs)
    for sink, v in want.items():
        assert np.max(np.abs(out[sink].amps - v)) <= 1e-9 * max(1.0, scale)


def test_solve_dim3_loop_matches_loop_equivalent():
    # solve is dimension-generic outside fan-out ancillas; a dim-3 loop meets the oracle
    rng = np.random.default_rng(3)
    m1, m2 = (GateMatrix(0.4 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))) for _ in range(2))
    psi = AnbitState(random_state_vec(rng, 3))
    out = solve(loop_graph(m1, m2, n1=0.9, n2=1.1, m2_param=0.7), {"src": psi})["out"]
    want = loop_equivalent(m1, m2, 0.9, 1.1, 0.7).entries @ psi.amps
    assert np.max(np.abs(out.amps - want)) < 1e-14


def _two_source_fanout():
    # a fan-out whose ancilla input is wired to a second source
    nodes = {"s1": SourceNode(), "s2": SourceNode(), "fo": FanOutGate(), "t1": SinkNode(), "t2": SinkNode()}
    edges = ((("s1", 0), ("fo", 0)), (("s2", 0), ("fo", 1)), (("fo", 0), ("t1", 0)), (("fo", 1), ("t2", 0)))
    return CircuitGraph(nodes, edges)


@pytest.mark.parametrize(
    "graph,inputs,message",
    [
        (_two_source_fanout(), {"s1": AnbitState(np.ones(3)), "s2": AnbitState(np.ones(3))},
         "fan-out ancilla submatrices are defined for dim 2"),
        (_two_source_fanout(), {"s1": AnbitState(np.ones(2)), "s2": AnbitState(np.ones(3))},
         "all source states must share one dimension"),
        (CircuitGraph({"s": SourceNode(), "g": identity_gate(), "t": SinkNode()}, ((("s", 0), ("g", 0)), (("g", 0), ("t", 0)))),
         {"s": AnbitState(np.ones(3))}, "gate 'g' has dim 2, circuit carries 3"),
    ],
    ids=["dim3-wired-ancilla", "mixed-source-dims", "gate-of-another-dim"],
)
def test_solve_rejects_mixed_dimensions(graph, inputs, message):
    with pytest.raises(DimError) as exc:
        solve(graph, inputs)
    assert str(exc.value) == message


def test_graph_validation_source_drives_nothing():
    nodes = {"s": SourceNode(), "idle": SourceNode(), "t": SinkNode()}
    with pytest.raises(GraphError) as exc:
        CircuitGraph(nodes, ((("s", 0), ("t", 0)),))
    assert str(exc.value) == "source 'idle' drives nothing"
