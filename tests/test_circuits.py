import tracemalloc

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
    circuit_transfer,
    fan_in,
    fan_out,
    fanin_tensor_nonlinearity_witness,
    identity_gate,
    loop_equivalent,
    null_state,
    pauli,
    solve,
    two_anbit_loop,
)
from anbit import circuits, lower_circuit
from anbit.errors import DimError, GraphError, LoopSingularError, ParamError

from conftest import random_matrix, random_state_vec, random_unitary

TOL = 1e-9  # lowered forward transfers, relative (the benchmark's reference TOL)


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


def test_default_ancilla_blocks_are_read_only_scaled_identities():
    fo = FanOutGate(0.8, 0.6)
    assert np.array_equal(fo.m12, 0.8 * np.eye(2)) and np.array_equal(fo.m22, -0.6 * np.eye(2))
    for block in (fo.m12, fo.m22):
        assert block.dtype == complex and not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0] = 1.0
    assert fo.is_default_ancilla
    assert not FanOutGate(0.8, 0.6, m12=2.0 * np.eye(2)).is_default_ancilla
    # the identity the blocks are built from is shared, and no gate can change it
    assert np.array_equal(circuits._I2, np.eye(2)) and not circuits._I2.flags.writeable
    want = np.block([[0.8 * np.eye(2), 0.8 * np.eye(2)], [0.6 * np.eye(2), -0.6 * np.eye(2)]])
    assert np.array_equal(fo.matrix, want) and np.array_equal(FanInGate(0.8, 0.6).matrix, want)


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


@pytest.mark.parametrize("s", [1e-8, 1e-6, 1e6, 1e7, 1e8])
def test_loop_label_does_not_depend_on_gate_scale(s):
    # the loop gain s * (0.5 / s) is the same at every s, and so is the steady state
    rng = np.random.default_rng(5)
    m1, m2 = GateMatrix(s * random_unitary(rng)), GateMatrix(0.5 / s * random_unitary(rng))
    psi = AnbitState(random_state_vec(rng))
    out = solve(loop_graph(m1, m2, n1=0.9, m2_param=0.7), {"src": psi})["out"].amps
    want = loop_equivalent(m1, m2, 0.9, 1.0, 0.7).entries @ psi.amps
    assert np.linalg.norm(out - want) <= 1e-12 * np.linalg.norm(want)


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


def test_singular_loop_raises_on_every_call(monkeypatch):
    # a singular loop keeps no map, so each call walks it again and raises again
    walks = []
    walk = circuits._walk
    monkeypatch.setattr(circuits, "_walk", lambda *args: walks.append(args[0]) or walk(*args))
    g = loop_graph(identity_gate(), identity_gate())
    for call in (lambda: solve(g, {"src": AnbitState([1.0, 0.0])}), lambda: circuit_transfer(g)) * 2:
        with pytest.raises(LoopSingularError):
            call()
    assert walks == [g] * 4


@pytest.mark.parametrize("gain,amp,want", [(1e8, 1e-300, 1e20), (1e-8, 1e300, 1e-20)], ids=["overflow", "underflow"])
def test_solve_keeps_answers_past_the_range_of_the_map(gain, amp, want):
    # forty gains make a map of 1e320 (inf) or 1e-320 (subnormal), while the
    # input's own signal stays in range: solve walks the input instead
    names = [f"g{k}" for k in range(40)]
    path = ["s", *names, "t"]
    nodes = {"s": SourceNode(), **{g: GateMatrix(gain * np.eye(2)) for g in names}, "t": SinkNode()}
    graph = CircuitGraph(nodes, [((a, 0), (b, 0)) for a, b in zip(path, path[1:])])
    for _ in range(2):
        out = solve(graph, {"s": AnbitState([amp, 0.0])})["t"].amps
        np.testing.assert_allclose(out, [want, 0.0], rtol=1e-13, atol=0.0)


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


def _through(node):
    return {"s": SourceNode(), "x": node, "t": SinkNode()}, ((("s", 0), ("x", 0)), (("x", 0), ("t", 0)))


@pytest.mark.parametrize(
    "nodes,edges,message",
    [
        (*_through(5), "node 'x' is a int;"),
        (*_through(np.eye(2)), "node 'x' is a ndarray;"),
        (*_through(identity_gate().entries.tolist()), "node 'x' is a list;"),
        ({"s": SourceNode(), "t": SinkNode()}, [[("s", 0)]], "edge [('s', 0)] is not two (node, integer port) ends"),
        ({"s": SourceNode(), 1: SinkNode()}, [(("s", 0), (1, 0))], "node id 1 is not a string"),
    ],
    ids=["int", "ndarray", "list", "edge-with-one-end", "integer-node-id"],
)
def test_graph_validation_foreign_node(nodes, edges, message):
    with pytest.raises(GraphError) as exc:
        CircuitGraph(nodes, edges)
    assert str(exc.value).startswith(message)


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


def test_a_built_graph_is_read_only():
    # the kept map answers for the nodes as built, so they cannot be swapped after
    def chain(gate):
        return CircuitGraph({"s": SourceNode(), "g": gate, "t": SinkNode()}, ((("s", 0), ("g", 0)), (("g", 0), ("t", 0))))

    fresh, solved = chain(pauli(1)), chain(pauli(1))
    solve(solved, {"s": AnbitState([1.0, 0.0])})
    for graph, node in ((fresh, "junk"), (solved, pauli(3))):
        with pytest.raises(TypeError):
            graph.nodes["g"] = node
        assert np.array_equal(solve(graph, {"s": AnbitState([1.0, 0.0])})["t"].amps, [0.0, 1.0])
        assert type(graph.components()) is tuple
        assert all(type(members) is tuple for members, _ in graph.components())


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


def test_components_are_searched_once_per_graph(rng, monkeypatch):
    # solve, a second solve on another input and the lowering share one search
    searched = []
    tarjan = CircuitGraph._tarjan
    monkeypatch.setattr(CircuitGraph, "_tarjan", lambda self: searched.append(self) or tarjan(self))
    gates = {"a": GateMatrix(random_unitary(rng)), "b": GateMatrix(random_matrix(rng))}
    chain = CircuitGraph(
        {"s": SourceNode(), **gates, "t": SinkNode()},
        ((("s", 0), ("a", 0)), (("a", 0), ("b", 0)), (("b", 0), ("t", 0))),
    )
    loop = loop_graph(GateMatrix(_contraction(rng)), GateMatrix(_contraction(rng)))
    for graph in (chain, loop):
        first = graph.components()
        for vec in ([1.0, 0.0], [0.3, -0.2j]):
            solve(graph, {graph.sources()[0]: AnbitState(vec)})
        assert graph.components() is first
    lower_circuit(chain, arch="svd")
    assert searched == [chain, loop]


def test_walk_drops_each_block_once_its_reader_has_run():
    # a 128-source fan-in tree: the blocks alive at once are the walk's frontier, so the
    # peak stays near the identity right-hand side, not at twice it
    n = 128
    nodes = {f"s{k}": SourceNode() for k in range(n)}
    edges, level = [], [(f"s{k}", 0) for k in range(n)]
    while len(level) > 1:
        ids = [f"f{len(nodes) + k}" for k in range(len(level) // 2)]
        nodes.update((f, FanInGate()) for f in ids)
        edges += [e for f, a, b in zip(ids, level[::2], level[1::2]) for e in ((a, (f, 0)), (b, (f, 1)))]
        level = [(f, 0) for f in ids]
    graph = CircuitGraph({**nodes, "t": SinkNode()}, edges + [(level[0], ("t", 0))])
    tracemalloc.start()
    try:
        transfer = circuit_transfer(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(transfer, np.tile(np.eye(2), n))
    assert peak <= 1.5 * (2 * n) ** 2 * np.dtype(complex).itemsize


def test_two_solves_walk_the_graph_once(rng, monkeypatch):
    # the first solve walks identity columns and keeps the map; the second input and
    # circuit_transfer read it
    walks = []
    walk = circuits._walk
    monkeypatch.setattr(circuits, "_walk", lambda *args: walks.append(args[0]) or walk(*args))
    graph = loop_graph(GateMatrix(_contraction(rng)), GateMatrix(_contraction(rng)))
    vecs = [random_state_vec(rng) for _ in range(2)]
    outs = [solve(graph, {"src": AnbitState(v)}) for v in vecs]
    transfer = circuit_transfer(graph)
    assert walks == [graph]
    for v, out in zip(vecs, outs):
        np.testing.assert_array_equal(np.concatenate([out["out"].amps, out["diff"].amps]), transfer @ v)


@pytest.mark.parametrize("dim,error", [("2", ParamError), (2.0, ParamError), (None, ParamError),
                                       (0, DimError), (-1, DimError)])
def test_transfer_refuses_a_dim_that_is_not_a_positive_integer(dim, error, monkeypatch):
    # a gate-free fan-out circuit carries any dim, so only the dim rule can refuse it;
    # a refused dim walks nothing and keeps nothing
    walks = []
    walk = circuits._walk
    monkeypatch.setattr(circuits, "_walk", lambda *args: walks.append(args[0]) or walk(*args))
    graph = CircuitGraph(
        {"s": SourceNode(), "fo": FanOutGate(), "t": SinkNode(), "u": SinkNode()},
        ((("s", 0), ("fo", 0)), (("fo", 0), ("t", 0)), (("fo", 1), ("u", 0))),
    )
    with pytest.raises(error, match="dim"):
        circuit_transfer(graph, dim)
    assert walks == []
    np.testing.assert_array_equal(circuit_transfer(graph, 2), np.vstack((np.eye(2), np.eye(2))))
    assert walks == [graph]


def test_transfer_stacks_sources_in_declaration_order(rng):
    # sources declared b before a, sinks t before u: column block 0 answers b, block 1 answers a
    m = GateMatrix(random_matrix(rng))
    nodes = {"t": SinkNode(), "b": SourceNode(), "fi": FanInGate(0.5, 2.0), "g": m, "a": SourceNode(), "u": SinkNode()}
    edges = [(("a", 0), ("g", 0)), (("g", 0), ("fi", 0)), (("b", 0), ("fi", 1)), (("fi", 0), ("t", 0)), (("fi", 1), ("u", 0))]
    graph = CircuitGraph(nodes, edges)
    eye = np.eye(2)
    want = np.block([[0.5 * eye, 0.5 * m.entries], [-2.0 * eye, 2.0 * m.entries]])
    transfer = circuit_transfer(graph)
    assert np.max(np.abs(transfer - want)) <= 1e-15 * np.max(np.abs(want))
    va, vb = random_state_vec(rng), random_state_vec(rng)
    out = solve(graph, {"a": AnbitState(va), "b": AnbitState(vb)})
    np.testing.assert_array_equal(np.concatenate([out["t"].amps, out["u"].amps]), transfer @ np.concatenate([vb, va]))


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


def _ring_nodes(prefix, gates, n1=1.0, m2_param=1.0):
    """A run of gates closed into a loop through one fan-in and one fan-out."""
    nodes = {f"{prefix}_fi": FanInGate(n1, 1.0), f"{prefix}_fo": FanOutGate(1.0, m2_param)}
    edges = [((f"{prefix}_fo", 1), (f"{prefix}_fi", 1))]
    prev = (f"{prefix}_fi", 0)
    for k, gate in enumerate(gates):
        nodes[f"{prefix}_g{k}"] = gate
        edges.append((prev, (f"{prefix}_g{k}", 0)))
        prev = (f"{prefix}_g{k}", 0)
    edges.append((prev, (f"{prefix}_fo", 0)))
    return nodes, edges


def _cross_nodes(prefix, m1, m2):
    """Crossed two-anbit loop: each fan-out's copy feeds the other anbit's fan-in."""
    nodes, edges = {}, []
    for k, m in enumerate((m1, m2)):
        fi, g, fo = f"{prefix}_fi{k}", f"{prefix}_g{k}", f"{prefix}_fo{k}"
        nodes.update({fi: FanInGate(0.7, 1.0), g: m, fo: FanOutGate(1.0, 0.7)})
        edges += [((fi, 0), (g, 0)), ((g, 0), (fo, 0)), ((fo, 1), (f"{prefix}_fi{1 - k}", 1))]
    return nodes, edges


def _nested_nodes(prefix, m1, m2, m3, m4, n1=1.0, m2_param=1.0):
    """A single-anbit loop with a second one inside its feedback path, ahead of its gate back."""
    nodes, edges = _loop_nodes(f"{prefix}o", m1, m2, n1, m2_param)
    inner, inner_edges = _loop_nodes(f"{prefix}i", m3, m4, n1, m2_param)
    edges.remove(((f"{prefix}o_fo", 1), (f"{prefix}o_g2", 0)))
    edges += inner_edges + [((f"{prefix}o_fo", 1), (f"{prefix}i_fi", 0)), ((f"{prefix}i_fo", 0), (f"{prefix}o_g2", 0))]
    return {**nodes, **inner}, edges


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


_ACYCLIC_STEPS = ("gate", "gate", "rung", "fanout", "fanin", "ancilla")


@st.composite
def acyclic_circuits(draw, steps=_ACYCLIC_STEPS, gates=random_matrix):
    """Chains, rungs, merges and wired-ancilla fan-outs of 1-3 sources, census gates.

    Up to about 200 edges. `steps` and `gates` narrow the kinds of step and
    draw the gate matrices.
    """
    b = _Builder(draw, np.random.default_rng(draw(st.integers(0, 2**32 - 1))), gates)
    for _ in range(draw(st.integers(1, 3))):
        b.source()
    for _ in range(draw(st.integers(1, 40))):
        if len(b.edges) > 170:
            break
        b.step(steps)
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
    elif kind in ("loop", "ring", "nested"):
        entry, prefix = b.take()[0], f"L{len(b.nodes)}"
        weights = {"n1": complex(*rng.uniform(-0.7, 0.7, 2)), "m2_param": rng.uniform(0.3, 1.0)}
        if kind == "loop":
            nodes, edges = _loop_nodes(prefix, GateMatrix(_contraction(rng)), GateMatrix(_contraction(rng)), **weights)
        elif kind == "ring":  # unitary gates: the loop gain is |n1| m2_param < 1
            gates = [GateMatrix(random_unitary(rng)) for _ in range(b.draw(st.integers(1, 200)))]
            nodes, edges = _ring_nodes(prefix, gates, **weights)
        else:
            nodes, edges = _nested_nodes(prefix, *(GateMatrix(_contraction(rng)) for _ in range(4)), **weights)
            b.live.append(((f"{prefix}i_fi", 1), *unknown))
            prefix += "o"
        b.nodes.update(nodes)
        b.edges += edges + [(entry, (f"{prefix}_fi", 0))]
        b.live += [((f"{prefix}_fo", 0), *unknown), ((f"{prefix}_fi", 1), *unknown)]
    else:  # crossed two-anbit loop on two open ports
        prefix = f"L{len(b.nodes)}"
        nodes, edges = _cross_nodes(prefix, GateMatrix(_contraction(rng)), GateMatrix(_contraction(rng)))
        b.nodes.update(nodes)
        b.edges += edges + [(b.take()[0], (f"{prefix}_fi{k}", 0)) for k in range(2)]
        b.live += [((f"{prefix}_fo{k}", 0), *unknown) for k in range(2)]
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
    """Unitary-gate feed-forward parts around one or two embedded feedback loops.

    A loop is a fan-in fed back to itself, a single-anbit loop, the crossed
    two-anbit loop, a ring of 1-200 gates or a loop nested in another's
    feedback path.
    """
    b = _Builder(draw, np.random.default_rng(draw(st.integers(0, 2**32 - 1))), random_unitary)
    for _ in range(draw(st.integers(1, 3))):
        b.source()
    loops = draw(st.lists(st.sampled_from(["self", "loop", "cross", "ring", "nested"]), min_size=1, max_size=2))
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


@settings(max_examples=60, deadline=None)
@given(st.one_of(acyclic_circuits(gates=random_unitary), feedback_circuits()))
def test_transfer_columns_match_dense_solve_on_unit_inputs(case):
    # unitary gates: the dense LU of a census gain chain loses more than the bound
    # (it was 0.03 off on a 3e7 entry that the walk got right); census circuits meet
    # their direct propagation in test_acyclic_solve_matches_direct_propagation
    graph = case[0]
    transfer = circuit_transfer(graph)
    sources = graph.sources()
    assert transfer.shape == (2 * len(graph.sinks()), 2 * len(sources))
    for k, (s, j) in enumerate((s, j) for s in sources for j in range(2)):
        unit = {r: AnbitState(np.eye(2)[j] if r == s else np.zeros(2)) for r in sources}
        want, scale = dense_solve(graph, unit)
        column = np.concatenate([want[t] for t in graph.sinks()])
        assert np.max(np.abs(transfer[:, k] - column)) <= 1e-9 * max(1.0, scale)


@pytest.mark.parametrize("arch,gates", [("zxz", random_unitary), ("svd", random_matrix), ("pauli", random_matrix)])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_lowering_realizes_the_circuit_transfer(arch, gates, data):
    # every step a netlist can carry: default-ancilla fan-outs only
    graph = data.draw(acyclic_circuits(("gate", "rung", "fanout", "fanin"), gates))[0]
    want = circuit_transfer(graph)
    got = lower_circuit(graph, arch).forward_transfer()
    assert np.linalg.norm(got - want) <= TOL * np.linalg.norm(want)


def test_feedback_closes_over_its_cut_signals_only(rng, monkeypatch):
    # a loop is torn at one edge, a nested pair at two: the closure is 2x2 or 4x4 whatever the length
    shapes = []
    singular = circuits._singular
    monkeypatch.setattr(circuits, "_singular", lambda a: shapes.append(a.shape) or singular(a))

    def closures(nodes, edges, n_ends):
        shapes.clear()
        ends = {**{f"s{k}": SourceNode() for k in range(n_ends)}, **{f"t{k}": SinkNode() for k in range(n_ends)}}
        solve(CircuitGraph({**ends, **nodes}, edges), {f"s{k}": AnbitState([1.0, 0.5j]) for k in range(n_ends)})
        return shapes

    ring, ring_edges = _ring_nodes("r", [GateMatrix(random_unitary(rng)) for _ in range(400)], n1=0.7)
    assert closures(ring, ring_edges + [(("s0", 0), ("r_fi", 0)), (("r_fo", 0), ("t0", 0))], 1) == [(2, 2)]
    cross, cross_edges = _cross_nodes("c", GateMatrix(_contraction(rng)), GateMatrix(_contraction(rng)))
    for k in range(2):
        cross_edges += [((f"s{k}", 0), (f"c_fi{k}", 0)), ((f"c_fo{k}", 0), (f"t{k}", 0))]
    assert closures(cross, cross_edges, 2) == [(2, 2)]
    nested, nested_edges = _nested_nodes("n", *(GateMatrix(_contraction(rng)) for _ in range(4)), n1=0.7)
    nested_edges += [(("s0", 0), ("no_fi", 0)), (("no_fo", 0), ("t0", 0))]
    assert len(closures(nested, nested_edges, 1)) == 1 and shapes[0] <= (4, 4)


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
    "graph,inputs,error,message",
    [
        (_two_source_fanout(), {"s1": AnbitState(np.ones(3)), "s2": AnbitState(np.ones(3))},
         DimError, "fan-out ancilla submatrices are defined for dim 2"),
        (_two_source_fanout(), {"s1": AnbitState(np.ones(2)), "s2": AnbitState(np.ones(3))},
         DimError, "all source states must share one dimension"),
        (CircuitGraph(*_through(identity_gate())), {"s": AnbitState(np.ones(3))},
         DimError, "gate 'x' has dim 2, circuit carries 3"),
        (CircuitGraph(*_through(identity_gate())), {"s": [1, 0]},
         GraphError, "sources without an AnbitState input: ['s']"),
        (CircuitGraph(*_through(identity_gate())), {"s": AnbitState(np.ones(2)), "t": AnbitState(np.ones(2))},
         GraphError, "inputs for non-source nodes: ['t']"),
    ],
    ids=["dim3-wired-ancilla", "mixed-source-dims", "gate-of-another-dim", "input-not-a-state", "input-for-a-sink"],
)
def test_solve_rejects_mixed_dimensions(graph, inputs, error, message):
    with pytest.raises(error) as exc:
        solve(graph, inputs)
    assert str(exc.value) == message


def test_graph_validation_source_drives_nothing():
    nodes = {"s": SourceNode(), "idle": SourceNode(), "t": SinkNode()}
    with pytest.raises(GraphError) as exc:
        CircuitGraph(nodes, ((("s", 0), ("t", 0)),))
    assert str(exc.value) == "source 'idle' drives nothing"


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: FanOutGate(1j), ParamError, "n must be real"),
        (lambda: loop_equivalent(identity_gate(), GateMatrix(np.eye(3))), DimError, "loop gates must share a dimension"),
        (lambda: two_anbit_loop(identity_gate(), GateMatrix(np.eye(3))), DimError, "loop gates must share a dimension"),
        (lambda: fanin_tensor_nonlinearity_witness(AnbitState(np.ones(3)), AnbitState(np.ones(3))),
         DimError, "witness is defined for dim 2"),
    ],
    ids=["fanout-complex-n", "loop-dims", "two-loop-dims", "witness-dim3"],
)
def test_circuit_builders_name_their_fault(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message
