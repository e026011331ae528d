import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anbit import (
    AnbitState,
    CircuitGraph,
    GateClass,
    FanInGate,
    FanOutGate,
    GateMatrix,
    Netlist,
    SinkNode,
    SourceNode,
    controlled,
    lower_controlled_electrooptic,
    lower_fanin,
    lower_unitary_zxz,
    measure_coherent,
    measure_differential,
    pauli,
    solve,
)
from anbit.serialization import (
    circuit_from_obj,
    circuit_to_obj,
    dumps,
    fmt_float,
    gate_from_obj,
    gate_to_obj,
    netlist_from_text,
    netlist_to_text,
    record_to_obj,
    state_from_obj,
    state_to_obj,
)

from anbit import gates
from anbit.errors import DimError

from conftest import random_matrix, random_state_vec, random_unitary
from test_lowering import random_netlists


def test_fmt_float_round_trips(rng):
    specials = [0.0, -0.0, 1.0, -1.0, np.pi, 1e-300, 1e300, 2.0 / 3.0]
    draws = list(rng.normal(size=500)) + list(rng.normal(size=100) * 1e150)
    for x in specials + draws:
        assert float(fmt_float(float(x))) == float(x)


def test_fmt_float_17_digits():
    assert fmt_float(np.pi) == "3.1415926535897931"
    assert fmt_float(0.1) == "0.10000000000000001"


def test_dumps_is_json(rng):
    obj = {"a": [1, 2.5, None, True, "x"], "b": {"c": [[1.0, -2.0]]}}
    parsed = json.loads(dumps(obj))
    assert parsed == obj


def test_dumps_rejects_unknown_types():
    with pytest.raises(ValueError):
        dumps({"x": object()})


@pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan")])
def test_dumps_rejects_non_finite_floats(x):
    # JSON has no token for them; bare inf/nan would not re-parse
    with pytest.raises(ValueError, match="non-finite"):
        dumps({"value": [1.0, x]})


def test_state_round_trip(rng):
    for dt in (None, 0.0, 1.25):
        s = AnbitState(random_state_vec(rng, 3), delta_t=dt)
        back = state_from_obj(json.loads(dumps(state_to_obj(s))))
        assert np.array_equal(back.amps, s.amps)
        assert back.delta_t == s.delta_t


def test_state_obj_shape():
    obj = state_to_obj(AnbitState([1.0, 2.0j]))
    assert obj["dim"] == 2
    assert obj["amps"] == [[1.0, 0.0], [0.0, 2.0]]
    assert obj["delta_t"] is None


def test_state_dim_mismatch_rejected():
    with pytest.raises(ValueError):
        state_from_obj({"dim": 3, "amps": [[1.0, 0.0]], "delta_t": None})


def test_gate_round_trip(rng):
    g = GateMatrix(random_matrix(rng))
    back = gate_from_obj(json.loads(dumps(gate_to_obj(g))))
    assert np.array_equal(back.entries, g.entries)


def per_entry_parse(obj):
    """Reference gate parse: one complex(float(re), float(im)) per [re, im] pair."""
    rows = obj["entries"]
    d = len(rows)
    if "dim" in obj and int(obj["dim"]) != d:
        raise ValueError("dim mismatch")
    entries = []
    for row in rows:
        if len(row) != d:
            raise ValueError("ragged rows")
        for v in row:
            if not isinstance(v, (list, tuple)) or len(v) != 2:
                raise ValueError("not a pair")
        entries.append([complex(float(v[0]), float(v[1])) for v in row])
    return np.array(entries, dtype=complex)


# what json.loads can give for a number: floats of any size (-0.0, +-inf, nan
# and subnormals included), integers within and beyond 64 bits, and booleans
json_reals = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]),
    st.integers(-(2**70), 2**70),
    st.booleans(),
)
MALFORMED = (None, "ragged", "dim", "pair1", "pair3", "null", "object", "nested", "huge-int", "row-number")


@st.composite
def gate_objs(draw):
    """A gate object of dim 1..4, well formed or with one named defect."""
    d = draw(st.integers(1, 4))
    rows = [[[draw(json_reals), draw(json_reals)] for _ in range(d)] for _ in range(d)]
    obj = {"entries": rows}
    if draw(st.booleans()):
        obj["dim"] = d
    defect = draw(st.sampled_from(MALFORMED))
    i, j, k = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1)), draw(st.integers(0, 1))
    if defect == "ragged":
        rows[i].pop()
    elif defect == "dim":
        obj["dim"] = d + 1
    elif defect == "pair1":
        rows[i][j].pop()
    elif defect == "pair3":
        rows[i][j].append(0.0)
    elif defect == "null":
        rows[i][j][k] = None
    elif defect == "object":
        rows[i][j][k] = {}
    elif defect == "nested":
        rows[i][j][k] = [rows[i][j][k]]
    elif defect == "huge-int":
        rows[i][j][k] = 10**400
    elif defect == "row-number":
        rows[i] = 1.0
    return obj, defect


@settings(max_examples=200, deadline=None)
@given(gate_objs())
def test_gate_from_obj_matches_per_entry_parse(case):
    obj, defect = case
    if defect is None:
        got = gate_from_obj(obj).entries
        want = per_entry_parse(obj)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        return
    with pytest.raises((TypeError, ValueError, OverflowError)):
        per_entry_parse(obj)
    with pytest.raises(ValueError, match="dim" if defect == "dim" else "entries"):
        gate_from_obj(obj)


def test_gate_class_is_computed_on_first_read(monkeypatch, rng):
    calls = []

    def counted(entries, _classify=gates._classify):
        calls.append(entries.shape)
        return _classify(entries)

    monkeypatch.setattr(gates, "_classify", counted)
    want = {
        "u": (random_unitary(rng), GateClass.UNITARY),
        "g": (np.diag([2.0, 0.5]), GateClass.GENERAL_LINEAR),
        "m": (np.array([[1.0, 1.0], [1.0, 1.0]]), GateClass.SINGULAR),
    }
    nodes = {"s": SourceNode(), "t": SinkNode()}
    nodes.update((nid, GateMatrix(m)) for nid, (m, _) in want.items())
    chain = ["s", "u", "g", "m", "t"]
    edges = tuple(((a, 0), (b, 0)) for a, b in zip(chain, chain[1:]))
    obj = json.loads(dumps(circuit_to_obj(CircuitGraph(nodes, edges))))
    calls.clear()
    graph = circuit_from_obj(obj)
    solve(graph, {"s": AnbitState(random_state_vec(rng))})
    assert calls == []
    for nid, (_, cls) in want.items():
        gate = graph.nodes[nid]
        assert gate.gate_class is cls
        assert len(calls) == 1
        assert gate.gate_class is cls
        assert repr(gate) == f"GateMatrix(dim=2, class={cls.value})"
        assert len(calls) == 1
        calls.clear()


def test_record_to_obj_phase_presence():
    s = AnbitState(np.array([1.0, 1.0j]) / np.sqrt(2.0))
    obj = record_to_obj(measure_differential(s, 1.0))
    assert obj["kind"] == "differential"
    assert "phase" in obj
    assert obj["edf"] == 3
    obj = record_to_obj(measure_coherent(s, 1.0))
    assert "phase" not in obj
    assert obj["edf"] == 4
    assert len(obj["photocurrents"]) == 4


def sample_graph(rng):
    nodes = {
        "in": SourceNode(),
        "fo": FanOutGate(1.0, 1.0),
        "g": GateMatrix(random_unitary(rng)),
        "fi": FanInGate(0.5 + 0.1j, 0.5),
        "out": SinkNode(),
        "junk": SinkNode(),
    }
    edges = (
        (("in", 0), ("fo", 0)),
        (("fo", 0), ("g", 0)),
        (("fo", 1), ("fi", 1)),
        (("g", 0), ("fi", 0)),
        (("fi", 0), ("out", 0)),
        (("fi", 1), ("junk", 0)),
    )
    return CircuitGraph(nodes, edges)


def test_circuit_round_trip_solves_identically(rng):
    g = sample_graph(rng)
    back = circuit_from_obj(json.loads(dumps(circuit_to_obj(g))))
    psi = AnbitState(random_state_vec(rng))
    r1 = solve(g, {"in": psi})
    r2 = solve(back, {"in": psi})
    assert set(r1) == set(r2)
    for k in r1:
        assert np.array_equal(r1[k].amps, r2[k].amps)


def test_circuit_round_trip_every_node_kind(rng):
    """Every node kind, and a fan-out whose wired ancilla runs through random m12/m22."""
    m12, m22 = random_matrix(rng), random_matrix(rng)
    nodes = {
        "in": SourceNode(),
        "anc": SourceNode(),
        "clone": FanOutGate(),  # default ancilla, left unwired
        "fo": FanOutGate(0.8, 0.6, m12, m22),
        "g": GateMatrix(random_matrix(rng)),
        "fi": FanInGate(0.5 + 0.1j, -0.3j),
        "out": SinkNode(),
        "diff": SinkNode(),
        "copy": SinkNode(),
    }
    edges = (
        (("in", 0), ("clone", 0)),
        (("clone", 0), ("fo", 0)),
        (("clone", 1), ("copy", 0)),
        (("anc", 0), ("fo", 1)),
        (("fo", 0), ("g", 0)),
        (("fo", 1), ("fi", 1)),
        (("g", 0), ("fi", 0)),
        (("fi", 0), ("out", 0)),
        (("fi", 1), ("diff", 0)),
    )
    graph = CircuitGraph(nodes, edges)
    obj = json.loads(dumps(circuit_to_obj(graph)))
    assert [spec["kind"] for spec in obj["nodes"]] == [
        "source", "source", "fanout", "fanout", "gate", "fanin", "sink", "sink", "sink"
    ]
    assert "m12" not in obj["nodes"][2]["params"] and "m12" in obj["nodes"][3]["params"]
    back = circuit_from_obj(obj)
    assert circuit_to_obj(back) == obj
    assert np.array_equal(back.nodes["fo"].m12, m12) and np.array_equal(back.nodes["fo"].m22, m22)
    inputs = {nid: AnbitState(random_state_vec(rng)) for nid in ("in", "anc")}
    want, got = solve(graph, inputs), solve(back, inputs)
    assert list(want) == list(got) == ["out", "diff", "copy"]
    for nid in want:
        assert want[nid].amps.tobytes() == got[nid].amps.tobytes()


def test_fanout_blocks_are_read_as_square_pair_matrices():
    def fanout(**params):
        obj = {
            "nodes": [
                {"id": "s", "kind": "source"},
                {"id": "f", "kind": "fanout", "params": params},
                {"id": "t", "kind": "sink"},
            ],
            "edges": [{"from": ["s", 0], "to": ["f", 0]}, {"from": ["f", 0], "to": ["t", 0]}],
            "sources": ["s"],
            "sinks": ["t"],
        }
        return circuit_from_obj(obj)

    for bad in (5, [5, 6], [[[1.0, 0.0]], [[0.0, 1.0]]], [[[1.0, None]]]):
        with pytest.raises(ValueError, match="fanout m22"):
            fanout(m22=bad)
    with pytest.raises(DimError, match="m12 must be 2x2"):
        fanout(m12=[[[1.0, 0.0]]])


def test_circuit_obj_declares_sources_and_sinks(rng):
    obj = circuit_to_obj(sample_graph(rng))
    assert obj["sources"] == ["in"]
    assert sorted(obj["sinks"]) == ["junk", "out"]
    kinds = {n["id"]: n["kind"] for n in obj["nodes"]}
    assert kinds["fo"] == "fanout" and kinds["fi"] == "fanin"


def test_circuit_obj_source_sink_consistency(rng):
    obj = circuit_to_obj(sample_graph(rng))
    obj["sources"] = ["bogus"]
    with pytest.raises(ValueError):
        circuit_from_obj(obj)


def test_netlist_text_round_trip(rng):
    for nl in (
        lower_unitary_zxz(GateMatrix(random_unitary(rng))),
        lower_fanin(FanInGate(1.0, 0.5)),
    ):
        text = netlist_to_text(nl)
        back = netlist_from_text(text)
        assert netlist_to_text(back) == text
        assert np.array_equal(back.forward_transfer(), nl.forward_transfer())


def _columns(nl) -> tuple:
    return nl.kinds, nl.wire_a, nl.wire_b, nl.values, nl.bindings


@settings(max_examples=100, deadline=None)
@given(random_netlists())
def test_netlist_text_round_trip_property(case):
    nl, setting = case
    text = netlist_to_text(nl)
    back = netlist_from_text(text)
    assert netlist_to_text(back) == text
    assert _columns(back) == _columns(nl)
    assert back.forward_transfer(setting).tobytes() == nl.forward_transfer(setting).tobytes()
    assert back.backward_transfer(setting).tobytes() == nl.backward_transfer(setting).tobytes()
    # the rows read back as Device records rebuild the same netlist
    rebuilt = Netlist(nl.wires, nl.devices, nl.input_ports, nl.output_ports, nl.control_map)
    assert _columns(rebuilt) == _columns(nl) and rebuilt.devices == nl.devices
    assert netlist_to_text(rebuilt) == text


def test_netlist_text_headers(rng):
    nl = lower_unitary_zxz(GateMatrix(random_unitary(rng)))
    lines = netlist_to_text(nl).splitlines()
    assert lines[0] == "WIRES 2"
    assert lines[1] == "IN 0 1"
    assert lines[2] == "OUT 0 1"
    assert len([l for l in lines if l.startswith("PS ")]) == 6
    assert len([l for l in lines if l.startswith("DC ")]) == 1


def test_netlist_text_controlled_round_trip():
    nl = lower_controlled_electrooptic(controlled(pauli(1), 1), AnbitState([0.0, 1.0]))
    text = netlist_to_text(nl)
    assert any(l.startswith("ACTIVE ") for l in text.splitlines())
    assert any(l.startswith("CTRL ") for l in text.splitlines())
    back = netlist_from_text(text)
    assert back.active_setting == nl.active_setting
    assert back.control_map == nl.control_map
    assert np.array_equal(back.forward_transfer("*"), nl.forward_transfer("*"))


def test_netlist_text_parse_errors():
    with pytest.raises(ValueError, match="WIRES"):
        netlist_from_text("IN 0\nOUT 0\n")
    with pytest.raises(ValueError, match="line 4"):
        netlist_from_text("WIRES 2\nIN 0 1\nOUT 0 1\nBOGUS 0 0.5\n")
    # a device line carries exactly its kind's fields, plus an optional @binding
    with pytest.raises(ValueError, match="line 4: PS takes 2 fields, got 3"):
        netlist_from_text("WIRES 2\nIN 0 1\nOUT 0 1\nPS 0 1 0.5\n")
    with pytest.raises(ValueError, match="line 4: BS takes 2 fields, got 3"):
        netlist_from_text("WIRES 2\nIN 0 1\nOUT 0 1\nBS 0 1 0.3 @c0\n")


@pytest.mark.parametrize(
    "tail,message",
    [
        ("WIRES 3\n", "line 5: repeated WIRES directive"),
        ("IN 1\n", "line 5: repeated IN directive"),
        ("OUT 1\n", "line 5: repeated OUT directive"),
        ("ACTIVE * \nACTIVE 1\nCTRL * 0=0.5\n", "line 6: repeated ACTIVE directive"),
        ("CTRL * 0=0.5\nCTRL * 0=0.7\n", "line 6: repeated CTRL word '\\*'"),
        ("CTRL * 0=0.5 0=0.7\n", "line 5: CTRL \\* sets a device twice"),
    ],
    ids=["wires", "in", "out", "active", "ctrl-word", "ctrl-index"],
)
def test_netlist_text_rejects_repeated_directives(tail, message):
    # a second header line or control entry would otherwise replace the first
    with pytest.raises(ValueError, match=message):
        netlist_from_text("WIRES 1\nIN 0\nOUT 0\nPS 0 0.5\n" + tail)


def test_netlist_text_skips_comments_and_blanks():
    text = "WIRES 1\n# a comment\n\nIN 0\nOUT 0\nPS 0 0.5\n"
    nl = netlist_from_text(text)
    assert len(nl.devices) == 1
    assert nl.devices[0].value == 0.5
