import json
import math

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
    csv_text,
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
from anbit.errors import DimError, ParamError

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


# signed zeros, subnormals, the edges of the float range, nan and inf, then any double
_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 1e308, -1e308, math.inf, -math.inf, math.nan]) | st.floats()


def _error(call):
    """call()'s text, or the ValueError message it raises."""
    try:
        return call()
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda width: st.lists(
    st.tuples(st.integers(0, 10**6) | st.text("ab,0 ", max_size=4), st.lists(_FLOATS, min_size=width, max_size=width)),
    max_size=6,
).map(lambda rows: (width, rows))))
def test_csv_text_is_the_per_value_writer(case):
    # the oracle is a per-value loop: a row at a time, re before im, each float by fmt_float
    width, rows = case
    labels = [label for label, _ in rows]
    columns = [np.array([row[k] for _, row in rows], dtype=float) for k in range(width)]

    def oracle():
        lines = ["head"]
        for label, row in rows:
            lines.append(",".join([f"{label}", *(fmt_float(x) for x in row)]))
        return "\n".join(lines) + "\n"

    assert _error(lambda: csv_text("head", labels, columns)) == _error(oracle)


_LEAVES = (st.none() | st.booleans() | st.text(max_size=4) | st.integers()
           | st.integers(-2**63, 2**63 - 1).map(np.int64) | _FLOATS)
_TREES = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=3), kids, max_size=4),
    max_leaves=24,
)


def _floats_in_order(obj):
    if isinstance(obj, float):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _floats_in_order(v)
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _floats_in_order(v)


def _same_tree(obj, parsed):
    """parsed, read with every number as its token, is obj with each float as format(x, ".17g")."""
    if isinstance(obj, float):
        return parsed == format(obj, ".17g") and float(parsed).hex() == obj.hex()
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return parsed == str(int(obj))
    if isinstance(obj, (list, tuple)):
        return isinstance(parsed, list) and len(parsed) == len(obj) and all(map(_same_tree, obj, parsed))
    if isinstance(obj, dict):
        return list(parsed) == list(obj) and all(map(_same_tree, obj.values(), parsed.values()))
    return type(parsed) is type(obj) and parsed == obj


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_dumps_round_trips_or_names_the_first_non_finite_float(obj):
    bad = next((x for x in _floats_in_order(obj) if not math.isfinite(x)), None)
    if bad is not None:
        with pytest.raises(ValueError) as exc:
            dumps(obj)
        assert str(exc.value) == f"cannot serialize non-finite float {bad}"
    else:
        assert _same_tree(obj, json.loads(dumps(obj), parse_float=str, parse_int=str))


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


def _gate_chain(gate_params):
    """Circuit object of one source, the given gate nodes in a chain, and one sink."""
    ids = [f"g{k}" for k in range(len(gate_params))]
    gates = [{"id": i, "kind": "gate", "params": p} for i, p in zip(ids, gate_params)]
    path = ["s", *ids, "t"]
    return {
        "nodes": [{"id": "s", "kind": "source"}, *gates, {"id": "t", "kind": "sink"}],
        "edges": [{"from": [a, 0], "to": [b, 0]} for a, b in zip(path, path[1:])],
        "sources": ["s"],
        "sinks": ["t"],
    }


def _assert_parses_gate_by_gate(gate_params):
    """circuit_from_obj gives each gate gate_from_obj's entries, bit for bit, or raises what the first failing gate does."""
    try:
        want = [gate_from_obj(p).entries for p in gate_params]
    except (ValueError, DimError) as exc:
        with pytest.raises(type(exc)) as got:
            circuit_from_obj(_gate_chain(gate_params))
        assert str(got.value) == str(exc)
        return None
    graph = circuit_from_obj(_gate_chain(gate_params))
    for k, entries in enumerate(want):
        got = graph.nodes[f"g{k}"].entries
        assert got.shape == entries.shape and got.tobytes() == entries.tobytes()
        assert not got.flags.writeable
    return graph


# every float json.loads can give, signed zeros, infinities, nan and 1e308 drawn often
stack_reals = st.one_of(
    st.floats(), st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308]), st.integers(-(2**53), 2**53)
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.lists(
    st.lists(st.lists(st.lists(stack_reals, min_size=2, max_size=2), min_size=d, max_size=d), min_size=d, max_size=d),
    min_size=1, max_size=6)), st.booleans())
def test_stacked_gate_parse_matches_the_gate_by_gate_parse(rows, with_dim):
    # gates of one dim take one stacked conversion and adopt read-only views of it
    params = [{"dim": len(r), "entries": r} if with_dim else {"entries": r} for r in rows]
    graph = _assert_parses_gate_by_gate(params)
    bases = set()
    for k in range(len(rows)):
        base = graph.nodes[f"g{k}"].entries
        while isinstance(base, np.ndarray):
            base = base.base
        bases.add(id(base))
        with pytest.raises(ValueError):
            graph.nodes[f"g{k}"].entries.setflags(write=True)
    assert len(bases) == 1


_EYE_PAIRS = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


@pytest.mark.parametrize(
    "gate_params",
    [
        [{"entries": _EYE_PAIRS}, {"entries": [[[2.0, 0.0]]]}],
        [{"entries": _EYE_PAIRS}, {"entries": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]}],
        [{"entries": _EYE_PAIRS}, {"entries": [[["1.0", 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}],
        [{"entries": _EYE_PAIRS}, {"entries": [[[2**70, 0], [0, 0]], [[0, 0], [1, 0]]]}],
        [{"entries": [[[2**70, 0.5], [0, 0]], [[0, 0], [1, 0]]]}, {"entries": _EYE_PAIRS}],
        [{"entries": _EYE_PAIRS}, {"entries": [[[10**400, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}],
        [{"entries": _EYE_PAIRS}, {"dim": 3, "entries": _EYE_PAIRS}],
        [{"entries": _EYE_PAIRS}, {"dim": "2", "entries": _EYE_PAIRS}],
        [{"entries": _EYE_PAIRS}, {"entries": []}],
        [{"entries": _EYE_PAIRS}, {"entries": np.eye(2)}],
    ],
    ids=["mixed-dims", "ragged-row", "string-entry", "int-2-70-gate", "int-2-70-among-floats", "int-past-float-range",
         "dim-mismatch", "dim-string", "empty", "array-entries"],
)
def test_gates_that_do_not_stack_parse_one_by_one(gate_params):
    _assert_parses_gate_by_gate(gate_params)


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


def _same_columns(nl, other) -> bool:
    """Both netlists' columns equal element for element and of one dtype (nan in the same places), and their bindings."""
    arrays = [(getattr(nl, name), getattr(other, name)) for name in ("kinds", "wire_a", "wire_b", "values")]
    same = all(a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True) for a, b in arrays)
    return same and nl.bindings == other.bindings


@settings(max_examples=100, deadline=None)
@given(random_netlists())
def test_netlist_text_round_trip_property(case):
    nl, setting = case
    text = netlist_to_text(nl)
    back = netlist_from_text(text)
    assert netlist_to_text(back) == text
    assert _same_columns(back, nl)
    assert back.forward_transfer(setting).tobytes() == nl.forward_transfer(setting).tobytes()
    assert back.backward_transfer(setting).tobytes() == nl.backward_transfer(setting).tobytes()
    # the rows read back as Device records rebuild the same netlist
    rebuilt = Netlist(nl.wires, nl.devices, nl.input_ports, nl.output_ports, nl.control_map)
    assert _same_columns(rebuilt, nl) and rebuilt.devices == nl.devices
    assert netlist_to_text(rebuilt) == text


_NOT_A_TOKEN = "is neither None nor a whitespace-free string"
_NOT_A_WORD = "must be a non-empty whitespace-free string"


@pytest.mark.parametrize(
    "binding,control_map,active,message",
    [
        (5, None, None, f"device 0 binding 5 {_NOT_A_TOKEN}"),
        (["c0"], None, None, f"device 0 binding ['c0'] {_NOT_A_TOKEN}"),
        ("c 0", None, None, f"device 0 binding 'c 0' {_NOT_A_TOKEN}"),
        ("c0\nWIRES 9", None, None, f"device 0 binding 'c0\\nWIRES 9' {_NOT_A_TOKEN}"),
        ("c0", {"a b": {0: 0.5}}, None, f"control word 'a b' {_NOT_A_WORD}"),
        ("c0", {"": {0: 0.5}}, None, f"control word '' {_NOT_A_WORD}"),
        ("c0", {"*": {0: 0.5}}, "", f"active control word '' {_NOT_A_WORD}"),
        ("c0", {1: {0: 0.5}}, None, f"control word 1 {_NOT_A_WORD}"),
    ],
    ids=["binding-int", "binding-list", "binding-space", "binding-newline-directive", "word-space", "word-empty",
         "active-word-empty", "word-int"],
)
def test_netlist_door_refuses_what_its_text_cannot_carry(binding, control_map, active, message):
    # netlist text writes each binding and control word as one bare token, which the reader reads back as a string
    with pytest.raises(ParamError) as exc:
        Netlist(1, [("PS", (0,), 0.5, binding)], (0,), (0,), control_map=control_map, active_setting=active)
    assert str(exc.value) == message


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


@pytest.mark.parametrize(
    "text,message",
    [
        ("WIRES\nIN 0\nOUT 0\n", "line 1: WIRES takes 1 field, got 0"),
        ("WIRES 2 9\nIN 0\nOUT 0\n", "line 1: WIRES takes 1 field, got 2"),
        ("WIRES 1\nIN 0\nOUT 0\nPS 0 0.5 @c0\nCTRL * 0=0.5\nACTIVE\n", "line 6: ACTIVE takes 1 field, got 0"),
        ("WIRES 1\nIN 0\nOUT 0\nPS 0 0.5 @c0\nCTRL * 0=0.5\nACTIVE * b\n", "line 6: ACTIVE takes 1 field, got 2"),
        ("WIRES 1\nIN 0\nOUT 0\nPS 0 0.5 @c0\nCTRL\n", "line 5: CTRL takes at least 1 field, got 0"),
    ],
    ids=["wires-none", "wires-two", "active-none", "active-two", "ctrl-none"],
)
def test_netlist_text_header_lines_take_their_fields(text, message):
    # a missing field is named, not an index error; an extra one is refused, not dropped
    with pytest.raises(ValueError) as exc:
        netlist_from_text(text)
    assert str(exc.value) == message


def test_netlist_text_skips_comments_and_blanks():
    text = "WIRES 1\n# a comment\n\nIN 0\nOUT 0\nPS 0 0.5\n"
    nl = netlist_from_text(text)
    assert len(nl.devices) == 1
    assert nl.devices[0].value == 0.5
