"""Netlist text rebuilds the netlist it was written from, bit for bit.

For any netlist `nl` a lowering builds, `netlist_from_text(netlist_to_text(nl))`
has the same wire count and ports, the same kind and wire columns, the same
value column bit for bit (compared through ``view(np.int64)``, so nan
positions and signed zeros count), the same bindings, control map, active word
and per-word value columns. This is what lets `anbit analyze` reuse the
netlist `anbit lower` kept with the text it printed instead of parsing that
text again. CI runs this file on fixed seeds:
`pytest tests/test_netlist_roundtrip.py --hypothesis-seed=1`.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anbit import (
    CircuitGraph,
    FanInGate,
    FanOutGate,
    GateMatrix,
    SinkNode,
    SourceNode,
    controlled,
    lower_circuit,
    lower_controlled_electrooptic,
    lower_fanin,
    lower_mostow,
    mostow_synthesize,
)
from anbit.serialization import netlist_from_text, netlist_to_text

from conftest import random_matrix, random_unitary

# exact gates whose factors hit the tables' special branches: zero sines, wraps, signed zeros
_UNITARY_POOL = [np.eye(2), np.array([[0, 1], [1, 0]]), np.diag([1, -1]), np.diag([1j, -1j]),
                 np.array([[0, -1j], [1j, 0]]), -np.eye(2)]
_GENERAL_POOL = _UNITARY_POOL + [np.zeros((2, 2)), np.diag([2.0, 0.5]), 3.0 * np.eye(2), np.diag([-0.0, 1.0]),
                                 np.array([[1.0, 1.0], [1.0, 1.0]])]


def _gate(draw, rng, unitary: bool) -> GateMatrix:
    pool = _UNITARY_POOL if unitary else _GENERAL_POOL
    if draw(st.integers(0, 3)) == 0:
        return GateMatrix(np.array(draw(st.sampled_from(pool)), dtype=complex))
    if unitary:
        return GateMatrix(random_unitary(rng))
    return GateMatrix(random_matrix(rng, draw(st.sampled_from([0.5, 1.0, 3.0]))))


def _complex(rng) -> complex:
    return complex(*rng.uniform(0.1, 2.0, size=2))


def _circuit(draw, rng, unitary: bool) -> CircuitGraph:
    """An acyclic circuit: a run of gates, fan-out diamonds and fan-ins fed by a second source."""
    nodes, edges = {"s": SourceNode()}, []
    end = ("s", 0)

    def gate(nid, feed):
        nodes[nid] = _gate(draw, rng, unitary)
        edges.append((feed, (nid, 0)))
        return (nid, 0)

    for k in range(draw(st.integers(1, 5))):
        shape = draw(st.sampled_from(["gate", "diamond", "merge"]))
        if shape == "gate":
            end = gate(f"g{k}", end)
            continue
        fi = f"fi{k}"
        nodes[fi] = FanInGate(_complex(rng), _complex(rng))
        if shape == "diamond":
            nodes[f"fo{k}"] = FanOutGate(*rng.uniform(0.1, 2.0, size=2).tolist())
            edges.append((end, (f"fo{k}", 0)))
            a, b = gate(f"a{k}", (f"fo{k}", 0)), gate(f"b{k}", (f"fo{k}", 1))
        else:
            nodes[f"s{k}"] = SourceNode()
            a, b = gate(f"a{k}", end), gate(f"b{k}", (f"s{k}", 0))
        edges += [(a, (fi, 0)), (b, (fi, 1))]
        nodes[f"d{k}"] = SinkNode()
        edges.append(((fi, 1), (f"d{k}", 0)))
        end = (fi, 0)
    nodes["t"] = SinkNode()
    edges.append((end, ("t", 0)))
    return CircuitGraph(nodes, tuple(edges))


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _word_values(nl) -> list | None:
    """Each control word with its {device: value} entries as bit patterns, in map order."""
    if nl.control_map is None:
        return None
    return [(word, {i: _bits(v) for i, v in values.items()}) for word, values in nl.control_map.items()]


def _assert_rebuilt(nl) -> None:
    text = netlist_to_text(nl)
    back = netlist_from_text(text)
    assert (back.wires, back.input_ports, back.output_ports) == (nl.wires, nl.input_ports, nl.output_ports)
    for name in ("kinds", "wire_a", "wire_b"):
        got, want = getattr(back, name), getattr(nl, name)
        assert got.dtype == want.dtype and got.tolist() == want.tolist(), name
    assert back.values.view(np.int64).tolist() == nl.values.view(np.int64).tolist()
    assert back.bindings == nl.bindings
    assert back.active_setting == nl.active_setting
    assert _word_values(back) == _word_values(nl)
    words = [] if nl.control_map is None else list(nl.control_map)
    for word in words:
        assert back._column(word).view(np.int64).tolist() == nl._column(word).view(np.int64).tolist(), word
    assert netlist_to_text(back) == text


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
@pytest.mark.parametrize("arch", ["zxz", "zyz", "svd", "pauli"])
def test_circuit_netlists_round_trip_through_their_text(arch, seed, data):
    rng = np.random.default_rng(seed)
    _assert_rebuilt(lower_circuit(_circuit(data.draw, rng, arch in ("zxz", "zyz")), arch))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_mostow_netlists_round_trip_through_their_text(seed, data):
    rng = np.random.default_rng(seed)
    b = rng.uniform(-1.5, 1.5, size=(2, 2))
    f = mostow_synthesize(_gate(data.draw, rng, True), float(rng.uniform(-2.0, 2.0)), b + b.T)
    _assert_rebuilt(lower_mostow(f))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), unit=st.booleans())
def test_fanin_netlists_round_trip_through_their_text(seed, unit):
    rng = np.random.default_rng(seed)
    _assert_rebuilt(lower_fanin(FanInGate() if unit else FanInGate(_complex(rng), -_complex(rng))))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), data=st.data())
def test_controlled_netlists_round_trip_through_their_text(seed, n, data):
    # CTRL and ACTIVE lines; a non-unitary target splits gains above 1 into amplifier and attenuator
    rng = np.random.default_rng(seed)
    target = _gate(data.draw, rng, data.draw(st.booleans()))
    word = data.draw(st.integers(0, 2**n - 1))
    _assert_rebuilt(lower_controlled_electrooptic(controlled(target, n), np.eye(2**n)[word]))
