"""The traced benchmark patches anbit names at run time; each one must exist."""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from anbit import (
    CircuitGraph,
    FanInGate,
    SinkNode,
    SourceNode,
    cli,
    gates,
    identity_gate,
    lowering,
    mostow_synthesize,
    pauli,
)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _spans()


@pytest.mark.parametrize(
    "owner,attr",
    [(cli, name) for name in spans.CLI_LAYERS]
    + [(lowering, name) for name in spans.LOWERING_LAYERS]
    + [
        (lowering.Netlist, "forward_transfer"),
        (lowering.Netlist, "backward_transfer"),
        (gates.GateMatrix, "__post_init__"),
        (gates, "controlled"),
    ],
)
def test_traced_names_exist(owner, attr):
    assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


# a small valid argument list for each lowering entry point the traced run counts
_LOWER_ARGS = {
    "lower_circuit": lambda: (CircuitGraph(
        {"s": SourceNode(), "g": pauli(1), "t": SinkNode()}, ((("s", 0), ("g", 0)), (("g", 0), ("t", 0)))
    ),),
    "lower_unitary_zxz": lambda: (pauli(1),),
    "lower_unitary_zyz_fixed": lambda: (pauli(1),),
    "lower_general_svd": lambda: (pauli(1),),
    "lower_pauli_mgate": lambda: (pauli(1),),
    "lower_mostow": lambda: (mostow_synthesize(identity_gate(), 0.5, [[0.25, 0.1], [0.1, -0.3]]),),
    "lower_fanin": lambda: (FanInGate(1.0, 0.5),),
}


@pytest.mark.parametrize("name", [name for name, layer in spans.CLI_LAYERS.items() if layer == "lowering.lower"])
def test_lower_counter_reads_the_result(name):
    # the counter reads the returned netlist's rows and wire count
    result = getattr(cli, name)(*_LOWER_ARGS[name]())
    counts = Counter()
    spans._count_lower(counts, (), result, None)
    assert counts == {"lowering.devices": len(result.kinds), "lowering.wires": result.wires}
    assert counts["lowering.devices"] > 0
