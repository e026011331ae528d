"""Netlist text pinned byte for byte, one seeded input per architecture.

The files under tests/golden/ hold `netlist_to_text` output for the inputs
built here. A change to the device format, to a lowering or to float
emission shows up as a diff against them; a real output change updates the
file deliberately, never to silence this test.
"""

from pathlib import Path

import numpy as np
import pytest

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
    lower_general_svd,
    lower_mostow,
    lower_pauli_mgate,
    lower_unitary_zxz,
    lower_unitary_zyz_fixed,
    mostow_synthesize,
)
from anbit.serialization import netlist_to_text

from conftest import random_matrix, random_unitary

GOLDEN = Path(__file__).parent / "golden"


def _mostow(rng):
    q = rng.normal(size=(2, 2))
    return lower_mostow(mostow_synthesize(GateMatrix(random_unitary(rng)), 0.3, 0.5 * (q + q.T)))


def _controlled(word):
    def build(rng):
        cg = controlled(GateMatrix(random_matrix(rng)), 2)
        return lower_controlled_electrooptic(cg, np.eye(4)[int(word, 2)])
    return build


def _ladder(rng):
    # fan-out -> two 2-gate branches -> fan-in, lowered with the svd architecture
    h = np.sqrt(0.5)
    nodes = {
        "s": SourceNode(),
        "fo": FanOutGate(h, h),
        "a1": GateMatrix(random_matrix(rng)),
        "a2": GateMatrix(random_matrix(rng)),
        "b1": GateMatrix(random_matrix(rng)),
        "b2": GateMatrix(random_matrix(rng)),
        "fi": FanInGate(h, h),
        "t": SinkNode(),
        "d": SinkNode(),
    }
    edges = (
        (("s", 0), ("fo", 0)),
        (("fo", 0), ("a1", 0)),
        (("a1", 0), ("a2", 0)),
        (("fo", 1), ("b1", 0)),
        (("b1", 0), ("b2", 0)),
        (("a2", 0), ("fi", 0)),
        (("b2", 0), ("fi", 1)),
        (("fi", 0), ("t", 0)),
        (("fi", 1), ("d", 0)),
    )
    return lower_circuit(CircuitGraph(nodes, edges), arch="svd")


CASES = {
    "zxz": lambda rng: lower_unitary_zxz(GateMatrix(random_unitary(rng))),
    "zyz": lambda rng: lower_unitary_zyz_fixed(GateMatrix(random_unitary(rng))),
    "svd": lambda rng: lower_general_svd(GateMatrix(random_matrix(rng))),
    "mostow": _mostow,
    "pauli": lambda rng: lower_pauli_mgate(GateMatrix(random_matrix(rng))),
    "fanin": lambda rng: lower_fanin(
        FanInGate(complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
    ),
    "controlled_11": _controlled("11"),
    "controlled_01": _controlled("01"),
    "ladder_svd": _ladder,
}


def build(name: str):
    """Netlist of one golden case; each case draws from its own seeded stream."""
    return CASES[name](np.random.default_rng([20260816, list(CASES).index(name)]))


@pytest.mark.parametrize("name", sorted(CASES))
def test_netlist_text_matches_golden(name):
    want = (GOLDEN / f"{name}.netlist").read_text(encoding="utf-8")
    assert netlist_to_text(build(name)) == want
