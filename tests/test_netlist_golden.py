"""Netlist text pinned byte for byte, one seeded input per architecture.

The files under tests/golden/ hold `netlist_to_text` output for the inputs
built here. A change to the device format, to a lowering or to float
emission shows up as a diff against them; a real output change updates the
file deliberately, never to silence this test. Each committed file must also
still realize the gate its case draws, computed here without the lowering.

The byte-for-byte contract holds between a parent commit and a change run on
one host. Across hosts only the realization of each gate within `TOL` holds:
the last bits depend on the CPU through three measured sources, numpy's SIMD
`arctan2` kernel (the Euler and fan-in angles), OpenBLAS's `zgesdd` in
`decompositions._svd_table`, and the LAPACK QR in `conftest.random_unitary`
that draws the inputs. So the golden comparison can fail on another CPU while
the realization check passes.
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
from anbit.serialization import netlist_from_text, netlist_to_text

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


def _stream(name: str):
    """Each golden case draws from its own seeded stream."""
    return np.random.default_rng([20260816, list(CASES).index(name)])


def build(name: str):
    """Netlist of one golden case."""
    return CASES[name](_stream(name))


# --- what each case realizes, drawn in the order its CASES entry draws -------

TOL = 1e-9  # lowered forward transfers, relative (the benchmark's reference TOL)


def _mostow_target(rng):
    q = rng.normal(size=(2, 2))
    u = random_unitary(rng)
    w, v = np.linalg.eigh(0.5 * (q + q.T))
    a = 0.3
    e_ia = np.array([[np.cosh(a), 1j * np.sinh(a)], [-1j * np.sinh(a), np.cosh(a)]])
    return {None: u @ e_ia @ v @ np.diag(np.exp(w)) @ v.T}


def _fanin_target(rng):
    n = complex(rng.normal(), rng.normal())
    m = complex(rng.normal(), rng.normal())
    return {None: np.kron(np.array([[n, n], [m, -m]]), np.eye(2))}


def _controlled_target(word):
    def target(rng):
        f = random_matrix(rng)
        return {"11": f, "00": np.eye(2), None: f if word == "11" else np.eye(2)}
    return target


def _ladder_target(rng):
    # fan-out (h, h), two 2-gate branches, fan-in (h, h): sum anbit to t, difference to d
    a1, a2, b1, b2 = (random_matrix(rng) for _ in range(4))
    a, b = a2 @ a1, b2 @ b1
    return {None: np.vstack([0.5 * (a + b), 0.5 * (a - b)])}


TARGETS = {
    "zxz": lambda rng: {None: random_unitary(rng)},
    "zyz": lambda rng: {None: random_unitary(rng)},
    "svd": lambda rng: {None: random_matrix(rng)},
    "mostow": _mostow_target,
    "pauli": lambda rng: {None: random_matrix(rng)},
    "fanin": _fanin_target,
    "controlled_11": _controlled_target("11"),
    "controlled_01": _controlled_target("01"),
    "ladder_svd": _ladder_target,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_netlist_text_matches_golden(name):
    want = (GOLDEN / f"{name}.netlist").read_text(encoding="utf-8")
    assert netlist_to_text(build(name)) == want


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_netlist_realizes_its_gate(name):
    nl = netlist_from_text((GOLDEN / f"{name}.netlist").read_text(encoding="utf-8"))
    for setting, want in TARGETS[name](_stream(name)).items():
        got = nl.forward_transfer(setting)
        assert np.linalg.norm(got - want) <= TOL * np.linalg.norm(want), setting
