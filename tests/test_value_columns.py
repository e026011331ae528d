"""The device value column, taken as one column by the transfer, the writer and the reader.

Each kind's coefficient rule (`DeviceKind.coefs`) runs once per transfer over
that kind's values and must give, bit for bit, the scalar expressions of the
kind's local matrix; `netlist_to_text` formats each distinct value once, keyed
by its bits, so -0.0 and 0.0 must still come back apart through
`netlist_from_text`. CI runs this file on fixed seeds:
`pytest tests/test_value_columns.py --hypothesis-seed=1`.
"""

import math
import struct
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anbit import GateMatrix, Netlist, lower_circuit
from anbit import lowering
from anbit.lowering import DEVICE_KINDS, KINDS
from anbit.serialization import netlist_from_text, netlist_to_text

from conftest import random_matrix
from test_lowering import _gate_chain

_BIG = sys.float_info.max
# zeros of both signs, subnormals, the smallest normal, the domain edges, phases
# past 2 pi and up to the largest double
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, math.nextafter(1.0, 2.0),
         math.nextafter(1.0, 0.0), math.pi, -math.pi, 0.5 * math.pi, 1e300, -1e300, _BIG, -_BIG]


def _scalar_matrix(kind: str, v: float) -> tuple:
    """The entries of the kind's local matrix for value v, in row-major order, as scalar expressions."""
    if kind == "PS":
        return (complex(math.cos(v), math.sin(v)),)
    if kind == "DC":
        c, s = math.cos(0.5 * v), math.sin(0.5 * v)
        return (complex(c), complex(0.0, -s), complex(0.0, -s), complex(c))
    if kind == "BS":
        r = 1.0 / math.sqrt(2.0)
        return (r * (1 + 0j), r * 1j, r * 1j, r * (1 + 0j))
    return (complex(v),)  # a gain


def _bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


def _kind_values(kind: str):
    spec = DEVICE_KINDS[kind]
    if not spec.valued:
        return st.just(math.nan)
    inside = st.floats(max(spec.low, -_BIG), min(spec.high, _BIG), allow_nan=False, allow_infinity=False)
    return st.one_of(st.sampled_from([v for v in EDGES if spec.in_domain(v)]), inside)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("kind", KINDS)
def test_coefficient_columns_equal_the_scalar_expressions_bit_for_bit(kind, data):
    values = data.draw(st.lists(_kind_values(kind), min_size=1, max_size=40))
    column = np.array(values + values[::2], dtype=float)  # every other value repeated
    entries = [np.broadcast_to(e, column.shape).tolist() for e in DEVICE_KINDS[kind].coefs(column)]
    for v, got in zip(column.tolist(), zip(*entries)):
        want = _scalar_matrix(kind, v)
        assert list(map(_bits, got)) == list(map(_bits, want)), (kind, v, got, want)


# a few values, so each repeats, with both zeros in every kind's pool
_POOLS = {kind: [v for v in (0.0, -0.0, 0.5, -0.5, 1.0, 2.0, 5e-324, 1e300) if DEVICE_KINDS[kind].in_domain(v)]
          for kind in KINDS if DEVICE_KINDS[kind].valued}


@st.composite
def repeating_netlists(draw):
    """A netlist on three wires whose device values repeat and hold both -0.0 and 0.0."""
    rows = [("PS", (0,), -0.0, None), ("ATT", (1,), 0.0, None)]
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(KINDS))
        wires = tuple(draw(st.permutations(range(3)))[:DEVICE_KINDS[kind].n_wires])
        value = draw(st.sampled_from(_POOLS[kind])) if kind in _POOLS else None
        rows.insert(draw(st.integers(0, len(rows))), (kind, wires, value, draw(st.sampled_from([None, "c0"]))))
    return Netlist(3, rows, (0, 1), (1, 2))


@settings(max_examples=200, deadline=None)
@given(repeating_netlists())
def test_text_keeps_every_value_bit_for_bit(nl):
    text = netlist_to_text(nl)
    lines = text.splitlines()[3:]
    for line, kind, value in zip(lines, nl.kinds.tolist(), nl.values.tolist()):
        fields = [f for f in line.split() if not f.startswith("@")]
        if DEVICE_KINDS[KINDS[kind]].valued:
            assert fields[-1] == format(value, ".17g")
            if value == 0.0:  # -0.0 is written "-0", 0.0 "0"
                assert fields[-1] == ("-0" if math.copysign(1.0, value) < 0 else "0")
        else:
            assert len(fields) == 1 + DEVICE_KINDS[KINDS[kind]].n_wires
    back = netlist_from_text(text)
    assert back.values.view(np.int64).tolist() == nl.values.view(np.int64).tolist()
    assert netlist_to_text(back) == text


def test_a_transfer_runs_each_kind_rule_once(monkeypatch, rng):
    # a 4-gate pauli chain holds 384 devices of every kind; each transfer runs
    # each kind's rule once, on all that kind's values
    nl = lower_circuit(_gate_chain(*(random_matrix(rng) for _ in range(4))), "pauli")
    want = nl.forward_transfer(), nl.backward_transfer()
    calls = Counter()

    def counted(code, rule):
        def rule_counted(values):
            calls[KINDS[code]] += 1
            return rule(values)
        return rule_counted

    monkeypatch.setattr(lowering, "_COEFS", tuple(counted(code, rule) for code, rule in enumerate(lowering._COEFS)))
    present = Counter(KINDS[code] for code in nl.kinds.tolist())
    assert len(present) == len(KINDS) and len(nl.kinds) > 300
    for transfer, expected in zip((nl.forward_transfer, nl.backward_transfer), want):
        calls.clear()
        assert np.array_equal(transfer(), expected)
        assert calls == {kind: 1 for kind in present}
