"""The two doors of the device rule, and the read-only columns a netlist keeps.

Rows handed to `Netlist(...)`, the rows `netlist_from_text` reads among
them, meet the row rule (`lowering._device_columns`) alone. Columns from an
emitter meet the column check (`lowering._column_check`) once; only a fault
sends them to the row rule, which names the first faulty device. The
properties here hold both doors to the row rule: columns an emitter could
write, faulty ones included, raise exactly when the row rule does on their
rows, with the same type, text and device mark, and otherwise keep the
columns the row rule gives (the column check's oracle); text raises exactly
when the row rule does, with the faulty device's line in front. CI runs this
file on fixed seeds: `pytest tests/test_device_rule.py --hypothesis-seed=1`.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anbit import AnbitState, GateMatrix, Netlist, controlled, lower_circuit, lower_controlled_electrooptic, pauli
from anbit import lowering
from anbit.errors import AnbitError, ParamError
from anbit.lowering import DEVICE_KINDS, KINDS, _Columns, _device_columns
from anbit.serialization import netlist_from_text, netlist_to_text

from conftest import random_matrix
from test_lowering import _gate_chain

WIDTH = 3
# domain edges of every kind, with finite, infinite and nan floats
EDGE_VALUES = [0.0, -0.0, 1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), math.nextafter(0.0, -1.0),
               -0.1, 0.5, 1.5, 2.0, -2.0, 1e308, -1e308, math.inf, -math.inf, math.nan]
FLOATS = st.one_of(st.sampled_from(EDGE_VALUES), st.floats())
# what else a row may carry as its value: none, integers within and past the float range, other types
VALUES = st.one_of(FLOATS, st.none(), st.integers(-3, 3), st.sampled_from([10**400, True, "0.5", 1j, [0.5]]))
WIRES = st.one_of(st.integers(-2, WIDTH + 1), st.sampled_from([1.5, 1.0, "0", None, np.int64(1), True, 2**64]))


_GOOD_VALUE = {"PS": 0.5, "DC": 0.5, "BS": None, "ATT": 0.5, "AMP": 2.0}


@st.composite
def rows(draw, values=VALUES, wires=WIRES, faults=("kind", "count", "wire", "value")):
    """A list of device rows, each valid or with one field drawn from the faulty ones too."""
    out = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(KINDS))
        ws = list(draw(st.permutations(range(WIDTH)))[:DEVICE_KINDS[kind].n_wires])
        value = _GOOD_VALUE[kind]
        fault = draw(st.sampled_from((None, None) + faults))
        if fault == "kind":
            kind = draw(st.sampled_from(KINDS + ("XX",)))
        elif fault == "count":
            ws = draw(st.lists(st.integers(0, WIDTH - 1), max_size=3))
        elif fault == "wire":
            ws[draw(st.integers(0, len(ws) - 1))] = draw(wires)
        elif fault == "value":
            value = draw(values)
        out.append((kind, tuple(ws), value, draw(st.sampled_from([None, "c0"]))))
    return out


@st.composite
def columns(draw):
    """`_Columns` an emitter could write: codes of KINDS, wires in -2..WIDTH+1, a float or nan per value."""
    cols = _Columns()
    for _ in range(draw(st.integers(0, 5))):
        code = draw(st.sampled_from(range(len(KINDS))))
        spec = DEVICE_KINDS[KINDS[code]]
        a = draw(st.integers(-2, WIDTH + 1))
        b = draw(st.integers(-2, WIDTH + 1)) if spec.n_wires == 2 else -1
        cols.add((code,), (a,), (b,), (draw(FLOATS) if spec.valued else math.nan,))
    return cols


def _outcome(build):
    """(exception type and text, None) if build() raises a package error, else (None, its result)."""
    try:
        return None, build()
    except AnbitError as exc:
        return (type(exc), str(exc)), None


def _marked_outcome(build):
    """`_outcome` of build, with the faulty device's mark after the type and text."""
    try:
        return None, build()
    except AnbitError as exc:
        return (type(exc), str(exc), exc.device), None


def _agrees(netlist_fault, nl, rule_fault, cols):
    assert netlist_fault == rule_fault
    if rule_fault is None:  # the netlist keeps the row rule's columns
        codes, wires, values, bindings = cols.arrays()
        assert nl.kinds.dtype == np.int8 and nl.kinds.tolist() == codes.tolist()
        assert [nl.wire_a.tolist(), nl.wire_b.tolist()] == wires.tolist()
        assert np.array_equal(nl.values, values, equal_nan=True)
        assert nl.bindings == tuple(bindings)


@settings(max_examples=400, deadline=None)
@given(columns())
def test_column_check_raises_exactly_when_the_row_rule_does(cols):
    rule_fault, rule_cols = _marked_outcome(lambda: _device_columns(cols.rows(), WIDTH))
    fault, nl = _marked_outcome(lambda: Netlist(WIDTH, cols, (0,), (0,)))
    _agrees(fault, nl, rule_fault, rule_cols)


@settings(max_examples=400, deadline=None)
@given(rows(values=FLOATS, wires=st.one_of(st.integers(-2, WIDTH + 1), st.just(2**64)), faults=("wire", "value")))
def test_text_reader_raises_exactly_when_the_row_rule_does(devices):
    # text carries a kind's own field count, so a valueless kind is written without its value
    devices = [(kind, ws, value if DEVICE_KINDS[kind].valued else None, binding) for kind, ws, value, binding in devices]
    lines = [" ".join([kind, *map(str, ws), *([repr(value)] if value is not None else []), *(["@" + b] if b else [])])
             for kind, ws, value, b in devices]
    rule_fault, cols = _outcome(lambda: _device_columns(devices, WIDTH))
    if rule_fault is not None:  # the text names the faulty device's line: three header lines, then one a device
        with pytest.raises(ParamError) as exc:
            _device_columns(devices, WIDTH)
        rule_fault = (ParamError, f"line {4 + exc.value.device}: {exc.value}")
    fault, nl = _outcome(lambda: netlist_from_text("\n".join([f"WIRES {WIDTH}", "IN 0", "OUT 0", *lines])))
    _agrees(fault, nl, rule_fault, cols)


def test_each_door_runs_one_check(monkeypatch):
    # rows, text's among them, meet the row rule alone; columns meet the column check, and the row rule only on a fault
    calls = []
    row_rule, column_check = lowering._device_columns, lowering._column_check

    def counted_rule(rows, width):
        calls.append("row rule")
        return row_rule(rows, width)

    def counted_check(*columns):
        calls.append("column check")
        return column_check(*columns)

    monkeypatch.setattr(lowering, "_device_columns", counted_rule)
    monkeypatch.setattr(lowering, "_column_check", counted_check)
    rows = [("PS", (0,), 0.5, "c0"), ("BS", (0, 1), None, None)]
    text = "WIRES 2\nIN 0\nOUT 1\nPS 0 0.5 @c0\nBS 0 1\n"
    doors = {
        "rows": lambda: Netlist(2, rows, (0,), (1,)),
        "generator": lambda: Netlist(2, iter(rows), (0,), (1,)),
        "emitter": lambda: lower_circuit(_gate_chain(np.eye(2)), "zxz"),
        "text": lambda: netlist_from_text(text),
        "faulty text": lambda: _outcome(lambda: netlist_from_text(text.replace("0.5", "inf"))),
    }
    seen = {}
    for door, build in doors.items():
        calls.clear()
        build()
        seen[door] = list(calls)
    assert seen == {
        "rows": ["row rule"],
        "generator": ["row rule"],
        "emitter": ["column check"],
        "text": ["row rule"],
        "faulty text": ["row rule"],
    }


def _built_netlists():
    rng = np.random.default_rng(5)
    return {
        "rows": Netlist(2, [("PS", (0,), 0.5, "c0"), ("BS", (0, 1), None, None)], (0,), (1,),
                        control_map={"1": {0: 0.25}, "*": {}}, active_setting="*"),
        "circuit": lower_circuit(_gate_chain(random_matrix(rng), random_matrix(rng)), "svd"),
        "controlled": lower_controlled_electrooptic(controlled(pauli(1), 1), AnbitState([0.0, 1.0])),
        "text": netlist_from_text(netlist_to_text(lower_controlled_electrooptic(controlled(GateMatrix(
            random_matrix(rng)), 1), AnbitState([1.0, 0.0])))),
    }


@pytest.mark.parametrize("door", ["rows", "circuit", "controlled", "text"])
def test_every_column_refuses_assignment_after_the_build(door):
    # a transfer reads only values that were checked: no column, nor any control word's, can be written
    nl = _built_netlists()[door]
    columns = [nl.kinds, nl.wire_a, nl.wire_b, nl.values, nl.wire_a.base]
    columns += [nl._column(word) for word in nl.control_map or ()]
    assert len(columns) >= 5 + 2 * (door != "circuit")
    for column in columns:
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[0]
    assert (nl.kinds.dtype, nl.wire_a.dtype, nl.values.dtype) == (np.int8, np.intp, np.float64)
