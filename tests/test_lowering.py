import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anbit import (
    AnbitState,
    CircuitGraph,
    Device,
    FanInGate,
    FanOutGate,
    GateMatrix,
    Netlist,
    SinkNode,
    SourceNode,
    check_fb_symmetry,
    circuit_transfer,
    controlled,
    euler_zxz,
    identity_gate,
    lower_circuit,
    lower_controlled_electrooptic,
    lower_fanin,
    lower_general_svd,
    lower_mostow,
    lower_pauli_mgate,
    lower_unitary_zxz,
    lower_unitary_zyz_fixed,
    mostow_synthesize,
    pauli,
    scattering_matrix,
    solve,
    tensor_compose,
)
from anbit import lowering
from anbit.errors import ControlEncodingError, DimError, GraphError, ParamError
from anbit.lowering import DEVICE_KINDS, KINDS
from anbit.serialization import netlist_from_text, netlist_to_text

from conftest import random_matrix, random_state_vec, random_unitary


def _one_device(kind, wires, value=None):
    """Forward transfer of a netlist holding one device, its wires the ports."""
    return Netlist(len(wires), [(kind, wires, value, None)], wires, wires).forward_transfer()


def test_phase_shifter_matrix():
    assert np.allclose(_one_device("PS", (0,), np.pi / 2.0), [[1j]], atol=1e-15)
    assert np.allclose(_one_device("PS", (0,), 0.0), [[1.0]], atol=1e-15)


def test_coupler_matrix():
    assert np.allclose(_one_device("DC", (0, 1), np.pi), [[0, -1j], [-1j, 0]], atol=1e-15)
    a = 0.7
    c, s = np.cos(a / 2.0), np.sin(a / 2.0)
    assert np.allclose(_one_device("DC", (0, 1), a), [[c, -1j * s], [-1j * s, c]], atol=1e-15)
    # symmetric device: the backward transfer equals the forward one
    nl = Netlist(2, [("DC", (0, 1), a, None)], (0, 1), (0, 1))
    assert np.allclose(nl.backward_transfer(), nl.forward_transfer(), atol=1e-15)


def test_splitter_matrix():
    want = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2.0)
    assert np.allclose(_one_device("BS", (0, 1)), want, atol=1e-15)
    assert Netlist(2, [("BS", (0, 1), None, None)], (0,), (0,)).devices[0].value is None
    with pytest.raises(ParamError):
        Netlist(2, [("BS", (0, 1), 0.3, None)], (0,), (0,))


def test_gain_devices():
    assert np.allclose(_one_device("ATT", (0,), 0.5), [[0.5]])
    assert np.allclose(_one_device("AMP", (0,), 2.0), [[2.0]])
    for kind, gain in (("ATT", 1.5), ("ATT", -0.1), ("AMP", 0.9)):
        with pytest.raises(ParamError):
            Netlist(1, [(kind, (0,), gain, None)], (0,), (0,))
    # the lowering picks each gain's kind: singular value 3 is an amplifier,
    # 0.3 an attenuator, and the boundary 1 stays passive
    for d2 in (0.3, 1.0):
        nl = lower_general_svd(GateMatrix(np.diag([3.0, d2])))
        gains = [(d.kind, d.value) for d in nl.devices if d.kind in ("ATT", "AMP")]
        assert gains == [("AMP", 3.0), ("ATT", d2)]
    # a negative gain row is an attenuator outside its domain
    with pytest.raises(ParamError, match=r"attenuator gain must be in \[0, 1\], got -2.0"):
        Netlist(1, [(lowering.KINDS[lowering._gain_code(-2.0)], (0,), -2.0, None)], (0,), (0,))


@pytest.mark.parametrize(
    "wires,value",
    [((0,), "x"), ((0,), 1j), (0, 1.0), (None, 1.0)],
    ids=["value-string", "value-complex", "wires-int", "wires-none"],
)
def test_device_rejects_untyped_inputs(wires, value):
    with pytest.raises(ParamError):
        Netlist(1, [("PS", wires, value, None)], (0,), (0,))


# (device row less its binding, the same device as a netlist text line, message); the
# text format has positional fields, so a wrong wire count, a value on BS or a
# missing value is a field-count error there (test_netlist_text_parse_errors)
_DEVICE_FAULTS = {
    "wire-count": (("PS", (0, 1), 0.5), None, "PS needs 1 distinct wires, got (0, 1)"),
    "repeated-wire": (("DC", (0, 0), 0.7), "DC 0 0 0.7", "DC needs 2 distinct wires, got (0, 0)"),
    "bs-value": (("BS", (0, 1), 0.3), None, "BS takes no value, got 0.3"),
    "missing-value": (("PS", (0,), None), None, "PS needs a value"),
    "ps-inf": (("PS", (0,), math.inf), "PS 0 inf", "PS value must be finite, got inf"),
    "ps-nan": (("PS", (0,), math.nan), "PS 0 nan", "PS value must be finite, got nan"),
    "dc-inf": (("DC", (0, 1), math.inf), "DC 0 1 inf", "DC value must be finite, got inf"),
    "amp-inf": (("AMP", (0,), math.inf), "AMP 0 inf", "AMP value must be finite, got inf"),
    "att-high": (("ATT", (0,), 1.5), "ATT 0 1.5", "attenuator gain must be in [0, 1], got 1.5"),
    "att-negative": (("ATT", (0,), -0.1), "ATT 0 -0.1", "attenuator gain must be in [0, 1], got -0.1"),
    "amp-low": (("AMP", (0,), 0.9), "AMP 0 0.9", "amplifier gain must exceed 1, got 0.9"),
    "three-field-row": (("PS", (0,)), None, "netlist devices are (kind, wires, value, binding) rows"),
    "unknown-kind": (("XX", (0,), 0.5), None, "unknown device kind 'XX'"),
}


@pytest.mark.parametrize("args,line,message", _DEVICE_FAULTS.values(), ids=_DEVICE_FAULTS)
def test_device_faults_share_one_rule_set(args, line, message):
    # a netlist row, checked by the netlist's one row loop, and the text parser
    # report each fault with the same message, the text's with its line in front
    with pytest.raises(ParamError) as by_row:
        Netlist(2, [(*args, None)], (0,), (0,))
    assert str(by_row.value) == message
    if line is not None:
        with pytest.raises(ParamError) as by_text:
            netlist_from_text(f"WIRES 2\nIN 0\nOUT 0\n{line}\n")
        assert str(by_text.value) == f"line 4: {message}"


@pytest.mark.parametrize(
    "build,field",
    [
        (lambda: Netlist(1, [Device("PS", ("a",), 1.0)], (0,), (0,)), "PS wires"),
        (lambda: Netlist(1, [("PS", ("a",), 1.0, None)], (0,), (0,)), "PS wires"),
        (lambda: Netlist(2, [("PS", (1.5,), 1.0, None)], (0,), (0,)), "PS wires"),
        (lambda: Netlist(2, [("DC", (0, 1.0), 1.0, None)], (0,), (0,)), "DC wires"),
        (lambda: Netlist(2.5, [], (0,), (0,)), "netlist wire count"),
        (lambda: Netlist("2", [], (0,), (0,)), "netlist wire count"),
        (lambda: Netlist(2, [], (0.7,), (1,)), "input port"),
        (lambda: Netlist(2, [], (0,), (1.9,)), "output port"),
    ],
    ids=["device-str", "row-str", "row-float", "coupler-float", "count-float", "count-str",
         "input-float", "output-float"],
)
def test_netlist_indices_are_integers(build, field):
    # each is a typed error naming its field, not a TypeError or a silent truncation
    with pytest.raises(ParamError, match=field):
        build()


def test_negative_second_wire_is_out_of_range():
    # -1 marks a single-wire row in wire_b, so it must never be stored for a DC
    with pytest.raises(ParamError, match="device wire -1 outside 0..1"):
        Netlist(2, [("DC", (0, -1), 0.5, None)], (0,), (0,))
    with pytest.raises(ParamError, match="device wire -1 outside 0..1"):
        netlist_from_text("WIRES 2\nIN 0\nOUT 0\nDC 0 -1 0.5\n")


def test_first_faulty_row_reports():
    rows = [
        ("PS", (0,), 0.5, None),
        ("ATT", (0,), 1.5, None),
        ("PS", (1,), 0.5, None),
        ("PS", (0,), math.inf, None),
    ]
    with pytest.raises(ParamError, match=r"attenuator gain must be in \[0, 1\], got 1.5"):
        Netlist(2, rows, (0,), (0,))


@pytest.mark.parametrize(
    "wires",
    [[0, 1], range(2), (np.int64(0), np.int32(1)), np.arange(2)],
    ids=["list", "range", "numpy-scalars", "numpy-array"],
)
def test_wires_are_any_integer_sequence(wires):
    nl = Netlist(2, [("DC", wires, 0.5, None)], (0,), (0,))
    assert nl.devices[0].wires == (0, 1) and type(nl.devices[0].wires[0]) is int


def test_valued_rows_store_floats():
    nl = Netlist(1, [("PS", (0,), 1, None)], (0,), (0,))
    assert type(nl.devices[0].value) is float and nl.devices[0].value == 1.0


def test_attenuator_zero_is_allowed():
    # hard block: used to terminate a wire
    assert _one_device("ATT", (0,), 0.0)[0, 0] == 0.0


def test_zxz_device_count_and_transfer(rng):
    for _ in range(100):
        u = GateMatrix(random_unitary(rng))
        nl = lower_unitary_zxz(u)
        assert len(nl.devices) == 7
        assert nl.wires == 2
        assert np.max(np.abs(nl.forward_transfer() - u.entries)) < 1e-12


def test_zyz_device_count_and_transfer(rng):
    for _ in range(100):
        u = GateMatrix(random_unitary(rng))
        nl = lower_unitary_zyz_fixed(u)
        assert len(nl.devices) == 11
        assert np.max(np.abs(nl.forward_transfer() - u.entries)) < 1e-12


def test_zyz_costs_more_devices_than_zxz(rng):
    u = GateMatrix(random_unitary(rng))
    assert len(lower_unitary_zyz_fixed(u).devices) > len(lower_unitary_zxz(u).devices)


def test_svd_device_count_and_transfer(rng):
    for _ in range(100):
        m = GateMatrix(random_matrix(rng))
        nl = lower_general_svd(m)
        assert len(nl.devices) == 16
        assert np.max(np.abs(nl.forward_transfer() - m.entries)) < 1e-11


def test_pauli_device_count_and_transfer(rng):
    for _ in range(50):
        m = GateMatrix(random_matrix(rng))
        nl = lower_pauli_mgate(m)
        assert len(nl.devices) == 96
        assert nl.wires == 8
        assert nl.input_ports == (0, 1) and nl.output_ports == (0, 1)
        assert np.max(np.abs(nl.forward_transfer() - m.entries)) < 1e-11


def test_pauli_costs_more_devices_than_svd(rng):
    m = GateMatrix(random_matrix(rng))
    assert len(lower_pauli_mgate(m).devices) > len(lower_general_svd(m).devices)


def test_fanin_device_count_and_transfer(rng):
    for _ in range(50):
        n = complex(rng.normal(), rng.normal()) or 1.0
        m = complex(rng.normal(), rng.normal()) or 1.0
        fi = FanInGate(n, m)
        nl = lower_fanin(fi)
        assert len(nl.devices) == 12
        assert nl.wires == 4
        assert np.max(np.abs(nl.forward_transfer() - fi.matrix)) < 1e-12


def test_mostow_device_count_and_transfer(rng):
    for _ in range(50):
        u = GateMatrix(random_unitary(rng))
        q = rng.normal(size=(2, 2))
        f = mostow_synthesize(u, rng.uniform(-1, 1), 0.5 * (q + q.T))
        nl = lower_mostow(f)
        assert len(nl.devices) == 25
        assert np.max(np.abs(nl.forward_transfer() - f.target().entries)) < 1e-11


def test_singular_gate_lowers_with_zero_attenuator():
    m = GateMatrix([[1.0, 1.0], [1.0, 1.0]])
    nl = lower_general_svd(m)
    assert np.max(np.abs(nl.forward_transfer() - m.entries)) < 1e-12
    gains = [d.value for d in nl.devices if d.kind in ("ATT", "AMP")]
    assert min(gains) == pytest.approx(0.0, abs=1e-14)


def _fb_symmetry(nl):
    return check_fb_symmetry(nl.forward_transfer(), nl.backward_transfer())


def test_a_fan_weight_up_to_max_over_sqrt2_lowers_with_a_finite_transfer():
    # the sum block's gain is sqrt2 |n|, finite up to |n| = max float / sqrt2, about 1.2711e308
    tf = lower_fanin(FanInGate(1.27e308, 1.0)).forward_transfer()
    assert np.isfinite(tf).all()
    assert tf[0, 0] == pytest.approx(1.27e308, rel=1e-15)
    with pytest.raises(ParamError, match=r"^fan weight n = \(1\.3e\+308\+0j\) needs \|n\| at most max float / sqrt2"):
        lower_fanin(FanInGate(1.3e308, 1.0))
    # the phase of 1e308 + 5e-324j underflows to 0 (cmath.phase raises OverflowError there)
    tf = lower_fanin(FanInGate(complex(1e308, 5e-324), 1.0)).forward_transfer()
    assert np.isfinite(tf).all()
    assert tf[0, 0] == pytest.approx(1e308, rel=1e-15)


def test_fb_symmetry_fanin():
    assert _fb_symmetry(lower_fanin(FanInGate(1.0, 1.0))) is True
    assert _fb_symmetry(lower_fanin(FanInGate(0.7, 0.7))) is True
    assert _fb_symmetry(lower_fanin(FanInGate(1.0, 0.5))) is False


def test_fb_symmetry_zxz():
    # equal outer angles: symmetric
    assert _fb_symmetry(lower_unitary_zxz(pauli(1))) is True
    f = euler_zxz(pauli(1))
    assert f.alpha1 == f.alpha3
    # generic gate with distinct outer angles: asymmetric
    h = GateMatrix(np.array([[1, 1], [1j, -1j]]) / np.sqrt(2.0))
    fh = euler_zxz(h)
    assert abs(fh.alpha1 - fh.alpha3) > 1e-3
    assert _fb_symmetry(lower_unitary_zxz(h)) is False


def test_scattering_matrix_reciprocal(rng):
    for maker in (
        lambda: lower_unitary_zxz(GateMatrix(random_unitary(rng))),
        lambda: lower_general_svd(GateMatrix(random_matrix(rng))),
        lambda: lower_fanin(FanInGate(1.0, 0.5)),
    ):
        nl = maker()
        tf = nl.forward_transfer()
        s = scattering_matrix(tf, tf.T)
        n = len(nl.input_ports)
        assert s.shape == (2 * n, 2 * n)
        assert np.max(np.abs(s - s.T)) < 1e-12
        # no reflection blocks
        assert np.max(np.abs(s[:n, :n])) == 0.0
        assert np.max(np.abs(s[n:, n:])) == 0.0
        assert np.allclose(s[n:, :n], nl.forward_transfer(), atol=1e-14)


def test_scattering_matrix_nonreciprocal_uses_backward():
    nl = lower_fanin(FanInGate(1.0, 0.5))
    s = scattering_matrix(nl.forward_transfer(), nl.backward_transfer())
    n = len(nl.input_ports)
    assert np.allclose(s[:n, n:], nl.backward_transfer(), atol=1e-14)


def test_controlled_cnot_netlist():
    cg = controlled(pauli(1), 1)
    on = lower_controlled_electrooptic(cg, AnbitState([0.0, 1.0]))
    assert on.active_setting == "1"
    assert np.max(np.abs(on.forward_transfer() - pauli(1).entries)) < 1e-12
    off = lower_controlled_electrooptic(cg, AnbitState([1.0, 0.0]))
    assert off.active_setting == "*"
    assert np.max(np.abs(off.forward_transfer() - np.eye(2))) < 1e-12
    # retarget without re-lowering
    assert np.max(np.abs(on.forward_transfer("*") - np.eye(2))) < 1e-12
    assert np.max(np.abs(off.forward_transfer("1") - pauli(1).entries)) < 1e-12


def test_controlled_toffoli_words():
    cg = controlled(pauli(1), 2)
    both = np.zeros(4)
    both[3] = 1.0
    nl = lower_controlled_electrooptic(cg, both)
    assert nl.active_setting == "11"
    assert set(nl.control_map) == {"11", "*"}
    assert np.max(np.abs(nl.forward_transfer() - pauli(1).entries)) < 1e-12
    one = np.zeros(4)
    one[2] = 1.0  # word "10"
    nl = lower_controlled_electrooptic(cg, one)
    assert nl.active_setting == "*"
    assert np.max(np.abs(nl.forward_transfer() - np.eye(2))) < 1e-12


def test_controlled_nonunitary_target(rng):
    g = GateMatrix(random_matrix(rng))
    cg = controlled(g, 1)
    nl = lower_controlled_electrooptic(cg, AnbitState([0.0, 1.0]))
    assert np.max(np.abs(nl.forward_transfer() - g.entries)) < 1e-11


def _count_checks(monkeypatch) -> list:
    """Devices per netlist column check; the row rule, which only names faults, must not run."""
    passes = []
    column_check = lowering._column_check

    def counted_check(codes, *columns):
        passes.append(len(codes))
        return column_check(codes, *columns)

    def row_rule(rows, width):
        raise AssertionError("the row rule ran on devices without a fault")

    monkeypatch.setattr(lowering, "_column_check", counted_check)
    monkeypatch.setattr(lowering, "_device_columns", row_rule)
    return passes


@pytest.mark.parametrize("word", [0, 1])
@pytest.mark.parametrize("unitary", [True, False], ids=["zxz", "svd"])
def test_lower_controlled_builds_each_device_at_most_twice(word, unitary, rng, monkeypatch):
    gate = pauli(1) if unitary else GateMatrix(random_matrix(rng))
    passes = _count_checks(monkeypatch)
    nl = lower_controlled_electrooptic(controlled(gate, 1), np.eye(2)[word])
    # a target and an identity template are emitted as plain columns, then the
    # active one's values are bound to c0..cN; only those devices are checked,
    # once, by the netlist's column check
    assert passes == [len(nl.devices)]
    assert [dev.control_binding for dev in nl.devices] == [f"c{i}" for i in range(len(nl.devices))]
    want = gate.entries if word else np.eye(2)
    assert np.max(np.abs(nl.forward_transfer() - want)) < 1e-11


def test_controlled_rejects_superposed():
    cg = controlled(pauli(1), 1)
    with pytest.raises(ControlEncodingError):
        lower_controlled_electrooptic(cg, AnbitState(np.array([1.0, 1.0]) / np.sqrt(2)))
    with pytest.raises(ControlEncodingError):
        lower_controlled_electrooptic(cg, AnbitState([0.0, 1.0j]))


def test_netlist_wire_bounds():
    with pytest.raises(ParamError):
        Netlist(1, (Device("PS", (1,), 0.5),), (0,), (0,))
    # ports outside 0..W-1, including negative ones numpy would wrap
    with pytest.raises(ParamError):
        Netlist(2, (), (0, 5), (0, 1))
    with pytest.raises(ParamError):
        Netlist(2, (), (0, 1), (-1, 1))
    # both port lists are non-empty
    with pytest.raises(ParamError, match="no input ports"):
        Netlist(2, (), (), (0, 1))
    with pytest.raises(ParamError, match="no output ports"):
        Netlist(2, (), (0, 1), ())
    # a two-wire device needs two distinct wires
    with pytest.raises(ParamError):
        Netlist(2, [("DC", (0, 0), 0.7, None)], (0,), (0,))
    with pytest.raises(ParamError):
        Netlist(2, [("PS", (0, 1), 0.5, None)], (0,), (0,))


def test_netlist_sizes_are_capped_before_allocating(monkeypatch):
    cap = lowering.MAX_WIRES
    with pytest.raises(ParamError) as exc:
        Netlist(cap + 1, (), (0,), (0,))
    assert str(exc.value) == f"netlist wire count must be at most {cap}, got {cap + 1}"
    # (wires + ports) x ports entries: 999 x 998 fits under 10**6, 1001 x 1000 does not
    Netlist(1, (), (0,) * 499, (0,) * 499)
    with pytest.raises(ParamError, match="needs \\(wires \\+ ports\\) x ports = 1001000 transfer entries"):
        Netlist(1, (), (0,) * 500, (0,) * 500)
    # a lowering wider than the cap meets the same door
    monkeypatch.setattr(lowering, "MAX_WIRES", 7)
    with pytest.raises(ParamError) as exc:
        lower_pauli_mgate(GateMatrix(np.eye(2)))
    assert str(exc.value) == "netlist wire count must be at most 7, got 8"


@pytest.mark.parametrize("control_map", [[("1", {0: 0.5})], "1"], ids=["list", "str"])
def test_control_map_that_is_not_a_mapping_is_a_param_error(control_map):
    with pytest.raises(ParamError, match="control map must map control words to"):
        Netlist(1, [("PS", (0,), 0.5, "c0")], (0,), (0,), control_map=control_map)


def test_unhashable_active_word_is_a_param_error():
    with pytest.raises(ParamError) as exc:
        Netlist(1, [("PS", (0,), 0.5, "c0")], (0,), (0,), control_map={"*": {0: 0.5}}, active_setting=["1"])
    assert str(exc.value) == "control word ['1'] is not hashable"


def test_huge_integer_device_value_is_a_param_error():
    # an integer past the float range fails the finiteness check as a typed error
    with pytest.raises(ParamError) as exc:
        Netlist(1, [("PS", (0,), 10**400, None)], (0,), (0,))
    assert str(exc.value) == "PS value is too large for a float"


def test_huge_integer_control_value_is_a_param_error():
    with pytest.raises(ParamError) as exc:
        Netlist(1, [("PS", (0,), 0.5, "c0")], (0,), (0,), control_map={"1": {0: 0.5}, "*": {0: 10**400}})
    assert str(exc.value) == "control word '*' sets device 0: PS value is too large for a float"


def test_active_word_agrees_with_device_values():
    # the devices carry the active word's values; a second, different copy is rejected
    text = "WIRES 1\nIN 0\nOUT 0\nPS 0 0.5 @c0\nACTIVE 1\nCTRL 1 0=1.5\nCTRL * 0=0\n"
    with pytest.raises(ParamError) as exc:
        netlist_from_text(text)
    assert str(exc.value) == "line 6: active control word '1' sets device 0 to 1.5, but the device carries 0.5"
    # a word without an entry of its own is held to the "*" fallback
    ps = [("PS", (0,), 0.5, "c0")]
    with pytest.raises(ParamError, match="active control word '0' sets device 0 to 0.0, but"):
        Netlist(1, ps, (0,), (0,), control_map={"1": {0: 0.5}, "*": {0: 0.0}}, active_setting="0")
    nl = netlist_from_text(text.replace("0=1.5", "0=0.5"))
    assert np.array_equal(nl.forward_transfer(), nl.forward_transfer("1"))


def test_control_map_bounds():
    ps = (Device("PS", (0,), 0.5, "c0"),)
    # device indices outside 0..D-1, including negative ones
    for values in ({99: 2.0}, {-1: 2.0}):
        with pytest.raises(ParamError):
            Netlist(1, ps, (0,), (0,), control_map={"1": values, "*": {0: 0.5}})
    # a word without its own entry needs the "*" fallback, active or asked for
    with pytest.raises(ParamError):
        Netlist(1, ps, (0,), (0,), control_map={"1": {0: 0.5}}, active_setting="0")
    with pytest.raises(ParamError):
        Netlist(1, ps, (0,), (0,), control_map={"1": {0: 0.5}}).forward_transfer("0")


_ANGLES = st.floats(-7.0, 7.0, allow_nan=False)
_BINDINGS = st.none() | st.text("ab_09", min_size=1, max_size=3)
_KIND_VALUES = {
    "PS": _ANGLES,
    "DC": _ANGLES,
    "BS": st.none(),
    "ATT": st.just(0.0) | st.floats(0.0, 1.0),  # gain 0 blocks its wire
    "AMP": st.floats(1.0, 3.0, exclude_min=True),
}
# long runs weight each single-wire kind 4:1 against each two-wire kind, as in
# lowered pauli chains, so most wires carry runs of diagonal factors between couplers
_LONG_RUN_KINDS = [k for k, spec in DEVICE_KINDS.items() for _ in range(4 if spec.n_wires == 1 else 1)]


@st.composite
def random_netlists(draw):
    """Netlist of every device kind, some bound to controls, maybe with a control map.

    Either up to 24 devices of uniformly drawn kinds on up to 8 wires, or a
    long run of up to 200 devices, mostly single-wire, on 2 to 4 wires.
    """
    long_run = draw(st.booleans())
    n_wires = draw(st.integers(2, 4) if long_run else st.integers(1, 8))
    pool = _LONG_RUN_KINDS if long_run else DEVICE_KINDS
    kind_st = st.sampled_from([k for k in pool if DEVICE_KINDS[k].n_wires <= n_wires])
    wire_st = st.integers(0, n_wires - 1)
    pair_st = st.permutations(range(n_wires))
    devices = []
    for _ in range(draw(st.integers(0, 200 if long_run else 24))):
        kind = draw(kind_st)
        wires = (draw(wire_st),) if DEVICE_KINDS[kind].n_wires == 1 else draw(pair_st)[:2]
        devices.append(Device(kind, wires, draw(_KIND_VALUES[kind]), draw(_BINDINGS)))
    ports = st.lists(st.integers(0, n_wires - 1), min_size=1, max_size=n_wires, unique=True)
    control_map = setting = None
    valued = [i for i, dev in enumerate(devices) if dev.value is not None]
    if valued and draw(st.booleans()):
        # each word overrides some devices, each within its kind's domain; the
        # others keep their own values
        overridden = st.lists(st.sampled_from(valued), min_size=1, max_size=24, unique=True)
        control_map = {
            word: {i: draw(_KIND_VALUES[devices[i].kind]) for i in draw(overridden)} for word in ("1", "*")
        }
        setting = draw(st.sampled_from(["1", "0", "*"]))
    nl = Netlist(n_wires, devices, draw(ports), draw(ports), control_map=control_map)
    return nl, setting


def _dense_product(nl, setting, backward, absolute=False):
    # every device embedded in a W x W identity; backward takes the devices in
    # reverse order with transposed matrices, absolute their entrywise |.|
    values = {}
    if setting is not None:
        values = nl.control_map.get(setting, nl.control_map["*"])
    order = range(len(nl.devices) - 1, -1, -1) if backward else range(len(nl.devices))
    full = np.eye(nl.wires, dtype=complex)
    for idx in order:
        dev = nl.devices[idx]
        n = len(dev.wires)
        column = np.array([values.get(idx, dev.value)], dtype=float)  # a one-element value column
        local = np.array(DEVICE_KINDS[dev.kind].coefs(column)).reshape(n, n)
        local = np.abs(local) if absolute else local
        step = np.eye(nl.wires, dtype=complex)
        step[np.ix_(dev.wires, dev.wires)] = local.T if backward else local
        full = step @ full
        if absolute:  # below the normal range rounding is absolute, at each device
            full += np.finfo(float).tiny
    return full


def dense_forward(nl, setting):
    """Reference: every device embedded in a W x W identity, multiplied in order."""
    return _dense_product(nl, setting, backward=False)[np.ix_(nl.output_ports, nl.input_ports)]


def dense_backward(nl, setting):
    """Reference: transposed devices embedded in a W x W identity, multiplied in reverse."""
    return _dense_product(nl, setting, backward=True)[np.ix_(nl.input_ports, nl.output_ports)]


def rounding_scale(nl, setting):
    """The entrywise product of the devices' absolute matrices, [output, input] ports.

    It bounds the rounding of any order of the product entry by entry, where
    a run of gains that cancels to a small transfer leaves |T| far below it;
    the smallest normal float added after each device covers underflow.
    """
    return _dense_product(nl, setting, False, absolute=True)[np.ix_(nl.output_ports, nl.input_ports)]


@settings(max_examples=200, deadline=None)
@given(random_netlists())
def test_port_block_matches_dense_product(case):
    nl, setting = case
    tf = nl.forward_transfer(setting)
    scale = rounding_scale(nl, setting)
    assert tf.shape == (len(nl.output_ports), len(nl.input_ports))
    assert np.all(np.abs(tf - dense_forward(nl, setting)) <= 1e-12 * scale)
    assert np.all(np.abs(nl.backward_transfer(setting) - tf.T) <= 1e-12 * scale.T)


@settings(max_examples=100, deadline=None)
@given(random_netlists())
def test_backward_transfer_matches_dense_reversed_product(case):
    nl, setting = case
    tb = nl.backward_transfer(setting)
    want = dense_backward(nl, setting)
    assert tb.shape == (len(nl.input_ports), len(nl.output_ports))
    # the reversed product of transposes has the transposed absolute bound
    assert np.all(np.abs(tb - want) <= 1e-12 * rounding_scale(nl, setting).T)


def test_lower_circuit_matches_solve(rng):
    m1 = GateMatrix(random_unitary(rng))
    nodes = {
        "s": SourceNode(),
        "fo": FanOutGate(1.0, 1.0),
        "g": m1,
        "fi": FanInGate(0.5, 0.5),
        "t": SinkNode(),
        "d": SinkNode(),
    }
    edges = (
        (("s", 0), ("fo", 0)),
        (("fo", 0), ("g", 0)),
        (("fo", 1), ("fi", 1)),
        (("g", 0), ("fi", 0)),
        (("fi", 0), ("t", 0)),
        (("fi", 1), ("d", 0)),
    )
    graph = CircuitGraph(nodes, edges)
    nl = lower_circuit(graph, arch="zxz")
    psi = AnbitState(random_state_vec(rng))
    res = solve(graph, {"s": psi})
    tf = nl.forward_transfer()
    got = tf @ psi.amps
    want = np.concatenate([res["t"].amps, res["d"].amps])
    assert np.max(np.abs(got - want)) < 1e-11


def test_lower_circuit_arch_choices(rng):
    m1 = GateMatrix(random_unitary(rng))
    nodes = {"s": SourceNode(), "g": m1, "t": SinkNode()}
    edges = ((("s", 0), ("g", 0)), (("g", 0), ("t", 0)))
    graph = CircuitGraph(nodes, edges)
    for arch in ("zxz", "zyz", "svd", "pauli"):
        nl = lower_circuit(graph, arch=arch)
        assert np.max(np.abs(nl.forward_transfer() - m1.entries)) < 1e-11
    with pytest.raises(ParamError):
        lower_circuit(graph, arch="mostow")


def test_lower_circuit_rejects_cycles():
    m = GateMatrix(0.5 * np.eye(2))
    nodes = {
        "src": SourceNode(),
        "fi": FanInGate(1.0, 1.0),
        "g1": m,
        "fo": FanOutGate(1.0, 1.0),
        "g2": m,
        "out": SinkNode(),
    }
    edges = (
        (("src", 0), ("fi", 0)),
        (("fi", 0), ("g1", 0)),
        (("g1", 0), ("fo", 0)),
        (("fo", 0), ("out", 0)),
        (("fo", 1), ("g2", 0)),
        (("g2", 0), ("fi", 1)),
    )
    graph = CircuitGraph(nodes, edges)
    with pytest.raises(GraphError):
        lower_circuit(graph)


def test_lower_circuit_rejects_wired_ancilla(rng):
    # a fed fan-out ancilla has no feedforward netlist form
    m = GateMatrix(random_unitary(rng))
    nodes = {
        "s1": SourceNode(),
        "s2": SourceNode(),
        "fo": FanOutGate(1.0, 1.0),
        "g": m,
        "t1": SinkNode(),
        "t2": SinkNode(),
    }
    edges = (
        (("s1", 0), ("fo", 0)),
        (("s2", 0), ("fo", 1)),
        (("fo", 0), ("g", 0)),
        (("g", 0), ("t1", 0)),
        (("fo", 1), ("t2", 0)),
    )
    graph = CircuitGraph(nodes, edges)
    with pytest.raises(GraphError):
        lower_circuit(graph)


def _ladder(rng, n_rungs: int, unitary: bool) -> CircuitGraph:
    """n_rungs of fan-out, one gate per branch, fan-in; each difference port ends in a sink."""
    draw = random_unitary if unitary else random_matrix
    nodes = {"s": SourceNode()}
    edges = []
    prev = ("s", 0)
    for k in range(n_rungs):
        fo, a, b, fi, d = (f"{name}{k}" for name in ("fo", "a", "b", "fi", "d"))
        nodes.update({
            fo: FanOutGate(0.8, 0.6),
            a: GateMatrix(draw(rng)),
            b: GateMatrix(draw(rng)),
            fi: FanInGate(0.5, 0.5j),
            d: SinkNode(),
        })
        edges += [
            (prev, (fo, 0)),
            ((fo, 0), (a, 0)),
            ((fo, 1), (b, 0)),
            ((a, 0), (fi, 0)),
            ((b, 0), (fi, 1)),
            ((fi, 1), (d, 0)),
        ]
        prev = (fi, 0)
    nodes["t"] = SinkNode()
    edges.append((prev, ("t", 0)))
    return CircuitGraph(nodes, edges)


@pytest.mark.parametrize("arch", ["zxz", "svd", "pauli"])
def test_lower_circuit_builds_each_device_once(arch, rng, monkeypatch):
    graph = _ladder(rng, 10, unitary=arch == "zxz")  # 20 gates
    passes = _count_checks(monkeypatch)
    nl = lower_circuit(graph, arch)
    # every device is emitted once into the columns and checked once, by the
    # netlist's column check
    assert passes == [len(nl.devices)]
    # every gate, fan-in and fan-out sits on the right wires: the transfer matches solve
    psi = AnbitState(random_state_vec(rng))
    res = solve(graph, {"s": psi})
    want = np.concatenate([res[nid].amps for nid in graph.sinks()])
    got = nl.forward_transfer() @ psi.amps
    assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


def test_fb_symmetry_of_non_square_transfers():
    nl = netlist_from_text("WIRES 2\nIN 0 1\nOUT 0\nBS 0 1\n")
    tf, tb = nl.forward_transfer(), nl.backward_transfer()
    assert tf.shape == (1, 2) and tb.shape == (2, 1)
    assert check_fb_symmetry(tf, tb) is False


@pytest.mark.parametrize(
    "control_map,message",
    [
        ({"*": {0: "x"}}, "control word '*' sets device 0: PS value must be a real number, got 'x'"),
        ({"*": {0: 1j}}, "control word '*' sets device 0: PS value must be a real number, got 1j"),
        ({"*": {"0": 0.5}}, "control word '*' device index '0' is not an integer"),
        ({"*": {0.0: 0.5}}, "control word '*' device index 0.0 is not an integer"),
        ({"*": [0.5]}, "control word '*' maps to [0.5], not to {device: value}"),
    ],
    ids=["str-value", "complex-value", "str-index", "float-index", "list-entry"],
)
def test_control_map_entries_are_typed(control_map, message):
    with pytest.raises(ParamError) as exc:
        Netlist(1, [("PS", (0,), 0.5, None)], (0,), (0,), control_map=control_map)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "row,value,message",
    [
        (("ATT", (0,), 0.5, "c0"), 5.0, "control word '1' sets device 0: attenuator gain must be in [0, 1], got 5.0"),
        (("ATT", (0,), 0.5, "c0"), -0.5, "control word '1' sets device 0: attenuator gain must be in [0, 1], got -0.5"),
        (("AMP", (0,), 2.0, "c0"), 1.0, "control word '1' sets device 0: amplifier gain must exceed 1, got 1.0"),
        (("BS", (0, 1), None, "c0"), 0.5, "control word '1' sets device 0: BS takes no value, got 0.5"),
    ],
    ids=["att-gain", "att-negative", "amp-unit", "bs-value"],
)
def test_control_values_obey_their_device_domains(row, value, message):
    # a word's value is held to the rules of the device it sets, as the device's own value is
    with pytest.raises(ParamError) as exc:
        Netlist(2, [row], (0, 1), (0, 1), control_map={"1": {0: value}})
    assert str(exc.value) == message


def test_a_netlist_keeps_its_own_copy_of_the_control_map():
    # the caller's map changes after the netlist is built: no transfer and no text changes with it
    cm = {"1": {0: 0.25}, "*": {0: 0.5}}
    nl = Netlist(1, [("ATT", (0,), 0.5, "c0")], (0,), (0,), control_map=cm, active_setting="*")

    def outputs():
        transfers = [f(w).tobytes() for f in (nl.forward_transfer, nl.backward_transfer) for w in (None, "1", "0")]
        return transfers + [netlist_to_text(nl)]

    before = outputs()
    cm["1"][0] = 5.0  # an attenuator at gain 5
    cm["*"][0] = float("nan")
    cm["0"] = {0: 0.75}
    assert outputs() == before
    assert nl.forward_transfer("1").tolist() == [[0.25 + 0j]]
    with pytest.raises(TypeError):
        nl.control_map["1"][0] = 5.0
    with pytest.raises(TypeError):
        nl.control_map["0"] = {0: 0.75}


# values a device or a control word may be handed: finite, infinite and nan
# floats, integers within and past the float range, and values of other types
_ANY_VALUE = st.one_of(
    st.floats(),
    st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, 1.0, 10**400, -(10**400)]),
    st.integers(-(2**70), 2**70),
    st.none(),
    st.text(max_size=3),
    st.complex_numbers(),
    st.booleans(),
)
_VALID_VALUE = {"PS": 0.5, "DC": 0.5, "BS": None, "ATT": 0.5, "AMP": 2.0}


def _built(*args, **kwargs):
    """(netlist, None) when Netlist(*args, **kwargs) builds, else (None, its ParamError's message)."""
    try:
        return Netlist(*args, **kwargs), None
    except ParamError as exc:
        return None, str(exc)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(DEVICE_KINDS)), _ANY_VALUE)
def test_device_and_control_word_values_obey_one_rule(kind, value):
    # a value is accepted as a device's own value exactly when a control word may set it
    wires = (0, 1)[:DEVICE_KINDS[kind].n_wires]
    own, own_fault = _built(2, [(kind, wires, value, "c0")], (0, 1), (0, 1))
    word, word_fault = _built(2, [(kind, wires, _VALID_VALUE[kind], "c0")], (0, 1), (0, 1), control_map={"1": {0: value}})
    assert (own_fault is None) == (word_fault is None), (own_fault, word_fault)
    if own_fault is None:
        assert word.forward_transfer("1").tobytes() == own.forward_transfer().tobytes()
    else:
        assert word_fault == f"control word '1' sets device 0: {own_fault}"


@pytest.mark.parametrize("word", [0, 1])
def test_controlled_gains_lie_in_their_domains_under_every_word(word, rng):
    # gain 3 under the target word, 1 under the identity: both words share a fixed
    # amplifier at 3 and set the attenuator after it to 1 and 1/3
    g = GateMatrix(random_unitary(rng) @ np.diag([3.0, 0.5]) @ random_unitary(rng))
    nl = lower_controlled_electrooptic(controlled(g, 1), np.eye(2)[word])
    tags = [KINDS[code] for code in nl.kinds.tolist()]
    for setting, values in nl.control_map.items():
        for idx, value in values.items():
            spec = DEVICE_KINDS[tags[idx]]
            assert spec.in_domain(value), (setting, idx, tags[idx], value)
    assert tags.count("AMP") == 1
    assert nl.control_map["1"][tags.index("AMP")] == nl.control_map["*"][tags.index("AMP")]
    assert np.max(np.abs(nl.forward_transfer("1") - g.entries)) < 1e-11
    assert np.max(np.abs(nl.forward_transfer("0") - np.eye(2))) < 1e-12


@pytest.mark.parametrize(
    "setting,error,message",
    [
        ([0.0, 1.0], DimError, "control setting needs dim 4, got 2"),
        ([1.0, 0.0, 0.0, 1.0], ControlEncodingError, "control setting is superposed"),
        ([0.0, 0.0, 0.0, 0.0], ControlEncodingError, "control setting has no unit-amplitude slot"),
        ([0.0, 0.5, 0.0, 0.0], ControlEncodingError, "control setting is not a computational basis state"),
    ],
    ids=["wrong-dim", "two-unit-slots", "no-unit-slot", "off-basis"],
)
def test_control_setting_must_be_one_basis_word(setting, error, message):
    with pytest.raises(error) as exc:
        lower_controlled_electrooptic(controlled(pauli(1), 2), setting)
    assert str(exc.value) == message


def test_control_setting_may_be_a_composite_state():
    nl = lower_controlled_electrooptic(controlled(pauli(1), 2), tensor_compose([AnbitState([0.0, 1.0])] * 2))
    assert nl.active_setting == "11"
    assert np.max(np.abs(nl.forward_transfer() - pauli(1).entries)) < 1e-12


def _fanout_to_two_sinks(fo):
    nodes = {"s": SourceNode(), "fo": fo, "t1": SinkNode(), "t2": SinkNode()}
    return CircuitGraph(nodes, ((("s", 0), ("fo", 0)), (("fo", 0), ("t1", 0)), (("fo", 1), ("t2", 0))))


@pytest.mark.parametrize(
    "graph,error,message",
    [
        (CircuitGraph({"s": SourceNode(), "g": GateMatrix(np.eye(3)), "t": SinkNode()},
                      ((("s", 0), ("g", 0)), (("g", 0), ("t", 0)))),
         DimError, "node 'g': netlist lowering carries dim-2 signals"),
    ],
    ids=["dim3-gate"],
)
def test_lower_circuit_rejects_nodes_without_a_netlist_form(graph, error, message):
    with pytest.raises(error) as exc:
        lower_circuit(graph)
    assert str(exc.value) == message


def _gate_chain(*entries) -> CircuitGraph:
    names = [f"g{k}" for k in range(len(entries))]
    nodes = {"s": SourceNode(), **{n: GateMatrix(m) for n, m in zip(names, entries)}, "t": SinkNode()}
    ends = ["s", *names, "t"]
    return CircuitGraph(nodes, tuple(((a, 0), (b, 0)) for a, b in zip(ends, ends[1:])))


def _wired_fanout_then(entries) -> CircuitGraph:
    nodes = {"s1": SourceNode(), "s2": SourceNode(), "fo": FanOutGate(1.0, 1.0), "g": GateMatrix(entries),
             "t1": SinkNode(), "t2": SinkNode()}
    edges = ((("s1", 0), ("fo", 0)), (("s2", 0), ("fo", 1)), (("fo", 0), ("g", 0)), (("g", 0), ("t1", 0)),
             (("fo", 1), ("t2", 0)))
    return CircuitGraph(nodes, edges)


_NON_UNITARY = [[2.0, 0.0], [0.0, 1.0]]
_NAN_GATE = [[np.nan, 0.0], [0.0, 1.0]]
_INF_GATE = [[np.inf, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize(
    "graph,arch,error,message",
    [
        (_gate_chain(_NON_UNITARY, np.eye(4)), "zxz", "ClassError", "node 'g0': Euler factorization needs a unitary gate"),
        (_gate_chain(np.eye(4), _NON_UNITARY), "zxz", "DimError", "node 'g0': netlist lowering carries dim-2 signals"),
        (_wired_fanout_then(_NON_UNITARY), "zxz", "GraphError", "node 'fo': fan-out with a wired ancilla does not lower"),
        (_gate_chain(_NON_UNITARY, _NAN_GATE), "zxz", "ClassError", "node 'g0': Euler factorization needs a unitary gate"),
        (_gate_chain(_NAN_GATE, _NON_UNITARY), "zxz", "ClassError", "node 'g0': gate entry (0, 0) is nan"),
        (_gate_chain(_NON_UNITARY, _NAN_GATE), "svd", "ParamError", "node 'g1': gate entry (0, 0) is nan"),
        (_gate_chain(_NON_UNITARY, _INF_GATE, _NAN_GATE), "svd", "ParamError", "node 'g1': gate entry (0, 0) is inf"),
        (_gate_chain(_NAN_GATE, np.eye(4)), "svd", "ParamError", "node 'g0': gate entry (0, 0) is nan"),
    ],
    ids=["non-unitary-before-dim4", "dim4-before-non-unitary", "wired-ancilla-before-non-unitary",
         "non-unitary-before-nan", "nan-before-non-unitary",
         "svd-nan-after-valid", "svd-inf-before-nan", "svd-nan-before-dim4"],
)
def test_lower_circuit_raises_the_first_fault_in_component_order(graph, arch, error, message):
    # the factor tables run before the gates are emitted; the fault a gate-by-gate
    # pass meets first is still the one raised, with its own type and text: the
    # door reads gate k + 1 only after the Euler table's unitarity test passed gate k
    with pytest.raises(Exception) as exc:
        lower_circuit(graph, arch)
    assert (type(exc.value).__name__, str(exc.value)) == (error, message)


@pytest.mark.parametrize(
    "arch,fault,message",
    [
        ("zxz", _NON_UNITARY, "ClassError: node 'g37': Euler factorization needs a unitary gate"),
        ("zyz", _NON_UNITARY, "ClassError: node 'g37': Euler factorization needs a unitary gate"),
        ("zxz", _NAN_GATE, "ClassError: node 'g37': gate entry (0, 0) is nan"),
        ("zxz", _INF_GATE, "ClassError: node 'g37': gate entry (0, 0) is inf"),
        ("zyz", _NAN_GATE, "ClassError: node 'g37': gate entry (0, 0) is nan"),
        ("zyz", _INF_GATE, "ClassError: node 'g37': gate entry (0, 0) is inf"),
        ("svd", _NAN_GATE, "ParamError: node 'g37': gate entry (0, 0) is nan"),
        ("svd", _INF_GATE, "ParamError: node 'g37': gate entry (0, 0) is inf"),
        ("pauli", _NAN_GATE, "ParamError: node 'g37': gate entry (0, 0) is nan"),
        ("pauli", _INF_GATE, "ParamError: node 'g37': gate entry (0, 0) is inf"),
    ],
    ids=["zxz-non-unitary", "zyz-non-unitary", "zxz-nan", "zxz-inf", "zyz-nan", "zyz-inf", "svd-nan", "svd-inf",
         "pauli-nan", "pauli-inf"],
)
def test_a_gate_fault_deep_in_a_chain_names_its_node(arch, fault, message, rng):
    # the factor table reports the index of the gate it refuses; lower_circuit names that gate's node
    entries = [random_unitary(rng) for _ in range(50)]
    entries[37] = fault
    with pytest.raises(Exception) as exc:
        lower_circuit(_gate_chain(*entries), arch)
    assert f"{type(exc.value).__name__}: {exc.value}" == message


def test_fanout_with_an_unwired_ancilla_lowers_whatever_its_m12_and_m22(rng):
    # m12 and m22 act on the ancilla input alone, which is null when unwired
    fo = FanOutGate(0.7, 1.3, m12=2.0 * np.eye(2), m22=[[1.0, 2j], [3.0, 4.0]])
    nodes = {"s": SourceNode(), "fo": fo, "g": GateMatrix(random_unitary(rng)), "t1": SinkNode(), "t2": SinkNode()}
    edges = ((("s", 0), ("fo", 0)), (("fo", 0), ("g", 0)), (("g", 0), ("t1", 0)), (("fo", 1), ("t2", 0)))
    graph = CircuitGraph(nodes, edges)
    for arch in ("zxz", "zyz", "svd", "pauli"):
        tf = lower_circuit(graph, arch=arch).forward_transfer()
        assert np.max(np.abs(tf - circuit_transfer(graph))) < 1e-11, arch


def test_pauli_lowering_of_dim3_gate_is_a_dim_error():
    with pytest.raises(DimError) as exc:
        lower_pauli_mgate(GateMatrix(np.eye(3)))
    assert str(exc.value) == "Pauli expansion is defined for dim 2"


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_two_wire_kinds_are_symmetric(data):
    # the backward pass applies each two-wire matrix as it is, which is its transpose only when m01 == m10
    for tag, spec in DEVICE_KINDS.items():
        if spec.n_wires == 2:
            value = data.draw(st.floats(allow_nan=False, allow_infinity=False).filter(spec.in_domain)) if spec.valued else None
            m00, m01, m10, m11 = spec.coefs(np.array([value], dtype=float))
            assert np.array_equal(m01, m10), (tag, value)


@pytest.mark.parametrize("setting", [1, True, 1.0, "", "a b"], ids=["int", "bool", "float", "empty", "spaced"])
@pytest.mark.parametrize("transfer", ["forward_transfer", "backward_transfer"])
def test_a_transfer_refuses_a_word_the_netlist_cannot_hold(setting, transfer):
    # such a setting names no word, so it is refused before the "*" fallback could run
    nl = Netlist(1, [("PS", (0,), 1.0, "c0")], (0,), (0,), control_map={"1": {0: 1.0}, "*": {0: 0.5}})
    with pytest.raises(ParamError) as exc:
        getattr(nl, transfer)(setting)
    assert str(exc.value) == f"control word {setting!r} must be a non-empty whitespace-free string"
    assert getattr(nl, transfer)("1")[0, 0] == complex(math.cos(1.0), math.sin(1.0))


def test_a_netlist_without_a_control_map_takes_no_control_word():
    with pytest.raises(ParamError) as exc:
        Netlist(2, [("PS", (0,), 0.5, None)], (0, 1), (0, 1)).forward_transfer("1")
    assert str(exc.value) == "netlist has no control map"
