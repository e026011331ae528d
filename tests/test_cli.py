import argparse
import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anbit
from anbit import (
    AnbitState,
    FanInGate,
    GateMatrix,
    Netlist,
    RotationSpec,
    identity_gate,
    lower_fanin,
    lower_unitary_zxz,
    mostow_synthesize,
    pauli,
    rotation_matrix,
    to_bloch,
)
from anbit import cli, lowering
from anbit.cli import MAX_STEPS, emit_trajectory, main
from anbit.errors import AnbitError, DegenerateStateError, DimError, ParamError
from anbit.serialization import (
    circuit_from_obj,
    circuit_to_obj,
    dumps,
    fmt_float,
    gate_to_obj,
    netlist_to_text,
    state_from_obj,
    state_to_obj,
)

from conftest import random_matrix, random_state_vec, random_unitary
from test_gate_door import _PAULI_MESSAGE
from test_lowering import _gate_chain


def write_json(path, obj):
    path.write_text(dumps(obj))
    return str(path)


def run_cli(capsys, argv):
    rc = main(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def basic_circuit(rng):
    u = random_unitary(rng)
    return {
        "nodes": [
            {"id": "s", "kind": "source", "params": {}},
            {"id": "g", "kind": "gate", "params": gate_to_obj(GateMatrix(u))},
            {"id": "t", "kind": "sink", "params": {}},
        ],
        "edges": [
            {"from": ["s", 0], "to": ["g", 0]},
            {"from": ["g", 0], "to": ["t", 0]},
        ],
        "sources": ["s"],
        "sinks": ["t"],
    }, u


def test_simulate_json(tmp_path, capsys, rng):
    circ, u = basic_circuit(rng)
    cpath = write_json(tmp_path / "c.json", circ)
    s = AnbitState(random_state_vec(rng))
    spath = write_json(tmp_path / "s.json", state_to_obj(s))
    rc, out, err = run_cli(capsys, ["simulate", cpath, "--input", spath])
    assert rc == 0 and err == ""
    got = json.loads(out)["outputs"]["t"]
    amps = np.array([complex(r, i) for r, i in got["amps"]])
    assert np.max(np.abs(amps - u @ s.amps)) < 1e-14


def test_simulate_csv_and_out_file(tmp_path, capsys, rng):
    circ, u = basic_circuit(rng)
    cpath = write_json(tmp_path / "c.json", circ)
    s = AnbitState([1.0, 0.0])
    spath = write_json(tmp_path / "s.json", state_to_obj(s))
    opath = tmp_path / "result.csv"
    rc, out, _ = run_cli(
        capsys,
        ["simulate", cpath, "--input", spath, "--format", "csv", "--out", str(opath)],
    )
    assert rc == 0
    assert out == ""  # routed to the file instead
    lines = opath.read_text().splitlines()
    assert lines[0] == "sink,index,re,im"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert row[0] == "t" and row[1] == "0"
    assert float(row[2]) == pytest.approx(u[0, 0].real)


def test_simulate_csv_of_a_circuit_without_sinks_is_its_header(tmp_path, capsys):
    circ = {
        "nodes": [{"id": "s", "kind": "source", "params": {}}, {"id": "g", "kind": "gate", "params": gate_to_obj(pauli(1))}],
        "edges": [{"from": ["s", 0], "to": ["g", 0]}],
        "sources": ["s"],
        "sinks": [],
    }
    cpath, spath = write_json(tmp_path / "c.json", circ), write_json(tmp_path / "s.json", _GOOD_STATE)
    assert run_cli(capsys, ["simulate", cpath, "--input", spath, "--format", "csv"]) == (0, "sink,index,re,im\n", "")
    assert run_cli(capsys, ["simulate", cpath, "--input", spath]) == (0, '{"outputs": {}}\n', "")


def test_simulate_out_to_unwritable_path(tmp_path, capsys, rng):
    circ, _ = basic_circuit(rng)
    cpath = write_json(tmp_path / "c.json", circ)
    spath = write_json(tmp_path / "s.json", state_to_obj(AnbitState([1.0, 0.0])))
    opath = tmp_path / "missing" / "x.json"
    rc, out, err = run_cli(capsys, ["simulate", cpath, "--input", spath, "--out", str(opath)])
    assert rc == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "FileNotFoundError" and payload["exit_code"] == 2
    assert not opath.exists()


def test_simulate_source_mapping(tmp_path, capsys, rng):
    circ, u = basic_circuit(rng)
    cpath = write_json(tmp_path / "c.json", circ)
    s = AnbitState([0.0, 1.0])
    spath = write_json(tmp_path / "s.json", {"s": state_to_obj(s)})
    rc, out, _ = run_cli(capsys, ["simulate", cpath, "--input", spath])
    assert rc == 0
    amps = json.loads(out)["outputs"]["t"]["amps"]
    assert complex(*amps[0]) == pytest.approx(u[0, 1])


def test_simulate_byte_identical_rerun(tmp_path, capsys, rng):
    circ, _ = basic_circuit(rng)
    cpath = write_json(tmp_path / "c.json", circ)
    spath = write_json(tmp_path / "s.json", state_to_obj(AnbitState([0.5, 0.5j])))
    rc1, out1, _ = run_cli(capsys, ["simulate", cpath, "--input", spath])
    rc2, out2, _ = run_cli(capsys, ["simulate", cpath, "--input", spath])
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_decompose_euler(tmp_path, capsys):
    gpath = write_json(tmp_path / "g.json", gate_to_obj(pauli(1)))
    rc, out, _ = run_cli(capsys, ["decompose", gpath, "--method", "euler-zxz"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["method"] == "euler-zxz"
    names = [f["name"] for f in obj["factors"]]
    assert names == ["delta", "alpha1", "alpha2", "alpha3"]
    vals = {f["name"]: f["value"] for f in obj["factors"]}
    assert vals["delta"] == pytest.approx(np.pi / 2.0)
    assert vals["alpha2"] == pytest.approx(np.pi)
    assert obj["reconstruction_error"] < 1e-12


def test_decompose_svd_and_pauli(tmp_path, capsys, rng):
    g = GateMatrix([[1.0, 2.0], [3.0j, 4.0]])
    gpath = write_json(tmp_path / "g.json", gate_to_obj(g))
    for method in ("svd", "pauli"):
        rc, out, _ = run_cli(capsys, ["decompose", gpath, "--method", method])
        assert rc == 0
        obj = json.loads(out)
        assert obj["reconstruction_error"] < 1e-12
    rc, out, _ = run_cli(capsys, ["decompose", gpath, "--method", "pauli"])
    vals = {f["name"]: f["value"] for f in json.loads(out)["factors"]}
    assert vals["alpha0"] == pytest.approx([2.5, 0.0])
    assert vals["alpha3"] == pytest.approx([-1.5, 0.0])


def test_decompose_svd_of_a_gate_near_the_float_limit(tmp_path):
    # the difference it measures is finite (largest entry about 2e292), its sum of squares is not
    path = write_json(tmp_path / "g.json", {"entries": [[[1e308, 0], [1e308, 0]], [[0, 0], [1, 0]]]})
    rc, out, err = cli.run(["decompose", path, "--method", "svd"])
    assert (rc, err) == (0, "")
    obj = json.loads(out)
    d1 = {f["name"]: f.get("value") for f in obj["factors"]}["d1"]
    assert d1 == pytest.approx(np.sqrt(2.0) * 1e308, rel=1e-15)
    assert 0.0 < obj["reconstruction_error"] < 1e-14 * d1


def test_pauli_of_a_gate_near_the_float_limit(tmp_path):
    # 1.7e308 * I: a sum of two diagonal entries before halving would pass the float range
    path = write_json(tmp_path / "g.json", {"entries": [[[1.7e308, 0], [0, 0]], [[0, 0], [1.7e308, 0]]]})
    rc, out, err = cli.run(["decompose", path, "--method", "pauli"])
    assert (rc, err) == (0, "")
    alphas = {f["name"]: f["value"] for f in json.loads(out)["factors"]}
    assert alphas == {"alpha0": [1.7e308, 0.0], "alpha1": [0.0, 0.0], "alpha2": [0.0, 0.0], "alpha3": [0.0, 0.0]}
    # alpha0 is above max float / sqrt2: its netlist's transfer would overflow, so lower refuses it
    rc, out, err = cli.run(["lower", path, "--arch", "pauli"])
    assert (rc, out) == (2, "")
    assert json.loads(err) == {"error": "ParamError", "message": _PAULI_MESSAGE, "exit_code": 2}


def test_decompose_mostow_synth(tmp_path, capsys):
    spec = {
        "unitary": gate_to_obj(identity_gate()),
        "antisymmetric_param": 0.5,
        "symmetric": [[0.25, 0.1], [0.1, -0.3]],
    }
    path = write_json(tmp_path / "m.json", spec)
    rc, out, _ = run_cli(capsys, ["decompose", path, "--method", "mostow-synth"])
    assert rc == 0
    obj = json.loads(out)
    assert [f["name"] for f in obj["factors"]] == [
        "u_u1",
        "lam1",
        "u1_dag_u2",
        "lam2",
        "u2_dag",
    ]
    assert obj["reconstruction_error"] < 1e-12


_MOSTOW_B = [[0.25, 0.1], [0.1, -0.3]]


def test_lower_mostow_then_analyze(tmp_path, capsys, rng):
    u = GateMatrix(random_unitary(rng))
    spec = {"unitary": gate_to_obj(u), "antisymmetric_param": 0.4, "symmetric": _MOSTOW_B}
    rc, out, _ = run_cli(capsys, ["lower", write_json(tmp_path / "m.json", spec), "--arch", "mostow"])
    assert rc == 0
    net = tmp_path / "m.netlist"
    net.write_text(out)
    rc, out, _ = run_cli(capsys, ["analyze", str(net)])
    assert rc == 0
    s = np.array([[complex(*pair) for pair in row] for row in json.loads(out)["s_matrix"]])
    want = mostow_synthesize(u, 0.4, np.array(_MOSTOW_B)).target().entries
    assert np.max(np.abs(s[2:, :2] - want)) < 1e-12


@pytest.mark.parametrize(
    "argv", [["lower", "--arch", "mostow"], ["decompose", "--method", "mostow-synth"]], ids=["lower", "decompose"]
)
@pytest.mark.parametrize(
    "fields,error,message",
    [
        ({"unitary": None}, "ValueError", None),
        ({"symmetric": None}, "ValueError", None),
        ({"symmetric": [[float("nan"), 0.1], [0.1, -0.3]]}, "ParamError", "b_matrix must be finite"),
        ({"symmetric": [[0.25, float("inf")], [float("inf"), -0.3]]}, "ParamError", "b_matrix must be finite"),
        ({"antisymmetric_param": 800.0}, "ParamError", "antisymmetric parameter 800.0 overflows its exponential"),
        ({"symmetric": [[800.0, 0.0], [0.0, -0.3]]}, "ParamError", "b_matrix eigenvalue 800.0 overflows its exponential"),
        ({"antisymmetric_param": 10**400}, "ValueError", "synthesis input: int too large to convert to float"),
        ({"symmetric": [[0.25, 10**400], [0.1, -0.3]]}, "ValueError", "synthesis input: int too large to convert to float"),
        ({"symmetric": [[0.25, 0.1, 0.0], [0.1, -0.3, 0.0], [0.0, 0.0, 1.0]]}, "DimError", "b_matrix must be 2x2"),
    ],
    ids=["no-unitary", "no-symmetric", "b-nan", "b-infinity", "a-overflow", "b-eigenvalue-overflow",
         "a-integer-past-float-range", "b-integer-past-float-range", "b-3x3"],
)
def test_mostow_rejects_malformed_spec(tmp_path, capsys, argv, fields, error, message):
    spec = {"unitary": gate_to_obj(identity_gate()), "antisymmetric_param": 0.4, "symmetric": _MOSTOW_B}
    spec.update(fields)
    spec = {key: value for key, value in spec.items() if value is not None}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(spec))  # NaN and Infinity literals, which json.loads accepts
    rc, out, err = run_cli(capsys, [argv[0], str(path), *argv[1:]])
    assert rc == (4 if error == "DimError" else 2) and out == ""
    payload = json.loads(err)
    assert payload["error"] == error
    if message is not None:
        assert payload["message"] == message


def test_decompose_euler_rejects_nonunitary(tmp_path, capsys):
    gpath = write_json(tmp_path / "g.json", gate_to_obj(GateMatrix([[2.0, 0.0], [0.0, 1.0]])))
    rc, out, err = run_cli(capsys, ["decompose", gpath, "--method", "euler-zxz"])
    assert rc == 4
    assert json.loads(err)["exit_code"] == 4


def test_lower_gate_archs(tmp_path, capsys, rng):
    u = GateMatrix(random_unitary(rng))
    gpath = write_json(tmp_path / "g.json", gate_to_obj(u))
    for arch, count in (("zxz", 7), ("zyz", 11), ("svd", 16), ("pauli", 96)):
        rc, out, _ = run_cli(capsys, ["lower", gpath, "--arch", arch])
        assert rc == 0
        from anbit.serialization import netlist_from_text

        nl = netlist_from_text(out)
        assert len(nl.devices) == count
        assert np.max(np.abs(nl.forward_transfer() - u.entries)) < 1e-10


def test_lower_fanin_arch(tmp_path, capsys):
    path = write_json(tmp_path / "fi.json", {"n": [1.0, 0.0], "m": [0.5, 0.0]})
    rc, out, _ = run_cli(capsys, ["lower", path, "--arch", "fanin"])
    assert rc == 0
    from anbit.serialization import netlist_from_text

    nl = netlist_from_text(out)
    assert len(nl.devices) == 12
    assert nl.wires == 4


@pytest.mark.parametrize(
    "obj,n,m",
    [({}, 1.0, 1.0), ({"n": [0.5, 0]}, 0.5, 1.0), ({"m": [0.0, 2.0]}, 1.0, 2j)],
    ids=["no-fields", "n-only", "m-only"],
)
def test_lower_fanin_reads_n_and_m_as_a_circuit_fanin_node_does(tmp_path, capsys, obj, n, m):
    # each of n and m defaults to [1, 0], as in a circuit's fan-in node
    path = write_json(tmp_path / "fi.json", obj)
    assert run_cli(capsys, ["lower", path, "--arch", "fanin"]) == (0, netlist_to_text(lower_fanin(FanInGate(n, m))), "")
    circuit = json.loads(json.dumps(_TWO_SOURCE_CIRCUIT))
    circuit["nodes"][2]["params"] = obj  # the fan-in node "f"
    node = circuit_from_obj(circuit).nodes["f"]
    assert (node.n, node.m) == (n, m)


def _fan_circuit(kind, params):
    """A fan-in node 'fi' fed by two sources, or a fan-out node 'fo' fed by one, its two outputs to sinks."""
    nid, sources = ("fi", ["s1", "s2"]) if kind == "fanin" else ("fo", ["s1"])
    return {
        "nodes": [*({"id": s, "kind": "source"} for s in sources), {"id": nid, "kind": kind, "params": params},
                  {"id": "t1", "kind": "sink"}, {"id": "t2", "kind": "sink"}],
        "edges": [*({"from": [s, 0], "to": [nid, k]} for k, s in enumerate(sources)),
                  {"from": [nid, 0], "to": ["t1", 0]}, {"from": [nid, 1], "to": ["t2", 0]}],
        "sources": sources,
        "sinks": ["t1", "t2"],
    }


def _fan_message(name, w):
    return f"fan weight {name} = {w} needs |{name}| at most max float / sqrt2, for a finite gain sqrt2 |{name}|"


_FAN_OVERFLOW = _fan_message("n", "(1.5e+308+0j)")


@pytest.mark.parametrize(
    "arch,obj,message",
    [
        ("zxz", _fan_circuit("fanin", {"n": [1.5e308, 0], "m": [1, 0]}), f"node 'fi': {_FAN_OVERFLOW}"),
        ("svd", _fan_circuit("fanout", {"n": 1.5e308, "m": 1}), f"node 'fo': {_FAN_OVERFLOW}"),
        ("fanin", {"n": [1.5e308, 0], "m": [1, 0]}, _FAN_OVERFLOW),
        ("zxz", _fan_circuit("fanin", {"n": [math.nan, 0]}), f"node 'fi': {_fan_message('n', '(nan+0j)')}"),
        ("pauli", _fan_circuit("fanout", {"m": 1.3e308}), f"node 'fo': {_fan_message('m', '(1.3e+308+0j)')}"),
        ("zxz", _fan_circuit("fanin", {"n": [1.5e308, 1.5e308]}),
         f"node 'fi': {_fan_message('n', '(1.5e+308+1.5e+308j)')}"),
    ],
    ids=["fanin-n-1.5e308", "fanout-n-1.5e308", "arch-fanin-n-1.5e308", "fanin-n-nan", "fanout-m-1.3e308",
         "fanin-n-magnitude-past-the-float-range"],
)
def test_lower_names_the_fan_node_whose_weight_gain_is_past_the_float_range(tmp_path, arch, obj, message):
    # the sum block's gain is sqrt2 |w|, so a weight above max float / sqrt2 (or nan) has no device value
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))  # json writes nan as NaN, which the CLI reads back
    rc, out, err = cli.run(["lower", str(path), "--arch", arch])
    assert (rc, out) == (2, "")
    assert err.splitlines() == [json.dumps({"error": "ParamError", "message": message, "exit_code": 2})]


def test_lower_circuit_json(tmp_path, capsys, rng):
    circ, u = basic_circuit(rng)
    cpath = write_json(tmp_path / "c.json", circ)
    rc, out, _ = run_cli(capsys, ["lower", cpath, "--arch", "zxz"])
    assert rc == 0
    from anbit.serialization import netlist_from_text

    nl = netlist_from_text(out)
    assert np.max(np.abs(nl.forward_transfer() - u)) < 1e-10


def test_lower_names_the_node_of_a_gate_fault_deep_in_a_chain(tmp_path, rng):
    entries = [random_unitary(rng) for _ in range(50)]
    entries[37] = [[2.0, 0.0], [0.0, 1.0]]  # non-unitary
    cpath = write_json(tmp_path / "c.json", circuit_to_obj(_gate_chain(*entries)))
    rc, out, err = cli.run(["lower", cpath, "--arch", "zxz"])
    assert (rc, out) == (4, "")
    assert json.loads(err) == {"error": "ClassError", "message": "node 'g37': Euler factorization needs a unitary gate",
                               "exit_code": 4}


def test_analyze(tmp_path, capsys, rng):
    nl = lower_unitary_zxz(GateMatrix(random_unitary(rng)))
    path = tmp_path / "n.txt"
    path.write_text(netlist_to_text(nl))
    rc, out, _ = run_cli(capsys, ["analyze", str(path)])
    assert rc == 0
    obj = json.loads(out)
    assert obj["reciprocal"] is True
    assert isinstance(obj["fb_symmetric"], bool)
    s = np.array([[complex(*pair) for pair in row] for row in obj["s_matrix"]])
    assert np.max(np.abs(s - s.T)) < 1e-12


def test_analyze_walks_the_netlist_once_each_way(tmp_path, capsys, monkeypatch, rng):
    calls = Counter()
    for name in ("forward_transfer", "backward_transfer"):
        def counted(self, *args, _original=getattr(Netlist, name), _name=name):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(Netlist, name, counted)
    path = tmp_path / "n.txt"
    path.write_text(netlist_to_text(lower_unitary_zxz(GateMatrix(random_unitary(rng)))))
    rc, _, _ = run_cli(capsys, ["analyze", str(path)])
    assert rc == 0
    assert calls == {"forward_transfer": 1}


def test_analyze_refuses_a_wire_count_past_the_cap(tmp_path, capsys):
    # refused before any per-wire storage: the peak stays far below the ~140 bytes a wire a transfer holds
    cap = lowering.MAX_WIRES
    path = tmp_path / "wide.netlist"
    path.write_text(f"WIRES {cap + 1}\nIN 0\nOUT 0\n")
    tracemalloc.start()
    try:
        rc, out, err = run_cli(capsys, ["analyze", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2 and out == ""
    message = f"netlist wire count must be at most {cap}, got {cap + 1}"
    assert json.loads(err) == {"error": "ParamError", "message": message, "exit_code": 2}
    assert peak < 2**20
    path.write_text(f"WIRES {cap}\nIN 0\nOUT 0\n")
    rc, out, _ = run_cli(capsys, ["analyze", str(path)])
    assert rc == 0 and json.loads(out)["s_matrix"] == [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]


@pytest.mark.parametrize(
    "body,message",
    [
        ("WIRES 2\nIN 0 5\nOUT 0 1\n", None),
        ("WIRES 2\nIN -1 1\nOUT 0 1\n", None),
        ("WIRES 2\nIN 0 1\nOUT 0 1\nDC 0 0 0.7\n", None),
        ("WIRES 2\nIN 0 1\nOUT 0 1\nPS 0 1 0.5\n", None),
        ("WIRES 2\nIN 0 1\nOUT 0 1\nBS 0 1 0.3\n", None),
        ("WIRES 2\nIN 0 1\nOUT 0 1\nPS 0 0.5 @c0\nCTRL 1 99=2.0\nCTRL * 0=0.5\n", None),
        ("WIRES 2\nIN 0 1\nOUT 0 1\nPS 0 0.5 @c0\nACTIVE 0\nCTRL 1 0=0.5\n", None),
        ("WIRES 2\nIN\nOUT 0 1\n", "netlist has no input ports"),
        ("WIRES 2\nIN 0 1\nOUT \n", "netlist has no output ports"),
        # a device row or control word the netlist refuses names its line
        ("WIRES 2\nIN 0 1\nOUT 0 1\nPS 0 inf\n", "line 4: PS value must be finite, got inf"),
        ("WIRES 2\nIN 0 1\nOUT 0 1\nPS 0 nan\n", "line 4: PS value must be finite, got nan"),
        ("WIRES 2\nIN 0 1\nOUT 0 1\nDC 0 1 inf\n", "line 4: DC value must be finite, got inf"),
        ("WIRES 2\nIN 0 1\nOUT 0 1\nAMP 0 inf\n", "line 4: AMP value must be finite, got inf"),
        ("WIRES 2\nIN 0 1\nOUT 0 1\nPS 0 0.5\n\nATT 1 1.5\n", "line 6: attenuator gain must be in [0, 1], got 1.5"),
        ("WIRES 2\nIN 0 1\nOUT 0 1\n# a comment\nDC 0 5 0.3\n", "line 5: device wire 5 outside 0..1"),
        (
            "WIRES 2\nIN 0 1\nOUT 0 1\nPS 0 0.5 @c0\nCTRL 1 0=nan\nCTRL * 0=0.5\n",
            "line 5: control word '1' sets device 0: PS value must be finite, got nan",
        ),
        # a control word may not turn an attenuator into a gain of 5
        (
            "WIRES 1\nIN 0\nOUT 0\nATT 0 0.5 @c0\nCTRL 1 0=5.0\nCTRL * 0=0.5\n",
            "line 5: control word '1' sets device 0: attenuator gain must be in [0, 1], got 5.0",
        ),
        (
            "WIRES 2\nIN 0 1\nOUT 0 1\nPS 0 0.5 @c0\nATT 1 0.5 @c1\nCTRL * 0=0.5\nCTRL 1 1=7.5\n",
            "line 7: control word '1' sets device 1: attenuator gain must be in [0, 1], got 7.5",
        ),
        # a fault of the active word names the word's CTRL line, else the ACTIVE line
        (
            "WIRES 1\nIN 0\nOUT 0\nPS 0 0.5 @c0\nACTIVE 1\nCTRL 1 0=0.25\n",
            "line 6: active control word '1' sets device 0 to 0.25, but the device carries 0.5",
        ),
        (
            "WIRES 1\nIN 0\nOUT 0\nPS 0 0.5 @c0\nCTRL 1 0=0.25\nACTIVE 1\n",
            "line 5: active control word '1' sets device 0 to 0.25, but the device carries 0.5",
        ),
        (
            "WIRES 2\nIN 0 1\nOUT 0 1\nPS 0 0.5 @c0\n\n# the words\nCTRL 1 0=nan\nCTRL * 0=0.5\n",
            "line 7: control word '1' sets device 0: PS value must be finite, got nan",
        ),
        ("WIRES 1\nIN 0\nOUT 0\nPS 0 0.5\nACTIVE 1\n", "line 5: netlist has no control map"),
        # one fault deep in a long netlist: its 703rd device is on line 706
        (
            "WIRES 2\nIN 0 1\nOUT 0 1\n" + "PS 0 0.5\nDC 0 1 0.25\n" * 351 + "ATT 1 1.5\n" + "BS 0 1\n" * 300,
            "line 706: attenuator gain must be in [0, 1], got 1.5",
        ),
        # a circuit without sources or sinks: lowering it fails before any netlist is written
        ('{"nodes": [], "edges": []}', "netlist has no input ports"),
    ],
    ids=[
        "port-past-last-wire",
        "negative-port",
        "coupler-on-one-wire",
        "ps-extra-field",
        "bs-with-value",
        "ctrl-device-past-last",
        "ctrl-word-unmatched-without-star",
        "no-input-ports",
        "no-output-ports",
        "ps-inf",
        "ps-nan",
        "dc-inf",
        "amp-inf",
        "att-gain-after-a-blank-line",
        "dc-wire-after-a-comment",
        "ctrl-nan",
        "ctrl-att-gain",
        "ctrl-att-gain-on-device-1",
        "active-word-disagrees",
        "active-word-disagrees-ctrl-first",
        "ctrl-nan-after-a-blank-and-a-comment",
        "active-word-without-ctrl",
        "deep-fault",
        "lowered-empty-circuit",
    ],
)
def test_analyze_rejects_malformed_netlist(tmp_path, capsys, body, message):
    path = tmp_path / "bad.netlist"
    path.write_text(body)
    argv = ["lower", str(path), "--arch", "zxz"] if body.startswith("{") else ["analyze", str(path)]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 2 and out == ""
    payload = json.loads(err)
    assert payload["exit_code"] == 2
    assert payload["error"] in ("ParamError", "ValueError")
    if message is not None:
        assert payload["error"] == "ParamError" and payload["message"] == message


_GOOD_ENTRIES = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
_GOOD_STATE = {"amps": [[1.0, 0.0], [0.0, 0.0]]}


def _circuit_with(node):
    return {
        "nodes": [{"id": "s", "kind": "source", "params": {}}, node, {"id": "t", "kind": "sink", "params": {}}],
        "edges": [{"from": ["s", 0], "to": [node["id"], 0]}, {"from": [node["id"], 0], "to": ["t", 0]}],
        "sources": ["s"],
        "sinks": ["t"],
    }


_GOOD_CIRCUIT = _circuit_with({"id": "g", "kind": "gate", "params": {"entries": _GOOD_ENTRIES}})


def _fanout_circuit(params):
    c = _circuit_with({"id": "f", "kind": "fanout", "params": params})
    c["nodes"].append({"id": "d", "kind": "sink", "params": {}})
    c["edges"].append({"from": ["f", 1], "to": ["d", 0]})
    c["sinks"].append("d")
    return c


_NULL_PORT_CIRCUIT = dict(_GOOD_CIRCUIT, edges=[{"from": ["s", None], "to": ["g", 0]}, _GOOD_CIRCUIT["edges"][1]])


@pytest.mark.parametrize(
    "command,target,input_state,error",
    [
        ("decompose", {"entries": [[[None, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}, None, "ValueError"),
        ("decompose", {"entries": [[[{}, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}, None, "ValueError"),
        ("decompose", {"entries": [1.0, 2.0]}, None, "ValueError"),
        ("decompose", {"dim": None, "entries": _GOOD_ENTRIES}, None, "ValueError"),
        ("measure", {"amps": [[None, 0.0], [1.0, 0.0]]}, None, "ValueError"),
        ("measure", {"amps": 5}, None, "ValueError"),
        ("simulate", _GOOD_CIRCUIT, {"amps": [[{}, 0.0], [1.0, 0.0]]}, "ValueError"),
        ("simulate", _circuit_with({"id": "g", "kind": "gate", "params": {"entries": [[[None, 0.0]]]}}), _GOOD_STATE, "ValueError"),
        ("simulate", _circuit_with({"id": "f", "kind": "fanin", "params": {"n": [None, 0.0]}}), _GOOD_STATE, "ValueError"),
        ("simulate", _fanout_circuit({"n": None}), _GOOD_STATE, "ValueError"),
        ("simulate", _fanout_circuit([]), _GOOD_STATE, "ValueError"),
        ("simulate", _fanout_circuit({"m12": 5}), _GOOD_STATE, "ValueError"),
        ("simulate", _fanout_circuit({"m12": [5, 6]}), _GOOD_STATE, "ValueError"),
        ("simulate", _NULL_PORT_CIRCUIT, _GOOD_STATE, "GraphError"),
        ("simulate", dict(_GOOD_CIRCUIT, nodes=5), _GOOD_STATE, "ValueError"),
        ("simulate", dict(_GOOD_CIRCUIT, sources=5), _GOOD_STATE, "ValueError"),
        ("simulate", _GOOD_CIRCUIT, dict(_GOOD_STATE, delta_t={}), "ValueError"),
        ("trajectory", {"state": _GOOD_STATE, "axis": 5}, None, "ValueError"),
        ("trajectory", {"state": _GOOD_STATE, "axis": [0, 0, 1], "steps": None}, None, "ValueError"),
        ("trajectory", {"state": _GOOD_STATE, "kind": "diagonal", "d1": "x", "d2": 1.0}, None, "ValueError"),
        ("lower", {"n": [1.0, 2.0, 3.0], "m": [1.0, 0.0]}, None, "ValueError"),
    ],
    ids=[
        "gate-null-re",
        "gate-object-re",
        "gate-row-not-a-list",
        "gate-dim-null",
        "state-null-re",
        "state-amps-not-a-list",
        "input-state-object-re",
        "circuit-gate-null-re",
        "circuit-fanin-null-re",
        "circuit-fanout-null-n",
        "circuit-fanout-params-list",
        "circuit-fanout-m12-number",
        "circuit-fanout-m12-flat-list",
        "circuit-edge-port-null",
        "circuit-nodes-not-a-list",
        "circuit-sources-not-a-list",
        "state-delta-t-object",
        "trajectory-axis-number",
        "trajectory-steps-null",
        "trajectory-diagonal-d1-string",
        "fanin-n-three-numbers",
    ],
)
def test_json_inputs_reject_malformed_values(tmp_path, capsys, command, target, input_state, error):
    tpath = tmp_path / "target.json"
    tpath.write_text(json.dumps(target))
    argv = {
        "decompose": ["decompose", str(tpath), "--method", "svd"],
        "measure": ["measure", str(tpath), "--kind", "coherent", "--responsivity", "1"],
        "simulate": ["simulate", str(tpath), "--input", str(tmp_path / "in.json")],
        "trajectory": ["trajectory", str(tpath)],
        "lower": ["lower", str(tpath), "--arch", "fanin"],
    }[command]
    if input_state is not None:
        (tmp_path / "in.json").write_text(json.dumps(input_state))
    rc, out, err = run_cli(capsys, argv)
    assert rc == 2 and out == ""
    payload = json.loads(err)
    assert payload["exit_code"] == 2 and payload["error"] == error


_EYE4_GATE = {"entries": [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]}

_TWO_SOURCE_CIRCUIT = {
    "nodes": [{"id": n, "kind": k} for n, k in (("s1", "source"), ("s2", "source"), ("f", "fanin"), ("t1", "sink"), ("t2", "sink"))],
    "edges": [
        {"from": ["s1", 0], "to": ["f", 0]},
        {"from": ["s2", 0], "to": ["f", 1]},
        {"from": ["f", 0], "to": ["t1", 0]},
        {"from": ["f", 1], "to": ["t2", 0]},
    ],
    "sources": ["s1", "s2"],
    "sinks": ["t1", "t2"],
}


@pytest.mark.parametrize(
    "command,target,input_state,error,message",
    [
        ("decompose", {"dim": 2}, None, "ValueError", "gate object needs an 'entries' field"),
        ("measure", {"dim": 2}, None, "ValueError", "state object needs an 'amps' field"),
        ("simulate", dict(_GOOD_CIRCUIT, nodes=[{"id": "s", "kind": "source"}, {"id": "s", "kind": "sink"}]),
         _GOOD_STATE, "ValueError", "duplicate node id 's'"),
        ("simulate", _circuit_with({"id": "m", "kind": "mirror"}), _GOOD_STATE, "ValueError", "unknown node kind 'mirror'"),
        ("simulate", dict(_GOOD_CIRCUIT, nodes=[{"kind": "source"}]), _GOOD_STATE, "ValueError", "node spec: 'id'"),
        ("simulate", dict(_GOOD_CIRCUIT, nodes=[5]), _GOOD_STATE, "ValueError", "node spec: 'int' object is not subscriptable"),
        ("simulate", dict(_GOOD_CIRCUIT, edges=[{"from": ["s", 0]}]), _GOOD_STATE, "ValueError", "edge spec: 'to'"),
        ("simulate", dict(_GOOD_CIRCUIT, edges=[{"from": ["s", 0, 1], "to": ["g", 0]}]), _GOOD_STATE,
         "GraphError", "edge (['s', 0, 1], ['g', 0]) is not two (node, integer port) ends"),
        ("simulate", _TWO_SOURCE_CIRCUIT, _GOOD_STATE, "ValueError", "single input state but circuit has 2 sources"),
        ("simulate", _GOOD_CIRCUIT, [_GOOD_STATE], "ValueError", "input must be a state object or a source-to-state mapping"),
        ("trajectory", {"axis": [0, 0, 1]}, None, "ValueError", "sweep spec needs a 'state' field"),
        ("trajectory", {"state": _GOOD_STATE, "kind": "spiral"}, None, "ValueError", "unknown sweep kind 'spiral'"),
        ("trajectory", {"state": _GOOD_STATE, "start": 0.5}, None, "ValueError", "sweep spec needs a 'axis' field"),
        ("trajectory", {"state": _GOOD_STATE, "kind": "diagonal", "d2": 1.0}, None,
         "ValueError", "sweep spec needs a 'd1' field"),
        ("trajectory", {"state": _GOOD_STATE, "kind": "diagonal", "d1": [1.0, 0.5]}, None,
         "ValueError", "sweep spec needs a 'd2' field"),
        ("trajectory", {"state": _GOOD_STATE, "axis": [0, 0, 1], "steps": 2.5}, None,
         "ValueError", "steps: 'float' object cannot be interpreted as an integer"),
        ("lower", [[1.0, 0.0], [1.0, 0.0]], None, "ValueError", "fan-in input needs complex 'n' and 'm' pairs"),
        ("lower-zxz", _EYE4_GATE, None, "DimError", "Euler factorization is defined for dim 2"),
        ("lower-zyz", _EYE4_GATE, None, "DimError", "Euler factorization is defined for dim 2"),
        ("lower-svd", _EYE4_GATE, None, "DimError", "svd2 is defined for dim 2"),
        ("lower-pauli", _EYE4_GATE, None, "DimError", "Pauli expansion is defined for dim 2"),
    ],
    ids=[
        "gate-no-entries",
        "state-no-amps",
        "circuit-duplicate-id",
        "circuit-unknown-kind",
        "circuit-node-without-id",
        "circuit-node-not-an-object",
        "circuit-edge-without-to",
        "circuit-edge-end-triple",
        "simulate-one-state-two-sources",
        "simulate-input-list",
        "trajectory-no-state",
        "trajectory-unknown-kind",
        "trajectory-rotation-no-axis",
        "trajectory-diagonal-no-d1",
        "trajectory-diagonal-no-d2",
        "trajectory-fractional-steps",
        "fanin-not-an-object",
        "zxz-dim4-gate",
        "zyz-dim4-gate",
        "svd-dim4-gate",
        "pauli-dim4-gate",
    ],
)
def test_json_inputs_name_their_fault(tmp_path, capsys, command, target, input_state, error, message):
    tpath = write_json(tmp_path / "target.json", target)
    argv = {
        "decompose": ["decompose", tpath, "--method", "svd"],
        "measure": ["measure", tpath, "--kind", "coherent", "--responsivity", "1"],
        "simulate": ["simulate", tpath, "--input", str(tmp_path / "in.json")],
        "trajectory": ["trajectory", tpath],
        "lower": ["lower", tpath, "--arch", "fanin"],
        **{f"lower-{arch}": ["lower", tpath, "--arch", arch] for arch in ("zxz", "zyz", "svd", "pauli")},
    }[command]
    if input_state is not None:
        write_json(tmp_path / "in.json", input_state)
    rc, out, err = run_cli(capsys, argv)
    code = 4 if error == "DimError" else 2
    assert rc == code and out == ""
    assert json.loads(err) == {"error": error, "message": message, "exit_code": code}


def test_measure_cli(tmp_path, capsys):
    s = AnbitState(np.array([1.0, 1.0j]) / np.sqrt(2.0))
    spath = write_json(tmp_path / "s.json", state_to_obj(s))
    rc, out, _ = run_cli(
        capsys, ["measure", spath, "--kind", "coherent", "--responsivity", "2.0"]
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["kind"] == "coherent"
    assert obj["responsivity"] == 2.0
    assert obj["edf"] == 4
    rc, out, _ = run_cli(
        capsys, ["measure", spath, "--kind", "differential", "--responsivity", "1"]
    )
    obj = json.loads(out)
    assert obj["edf"] == 3
    assert obj["phase"] == pytest.approx(np.pi / 2.0)


def test_measure_omega_c(tmp_path, capsys):
    s = AnbitState([0.6, 0.8], delta_t=0.5)
    spath = write_json(tmp_path / "s.json", state_to_obj(s))
    rc, out, _ = run_cli(
        capsys,
        [
            "measure",
            spath,
            "--kind",
            "differential",
            "--responsivity",
            "1",
            "--omega-c",
            str(np.pi),
        ],
    )
    assert rc == 0
    assert json.loads(out)["phase"] == pytest.approx(np.pi / 2.0)


def test_trajectory_rotation(tmp_path, capsys):
    spec = {
        "kind": "rotation",
        "axis": [0.0, 0.0, 1.0],
        "start": 0.0,
        "end": 2.0 * np.pi,
        "steps": 50,
        "state": state_to_obj(AnbitState(np.array([1.0, 1.0]) / np.sqrt(2.0))),
    }
    path = write_json(tmp_path / "t.json", spec)
    rc, out, _ = run_cli(capsys, ["trajectory", path])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "step,radius,theta,phi"
    assert len(lines) == 51
    radii = [float(l.split(",")[1]) for l in lines[1:]]
    assert max(abs(r - 1.0) for r in radii) < 1e-12


def test_trajectory_diagonal_projects_to_pole(tmp_path, capsys):
    spec = {
        "kind": "diagonal",
        "d1": 1.0,
        "d2": [1.0, 0.0],
        "steps": 5,
        "state": state_to_obj(AnbitState(np.array([1.0, 1.0]) / np.sqrt(2.0))),
    }
    path = write_json(tmp_path / "t.json", spec)
    rc, out, _ = run_cli(capsys, ["trajectory", path])
    assert rc == 0
    last = out.splitlines()[-1].split(",")
    assert float(last[2]) == pytest.approx(0.0, abs=1e-12)  # theta at the pole


@pytest.mark.parametrize(
    "sweep", [{"kind": "rotation", "axis": [0.0, 0.0, 1.0]}, {"kind": "diagonal", "d1": 1.0, "d2": 0.5}]
)
def test_trajectory_rejects_non_qubit_state(tmp_path, capsys, sweep):
    spec = dict(sweep, steps=3, state=state_to_obj(AnbitState([1.0, 0.0, 1.0])))
    rc, out, err = run_cli(capsys, ["trajectory", write_json(tmp_path / "t.json", spec)])
    assert rc == 4 and out == ""
    assert json.loads(err)["error"] == "DimError"


@pytest.mark.parametrize("steps", [0, -1])
@pytest.mark.parametrize(
    "sweep",
    [{"kind": "rotation", "axis": [0.0, 0.0, 1.0]}, {"kind": "diagonal", "d1": 1.0, "d2": 0.5}],
    ids=["rotation", "diagonal"],
)
def test_trajectory_steps_must_be_positive(tmp_path, capsys, sweep, steps):
    spec = dict(sweep, steps=steps, state=_GOOD_STATE)
    rc, out, err = run_cli(capsys, ["trajectory", write_json(tmp_path / "t.json", spec)])
    assert rc == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueError" and payload["message"] == "steps must be >= 1"


@pytest.mark.parametrize("steps", [MAX_STEPS + 1, 2**63])
@pytest.mark.parametrize(
    "sweep",
    [{"kind": "rotation", "axis": [0.0, 0.0, 1.0]}, {"kind": "diagonal", "d1": 1.0, "d2": 0.5}],
    ids=["rotation", "diagonal"],
)
def test_trajectory_steps_are_capped(tmp_path, capsys, sweep, steps):
    # refused before any array of that length is allocated
    spec = dict(sweep, steps=steps, state=_GOOD_STATE)
    rc, out, err = run_cli(capsys, ["trajectory", write_json(tmp_path / "t.json", spec)])
    assert rc == 2 and out == ""
    assert json.loads(err) == {"error": "ParamError", "message": f"steps must be at most {MAX_STEPS}", "exit_code": 2}
    with pytest.raises(ParamError):
        emit_trajectory((0.0, 0.0, 1.0), 0.0, 1.0, AnbitState([1.0, 0.0]), steps)


@pytest.mark.parametrize(
    "sweep,message",
    [
        ({"axis": [0.0, 0.0, 1.0], "start": 1e308, "end": -1e308}, "start-end range [1e+308, -1e+308] has no finite width"),
        ({"kind": "diagonal", "d1": [1e308, -1e308], "d2": 1.0}, "d1 range [1e+308, -1e+308] has no finite width"),
        ({"kind": "diagonal", "d1": 1.0, "d2": [-1e308, 1e308]}, "d2 range [-1e+308, 1e+308] has no finite width"),
    ],
    ids=["rotation", "diagonal-d1", "diagonal-d2"],
)
@pytest.mark.parametrize("steps", [1, 5])
def test_trajectory_range_wider_than_the_float_range_is_named(tmp_path, capsys, sweep, message, steps):
    # the width b - a overflows, so no step could be placed on the range
    spec = dict(sweep, state=_GOOD_STATE, steps=steps)
    rc, out, err = run_cli(capsys, ["trajectory", write_json(tmp_path / "t.json", spec)])
    assert (rc, out) == (2, "")
    assert json.loads(err) == {"error": "ParamError", "message": message, "exit_code": 2}


def test_trajectory_range_is_checked_after_the_state_and_the_axis(tmp_path, capsys):
    for extra, error in (({"state": {"amps": [[0, 0], [0, 0]]}}, "DegenerateStateError"), ({"axis": [1.0, 1.0, 0.0]}, "AxisError")):
        spec = dict({"state": _GOOD_STATE, "axis": [0.0, 0.0, 1.0], "start": 1e308, "end": -1e308}, **extra)
        rc, _, err = run_cli(capsys, ["trajectory", write_json(tmp_path / "t.json", spec)])
        assert json.loads(err)["error"] == error
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before numpy meets the range
        with pytest.raises(ParamError) as exc:
            emit_trajectory((0.0, 0.0, 1.0), -1e308, 1e308, AnbitState([1.0, 0.0]), 3)
    assert str(exc.value) == "start-end range [-1e+308, 1e+308] has no finite width"


def test_trajectory_axis_past_the_float_range_is_not_unit(tmp_path, capsys):
    spec = {"state": _GOOD_STATE, "axis": [1e308, 0.5, 0.9], "steps": 3}
    rc, out, err = run_cli(capsys, ["trajectory", write_json(tmp_path / "t.json", spec)])
    assert rc == 2 and out == ""
    assert json.loads(err) == {"error": "AxisError", "message": "axis must be unit length, got norm inf", "exit_code": 2}


def test_emit_trajectory_null_state():
    with pytest.raises(DegenerateStateError):
        emit_trajectory((0.0, 0.0, 1.0), 0.0, 1.0, AnbitState([0.0, 0.0]), 5)


def test_emit_trajectory_rows_are_an_int_and_three_floats():
    rows = emit_trajectory((0.0, 0.6, 0.8), 0.0, 1.0, AnbitState([1.0, 1j]), 4, 0.3)
    assert [tuple(map(type, row)) for row in rows] == [(int, float, float, float)] * 4
    assert [row[0] for row in rows] == [0, 1, 2, 3]


def _per_step_trajectory(spec: dict) -> str:
    """The CSV of a sweep spec built one step at a time, each step's matrix by
    `rotation_matrix` or `np.diag` and its point by `to_bloch`: the oracle of
    the stacked sweep."""
    state = state_from_obj(spec["state"])
    if state.is_null:
        raise DegenerateStateError("trajectory needs a non-null state")
    if state.dim != 2:
        raise DimError(f"gate dim 2 != state dim {state.dim}")
    steps = spec["steps"]
    if spec.get("kind") == "diagonal":
        (d1a, d1b), (d2a, d2b) = spec["d1"], spec["d2"]
        for name, (a, b) in (("d1", spec["d1"]), ("d2", spec["d2"])):
            if not math.isfinite(b - a):  # a width past the float range is refused, not swept
                raise ParamError(f"{name} range [{a}, {b}] has no finite width")
        ts = np.linspace(0.0, 1.0, steps)
        mats = (np.diag([d1a + (d1b - d1a) * t, d2a + (d2b - d2a) * t]).astype(complex) for t in ts)
    else:
        angles = np.linspace(spec["start"], spec["end"], steps)
        mats = (rotation_matrix(RotationSpec(spec["axis"], a, spec["global_phase"])).entries for a in angles)
    points = [to_bloch(AnbitState(m @ state.amps)) for m in mats]
    lines = [f"{k},{fmt_float(p.radius)},{fmt_float(p.theta)},{fmt_float(p.phi)}" for k, p in enumerate(points)]
    return "\n".join(["step,radius,theta,phi", *lines]) + "\n"


_UNIT_AXES = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) > 0.1).map(
    lambda v: [x / math.hypot(*v) for x in v]
)
# unit axes with signed zeros, one not of unit length and one of two components
_AXES = st.sampled_from([[0.0, 0.0, 1.0], [-1.0, 0.0, -0.0], [0.0, -1.0, 0.0], [0.6, 0.8, 0.0], [1.0, 1.0, 0.0],
                         [0.6, 0.8]]) | _UNIT_AXES
_ANGLES = st.sampled_from([0.0, -0.0, np.pi, 2.0 * np.pi]) | st.floats(-50.0, 50.0)
# amplitude parts: zeros, parts whose squares under- or overflow, and the edge of the float range
_PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-320, 1e-200, 1e300, -1e300, 1.5e308]) | st.floats(-3.0, 3.0)
_ENDPOINTS = st.sampled_from([0.0, 1.0, -1.0, 1e308, -1e308]) | st.floats(-3.0, 3.0)


@st.composite
def _sweep_specs(draw):
    amps = draw(st.lists(st.tuples(_PARTS, _PARTS).map(list), min_size=2, max_size=3 if draw(st.booleans()) else 2))
    spec = {"state": {"amps": amps}, "steps": draw(st.integers(1, 200))}
    if draw(st.booleans()):
        start = draw(_ANGLES)
        end = start if draw(st.booleans()) else draw(_ANGLES)
        return dict(spec, axis=draw(_AXES), start=start, end=end, global_phase=draw(_ANGLES))
    pair = st.lists(_ENDPOINTS, min_size=2, max_size=2)
    return dict(spec, kind="diagonal", d1=draw(pair), d2=draw(pair))


@settings(max_examples=150, deadline=None)
@given(spec=_sweep_specs())
def test_stacked_sweep_matches_the_per_step_oracle(tmp_path_factory, spec):
    # the CSV text, or the error line of the first faulty step, of every sweep
    path = tmp_path_factory.getbasetemp() / "sweep.json"
    path.write_text(dumps(spec))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["trajectory", str(path)])
    spec = json.loads(path.read_text())  # the values the CLI read, signed zeros as JSON keeps them
    try:
        with np.errstate(all="ignore"):
            want = _per_step_trajectory(spec)
    except (AnbitError, ValueError) as exc:
        code = 4 if isinstance(exc, DimError) else 2
        assert (rc, out.getvalue()) == (code, "")
        assert json.loads(err.getvalue()) == {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    else:
        assert (rc, out.getvalue(), err.getvalue()) == (0, want, "")


def test_exit_code_singular_loop(tmp_path, capsys):
    circ = {
        "nodes": [
            {"id": "src", "kind": "source", "params": {}},
            {"id": "fi", "kind": "fanin", "params": {"n": [1.0, 0.0], "m": [1.0, 0.0]}},
            {"id": "g1", "kind": "gate", "params": gate_to_obj(identity_gate())},
            {"id": "fo", "kind": "fanout", "params": {"n": 1.0, "m": 1.0}},
            {"id": "g2", "kind": "gate", "params": gate_to_obj(identity_gate())},
            {"id": "out", "kind": "sink", "params": {}},
        ],
        "edges": [
            {"from": ["src", 0], "to": ["fi", 0]},
            {"from": ["fi", 0], "to": ["g1", 0]},
            {"from": ["g1", 0], "to": ["fo", 0]},
            {"from": ["fo", 0], "to": ["out", 0]},
            {"from": ["fo", 1], "to": ["g2", 0]},
            {"from": ["g2", 0], "to": ["fi", 1]},
        ],
        "sources": ["src"],
        "sinks": ["out"],
    }
    cpath = write_json(tmp_path / "c.json", circ)
    spath = write_json(tmp_path / "s.json", state_to_obj(AnbitState([1.0, 0.0])))
    rc, out, err = run_cli(capsys, ["simulate", cpath, "--input", spath])
    assert rc == 3
    assert json.loads(err)["exit_code"] == 3


def test_exit_code_missing_file(capsys):
    rc, _, err = run_cli(capsys, ["analyze", "/nonexistent/netlist.txt"])
    assert rc == 2
    assert json.loads(err)["error"]


def test_exit_code_bad_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc, _, err = run_cli(capsys, ["measure", str(path), "--kind", "coherent", "--responsivity", "1"])
    assert rc == 2


@pytest.mark.parametrize(
    "argv,obj",
    [
        (["measure", "--kind", "coherent", "--responsivity", "inf"], '{"amps": [[1, 0], [0, 0]]}'),
        (["decompose", "--method", "svd"], '{"entries": [[[1e400, 0], [0, 0]], [[0, 0], [1, 0]]]}'),
        (["decompose", "--method", "pauli"], '{"entries": [[[1e400, 0], [0, 0]], [[0, 0], [1, 0]]]}'),
    ],
    ids=["measure-inf-responsivity", "svd-inf-entry", "pauli-inf-entry"],
)
def test_non_finite_results_fail_typed(tmp_path, capsys, argv, obj):
    # JSON has no inf/nan tokens: the run exits 2 with its error line instead
    path = tmp_path / "in.json"
    path.write_text(obj)
    rc, out, err = run_cli(capsys, [argv[0], str(path), *argv[1:]])
    assert rc == 2 and out == ""
    assert json.loads(err)["exit_code"] == 2


_INF_GATE = {"entries": [[["inf", 0], [0, 0]], [[0, 0], [1, 0]]]}  # "inf" is written as 1e400
_NAN_GATE = {"entries": [[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]]}  # written as NaN, which json.loads accepts


@pytest.mark.parametrize(
    "argv,target,code",
    [
        (["simulate", "--input", "S", "--format", "csv"], _circuit_with({"id": "g", "kind": "gate", "params": _INF_GATE}), 2),
        (["simulate", "--input", "S"], _circuit_with({"id": "g", "kind": "gate", "params": _INF_GATE}), 2),
        (["simulate", "--input", "S"], _circuit_with({"id": "g", "kind": "gate", "params": _NAN_GATE}), 2),
        (["trajectory"], {"state": {"amps": [[1.5e308, 0], [1.5e308, 0]]}, "axis": [0, 0, 1], "steps": 3}, 2),
        (["trajectory"], {"state": {"amps": [["inf", 0], [1, 0]]}, "axis": [0, 0, 1], "steps": 3}, 2),
        (["decompose", "--method", "pauli"], _INF_GATE, 2),
        (["decompose", "--method", "euler-zxz"], _INF_GATE, 4),
        (["lower", "--arch", "zxz"], _INF_GATE, 4),
        (["lower", "--arch", "zyz"], _INF_GATE, 4),
        (["lower", "--arch", "pauli"], _INF_GATE, 2),
        (["measure", "--kind", "coherent", "--responsivity", "1"], {"amps": [["inf", 0], [1, 0]]}, 2),
        (["measure", "--kind", "differential", "--responsivity", "1"], {"amps": [["inf", 0], [1, 0]]}, 2),
    ],
    ids=[
        "simulate-csv",
        "simulate-json",
        "simulate-nan-gate",
        "trajectory-radius-overflow",
        "trajectory-inf-amp",
        "decompose-pauli",
        "decompose-euler-zxz",
        "lower-zxz",
        "lower-zyz",
        "lower-pauli",
        "measure-coherent",
        "measure-differential",
    ],
)
def test_non_finite_runs_print_one_error_line(tmp_path, capsys, argv, target, code):
    # CSV refuses inf and nan as JSON does, and numpy warns of none of them:
    # the run's one error line is all it writes
    tpath, spath = tmp_path / "target.json", write_json(tmp_path / "s.json", _GOOD_STATE)
    tpath.write_text(json.dumps(target).replace('"inf"', "1e400"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run_cli(capsys, [argv[0], str(tpath), *(spath if a == "S" else a for a in argv[1:])])
    assert [str(w.message) for w in caught] == []
    assert rc == code and out == ""
    assert len(err.splitlines()) == 1 and json.loads(err)["exit_code"] == code


def test_non_finite_error_names_no_format(tmp_path, capsys):
    # the same refusal serves JSON, CSV and netlist text, so it names none of them
    cpath, spath = tmp_path / "c.json", write_json(tmp_path / "s.json", _GOOD_STATE)
    cpath.write_text(json.dumps(_circuit_with({"id": "g", "kind": "gate", "params": _INF_GATE})).replace('"inf"', "1e400"))
    rc, out, err = run_cli(capsys, ["simulate", str(cpath), "--input", spath, "--format", "csv"])
    assert rc == 2 and out == ""
    message = json.loads(err)["message"]
    assert message.startswith("cannot serialize non-finite float ") and "JSON" not in message


@pytest.mark.parametrize("scale", [1e300, 1e-200], ids=["squares-overflow", "squares-underflow"])
def test_trajectory_radius_beyond_the_range_of_its_square(tmp_path, capsys, scale):
    spec = {"state": {"amps": [[scale, 0], [scale, 0]]}, "axis": [0, 0, 1], "steps": 3}
    rc, out, err = run_cli(capsys, ["trajectory", write_json(tmp_path / "t.json", spec)])
    assert rc == 0 and err == ""
    radii = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert radii == pytest.approx([np.sqrt(2.0) * scale] * 3, rel=1e-15)


def test_argparse_rejects_unknown_method(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "x.json", "--method", "bogus"])
    assert exc.value.code == 2


def test_run_returns_the_code_and_text_of_an_argparse_exit():
    rc, out, err = cli.run(["lower", "g.json"])  # no --arch
    assert (rc, out) == (2, "")
    assert err.startswith("usage: anbit lower ")
    assert err.endswith("anbit lower: error: the following arguments are required: --arch\n")
    rc, out, err = cli.run(["--help"])
    assert (rc, err) == (0, "")
    assert out.startswith("usage: anbit ") and "Analog photonic gate toolkit" in out


def test_argparse_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_main_builds_the_parser_at_most_once(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        if kwargs.get("prog") == "anbit":
            built.append(kwargs)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    spath = write_json(tmp_path / "s.json", state_to_obj(AnbitState([0.6, 0.8j])))
    for kind in ("coherent", "differential"):
        rc, out, _ = run_cli(capsys, ["measure", spath, "--kind", kind, "--responsivity", "1"])
        assert rc == 0 and json.loads(out)["kind"] == kind
    assert len(built) <= 1


def test_python_m_runs_the_cli(tmp_path):
    src = Path(anbit.__file__).resolve().parent.parent
    missing = str(tmp_path / "missing.netlist")
    proc = subprocess.run(
        [sys.executable, "-m", "anbit.cli", "analyze", missing],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    payload = json.loads(proc.stderr)
    assert payload["error"] == "FileNotFoundError" and payload["exit_code"] == 2
    assert missing in payload["message"]


def test_python_m_prints_what_main_prints(tmp_path, capsys):
    # the command the packaging check runs through the installed `anbit` script
    gpath = write_json(tmp_path / "g.json", gate_to_obj(GateMatrix([[0.3, -1.0j], [2.0, 0.5 + 0.5j]])))
    argv = ["decompose", gpath, "--method", "pauli"]
    proc = subprocess.run(
        [sys.executable, "-m", "anbit.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(anbit.__file__).resolve().parent.parent)),
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(capsys, argv)
    assert [f["name"] for f in json.loads(proc.stdout)["factors"]] == ["alpha0", "alpha1", "alpha2", "alpha3"]


# --- the circuit slot: the last circuit read, kept with its file text --------

def _gate_node(nid, m):
    return {"id": nid, "kind": "gate", "params": gate_to_obj(GateMatrix(m))}


def _loop_circuit(rng):
    """Fan-in, gate, fan-out, with the copy fed back through a second gate."""
    return {
        "nodes": [
            {"id": "src", "kind": "source", "params": {}},
            {"id": "fi", "kind": "fanin", "params": {"n": [0.8, 0.1], "m": [1.0, 0.0]}},
            _gate_node("g1", 0.6 * random_unitary(rng)),
            {"id": "fo", "kind": "fanout", "params": {"n": 1.0, "m": 0.5}},
            _gate_node("g2", 0.7 * random_unitary(rng)),
            {"id": "out", "kind": "sink", "params": {}},
        ],
        "edges": [
            {"from": ["src", 0], "to": ["fi", 0]},
            {"from": ["fi", 0], "to": ["g1", 0]},
            {"from": ["g1", 0], "to": ["fo", 0]},
            {"from": ["fo", 0], "to": ["out", 0]},
            {"from": ["fo", 1], "to": ["g2", 0]},
            {"from": ["g2", 0], "to": ["fi", 1]},
        ],
        "sources": ["src"],
        "sinks": ["out"],
    }


def _ladder_circuit(rng):
    """Fan-out into two 2-gate branches, summed and differenced by a fan-in."""
    h = float(np.sqrt(0.5))
    gates = [_gate_node(nid, random_unitary(rng)) for nid in ("a1", "a2", "b1", "b2")]
    return {
        "nodes": [
            {"id": "s", "kind": "source", "params": {}},
            {"id": "fo", "kind": "fanout", "params": {"n": h, "m": h}},
            *gates,
            {"id": "fi", "kind": "fanin", "params": {"n": [h, 0.0], "m": [h, 0.0]}},
            {"id": "t", "kind": "sink", "params": {}},
            {"id": "d", "kind": "sink", "params": {}},
        ],
        "edges": [
            {"from": ["s", 0], "to": ["fo", 0]},
            {"from": ["fo", 0], "to": ["a1", 0]},
            {"from": ["a1", 0], "to": ["a2", 0]},
            {"from": ["fo", 1], "to": ["b1", 0]},
            {"from": ["b1", 0], "to": ["b2", 0]},
            {"from": ["a2", 0], "to": ["fi", 0]},
            {"from": ["b2", 0], "to": ["fi", 1]},
            {"from": ["fi", 0], "to": ["t", 0]},
            {"from": ["fi", 1], "to": ["d", 0]},
        ],
        "sources": ["s"],
        "sinks": ["t", "d"],
    }


@pytest.fixture
def empty_slot(monkeypatch):
    """Both slots as a fresh process starts them; the test's graphs and netlists are dropped after it."""
    monkeypatch.setattr(cli, "_last_circuit", (None, None))
    monkeypatch.setattr(cli, "_last_netlist", (None, None))


def test_rewritten_circuit_of_the_same_length_is_read_again(tmp_path, capsys, empty_slot):
    # one gate entry changes and the file keeps its length: the new circuit is simulated
    circ = _circuit_with(_gate_node("g", np.diag([0.25, 0.5])))
    text = dumps(circ)
    path = tmp_path / "c.json"
    spath = write_json(tmp_path / "s.json", state_to_obj(AnbitState([1.0, 1.0])))
    outs = []
    for entry in ("0.25", "0.75"):
        path.write_text(text.replace("0.25", entry))
        rc, out, _ = run_cli(capsys, ["simulate", str(path), "--input", spath])
        assert rc == 0
        outs.append(json.loads(out)["outputs"]["t"]["amps"])
    assert len(text.replace("0.25", "0.75")) == len(text)
    assert outs == [[[0.25, 0.0], [0.5, 0.0]], [[0.75, 0.0], [0.5, 0.0]]]


@pytest.mark.parametrize(
    "bad",
    ["{not json", dumps({"nodes": [{"id": "s", "kind": "source"}], "edges": [{"from": ["s", 0], "to": ["x", 0]}],
                         "sources": ["s"]})],
    ids=["json", "graph"],
)
def test_a_circuit_that_fails_to_parse_is_not_kept(tmp_path, capsys, empty_slot, bad, rng):
    bad_path, good_path = tmp_path / "bad.json", tmp_path / "good.json"
    bad_path.write_text(bad)
    circ, u = basic_circuit(rng)
    good_path.write_text(dumps(circ))
    spath = write_json(tmp_path / "s.json", state_to_obj(AnbitState([0.6, 0.8j])))
    fresh = run_cli(capsys, ["simulate", str(bad_path), "--input", spath])
    assert fresh[0] == 2 and fresh[1] == "" and cli._last_circuit == (None, None)
    rc, out, _ = run_cli(capsys, ["simulate", str(good_path), "--input", spath])
    assert rc == 0
    amps = np.array([complex(*pair) for pair in json.loads(out)["outputs"]["t"]["amps"]])
    assert np.max(np.abs(amps - u @ np.array([0.6, 0.8j]))) < 1e-14
    assert run_cli(capsys, ["simulate", str(bad_path), "--input", spath]) == fresh
    assert cli._last_circuit[0] == good_path.read_text()


def test_the_slot_holds_one_graph(tmp_path, capsys, monkeypatch, empty_slot, rng):
    graphs = []  # a weak reference to each graph parsed
    parse = cli.circuit_from_obj

    def recorded(obj):
        graph = parse(obj)
        graphs.append(weakref.ref(graph))
        return graph

    monkeypatch.setattr(cli, "circuit_from_obj", recorded)
    spath = write_json(tmp_path / "s.json", state_to_obj(AnbitState([1.0, 0.0])))
    for name in ("first", "second", "second"):
        cpath = write_json(tmp_path / f"{name}.json", _ladder_circuit(np.random.default_rng(len(name))))
        rc, _, _ = run_cli(capsys, ["simulate", cpath, "--input", spath])
        assert rc == 0
    gc.collect()
    assert len(graphs) == 2  # the repeat is read from the slot
    assert graphs[0]() is None and graphs[1]() is cli._last_circuit[1]


def test_lower_after_simulate_prints_the_netlist_of_lower_alone(tmp_path, capsys, monkeypatch, rng):
    cpath = write_json(tmp_path / "c.json", basic_circuit(rng)[0])
    spath = write_json(tmp_path / "s.json", state_to_obj(AnbitState([1.0, 0.0])))
    lower = ["lower", cpath, "--arch", "zxz"]
    monkeypatch.setattr(cli, "_last_circuit", (None, None))
    alone = run_cli(capsys, lower)
    monkeypatch.setattr(cli, "_last_circuit", (None, None))
    assert run_cli(capsys, ["simulate", cpath, "--input", spath])[0] == 0
    graph = cli._last_circuit[1]
    assert run_cli(capsys, lower) == alone and alone[0] == 0
    assert cli._last_circuit[1] is graph


def _chain_circuit(prefix: str, n: int) -> dict:
    ids = [f"{prefix}{k}" for k in range(n)]
    path = ["s", *ids, "t"]
    return {
        "nodes": [
            {"id": "s", "kind": "source"},
            *(_gate_node(nid, np.eye(2)) for nid in ids),
            {"id": "t", "kind": "sink"},
        ],
        "edges": [{"from": [a, 0], "to": [b, 0]} for a, b in zip(path, path[1:])],
        "sources": ["s"],
        "sinks": ["t"],
    }


def test_threads_reading_two_circuits_get_each_its_own_graph(empty_slot):
    # the slot is one tuple: a reader racing another never pairs a text with the other
    # text's graph; 100-gate chains keep each parse long enough for the readers to interleave
    texts = {prefix: dumps(_chain_circuit(prefix, 100)) for prefix in ("a", "b")}
    start = threading.Barrier(4)
    wrong, failed = [], []

    def read(prefix):
        try:
            start.wait(timeout=60)
            deadline = time.perf_counter() + 0.3
            while time.perf_counter() < deadline:
                if f"{prefix}0" not in cli._read_circuit(texts[prefix]).nodes:
                    wrong.append(prefix)
        except Exception as exc:  # reported below; a thread's exception would not fail the test
            failed.append(exc)

    threads = [threading.Thread(target=read, args=(prefix,)) for prefix in "abab"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failed == [] and wrong == []


@pytest.mark.parametrize("build", [_loop_circuit, _ladder_circuit], ids=["loop", "ladder"])
def test_in_process_runs_print_what_a_fresh_process_prints(tmp_path, capsys, empty_slot, build, rng):
    # the subprocess starts with an empty slot; in process, the first run fills it and the second reads it
    cpath = write_json(tmp_path / "c.json", build(rng))
    spath = write_json(tmp_path / "s.json", state_to_obj(AnbitState(random_state_vec(rng))))
    argv = ["simulate", cpath, "--input", spath]
    proc = subprocess.run(
        [sys.executable, "-m", "anbit.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(anbit.__file__).resolve().parent.parent)),
        timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert run_cli(capsys, argv) == run_cli(capsys, argv) == (0, proc.stdout, "")


# --- the netlist slot: the netlist `lower` emitted or `analyze` read, kept with its text ---

@pytest.fixture
def parses(monkeypatch):
    """The netlists `cli` parses from text, as weak references, in order."""
    netlists = []
    parse = cli.netlist_from_text

    def recorded(text):
        nl = parse(text)
        netlists.append(weakref.ref(nl))
        return nl

    monkeypatch.setattr(cli, "netlist_from_text", recorded)
    return netlists


def _lowered(capsys, target: str, arch: str) -> Path:
    """The file, next to target, holding what `lower` printed for target under arch."""
    rc, out, err = run_cli(capsys, ["lower", target, "--arch", arch])
    assert (rc, err) == (0, "")
    path = Path(target).with_suffix(".netlist")
    path.write_text(out)
    return path


def test_rewritten_netlist_of_the_same_length_is_read_again(tmp_path, capsys, monkeypatch, empty_slot, parses, rng):
    # the coupler's value gets another first digit and the file keeps its length: the new netlist is analyzed
    net = _lowered(capsys, write_json(tmp_path / "g.json", gate_to_obj(GateMatrix(random_unitary(rng)))),
                   "zxz")
    text = net.read_text()
    before = run_cli(capsys, ["analyze", str(net)])
    lines = text.splitlines(keepends=True)
    k = next(i for i, line in enumerate(lines) if line.startswith("DC "))
    kind, a, b, value = lines[k].split()
    lines[k] = f"{kind} {a} {b} {'2' if value[0] == '1' else '1'}{value[1:]}\n"
    changed = "".join(lines)
    assert len(changed) == len(text) and changed != text
    net.write_text(changed)
    after = run_cli(capsys, ["analyze", str(net)])
    assert len(parses) == 1 and cli._last_netlist[0] == changed
    assert after[0] == 0 and after != before
    monkeypatch.setattr(cli, "_last_netlist", (None, None))
    assert run_cli(capsys, ["analyze", str(net)]) == after


@pytest.mark.parametrize("bad", ["WIRES 2\nIN 0 1\nOUT 0 1\nPS 0 nan\n", "WIRES 2\nIN 0\nOUT 0\nXX 0\n"],
                         ids=["refused-row", "unknown-line"])
def test_a_netlist_that_fails_to_parse_is_not_kept(tmp_path, capsys, empty_slot, bad, rng):
    bad_path = tmp_path / "bad.netlist"
    bad_path.write_text(bad)
    fresh = run_cli(capsys, ["analyze", str(bad_path)])
    assert fresh[0] == 2 and fresh[1] == "" and cli._last_netlist == (None, None)
    net = _lowered(capsys, write_json(tmp_path / "g.json", gate_to_obj(GateMatrix(random_matrix(rng)))),
                   "pauli")
    kept = cli._last_netlist
    assert run_cli(capsys, ["analyze", str(bad_path)]) == fresh
    assert cli._last_netlist is kept and kept[0] == net.read_text()


def test_the_slot_holds_one_netlist(tmp_path, capsys, monkeypatch, empty_slot, parses):
    lowered = []  # a weak reference to each netlist `lower` emitted
    emit = cli.netlist_to_text

    def recorded(nl):
        lowered.append(weakref.ref(nl))
        return emit(nl)

    monkeypatch.setattr(cli, "netlist_to_text", recorded)
    nets = [_lowered(capsys, write_json(tmp_path / f"{name}.json", _ladder_circuit(np.random.default_rng(len(name)))),
                     "zxz") for name in ("first", "second")]
    for net in (nets[1], nets[0]):  # the second is read from the slot, the first parsed again
        assert run_cli(capsys, ["analyze", str(net)])[0] == 0
    gc.collect()
    assert len(lowered) == 2 and len(parses) == 1
    assert lowered[0]() is None and lowered[1]() is None and parses[0]() is cli._last_netlist[1]


_LOWER_TARGETS = {
    "zxz": lambda rng: gate_to_obj(GateMatrix(random_unitary(rng))),
    "zyz": lambda rng: gate_to_obj(GateMatrix(random_unitary(rng))),
    "svd": lambda rng: gate_to_obj(GateMatrix(random_matrix(rng))),
    "pauli": lambda rng: gate_to_obj(GateMatrix(random_matrix(rng))),
    "mostow": lambda rng: {"unitary": gate_to_obj(GateMatrix(random_unitary(rng))), "antisymmetric_param": 0.4,
                           "symmetric": _MOSTOW_B},
    "fanin": lambda rng: {"n": [0.8, 0.1], "m": [0.3, -0.6]},
    **{f"circuit-{arch}": _ladder_circuit for arch in ("zxz", "zyz", "svd", "pauli")},
}


@pytest.mark.parametrize("target", sorted(_LOWER_TARGETS))
def test_analyze_of_the_text_lower_printed_parses_nothing(tmp_path, capsys, monkeypatch, empty_slot, parses, target,
                                                          rng):
    # and prints what a fresh parse of that text prints
    net = _lowered(capsys, write_json(tmp_path / "t.json", _LOWER_TARGETS[target](rng)), target.rpartition("-")[2])
    hit = run_cli(capsys, ["analyze", str(net)])
    assert hit[0] == 0 and parses == [] and cli._last_netlist[0] == net.read_text()
    monkeypatch.setattr(cli, "_last_netlist", (None, None))
    assert run_cli(capsys, ["analyze", str(net)]) == hit and len(parses) == 1
