"""Mutation fuzz of every `anbit` subcommand: a typed error or output that parses, never a traceback.

Each example starts from a valid input of one subcommand, built with the
tests' own generators, changes one JSON value or one netlist token, and runs
`cli.run` in process. The exit code is 0, 2, 3 or 4. A nonzero code prints
nothing on stdout and exactly one JSON error line on stderr; 0 prints output
that parses and nothing on stderr; an `analyze` refusal of a device row or a
control word starts with its line. Step counts stay within `cli.MAX_STEPS`;
wire counts reach `lowering.MAX_WIRES` and one past it. CI runs this file on
fixed seeds:
`pytest tests/test_cli_fuzz.py --hypothesis-seed=1`.
"""

import copy
import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anbit import AnbitState, GateMatrix, controlled, lower_controlled_electrooptic
from anbit.cli import MAX_STEPS, run
from anbit.lowering import MAX_WIRES
from anbit.serialization import gate_to_obj, netlist_from_text, netlist_to_text, state_to_obj

from conftest import random_matrix, random_state_vec, random_unitary
from test_cli import _MOSTOW_B, _ladder_circuit, _loop_circuit, basic_circuit
from test_lowering import random_netlists

# what one JSON value is replaced with: null, both bools, both zeros, the edge
# of the float range, integers past it and past 64 bits, NaN, a string, lists
# and objects
JSON_VALUES = [None, True, False, 0, 0.0, -0.0, 1e308, 10**400, 2**63, math.nan, "x", [], [1.0, 0.0], {}, {"x": 1}]
# what one netlist token is replaced with ("" drops it); wire counts up to the cap and one past it
NETLIST_TOKENS = ["", "x", "0", "1", "-1", "3", "-0", "0.5", "nan", "inf", "-inf", "1e308", "1e400", "@c0", "*",
                  "=", "0=nan", "0=5", "9=0.5", "CTRL", "ACTIVE", "WIRES", "IN", "#",
                  str(MAX_WIRES), str(MAX_WIRES + 1)]
STEPS = st.integers(1, min(20, MAX_STEPS))  # a trajectory's step count, within the cap


def _gate(rng, unitary: bool) -> dict:
    return gate_to_obj(GateMatrix(random_unitary(rng) if unitary else random_matrix(rng)))


def _state(rng) -> dict:
    return state_to_obj(AnbitState(random_state_vec(rng)))


def _mostow(rng) -> dict:
    return {"unitary": _gate(rng, True), "antisymmetric_param": float(rng.uniform(-1, 1)), "symmetric": _MOSTOW_B}


@st.composite
def valid_runs(draw, case: str):
    """(argv, files) of one valid run of `case`; argv names each file by its key in files (JSON object or netlist text)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if case == "simulate":
        build = draw(st.sampled_from([lambda r: basic_circuit(r)[0], _loop_circuit, _ladder_circuit]))
        fmt = draw(st.sampled_from(["json", "csv"]))
        return ["simulate", "circuit", "--input", "state", "--format", fmt], {"circuit": build(rng), "state": _state(rng)}
    if case == "decompose":
        method = draw(st.sampled_from(["euler-zxz", "euler-zyz", "svd", "pauli", "mostow-synth"]))
        target = _mostow(rng) if method == "mostow-synth" else _gate(rng, method.startswith("euler"))
        return ["decompose", "target", "--method", method], {"target": target}
    if case == "lower":
        arch = draw(st.sampled_from(["zxz", "zyz", "svd", "pauli", "mostow", "circuit-zxz", "circuit-svd"]))
        if arch.startswith("circuit"):
            target = draw(st.sampled_from([lambda r: basic_circuit(r)[0], _ladder_circuit]))(rng)
        else:
            target = _mostow(rng) if arch == "mostow" else _gate(rng, arch in ("zxz", "zyz"))
        return ["lower", "target", "--arch", arch.rpartition("-")[2]], {"target": target}
    if case == "lower-fanin":
        pair = st.lists(st.floats(0.1, 2.0), min_size=2, max_size=2)
        target = {key: draw(pair) for key in draw(st.sets(st.sampled_from("nm")))}
        return ["lower", "target", "--arch", "fanin"], {"target": target}
    if case == "analyze":  # with CTRL lines when the drawn netlist has a control map
        return ["analyze", "netlist"], {"netlist": netlist_to_text(draw(random_netlists())[0])}
    if case == "analyze-controlled":  # ACTIVE and CTRL lines
        n = draw(st.integers(1, 3))
        target = GateMatrix(random_unitary(rng) if draw(st.booleans()) else random_matrix(rng))
        nl = lower_controlled_electrooptic(controlled(target, n), np.eye(2**n)[draw(st.integers(0, 2**n - 1))])
        return ["analyze", "netlist"], {"netlist": netlist_to_text(nl)}
    if case == "measure":
        kind = draw(st.sampled_from(["coherent", "differential"]))
        return ["measure", "state", "--kind", kind, "--responsivity", "0.9", "--omega-c", "0.5"], {"state": _state(rng)}
    # trajectory
    state, steps = _state(rng), draw(STEPS)
    if draw(st.booleans()):
        axis = rng.normal(size=3)
        spec = {"state": state, "axis": (axis / np.linalg.norm(axis)).tolist(), "start": float(rng.uniform(-4, 4)),
                "end": float(rng.uniform(-4, 4)), "steps": steps, "global_phase": float(rng.uniform(-4, 4))}
    else:
        spec = {"state": state, "kind": "diagonal", "d1": rng.uniform(-2, 2, size=2).tolist(),
                "d2": float(rng.uniform(-2, 2)), "steps": steps}
    return ["trajectory", "spec"], {"spec": spec}


def _json_paths(obj, path=()):
    """The path of every value in obj, obj itself included."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _json_paths(value, (*path, key))


def _mutated(draw, content):
    """content with one JSON value or one netlist token replaced."""
    if isinstance(content, str):
        lines = [line.split() for line in content.splitlines()]
        i, j = draw(st.sampled_from([(i, j) for i, tokens in enumerate(lines) for j in range(len(tokens))]))
        lines[i][j] = draw(st.sampled_from(NETLIST_TOKENS))
        return "\n".join(" ".join(tokens) for tokens in lines) + "\n"
    path = draw(st.sampled_from(list(_json_paths(content))))
    value = copy.deepcopy(draw(st.sampled_from(JSON_VALUES)))
    if not path:
        return json.dumps(value)
    content = copy.deepcopy(content)
    parent = content
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return json.dumps(content)  # NaN and integers of any size as json.loads reads them back


def _text(content) -> str:
    return content if isinstance(content, str) else json.dumps(content)


def _run(folder, argv, texts):
    """(argv, exit code, stdout, stderr) of argv run with each file key replaced by a file holding texts[key]."""
    for name, text in texts.items():
        (folder / name).write_text(text)
    argv = [str(folder / arg) if arg in texts else arg for arg in argv]
    return (argv, *run(argv))


def _check_output(argv, out):
    """The stdout of a run that exited 0 parses as its command's format."""
    if argv[0] == "lower":
        netlist_from_text(out)
    elif argv[0] == "trajectory" or "csv" in argv:
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] in (["step", "radius", "theta", "phi"], ["sink", "index", "re", "im"]) and len(rows) > 1
        for row in rows[1:]:
            assert len(row) == 4 and all(math.isfinite(float(x)) for x in row[1 if argv[0] == "trajectory" else 2:])
    else:
        assert out.endswith("\n") and out.count("\n") == 1
        json.loads(out)


CASES = ["simulate", "decompose", "lower", "lower-fanin", "analyze", "analyze-controlled", "measure", "trajectory"]


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    """One folder for the input files of every example; each run overwrites them."""
    return tmp_path_factory.mktemp("cli-fuzz")


@pytest.mark.parametrize("case", CASES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_changed_input_value_fails_typed_or_runs(folder, case, data):
    argv, files = data.draw(valid_runs(case))
    mutated = data.draw(st.sampled_from(sorted(files)))
    texts = {name: _mutated(data.draw, body) if name == mutated else _text(body) for name, body in files.items()}
    argv, rc, out, err = _run(folder, argv, texts)
    assert rc in (0, 2, 3, 4), (rc, err)
    if rc:
        assert out == "" and err.endswith("\n") and err.count("\n") == 1
        payload = json.loads(err)
        assert set(payload) == {"error", "message", "exit_code"} and payload["exit_code"] == rc
        if argv[0] == "analyze" and payload["error"] == "ParamError":
            # a device row or control word the netlist refuses names its line; only a
            # fault of the whole netlist (its wire count or ports) names none
            assert payload["message"].startswith(("line ", "netlist ", "port wire ")), payload["message"]
    else:
        assert err == ""
        _check_output(argv, out)


@pytest.mark.parametrize("case", CASES)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_every_unchanged_input_runs(folder, case, data):
    # the starting inputs are valid, so the mutations above are what fails
    argv, files = data.draw(valid_runs(case))
    argv, rc, out, err = _run(folder, argv, {name: _text(content) for name, content in files.items()})
    assert (rc, err) == (0, "")
    _check_output(argv, out)
