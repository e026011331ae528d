"""A gate with an inf or nan entry meets one rule, whatever factorization reads it.

Every 2x2 factorization reads its gates through one door
(`decompositions._dim2_rows`): the Euler tables (`euler_zxz`, `euler_zyz`,
`lower --arch zxz|zyz`), the svd table (`svd2`, `lower --arch svd`) and the
Pauli expansion (`pauli_decompose`, `lower --arch pauli`). A gate with a
non-finite entry is refused with one message naming its first such entry in
row-major order, `gate entry (0, 1) is nan`, as the table's own error type:
ClassError for the Euler tables (a non-finite gate is not unitary), ParamError
for svd and pauli. `lower_circuit` puts the gate's node in front of it, and
the CLI keeps each path's exit code: 4 for the Euler paths, 2 for the others.

The svd table refuses one more gate, after the door has passed the whole
list: a finite gate whose largest singular value is past the float range, as
a ParamError (exit 2) marked with its gate. The pauli table likewise refuses
a gate with a coefficient whose magnitude is above max float / sqrt2, past
the float range or not: its netlist's sqrt2 gain and branch gain meet in one
factor of the transfer, which would overflow.
"""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anbit import (
    GateMatrix,
    cli,
    euler_zxz,
    euler_zyz,
    lower_circuit,
    lower_general_svd,
    lower_pauli_mgate,
    lower_unitary_zxz,
    lower_unitary_zyz_fixed,
    pauli_decompose,
    svd2,
)
from anbit.errors import ClassError, ParamError

from conftest import random_matrix, random_unitary
from test_lowering import _gate_chain

ARCH_ERRORS = {"zxz": ClassError, "zyz": ClassError, "svd": ParamError, "pauli": ParamError}

# the one-gate factorizations and lowerings, each with the error type of its table
ONE_GATE = [
    (euler_zxz, ClassError),
    (euler_zyz, ClassError),
    (svd2, ParamError),
    (pauli_decompose, ParamError),
    (lower_unitary_zxz, ClassError),
    (lower_unitary_zyz_fixed, ClassError),
    (lower_general_svd, ParamError),
    (lower_pauli_mgate, ParamError),
]

# a non-finite entry and how the message writes it: a real one as a float, any other as a complex
NON_FINITE = [
    (complex(math.nan, 0.0), "nan"),
    (complex(math.inf, 0.0), "inf"),
    (complex(-math.inf, 0.0), "-inf"),
    (complex(0.5, math.nan), "(0.5+nanj)"),
    (complex(0.0, -math.inf), "-infj"),
    (complex(math.nan, math.nan), "(nan+nanj)"),
]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_gates=st.integers(1, 8),
    data=st.data(),
)
def test_every_factorization_names_the_first_non_finite_entry(seed, n_gates, data):
    rng = np.random.default_rng(seed)
    entries = [random_unitary(rng) for _ in range(n_gates)]
    k = data.draw(st.integers(0, n_gates - 1), label="gate")
    bad = random_matrix(rng)
    spots = data.draw(st.lists(st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]), min_size=1, unique=True))
    picks = data.draw(st.lists(st.sampled_from(NON_FINITE), min_size=len(spots), max_size=len(spots)))
    for spot, (value, _) in zip(spots, picks):
        bad[spot] = value
    (i, j), (_, text) = min(zip(spots, picks))  # the first in row-major order
    entries[k] = bad
    for factor, error in ONE_GATE:
        with pytest.raises(error) as exc:
            factor(GateMatrix(bad))
        assert str(exc.value) == f"gate entry ({i}, {j}) is {text}", factor.__name__
    for arch, error in ARCH_ERRORS.items():
        with pytest.raises(error) as exc:
            lower_circuit(_gate_chain(*entries), arch)
        assert str(exc.value) == f"node 'g{k}': gate entry ({i}, {j}) is {text}", arch


# the commands that factor one 2x2 gate, each with its exit code for a non-finite entry
FACTOR_COMMANDS = [
    (["decompose", "--method", "euler-zxz"], 4),
    (["decompose", "--method", "euler-zyz"], 4),
    (["decompose", "--method", "svd"], 2),
    (["decompose", "--method", "pauli"], 2),
    (["lower", "--arch", "zxz"], 4),
    (["lower", "--arch", "zyz"], 4),
    (["lower", "--arch", "svd"], 2),
    (["lower", "--arch", "pauli"], 2),
]


@pytest.mark.parametrize("argv,code", FACTOR_COMMANDS, ids=[" ".join(a[::2]) for a, _ in FACTOR_COMMANDS])
@pytest.mark.parametrize("token,text", [("NaN", "nan"), ("1e400", "inf")], ids=["nan", "inf"])
def test_a_non_finite_gate_entry_gives_one_error_line_that_names_it(tmp_path, argv, code, token, text):
    # JSON reads NaN as nan and 1e400 as inf
    path = tmp_path / "gate.json"
    path.write_text('{"entries": [[[%s, 0], [0, 0]], [[0, 0], [1, 0]]]}' % token)
    rc, out, err = cli.run([argv[0], str(path), *argv[1:]])
    assert (rc, out) == (code, "")
    error = {4: "ClassError", 2: "ParamError"}[code]
    assert err.splitlines() == [json.dumps({"error": error, "message": f"gate entry (0, 0) is {text}", "exit_code": code})]


# finite entries whose largest singular value, about 1.97e308, is past the float range
_SVD_OVERFLOW = np.array([[0.0, 0.0], [1e308, 1.7e308]], dtype=complex)
_OVERFLOW_MESSAGE = "largest singular value is past the float range"


@pytest.mark.parametrize("factor", [svd2, lower_general_svd])
def test_an_svd_past_the_float_range_is_a_param_error(factor):
    with pytest.raises(ParamError) as exc:
        factor(GateMatrix(_SVD_OVERFLOW))
    assert str(exc.value) == _OVERFLOW_MESSAGE


def test_an_svd_past_the_float_range_names_its_node_after_every_non_finite_entry(rng):
    entries = [random_unitary(rng) for _ in range(12)]
    entries[3] = _SVD_OVERFLOW
    with pytest.raises(ParamError) as exc:
        lower_circuit(_gate_chain(*entries), "svd")
    assert str(exc.value) == f"node 'g3': {_OVERFLOW_MESSAGE}"
    entries[7] = np.array([[math.nan, 0.0], [0.0, 1.0]])  # the door reads the whole list before the svd
    with pytest.raises(ParamError) as exc:
        lower_circuit(_gate_chain(*entries), "svd")
    assert str(exc.value) == "node 'g7': gate entry (0, 0) is nan"


@pytest.mark.parametrize("argv", [["lower", "--arch", "svd"], ["decompose", "--method", "svd"]],
                         ids=["lower", "decompose"])
def test_an_svd_past_the_float_range_gives_one_error_line(tmp_path, argv):
    path = tmp_path / "gate.json"
    path.write_text('{"entries": [[[0, 0], [0, 0]], [[1e308, 0], [1.7e308, 0]]]}')
    rc, out, err = cli.run([argv[0], str(path), *argv[1:]])
    assert (rc, out) == (2, "")
    assert err.splitlines() == [json.dumps({"error": "ParamError", "message": _OVERFLOW_MESSAGE, "exit_code": 2})]


# (1 + i) 1.7e308 * I: finite Pauli coefficients, but |alpha0| is about 2.4e308
_PAULI_OVERFLOW = np.array([[1.7e308 + 1.7e308j, 0.0], [0.0, 1.7e308 + 1.7e308j]])
_PAULI_MESSAGE = "Pauli coefficient magnitude is past max float / sqrt2, where the netlist's gains overflow"
_PAULI_TOP = sys.float_info.max / math.sqrt(2.0)


def test_a_pauli_coefficient_past_the_float_range_is_a_param_error(tmp_path, rng):
    assert pauli_decompose(GateMatrix(_PAULI_OVERFLOW))[0] == 1.7e308 + 1.7e308j
    entries = [random_unitary(rng) for _ in range(6)]
    entries[4] = _PAULI_OVERFLOW
    with pytest.raises(ParamError) as exc:
        lower_circuit(_gate_chain(*entries), "pauli")
    assert str(exc.value) == f"node 'g4': {_PAULI_MESSAGE}"
    path = tmp_path / "gate.json"
    path.write_text('{"entries": [[[1.7e308, 1.7e308], [0, 0]], [[0, 0], [1.7e308, 1.7e308]]]}')
    rc, out, err = cli.run(["lower", str(path), "--arch", "pauli"])
    assert (rc, out) == (2, "")
    assert err.splitlines() == [json.dumps({"error": "ParamError", "message": _PAULI_MESSAGE, "exit_code": 2})]


@settings(max_examples=200, deadline=None)
@given(
    parts=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8).filter(any),
    top=st.floats(0.5 * _PAULI_TOP, sys.float_info.max),
)
def test_a_pauli_netlist_near_the_float_limit_is_refused_or_carries_its_gate(parts, top):
    # a finite gate scaled so its largest Pauli coefficient is about top: refused exactly
    # when a coefficient is above max float / sqrt2, else its transfer is the gate
    entries = (np.array(parts[:4]) + 1j * np.array(parts[4:])).reshape(2, 2)
    with np.errstate(all="ignore"):
        gate = entries * (top / np.abs(pauli_decompose(GateMatrix(entries))).max())
        assume(np.isfinite(gate).all())
        largest = np.abs(pauli_decompose(GateMatrix(gate))).max()
    try:
        nl = lower_pauli_mgate(GateMatrix(gate))
    except ParamError as exc:
        assert (str(exc), largest > _PAULI_TOP) == (_PAULI_MESSAGE, True)
        return
    assert largest <= _PAULI_TOP
    tf = nl.forward_transfer()
    scale = np.abs(gate.view(float)).max()
    assert np.isfinite(tf).all()
    assert np.abs(tf / scale - gate / scale).max() <= 1e-12
