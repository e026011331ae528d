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
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
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
