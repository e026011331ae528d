"""Independent references and output checkers for the benchmark.

Nothing here imports anbit. Every expected value is rebuilt with numpy from
the generator's own description of an input, so a defect in the package
cannot hide inside its own reference. Circuit transfers are composed in
extended precision (complex long double) so the reference is more accurate
than the double-precision code under test.

A check returns None when the output is right, or a failure tag. Tags named
in KNOWN_SEED_FAILURES are defects measured at the seed and counted as
failures like any other; every other tag marks the run incorrect.
"""

from __future__ import annotations

import json

import numpy as np

# The one tolerance of every check: relative error in the Frobenius norm.
# It is not widened to absorb a defect; see KNOWN_SEED_FAILURES.
TOL = 1e-9

KNOWN_SEED_FAILURES = {
    "spurious_singular": (
        "simulate exits 3 (LoopSingularError) on a circuit whose every feedback "
        "resolvent is well conditioned, e.g. an acyclic gain chain: solve judges "
        "singularity by the condition of the whole edge system"
    ),
    "gain_chain_accuracy": (
        "result of a circuit with G-gates misses TOL by less than 1e-6 "
        "(about 1e-8 accuracy loss on long gain chains)"
    ),
    "controlled_singular_label": (
        "controlled(F, n) with dim >= 16 is labelled SINGULAR although F is invertible"
    ),
    "svd_unitary_class_error": (
        "lower --arch svd exits 4 (ClassError) on a unitary gate: svd2 returns a "
        "factor about 1.5e-8 off unitary, which euler_zxz then rejects"
    ),
}

# Upper end of the accuracy loss recorded as the known gain-chain defect.
_GAIN_LOSS_CEILING = 1e-6

_CLD = np.clongdouble
_SIGMA = (
    np.array([[1, 0], [0, 1]], dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def rel_err(got, want) -> float:
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        return float("inf")
    scale = float(np.linalg.norm(want))
    return float(np.linalg.norm(got - want)) / (scale if scale > 0.0 else 1.0)


def _inv2(m):
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=_CLD) / det


def loop_matrix(m1, m2, n1, n2, m2p):
    """Single-anbit loop closed form n1 n2 (I - n1 m2p M1 M2)^-1 M1 (paper, eq. for M_eq)."""
    a, b = np.asarray(m1, dtype=_CLD), np.asarray(m2, dtype=_CLD)
    g = np.eye(2, dtype=_CLD) - n1 * m2p * (a @ b)
    return n1 * n2 * (_inv2(g) @ a)


def loop_conditioned(m1, m2, n1, m2p) -> bool:
    """True when the loop resolvent I - n1 m2p M1 M2 is far from singular."""
    g = np.eye(2) - n1 * m2p * (np.asarray(m1) @ np.asarray(m2))
    s = np.linalg.svd(g, compute_uv=False)
    return bool(s[-1] > 1e-6 * s[0])


def two_loop_matrices(m1, m2, n1, n2, n3, n4, m3, m4):
    """Crossed two-anbit loop operators (A1, A2, B1, B2) in closed form."""
    a, b = np.asarray(m1, dtype=_CLD), np.asarray(m2, dtype=_CLD)
    eye = np.eye(2, dtype=_CLD)
    k = n1 * n2 * m3 * m4
    ga = _inv2(eye - k * (a @ b))
    gb = _inv2(eye - k * (b @ a))
    return (
        n1 * n3 * (ga @ a),
        n1 * n2 * n3 * m4 * (ga @ a @ b),
        n1 * n2 * m3 * n4 * (gb @ b @ a),
        n2 * n4 * (gb @ b),
    )


def stage_matrix(stage):
    """Transfer of one generator stage on the single signal pair."""
    kind = stage[0]
    if kind == "gate":
        return np.asarray(stage[1], dtype=_CLD)
    if kind == "rung":
        _, branch_a, branch_b, (fo_n, fo_m), (fi_n, _fi_m) = stage
        pa = np.eye(2, dtype=_CLD)
        for m in branch_a:
            pa = np.asarray(m, dtype=_CLD) @ pa
        pb = np.eye(2, dtype=_CLD)
        for m in branch_b:
            pb = np.asarray(m, dtype=_CLD) @ pb
        return fi_n * (fo_n * pa + fo_m * pb)
    if kind == "loop":
        _, m1, m2, n1, n2, m2p = stage
        return loop_matrix(m1, m2, n1, n2, m2p)
    raise ValueError(f"unknown stage {kind!r}")


def circuit_matrix(stages) -> np.ndarray:
    """Source-to-sink transfer of a staged circuit, propagated directly."""
    t = np.eye(2, dtype=_CLD)
    for stage in stages:
        t = stage_matrix(stage) @ t
    return t.astype(complex)


def rotation(axis, angle, phase=0.0) -> np.ndarray:
    """e^(i phase) (cos(a/2) I - i sin(a/2) n.sigma)."""
    nx, ny, nz = axis
    ns = nx * _SIGMA[1] + ny * _SIGMA[2] + nz * _SIGMA[3]
    return np.exp(1j * phase) * (np.cos(0.5 * angle) * _SIGMA[0] - 1j * np.sin(0.5 * angle) * ns)


def mostow_target(u, a, b) -> np.ndarray:
    """u . e^(iA) . e^B with A = [[0, a], [-a, 0]] and B real symmetric."""
    ch, sh = np.cosh(a), np.sinh(a)
    e_ia = np.array([[ch, 1j * sh], [-1j * sh, ch]])
    w, v = np.linalg.eigh(np.asarray(b, dtype=float))
    e_b = v @ np.diag(np.exp(w)) @ v.T
    return np.asarray(u) @ e_ia @ e_b


def fanin_matrix(n, m) -> np.ndarray:
    i2 = np.eye(2)
    return np.block([[n * i2, n * i2], [m * i2, -m * i2]])


def gate_class(m) -> str:
    """Class by the package's definitions, decided with a well-posed test."""
    m = np.asarray(m, dtype=complex)
    d = m.shape[0]
    if np.linalg.norm(m.conj().T @ m - np.eye(d)) <= 1e-9 * d:
        return "unitary"
    s = np.linalg.svd(m, compute_uv=False)
    return "singular" if s[-1] <= 1e-12 * s[0] else "general_linear"


# --- parsing of CLI output ----------------------------------------------------

def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def _matrix(rows) -> np.ndarray:
    return np.array([[_c(v) for v in row] for row in rows], dtype=complex)


def _failed_call(outs):
    """(exit code, error name) of the first CLI call that did not exit 0, or None."""
    for rc, _out, err in outs:
        if rc != 0:
            try:
                name = json.loads(err.strip().splitlines()[-1])["error"]
            except (ValueError, KeyError, IndexError):
                name = "unknown"
            return rc, name
    return None


def _within(err: float, gain: bool):
    if err <= TOL:
        return None
    if gain and err <= _GAIN_LOSS_CEILING:
        return "gain_chain_accuracy"
    return f"outside_tolerance:{err:.3e}"


# --- checks, one per job kind ----------------------------------------------------

def check_simulate(outs, want: dict, gain: bool, loops_ok: bool):
    """Sink states against directly propagated references (want: sink -> vector)."""
    failed = _failed_call(outs)
    if failed is not None:
        rc, name = failed
        if rc == 3 and name == "LoopSingularError" and loops_ok:
            return "spurious_singular"
        return f"exit{rc}:{name}"
    got_obj = json.loads(outs[0][1])["outputs"]
    sinks = sorted(want)
    if sorted(got_obj) != sinks:
        return "wrong_sinks"
    got = np.concatenate([[_c(v) for v in got_obj[s]["amps"]] for s in sinks])
    ref = np.concatenate([want[s] for s in sinks])
    return _within(rel_err(got, ref), gain)


def check_analyze(outs, want: np.ndarray, gain: bool, unitary_svd: bool):
    """Forward block of the analyze report against the circuit or gate matrix.

    unitary_svd: the input was lowered with the svd architecture and holds a
    unitary gate.
    """
    failed = _failed_call(outs)
    if failed is not None:
        if unitary_svd and len(outs) == 1 and failed == (4, "ClassError"):
            return "svd_unitary_class_error"
        return f"exit{failed[0]}:{failed[1]}"
    report = json.loads(outs[-1][1])
    s = _matrix(report["s_matrix"])
    n_in = want.shape[1]
    if s.shape != (n_in + want.shape[0],) * 2:
        return "wrong_shape"
    if not report["reciprocal"]:
        return "not_reciprocal"
    return _within(rel_err(s[n_in:, :n_in], want), gain)


def check_decompose(outs, method: str, want: np.ndarray):
    """Factors rebuilt in numpy against the input gate."""
    failed = _failed_call(outs)
    if failed is not None:
        return f"exit{failed[0]}:{failed[1]}"
    f = {item["name"]: item for item in json.loads(outs[0][1])["factors"]}
    if method in ("euler-zxz", "euler-zyz"):
        mid = (1.0, 0.0, 0.0) if method == "euler-zxz" else (0.0, 1.0, 0.0)
        z = (0.0, 0.0, 1.0)
        got = (
            np.exp(1j * f["delta"]["value"])
            * rotation(z, f["alpha3"]["value"])
            @ rotation(mid, f["alpha2"]["value"])
            @ rotation(z, f["alpha1"]["value"])
        )
    elif method == "svd":
        u2, u1 = _matrix(f["u2"]["matrix"]), _matrix(f["u1"]["matrix"])
        d1, d2 = f["d1"]["value"], f["d2"]["value"]
        if not d1 >= d2 >= 0.0:
            return "svd_order"
        for u in (u1, u2):
            if rel_err(u.conj().T @ u, np.eye(2)) > TOL:
                return "svd_not_unitary"
        got = u2 @ np.diag([d1, d2]) @ u1
    elif method == "pauli":
        got = sum(_c(f[f"alpha{k}"]["value"]) * _SIGMA[k] for k in range(4))
    else:  # mostow-synth: five stages in product order
        got = np.eye(2, dtype=complex)
        for name in ("u_u1", "lam1", "u1_dag_u2", "lam2", "u2_dag"):
            got = got @ _matrix(f[name]["matrix"])
    return _within(rel_err(got, want), False)


def check_measure(outs, kind: str, r: float, amps: np.ndarray):
    failed = _failed_call(outs)
    if failed is not None:
        return f"exit{failed[0]}:{failed[1]}"
    rec = json.loads(outs[0][1])
    a0, a1 = amps
    if kind == "coherent":
        want_i = r * np.array([a0.real, a0.imag, a1.real, a1.imag])
        want_state = r * amps
    else:
        want_i = r * np.array([abs(a0) ** 2, abs(a1) ** 2])
        phase = np.angle(a1 * np.conj(a0))
        want_state = np.array([want_i[0], want_i[1] * np.exp(1j * phase)])
    got_state = np.array([_c(v) for v in rec["recovered"]["amps"]])
    err = max(rel_err(rec["photocurrents"], want_i), rel_err(got_state, want_state))
    return _within(err, False)


def check_trajectory(outs, states: list):
    """Each CSV row's sphere point against the reference output state.

    Compared through the projector psi psi^dag and the radius, which are
    independent of the global phase the sphere coordinates drop.
    """
    failed = _failed_call(outs)
    if failed is not None:
        return f"exit{failed[0]}:{failed[1]}"
    rows = outs[0][1].strip().splitlines()[1:]
    if len(rows) != len(states):
        return "wrong_row_count"
    worst = 0.0
    for row, psi in zip(rows, states):
        _k, radius, theta, phi = (float(v) for v in row.split(","))
        got = radius * np.array([np.cos(0.5 * theta), np.sin(0.5 * theta) * np.exp(1j * phi)])
        worst = max(
            worst,
            rel_err(np.outer(got, got.conj()), np.outer(psi, psi.conj())),
            abs(radius - np.linalg.norm(psi)) / np.linalg.norm(psi),
        )
    return _within(worst, False)


def check_controlled(got_class: str, target, n: int):
    want = gate_class(target)
    if got_class == want:
        return None
    if got_class == "singular" and want != "singular" and 2 ** (n + 1) >= 16:
        return "controlled_singular_label"
    return f"class:{got_class}!={want}"
