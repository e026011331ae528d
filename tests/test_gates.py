import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anbit import (
    AXIS_X,
    AXIS_Y,
    AXIS_Z,
    AnbitState,
    GateClass,
    GateMatrix,
    RotationSpec,
    apply,
    apply_controlled_superposed,
    controlled,
    identity_gate,
    nand_emulate,
    pauli,
    rotation_matrix,
)
from anbit import gates
from anbit.errors import AxisError, DimError, ParamError
from anbit.gates import CLASSIFY_TOL, MAX_CONTROLS, MAX_DENSE_CONTROLS, SINGULAR_RTOL, _unitary2

from conftest import random_matrix, random_state_vec, random_unitary

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_pauli_matrices():
    assert np.array_equal(pauli(0).entries, np.eye(2))
    assert np.array_equal(pauli(1).entries, SX)
    assert np.array_equal(pauli(2).entries, SY)
    assert np.array_equal(pauli(3).entries, SZ)
    with pytest.raises(IndexError):
        pauli(4)


def test_gate_matrix_frozen():
    g = pauli(1)
    with pytest.raises(ValueError):
        g.entries[0, 0] = 5.0
    x = np.eye(2, dtype=complex)
    h = GateMatrix(x)  # a caller's array is copied, never adopted
    x[0, 0] = 5.0
    assert h.entries[0, 0] == 1.0 and not h.entries.flags.writeable
    with pytest.raises(ValueError, match="complex"):
        GateMatrix(b"abcd")  # bytes are not a buffer to adopt: numpy's own conversion error

def test_identity_gate():
    assert np.array_equal(identity_gate().entries, np.eye(2))
    assert np.array_equal(identity_gate(4).entries, np.eye(4))


def test_rotation_spec_validation():
    with pytest.raises(AxisError):
        RotationSpec((1.0, 1.0), 0.5)
    with pytest.raises(AxisError):
        RotationSpec((1.0, 1.0, 0.0), 0.5)  # not unit length
    for axis in ((float("nan"), 0.0, 1.0), (1e308, 0.5, 0.9), (float("inf"), 0.0, 0.0)):
        with pytest.raises(AxisError):
            RotationSpec(axis, 0.5)


def test_rotation_matrix_z():
    g = rotation_matrix(RotationSpec(AXIS_Z, np.pi / 2.0))
    want = np.diag([np.exp(-0.25j * np.pi), np.exp(0.25j * np.pi)])
    assert np.allclose(g.entries, want, atol=1e-15)


def test_rotation_matrix_x_pi_is_pauli_up_to_phase():
    g = rotation_matrix(RotationSpec(AXIS_X, np.pi))
    assert np.allclose(g.entries, -1j * SX, atol=1e-15)
    # adding global phase pi/2 lands exactly on sigma_x
    g = rotation_matrix(RotationSpec(AXIS_X, np.pi, global_phase=np.pi / 2.0))
    assert np.allclose(g.entries, SX, atol=1e-15)


def test_rotation_matrix_y():
    a = 0.7
    g = rotation_matrix(RotationSpec(AXIS_Y, a))
    c, s = np.cos(a / 2.0), np.sin(a / 2.0)
    assert np.allclose(g.entries, [[c, -s], [s, c]], atol=1e-15)


def test_rotation_is_unitary(rng):
    for _ in range(20):
        ax = rng.normal(size=3)
        ax /= np.linalg.norm(ax)
        g = rotation_matrix(RotationSpec(tuple(ax), rng.uniform(0, 2 * np.pi)))
        assert np.allclose(g.entries.conj().T @ g.entries, np.eye(2), atol=1e-14)


def _scalar_rotation(axis, angle, phase):
    # the entry-by-entry formula on scalars, sin(a/2) as a Python complex so every term
    # is CPython's complex product: the reference of the stacked builder
    nx, ny, nz = axis
    c, s = np.cos(0.5 * angle), complex(np.sin(0.5 * angle))
    rot = np.array([[c - 1j * nz * s, -(ny + 1j * nx) * s], [(ny - 1j * nx) * s, c + 1j * nz * s]], dtype=complex)
    return np.exp(1j * phase) * rot


_SIGNED_AXES = [(0.0, 0.0, 1.0), (-0.0, -0.0, -1.0), (1.0, 0.0, -0.0), (-0.0, -1.0, 0.0), (0.6, 0.0, -0.8)]


@settings(max_examples=60, deadline=None)
@given(
    axis=st.sampled_from(_SIGNED_AXES)
    | st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1).map(
        lambda v: tuple((np.array(v) / np.linalg.norm(v)).tolist())
    ),
    angles=st.lists(st.sampled_from([0.0, -0.0, np.pi, -2.0 * np.pi]) | st.floats(-1e3, 1e3), min_size=1, max_size=40),
    phase=st.sampled_from([0.0, -0.0, np.pi]) | st.floats(-10.0, 10.0),
)
def test_rotation_stack_is_the_scalar_formula_bit_for_bit(axis, angles, phase):
    # signed zeros included: they set arg() of zero entries, and so phi, on the sphere
    stack = gates._rotation_stack(axis, angles, phase)
    want = np.array([_scalar_rotation(axis, a, phase) for a in angles])
    assert stack.shape == want.shape and stack.tobytes() == want.tobytes()
    one = rotation_matrix(RotationSpec(axis, angles[0], phase)).entries
    assert one.tobytes() == want[0].tobytes()


def test_apply(rng):
    g = GateMatrix(random_matrix(rng))
    s = AnbitState(random_state_vec(rng), delta_t=0.25)
    out = apply(g, s)
    assert np.allclose(out.amps, g.entries @ s.amps)
    assert out.delta_t == 0.25


def test_apply_dim_mismatch():
    with pytest.raises(DimError):
        apply(identity_gate(2), AnbitState([1.0, 0.0, 0.0]))


def test_classify_unitary(rng):
    for _ in range(20):
        assert GateMatrix(random_unitary(rng)).gate_class is GateClass.UNITARY


def test_classify_general_linear():
    g = GateMatrix([[2.0, 0.0], [0.0, 1.0]])
    assert g.gate_class is GateClass.GENERAL_LINEAR


def test_classify_singular():
    g = GateMatrix([[1.0, 1.0], [1.0, 1.0]])
    assert g.gate_class is GateClass.SINGULAR
    assert GateMatrix(np.zeros((2, 2))).gate_class is GateClass.SINGULAR


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_classify_non_finite_is_general_linear():
    for bad in (np.inf, -np.inf, np.nan):
        assert GateMatrix([[bad, 0.0], [0.0, 1.0]]).gate_class is GateClass.GENERAL_LINEAR


def dense_gram_dev(m):
    """||F^dag F - I||_F by dense numpy, the unitarity test of every dim."""
    return np.linalg.norm(m.conj().T @ m - np.eye(len(m)))


def dense_rule(m):
    """The gate class by the dense Gram test and the relative sigma_min test."""
    if dense_gram_dev(m) <= CLASSIFY_TOL * len(m):
        return GateClass.UNITARY
    if np.isfinite(m).all():
        sigma = np.linalg.svd(m, compute_uv=False)
        if sigma[-1] <= SINGULAR_RTOL * sigma[0]:
            return GateClass.SINGULAR
    return GateClass.GENERAL_LINEAR


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["haar", "census", "perturbed", "non-finite"]),
    st.floats(-13.0, -5.0),
    st.sampled_from([np.inf, -np.inf, np.nan]),
)
def test_dim2_unitarity_test_agrees_with_the_dense_one(seed, family, log_eps, bad):
    rng = np.random.default_rng(seed)
    if family == "haar":
        m = random_unitary(rng)
    elif family == "census":
        m = random_matrix(rng)
    elif family == "perturbed":
        # U + eps G, away from a factor-2 band around the threshold
        m = random_unitary(rng) + 10.0**log_eps * random_matrix(rng)
        dev, limit = dense_gram_dev(m), CLASSIFY_TOL * 2
        assume(not 0.5 * limit <= dev <= 2.0 * limit)
    else:
        m = random_matrix(rng)
        m[rng.integers(2), rng.integers(2)] = bad
    unitary = bool(dense_gram_dev(m) <= CLASSIFY_TOL * 2)
    assert _unitary2(m.tolist()) == unitary
    assert GateMatrix(m).gate_class is dense_rule(m)
    if family == "non-finite":
        assert GateMatrix(m).gate_class is GateClass.GENERAL_LINEAR


def test_dim2_unitarity_test_on_huge_entries_is_not_unitary():
    # squares of 1e200 overflow to inf: a deviation of inf, never an exception
    assert _unitary2([[1e200 + 0j, 0j], [0j, 1e200 + 0j]]) is False
    assert GateMatrix([[1e200, 0.0], [0.0, 1e200]]).gate_class is GateClass.GENERAL_LINEAR


def test_classify_precedence_identity():
    # unitary wins over general linear for the identity
    assert identity_gate().gate_class is GateClass.UNITARY


def with_singular_values(seed, s):
    """U diag(s) V^dag for Haar unitaries U, V of dim len(s), drawn from seed."""
    rng = np.random.default_rng(seed)

    def haar(d):
        q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    return haar(len(s)) @ np.diag(s) @ haar(len(s)).conj().T


# Past |entries| ~ 1e77 the unitarity test's Gram deviation overflows to inf,
# which rightly reads as "not unitary".
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4),
    st.booleans(),
    st.integers(-100, 100),
    st.floats(0.0, 2.0 * np.pi),
)
def test_singular_split_is_invariant_under_scaling(seed, s, drop, k, theta):
    # singular values in [1e-3, 1e3], or one of them exactly 0: the gate is
    # invertible with condition <= 1e6, or rank deficient, at every scale
    f = with_singular_values(seed, [0.0] + s[1:] if drop else s)
    c = 10.0**k * np.exp(1j * theta)
    assert (GateMatrix(f).gate_class is GateClass.SINGULAR) == drop
    assert (GateMatrix(c * f).gate_class is GateClass.SINGULAR) == drop


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(1e-3, 1e3),
    st.floats(1e-3, 1e3),
    st.booleans(),
    st.integers(1, MAX_DENSE_CONTROLS),
)
def test_controlled_keeps_target_invertibility(seed, s0, s1, drop, n):
    # block-diag(I, F) has singular values {1} and sigma(F); with sigma(F) in
    # [1e-3, 1e3] (or one of them 0) its split follows F's at every n
    f = GateMatrix(with_singular_values(seed, [0.0 if drop else s0, s1]))
    embedded = controlled(f, n).embedded
    assert (f.gate_class is GateClass.SINGULAR) == drop
    assert (embedded.gate_class is GateClass.SINGULAR) == drop


def test_controlled_is_structural_and_dense_embedding_is_capped(monkeypatch):
    identities = []
    real_eye = np.eye

    def guarded_eye(n, *args, **kwargs):
        identities.append(n)
        if n > 2 ** (MAX_DENSE_CONTROLS + 1):
            raise MemoryError(f"dense {n} x {n} identity requested")
        return real_eye(n, *args, **kwargs)

    monkeypatch.setattr(np, "eye", guarded_eye)
    f = GateMatrix([[2.0, 0.0], [0.0, 0.5]])
    tracemalloc.start()
    try:
        cg = controlled(f, MAX_CONTROLS)
        with pytest.raises(ParamError):
            cg.embedded
        with pytest.raises(ParamError):
            controlled(f, MAX_DENSE_CONTROLS + 1).embedded
        nand = [nand_emulate(b1, b2) for b1 in (0, 1) for b2 in (0, 1)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert identities == [] and peak < 2**16
    assert cg.n_controls == MAX_CONTROLS and cg.target_gate is f
    assert nand == [1, 1, 1, 0]
    assert controlled(f, MAX_DENSE_CONTROLS).embedded.dim == 2 ** (MAX_DENSE_CONTROLS + 1)


def test_controlled_embedding_shape_and_det(rng):
    for n in (1, 2, 3):
        f = GateMatrix(random_matrix(rng))
        cg = controlled(f, n)
        assert cg.embedded.dim == 2 ** (n + 1)
        assert cg.embedded.det == pytest.approx(f.det, abs=1e-12)


def test_controlled_identity_off_block(rng):
    f = GateMatrix(random_matrix(rng))
    emb = controlled(f, 2).embedded.entries
    assert np.array_equal(emb[:6, :6], np.eye(6))
    assert np.array_equal(emb[6:, 6:], f.entries)


def test_controlled_bounds():
    with pytest.raises(ParamError):
        controlled(pauli(1), 0)
    with pytest.raises(ParamError):
        controlled(pauli(1), 17)
    with pytest.raises(DimError):
        controlled(identity_gate(4), 1)


def cnot_out(c, t):
    emb = controlled(pauli(1), 1).embedded.entries
    vec = np.zeros(4, dtype=complex)
    vec[2 * c + t] = 1.0
    out = emb @ vec
    return int(np.argmax(np.abs(out)))


def test_cnot_truth_table():
    assert cnot_out(0, 0) == 0b00
    assert cnot_out(0, 1) == 0b01
    assert cnot_out(1, 0) == 0b11
    assert cnot_out(1, 1) == 0b10


def toffoli_out(c1, c2, t):
    emb = controlled(pauli(1), 2).embedded.entries
    vec = np.zeros(8, dtype=complex)
    vec[4 * c1 + 2 * c2 + t] = 1.0
    out = emb @ vec
    return int(np.argmax(np.abs(out)))


def test_toffoli_truth_table():
    for c1 in (0, 1):
        for c2 in (0, 1):
            for t in (0, 1):
                got = toffoli_out(c1, c2, t)
                want_t = t ^ (c1 & c2)
                assert got == 4 * c1 + 2 * c2 + want_t


def test_apply_controlled_superposed(rng):
    f = GateMatrix(random_unitary(rng))
    cg = controlled(f, 1)
    c = AnbitState([0.6, 0.8j])
    t = AnbitState(random_state_vec(rng))
    out = apply_controlled_superposed(cg, c, t)
    want = np.concatenate([0.6 * t.amps, 0.8j * (f.entries @ t.amps)])
    assert np.allclose(out.flat, want, atol=1e-14)
    assert out.part_dims == (2, 2)


def test_apply_controlled_superposed_one_control_only(rng):
    cg = controlled(pauli(1), 2)
    s = AnbitState([1.0, 0.0])
    with pytest.raises(ParamError):
        apply_controlled_superposed(cg, s, s)


def test_nand_truth_table():
    assert nand_emulate(0, 0) == 1
    assert nand_emulate(0, 1) == 1
    assert nand_emulate(1, 0) == 1
    assert nand_emulate(1, 1) == 0
    with pytest.raises(ParamError):
        nand_emulate(2, 0)


def test_superposed_application_needs_dim2_states():
    with pytest.raises(DimError) as exc:
        apply_controlled_superposed(controlled(pauli(1), 1), AnbitState(np.ones(3)), AnbitState([1.0, 0.0]))
    assert str(exc.value) == "control and target must have dim 2"
