import numpy as np
import pytest

from anbit import (
    AnbitState,
    GateMatrix,
    SpmParams,
    TaylorGate,
    ann_layer,
    apply,
    cartesian_compose,
    spm_gate,
    taylor_apply,
    tensor_compose,
)
from anbit.errors import DimError, ModeError, OrderError, ParamError

from conftest import random_matrix, random_state_vec


def linear_taylor(m):
    """TaylorGate whose only data is the Jacobian m at the origin."""
    comps = tuple({1: m[j]} for j in range(m.shape[0]))
    return TaylorGate(np.zeros(m.shape[1]), comps, max_order=1)


def test_taylor_order1_equals_linear_apply(rng):
    for _ in range(50):
        m = random_matrix(rng)
        g = linear_taylor(m)
        s = AnbitState(random_state_vec(rng))
        out = taylor_apply(g, s, 1)
        want = apply(GateMatrix(m), s)
        assert np.max(np.abs(out.amps - want.amps)) < 1e-14


QUAD = TaylorGate(
    np.zeros(2),
    (
        # f0 = z0^2: hessian [[2, 0], [0, 0]]
        {1: np.zeros(2), 2: np.array([[2.0, 0.0], [0.0, 0.0]])},
        # f1 = z0 z1: hessian [[0, 1], [1, 0]]
        {1: np.zeros(2), 2: np.array([[0.0, 1.0], [1.0, 0.0]])},
    ),
    max_order=2,
)


def test_taylor_quadratic_is_exact(rng):
    for _ in range(50):
        z = random_state_vec(rng)
        out = taylor_apply(QUAD, AnbitState(z), 2)
        want = np.array([z[0] ** 2, z[0] * z[1]])
        assert np.max(np.abs(out.amps - want)) < 1e-13


def test_taylor_orders_accumulate():
    # order 1 alone gives the linear part only
    z = np.array([0.3, 0.4])
    out1 = taylor_apply(QUAD, AnbitState(z), 1)
    assert np.array_equal(out1.amps, np.zeros(2))
    out2 = taylor_apply(QUAD, AnbitState(z), 2)
    assert out2.amps[0] == pytest.approx(0.09)
    assert out2.amps[1] == pytest.approx(0.12)


def cubic_gate():
    """f(z) = (z0^3 + z1, z0 z1) expanded to second order at z_ref."""
    zr = np.array([0.2, -0.1], dtype=complex)
    j = np.array([[3 * zr[0] ** 2, 1.0], [zr[1], zr[0]]])
    h0 = np.array([[6 * zr[0], 0.0], [0.0, 0.0]])
    h1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    g = TaylorGate(zr, ({1: j[0], 2: h0}, {1: j[1], 2: h1}), max_order=2)

    def f(z):
        return np.array([z[0] ** 3 + z[1], z[0] * z[1]])

    return g, f, zr


def test_taylor_second_order_tracks_smooth_map(rng):
    g, f, zr = cubic_gate()
    f_ref = f(zr)
    for _ in range(50):
        step = rng.normal(size=2) + 1j * rng.normal(size=2)
        step *= 1e-3 / np.linalg.norm(step)
        z = zr + step
        got = taylor_apply(g, AnbitState(z), 2).amps
        want = f(z) - f_ref  # gate models the response, not the offset
        assert np.max(np.abs(got - want)) < 1e-7


def test_taylor_missing_order():
    g = TaylorGate(np.zeros(2), ({1: np.zeros(2)}, {1: np.zeros(2)}), max_order=3)
    with pytest.raises(OrderError):
        taylor_apply(g, AnbitState([0.1, 0.2]), 2)


def test_taylor_order_bounds():
    g = linear_taylor(np.eye(2))
    s = AnbitState([1.0, 0.0])
    with pytest.raises(OrderError):
        taylor_apply(g, s, 0)
    with pytest.raises(OrderError):
        taylor_apply(g, s, 2)


def test_taylor_validation():
    with pytest.raises(DimError):
        TaylorGate(np.zeros(2), ({1: np.zeros(3)},))
    with pytest.raises(OrderError):
        TaylorGate(np.zeros(2), ({5: np.zeros((2,) * 5)},), max_order=4)
    with pytest.raises(DimError):
        taylor_apply(linear_taylor(np.eye(2)), AnbitState([1.0]), 1)


def test_spm_zero_strength_is_identity(rng):
    s = AnbitState(random_state_vec(rng), delta_t=0.5)
    out = spm_gate(s, SpmParams(0.0, 10.0))
    assert np.array_equal(out.amps, s.amps)
    assert out.delta_t == 0.5


def test_spm_phase_frozen():
    out = spm_gate(AnbitState([1.0, 0.0]), SpmParams(np.pi, 1.0))
    # unit power on the first arm rotates it by exactly -pi
    assert out.amps[0] == pytest.approx(-1.0, abs=1e-15)
    assert out.amps[1] == 0.0


def test_spm_conserves_power_to_ulp(rng):
    for _ in range(200):
        s = AnbitState(random_state_vec(rng))
        out = spm_gate(s, SpmParams(rng.uniform(-3, 3), rng.uniform(0, 2)))
        p_in = s.amps.real**2 + s.amps.imag**2
        p_out = out.amps.real**2 + out.amps.imag**2
        for a, b in zip(p_in, p_out):
            assert abs(a - b) <= 4.0 * np.spacing(max(a, b))


def test_spm_scalar_state():
    out = spm_gate(AnbitState([2.0]), SpmParams(0.25, 1.0))
    assert out.amps[0] == pytest.approx(2.0 * np.exp(-1j), abs=1e-14)


def test_spm_dim_guard():
    with pytest.raises(DimError):
        spm_gate(AnbitState([1.0, 0.0, 0.0]), SpmParams(1.0, 1.0))


def scalar_stack(values):
    return cartesian_compose([AnbitState([v]) for v in values])


def test_ann_layer_identity_activation(rng):
    w = GateMatrix(random_matrix(rng))
    x = scalar_stack(random_state_vec(rng))
    out = ann_layer(w, lambda z: z, x)
    assert np.max(np.abs(out.flat - w.entries @ x.flat)) < 1e-13
    assert out.part_dims == (1, 1)


def test_ann_layer_nonlinear_activation():
    w = GateMatrix(np.eye(2))
    x = scalar_stack([1.0 + 1.0j, 2.0])
    out = ann_layer(w, lambda z: z * z, x)
    assert np.allclose(out.flat, [2.0j, 4.0], atol=1e-14)


def test_ann_layer_rejects_tensor_mode(rng):
    w = GateMatrix(np.eye(4))
    x = tensor_compose([AnbitState(random_state_vec(rng)) for _ in range(2)])
    with pytest.raises(ModeError):
        ann_layer(w, lambda z: z, x)


def test_ann_layer_dim_mismatch(rng):
    w = GateMatrix(np.eye(2))
    x = scalar_stack([1.0, 2.0, 3.0])
    with pytest.raises(DimError):
        ann_layer(w, lambda z: z, x)


def test_spm_params_validation():
    with pytest.raises(ParamError):
        SpmParams(np.inf, 1.0)


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: TaylorGate([0.0, 0.0], ({1: np.eye(2)},), max_order=0), ParamError, "max_order must be >= 1"),
        (lambda: TaylorGate([0.0, 0.0], ()), DimError, "at least one output component is required"),
        (lambda: ann_layer(GateMatrix(np.eye(2)), lambda v: v, cartesian_compose([AnbitState([1.0, 0.0])])),
         ModeError, "layer input parts must all have dim 1"),
    ],
    ids=["max-order-0", "no-output-component", "layer-part-dim2"],
)
def test_nonlinear_builders_name_their_fault(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message
