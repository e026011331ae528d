import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anbit import (
    CARTESIAN,
    TENSOR,
    AnbitState,
    BlochPoint,
    CompositeState,
    cartesian_compose,
    from_bloch,
    inner_product,
    normalize_global_phase,
    null_state,
    tensor_compose,
    to_bloch,
    values_close,
)
from anbit.algebra import _bloch_columns
from anbit.errors import DegenerateStateError, DimError, ParamError

from conftest import random_state_vec


def test_state_basics():
    s = AnbitState([1.0, 2.0j])
    assert s.dim == 2
    assert s.delta_t is None
    t = AnbitState([0.5], delta_t=1.5)
    assert t.dim == 1
    assert t.delta_t == 1.5


def test_state_rejects_empty():
    with pytest.raises(DimError):
        AnbitState([])


def test_null_state():
    z = null_state(3)
    assert z.dim == 3
    assert np.array_equal(z.amps, np.zeros(3, dtype=complex))


def test_values_close():
    assert values_close(1.0, 1.0 + 5e-13)
    assert not values_close(1.0, 1.0 + 1e-8)
    # relative term kicks in for large magnitudes
    assert values_close(1e6, 1e6 * (1 + 1e-10))


def test_inner_product_conjugate_symmetry(rng):
    for _ in range(50):
        a = AnbitState(random_state_vec(rng))
        b = AnbitState(random_state_vec(rng))
        assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))


def test_inner_product_frozen():
    a = AnbitState([1.0, 1.0j])
    b = AnbitState([1.0j, 1.0])
    # conj(a) . b = (1)(i) + (-i)(1) = 0
    assert inner_product(a, b) == pytest.approx(0.0)
    assert inner_product(a, a) == pytest.approx(2.0)


def test_inner_product_dim_mismatch():
    with pytest.raises(DimError):
        inner_product(AnbitState([1.0]), AnbitState([1.0, 0.0]))


def test_tensor_dims_multiply(rng):
    a = AnbitState(random_state_vec(rng, 2))
    b = AnbitState(random_state_vec(rng, 3))
    c = tensor_compose([a, b])
    assert c.mode == TENSOR
    assert c.dim == 6
    assert np.allclose(c.flat, np.kron(a.amps, b.amps))


def test_cartesian_dims_add(rng):
    a = AnbitState(random_state_vec(rng, 2))
    b = AnbitState(random_state_vec(rng, 3))
    c = cartesian_compose([a, b])
    assert c.mode == CARTESIAN
    assert c.dim == 5
    assert np.allclose(c.flat, np.concatenate([a.amps, b.amps]))


def test_composition_is_ordered(rng):
    # swapping the parts changes the flat vector for generic inputs
    a = AnbitState([1.0, 0.0])
    b = AnbitState([0.0, 1.0])
    assert not np.array_equal(tensor_compose([a, b]).flat, tensor_compose([b, a]).flat)
    assert not np.array_equal(
        cartesian_compose([a, b]).flat, cartesian_compose([b, a]).flat
    )


def test_to_bloch_north_pole():
    p = to_bloch(AnbitState([1.0, 0.0]))
    assert p.radius == pytest.approx(1.0)
    assert p.theta == pytest.approx(0.0)
    assert p.phi == pytest.approx(0.0)


def test_to_bloch_south_pole():
    p = to_bloch(AnbitState([0.0, 1.0]))
    assert p.radius == pytest.approx(1.0)
    assert p.theta == pytest.approx(np.pi)
    assert p.phi == pytest.approx(0.0)


def test_to_bloch_equator():
    s = AnbitState(np.array([1.0, 1.0]) / np.sqrt(2.0))
    p = to_bloch(s)
    assert p.radius == pytest.approx(1.0)
    assert p.theta == pytest.approx(np.pi / 2.0)
    assert p.phi == pytest.approx(0.0)


def test_to_bloch_null_raises():
    with pytest.raises(DegenerateStateError):
        to_bloch(null_state(2))


@pytest.mark.parametrize("scale", [1e300, 1e-200, 5e-324], ids=["squares-overflow", "squares-underflow", "subnormal"])
def test_to_bloch_radius_beyond_the_range_of_its_square(scale):
    # P = |a0|^2 + |a1|^2 leaves the floats, the radius sqrt(P) does not
    a = np.array([3.0, 4.0j]) * scale
    b = to_bloch(AnbitState(a))
    assert b.radius == pytest.approx(5.0 * scale, rel=1e-15)
    assert b.theta == pytest.approx(2.0 * np.arctan2(4.0, 3.0), rel=1e-15)
    assert b.phi == pytest.approx(0.5 * np.pi, rel=1e-15)


def test_to_bloch_radius_past_the_float_limit_is_inf():
    assert to_bloch(AnbitState([1.5e308, 1.5e308])).radius == np.inf


def _scalar_bloch(a0: complex, a1: complex) -> tuple:
    # radius, theta, phi of one state on Python and numpy scalars: the reference of the column rule
    z0, z1 = complex(a0), complex(a1)
    p = z0.real * z0.real + z0.imag * z0.imag + (z1.real * z1.real + z1.imag * z1.imag)
    radius = math.hypot(z0.real, z0.imag, z1.real, z1.imag) if p in (0.0, math.inf) else math.sqrt(p)
    a0, a1 = np.complex128(a0), np.complex128(a1)
    theta = float(2.0 * np.arctan2(abs(a1), abs(a0)))
    phi = float(np.angle(a1) - np.angle(a0)) % (2.0 * np.pi)
    return radius, theta, phi - 2.0 * np.pi if phi >= 2.0 * np.pi else phi


_PARTS = st.sampled_from([0.0, -0.0, 1e-320, 1e-200, 1e300, -1e300, 1.5e308]) | st.floats(-5.0, 5.0)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(*[_PARTS] * 4).filter(any), min_size=1, max_size=60))
def test_bloch_columns_are_the_scalar_formula_bit_for_bit(rows):
    # each modulus is hypot(re, im): numpy's complex abs on arrays differs in the last bit
    amps = np.array([[complex(a, b), complex(c, d)] for a, b, c, d in rows])
    radius, theta, phi = _bloch_columns(amps)
    want = np.array([_scalar_bloch(*row) for row in amps.tolist()])
    assert np.column_stack([radius, theta, phi]).tobytes() == want.tobytes()
    point = to_bloch(AnbitState(amps[0]))
    assert (point.radius, point.theta, point.phi) == tuple(want[0])


def test_to_bloch_dim_guard():
    with pytest.raises(DimError):
        to_bloch(AnbitState([1.0, 0.0, 0.0]))


def test_from_bloch_poles():
    s = from_bloch(BlochPoint(1.0, 0.0, 2.3))
    assert np.allclose(s.amps, [1.0, 0.0], atol=1e-15)
    s = from_bloch(BlochPoint(2.0, np.pi, np.pi / 2.0))
    assert np.allclose(s.amps, [0.0, 2.0j], atol=1e-15)


def test_from_bloch_equator_quadrature():
    s = from_bloch(BlochPoint(1.0, np.pi / 2.0, np.pi / 2.0))
    assert np.allclose(s.amps, np.array([1.0, 1.0j]) / np.sqrt(2.0), atol=1e-15)


def test_bloch_point_validation():
    with pytest.raises(ParamError):
        BlochPoint(-0.1, 0.0, 0.0)
    with pytest.raises(ParamError):
        BlochPoint(1.0, 3.5, 0.0)
    # phi is wrapped, not rejected
    assert BlochPoint(1.0, 1.0, -np.pi / 2.0).phi == pytest.approx(3.0 * np.pi / 2.0)


def test_bloch_round_trip(rng):
    for _ in range(200):
        v = random_state_vec(rng)
        s = AnbitState(v)
        back = from_bloch(to_bloch(s))
        want = normalize_global_phase(s)
        assert np.allclose(back.amps, want.amps, atol=1e-12)


def test_to_bloch_global_phase_invariant(rng):
    for _ in range(100):
        s = AnbitState(random_state_vec(rng))
        g = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        p1 = to_bloch(s)
        p2 = to_bloch(AnbitState(g * s.amps))
        assert p1.radius == pytest.approx(p2.radius, abs=1e-12)
        assert p1.theta == pytest.approx(p2.theta, abs=1e-12)
        assert np.exp(1j * p1.phi) == pytest.approx(np.exp(1j * p2.phi), abs=1e-12)


def test_normalize_global_phase_examples():
    s = normalize_global_phase(AnbitState([1.0j, 1.0j]))
    assert np.allclose(s.amps, [1.0, 1.0], atol=1e-15)
    s = normalize_global_phase(AnbitState([0.0, 2.0j]))
    assert np.allclose(s.amps, [0.0, 2.0], atol=1e-15)
    s = normalize_global_phase(AnbitState([1.0, 1.0j]))
    assert np.allclose(s.amps, [1.0, 1.0j], atol=1e-15)


def test_normalize_global_phase_null_unchanged():
    z = normalize_global_phase(null_state(2))
    assert np.array_equal(z.amps, np.zeros(2, dtype=complex))


def test_composite_state_product_parts(rng):
    a = AnbitState(random_state_vec(rng, 2))
    b = AnbitState(random_state_vec(rng, 2))
    c = tensor_compose([a, b])
    assert c.part_dims == (2, 2)
    assert len(c.parts) == 2
    assert np.allclose(c.parts[0].amps, a.amps)


def test_composite_state_direct_construction():
    flat = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)
    c = CompositeState(TENSOR, flat, (2, 2), parts=None)
    assert c.dim == 4
    assert c.parts is None


@settings(max_examples=60, deadline=None)
@given(
    re0=st.floats(-5, 5),
    im0=st.floats(-5, 5),
    re1=st.floats(-5, 5),
    im1=st.floats(-5, 5),
)
def test_bloch_round_trip_hypothesis(re0, im0, re1, im1):
    v = np.array([re0 + 1j * im0, re1 + 1j * im1])
    # away from the south pole, where the two phase canonicalizations differ
    if np.abs(v[0]) < 1e-3 or np.sum(np.abs(v) ** 2) < 1e-6:
        return
    s = AnbitState(v)
    back = from_bloch(to_bloch(s))
    want = normalize_global_phase(s)
    assert np.allclose(back.amps, want.amps, atol=1e-10)


def test_bloch_round_trip_at_pole_up_to_phase():
    # a0 = 0: round trip preserves the point, not the phase convention
    s = AnbitState([0.0, 1.0j])
    back = from_bloch(to_bloch(s))
    assert abs(back.amps[0]) < 1e-12
    assert abs(back.amps[1]) == pytest.approx(1.0, abs=1e-12)
    p1, p2 = to_bloch(s), to_bloch(back)
    assert p1.theta == pytest.approx(p2.theta, abs=1e-12)
    assert p1.radius == pytest.approx(p2.radius, abs=1e-12)
