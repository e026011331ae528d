import numpy as np
import pytest

from anbit import (
    KIND_COHERENT,
    KIND_DIFFERENTIAL,
    AnbitState,
    measure_coherent,
    measure_differential,
)
from anbit.errors import DimError, ParamError

from conftest import random_state_vec

EQUATOR = AnbitState(np.array([1.0, 1.0j]) / np.sqrt(2.0))


def test_coherent_frozen():
    rec = measure_coherent(EQUATOR, 1.0)
    assert rec.kind == KIND_COHERENT
    assert rec.photocurrents == (
        0.7071067811865475,
        0.0,
        0.0,
        0.7071067811865475,
    )
    assert rec.edf == 4
    assert rec.phase is None
    assert np.array_equal(rec.recovered.amps, EQUATOR.amps)


def test_coherent_scales_with_responsivity(rng):
    s = AnbitState(random_state_vec(rng))
    rec = measure_coherent(s, 2.5)
    assert np.allclose(rec.recovered.amps, 2.5 * s.amps, atol=1e-15)
    assert rec.photocurrents[0] == pytest.approx(2.5 * s.amps[0].real)


def test_coherent_round_trip(rng):
    for _ in range(200):
        s = AnbitState(random_state_vec(rng))
        r = rng.uniform(0.5, 3.0)
        rec = measure_coherent(s, r)
        assert np.max(np.abs(rec.recovered.amps / r - s.amps)) < 1e-12


def test_coherent_preserves_delta_t():
    s = AnbitState([1.0, 0.0], delta_t=0.75)
    assert measure_coherent(s, 1.0).recovered.delta_t == 0.75


def test_differential_frozen_no_delay():
    rec = measure_differential(EQUATOR, 1.0)
    assert rec.kind == KIND_DIFFERENTIAL
    assert rec.photocurrents == (0.4999999999999999, 0.4999999999999999)
    assert rec.phase == 1.5707963267948966
    assert rec.edf == 3
    want = np.array([0.4999999999999999, 0.4999999999999999j])
    assert np.array_equal(rec.recovered.amps, want)
    assert rec.recovered.delta_t is None


def test_differential_with_carrier_delay():
    s = AnbitState(np.array([1.0, 1.0j]) / np.sqrt(2.0), delta_t=0.5)
    rec = measure_differential(s, 1.0, omega_c=np.pi)
    assert rec.phase == pytest.approx(np.pi / 2.0)
    assert rec.edf == 3
    # phase comes from the carrier, not from the amplitude arguments
    rec2 = measure_differential(
        AnbitState([0.6, 0.8], delta_t=0.5), 1.0, omega_c=np.pi
    )
    assert rec2.phase == pytest.approx(np.pi / 2.0)


def test_differential_declared_zero_delay():
    s = AnbitState(np.array([1.0, 1.0j]) / np.sqrt(2.0), delta_t=0.0)
    rec = measure_differential(s, 1.0)
    assert rec.edf == 2
    assert rec.phase is None
    # only the magnitudes survive
    assert np.allclose(rec.recovered.amps.imag, 0.0, atol=1e-15)
    assert rec.recovered.amps[0].real == pytest.approx(0.5, abs=1e-12)


def test_differential_discrete_global_phase_exact(rng):
    for mult in (1.0, -1.0, 1.0j, -1.0j):
        for _ in range(25):
            s = AnbitState(random_state_vec(rng))
            r1 = measure_differential(s, 1.3)
            r2 = measure_differential(AnbitState(mult * s.amps), 1.3)
            assert r1.photocurrents == r2.photocurrents
            assert r1.phase == r2.phase
            assert np.array_equal(r1.recovered.amps, r2.recovered.amps)


def test_differential_continuous_global_phase(rng):
    for _ in range(50):
        s = AnbitState(random_state_vec(rng))
        g = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        r1 = measure_differential(s, 1.0)
        r2 = measure_differential(AnbitState(g * s.amps), 1.0)
        assert np.allclose(r1.photocurrents, r2.photocurrents, atol=1e-12)
        assert np.allclose(r1.recovered.amps, r2.recovered.amps, atol=1e-12)


def test_differential_dark_port():
    rec = measure_differential(AnbitState([1.0, 0.0]), 1.0)
    assert rec.photocurrents == (1.0, 0.0)
    assert rec.phase == 0.0  # convention for an empty port


def test_measurement_validation():
    with pytest.raises(DimError):
        measure_coherent(AnbitState([1.0]), 1.0)
    with pytest.raises(ParamError):
        measure_coherent(AnbitState([1.0, 0.0]), 0.0)
    with pytest.raises(ParamError):
        measure_differential(AnbitState([1.0, 0.0]), -1.0)


@pytest.mark.parametrize("measure", [measure_coherent, measure_differential])
def test_measurement_rejects_infinite_responsivity(measure):
    with pytest.raises(ParamError, match="responsivity must be finite, got inf"):
        measure(AnbitState([1.0, 0.0]), float("inf"))


def test_differential_of_coherent_recovery_commutes(rng):
    # measuring the coherent reconstruction gives the original record
    for _ in range(50):
        s = AnbitState(random_state_vec(rng))
        rec = measure_coherent(s, 2.0)
        back = AnbitState(rec.recovered.amps / 2.0)
        d1 = measure_differential(s, 1.0)
        d2 = measure_differential(back, 1.0)
        assert np.allclose(d1.photocurrents, d2.photocurrents, atol=1e-12)
        assert np.allclose(d1.recovered.amps, d2.recovered.amps, atol=1e-12)
