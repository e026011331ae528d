"""Noiseless measurement models: coherent quadrature and differential direct detection.

Coherent detection reads both quadratures of both amplitudes (4 effective
degrees of freedom); differential detection reads the two powers plus, when
recoverable, the relative phase (3 degrees, dropping to 2 when the state
carries a declared-zero delay). Neither model alters the measured state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import AnbitState
from .errors import DimError, ParamError

__all__ = [
    "KIND_COHERENT",
    "KIND_DIFFERENTIAL",
    "MeasurementRecord",
    "measure_coherent",
    "measure_differential",
]

KIND_COHERENT = "coherent"
KIND_DIFFERENTIAL = "differential"


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """Photocurrents plus the state information they pin down.

    phase is the recovered relative phase for differential records and None
    when it is unrecoverable (declared-zero delay) or not applicable.
    """

    kind: str
    responsivity: float
    photocurrents: tuple[float, ...]
    recovered: AnbitState
    edf: int
    phase: float | None = None


def _check(state: AnbitState, r) -> float:
    if state.dim != 2:
        raise DimError("measurement models are defined for dim 2")
    r = float(r)
    if not r > 0.0:
        raise ParamError("responsivity must be positive")
    if r == math.inf:
        raise ParamError(f"responsivity must be finite, got {r}")
    return r


def measure_coherent(state: AnbitState, r) -> MeasurementRecord:
    """Dual quadrature receivers: currents (I_I0, I_Q0, I_I1, I_Q1) = R(Re, Im) per amp.

    The record is lossless: recovered = R * state, so the state returns from
    the currents exactly up to the responsivity scale.
    """
    r = _check(state, r)
    a0, a1 = state.amps
    currents = (float(r * a0.real), float(r * a0.imag), float(r * a1.real), float(r * a1.imag))
    recovered = AnbitState(r * state.amps, state.delta_t)
    return MeasurementRecord(KIND_COHERENT, r, currents, recovered, edf=4)


def measure_differential(state: AnbitState, r, omega_c: float = 0.0) -> MeasurementRecord:
    """Direct detection of both powers plus the relative phase when available.

    Phase source, in order: a nonzero declared delay dt gives omega_c * dt; an
    unspecified delay (None) falls back to the amplitude arguments; a declared
    zero delay means the phase is unrecoverable and the record keeps only the
    two powers (edf 2). The recovered state is (R P0, R P1 e^(i phase)).

    The power and fallback-phase computations use forms that are bit-exact
    under global-phase factors drawn from {1, -1, i, -i}; continuous phases
    are invariant to rounding only.
    """
    r = _check(state, r)
    a0, a1 = state.amps
    p0 = a0.real * a0.real + a0.imag * a0.imag
    p1 = a1.real * a1.real + a1.imag * a1.imag
    currents = (float(r * p0), float(r * p1))

    dt = state.delta_t
    if dt is not None and dt == 0.0:
        recovered = AnbitState(np.array([currents[0], currents[1]], dtype=complex), None)
        return MeasurementRecord(KIND_DIFFERENTIAL, r, currents, recovered, edf=2)

    if dt is None:
        # relative phasor from the amplitude arguments; the product form keeps
        # global-phase cancellation exact for quarter-turn factors
        z = a1 * np.conj(a0)
        mag = abs(z)
        phasor = z / mag if mag > 0.0 else complex(1.0)
        phase = math.atan2(z.imag, z.real)
    else:
        phase = float(omega_c) * float(dt)
        phasor = complex(np.exp(1j * phase))
    recovered = AnbitState(np.array([currents[0], currents[1] * phasor]), None)
    return MeasurementRecord(KIND_DIFFERENTIAL, r, currents, recovered, edf=3, phase=phase)
