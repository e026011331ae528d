"""Nonlinear gates: Taylor-series responses, self-phase modulation, and an ANN layer.

The Taylor framework covers holomorphic component functions through their
derivative tensors at a reference point; self-phase modulation depends on
power rather than amplitude and is therefore a standalone primitive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import CARTESIAN, AnbitState, CompositeState
from .errors import DimError, ModeError, OrderError, ParamError, _integer
from .gates import GateMatrix

__all__ = ["TaylorGate", "SpmParams", "taylor_apply", "spm_gate", "ann_layer"]

DEFAULT_MAX_ORDER = 4


@dataclass(frozen=True, eq=False)
class TaylorGate:
    """Derivative data of a nonlinear gate around ref_point.

    derivative_tensors holds one dict per output component, keyed by order n,
    each value the (d, ..., d) array of n-th partials at ref_point. Orders a
    component genuinely lacks must be supplied as zero arrays; absence means
    the data is incomplete and evaluation refuses.
    """

    ref_point: np.ndarray
    derivative_tensors: tuple
    max_order: int = DEFAULT_MAX_ORDER

    def __post_init__(self):
        ref = np.array(self.ref_point, dtype=complex).reshape(-1)
        ref.setflags(write=False)
        object.__setattr__(self, "ref_point", ref)
        object.__setattr__(self, "max_order", _integer(self.max_order, "max_order"))
        if self.max_order < 1:
            raise ParamError("max_order must be >= 1")
        d = ref.size
        frozen = []
        for comp in self.derivative_tensors:
            by_order = {}
            for n, tensor in comp.items():
                n = _integer(n, "tensor order")
                if not 1 <= n <= self.max_order:
                    raise OrderError(f"tensor order {n} outside 1..{self.max_order}")
                t = np.array(tensor, dtype=complex)
                if t.shape != (d,) * n:
                    raise DimError(f"order-{n} tensor must have shape {(d,) * n}")
                t.setflags(write=False)
                by_order[n] = t
            frozen.append(by_order)
        if not frozen:
            raise DimError("at least one output component is required")
        object.__setattr__(self, "derivative_tensors", tuple(frozen))

    @property
    def dim(self) -> int:
        return self.ref_point.size


def taylor_apply(gate: TaylorGate, state: AnbitState, order: int) -> AnbitState:
    """Sum of the order-1..order responses at state, component by component.

    Each order-n term is the tensor contraction of the n-th partials with
    (z - z_ref) repeated n times, divided by n!.
    """
    order = _integer(order, "order")
    if order < 1 or order > gate.max_order:
        raise OrderError(f"order must be in 1..{gate.max_order}")
    if state.dim != gate.dim:
        raise DimError(f"state dim {state.dim} != gate dim {gate.dim}")
    dz = state.amps - gate.ref_point
    out = np.zeros(len(gate.derivative_tensors), dtype=complex)
    for j, by_order in enumerate(gate.derivative_tensors):
        acc = 0.0 + 0.0j
        for n in range(1, order + 1):
            if n not in by_order:
                raise OrderError(f"component {j} lacks the order-{n} tensor")
            term = by_order[n]
            for _ in range(n):
                term = np.tensordot(term, dz, axes=1)
            acc += term / math.factorial(n)
        out[j] = acc
    return AnbitState(out, state.delta_t)


@dataclass(frozen=True)
class SpmParams:
    """Self-phase modulation strength: nonlinear coefficient and effective length."""

    gamma: float
    l_eff: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "l_eff", float(self.l_eff))
        if not np.isfinite(self.gamma * self.l_eff):
            raise ParamError("gamma * l_eff must be finite")


def spm_gate(state: AnbitState, p: SpmParams) -> AnbitState:
    """Per-component power-dependent phase: psi_k -> psi_k exp(-i gamma |psi_k|^2 L).

    Pure phase modulation; each |psi_k| is preserved up to rounding of the
    complex multiply (a few ulp), and exactly when gamma * L is zero.
    """
    if state.dim not in (1, 2):
        raise DimError("self-phase modulation is defined for dim 1 or 2")
    gl = p.gamma * p.l_eff
    if gl == 0.0:
        return AnbitState(state.amps, state.delta_t)
    powers = state.amps.real**2 + state.amps.imag**2
    out = state.amps * np.exp(-1j * gl * powers)
    return AnbitState(out, state.delta_t)


def ann_layer(weights: GateMatrix, activation, x: CompositeState) -> CompositeState:
    """One neural layer on a Cartesian stack of scalar andits: z = f(M x).

    The weight matrix acts on the flat vector; the scalar activation applies
    component-wise. Identity activation reduces this to a plain matrix product.
    """
    if x.mode != CARTESIAN:
        raise ModeError("layer input must be a Cartesian composite")
    if any(d != 1 for d in x.part_dims):
        raise ModeError("layer input parts must all have dim 1")
    d = x.dim
    if weights.dim != d:
        raise DimError(f"weights dim {weights.dim} != input dim {d}")
    y = weights.entries @ x.flat
    z = np.array([complex(activation(v)) for v in y], dtype=complex)
    parts = tuple(AnbitState(z[k : k + 1]) for k in range(d))
    return CompositeState(CARTESIAN, z, (1,) * d, parts=parts)
