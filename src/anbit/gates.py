"""Gate matrices: classification, axis rotations, the Pauli set, controlled gates.

Gate classes: a unitary gate (U-gate) preserves power; an invertible
non-unitary gate (G-gate) is still reversible; a singular gate (M-gate)
destroys information. Classification happens once at construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .algebra import AnbitState, CompositeState, TENSOR
from .errors import AxisError, DimError, ParamError

__all__ = [
    "GateClass",
    "GateMatrix",
    "RotationSpec",
    "ControlledGate",
    "AXIS_X",
    "AXIS_Y",
    "AXIS_Z",
    "identity_gate",
    "rotation_matrix",
    "pauli",
    "apply",
    "classify",
    "controlled",
    "apply_controlled_superposed",
    "nand_emulate",
]

# Unitarity test: ||F^dag F - I||_F <= CLASSIFY_TOL * d. Products of many
# lowered stages accumulate rounding, hence the slack over machine epsilon.
CLASSIFY_TOL = 1e-9

# Dense controlled embedding is 2^(n+1) dimensional; cap the blow-up.
MAX_CONTROLS = 16

AXIS_X = (1.0, 0.0, 0.0)
AXIS_Y = (0.0, 1.0, 0.0)
AXIS_Z = (0.0, 0.0, 1.0)


class GateClass(Enum):
    UNITARY = "unitary"
    GENERAL_LINEAR = "general_linear"
    SINGULAR = "singular"


def _frozen_matrix(entries) -> np.ndarray:
    e = np.array(entries, dtype=complex)
    e.setflags(write=False)
    return e


def _classify(entries: np.ndarray, tol: float) -> GateClass:
    d = entries.shape[0]
    gram_dev = np.linalg.norm(entries.conj().T @ entries - np.eye(d))
    if gram_dev <= tol * d:
        return GateClass.UNITARY
    fro = np.linalg.norm(entries)
    if abs(np.linalg.det(entries)) <= tol * fro**d:
        return GateClass.SINGULAR
    return GateClass.GENERAL_LINEAR


@dataclass(frozen=True, eq=False)
class GateMatrix:
    """Immutable d x d complex gate with its class computed at construction."""

    entries: np.ndarray
    tol: float = CLASSIFY_TOL
    gate_class: GateClass = field(init=False)

    def __post_init__(self):
        e = _frozen_matrix(self.entries)
        if e.ndim != 2 or e.shape[0] != e.shape[1] or e.shape[0] == 0:
            raise DimError("gate entries must form a square non-empty matrix")
        object.__setattr__(self, "entries", e)
        object.__setattr__(self, "gate_class", _classify(e, self.tol))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def det(self) -> complex:
        return complex(np.linalg.det(self.entries))

    def __repr__(self):
        return f"GateMatrix(dim={self.dim}, class={self.gate_class.value})"


def identity_gate(dim: int = 2) -> GateMatrix:
    return GateMatrix(np.eye(dim, dtype=complex))


@dataclass(frozen=True)
class RotationSpec:
    """Axis-angle rotation with a global phase: e^(i delta) R_axis(angle)."""

    axis: tuple[float, float, float]
    angle: float
    global_phase: float = 0.0

    def __post_init__(self):
        ax = tuple(float(v) for v in self.axis)
        if len(ax) != 3:
            raise AxisError("axis must have three components")
        norm = float(np.sqrt(ax[0] ** 2 + ax[1] ** 2 + ax[2] ** 2))
        if abs(norm - 1.0) > 1e-9:
            raise AxisError(f"axis must be unit length, got norm {norm}")
        object.__setattr__(self, "axis", ax)
        object.__setattr__(self, "angle", float(self.angle))
        object.__setattr__(self, "global_phase", float(self.global_phase))


def rotation_matrix(spec: RotationSpec) -> GateMatrix:
    """Universal unitary e^(i delta) R_n(alpha).

    R_n(alpha) = [[cos(a/2) - i nz sin(a/2),  -(ny + i nx) sin(a/2)],
                  [(ny - i nx) sin(a/2),       cos(a/2) + i nz sin(a/2)]].
    """
    nx, ny, nz = spec.axis
    c = np.cos(0.5 * spec.angle)
    s = np.sin(0.5 * spec.angle)
    rot = np.array(
        [
            [c - 1j * nz * s, -(ny + 1j * nx) * s],
            [(ny - 1j * nx) * s, c + 1j * nz * s],
        ],
        dtype=complex,
    )
    return GateMatrix(np.exp(1j * spec.global_phase) * rot)


_PAULI = (
    np.array([[1, 0], [0, 1]], dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def pauli(k: int) -> GateMatrix:
    """Pauli matrix sigma_k for k in {0,1,2,3}; sigma_k = i R_axis(pi) for k >= 1."""
    if k not in (0, 1, 2, 3):
        raise IndexError(f"pauli index must be 0..3, got {k}")
    return GateMatrix(_PAULI[k])


def apply(gate: GateMatrix, state: AnbitState) -> AnbitState:
    """Matrix application; preserves delta_t metadata."""
    if gate.dim != state.dim:
        raise DimError(f"gate dim {gate.dim} != state dim {state.dim}")
    return AnbitState(gate.entries @ state.amps, state.delta_t)


def classify(gate: GateMatrix) -> GateClass:
    """Gate class with Unitary taking precedence over GeneralLinear."""
    return gate.gate_class


@dataclass(frozen=True, eq=False)
class ControlledGate:
    """n-controlled 2-dim gate embedded as block-diag(I_{2^(n+1)-2}, F)."""

    n_controls: int
    target_gate: GateMatrix
    embedded: GateMatrix


def controlled(target: GateMatrix, n_controls: int) -> ControlledGate:
    """Embed a 2-dim target under n controls: identity except the last 2x2 block.

    det(embedded) = det(target); with all controls at |1> the target subspace
    gets F, every other basis control leaves the target untouched.
    """
    if target.dim != 2:
        raise DimError("controlled targets must have dim 2")
    n = int(n_controls)
    if n < 1 or n > MAX_CONTROLS:
        raise ParamError(f"n_controls must be in 1..{MAX_CONTROLS}")
    dim = 2 ** (n + 1)
    emb = np.eye(dim, dtype=complex)
    emb[-2:, -2:] = target.entries
    return ControlledGate(n, target, GateMatrix(emb, tol=target.tol))


def apply_controlled_superposed(
    cg: ControlledGate, control: AnbitState, target: AnbitState
) -> CompositeState:
    """All-optical controlled application: c0 |0> x t + c1 |1> x (F t)."""
    if cg.n_controls != 1:
        raise ParamError("superposed application is defined for one control")
    if control.dim != 2 or target.dim != 2:
        raise DimError("control and target must have dim 2")
    ft = cg.target_gate.entries @ target.amps
    flat = np.concatenate([control.amps[0] * target.amps, control.amps[1] * ft])
    return CompositeState(TENSOR, flat, (2, 2), parts=None)


def nand_emulate(b1: int, b2: int) -> int:
    """NAND via the Toffoli gate on basis anbits with the target preset to |1>.

    Encodes |b1, b2, 1>, applies the doubly controlled sigma_x, and reads the
    target slot of the resulting basis state.
    """
    if b1 not in (0, 1) or b2 not in (0, 1):
        raise ParamError("inputs must be bits")
    toffoli = controlled(pauli(1), 2).embedded.entries
    vec = np.zeros(8, dtype=complex)
    vec[4 * b1 + 2 * b2 + 1] = 1.0
    out = toffoli @ vec
    idx = int(np.argmax(np.abs(out)))
    return idx & 1
