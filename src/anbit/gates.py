"""Gate matrices: classification, axis rotations, the Pauli set, controlled gates.

Gate classes: a unitary gate (U-gate) preserves power; an invertible
non-unitary gate (G-gate) is still reversible; a singular gate (M-gate)
destroys information. A gate's class is computed the first time it is read
and kept; building a gate checks its entries and copies them, unless they
are a view of a parsed circuit's one immutable stack (`algebra._frozen`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .algebra import AnbitState, CompositeState, TENSOR, _frozen
from .errors import AxisError, DimError, ParamError, _integer

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
    "controlled",
    "apply_controlled_superposed",
    "nand_emulate",
]

# Unitarity test: ||F^dag F - I||_F <= CLASSIFY_TOL * d. Products of many
# lowered stages accumulate rounding, hence the slack over machine epsilon.
CLASSIFY_TOL = 1e-9

# A matrix A (a gate, a loop resolvent, or the closure I - B_cut over the cut
# signals of one torn feedback component) counts as singular when
# sigma_min(A) <= SINGULAR_RTOL * sigma_max(A): a relative test on the
# smallest singular value, invariant under scaling and free of the det's d-th
# power (Higham, Accuracy and Stability of Numerical Algorithms, ch. 7).
SINGULAR_RTOL = 1e-12

# A controlled gate acts on 2^(n+1) amplitudes. Gates up to MAX_CONTROLS are
# kept structurally; the dense embedding is built only up to
# MAX_DENSE_CONTROLS (dim 512, 4 MiB), since classifying it costs O(dim^3).
MAX_CONTROLS = 16
MAX_DENSE_CONTROLS = 8

AXIS_X = (1.0, 0.0, 0.0)
AXIS_Y = (0.0, 1.0, 0.0)
AXIS_Z = (0.0, 0.0, 1.0)


class GateClass(Enum):
    UNITARY = "unitary"
    GENERAL_LINEAR = "general_linear"
    SINGULAR = "singular"


def _singular(a: np.ndarray) -> bool:
    """The one singularity test of gates and loop systems: relative smallest singular value."""
    sigma = np.linalg.svd(a, compute_uv=False)
    return bool(sigma[-1] <= SINGULAR_RTOL * sigma[0])


def _unitary2(rows: list) -> bool:
    """The dim-2 unitarity test ||F^dag F - I||_F <= CLASSIFY_TOL * 2 on Python scalars.

    rows is entries.tolist(). Squares are products, never ** or abs(), so huge
    entries give inf and inf or nan entries give inf or nan: never unitary.
    """
    (a, b), (c, d) = rows
    g00 = a.real * a.real + a.imag * a.imag + c.real * c.real + c.imag * c.imag - 1.0
    g11 = b.real * b.real + b.imag * b.imag + d.real * d.real + d.imag * d.imag - 1.0
    g01 = a.conjugate() * b + c.conjugate() * d
    dev_sq = g00 * g00 + g11 * g11 + 2.0 * (g01.real * g01.real + g01.imag * g01.imag)
    return math.sqrt(dev_sq) <= CLASSIFY_TOL * 2


def _classify(entries: np.ndarray) -> GateClass:
    d = entries.shape[0]
    if d == 2:
        unitary = _unitary2(entries.tolist())
    else:
        unitary = np.linalg.norm(entries.conj().T @ entries - np.eye(d)) <= CLASSIFY_TOL * d
    if unitary:
        return GateClass.UNITARY
    # inf or nan entries have no singular values to compare (LAPACK's SVD
    # fails on nan); such a gate stays GENERAL_LINEAR, as under the det test
    if np.isfinite(entries).all() and _singular(entries):
        return GateClass.SINGULAR
    return GateClass.GENERAL_LINEAR


@dataclass(frozen=True, eq=False)
class GateMatrix:
    """Immutable d x d complex gate; its class is computed on first read of `gate_class`."""

    entries: np.ndarray

    def __post_init__(self):
        e = _frozen(self.entries)
        if e.ndim != 2 or e.shape[0] != e.shape[1] or e.shape[0] == 0:
            raise DimError("gate entries must form a square non-empty matrix")
        object.__setattr__(self, "entries", e)

    @cached_property
    def gate_class(self) -> GateClass:
        return _classify(self.entries)

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
        norm = float(np.sqrt(ax[0] * ax[0] + ax[1] * ax[1] + ax[2] * ax[2]))  # inf past the float range
        if not abs(norm - 1.0) <= 1e-9:  # nan is not unit length either
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
    k = _integer(k, "pauli index")
    if k not in (0, 1, 2, 3):
        raise IndexError(f"pauli index must be 0..3, got {k}")
    return GateMatrix(_PAULI[k])


def apply(gate: GateMatrix, state: AnbitState) -> AnbitState:
    """Matrix application; preserves delta_t metadata."""
    if gate.dim != state.dim:
        raise DimError(f"gate dim {gate.dim} != state dim {state.dim}")
    return AnbitState(gate.entries @ state.amps, state.delta_t)


@dataclass(frozen=True, eq=False)
class ControlledGate:
    """n-controlled 2-dim gate block-diag(I_{2^(n+1)-2}, F), kept as (n, F).

    Only the last two amplitudes, those with every control at |1>, see F. The
    dense embedding is built on first read of `embedded`, for at most
    MAX_DENSE_CONTROLS controls; a larger request raises ParamError before
    allocating.
    """

    n_controls: int
    target_gate: GateMatrix

    @cached_property
    def embedded(self) -> GateMatrix:
        n = self.n_controls
        if n > MAX_DENSE_CONTROLS:
            raise ParamError(
                f"dense embedding of {n} controls has dim 2^{n + 1}; "
                f"at most {MAX_DENSE_CONTROLS} controls are embedded densely"
            )
        emb = np.eye(2 ** (n + 1), dtype=complex)
        emb[-2:, -2:] = self.target_gate.entries
        return GateMatrix(emb)


def controlled(target: GateMatrix, n_controls: int) -> ControlledGate:
    """Put a 2-dim target under n controls: identity except the last 2x2 block.

    det(embedded) = det(target); with all controls at |1> the target subspace
    gets F, every other basis control leaves the target untouched.
    """
    if target.dim != 2:
        raise DimError("controlled targets must have dim 2")
    n = _integer(n_controls, "n_controls")
    if n < 1 or n > MAX_CONTROLS:
        raise ParamError(f"n_controls must be in 1..{MAX_CONTROLS}")
    return ControlledGate(n, target)


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

    Encodes |b1, b2, 1>, applies the doubly controlled sigma_x to the last two
    amplitudes (the only ones it changes), and reads the target slot of the
    resulting basis state.
    """
    if b1 not in (0, 1) or b2 not in (0, 1):
        raise ParamError("inputs must be bits")
    vec = np.zeros(8, dtype=complex)
    vec[4 * b1 + 2 * b2 + 1] = 1.0
    vec[-2:] = pauli(1).entries @ vec[-2:]
    idx = int(np.argmax(np.abs(vec)))
    return idx & 1
