"""State algebra: amplitude vectors, composition products, sphere coordinates.

An anbit is a 2-dimensional complex amplitude vector; an andit is the
d-dimensional generalization (d = 1 allowed). Amplitudes are constant per
symbol period (rectangular-envelope idealization); the inter-amplitude delay
delta_t is carried as metadata, never simulated as a waveform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError, DimError, ModeError, ParamError, _integer

__all__ = [
    "ATOL",
    "RTOL",
    "TENSOR",
    "CARTESIAN",
    "AnbitState",
    "CompositeState",
    "BlochPoint",
    "null_state",
    "inner_product",
    "tensor_compose",
    "cartesian_compose",
    "to_bloch",
    "from_bloch",
    "normalize_global_phase",
    "values_close",
]

# Combined comparison tolerance used across the package:
# |x - y| <= ATOL + RTOL * max(|x|, |y|).
ATOL = 1e-12
RTOL = 1e-9

TENSOR = "tensor"
CARTESIAN = "cartesian"

_TWO_PI = 2.0 * np.pi


def values_close(x, y, atol: float = ATOL, rtol: float = RTOL) -> bool:
    """Elementwise combined-tolerance comparison of two complex arrays."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != y.shape:
        return False
    bound = atol + rtol * np.maximum(np.abs(x), np.abs(y))
    return bool(np.all(np.abs(x - y) <= bound))


def _frozen(values) -> np.ndarray:
    """The read-only complex storage of every state and gate: a copy, unless values is a
    complex array over immutable bytes (a view of the parser's gate stack), which nothing can write."""
    if type(values) is np.ndarray and values.dtype == complex:
        base = values.base
        while type(base) is np.ndarray:
            base = base.base
        if type(base) is bytes:
            return values
    a = np.array(values, dtype=complex)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class AnbitState:
    """Immutable d-dimensional amplitude vector with optional delay metadata.

    delta_t semantics: None means unspecified; 0.0 means a declared-zero
    delay between the amplitude envelopes (meaningful for differential
    measurement); any other float is the delay in seconds.
    """

    amps: np.ndarray
    delta_t: float | None = None

    def __post_init__(self):
        a = _frozen(self.amps)
        if a.ndim != 1 or a.size == 0:
            raise DimError("amplitudes must form a non-empty 1-D vector")
        object.__setattr__(self, "amps", a)
        if self.delta_t is not None:
            object.__setattr__(self, "delta_t", float(self.delta_t))

    @property
    def dim(self) -> int:
        return self.amps.size

    @property
    def is_null(self) -> bool:
        return bool(np.all(self.amps == 0))

    def __repr__(self):
        return f"AnbitState({self.amps.tolist()!r}, delta_t={self.delta_t!r})"


def null_state(dim: int = 2, delta_t: float | None = None) -> AnbitState:
    """The additive identity of Cartesian composition."""
    dim = _integer(dim, "dim")
    if dim < 1:
        raise DimError("dim must be >= 1")
    return AnbitState(np.zeros(dim, dtype=complex), delta_t)


def inner_product(a: AnbitState, b: AnbitState) -> complex:
    """Hermitian inner product, conjugate-linear in the first argument."""
    if a.dim != b.dim:
        raise DimError(f"dims differ: {a.dim} vs {b.dim}")
    return complex(np.vdot(a.amps, b.amps))


@dataclass(frozen=True, eq=False)
class CompositeState:
    """A vector in a tensor or Cartesian product space.

    parts is present when the value was built by composing factor states;
    vectors constructed directly in the product space (for example the
    output of a controlled gate on a superposed control) carry parts=None
    because they need not factor.
    """

    mode: str
    flat: np.ndarray
    part_dims: tuple[int, ...]
    parts: tuple[AnbitState, ...] | None = None

    def __post_init__(self):
        if self.mode not in (TENSOR, CARTESIAN):
            raise ModeError(f"unknown composition mode {self.mode!r}")
        flat = _frozen(self.flat)
        object.__setattr__(self, "flat", flat)
        dims = tuple(_integer(d, "part dim") for d in self.part_dims)
        if not dims or any(d < 1 for d in dims):
            raise DimError("part_dims must be positive")
        object.__setattr__(self, "part_dims", dims)
        expect = int(np.prod(dims)) if self.mode == TENSOR else int(np.sum(dims))
        if flat.size != expect:
            raise DimError(f"flat size {flat.size} != {expect} for mode {self.mode}")
        if self.parts is not None:
            object.__setattr__(self, "parts", tuple(self.parts))

    @property
    def dim(self) -> int:
        return self.flat.size


def tensor_compose(parts) -> CompositeState:
    """Kronecker composition; the earlier part varies slowest in the result."""
    parts = tuple(parts)
    if not parts:
        raise DimError("need at least one part")
    flat = parts[0].amps
    for p in parts[1:]:
        flat = np.kron(flat, p.amps)
    return CompositeState(TENSOR, flat, tuple(p.dim for p in parts), parts)


def cartesian_compose(parts) -> CompositeState:
    """Cartesian composition: vertical concatenation of amplitude vectors."""
    parts = tuple(parts)
    if not parts:
        raise DimError("need at least one part")
    flat = np.concatenate([p.amps for p in parts])
    return CompositeState(CARTESIAN, flat, tuple(p.dim for p in parts), parts)


@dataclass(frozen=True)
class BlochPoint:
    """Point on/in the generalized sphere: radius sqrt(P), polar theta, azimuth phi."""

    radius: float
    theta: float
    phi: float

    def __post_init__(self):
        if not self.radius >= 0.0:
            raise ParamError("radius must be >= 0")
        if not 0.0 <= self.theta <= np.pi:
            raise ParamError("theta must lie in [0, pi]")
        phi = float(self.phi) % _TWO_PI
        if phi >= _TWO_PI:  # float modulo can land exactly on the period
            phi -= _TWO_PI
        object.__setattr__(self, "phi", phi)


def _bloch_columns(amps: np.ndarray) -> tuple:
    """Radius, theta and phi columns of the rows (a0, a1) of an (n, 2) complex array.

    The one sphere-coordinate rule: radius = sqrt(P), theta = 2*atan2(|a1|,
    |a0|) with each modulus the hypot of its parts, phi = arg(a1) - arg(a0)
    wrapped into [0, 2*pi). Where the squares of P under- or overflow (P is 0
    or inf), the row's radius is the scaled hypot of its four parts, which
    stays a float from 5e-324 to 1.8e308. The first faulty row raises:
    `DegenerateStateError` for a null row, else `BlochPoint`'s `ParamError`.
    No numpy warning is raised.
    """
    re, im = amps.real, amps.imag
    with np.errstate(all="ignore"):  # squares past the float range give inf, nan parts give nan
        sq = re * re + im * im  # |a0|^2, |a1|^2
        p = sq[:, 0] + sq[:, 1]
        radius = np.sqrt(p)
        modulus = np.hypot(re, im)
        theta = 2.0 * np.arctan2(modulus[:, 1], modulus[:, 0])
        arg = np.arctan2(im, re)
        phi = arg[:, 1] - arg[:, 0]
        phi %= _TWO_PI
    phi[phi >= _TWO_PI] -= _TWO_PI  # float modulo can land exactly on the period
    edge = (p == 0.0) | (p == math.inf)
    if edge.any():
        for k in np.flatnonzero(edge).tolist():
            radius[k] = math.hypot(re[k, 0], im[k, 0], re[k, 1], im[k, 1])
    faults = ~(radius > 0.0) | ~((theta >= 0.0) & (theta <= np.pi))
    if faults.any():
        k = int(np.argmax(faults))
        if radius[k] == 0.0:
            raise DegenerateStateError("null state has undefined sphere angles")
        BlochPoint(float(radius[k]), float(theta[k]), float(phi[k]))  # raises the row's ParamError
    return radius, theta, phi


def to_bloch(state: AnbitState) -> BlochPoint:
    """Sphere coordinates of a 2-dimensional state: the one-row case of `_bloch_columns`.

    radius = sqrt(P), theta = 2*atan2(|a1|, |a0|), phi = arg(a1) - arg(a0)
    wrapped into [0, 2*pi). The null state has undefined angles
    (`DegenerateStateError`). The radius stays a float from 5e-324 to 1.8e308.
    """
    if state.dim != 2:
        raise DimError("sphere coordinates are defined for dim 2")
    radius, theta, phi = _bloch_columns(state.amps[None, :])
    return BlochPoint(float(radius[0]), float(theta[0]), float(phi[0]))


def from_bloch(p: BlochPoint) -> AnbitState:
    """State with zero global phase (a0 real >= 0) at the given point."""
    a0 = p.radius * np.cos(0.5 * p.theta)
    a1 = p.radius * np.sin(0.5 * p.theta) * np.exp(1j * p.phi)
    return AnbitState(np.array([a0, a1], dtype=complex))


def normalize_global_phase(state: AnbitState) -> AnbitState:
    """Rotate the global phase so the first amplitude above tolerance is real >= 0."""
    pivot = None
    for k in range(state.dim):
        if abs(state.amps[k]) > ATOL:
            pivot = k
            break
    if pivot is None:
        return state
    mag = abs(state.amps[pivot])
    out = state.amps * (np.conj(state.amps[pivot]) / mag)
    out[pivot] = mag  # force exactly real
    return AnbitState(out, state.delta_t)
