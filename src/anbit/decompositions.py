"""Factorizations of 2x2 gates into photonic-implementable stage sequences.

Covers Euler ZXZ/ZYZ angle extraction for unitaries, the 2x2 SVD by LAPACK
(``np.linalg.svd``, ``zgesdd``), the Pauli-basis expansion, and polar-style
synthesis of invertible gates from a unitary, an antisymmetric parameter, and
a real symmetric exponent (eigensolved by LAPACK ``np.linalg.eigh``, ``dsyevd``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClassError, DimError, ParamError, SymmetryError
from .gates import (
    AXIS_X,
    AXIS_Y,
    AXIS_Z,
    GateClass,
    GateMatrix,
    RotationSpec,
    classify,
    pauli,
    rotation_matrix,
)

__all__ = [
    "EulerFactors",
    "SvdFactors",
    "PauliCoefficients",
    "MostowFactors",
    "euler_zxz",
    "euler_zyz",
    "euler_reconstruct",
    "svd2",
    "svd_reconstruct",
    "pauli_decompose",
    "pauli_reconstruct",
    "mostow_synthesize",
]

# Below this sine magnitude the middle rotation vanishes and the two outer
# z-angles are non-unique (gimbal lock); alpha1 is pinned to 0 there.
GIMBAL_TOL = 1e-12

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class EulerFactors:
    """Angles of e^(i delta) R_z(alpha3) R_mid(alpha2) R_z(alpha1)."""

    delta: float
    alpha1: float
    alpha2: float
    alpha3: float
    convention: str  # "zxz" or "zyz"


@dataclass(frozen=True, eq=False)
class SvdFactors:
    """m = u2 . diag(d1, d2) . u1 with d1 >= d2 >= 0 and u1, u2 unitary."""

    u2: GateMatrix
    d1: float
    d2: float
    u1: GateMatrix


@dataclass(frozen=True)
class PauliCoefficients:
    """Coefficients alpha_k of m = sum_k alpha_k sigma_k."""

    alpha: tuple[complex, complex, complex, complex]


@dataclass(frozen=True, eq=False)
class MostowFactors:
    """Synthesis data for g = u . e^(iA) . e^B with A antisymmetric, B symmetric.

    expanded holds the five stages in product order (u u1, lam1, u1^dag u2,
    lam2, u2^dag); lam1 = diag(e^-a, e^a) is strictly positive.
    """

    u: GateMatrix
    a: float
    b_matrix: np.ndarray
    expanded: tuple[GateMatrix, GateMatrix, GateMatrix, GateMatrix, GateMatrix]
    u1: GateMatrix
    u2: GateMatrix
    lam1: tuple[float, float]
    lam2: tuple[float, float]

    def target(self) -> GateMatrix:
        """The synthesized gate u . e^(iA) . e^B."""
        ch, sh = np.cosh(self.a), np.sinh(self.a)
        e1 = np.array([[ch, 1j * sh], [-1j * sh, ch]], dtype=complex)
        q = self.u2.entries
        e2 = q @ np.diag(self.lam2).astype(complex) @ q.T.conj()
        return GateMatrix(self.u.entries @ e1 @ e2)


def _wrap_2pi(x: float) -> tuple[float, int]:
    """Reduce into [0, 2*pi); also return the number of full turns removed."""
    k = int(np.floor(x / _TWO_PI))
    y = x - _TWO_PI * k
    if y >= _TWO_PI:  # rounding can land exactly on the period
        y -= _TWO_PI
        k += 1
    return y + 0.0, k  # turn -0.0 into +0.0


def _euler_angles(u: GateMatrix, middle: str) -> EulerFactors:
    if u.dim != 2:
        raise DimError("Euler factorization is defined for dim 2")
    if classify(u) is not GateClass.UNITARY:
        raise ClassError("Euler factorization needs a unitary gate")
    e = u.entries
    det = e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]
    # principal root of det = e^(2i delta), then delta forced into [0, pi);
    # the sign this absorbs keeps the remainder special-unitary
    delta = 0.5 * float(np.angle(det))
    if delta < 0.0:
        delta += np.pi
    v = np.exp(-1j * delta) * e

    s = 0.5 * (abs(v[0, 1]) + abs(v[1, 0]))  # sin(alpha2/2) >= 0
    c = 0.5 * (abs(v[0, 0]) + abs(v[1, 1]))  # cos(alpha2/2), >= 0 convention
    alpha2 = 2.0 * float(np.arctan2(s, c))

    big_sum = -2.0 * float(np.angle(v[0, 0]))  # alpha1 + alpha3
    if s < GIMBAL_TOL:
        raw1, raw3 = 0.0, big_sum
    else:
        if middle == "zxz":
            diff = 2.0 * (float(np.angle(v[0, 1])) + 0.5 * np.pi)
        else:
            diff = 2.0 * float(np.angle(-v[0, 1]))
        raw1 = 0.5 * (big_sum + diff)
        raw3 = 0.5 * (big_sum - diff)

    alpha1, k1 = _wrap_2pi(raw1)
    alpha3, k3 = _wrap_2pi(raw3)
    if (k1 + k3) % 2:
        # each 2*pi wrap of a z-angle negates the product; compensate globally
        delta += np.pi
    return EulerFactors(delta, alpha1, alpha2, alpha3, middle)


def euler_zxz(u: GateMatrix) -> EulerFactors:
    """Angles of u = e^(i delta) R_z(alpha3) R_x(alpha2) R_z(alpha1).

    Deterministic branch: delta from the principal root of det(u), cosine of
    the half middle angle taken non-negative, and 2*pi wraps of the outer
    angles compensated in delta. Reconstruction is exact up to rounding.
    """
    return _euler_angles(u, "zxz")


def euler_zyz(u: GateMatrix) -> EulerFactors:
    """Angles of u = e^(i delta) R_z(alpha3) R_y(alpha2) R_z(alpha1)."""
    return _euler_angles(u, "zyz")


def euler_reconstruct(f: EulerFactors) -> GateMatrix:
    mid_axis = AXIS_X if f.convention == "zxz" else AXIS_Y
    m = (
        rotation_matrix(RotationSpec(AXIS_Z, f.alpha3)).entries
        @ rotation_matrix(RotationSpec(mid_axis, f.alpha2)).entries
        @ rotation_matrix(RotationSpec(AXIS_Z, f.alpha1)).entries
    )
    return GateMatrix(np.exp(1j * f.delta) * m)


def svd2(m: GateMatrix) -> SvdFactors:
    """2x2 SVD of m itself by LAPACK (``np.linalg.svd``, driver ``zgesdd``).

    Phase convention: each column of u1^dag is scaled so its largest-modulus
    entry is real positive, with the compensating phase absorbed into u2;
    degenerate spectra (scaled unitaries, d1 = d2 up to rounding) fall back
    to the canonical basis u1 = I, u2 = m / d1. This pins a unique factor set
    for golden-file comparisons.
    """
    if m.dim != 2:
        raise DimError("svd2 is defined for dim 2")
    u, s, vh = np.linalg.svd(m.entries)
    d1, d2 = float(s[0]), float(s[1])
    if d1 - d2 <= 1e-13 * d1:  # scaled unitary (identity and zero included)
        vh = np.eye(2, dtype=complex)
        u = m.entries / d1 if d1 > 0.0 else np.eye(2, dtype=complex)
    for k in range(2):  # row k of u1 = vh is the conjugate of column k of u1^dag
        j = int(np.argmax(np.abs(vh[k])))
        mag = abs(vh[k, j])
        p = vh[k, j] / mag
        vh[k] *= np.conj(p)
        vh[k, j] = mag  # force exactly real
        u[:, k] *= p
    return SvdFactors(u2=GateMatrix(u), d1=d1, d2=d2, u1=GateMatrix(vh))


def svd_reconstruct(f: SvdFactors) -> GateMatrix:
    d = np.diag([f.d1, f.d2]).astype(complex)
    return GateMatrix(f.u2.entries @ d @ f.u1.entries)


def pauli_decompose(m: GateMatrix) -> PauliCoefficients:
    """Coefficients of the Pauli expansion, exact in closed form.

    alpha0 = (m11 + m22)/2, alpha1 = (m12 + m21)/2,
    alpha2 = i (m12 - m21)/2, alpha3 = (m11 - m22)/2.
    """
    if m.dim != 2:
        raise DimError("Pauli expansion is defined for dim 2")
    e = m.entries
    return PauliCoefficients(
        (
            complex(0.5 * (e[0, 0] + e[1, 1])),
            complex(0.5 * (e[0, 1] + e[1, 0])),
            complex(0.5j * (e[0, 1] - e[1, 0])),
            complex(0.5 * (e[0, 0] - e[1, 1])),
        )
    )


def pauli_reconstruct(c: PauliCoefficients) -> GateMatrix:
    m = np.zeros((2, 2), dtype=complex)
    for k in range(4):
        m = m + c.alpha[k] * pauli(k).entries
    return GateMatrix(m)


# Spectral basis of the antisymmetric generator A = [[0, a], [-a, 0]]:
# eigenvectors (1, i)/sqrt(2) and (1, -i)/sqrt(2) for eigenvalues +ia, -ia.
_U1 = np.array([[1.0, 1.0], [1.0j, -1.0j]], dtype=complex) / np.sqrt(2.0)


def _exp_pair(x0: float, x1: float, what: str) -> tuple[float, float]:
    """(e^x0, e^x1) as floats; a ParamError naming `what` if one is not finite."""
    with np.errstate(over="ignore"):  # an overflow is reported below
        pair = (float(np.exp(x0)), float(np.exp(x1)))
    if not np.isfinite(pair).all():
        raise ParamError(f"{what} overflows its exponential")
    return pair


def mostow_synthesize(u: GateMatrix, a: float, b_matrix) -> MostowFactors:
    """Build g = u e^(iA) e^B and its five-stage unitary/diagonal expansion.

    A = [[0, a], [-a, 0]] gives e^(iA) = u1 diag(e^-a, e^a) u1^dag with the
    fixed spectral unitary u1; e^B = u2 diag(lam2) u2^T comes from LAPACK's
    symmetric eigensolve of b_matrix (``np.linalg.eigh``), larger eigenvalue
    first, with the eigenvector's largest-magnitude entry non-negative. Only
    synthesis is provided; extracting (u, a, B) from an arbitrary invertible
    gate is out of scope.
    """
    if u.dim != 2:
        raise DimError("synthesis is defined for dim 2")
    if classify(u) is not GateClass.UNITARY:
        raise ClassError("first factor must be unitary")
    a = float(a)
    if not np.isfinite(a):
        raise ParamError("antisymmetric parameter must be finite")
    b = np.array(b_matrix, dtype=complex)
    if b.shape != (2, 2):
        raise DimError("b_matrix must be 2x2")
    if not np.isfinite(b).all():
        raise ParamError("b_matrix must be finite")
    b_scale = max(float(np.max(np.abs(b))), 1.0)
    if float(np.max(np.abs(b.imag))) > 1e-12 * b_scale:
        raise SymmetryError("b_matrix must be real")
    br = b.real
    if abs(br[0, 1] - br[1, 0]) > 1e-12 + 1e-9 * b_scale:
        raise SymmetryError("b_matrix must be symmetric")

    lam1 = _exp_pair(-a, a, f"antisymmetric parameter {a}")

    mu, vecs = np.linalg.eigh(0.5 * (br + br.T))  # ascending
    if mu[1] - mu[0] <= 1e-12 * np.linalg.norm(br):
        u2 = np.eye(2)
        mu_hi, mu_lo = br[0, 0], br[1, 1]  # B ~ I; keep the basis pairing
    else:
        mu_lo, mu_hi = mu
        v1 = vecs[:, 1]
        if v1[int(abs(v1[1]) >= abs(v1[0]))] < 0.0:
            v1 = -v1  # largest-magnitude entry non-negative (ties: the second)
        u2 = np.column_stack([v1, [-v1[1], v1[0]]])
    lam2 = _exp_pair(mu_hi, mu_lo, f"b_matrix eigenvalue {max(mu_hi, mu_lo)}")
    u2c = u2.astype(complex)

    stages = (
        GateMatrix(u.entries @ _U1),
        GateMatrix(np.diag(lam1).astype(complex)),
        GateMatrix(_U1.conj().T @ u2c),
        GateMatrix(np.diag(lam2).astype(complex)),
        GateMatrix(u2c.T.conj()),
    )
    b_frozen = np.array(br)
    b_frozen.setflags(write=False)
    return MostowFactors(
        u=u,
        a=a,
        b_matrix=b_frozen,
        expanded=stages,
        u1=GateMatrix(_U1),
        u2=GateMatrix(u2c),
        lam1=lam1,
        lam2=lam2,
    )
