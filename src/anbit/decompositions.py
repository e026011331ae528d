"""Factorizations of 2x2 gates into photonic-implementable stage sequences.

Covers Euler ZXZ/ZYZ angle extraction for unitaries, the 2x2 SVD, the
Pauli-basis expansion, and polar-style synthesis of invertible gates from a
unitary, an antisymmetric parameter, and a real symmetric exponent
(eigensolved by LAPACK ``np.linalg.eigh``, ``dsyevd``).

The 2x2 factorizations are tables over many gates at once, with the
one-gate functions as their single-row case. All read their gates through
one door, `_dim2_rows`, which refuses a gate of another dim or with an inf
or nan entry, naming that entry. `_euler_table` reads each gate's four
entries once as Python numbers, tests unitarity by the dim-2 Gram deviation
that ``gate_class`` uses, and takes every angle of all gates in two
``np.arctan2`` calls, which give the doubles ``np.angle`` gives.
`_svd_table` factors a (G, 2, 2) stack of finite gates in one LAPACK call
(``np.linalg.svd``, ``zgesdd``) and pins each gate's phases on its rows.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ClassError, DimError, ParamError, SymmetryError, _at_gate
from .gates import (
    AXIS_X,
    AXIS_Y,
    AXIS_Z,
    GateClass,
    GateMatrix,
    _rotation_stack,
    _unitary2,
    pauli,
)

__all__ = [
    "EulerFactors",
    "SvdFactors",
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

_TWO_PI = 2.0 * math.pi


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


@dataclass(frozen=True, eq=False)
class MostowFactors:
    """Synthesis data for g = u . e^(iA) . e^B with A antisymmetric, B symmetric.

    expanded holds the five stages in product order (u u1, lam1, u1^dag u2,
    lam2, u2^dag); lam1 = diag(e^-a, e^a) is strictly positive.
    """

    u: GateMatrix
    a: float
    expanded: tuple[GateMatrix, GateMatrix, GateMatrix, GateMatrix, GateMatrix]
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
    k = math.floor(x / _TWO_PI)
    y = x - _TWO_PI * k
    if y >= _TWO_PI:  # rounding can land exactly on the period
        y -= _TWO_PI
        k += 1
    return y + 0.0, k  # turn -0.0 into +0.0


def _dim2_rows(gates, what: str, error: type):
    """The door of the 2x2 factorizations: each gate's rows, read once with ``tolist()``, yielded in order.

    A gate of another dim is a DimError naming `what`; a gate with an inf or
    nan entry is an `error` (the table's type) naming its first such entry,
    "gate entry (0, 1) is nan". Either is marked with the gate's index
    (`_at_gate`). Yielding lets a table's own rule refuse gate k first.
    """
    for k, g in enumerate(gates):
        if g.dim != 2:
            raise _at_gate(DimError(f"{what} is defined for dim 2"), k)
        rows = g.entries.tolist()
        for i, row in enumerate(rows):
            for j, z in enumerate(row):
                if not cmath.isfinite(z):
                    raise _at_gate(error(f"gate entry ({i}, {j}) is {z.real if z.imag == 0.0 else z}"), k)
        yield rows


def _euler_table(rows, middle: str) -> list:
    """(delta, alpha1, alpha2, alpha3) of each 2x2 unitary in rows, an iterable of ``entries.tolist()`` lists.

    The rule of `euler_zxz` (middle "zxz") or `euler_zyz` ("zyz") over many
    matrices at once: the first non-unitary one, in order, is a ClassError
    marked with its index in rows (`_at_gate`), raised before any angle is
    taken. Only where the middle sine is exactly 0 (gimbal lock: the outer
    z-angles are non-unique) is alpha1 pinned to 0. Its two arctangent
    stages are one ``np.arctan2`` call each over all matrices: (a) the determinant phases that give delta, then (b) the
    half middle angles, the phases giving alpha1 + alpha3 and those giving
    their difference. An array call gives each entry the double a scalar call
    gives, which matches ``np.angle``; ``math.atan2`` differs in the last bit
    on some inputs.
    """
    flip = middle != "zxz"  # zyz takes the difference from the phase of -v01
    unitaries, dets = [], []
    for k, m in enumerate(rows):
        if not _unitary2(m):  # the test behind gate_class, on the entries read here
            raise _at_gate(ClassError("Euler factorization needs a unitary gate"), k)
        (e00, e01), (e10, e11) = m
        unitaries.append(m)
        dets.append(e00 * e11 - e01 * e10)
    # principal root of det = e^(2i delta), then delta forced into [0, pi);
    # the sign this absorbs keeps the remainder special-unitary
    halves = np.arctan2([z.imag for z in dets], [z.real for z in dets]).tolist()
    deltas, sines, ys, xs = [], [], [], []
    for m, half in zip(unitaries, halves):
        delta = 0.5 * half
        if delta < 0.0:
            delta += math.pi
        ph = cmath.exp(-1j * delta)
        (e00, e01), (e10, e11) = m
        v00, v01, v10, v11 = ph * e00, ph * e01, ph * e10, ph * e11
        s = 0.5 * (abs(v01) + abs(v10))  # sin(alpha2/2) >= 0
        deltas.append(delta)
        sines.append(s)
        c = 0.5 * (abs(v00) + abs(v11))  # cos(alpha2/2), >= 0 convention
        ys += (s, v00.imag, -v01.imag if flip else v01.imag)
        xs += (c, v00.real, -v01.real if flip else v01.real)
    angles = np.arctan2(ys, xs).tolist()
    table = []
    for k, (delta, s) in enumerate(zip(deltas, sines)):
        mid, phase00, phase01 = angles[3 * k:3 * k + 3]
        big_sum = -2.0 * phase00  # alpha1 + alpha3
        if s == 0.0:
            raw1, raw3 = 0.0, big_sum
        else:
            diff = 2.0 * phase01 if flip else 2.0 * (phase01 + 0.5 * math.pi)
            raw1 = 0.5 * (big_sum + diff)
            raw3 = 0.5 * (big_sum - diff)
        alpha1, k1 = _wrap_2pi(raw1)
        alpha3, k3 = _wrap_2pi(raw3)
        if (k1 + k3) % 2:
            # each 2*pi wrap of a z-angle negates the product; compensate globally
            delta += math.pi
        table.append((delta, alpha1, 2.0 * mid, alpha3))
    return table


def euler_zxz(u: GateMatrix) -> EulerFactors:
    """Angles of u = e^(i delta) R_z(alpha3) R_x(alpha2) R_z(alpha1).

    Deterministic branch: delta from the principal root of det(u), cosine of
    the half middle angle taken non-negative, and 2*pi wraps of the outer
    angles compensated in delta. Reconstruction is exact up to rounding.
    """
    return EulerFactors(*_euler_table(_dim2_rows((u,), "Euler factorization", ClassError), "zxz")[0], "zxz")


def euler_zyz(u: GateMatrix) -> EulerFactors:
    """Angles of u = e^(i delta) R_z(alpha3) R_y(alpha2) R_z(alpha1)."""
    return EulerFactors(*_euler_table(_dim2_rows((u,), "Euler factorization", ClassError), "zyz")[0], "zyz")


def euler_reconstruct(f: EulerFactors) -> GateMatrix:
    # both z rotations in one stack; each matrix is rotation_matrix's, bit for bit
    mid_axis = AXIS_X if f.convention == "zxz" else AXIS_Y
    rz3, rz1 = _rotation_stack(AXIS_Z, (f.alpha3, f.alpha1))
    m = rz3 @ _rotation_stack(mid_axis, (f.alpha2,))[0] @ rz1
    return GateMatrix(np.exp(1j * f.delta) * m)


def _svd_table(rows: list) -> list:
    """(u2 rows, d1, d2, u1 rows) of each 2x2 matrix in rows, finite ``entries.tolist()`` lists, pinned as `svd2` pins them.

    One LAPACK call factors the whole stack (``np.linalg.svd``, driver
    ``zgesdd``, matrix by matrix, so each result is that of its matrix
    alone); the phase pinning and the degenerate fallback then work on the
    rows. The factor rows are lists of Python complex numbers, the values a
    GateMatrix of them holds.
    """
    us, ss, vhs = np.linalg.svd(np.array(rows, dtype=complex).reshape(-1, 2, 2))
    table = []
    for m, u, (d1, d2), vh in zip(rows, us.tolist(), ss.tolist(), vhs.tolist()):
        degenerate = d1 - d2 <= 1e-13 * d1  # scaled unitary (identity and zero included)
        if degenerate:
            vh = [[1.0, 0.0], [0.0, 1.0]]
            u = [[1.0, 0.0], [0.0, 1.0]]
            if d1 > 0.0:
                u = [[x / d1 for x in row] for row in m]
        for k, row in enumerate(vh):  # row k of u1 = vh is the conjugate of column k of u1^dag
            j = int(abs(row[1]) > abs(row[0]))
            mag = abs(row[j])
            p = row[j] / mag
            pc = p.conjugate()
            row[0] *= pc
            row[1] *= pc
            row[j] = complex(mag)  # force exactly real
            u[0][k] *= p
            u[1][k] *= p
        if degenerate:  # the fallback's real entries, as complex numbers
            u, vh = ([[complex(x) for x in row] for row in f] for f in (u, vh))
        table.append((u, d1, d2, vh))
    return table


def svd2(m: GateMatrix) -> SvdFactors:
    """2x2 SVD of m: singular vectors by LAPACK, phases pinned on Python scalars.

    Phase convention: each column of u1^dag is scaled so its largest-modulus entry
    (the first on a tie) is real positive, with the compensating phase
    absorbed into u2; degenerate spectra (scaled unitaries, d1 = d2 up to
    rounding) fall back to the canonical basis u1 = I, u2 = m / d1. This pins
    a unique factor set for golden-file comparisons. `_svd_table` is the same
    rule over a stack of matrices.
    """
    u2, d1, d2, u1 = _svd_table(list(_dim2_rows((m,), "svd2", ParamError)))[0]
    return SvdFactors(u2=GateMatrix(u2), d1=d1, d2=d2, u1=GateMatrix(u1))


def svd_reconstruct(f: SvdFactors) -> GateMatrix:
    d = np.diag([f.d1, f.d2]).astype(complex)
    return GateMatrix(f.u2.entries @ d @ f.u1.entries)


def pauli_decompose(m: GateMatrix) -> tuple[complex, complex, complex, complex]:
    """Coefficients (alpha0, ..., alpha3) of m = sum_k alpha_k sigma_k, exact in closed form.

    alpha0 = (m11 + m22)/2, alpha1 = (m12 + m21)/2,
    alpha2 = i (m12 - m21)/2, alpha3 = (m11 - m22)/2.
    """
    return _pauli_coefficients(_dim2_rows((m,), "Pauli expansion", ParamError))[0]


def _pauli_coefficients(rows) -> list:
    """`pauli_decompose`'s four coefficients of each 2x2 matrix in rows, ``entries.tolist()`` lists."""
    return [(0.5 * (e00 + e11), 0.5 * (e01 + e10), 0.5j * (e01 - e10), 0.5 * (e00 - e11))
            for (e00, e01), (e10, e11) in rows]


def pauli_reconstruct(alpha: tuple) -> GateMatrix:
    """sum_k alpha_k sigma_k of the four coefficients `pauli_decompose` returns."""
    m = np.zeros((2, 2), dtype=complex)
    for k in range(4):
        m = m + alpha[k] * pauli(k).entries
    return GateMatrix(m)


# Spectral basis of the antisymmetric generator A = [[0, a], [-a, 0]]:
# eigenvectors (1, i)/sqrt(2) and (1, -i)/sqrt(2) for eigenvalues +ia, -ia.
_U1 = np.array([[1.0, 1.0], [1.0j, -1.0j]], dtype=complex) / np.sqrt(2.0)


def _exp_pair(x0: float, x1: float, what) -> tuple[float, float]:
    """(e^x0, e^x1) as positive finite floats.

    An exponential that overflows to inf or underflows to 0 (a gain that
    blocks its wire) is a ParamError naming what(x) of its argument x.
    """
    with np.errstate(over="ignore", under="ignore"):  # reported below
        pair = (float(np.exp(x0)), float(np.exp(x1)))
    if math.inf in pair:
        raise ParamError(f"{what(max(x0, x1))} overflows its exponential")
    if 0.0 in pair:
        raise ParamError(f"{what(min(x0, x1))} underflows its exponential")
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
    if u.gate_class is not GateClass.UNITARY:
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

    lam1 = _exp_pair(-a, a, lambda _: f"antisymmetric parameter {a}")

    # each sum is of halves, so entries near the float limit cannot overflow it
    mu, vecs = np.linalg.eigh(0.5 * br + 0.5 * br.T)  # ascending
    if 0.5 * mu[1] - 0.5 * mu[0] <= 1e-12 * math.hypot(*(0.5 * br).flat):  # gap vs ||B||_F
        u2 = np.eye(2)
        mu_hi, mu_lo = br[0, 0], br[1, 1]  # B ~ I; keep the basis pairing
    else:
        mu_lo, mu_hi = mu
        v1 = vecs[:, 1]
        if v1[int(abs(v1[1]) >= abs(v1[0]))] < 0.0:
            v1 = -v1  # largest-magnitude entry non-negative (ties: the second)
        u2 = np.column_stack([v1, [-v1[1], v1[0]]])
    lam2 = _exp_pair(mu_hi, mu_lo, "b_matrix eigenvalue {}".format)
    u2c = u2.astype(complex)

    stages = (
        GateMatrix(u.entries @ _U1),
        GateMatrix(np.diag(lam1).astype(complex)),
        GateMatrix(_U1.conj().T @ u2c),
        GateMatrix(np.diag(lam2).astype(complex)),
        GateMatrix(u2c.T.conj()),
    )
    return MostowFactors(
        u=u,
        a=a,
        expanded=stages,
        u2=GateMatrix(u2c),
        lam1=lam1,
        lam2=lam2,
    )
