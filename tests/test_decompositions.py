import cmath
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anbit import (
    GateClass,
    GateMatrix,
    euler_reconstruct,
    euler_zxz,
    euler_zyz,
    identity_gate,
    lower_general_svd,
    lower_mostow,
    lower_pauli_mgate,
    lower_unitary_zxz,
    lower_unitary_zyz_fixed,
    mostow_synthesize,
    pauli,
    pauli_decompose,
    pauli_reconstruct,
    svd2,
    svd_reconstruct,
)
from anbit.errors import ClassError, DimError, ParamError, SymmetryError

from conftest import random_matrix, random_unitary

PI = np.pi


def rz(t):
    return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])


def rx(a):
    c, s = np.cos(0.5 * a), np.sin(0.5 * a)
    return np.array([[c, -1j * s], [-1j * s, c]])


def ry(a):
    c, s = np.cos(0.5 * a), np.sin(0.5 * a)
    return np.array([[c, -s], [s, c]])


def oracle_rebuild(f):
    """Trig-product reconstruction written independently of the package."""
    mid = rx if f.convention == "zxz" else ry
    return np.exp(1j * f.delta) * (rz(f.alpha3) @ mid(f.alpha2) @ rz(f.alpha1))


def test_euler_zxz_sigma_x():
    f = euler_zxz(pauli(1))
    assert f.delta == pytest.approx(PI / 2.0, abs=1e-15)
    assert f.alpha1 == pytest.approx(0.0, abs=1e-15)
    assert f.alpha2 == pytest.approx(PI, abs=1e-15)
    assert f.alpha3 == pytest.approx(0.0, abs=1e-15)


def test_euler_zyz_sigma_x():
    f = euler_zyz(pauli(1))
    assert f.delta == pytest.approx(3.0 * PI / 2.0, abs=1e-14)
    assert f.alpha1 == pytest.approx(PI / 2.0, abs=1e-14)
    assert f.alpha2 == pytest.approx(PI, abs=1e-14)
    assert f.alpha3 == pytest.approx(3.0 * PI / 2.0, abs=1e-14)
    assert np.allclose(oracle_rebuild(f), pauli(1).entries, atol=1e-14)


def test_euler_zxz_sigma_z_hits_gimbal():
    f = euler_zxz(pauli(3))
    assert f.alpha2 == pytest.approx(0.0, abs=1e-15)
    assert f.alpha1 == 0.0  # forced on the degenerate branch
    assert f.alpha3 == pytest.approx(PI, abs=1e-14)
    assert f.delta == pytest.approx(PI / 2.0, abs=1e-14)


# Near gimbal lock the general rule stays exact: the lowered transfer of
# e^(i delta) R_z(a3) R_mid(beta) R_z(a1) is within 16 eps of the gate for tiny
# beta (measured: at most 9 eps over 1000 draws per point and arch), where
# pinning alpha1 = 0 would drop an error of about beta.
@pytest.mark.parametrize("beta", [1e-14, 1e-13, 1e-12])
@pytest.mark.parametrize("mid,lower", [(rx, lower_unitary_zxz), (ry, lower_unitary_zyz_fixed)], ids=["zxz", "zyz"])
def test_lowering_near_gimbal_lock_is_exact_to_rounding(beta, mid, lower):
    rng = np.random.default_rng(11)
    for _ in range(50):
        d, a1, a3 = rng.uniform(0.0, 2.0 * PI, 3)
        g = np.exp(1j * d) * rz(a3) @ mid(beta) @ rz(a1)
        err = np.max(np.abs(lower(GateMatrix(g)).forward_transfer() - g))
        assert err <= 16 * np.finfo(float).eps, (d, a1, a3, err)


def test_euler_zxz_hadamard():
    h = GateMatrix(np.array([[1, 1], [1, -1]]) / np.sqrt(2.0))
    f = euler_zxz(h)
    for v in (f.delta, f.alpha1, f.alpha2, f.alpha3):
        assert v == pytest.approx(PI / 2.0, abs=1e-14)


def test_euler_rejects_nonunitary():
    with pytest.raises(ClassError):
        euler_zxz(GateMatrix([[2.0, 0.0], [0.0, 1.0]]))


def test_euler_angle_ranges(rng):
    for _ in range(300):
        u = GateMatrix(random_unitary(rng))
        for f in (euler_zxz(u), euler_zyz(u)):
            assert 0.0 <= f.delta < 2.0 * PI
            assert 0.0 <= f.alpha1 < 2.0 * PI
            assert 0.0 <= f.alpha2 <= PI
            assert 0.0 <= f.alpha3 < 2.0 * PI


def test_euler_round_trip_both_conventions(rng):
    worst = 0.0
    for _ in range(300):
        u = GateMatrix(random_unitary(rng))
        for extract in (euler_zxz, euler_zyz):
            f = extract(u)
            err = np.max(np.abs(euler_reconstruct(f).entries - u.entries))
            worst = max(worst, err)
            # second route: independent trig-product oracle
            err2 = np.max(np.abs(oracle_rebuild(f) - u.entries))
            worst = max(worst, err2)
    assert worst < 1e-12


def test_euler_reconstruct_matches_oracle(rng):
    for _ in range(100):
        u = GateMatrix(random_unitary(rng))
        f = euler_zxz(u)
        assert np.allclose(euler_reconstruct(f).entries, oracle_rebuild(f), atol=1e-14)


def test_svd2_against_lapack(rng):
    for _ in range(300):
        m = GateMatrix(random_matrix(rng))
        f = svd2(m)
        ref = np.linalg.svd(m.entries, compute_uv=False)
        got = sorted((f.d1, f.d2), reverse=True)
        assert got[0] == pytest.approx(ref[0], abs=1e-10)
        assert got[1] == pytest.approx(ref[1], abs=1e-10)


def test_svd2_factors_unitary_and_rebuild(rng):
    for _ in range(300):
        m = GateMatrix(random_matrix(rng))
        f = svd2(m)
        for w in (f.u1, f.u2):
            assert np.allclose(
                w.entries.conj().T @ w.entries, np.eye(2), atol=1e-12
            )
        assert f.d1 >= 0.0 and f.d2 >= 0.0
        assert np.max(np.abs(svd_reconstruct(f).entries - m.entries)) < 1e-12


def test_svd2_singular_input():
    m = GateMatrix([[1.0, 1.0], [1.0, 1.0]])
    f = svd2(m)
    assert min(f.d1, f.d2) == pytest.approx(0.0, abs=1e-14)
    assert max(f.d1, f.d2) == pytest.approx(2.0, abs=1e-14)


def test_pauli_coefficients_frozen():
    c = pauli_decompose(pauli(2))
    assert np.allclose(c, (0, 0, 1, 0), atol=1e-15)
    c = pauli_decompose(GateMatrix([[1.0, 2.0], [3.0j, 4.0]]))
    assert np.allclose(c, (2.5, 1 + 1.5j, 1.5 + 1j, -1.5), atol=1e-15)


def test_pauli_trace_oracle(rng):
    # alpha_k = tr(sigma_k M) / 2, computed independently
    for _ in range(200):
        m = GateMatrix(random_matrix(rng))
        c = pauli_decompose(m)
        for k in range(4):
            want = 0.5 * np.trace(pauli(k).entries @ m.entries)
            assert c[k] == pytest.approx(want, abs=1e-13)


def test_pauli_round_trip(rng):
    for _ in range(200):
        m = GateMatrix(random_matrix(rng))
        back = pauli_reconstruct(pauli_decompose(m))
        assert np.max(np.abs(back.entries - m.entries)) < 1e-13


@settings(max_examples=60, deadline=None)
@given(
    parts=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8).filter(any),
    top=st.floats(1e308, 1.79e308),
)
def test_pauli_coefficients_of_a_gate_near_the_float_limit_are_finite(parts, top):
    # each entry is halved before the sums, so no sum of two entries passes the float range
    entries = np.array(parts[:4]) + 1j * np.array(parts[4:])
    entries = (entries / np.abs(entries).max() * top).reshape(2, 2)
    assert np.isfinite(entries).all()
    assert all(cmath.isfinite(c) for c in pauli_decompose(GateMatrix(entries)))


def test_pauli_linearity(rng):
    a = GateMatrix(random_matrix(rng))
    b = GateMatrix(random_matrix(rng))
    ca, cb = pauli_decompose(a), pauli_decompose(b)
    csum = pauli_decompose(GateMatrix(a.entries + 2.0 * b.entries))
    for k in range(4):
        assert csum[k] == pytest.approx(ca[k] + 2.0 * cb[k])


B_EXAMPLE = np.array([[0.25, 0.1], [0.1, -0.3]])


def expm_oracle(a, b):
    """e^(iA) e^B by eigendecomposition, independent of the synthesis code."""
    amat = np.array([[0.0, a], [-a, 0.0]])
    wb, vb = np.linalg.eigh(b)
    eb = vb @ np.diag(np.exp(wb)) @ vb.T
    wa, va = np.linalg.eig(1j * amat)
    eia = va @ np.diag(np.exp(wa)) @ np.linalg.inv(va)
    return eia @ eb


def test_mostow_stages_multiply_to_target():
    f = mostow_synthesize(identity_gate(), 0.5, B_EXAMPLE)
    assert len(f.expanded) == 5
    prod = np.linalg.multi_dot([s.entries for s in f.expanded])
    assert np.max(np.abs(prod - f.target().entries)) < 1e-12


def test_mostow_target_matches_expm_oracle(rng):
    for _ in range(50):
        u = GateMatrix(random_unitary(rng))
        a = rng.uniform(-1.0, 1.0)
        q = rng.normal(size=(2, 2))
        b = 0.5 * (q + q.T)
        f = mostow_synthesize(u, a, b)
        want = u.entries @ expm_oracle(a, b)
        assert np.max(np.abs(f.target().entries - want)) < 1e-12
        prod = np.linalg.multi_dot([s.entries for s in f.expanded])
        assert np.max(np.abs(prod - want)) < 1e-12


def test_mostow_diagonal_stages_positive(rng):
    f = mostow_synthesize(identity_gate(), 0.5, B_EXAMPLE)
    assert f.lam1 == pytest.approx((np.exp(-0.5), np.exp(0.5)))
    assert all(v > 0 for v in f.lam1)
    assert all(v > 0 for v in f.lam2)
    # middle factors are unitary, diagonals are real diagonal matrices
    for idx in (0, 2, 4):
        w = f.expanded[idx].entries
        assert np.allclose(w.conj().T @ w, np.eye(2), atol=1e-12)
    for idx in (1, 3):
        w = f.expanded[idx].entries
        assert np.allclose(w, np.diag(np.diagonal(w).real), atol=1e-15)


def test_mostow_diagonal_b():
    # already-diagonal symmetric part keeps the basis pairing
    f = mostow_synthesize(identity_gate(), 0.0, np.diag([0.4, -0.2]))
    assert f.lam2 == pytest.approx((np.exp(0.4), np.exp(-0.2)))


def test_mostow_validation():
    with pytest.raises(ClassError):
        mostow_synthesize(GateMatrix([[2.0, 0.0], [0.0, 1.0]]), 0.1, B_EXAMPLE)
    with pytest.raises(SymmetryError):
        mostow_synthesize(identity_gate(), 0.1, np.array([[0.1, 1.0], [0.0, 0.2]]))
    with pytest.raises(SymmetryError):
        mostow_synthesize(identity_gate(), 0.1, np.array([[0.1, 1j], [-1j, 0.2]]))


@pytest.mark.parametrize(
    "a,b,message",
    [
        (0.1, [[np.nan, 0.0], [0.0, 0.2]], "b_matrix must be finite"),
        (0.1, [[0.1, np.inf], [np.inf, 0.2]], "b_matrix must be finite"),
        (800.0, B_EXAMPLE, "antisymmetric parameter 800.0 overflows its exponential"),
        (-800.0, B_EXAMPLE, "antisymmetric parameter -800.0 overflows its exponential"),
        (0.1, [[800.0, 0.0], [0.0, 0.2]], "b_matrix eigenvalue 800.0 overflows its exponential"),
        (np.inf, B_EXAMPLE, "antisymmetric parameter must be finite"),
        (np.nan, B_EXAMPLE, "antisymmetric parameter must be finite"),
    ],
    ids=["b-nan", "b-inf", "a-overflow", "a-negative-overflow", "b-eigenvalue-overflow", "a-inf", "a-nan"],
)
def test_mostow_rejects_non_finite_factors(a, b, message):
    # a factor of inf or nan would only fail later, as a device value or in the JSON writer
    with pytest.raises(ParamError) as exc:
        mostow_synthesize(identity_gate(), a, np.array(b))
    assert str(exc.value) == message


@pytest.mark.parametrize("b", [[[-800.0, 0.0], [0.0, 0.2]], [[0.2, 0.0], [0.0, -800.0]]], ids=["first", "second"])
def test_mostow_rejects_underflowing_exponential(b):
    # e^-800 is 0.0 in floats: a gain of 0 would block its wire, and e^B is invertible
    with pytest.raises(ParamError) as exc:
        mostow_synthesize(identity_gate(), 0.0, np.array(b))
    assert str(exc.value) == "b_matrix eigenvalue -800.0 underflows its exponential"


def test_mostow_accepts_subnormal_exponential():
    f = mostow_synthesize(identity_gate(), 0.0, np.diag([0.0, -740.0]))
    assert f.lam2 == (1.0, float(np.exp(-740.0))) and f.lam2[1] > 0.0


def test_mostow_symmetrizes_b_near_the_float_limit():
    # B is symmetrized as a sum of halves: an entry near the float limit does not
    # overflow it, the error names the finite eigenvalue, and nothing warns
    b = np.array([[1e308, 1e308], [1e308, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParamError, match=r"^b_matrix eigenvalue 1\.6180339887\d*e\+308 overflows its exponential$"):
            mostow_synthesize(identity_gate(), 0.1, b)


# --- one contract for every decomposition and lowering -----------------------

TOL = 1e-9  # lowered forward transfers, relative (the benchmark's reference TOL)
RECON_RTOL = 1e-12  # factor reconstructions, relative
NEAR_SINGULAR_R = (1.0 - 1e-13, 1e-3, 1e-6, 1e-9, 1e-12, 0.0)
SEEDS = st.integers(0, 2**32 - 1)


def rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def assert_unitary(g):
    assert g.gate_class is GateClass.UNITARY


def check_contract(m, rng, unitary=False):
    """Every factorization and lowering of m keeps its declared contract.

    Mostow synthesis is checked on u e^(iA) e^B with e^B carrying m's
    singular values, so it sees the same conditioning as m.
    """
    g = GateMatrix(m)
    lowerings = [lower_general_svd, lower_pauli_mgate]
    if unitary:
        assert_unitary(g)  # the Euler input
        for extract in (euler_zxz, euler_zyz):
            assert rel(euler_reconstruct(extract(g)).entries, m) <= RECON_RTOL
        lowerings += [lower_unitary_zxz, lower_unitary_zyz_fixed]

    f = svd2(g)
    assert_unitary(f.u1)
    assert_unitary(f.u2)
    assert f.d1 >= f.d2 >= 0.0
    assert rel(svd_reconstruct(f).entries, m) <= RECON_RTOL
    assert rel(pauli_reconstruct(pauli_decompose(g)).entries, m) <= RECON_RTOL
    for lower in lowerings:
        assert rel(lower(g).forward_transfer(), m) <= TOL, lower.__name__

    s = np.linalg.svd(m, compute_uv=False)
    if s[1] == 0.0:
        return  # not invertible: outside Mostow synthesis
    u = random_unitary(rng)
    a = rng.uniform(-1.0, 1.0)
    theta = rng.uniform(0.0, np.pi)
    q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    e_ia = np.array([[np.cosh(a), 1j * np.sinh(a)], [-1j * np.sinh(a), np.cosh(a)]])
    want = u @ e_ia @ q @ np.diag(s) @ q.T
    fm = mostow_synthesize(GateMatrix(u), a, q @ np.diag(np.log(s)) @ q.T)
    for idx in (0, 2, 4):
        assert_unitary(fm.expanded[idx])
    assert min(fm.lam1 + fm.lam2) > 0.0
    assert rel(np.linalg.multi_dot([w.entries for w in fm.expanded]), want) <= RECON_RTOL
    assert rel(lower_mostow(fm).forward_transfer(), want) <= TOL


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_contract_haar_unitaries(seed):
    rng = np.random.default_rng(seed)
    check_contract(random_unitary(rng), rng, unitary=True)


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_contract_census_gates(seed):
    rng = np.random.default_rng(seed)
    check_contract(random_matrix(rng), rng)


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.sampled_from(NEAR_SINGULAR_R), st.sampled_from((-3.0, 3.0)))
def test_contract_near_singular_gates(seed, r, log_scale):
    """Haar . diag(1, r) . Haar scaled by e^(+-3), r from 1 - 1e-13 down to 0."""
    rng = np.random.default_rng(seed)
    m = np.exp(log_scale) * random_unitary(rng) @ np.diag([1.0, r]) @ random_unitary(rng)
    check_contract(m, rng)


@pytest.mark.parametrize(
    "factor,message",
    [
        (euler_zxz, "Euler factorization is defined for dim 2"),
        (euler_zyz, "Euler factorization is defined for dim 2"),
        (svd2, "svd2 is defined for dim 2"),
        (pauli_decompose, "Pauli expansion is defined for dim 2"),
        (lambda g: mostow_synthesize(g, 0.1, B_EXAMPLE), "synthesis is defined for dim 2"),
    ],
    ids=["euler", "euler-zyz", "svd2", "pauli", "mostow"],
)
def test_factorizations_of_a_dim3_gate_are_dim_errors(factor, message):
    with pytest.raises(DimError) as exc:
        factor(GateMatrix(np.eye(3)))
    assert str(exc.value) == message


# --- factor tables: the stacked forms lowering uses, bit for bit the one-gate results ---

# gate draws: Haar unitaries, gimbal-lock gates, signed zeros, scaled unitaries, the zero
# gate, and subnormal and 1e150-scale entries; the first five kinds are unitary
_UNITARY_KINDS = {
    "haar": random_unitary,
    "sigma-z": lambda rng: np.diag([1.0, -1.0]).astype(complex),
    "diagonal-phases": lambda rng: np.diag(np.exp(1j * rng.uniform(-7.0, 7.0, 2))),
    "signed-zero-swap": lambda rng: np.array([[complex(-0.0, -0.0), 1.0], [1.0, complex(0.0, -0.0)]]),
    "signed-zero-diagonal": lambda rng: np.array([[complex(-1.0, -0.0), complex(-0.0, 0.0)], [0.0, 1j]]),
}
_OTHER_KINDS = {
    "scaled": lambda rng: rng.uniform(0.1, 10.0) * random_unitary(rng),
    "zero": lambda rng: np.zeros((2, 2), dtype=complex),
    "general": lambda rng: random_matrix(rng),
    "subnormal": lambda rng: 1e-310 * random_unitary(rng),
    "subnormal-diagonal": lambda rng: np.diag([5e-324, 1e-320]).astype(complex),
    "1e150": lambda rng: 1e150 * random_matrix(rng),
}


def _stack(kinds, seed):
    rng = np.random.default_rng(seed)
    table = {**_UNITARY_KINDS, **_OTHER_KINDS}
    return np.array([table[k](rng) for k in kinds], dtype=complex).reshape(-1, 2, 2)


def _bits(x):
    return np.asarray(x, dtype=complex).view(np.uint64).tolist()


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(sorted(_UNITARY_KINDS)), min_size=1, max_size=24),
    seed=st.integers(0, 2**32 - 1),
)
def test_euler_table_is_the_one_gate_rule_bit_for_bit(kinds, seed):
    from anbit.decompositions import _euler_table

    stack = _stack(kinds, seed)
    for middle, one in (("zxz", euler_zxz), ("zyz", euler_zyz)):
        table = _euler_table(stack.tolist(), middle)
        for m, row in zip(stack, table):
            f = one(GateMatrix(m))
            assert [v.hex() for v in row] == [v.hex() for v in (f.delta, f.alpha1, f.alpha2, f.alpha3)]


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(sorted({**_UNITARY_KINDS, **_OTHER_KINDS})), min_size=1, max_size=24),
    seed=st.integers(0, 2**32 - 1),
)
def test_svd_table_is_svd2_bit_for_bit(kinds, seed):
    from anbit.decompositions import _svd_table

    stack = _stack(kinds, seed)
    for m, (u2, d1, d2, u1) in zip(stack, _svd_table(stack.tolist())):
        f = svd2(GateMatrix(m))
        assert [d1.hex(), d2.hex()] == [f.d1.hex(), f.d2.hex()]
        assert (_bits(u2), _bits(u1)) == (_bits(f.u2.entries), _bits(f.u1.entries))
        assert all(type(z) is complex for rows in (u2, u1) for row in rows for z in row)


_DOUBLES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 1e308])


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(_DOUBLES, _DOUBLES), min_size=1, max_size=40))
def test_array_arctangents_are_the_scalar_ones(pairs):
    # the tables take the angles of many gates in one np.arctan2 or np.angle call;
    # each entry must be the double a call on that one angle gives
    ys, xs = (list(c) for c in zip(*pairs))
    want = [float(np.arctan2(y, x)).hex() for y, x in pairs]
    assert [v.hex() for v in np.arctan2(ys, xs).tolist()] == want
    assert [v.hex() for v in np.angle([complex(x, y) for y, x in pairs]).tolist()] == want
