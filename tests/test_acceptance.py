"""End-to-end acceptance properties for the whole stack.

Each test is oracle-backed: reconstructions against independent formulas,
compiled netlists against their source matrices, feedback resolution against
a graph solve and a truncated geometric series, measurement against direct
recomputation. Tolerances and draw counts are fixed, not tuned per run.
"""

import time

import numpy as np
import pytest

from anbit import (
    AXIS_Z,
    AnbitState,
    CircuitGraph,
    CompositeState,
    FanInGate,
    FanOutGate,
    GateMatrix,
    SinkNode,
    SourceNode,
    TaylorGate,
    SpmParams,
    ann_layer,
    apply,
    cartesian_compose,
    check_fb_symmetry,
    controlled,
    euler_reconstruct,
    euler_zxz,
    euler_zyz,
    fan_in,
    fan_out,
    fanin_tensor_nonlinearity_witness,
    from_bloch,
    identity_gate,
    loop_equivalent,
    lower_fanin,
    lower_general_svd,
    lower_mostow,
    lower_pauli_mgate,
    lower_unitary_zxz,
    lower_unitary_zyz_fixed,
    measure_coherent,
    measure_differential,
    mostow_synthesize,
    nand_emulate,
    null_state,
    pauli,
    pauli_decompose,
    pauli_reconstruct,
    scattering_matrix,
    solve,
    spm_gate,
    svd2,
    svd_reconstruct,
    taylor_apply,
    to_bloch,
    two_anbit_loop,
)
from anbit.cli import emit_trajectory
from anbit.errors import ParamError
from anbit.serialization import gate_from_obj, state_from_obj

from conftest import random_matrix, random_state_vec, random_unitary


def test_decomposition_round_trips_at_scale():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst_euler = 0.0
    for _ in range(1000):
        u = GateMatrix(random_unitary(rng))
        for extract in (euler_zxz, euler_zyz):
            back = euler_reconstruct(extract(u))
            worst_euler = max(worst_euler, float(np.linalg.norm(back.entries - u.entries)))
    worst_general = 0.0
    for _ in range(1000):
        m = GateMatrix(random_matrix(rng))
        back = svd_reconstruct(svd2(m))
        worst_general = max(worst_general, float(np.linalg.norm(back.entries - m.entries)))
        back = pauli_reconstruct(pauli_decompose(m))
        worst_general = max(worst_general, float(np.linalg.norm(back.entries - m.entries)))
    elapsed = time.perf_counter() - t0
    assert worst_euler < 1e-10
    assert worst_general < 1e-10
    assert elapsed < 5.0


def test_compiled_netlists_reproduce_their_gates():
    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    worst = 0.0

    def check(nl, target):
        nonlocal worst
        worst = max(worst, float(np.max(np.abs(nl.forward_transfer() - target))))

    for _ in range(500):
        u = GateMatrix(random_unitary(rng))
        check(lower_unitary_zxz(u), u.entries)
        check(lower_unitary_zyz_fixed(u), u.entries)
        m = GateMatrix(random_matrix(rng))
        check(lower_general_svd(m), m.entries)
        check(lower_pauli_mgate(m), m.entries)
        q = rng.normal(size=(2, 2))
        f = mostow_synthesize(u, rng.uniform(-1, 1), 0.5 * (q + q.T))
        check(lower_mostow(f), f.target().entries)
        n = complex(rng.normal(), rng.normal())
        mm = complex(rng.normal(), rng.normal())
        if abs(n) > 1e-6 and abs(mm) > 1e-6:
            fi = FanInGate(n, mm)
            check(lower_fanin(fi), fi.matrix)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9
    assert elapsed < 10.0


def single_loop_graph(m1, m2):
    nodes = {
        "src": SourceNode(),
        "fi": FanInGate(1.0, 1.0),
        "g1": m1,
        "fo": FanOutGate(1.0, 1.0),
        "g2": m2,
        "out": SinkNode(),
    }
    edges = (
        (("src", 0), ("fi", 0)),
        (("fi", 0), ("g1", 0)),
        (("g1", 0), ("fo", 0)),
        (("fo", 0), ("out", 0)),
        (("fo", 1), ("g2", 0)),
        (("g2", 0), ("fi", 1)),
    )
    return CircuitGraph(nodes, edges)


def test_feedback_loop_three_oracles():
    rng = np.random.default_rng(3)
    basis = np.eye(2, dtype=complex)
    neumann_checked = 0
    for _ in range(100):
        m1 = GateMatrix(random_matrix(rng, 0.35))
        m2 = GateMatrix(random_matrix(rng, 0.35))
        eq = loop_equivalent(m1, m2).entries

        # oracle 1: the graph solver resolves the same loop
        graph = single_loop_graph(m1, m2)
        cols = []
        for k in range(2):
            out = solve(graph, {"src": AnbitState(basis[:, k])})["out"]
            cols.append(out.amps)
        from_graph = np.column_stack(cols)
        assert np.max(np.abs(from_graph - eq)) < 1e-10

        # oracle 2: truncated geometric series where it converges
        prod = m1.entries @ m2.entries
        if max(np.abs(np.linalg.eigvals(prod))) < 0.9:
            acc = np.eye(2, dtype=complex)
            term = np.eye(2, dtype=complex)
            for _ in range(200):
                term = term @ prod
                acc = acc + term
            series = acc @ m1.entries
            assert np.max(np.abs(series - eq)) < 1e-8
            neumann_checked += 1
    assert neumann_checked > 50  # the convergent subset must be exercised

    # worked case: half-identity gates close to two thirds exactly
    half = GateMatrix(0.5 * np.eye(2))
    eq = loop_equivalent(half, half).entries
    assert np.max(np.abs(eq - (2.0 / 3.0) * np.eye(2))) < 1e-12


def sequential_two_loop_graph(m1, m2, n1, n2, n3, n4, m3, m4):
    nodes = {
        "s1": SourceNode(),
        "s2": SourceNode(),
        "fia": FanInGate(n1, 1.0),
        "g1": m1,
        "foa": FanOutGate(n3, m3),
        "fib": FanInGate(n2, 1.0),
        "g2": m2,
        "fob": FanOutGate(n4, m4),
        "outa": SinkNode(),
        "outb": SinkNode(),
    }
    edges = (
        (("s1", 0), ("fia", 0)),
        (("fob", 1), ("fia", 1)),
        (("fia", 0), ("g1", 0)),
        (("g1", 0), ("foa", 0)),
        (("foa", 0), ("outa", 0)),
        (("foa", 1), ("fib", 1)),
        (("s2", 0), ("fib", 0)),
        (("fib", 0), ("g2", 0)),
        (("g2", 0), ("fob", 0)),
        (("fob", 0), ("outb", 0)),
    )
    return CircuitGraph(nodes, edges)


def combinational_graph(a1, a2, b1, b2):
    nodes = {
        "s1": SourceNode(),
        "s2": SourceNode(),
        "fo1": FanOutGate(1.0, 1.0),
        "fo2": FanOutGate(1.0, 1.0),
        "ga1": a1,
        "gb1": b1,
        "ga2": a2,
        "gb2": b2,
        "fia": FanInGate(1.0, 1.0),
        "fib": FanInGate(1.0, 1.0),
        "outa": SinkNode(),
        "outb": SinkNode(),
    }
    edges = (
        (("s1", 0), ("fo1", 0)),
        (("s2", 0), ("fo2", 0)),
        (("fo1", 0), ("ga1", 0)),
        (("fo1", 1), ("gb1", 0)),
        (("fo2", 0), ("ga2", 0)),
        (("fo2", 1), ("gb2", 0)),
        (("ga1", 0), ("fia", 0)),
        (("ga2", 0), ("fia", 1)),
        (("gb1", 0), ("fib", 0)),
        (("gb2", 0), ("fib", 1)),
        (("fia", 0), ("outa", 0)),
        (("fib", 0), ("outb", 0)),
    )
    return CircuitGraph(nodes, edges)


def test_sequential_equals_combinational():
    rng = np.random.default_rng(4)
    ran = 0
    for _ in range(100):
        m1 = GateMatrix(random_matrix(rng, 0.35))
        m2 = GateMatrix(random_matrix(rng, 0.35))
        n1 = complex(rng.normal(), rng.normal()) * 0.5
        n2 = complex(rng.normal(), rng.normal()) * 0.5
        if abs(n1) < 1e-3 or abs(n2) < 1e-3:
            continue
        n3, n4 = rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5)
        m3, m4 = rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5)
        try:
            a1, a2, b1, b2 = two_anbit_loop(
                m1, m2, n1=n1, n2=n2, n3=n3, n4=n4, m3=m3, m4=m4
            )
        except Exception:
            continue  # singular resolvent draw; out of scope here
        seq = sequential_two_loop_graph(m1, m2, n1, n2, n3, n4, m3, m4)
        comb = combinational_graph(a1, a2, b1, b2)
        p1 = AnbitState(random_state_vec(rng))
        p2 = AnbitState(random_state_vec(rng))
        r_seq = solve(seq, {"s1": p1, "s2": p2})
        r_comb = solve(comb, {"s1": p1, "s2": p2})
        for key in ("outa", "outb"):
            diff = np.max(np.abs(r_seq[key].amps - r_comb[key].amps))
            assert diff < 1e-10
        ran += 1
    assert ran >= 90  # skip branches must stay rare


def test_controlled_gate_algebra():
    rng = np.random.default_rng(5)
    for _ in range(200):
        f = GateMatrix(random_matrix(rng))
        n = int(rng.integers(1, 4))
        cg = controlled(f, n)
        assert abs(cg.embedded.det - f.det) < 1e-10

    # CNOT truth table, exact
    cnot = controlled(pauli(1), 1).embedded.entries
    for c in (0, 1):
        for t in (0, 1):
            vec = np.zeros(4)
            vec[2 * c + t] = 1.0
            out = cnot @ vec
            want = np.zeros(4)
            want[2 * c + (t ^ c)] = 1.0
            assert np.array_equal(out, want)

    # Toffoli truth table, exact
    toffoli = controlled(pauli(1), 2).embedded.entries
    for c1 in (0, 1):
        for c2 in (0, 1):
            for t in (0, 1):
                vec = np.zeros(8)
                vec[4 * c1 + 2 * c2 + t] = 1.0
                out = toffoli @ vec
                want = np.zeros(8)
                want[4 * c1 + 2 * c2 + (t ^ (c1 & c2))] = 1.0
                assert np.array_equal(out, want)

    assert nand_emulate(0, 0) == 1
    assert nand_emulate(0, 1) == 1
    assert nand_emulate(1, 0) == 1
    assert nand_emulate(1, 1) == 0


def test_fan_in_fan_out_laws():
    rng = np.random.default_rng(6)

    # determinant law over 200 draws
    for _ in range(200):
        n = complex(rng.normal(), rng.normal())
        m = complex(rng.normal(), rng.normal())
        if abs(n) < 1e-3 or abs(m) < 1e-3:
            continue
        det = np.linalg.det(FanInGate(n, m).matrix)
        assert abs(det - 4.0 * n**2 * m**2) < 1e-10

    # unitary exactly on the |n|^2 = |m|^2 = 1/2 boundary, not off it
    for _ in range(50):
        n = np.exp(1j * rng.uniform(0, 2 * np.pi)) / np.sqrt(2.0)
        m = np.exp(1j * rng.uniform(0, 2 * np.pi)) / np.sqrt(2.0)
        g = FanInGate(n, m).matrix
        assert np.max(np.abs(g.conj().T @ g - np.eye(4))) < 1e-12
    for scale in (0.6, 0.8, 1.2):
        g = FanInGate(scale / np.sqrt(2.0), 1.0 / np.sqrt(2.0)).matrix
        assert np.max(np.abs(g.conj().T @ g - np.eye(4))) > 1e-3

    # argument-swap law, bit exact
    for _ in range(100):
        a = AnbitState(random_state_vec(rng))
        b = AnbitState(random_state_vec(rng))
        n = complex(rng.normal(), rng.normal())
        m = complex(rng.normal(), rng.normal())
        s1, d1 = fan_in(a, b, n, m)
        s2, d2 = fan_in(b, a, n, -m)
        assert np.array_equal(s1.amps, s2.amps)
        assert np.array_equal(d1.amps, d2.amps)

    # cloning is summation with a null ancilla, bit exact
    for _ in range(100):
        a = AnbitState(random_state_vec(rng))
        n, m = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
        c1, c2 = fan_out(a, n, m)
        s, d = fan_in(a, null_state(2), n, m)
        assert np.array_equal(c1.amps, s.amps)
        assert np.array_equal(c2.amps, d.amps)

    # no tensor-product matrix reproduces fan-in on product inputs
    for _ in range(100):
        a = AnbitState(random_state_vec(rng))
        b = AnbitState(random_state_vec(rng))
        tensor_route, matrix_route = fanin_tensor_nonlinearity_witness(a, b)
        assert np.max(np.abs(tensor_route - matrix_route)) > 1e-8


def test_reciprocity_and_direction_symmetry():
    rng = np.random.default_rng(7)

    def fb_symmetry(nl):
        return check_fb_symmetry(nl.forward_transfer(), nl.backward_transfer())

    # fan-in netlist: symmetric exactly when both gains agree
    for _ in range(50):
        n = rng.uniform(0.2, 1.5)
        assert fb_symmetry(lower_fanin(FanInGate(n, n))) is True
        m = rng.uniform(0.2, 1.5)
        if abs(n - m) < 1e-3:
            continue
        assert fb_symmetry(lower_fanin(FanInGate(n, m))) is False

    # unequal outer phase stages flip the direction behavior
    checked = 0
    while checked < 50:
        u = GateMatrix(random_unitary(rng))
        f = euler_zxz(u)
        gap = abs(f.alpha1 - f.alpha3)
        gap = min(gap, 2.0 * np.pi - gap)
        if gap < 1e-3 or np.sin(0.5 * f.alpha2) < 1e-3:
            continue
        assert fb_symmetry(lower_unitary_zxz(u)) is False
        checked += 1

    # reciprocal scattering matrices are symmetric; the backward block comes
    # from the reversed sweep, so the symmetry is measured, not built in
    for maker in (
        lambda: lower_unitary_zxz(GateMatrix(random_unitary(rng))),
        lambda: lower_unitary_zyz_fixed(GateMatrix(random_unitary(rng))),
        lambda: lower_general_svd(GateMatrix(random_matrix(rng))),
        lambda: lower_pauli_mgate(GateMatrix(random_matrix(rng))),
        lambda: lower_fanin(FanInGate(0.9, 0.4)),
    ):
        for _ in range(10):
            nl = maker()
            s = scattering_matrix(nl.forward_transfer(), nl.backward_transfer())
            assert np.max(np.abs(s - s.T)) < 1e-12


def test_measurement_round_trip_and_invariance():
    rng = np.random.default_rng(8)

    # coherent detection keeps every degree of freedom
    for _ in range(1000):
        s = AnbitState(random_state_vec(rng))
        r = rng.uniform(0.5, 3.0)
        rec = measure_coherent(s, r)
        assert np.max(np.abs(rec.recovered.amps / r - s.amps)) < 1e-12

    # differential records ignore a global phase: identical for exactly
    # representable multipliers, equal to tolerance for continuous phases
    mults = (1.0, -1.0, 1.0j, -1.0j)
    for _ in range(250):
        s = AnbitState(random_state_vec(rng))
        base = measure_differential(s, 1.0)
        mult = mults[rng.integers(0, 4)]
        rec = measure_differential(AnbitState(mult * s.amps), 1.0)
        assert rec.photocurrents == base.photocurrents
        assert rec.phase == base.phase
        assert np.array_equal(rec.recovered.amps, base.recovered.amps)
        g = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        rec = measure_differential(AnbitState(g * s.amps), 1.0)
        assert np.allclose(rec.photocurrents, base.photocurrents, atol=1e-12)
        assert np.allclose(rec.recovered.amps, base.recovered.amps, atol=1e-12)

    # a declared-zero inter-arm delay leaves only the two powers
    rec = measure_differential(AnbitState([0.6, 0.8j], delta_t=0.0), 1.0)
    assert rec.edf == 2
    assert rec.phase is None


def test_sphere_round_trip_and_radius_conservation():
    rng = np.random.default_rng(9)
    for _ in range(500):
        s = AnbitState(random_state_vec(rng))
        p = to_bloch(s)
        back = to_bloch(from_bloch(p))
        assert abs(back.radius - p.radius) < 1e-12
        assert abs(back.theta - p.theta) < 1e-12
        assert np.exp(1j * back.phi) == pytest.approx(np.exp(1j * p.phi), abs=1e-12)

    # 10^4 points of a unitary sweep stay on the sphere
    state = AnbitState(random_state_vec(rng))
    radius = to_bloch(state).radius
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    rows = emit_trajectory(tuple(axis), 0.0, 2.0 * np.pi, state, 10000)
    assert len(rows) == 10000
    worst = max(abs(r[1] - radius) for r in rows)
    assert worst < 1e-12


def test_nonlinear_gates():
    rng = np.random.default_rng(10)

    # first-order response is the plain linear gate
    for _ in range(100):
        m = random_matrix(rng)
        gate = TaylorGate(np.zeros(2), tuple({1: m[j]} for j in range(2)), max_order=1)
        s = AnbitState(random_state_vec(rng))
        got = taylor_apply(gate, s, 1)
        want = apply(GateMatrix(m), s)
        assert np.max(np.abs(got.amps - want.amps)) < 1e-12

    # second-order model tracks a smooth map at step 1e-3
    zr = np.array([0.2, -0.1], dtype=complex)

    def f(z):
        return np.array([z[0] ** 3 + z[1], z[0] * z[1]])

    jac = np.array([[3 * zr[0] ** 2, 1.0], [zr[1], zr[0]]])
    hess0 = np.array([[6 * zr[0], 0.0], [0.0, 0.0]])
    hess1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    gate = TaylorGate(zr, ({1: jac[0], 2: hess0}, {1: jac[1], 2: hess1}), max_order=2)
    for _ in range(100):
        step = rng.normal(size=2) + 1j * rng.normal(size=2)
        step *= 1e-3 / np.linalg.norm(step)
        z = zr + step
        got = taylor_apply(gate, AnbitState(z), 2).amps
        want = f(z) - f(zr)
        assert np.max(np.abs(got - want)) < 1e-7

    # power through the phase-only nonlinearity, to a few ulp
    for _ in range(200):
        s = AnbitState(random_state_vec(rng))
        out = spm_gate(s, SpmParams(rng.uniform(-3, 3), rng.uniform(0, 2)))
        p_in = s.amps.real**2 + s.amps.imag**2
        p_out = out.amps.real**2 + out.amps.imag**2
        for a, b in zip(p_in, p_out):
            assert abs(a - b) <= 4.0 * np.spacing(max(a, b))

    # identity activation reduces the layer to its weight matrix
    for _ in range(100):
        d = int(rng.integers(2, 6))
        w = GateMatrix(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        x = cartesian_compose([AnbitState([v]) for v in random_state_vec(rng, d)])
        out = ann_layer(w, lambda z: z, x)
        assert np.max(np.abs(out.flat - w.entries @ x.flat)) < 1e-12


_X_RESPONSE = TaylorGate(np.zeros(2), ({1: [1.0, 0.0]},), max_order=1)
_PAIRS = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: controlled(pauli(1), 1.5), ParamError, "n_controls 1.5 is not an integer"),
        (lambda: controlled(pauli(1), "2"), ParamError, "n_controls '2' is not an integer"),
        (lambda: taylor_apply(_X_RESPONSE, AnbitState([1.0, 0.0]), 1.5), ParamError, "order 1.5 is not an integer"),
        (lambda: TaylorGate(np.zeros(2), ({1: [1.0, 0.0]},), max_order=1.5), ParamError,
         "max_order 1.5 is not an integer"),
        (lambda: TaylorGate(np.zeros(2), ({1.5: [1.0, 0.0]},), max_order=2), ParamError,
         "tensor order 1.5 is not an integer"),
        (lambda: CompositeState("cartesian", [1.0, 2.0], (1.5, 1)), ParamError, "part dim 1.5 is not an integer"),
        (lambda: emit_trajectory(AXIS_Z, 0.0, 1.0, AnbitState([1.0, 0.0]), 2.5), ParamError,
         "steps 2.5 is not an integer"),
        (lambda: pauli(1.0), ParamError, "pauli index 1.0 is not an integer"),
        (lambda: null_state(2.5), ParamError, "dim 2.5 is not an integer"),
        (lambda: state_from_obj({"dim": 2.9, "amps": _PAIRS[0]}), ValueError,
         "state dim: 'float' object cannot be interpreted as an integer"),
        (lambda: gate_from_obj({"dim": 2.5, "entries": _PAIRS}), ValueError,
         "gate dim: 'float' object cannot be interpreted as an integer"),
    ],
    ids=[
        "controlled-float", "controlled-str", "taylor-order", "taylor-max-order", "taylor-tensor-order",
        "part-dims", "trajectory-steps", "pauli-index", "null-state-dim", "state-json-dim", "gate-json-dim",
    ],
)
def test_integer_arguments_are_not_truncated(call, error, message):
    # every integer argument is read by operator.index: 1.5 and "2" fail typed, never as 1 or 2
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
