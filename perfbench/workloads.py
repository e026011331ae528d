"""Seeded workload generators.

A workload is an endless sequence of cycles; a cycle is a fixed list of job
shapes whose numeric content is drawn from the run's seed. The shapes (sizes,
families, kinds) are the same for every seed, so seeds change the numbers the
program sees but not the amount of work, and a run of whole cycles has the
same job mix whatever its length.

Each job is a list of CLI invocations (argv for `anbit.cli.main`) on files
written before the cycle starts, or one library call, plus a check from
`reference` that judges the outputs without using the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

SQRT_HALF = math.sqrt(0.5)
G_GATE_EVERY = 4  # one gate in four is a G-gate
G_NOISE = 0.1  # a G-gate is a Haar unitary plus complex Gaussian entries x G_NOISE
LOOP_GATE_SCALE = 0.4  # loop gates are complex Gaussian x 0.4
INPUTS_PER_CIRCUIT = 4  # sim-large: each circuit is simulated on 4 input states
LOOP = dict(n1=0.9, n2=1.1, m2p=0.7, m1p=1.0)
TWO_LOOP = dict(n1=0.8 + 0.1j, n2=1.1 - 0.2j, n3=0.9, n4=1.2, m3=0.7, m4=0.6)

# sim-large cycle: (family, edges). Sizes double from 50 to 400 per family;
# the 800-gate chain is the re-anchor case. G-gates stay near unitary, so even
# the 800-gate chain's edge system is well conditioned (condition 1e3-4e4 on
# four seeds, against the 1e12 at which solve reports a singular loop) and no
# job fails at the seed; chains of census G-gates, which the seed flags
# singular, are in the seed-defect probe (probe.py).
SIM_LARGE = (
    ("chain", 50), ("ladder", 50), ("loopchain", 50),
    ("chain", 100), ("ladder", 100), ("loopchain", 100),
    ("chain", 200), ("ladder", 200), ("loopchain", 200),
    ("chain", 400), ("ladder", 400), ("loopchain", 400),
    ("chain", 801),
)

# compile-netlist cycle: (arch, family, gates). Narrow 2-wire jobs (zxz/svd,
# chains and default-ancilla ladders of 20-50 gates) are the majority and set
# p50; wide pauli chains of 10-16 gates (6 scratch wires per gate, 62-98
# wires) set p90 and throughput. zxz circuits are all Haar unitaries, which
# the Euler architecture needs; svd circuits are all G-gates, because the
# seed's svd lowering rejects unitary gates (see the seed-defect probe). With
# 20 narrow and 5 wide jobs per cycle the median falls on the 40-gate svd
# chains and the p90 among the three 12-gate pauli chains, whatever the
# number of whole cycles. A 25-gate pauli job takes about 5 s at the seed, a
# quarter of a run, so the 152-wire case is timed by the probe instead.
COMPILE_NETLIST = tuple(
    (arch, family, gates)
    for gates in (20, 25, 30, 40, 50)
    for family in ("chain", "ladder")
    for arch in ("zxz", "svd")
) + tuple(("pauli", "chain", gates) for gates in (10, 12, 12, 12, 16))

DECOMPOSE_METHODS = ("euler-zxz", "euler-zyz", "svd", "pauli", "mostow-synth")
LOWER_ARCHES = ("zxz", "zyz", "svd", "pauli", "mostow", "fanin")
CONTROLS = (1, 2, 3, 4, 5, 6)
# controlled(F, n) targets are G-gates below this embedded dimension and Haar
# unitaries from it on: the seed labels larger embeddings of a G-gate SINGULAR
# (the seed-defect probe measures that)
CONTROLLED_G_DIM = 16

# Scaling probe sizes: the re-anchor cases; never shrink them.
PROBE_SOLVE_CHAINS = (200, 400, 800)
PROBE_PAULI_CHAINS = (10, 25, 50)  # 62, 152 and 302 wires


@dataclass
class Job:
    kind: str
    check: Callable  # outputs -> None or a failure tag
    files: dict = field(default_factory=dict)  # path -> text, written before the cycle
    cli: list = field(default_factory=list)  # [(argv, save stdout to path or None)]
    controlled: tuple | None = None  # (target entries, n) for a library job
    kernel: str | None = None  # speed.py kernel that scales its time; None: the workload's first


# --- random draws -------------------------------------------------------------

def haar(rng) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def gauss(rng, scale=1.0) -> np.ndarray:
    """Complex Gaussian entries, the G-gate draw of scripts/architecture_census.py."""
    return scale * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))


def gain_gate(rng) -> np.ndarray:
    """G-gate of the timed workloads: a Haar unitary plus Gaussian entries x G_NOISE.

    Its singular values stay within about 1 +- 0.3, so products over hundreds
    of gates stay well conditioned, and it is never unitary to the package's
    classification tolerance.
    """
    return haar(rng) + gauss(rng, G_NOISE)


def vec(rng) -> np.ndarray:
    return rng.normal(size=2) + 1j * rng.normal(size=2)


# --- JSON inputs ----------------------------------------------------------------

def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def gate_obj(m) -> dict:
    return {"dim": 2, "entries": [[_pair(v) for v in row] for row in m]}


def state_obj(v) -> dict:
    return {"dim": len(v), "amps": [_pair(a) for a in v]}


def circuit_obj(stages) -> dict:
    """One-source, one-sink circuit JSON for a list of stages (see reference)."""
    nodes = [{"id": "s", "kind": "source", "params": {}}]
    edges = []

    def node(kind, params) -> str:
        nid = f"n{len(nodes)}"
        nodes.append({"id": nid, "kind": kind, "params": params})
        return nid

    def wire(src, dst):
        edges.append({"from": list(src), "to": list(dst)})

    def run(start, mats):
        for m in mats:
            g = node("gate", gate_obj(m))
            wire(start, (g, 0))
            start = (g, 0)
        return start

    cur = ("s", 0)
    for st in stages:
        if st[0] == "gate":
            cur = run(cur, [st[1]])
        elif st[0] == "rung":
            _, branch_a, branch_b, (fo_n, fo_m), (fi_n, fi_m) = st
            fo = node("fanout", {"n": fo_n, "m": fo_m})
            wire(cur, (fo, 0))
            a = run((fo, 0), branch_a)
            b = run((fo, 1), branch_b)
            fi = node("fanin", {"n": _pair(fi_n), "m": _pair(fi_m)})
            wire(a, (fi, 0))
            wire(b, (fi, 1))
            cur = (fi, 0)
        else:
            _, m1, m2, n1, n2, m2p = st
            fi = node("fanin", {"n": _pair(n1), "m": _pair(LOOP["m1p"])})
            g1 = node("gate", gate_obj(m1))
            fo = node("fanout", {"n": n2, "m": m2p})
            g2 = node("gate", gate_obj(m2))
            wire(cur, (fi, 0))
            wire((fi, 0), (g1, 0))
            wire((g1, 0), (fo, 0))
            wire((fo, 1), (g2, 0))
            wire((g2, 0), (fi, 1))
            cur = (fo, 0)
    nodes.append({"id": "t", "kind": "sink", "params": {}})
    wire(cur, ("t", 0))
    return {"nodes": nodes, "edges": edges, "sources": ["s"], "sinks": ["t"]}


# --- circuit families -------------------------------------------------------------

class _Gates:
    """Chain and branch gates in creation order.

    Every `every`-th gate (none for 0) is a G-gate drawn by `draw`, the
    others are Haar unitaries.
    """

    def __init__(self, rng, every: int, draw):
        self.rng, self.every, self.draw = rng, every, draw
        self.count, self.gain = 0, False

    def __call__(self) -> np.ndarray:
        self.count += 1
        if self.every and self.count % self.every == 0:
            self.gain = True
            return self.draw(self.rng)
        return haar(self.rng)


def chain(rng, n_gates: int, every=G_GATE_EVERY, draw=gain_gate):
    gates = _Gates(rng, every, draw)
    return [("gate", gates()) for _ in range(n_gates)], gates.gain


def ladder(rng, n_gates: int, every=G_GATE_EVERY):
    """Rungs of fan-out -> two 2-gate branches -> fan-in, weights 1/sqrt2."""
    gates = _Gates(rng, every, gain_gate)
    stages = []
    for _ in range(n_gates // 4):
        a = [gates(), gates()]
        b = [gates(), gates()]
        stages.append(("rung", a, b, (SQRT_HALF, SQRT_HALF), (SQRT_HALF, SQRT_HALF)))
    stages += [("gate", gates()) for _ in range(n_gates % 4)]
    return stages, gates.gain


def loopchain(rng, n_edges: int):
    """Seven chain gates then one single-anbit feedback loop, repeated."""
    gates = _Gates(rng, G_GATE_EVERY, gain_gate)
    stages = []
    for _ in range((n_edges - 1) // 12):
        stages += [("gate", gates()) for _ in range(7)]
        m1 = gauss(rng, LOOP_GATE_SCALE)
        m2 = gauss(rng, LOOP_GATE_SCALE)
        stages.append(("loop", m1, m2, LOOP["n1"], LOOP["n2"], LOOP["m2p"]))
    stages += [("gate", gates()) for _ in range((n_edges - 1) % 12)]
    return stages, True


def edges_to_gates(family: str, n_edges: int) -> int:
    # a chain of g gates has g + 1 edges; a ladder rung of 4 gates has 7
    return n_edges - 1 if family == "chain" else 4 * ((n_edges - 1) // 7)


def loops_ok(stages) -> bool:
    return all(ref.loop_conditioned(s[1], s[2], s[3], s[5]) for s in stages if s[0] == "loop")


# --- workloads ----------------------------------------------------------------------

class Workload:
    """Cycle generator; `cycle(c)` returns the jobs of cycle c.

    kernels: the speed.py calibration kernels that do the kind of work of this
    workload's jobs, the first for every job that names none; warmup_jobs: jobs of an extra cycle run untimed first (None: all);
    trace_cycles: whole cycles a traced run replays.
    """

    name = ""
    kernels = ("interpreter",)
    warmup_jobs = None
    trace_cycles = 1

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work

    def rng(self, c: int):
        return np.random.default_rng([self.seed, c])

    def path(self, c: int, name: str) -> str:
        return str(self.work / f"c{c}-{name}")

    def cycle(self, c: int) -> list:
        raise NotImplementedError


class SimLarge(Workload):
    name = "sim-large"
    kernels = ("lapack",)  # dense SVDs of the edge system take most of the time
    warmup_jobs = 12  # the 50-edge circuits
    trace_cycles = 2

    def cycle(self, c):
        rng = self.rng(c)
        jobs = []
        for i, (family, n_edges) in enumerate(SIM_LARGE):
            if family == "loopchain":
                stages, gain = loopchain(rng, n_edges)
            else:
                build = chain if family == "chain" else ladder
                stages, gain = build(rng, edges_to_gates(family, n_edges))
            t = ref.circuit_matrix(stages)
            ok = loops_ok(stages)
            cpath = self.path(c, f"{i}.json")
            for k in range(INPUTS_PER_CIRCUIT):
                psi = vec(rng)
                spath = self.path(c, f"{i}-{k}.state.json")
                files = {spath: json.dumps(state_obj(psi))}
                if k == 0:
                    files[cpath] = json.dumps(circuit_obj(stages))
                jobs.append(Job(
                    kind=f"simulate:{family}",
                    files=files,
                    cli=[(["simulate", cpath, "--input", spath], None)],
                    check=partial(ref.check_simulate, want={"t": t @ psi}, gain=gain, loops_ok=ok),
                ))
        return jobs


def lower_analyze_job(kind, files, target, arch, net, want, gain, unitary_svd, kernel=None) -> Job:
    return Job(
        kind=kind,
        files=files,
        cli=[(["lower", target, "--arch", arch], net), (["analyze", net], None)],
        check=partial(ref.check_analyze, want=want, gain=gain, unitary_svd=unitary_svd),
        kernel=kernel,
    )


class CompileNetlist(Workload):
    name = "compile-netlist"
    # narrow jobs spend their time in the interpreter; wide pauli jobs in
    # products of dense 62-98-wire matrices, which track the LAPACK kernel
    kernels = ("interpreter", "lapack")
    warmup_jobs = 4
    trace_cycles = 5

    def cycle(self, c):
        rng = self.rng(c)
        jobs = []
        for i, (arch, family, n_gates) in enumerate(COMPILE_NETLIST):
            build = chain if family == "chain" else ladder
            every = {"zxz": 0, "svd": 1}.get(arch, G_GATE_EVERY)
            stages, gain = build(rng, n_gates, every)
            cpath = self.path(c, f"{i}.json")
            jobs.append(lower_analyze_job(
                f"lower:{arch}:{family}", {cpath: json.dumps(circuit_obj(stages))}, cpath, arch,
                self.path(c, f"{i}.netlist"), ref.circuit_matrix(stages), gain, unitary_svd=False,
                kernel="lapack" if arch == "pauli" else None,
            ))
        return jobs


def mostow_spec(rng):
    u = haar(rng)
    a = float(rng.normal(scale=0.5))
    b01 = float(rng.normal(scale=0.5))
    b = [[float(rng.normal(scale=0.5)), b01], [b01, float(rng.normal(scale=0.5))]]
    obj = {"unitary": gate_obj(u), "antisymmetric_param": a, "symmetric": b}
    return obj, ref.mostow_target(u, a, b)


def _loop_circuit(m1, m2) -> dict:
    """Single-anbit loop with the fan-in difference port on its own sink."""
    p = LOOP
    nodes = [
        {"id": "src", "kind": "source", "params": {}},
        {"id": "fi", "kind": "fanin", "params": {"n": _pair(p["n1"]), "m": _pair(p["m1p"])}},
        {"id": "g1", "kind": "gate", "params": gate_obj(m1)},
        {"id": "fo", "kind": "fanout", "params": {"n": p["n2"], "m": p["m2p"]}},
        {"id": "g2", "kind": "gate", "params": gate_obj(m2)},
        {"id": "out", "kind": "sink", "params": {}},
        {"id": "diff", "kind": "sink", "params": {}},
    ]
    pairs = [("src", 0, "fi", 0), ("fi", 0, "g1", 0), ("g1", 0, "fo", 0), ("fo", 0, "out", 0),
             ("fo", 1, "g2", 0), ("g2", 0, "fi", 1), ("fi", 1, "diff", 0)]
    edges = [{"from": [a, pa], "to": [b, pb]} for a, pa, b, pb in pairs]
    return {"nodes": nodes, "edges": edges, "sources": ["src"], "sinks": ["out", "diff"]}


def _two_loop_circuit(m1, m2) -> dict:
    p = TWO_LOOP
    nodes = [
        {"id": "s1", "kind": "source", "params": {}},
        {"id": "s2", "kind": "source", "params": {}},
        {"id": "fia", "kind": "fanin", "params": {"n": _pair(p["n1"]), "m": [1.0, 0.0]}},
        {"id": "g1", "kind": "gate", "params": gate_obj(m1)},
        {"id": "foa", "kind": "fanout", "params": {"n": p["n3"], "m": p["m3"]}},
        {"id": "fib", "kind": "fanin", "params": {"n": _pair(p["n2"]), "m": [1.0, 0.0]}},
        {"id": "g2", "kind": "gate", "params": gate_obj(m2)},
        {"id": "fob", "kind": "fanout", "params": {"n": p["n4"], "m": p["m4"]}},
        {"id": "outa", "kind": "sink", "params": {}},
        {"id": "outb", "kind": "sink", "params": {}},
    ]
    pairs = [("s1", 0, "fia", 0), ("fob", 1, "fia", 1), ("fia", 0, "g1", 0), ("g1", 0, "foa", 0),
             ("foa", 0, "outa", 0), ("foa", 1, "fib", 1), ("s2", 0, "fib", 0), ("fib", 0, "g2", 0),
             ("g2", 0, "fob", 0), ("fob", 0, "outb", 0)]
    edges = [{"from": [a, pa], "to": [b, pb]} for a, pa, b, pb in pairs]
    return {"nodes": nodes, "edges": edges, "sources": ["s1", "s2"], "sinks": ["outa", "outb"]}


class SmallJobs(Workload):
    name = "small-jobs"
    trace_cycles = 150

    def cycle(self, c):
        rng = self.rng(c)
        jobs = []
        path = partial(self.path, c)

        for method in DECOMPOSE_METHODS:
            gpath = path(f"dec-{method}.json")
            if method == "mostow-synth":
                obj, want = mostow_spec(rng)
            else:
                want = haar(rng) if method.startswith("euler") else gauss(rng)
                obj = gate_obj(want)
            jobs.append(Job(
                kind=f"decompose:{method}",
                files={gpath: json.dumps(obj)},
                cli=[(["decompose", gpath, "--method", method], None)],
                check=partial(ref.check_decompose, method=method, want=want),
            ))

        for arch in LOWER_ARCHES:
            gpath = path(f"low-{arch}.json")
            if arch == "mostow":
                obj, want = mostow_spec(rng)
            elif arch == "fanin":
                n, m = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
                obj, want = {"n": _pair(n), "m": _pair(m)}, ref.fanin_matrix(n, m)
            else:
                want = haar(rng) if arch in ("zxz", "zyz") else gauss(rng)
                obj = gate_obj(want)
            jobs.append(lower_analyze_job(
                f"lower:{arch}", {gpath: json.dumps(obj)}, gpath, arch, path(f"low-{arch}.netlist"),
                want, False, unitary_svd=False,
            ))

        for kind in ("coherent", "differential"):
            psi = vec(rng)
            r = float(rng.uniform(0.5, 2.0))
            spath = path(f"meas-{kind}.json")
            jobs.append(Job(
                kind=f"measure:{kind}",
                files={spath: json.dumps(state_obj(psi))},
                cli=[(["measure", spath, "--kind", kind, "--responsivity", repr(r)], None)],
                check=partial(ref.check_measure, kind=kind, r=r, amps=psi),
            ))

        jobs.append(self._rotation_sweep(rng, path("traj-rot.json")))
        jobs.append(self._diagonal_sweep(rng, path("traj-diag.json")))

        m1, m2 = gauss(rng, LOOP_GATE_SCALE), gauss(rng, LOOP_GATE_SCALE)
        psi = vec(rng)
        p = LOOP
        x = ref.loop_matrix(m1, m2, p["n1"], 1.0, p["m2p"]).astype(complex) @ psi
        want = {"out": p["n2"] * x, "diff": p["m1p"] * (psi - p["m2p"] * (m2 @ x))}
        jobs.append(self._simulate(path, "loop", _loop_circuit(m1, m2), {"src": psi}, want,
                                   ref.loop_conditioned(m1, m2, p["n1"], p["m2p"])))

        m1, m2 = gauss(rng, LOOP_GATE_SCALE), gauss(rng, LOOP_GATE_SCALE)
        p1, p2 = vec(rng), vec(rng)
        a1, a2, b1, b2 = (np.asarray(op, dtype=complex) for op in ref.two_loop_matrices(m1, m2, **TWO_LOOP))
        want = {"outa": a1 @ p1 + a2 @ p2, "outb": b1 @ p1 + b2 @ p2}
        jobs.append(self._simulate(path, "two-loop", _two_loop_circuit(m1, m2),
                                   {"s1": p1, "s2": p2}, want, True))

        for n in CONTROLS:
            target = gauss(rng) if 2 ** (n + 1) < CONTROLLED_G_DIM else haar(rng)
            jobs.append(Job(
                kind=f"controlled:{n}",
                controlled=(target, n),
                check=partial(ref.check_controlled, target=target, n=n),
            ))
        return jobs

    @staticmethod
    def _simulate(path, name, circuit, inputs, want, loops_ok) -> Job:
        cpath, spath = path(f"sim-{name}.json"), path(f"sim-{name}.in.json")
        states = {k: state_obj(v) for k, v in inputs.items()}
        return Job(
            kind=f"simulate:{name}",
            files={cpath: json.dumps(circuit), spath: json.dumps(states)},
            cli=[(["simulate", cpath, "--input", spath], None)],
            check=partial(ref.check_simulate, want=want, gain=True, loops_ok=loops_ok),
        )

    @staticmethod
    def _rotation_sweep(rng, spath) -> Job:
        axis = rng.normal(size=3)
        axis = axis / np.linalg.norm(axis)
        psi = vec(rng)
        end = float(rng.uniform(0.5, 2.0) * math.pi)
        phase = float(rng.uniform(0.0, math.pi))
        states = [ref.rotation(axis, a, phase) @ psi for a in np.linspace(0.0, end, 100)]
        spec = {"state": state_obj(psi), "axis": [float(v) for v in axis], "steps": 100,
                "start": 0.0, "end": end, "global_phase": phase}
        return Job(
            kind="trajectory:rotation",
            files={spath: json.dumps(spec)},
            cli=[(["trajectory", spath], None)],
            check=partial(ref.check_trajectory, states=states),
        )

    @staticmethod
    def _diagonal_sweep(rng, spath) -> Job:
        psi = vec(rng)
        d1 = [float(v) for v in rng.uniform(0.2, 2.0, size=2)]
        d2 = [float(v) for v in rng.uniform(0.2, 2.0, size=2)]
        states = [
            np.array([(d1[0] + (d1[1] - d1[0]) * t) * psi[0], (d2[0] + (d2[1] - d2[0]) * t) * psi[1]])
            for t in np.linspace(0.0, 1.0, 100)
        ]
        spec = {"state": state_obj(psi), "kind": "diagonal", "d1": d1, "d2": d2, "steps": 100}
        return Job(
            kind="trajectory:diagonal",
            files={spath: json.dumps(spec)},
            cli=[(["trajectory", spath], None)],
            check=partial(ref.check_trajectory, states=states),
        )


WORKLOADS = {w.name: w for w in (SimLarge, CompileNetlist, SmallJobs)}
