"""Scaling probe on the re-anchor sizes and seed-defect probe (traced runs only).

Times one layer call at each size with the package's library API, outside
the traced job loop, and checks each result against the reference:
- `circuits.solve` on unitary chains of 200, 400 and 800 gates;
- `Netlist.forward_transfer` on `pauli`-lowered unitary chains of 10, 25 and
  50 gates (62, 152 and 302 wires).
Sizes equal the baselines recorded in ROADMAP.md; never shrink them, so that
asymptotic wins show against the same cases.

The seed-defect probe runs fixed cases that the seed gets wrong through the
client and the same checkers as the workloads, and counts the cases that
still show each defect. The timed workloads are drawn so that none of their
jobs fails; these counts are where the defects stay measured, and each drops
to 0 when its defect is fixed.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from functools import partial
from time import perf_counter

import numpy as np

import reference as ref
import workloads as wl
from workloads import Job

# calls timed per size; the median is reported
REPEATS = {200: 3, 400: 3, 800: 1, 10: 3, 25: 1, 50: 1}


def _timed(fn, repeats: int):
    times, result = [], None
    for _ in range(repeats):
        t0 = perf_counter()
        result = fn()
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times), result


def run(anbit, seed: int):
    """Return ({metric: ms}, Counter of failure tags)."""
    from anbit.serialization import circuit_from_obj

    rng = np.random.default_rng([seed, 2**31])
    metrics, tags = {}, Counter()
    for n in wl.PROBE_SOLVE_CHAINS:
        stages, _ = wl.chain(rng, n, every=0)
        graph = circuit_from_obj(wl.circuit_obj(stages))
        psi = wl.vec(rng)
        inputs = {"s": anbit.AnbitState(psi)}
        ms, out = _timed(lambda: anbit.solve(graph, inputs), REPEATS[n])
        metrics[f"circuits.solve.chain{n}_ms"] = ms
        if ref.rel_err(out["t"].amps, ref.circuit_matrix(stages) @ psi) > ref.TOL:
            tags[f"probe_solve_chain{n}"] += 1
    for n in wl.PROBE_PAULI_CHAINS:
        stages, _ = wl.chain(rng, n, every=0)
        netlist = anbit.lower_circuit(circuit_from_obj(wl.circuit_obj(stages)), "pauli")
        ms, t = _timed(netlist.forward_transfer, REPEATS[n])
        metrics[f"lowering.forward_transfer.w{netlist.wires}_ms"] = ms
        if ref.rel_err(t, ref.circuit_matrix(stages)) > ref.TOL:
            tags[f"probe_forward_transfer_w{netlist.wires}"] += 1
    return metrics, tags


# Seed defects the probe counts, one `defects.<name>` metric each; the cases:
DEFECTS = (
    "spurious_singular",  # simulate on acyclic chains of census G-gates, 200 and 400 edges
    "svd_unitary_class_error",  # lower --arch svd + analyze on two 20-gate Haar-unitary chains
    "controlled_singular_label",  # controlled(F, n), F a census G-gate, n = 3..6 (dim 16..128)
)


def _defect_jobs(rng, work) -> list:
    jobs = []
    for i, n_edges in enumerate((200, 400)):
        stages, _ = wl.chain(rng, n_edges - 1, draw=wl.gauss)
        psi = wl.vec(rng)
        cpath, spath = str(work / f"defect-sim{i}.json"), str(work / f"defect-sim{i}.in.json")
        jobs.append(Job(
            kind="spurious_singular",
            files={cpath: json.dumps(wl.circuit_obj(stages)), spath: json.dumps(wl.state_obj(psi))},
            cli=[(["simulate", cpath, "--input", spath], None)],
            check=partial(ref.check_simulate, want={"t": ref.circuit_matrix(stages) @ psi},
                          gain=True, loops_ok=True),
        ))
    for i in range(2):
        stages, _ = wl.chain(rng, 20, every=0)
        cpath = str(work / f"defect-svd{i}.json")
        jobs.append(wl.lower_analyze_job(
            "svd_unitary_class_error", {cpath: json.dumps(wl.circuit_obj(stages))}, cpath, "svd",
            str(work / f"defect-svd{i}.netlist"), ref.circuit_matrix(stages), False, unitary_svd=True,
        ))
    for n in (3, 4, 5, 6):
        target = wl.gauss(rng)
        jobs.append(Job(
            kind="controlled_singular_label",
            controlled=(target, n),
            check=partial(ref.check_controlled, target=target, n=n),
        ))
    return jobs


def seed_defects(client, work, seed: int):
    """Return ({metric: cases showing the defect}, Counter of unexpected failure tags)."""
    rng = np.random.default_rng([seed, 2**31 + 1])
    metrics = {f"defects.{defect}": 0 for defect in DEFECTS}
    tags = Counter()
    for job in _defect_jobs(rng, work):
        for path, text in job.files.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        tag = job.check(client.run(job))
        if tag == job.kind:
            metrics[f"defects.{tag}"] += 1
        elif tag is not None:
            tags[f"defect_probe:{tag}"] += 1
    return metrics, tags
