"""Spans around the calls into each anbit layer, installed at run time.

The package is not edited. `install` replaces the names `anbit.cli` and
`anbit.lowering` import from other modules, `anbit.gates.controlled`, the
`Netlist` transfer methods and `GateMatrix.__post_init__` with wrappers that
record a span (name, start, end, parent) in memory, and returns a function
that puts the originals back. Self time is a span's duration minus the time
its child spans cover; single-threaded calls do not overlap, so that is the
sum of the children's durations.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

# name in anbit.cli -> layer span name
CLI_LAYERS = {
    "solve": "circuits.solve",
    "circuit_from_obj": "serialization.circuit_from_obj",
    "gate_from_obj": "serialization.gate_from_obj",
    "state_from_obj": "serialization.state_from_obj",
    "dumps": "serialization.dumps",
    "netlist_to_text": "serialization.netlist_to_text",
    "netlist_from_text": "serialization.netlist_from_text",
    "euler_zxz": "decompositions.euler",
    "euler_zyz": "decompositions.euler",
    "svd2": "decompositions.svd2",
    "pauli_decompose": "decompositions.pauli_decompose",
    "mostow_synthesize": "decompositions.mostow_synthesize",
    "lower_circuit": "lowering.lower",
    "lower_unitary_zxz": "lowering.lower",
    "lower_unitary_zyz_fixed": "lowering.lower",
    "lower_general_svd": "lowering.lower",
    "lower_pauli_mgate": "lowering.lower",
    "lower_mostow": "lowering.lower",
    "lower_fanin": "lowering.lower",
    "check_fb_symmetry": "lowering.check_fb_symmetry",
    "scattering_matrix": "lowering.scattering_matrix",
    "measure_coherent": "measurement.measure",
    "measure_differential": "measurement.measure",
    "to_bloch": "algebra.to_bloch",
}
# name in anbit.lowering -> layer span name (the factorizations lowering calls)
LOWERING_LAYERS = {
    "euler_zxz": "decompositions.euler",
    "euler_zyz": "decompositions.euler",
    "svd2": "decompositions.svd2",
    "pauli_decompose": "decompositions.pauli_decompose",
}


class Tracer:
    """In-memory span list plus counters taken at the same boundaries."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list = []

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, fn, name: str, count=None):
        """fn with a span around each call; count(args, result, exc) adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with _Span(self, name):
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if count is not None:
                        count(self.counts, args, None, exc)
                    raise
            if count is not None:
                count(self.counts, args, result, None)
            return result

        return traced

    def install(self):
        """Wrap the layer entry points of the imported `anbit` package."""
        from anbit import cli, gates, lowering

        saved = []

        def patch(owner, attr, name, count=None):
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, count))

        for attr, name in CLI_LAYERS.items():
            patch(cli, attr, name, _COUNTERS.get(name))
        for attr, name in LOWERING_LAYERS.items():
            patch(lowering, attr, name)
        patch(gates, "controlled", "gates.controlled")
        patch(lowering.Netlist, "forward_transfer", "lowering.forward_transfer")
        patch(lowering.Netlist, "backward_transfer", "lowering.backward_transfer")
        patch(gates.GateMatrix, "__post_init__", "gates.GateMatrix")

        def restore():
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

        return restore

    def layers(self) -> dict:
        """name -> (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, own + end - start - child[i])
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append([self.name, perf_counter(), 0.0, t._stack[-1] if t._stack else -1])
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = perf_counter()
        t._stack.pop()
        return False


def _count_solve(counts, args, result, exc):
    counts["circuits.solve.edges"] += len(args[0].edges)
    if exc is not None and type(exc).__name__ == "LoopSingularError":
        counts["circuits.solve.singular"] += 1


def _count_lower(counts, args, result, exc):
    if result is not None:
        counts["lowering.devices"] += len(result.devices)
        counts["lowering.wires"] += result.wires


def _count_text(counts, args, result, exc):
    if result is not None:
        counts["serialization.bytes_out"] += len(result.encode("utf-8"))


_COUNTERS = {
    "circuits.solve": _count_solve,
    "lowering.lower": _count_lower,
    "serialization.netlist_to_text": _count_text,
}
