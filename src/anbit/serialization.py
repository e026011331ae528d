"""Serialization: JSON object mapping, 17-significant-digit emission, netlist text.

Floats are always written with 17 significant digits so a double survives the
round trip bit-for-bit; the stdlib json module cannot customize float
formatting, hence the small emitter here. Complex numbers are [re, im] pairs.
All parse problems raise ValueError with a message naming the offending field.
"""

from __future__ import annotations

import json
import math
from operator import index

import numpy as np

from .algebra import AnbitState
from .circuits import CircuitGraph, FanInGate, FanOutGate, SinkNode, SourceNode
from .gates import GateMatrix
from .lowering import DEVICE_KINDS, Netlist
from .measurement import MeasurementRecord

__all__ = [
    "fmt_float",
    "dumps",
    "state_to_obj",
    "state_from_obj",
    "gate_to_obj",
    "gate_from_obj",
    "record_to_obj",
    "circuit_to_obj",
    "circuit_from_obj",
    "netlist_to_text",
    "netlist_from_text",
]


def fmt_float(x: float) -> str:
    """Shortest 17-significant-digit decimal; losslessly re-parses to the same double.

    inf and nan are refused, as JSON has no token for them; CSV and netlist text
    follow suit, with the same message for every format.
    """
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x}")
    return format(float(x), ".17g")


def _emit(obj, out: list):
    if obj is None or obj is True or obj is False or isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, float):
        out.append(fmt_float(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _emit(v, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _emit(v, out)
        out.append("}")
    else:
        raise ValueError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    out: list = []
    _emit(obj, out)
    return "".join(out)


def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _from_pair(v, where: str) -> complex:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise ValueError(f"{where}: complex values are [re, im] pairs")
    try:
        return complex(float(v[0]), float(v[1]))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: [re, im] must be real numbers: {exc}") from exc


def _number(v, where: str, kind=float):
    try:
        return kind(v)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def state_to_obj(state: AnbitState) -> dict:
    return {
        "dim": state.dim,
        "amps": [_pair(a) for a in state.amps],
        "delta_t": state.delta_t,
    }


def state_from_obj(obj) -> AnbitState:
    if not isinstance(obj, dict) or "amps" not in obj:
        raise ValueError("state object needs an 'amps' field")
    if not isinstance(obj["amps"], (list, tuple)):
        raise ValueError("amps: expected a list of [re, im] pairs")
    amps = [_from_pair(v, "amps") for v in obj["amps"]]
    if "dim" in obj and _number(obj["dim"], "state dim", index) != len(amps):
        raise ValueError(f"state dim {obj['dim']} != {len(amps)} amplitudes")
    dt = obj.get("delta_t")
    return AnbitState(amps, None if dt is None else _number(dt, "delta_t"))


def gate_to_obj(gate: GateMatrix) -> dict:
    return {
        "dim": gate.dim,
        "entries": [[_pair(v) for v in row] for row in gate.entries],
    }


def _square_from_pairs(rows, where: str) -> np.ndarray:
    """The square complex matrix of a list of d rows of d [re, im] pairs.

    Numeric rows take one array conversion: a float64 (d, d, 2) array viewed
    as complex, bit-identical to complex(float(re), float(im)) per entry, -0.0
    and inf included. Whatever does not convert to a numeric array of that
    shape (a null, a nested list, a ragged row, a numeric string, an integer
    beyond 64 bits) is parsed pair by pair, so it is accepted or rejected with
    a ValueError exactly as `_from_pair` decides. Errors name `where`.
    """
    if not isinstance(rows, (list, tuple)):
        raise ValueError(f"{where} must be a list of rows")
    d = len(rows)
    try:
        a = np.array(rows)
    except ValueError:  # ragged rows
        a = None
    if a is not None and a.dtype.kind in "biuf" and a.shape == (d, d, 2):
        return np.asarray(a, dtype=float).view(complex)[..., 0]
    entries = []
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != d:
            raise ValueError(f"{where} must be square, row-major")
        entries.append([_from_pair(v, where) for v in row])
    return np.array(entries, dtype=complex)


def gate_from_obj(obj) -> GateMatrix:
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ValueError("gate object needs an 'entries' field")
    entries = _square_from_pairs(obj["entries"], "gate entries")
    if "dim" in obj and _number(obj["dim"], "gate dim", index) != len(entries):
        raise ValueError(f"gate dim {obj['dim']} != {len(entries)} rows")
    return GateMatrix(entries)


def matrix_to_obj(m: np.ndarray) -> list:
    return [[_pair(v) for v in row] for row in np.asarray(m, dtype=complex)]


def record_to_obj(rec: MeasurementRecord) -> dict:
    obj = {
        "kind": rec.kind,
        "responsivity": rec.responsivity,
        "photocurrents": [float(c) for c in rec.photocurrents],
        "recovered": state_to_obj(rec.recovered),
        "edf": rec.edf,
    }
    if rec.phase is not None:
        obj["phase"] = rec.phase
    return obj


# --- circuit graphs ---------------------------------------------------------

def circuit_to_obj(graph: CircuitGraph) -> dict:
    nodes = []
    sources = []
    sinks = []
    for nid, node in graph.nodes.items():
        if isinstance(node, GateMatrix):
            nodes.append({"id": nid, "kind": "gate", "params": gate_to_obj(node)})
        elif isinstance(node, FanInGate):
            nodes.append({"id": nid, "kind": "fanin", "params": {"n": _pair(node.n), "m": _pair(node.m)}})
        elif isinstance(node, FanOutGate):
            params = {"n": node.n, "m": node.m}
            if not node.is_default_ancilla:
                params["m12"] = matrix_to_obj(node.m12)
                params["m22"] = matrix_to_obj(node.m22)
            nodes.append({"id": nid, "kind": "fanout", "params": params})
        elif isinstance(node, SourceNode):
            nodes.append({"id": nid, "kind": "source", "params": {}})
            sources.append(nid)
        else:
            nodes.append({"id": nid, "kind": "sink", "params": {}})
            sinks.append(nid)
    edges = [{"from": [a, pa], "to": [b, pb]} for (a, pa), (b, pb) in graph.edges]
    return {"nodes": nodes, "edges": edges, "sources": sources, "sinks": sinks}


def circuit_from_obj(obj) -> CircuitGraph:
    if not isinstance(obj, dict) or "nodes" not in obj or "edges" not in obj:
        raise ValueError("circuit object needs 'nodes' and 'edges'")
    if not isinstance(obj["nodes"], list) or not isinstance(obj["edges"], list):
        raise ValueError("circuit 'nodes' and 'edges' must be lists")
    nodes = {}
    for spec in obj["nodes"]:
        try:
            nid = str(spec["id"])
            kind = spec["kind"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"node spec: {exc}") from exc
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise ValueError(f"node {nid!r} params: expected an object")
        if nid in nodes:
            raise ValueError(f"duplicate node id {nid!r}")
        if kind == "gate":
            nodes[nid] = gate_from_obj(params)
        elif kind == "fanin":
            n = _from_pair(params.get("n", [1.0, 0.0]), "fanin n")
            m = _from_pair(params.get("m", [1.0, 0.0]), "fanin m")
            nodes[nid] = FanInGate(n, m)
        elif kind == "fanout":
            kwargs = {k: _square_from_pairs(params[k], f"fanout {k}") for k in ("m12", "m22") if k in params}
            n, m = (_number(params.get(k, 1.0), f"fanout {k}") for k in "nm")
            nodes[nid] = FanOutGate(n, m, **kwargs)
        elif kind == "source":
            nodes[nid] = SourceNode()
        elif kind == "sink":
            nodes[nid] = SinkNode()
        else:
            raise ValueError(f"unknown node kind {kind!r}")
    for key, klass in (("sources", SourceNode), ("sinks", SinkNode)):
        listed = obj.get(key, [])
        if not isinstance(listed, list):
            raise ValueError(f"circuit {key!r} must be a list")
        declared = set(map(str, listed))
        actual = {nid for nid, n in nodes.items() if isinstance(n, klass)}
        if declared != actual:
            raise ValueError(f"{key} list {sorted(declared)} != {key} by kind {sorted(actual)}")
    edges = []
    for espec in obj["edges"]:
        try:
            a, pa = espec["from"]
            b, pb = espec["to"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"edge spec: {exc}") from exc
        edges.append(((a, pa), (b, pb)))
    return CircuitGraph(nodes, edges)


# --- netlist text format ----------------------------------------------------

def netlist_to_text(nl: Netlist) -> str:
    lines = [f"WIRES {nl.wires}"]
    lines.append("IN " + " ".join(str(w) for w in nl.input_ports))
    lines.append("OUT " + " ".join(str(w) for w in nl.output_ports))
    for kind, a, b, value, binding in zip(nl.kinds, nl.wire_a, nl.wire_b, nl.values, nl.bindings):
        line = f"{kind} {a}" if b < 0 else f"{kind} {a} {b}"
        if DEVICE_KINDS[kind].valued:
            line += " " + fmt_float(value)
        if binding is not None:
            line += " @" + binding
        lines.append(line)
    if nl.active_setting is not None:
        lines.append(f"ACTIVE {nl.active_setting}")
    if nl.control_map:
        for setting, values in nl.control_map.items():
            pairs = " ".join(f"{i}={fmt_float(v)}" for i, v in sorted(values.items()))
            lines.append(f"CTRL {setting} {pairs}")
    return "\n".join(lines) + "\n"


def netlist_from_text(text: str) -> Netlist:
    wires = None
    in_ports: tuple = ()
    out_ports: tuple = ()
    devices: list = []
    control_map: dict = {}
    active = None
    seen: set = set()  # header directives read so far
    for lineno, raw in enumerate(text.splitlines(), start=1):
        args = raw.split()
        if not args:
            continue
        tag = args[0]
        # device lines outnumber header lines, so the device table is tried first
        spec = DEVICE_KINDS.get(tag)
        try:
            if spec is not None:
                n_wires = spec.n_wires
                want = n_wires + spec.valued
                binding = None
                if args[-1][0] == "@":
                    binding = args.pop()[1:]
                if len(args) != want + 1:
                    raise ValueError(f"{tag} takes {want} fields, got {len(args) - 1}")
                dev_wires = (int(args[1]),) if n_wires == 1 else (int(args[1]), int(args[2]))
                devices.append((tag, dev_wires, float(args[want]) if spec.valued else None, binding))
            elif tag[0] == "#":
                continue
            elif tag == "CTRL":
                setting, pairs = args[1], [pair.partition("=") for pair in args[2:]]
                values = {int(key): float(val) for key, _, val in pairs}
                if setting in control_map:
                    raise ValueError(f"repeated CTRL word {setting!r}")
                if len(values) < len(pairs):
                    raise ValueError(f"CTRL {setting} sets a device twice")
                control_map[setting] = values
            elif tag in seen:
                raise ValueError(f"repeated {tag} directive")
            else:
                seen.add(tag)
                if tag == "WIRES":
                    wires = int(args[1])
                elif tag == "IN":
                    in_ports = tuple(int(a) for a in args[1:])
                elif tag == "OUT":
                    out_ports = tuple(int(a) for a in args[1:])
                elif tag == "ACTIVE":
                    active = args[1]
                else:
                    raise ValueError(f"unknown directive {tag!r}")
        except (IndexError, ValueError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    if wires is None:
        raise ValueError("netlist text lacks a WIRES header")
    return Netlist(
        wires,
        devices,
        in_ports,
        out_ports,
        control_map=control_map or None,
        active_setting=active,
    )
