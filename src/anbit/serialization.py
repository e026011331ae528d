"""Serialization: JSON object mapping, 17-significant-digit emission, netlist text.

Floats are always written with 17 significant digits so a double survives the
round trip bit-for-bit; the stdlib json module cannot customize float
formatting, hence the small emitter here. Complex numbers are [re, im] pairs.
All parse problems raise ValueError with a message naming the offending field.
"""

from __future__ import annotations

import json

import numpy as np

from .algebra import AnbitState
from .circuits import (
    CircuitGraph,
    FanInGate,
    FanInNode,
    FanOutGate,
    FanOutNode,
    GateNode,
    SinkNode,
    SourceNode,
)
from .gates import GateMatrix, RotationSpec
from .lowering import DEVICE_KINDS, Device, Netlist
from .measurement import MeasurementRecord

__all__ = [
    "fmt_float",
    "dumps",
    "state_to_obj",
    "state_from_obj",
    "gate_to_obj",
    "gate_from_obj",
    "rotation_spec_from_obj",
    "record_to_obj",
    "circuit_to_obj",
    "circuit_from_obj",
    "netlist_to_text",
    "netlist_from_text",
]


def fmt_float(x: float) -> str:
    """Shortest 17-significant-digit decimal; losslessly re-parses to the same double."""
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
    if "dim" in obj and _number(obj["dim"], "state dim", int) != len(amps):
        raise ValueError(f"state dim {obj['dim']} != {len(amps)} amplitudes")
    dt = obj.get("delta_t")
    return AnbitState(amps, None if dt is None else _number(dt, "delta_t"))


def gate_to_obj(gate: GateMatrix) -> dict:
    return {
        "dim": gate.dim,
        "entries": [[_pair(v) for v in row] for row in gate.entries],
    }


def _square_from_pairs(rows, d: int) -> np.ndarray:
    """The d x d complex matrix of row-major [re, im] pairs.

    Numeric rows take one array conversion: a float64 (d, d, 2) array viewed
    as complex, bit-identical to complex(float(re), float(im)) per entry, -0.0
    and inf included. Whatever does not convert to a numeric array of that
    shape (a null, a nested list, a ragged row, a numeric string, an integer
    beyond 64 bits) is parsed pair by pair, so it is accepted or rejected with
    a ValueError exactly as `_from_pair` decides.
    """
    try:
        a = np.array(rows)
    except ValueError:  # ragged rows
        a = None
    if a is not None and a.dtype.kind in "biuf" and a.shape == (d, d, 2):
        return np.asarray(a, dtype=float).view(complex)[..., 0]
    entries = []
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != d:
            raise ValueError("gate entries must be square, row-major")
        entries.append([_from_pair(v, "entries") for v in row])
    return np.array(entries, dtype=complex)


def gate_from_obj(obj) -> GateMatrix:
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ValueError("gate object needs an 'entries' field")
    rows = obj["entries"]
    if not isinstance(rows, (list, tuple)):
        raise ValueError("gate entries must be a list of rows")
    d = len(rows)
    if "dim" in obj and _number(obj["dim"], "gate dim", int) != d:
        raise ValueError(f"gate dim {obj['dim']} != {d} rows")
    return GateMatrix(_square_from_pairs(rows, d))


def rotation_spec_from_obj(obj) -> RotationSpec:
    try:
        axis = tuple(float(v) for v in obj["axis"])
        angle = float(obj["angle"])
        phase = float(obj.get("global_phase", 0.0))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"rotation spec: {exc}") from exc
    return RotationSpec(axis, angle, phase)


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
        if isinstance(node, GateNode):
            nodes.append({"id": nid, "kind": "gate", "params": gate_to_obj(node.gate)})
        elif isinstance(node, FanInNode):
            nodes.append(
                {"id": nid, "kind": "fanin", "params": {"n": _pair(node.fi.n), "m": _pair(node.fi.m)}}
            )
        elif isinstance(node, FanOutNode):
            params = {"n": node.fo.n, "m": node.fo.m}
            if not node.fo.is_default_ancilla:
                params["m12"] = matrix_to_obj(node.fo.m12)
                params["m22"] = matrix_to_obj(node.fo.m22)
            nodes.append({"id": nid, "kind": "fanout", "params": params})
        elif isinstance(node, SourceNode):
            nodes.append({"id": nid, "kind": "source", "params": {}})
            sources.append(nid)
        else:
            nodes.append({"id": nid, "kind": "sink", "params": {}})
            sinks.append(nid)
    edges = [{"from": [a, pa], "to": [b, pb]} for (a, pa), (b, pb) in graph.edges]
    return {"nodes": nodes, "edges": edges, "sources": sources, "sinks": sinks}


def _matrix_from_obj(rows, where: str) -> np.ndarray:
    return np.array([[_from_pair(v, where) for v in row] for row in rows], dtype=complex)


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
            nodes[nid] = GateNode(gate_from_obj(params))
        elif kind == "fanin":
            n = _from_pair(params.get("n", [1.0, 0.0]), "fanin n")
            m = _from_pair(params.get("m", [1.0, 0.0]), "fanin m")
            nodes[nid] = FanInNode(FanInGate(n, m))
        elif kind == "fanout":
            kwargs = {}
            if "m12" in params:
                kwargs["m12"] = _matrix_from_obj(params["m12"], "fanout m12")
            if "m22" in params:
                kwargs["m22"] = _matrix_from_obj(params["m22"], "fanout m22")
            n, m = (_number(params.get(k, 1.0), f"fanout {k}") for k in "nm")
            nodes[nid] = FanOutNode(FanOutGate(n, m, **kwargs))
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
    for dev in nl.devices:
        parts = [dev.kind] + [str(w) for w in dev.wires]
        if dev.value is not None:
            parts.append(fmt_float(dev.value))
        if dev.control_binding is not None:
            parts.append(f"@{dev.control_binding}")
        lines.append(" ".join(parts))
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        args = raw.split()
        if not args or args[0].startswith("#"):
            continue
        tag = args.pop(0)
        # device lines outnumber header lines, so the device table is tried first
        spec = DEVICE_KINDS.get(tag)
        try:
            if spec is not None:
                binding = None
                if args and args[-1].startswith("@"):
                    binding = args.pop()[1:]
                n_wires = spec.n_wires
                want = n_wires + int(spec.valued)
                if len(args) != want:
                    raise ValueError(f"{tag} takes {want} fields, got {len(args)}")
                wire = int(args[0])
                dev_wires = (wire,) if n_wires == 1 else (wire, int(args[1]))
                value = float(args[n_wires]) if spec.valued else None
                devices.append(Device(tag, dev_wires, value, binding))
            elif tag == "WIRES":
                wires = int(args[0])
            elif tag == "IN":
                in_ports = tuple(int(a) for a in args)
            elif tag == "OUT":
                out_ports = tuple(int(a) for a in args)
            elif tag == "ACTIVE":
                active = args[0]
            elif tag == "CTRL":
                setting = args[0]
                values = {}
                for pair in args[1:]:
                    key, _, val = pair.partition("=")
                    values[int(key)] = float(val)
                control_map[setting] = values
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
