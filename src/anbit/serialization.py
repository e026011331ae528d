"""Serialization: JSON object mapping, 17-significant-digit emission, netlist text.

The one module that turns numbers into text: `dumps` (JSON), `csv_text` and
`netlist_to_text` write every float with 17 significant digits, so a double
survives the round trip bit-for-bit. Complex numbers are [re, im] pairs.
All parse problems raise ValueError with a message naming the offending field.
"""

from __future__ import annotations

import json
import math
from operator import index

import numpy as np

from .algebra import AnbitState
from .circuits import CircuitGraph, FanInGate, FanOutGate, SinkNode, SourceNode
from .errors import ParamError
from .gates import GateMatrix
from .lowering import DEVICE_KINDS, KINDS, Netlist
from .measurement import MeasurementRecord

__all__ = [
    "fmt_float",
    "dumps",
    "csv_text",
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


_DIGITS = ".17g"  # the one float format of every output: 17 significant digits


def fmt_float(x: float) -> str:
    """Shortest 17-significant-digit decimal; losslessly re-parses to the same double.

    inf and nan are refused, as JSON has no token for them; CSV and netlist text
    follow suit, with the same message for every format.
    """
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x}")
    return format(float(x), _DIGITS)


def dumps(obj) -> str:
    """JSON of nested dicts, lists, tuples, str, None, bools, ints, floats and 2-D complex arrays.

    Floats, the bulk, are tried first. A 2-D complex ndarray is written as
    rows of [re, im] pairs, as its `matrix_to_obj` lists would be.
    """
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype == complex:
        return _complex_matrix(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(dumps, obj)) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {dumps(v)}" for k, v in obj.items()) + "}"
    if obj is None or obj is True or obj is False or isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    raise ValueError(f"cannot serialize {type(obj).__name__}")


def _complex_matrix(m: np.ndarray) -> str:
    """JSON of a 2-D complex array as rows of [re, im] pairs, in one `%` call over one template."""
    flat = np.ascontiguousarray(m).view(float).ravel()  # re, im interleaved, in row order
    finite = np.isfinite(flat)
    if not finite.all():
        fmt_float(float(flat[~finite][0]))  # its error, for the first non-finite entry in row order
    n_rows, n_cols = m.shape
    row = "[" + ", ".join(["[%{0}, %{0}]".format(_DIGITS)] * n_cols) + "]"
    return ("[" + ", ".join([row] * n_rows) + "]") % tuple(flat.tolist())


def csv_text(header: str, labels, columns) -> str:
    """The header line and per label one row: the label, then its entry of each float array, by `fmt_float`'s rule."""
    table = np.column_stack(columns)
    finite = np.isfinite(table)
    if not finite.all():
        fmt_float(float(table[~finite][0]))  # its error, for the first non-finite entry in row order
    row = ",".join(["{}"] + ["{:%s}" % _DIGITS] * len(columns)).format
    return "\n".join([header, *map(row, labels, *(c.tolist() for c in columns))]) + "\n"


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
    return {"dim": gate.dim, "entries": matrix_to_obj(gate.entries)}


def _stacked(mats):
    """Views of mats, d x d lists of numeric [re, im] pairs of one d, in one immutable complex array, or None.

    Used by `circuit_from_obj` alone. Bit-identical to `_square_from_pairs` per matrix, -0.0 and inf included.
    A ragged row, mixed dims, a null, a nested list, a numeric string or an integer beyond 64 bits gives None.
    """
    try:
        a = np.array(mats)
    except ValueError:  # ragged rows
        return None
    if a.dtype.kind not in "biuf" or a.ndim != 4 or a.shape[1:] != (a.shape[1], a.shape[1], 2) or not a.shape[1]:
        return None
    return iter(np.frombuffer(np.asarray(a, dtype=float).tobytes(), complex).reshape(a.shape[:3]))


def _square_from_pairs(rows, where: str) -> np.ndarray:
    """The square complex matrix of a list of d rows of d [re, im] pairs, parsed pair by pair.

    Each pair is accepted or rejected with a ValueError exactly as `_from_pair`
    decides; errors name `where`. `_stacked` gives the same values.
    """
    if not isinstance(rows, (list, tuple)):
        raise ValueError(f"{where} must be a list of rows")
    d = len(rows)
    entries = []
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != d:
            raise ValueError(f"{where} must be square, row-major")
        entries.append([_from_pair(v, where) for v in row])
    return np.array(entries, dtype=complex)


def gate_from_obj(obj) -> GateMatrix:
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ValueError("gate object needs an 'entries' field")
    return _gate(obj, _square_from_pairs(obj["entries"], "gate entries"))


def _gate(obj: dict, entries: np.ndarray) -> GateMatrix:
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

def _fanin_from_obj(params: dict) -> FanInGate:
    """The fan-in gate of params' complex 'n' and 'm' pairs, each [1, 0] when absent."""
    return FanInGate(*(_from_pair(params.get(k, [1.0, 0.0]), f"fanin {k}") for k in "nm"))


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
    """The CircuitGraph of obj, gate entries in one `_stacked` conversion if they stack; the graph checks edge ends."""
    if not isinstance(obj, dict) or "nodes" not in obj or "edges" not in obj:
        raise ValueError("circuit object needs 'nodes' and 'edges'")
    if not isinstance(obj["nodes"], list) or not isinstance(obj["edges"], list):
        raise ValueError("circuit 'nodes' and 'edges' must be lists")
    nodes = {}
    try:  # every gate's entries in one conversion when they stack; else gate by gate
        rows = [spec["params"]["entries"] for spec in obj["nodes"] if spec["kind"] == "gate"]
        stack = _stacked(rows) if all(isinstance(r, (list, tuple)) for r in rows) else None
    except (KeyError, TypeError):  # a malformed spec, reported below
        stack = None
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
            nodes[nid] = gate_from_obj(params) if stack is None else _gate(params, next(stack))
        elif kind == "fanin":
            nodes[nid] = _fanin_from_obj(params)
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
    try:
        edges = [(espec["from"], espec["to"]) for espec in obj["edges"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"edge spec: {exc}") from exc
    return CircuitGraph(nodes, edges)


# --- netlist text format ----------------------------------------------------

def _device_line(kind: str) -> str:
    # every line takes four arguments: first wire, second wire (-1 on a one-wire kind),
    # value text ('nan' on a valueless kind) and binding suffix; %.0s takes one and writes nothing
    spec = DEVICE_KINDS[kind]
    return f"{kind} %d" + (" %d" if spec.n_wires == 2 else "%.0s") + (" %s" if spec.valued else "%.0s") + "%s"


_DEVICE_LINES = tuple(map(_device_line, KINDS))  # by kind code

# per device tag: (wire count, field count less the binding)
_LINE_KINDS = {kind: (spec.n_wires, spec.n_wires + spec.valued) for kind, spec in DEVICE_KINDS.items()}


def netlist_to_text(nl: Netlist) -> str:
    """The netlist's text: all device lines in one `%` call over per-kind line templates.

    Each distinct value is formatted once, in one more `%` call; a dict keyed
    by the values' bit patterns finds them, so -0.0 and 0.0 stay apart and the
    nan of every valueless device is one entry. A `Netlist` holds only finite
    values on valued devices (its constructor checks them), so each is
    written by ``%.17g``, which gives what `fmt_float` gives.
    """
    n = len(nl.kinds)
    bits = nl.values.view(np.int64).tolist()
    first = dict(zip(bits, nl.values.tolist()))  # bits -> value, each distinct value once
    texts = dict(zip(first, ("\n".join(["%" + _DIGITS] * len(first)) % tuple(first.values())).split("\n")))
    args = [None] * (4 * n)
    args[0::4], args[1::4], args[2::4] = nl.wire_a.tolist(), nl.wire_b.tolist(), map(texts.__getitem__, bits)
    args[3::4] = ["" if b is None else " @" + b for b in nl.bindings]
    lines = [f"WIRES {nl.wires}", "IN " + " ".join(map(str, nl.input_ports)), "OUT " + " ".join(map(str, nl.output_ports))]
    if n:
        lines.append("\n".join(map(_DEVICE_LINES.__getitem__, nl.kinds.tolist())) % tuple(args))
    if nl.active_setting is not None:
        lines.append(f"ACTIVE {nl.active_setting}")
    if nl.control_map:
        for setting, values in nl.control_map.items():
            pairs = " ".join(f"{i}={fmt_float(v)}" for i, v in sorted(values.items()))
            lines.append(f"CTRL {setting} {pairs}")
    return "\n".join(lines) + "\n"


def netlist_from_text(text: str) -> Netlist:
    """The `Netlist` of netlist text, read line by line into device rows; a bad line raises `line N: ...`.

    A line that does not parse raises ValueError. The rows meet the row rule,
    as any caller's do; the reader notes the line of each device and of each
    control word (its CTRL line, else the ACTIVE line naming it), so a row or
    word the `Netlist` refuses raises its ParamError with that line in front.
    """
    wires = None
    in_ports: tuple = ()
    out_ports: tuple = ()
    rows, device_lines = [], []  # the device rows, and the line of each
    word_lines: dict = {}  # control word -> its CTRL line, else its ACTIVE line
    control_map: dict = {}
    active = None
    seen: set = set()  # header directives read so far
    for lineno, raw in enumerate(text.splitlines(), start=1):
        args = raw.split()
        if not args:
            continue
        tag = args[0]
        # device lines outnumber header lines, so the device table is tried first
        spec = _LINE_KINDS.get(tag)
        try:
            if spec is not None:
                n_wires, want = spec
                binding = args.pop()[1:] if args[-1][0] == "@" else None
                if len(args) != want + 1:
                    raise ValueError(f"{tag} takes {want} fields, got {len(args) - 1}")
                rows.append((tag, tuple(map(int, args[1:n_wires + 1])), float(args[want]) if want > n_wires else None, binding))
                device_lines.append(lineno)
            elif tag[0] == "#":
                continue
            elif tag == "CTRL":
                if len(args) < 2:
                    raise ValueError("CTRL takes at least 1 field, got 0")
                setting, pairs = args[1], [pair.partition("=") for pair in args[2:]]
                values = {int(key): float(val) for key, _, val in pairs}
                if setting in control_map:
                    raise ValueError(f"repeated CTRL word {setting!r}")
                if len(values) < len(pairs):
                    raise ValueError(f"CTRL {setting} sets a device twice")
                control_map[setting] = values
                word_lines[setting] = lineno
            elif tag in seen:
                raise ValueError(f"repeated {tag} directive")
            else:
                seen.add(tag)
                if tag == "WIRES":
                    wires = int(_one_field(args))
                elif tag == "IN":
                    in_ports = tuple(int(a) for a in args[1:])
                elif tag == "OUT":
                    out_ports = tuple(int(a) for a in args[1:])
                elif tag == "ACTIVE":
                    active = _one_field(args)
                    word_lines.setdefault(active, lineno)
                else:
                    raise ValueError(f"unknown directive {tag!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    if wires is None:
        raise ValueError("netlist text lacks a WIRES header")
    try:
        return Netlist(wires, rows, in_ports, out_ports, control_map=control_map or None, active_setting=active)
    except ParamError as exc:
        device = getattr(exc, "device", None)
        lineno = device_lines[device] if device is not None else word_lines.get(getattr(exc, "word", None))
        if lineno is None:
            raise
        raise ParamError(f"line {lineno}: {exc}") from exc


def _one_field(args: list) -> str:
    """The one field of a WIRES or ACTIVE line."""
    if len(args) != 2:
        raise ValueError(f"{args[0]} takes 1 field, got {len(args) - 1}")
    return args[1]
