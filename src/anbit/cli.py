"""Command-line front end.

Subcommands: simulate, decompose, lower, analyze, measure, trajectory. The
argument parser is built once per process; each subcommand's parser carries
its handler, which takes the parsed arguments and returns the output text.
All outputs are deterministic; `anbit.serialization` writes them (`dumps`
JSON, `csv_text` CSV) with 17-significant-digit floats.

Two slots, read by one rule (`_read_through`), keep in this process the last
file text of a kind with what was made of it: byte-identical text reuses the
kept value, other text is parsed and replaces it, and a parse that raises
keeps nothing. `simulate` reads its circuit through the circuit slot, so a
rerun reuses the graph and the transfer map it keeps: one matrix product.
`lower` keeps the netlist it emits with its text, and `analyze` reads its
netlist through that slot, so analyzing what `lower` just wrote parses
nothing. A one-shot process starts with both slots empty and pays one string
compare.

Exit codes: 0 success, 2 parse/validation problems, 3 singular feedback
loops, 4 gate class or dimension errors. Errors print one structured JSON
object on stderr. `run(argv)` runs one invocation in this process and
returns its exit code with both outputs.

Run it as `anbit ...` once installed, or `python -m anbit.cli ...` from a
source checkout.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from operator import index

import numpy as np

from .algebra import AnbitState, _bloch_columns
from .algebra import to_bloch  # noqa: F401  kept as anbit.cli.to_bloch, the name perfbench/spans.py wraps
from .circuits import CircuitGraph, solve
from .decompositions import (
    euler_reconstruct,
    euler_zxz,
    euler_zyz,
    mostow_synthesize,
    pauli_decompose,
    pauli_reconstruct,
    svd2,
    svd_reconstruct,
)
from .errors import AnbitError, ClassError, DegenerateStateError, DimError, LoopSingularError, ParamError, _integer
from .gates import RotationSpec, _rotation_stack
from .lowering import (
    check_fb_symmetry,
    lower_circuit,
    lower_fanin,
    lower_general_svd,
    lower_mostow,
    lower_pauli_mgate,
    lower_unitary_zxz,
    lower_unitary_zyz_fixed,
    scattering_matrix,
)
from .measurement import measure_coherent, measure_differential
from .serialization import (
    _fanin_from_obj,
    _number,
    _pair,
    circuit_from_obj,
    csv_text,
    dumps,
    gate_from_obj,
    netlist_from_text,
    netlist_to_text,
    record_to_obj,
    state_from_obj,
    state_to_obj,
)

__all__ = ["main", "run", "entrypoint", "emit_trajectory"]


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_json(path: str):
    return json.loads(_read(path))


# The slots: (file text, what was made of it) of the last circuit read (a
# CircuitGraph) and of the last netlist lowered or read (a Netlist). Each is
# rebound as one tuple, so a reader never pairs one text with another text's value.
_last_circuit: tuple = (None, None)
_last_netlist: tuple = (None, None)


def _read_through(slot: str, text: str, parse):
    """parse(text), read through the module slot named `slot`.

    Byte-identical text returns the value kept in the slot; other text is
    parsed and kept in its place. A parse that raises keeps nothing.
    """
    last_text, value = globals()[slot]
    if text != last_text:
        value = parse(text)
        globals()[slot] = (text, value)
    return value


def _read_circuit(text: str) -> CircuitGraph:
    """The CircuitGraph of circuit JSON `text`, through the circuit slot."""
    return _read_through("_last_circuit", text, lambda t: circuit_from_obj(json.loads(t)))


def _fro(a, b) -> float:
    d = np.asarray(a) - np.asarray(b)
    norm = float(np.linalg.norm(d))  # its sum of squares can overflow where hypot's scaled one does not
    return math.hypot(*np.abs(d).flat) if norm == math.inf else norm


def _sweep_state(state: AnbitState) -> None:
    """The state checks every sweep runs first: a non-null state of dim 2."""
    if state.is_null:
        raise DegenerateStateError("trajectory needs a non-null state")
    if state.dim != 2:
        raise DimError(f"gate dim 2 != state dim {state.dim}")


def _span(a: float, b: float, where: str) -> None:
    """Refuse a swept range [a, b] whose width b - a is past the float range."""
    if not math.isfinite(b - a):
        raise ParamError(f"{where} range [{a}, {b}] has no finite width")


# A sweep is evaluated as one stack: per step it holds a 2x2 complex matrix
# (64 bytes) and its output state (32 bytes), float64 angle and coordinate
# columns with their temporaries (about 100 bytes) and, in the CLI, three
# Python floats and a CSV row of about 64 characters (about 200 bytes) until
# the text is joined. At the cap a CLI run peaks at 317-325 MiB under
# tracemalloc and takes 3-4 s on a 2-vCPU x86_64 host; a larger count is
# refused before anything is allocated.
MAX_STEPS = 10**6


def _steps(steps: int) -> int:
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if steps > MAX_STEPS:
        raise ParamError(f"steps must be at most {MAX_STEPS}")
    return steps


def _rotation_sweep(axis, start, end, state: AnbitState, steps: int, global_phase=0.0) -> tuple:
    """Radius, theta and phi columns of `emit_trajectory`'s sweep."""
    steps = _steps(_integer(steps, "steps"))
    axis, phase, start, end = tuple(axis), float(global_phase), float(start), float(end)
    _sweep_state(state)
    rotation = RotationSpec(axis, start, phase)  # the axis rule
    _span(start, end, "start-end")
    stack = _rotation_stack(rotation.axis, np.linspace(start, end, steps), rotation.global_phase)
    return _bloch_columns(stack @ state.amps)


def emit_trajectory(axis, start, end, state: AnbitState, steps: int, global_phase=0.0):
    """Sphere coordinates of rotation-swept outputs on a fixed input state.

    Applies e^(i global_phase) R_axis(angle) for `steps` angles evenly spaced
    over [start, end] and returns rows (step, radius, theta, phi) of an int
    and three floats; `steps` is 1 to MAX_STEPS. The sweep is one stack of
    `steps` matrices applied in one product, and each row is what `to_bloch`
    gives for that step's output, bit for bit. Unitary sweeps keep the radius
    constant.
    """
    radius, theta, phi = _rotation_sweep(axis, start, end, state, steps, global_phase)
    return list(zip(range(radius.size), radius.tolist(), theta.tolist(), phi.tolist()))


def _cmd_simulate(args: argparse.Namespace) -> str:
    graph = _read_circuit(_read(args.target))
    raw = _load_json(args.input_path)
    if isinstance(raw, dict) and "amps" in raw:
        sources = graph.sources()
        if len(sources) != 1:
            raise ValueError(f"single input state but circuit has {len(sources)} sources")
        inputs = {sources[0]: state_from_obj(raw)}
    elif isinstance(raw, dict):
        inputs = {str(k): state_from_obj(v) for k, v in raw.items()}
    else:
        raise ValueError("input must be a state object or a source-to-state mapping")
    result = solve(graph, inputs)
    if args.fmt == "csv":
        sids = sorted(result)
        amps = np.concatenate([result[sid].amps for sid in sids]) if sids else np.zeros(0, complex)
        labels = [f"{sid},{idx}" for sid in sids for idx in range(result[sid].dim)]
        return csv_text("sink,index,re,im", labels, (amps.real, amps.imag))
    out = {"outputs": {sid: state_to_obj(result[sid]) for sid in sorted(result)}}
    return dumps(out) + "\n"


def _cmd_decompose(args: argparse.Namespace) -> str:
    obj = _load_json(args.target)
    method = args.method
    if method in ("euler-zxz", "euler-zyz"):
        gate = gate_from_obj(obj)
        f = euler_zxz(gate) if method == "euler-zxz" else euler_zyz(gate)
        factors = [{"name": k, "value": getattr(f, k)} for k in ("delta", "alpha1", "alpha2", "alpha3")]
        err = _fro(euler_reconstruct(f).entries, gate.entries)
    elif method == "svd":
        gate = gate_from_obj(obj)
        f = svd2(gate)
        factors = [
            {"name": "u2", "matrix": f.u2.entries},
            {"name": "d1", "value": f.d1},
            {"name": "d2", "value": f.d2},
            {"name": "u1", "matrix": f.u1.entries},
        ]
        err = _fro(svd_reconstruct(f).entries, gate.entries)
    elif method == "pauli":
        gate = gate_from_obj(obj)
        alpha = pauli_decompose(gate)
        factors = [{"name": f"alpha{k}", "value": _pair(a)} for k, a in enumerate(alpha)]
        err = _fro(pauli_reconstruct(alpha).entries, gate.entries)
    else:  # mostow-synth
        f = _mostow_from_obj(obj)
        stage_names = ("u_u1", "lam1", "u1_dag_u2", "lam2", "u2_dag")
        factors = [
            {"name": name, "matrix": stage.entries}
            for name, stage in zip(stage_names, f.expanded)
        ]
        product = np.eye(2, dtype=complex)
        for stage in f.expanded:
            product = product @ stage.entries
        err = _fro(product, f.target().entries)
    return dumps({"method": method, "factors": factors, "reconstruction_error": err}) + "\n"


def _mostow_from_obj(obj):
    if not isinstance(obj, dict) or "unitary" not in obj:
        raise ValueError("synthesis input needs 'unitary', 'antisymmetric_param', 'symmetric'")
    try:
        u = gate_from_obj(obj["unitary"])
        a = float(obj["antisymmetric_param"])
        b = np.array(obj["symmetric"], dtype=float)
    except (KeyError, TypeError, OverflowError) as exc:  # OverflowError: an integer past the float range
        raise ValueError(f"synthesis input: {exc}") from exc
    return mostow_synthesize(u, a, b)


def _cmd_lower(args: argparse.Namespace) -> str:
    global _last_netlist
    obj = _load_json(args.target)
    if isinstance(obj, dict) and "nodes" in obj:
        nl = lower_circuit(circuit_from_obj(obj), args.arch)
    elif args.arch == "zxz":
        nl = lower_unitary_zxz(gate_from_obj(obj))
    elif args.arch == "zyz":
        nl = lower_unitary_zyz_fixed(gate_from_obj(obj))
    elif args.arch == "svd":
        nl = lower_general_svd(gate_from_obj(obj))
    elif args.arch == "pauli":
        nl = lower_pauli_mgate(gate_from_obj(obj))
    elif args.arch == "mostow":
        nl = lower_mostow(_mostow_from_obj(obj))
    else:  # fanin
        if not isinstance(obj, dict):
            raise ValueError("fan-in input needs complex 'n' and 'm' pairs")
        nl = lower_fanin(_fanin_from_obj(obj))
    text = netlist_to_text(nl)
    _last_netlist = (text, nl)  # its text door would rebuild nl bit for bit: `analyze` of text reuses it
    return text


def _cmd_analyze(args: argparse.Namespace) -> str:
    nl = _read_through("_last_netlist", _read(args.target), netlist_from_text)
    tf = nl.forward_transfer()
    # every device kind is reciprocal (its backward matrix is its transpose), so every
    # netlist is, and T_b = T_f^T: one sweep serves both
    report = {
        "reciprocal": True,
        "fb_symmetric": check_fb_symmetry(tf, tf.T),
        "s_matrix": scattering_matrix(tf, tf.T),
    }
    return dumps(report) + "\n"


def _cmd_measure(args: argparse.Namespace) -> str:
    state = state_from_obj(_load_json(args.target))
    if args.kind == "coherent":
        rec = measure_coherent(state, args.responsivity)
    else:
        rec = measure_differential(state, args.responsivity, args.omega_c)
    return dumps(record_to_obj(rec)) + "\n"


def _numbers(v, where: str) -> list:
    if not isinstance(v, list):
        raise ValueError(f"{where}: expected a list of numbers")
    return [_number(x, where) for x in v]


def _endpoints(v, where: str) -> list:
    """[start, end] of a diagonal entry's sweep; one number holds it fixed."""
    return _numbers(v, where) if isinstance(v, list) else [_number(v, where)] * 2


def _field(spec: dict, name: str):
    if name not in spec:
        raise ValueError(f"sweep spec needs a {name!r} field")
    return spec[name]


def _cmd_trajectory(args: argparse.Namespace) -> str:
    spec = _load_json(args.target)
    if not isinstance(spec, dict) or "state" not in spec:
        raise ValueError("sweep spec needs a 'state' field")
    state = state_from_obj(spec["state"])
    steps = _steps(_number(spec.get("steps", 100), "steps", index))
    kind = spec.get("kind", "rotation")
    if kind == "rotation":
        columns = _rotation_sweep(
            _numbers(_field(spec, "axis"), "axis"),
            _number(spec.get("start", 0.0), "start"),
            _number(spec.get("end", 2.0 * np.pi), "end"),
            state,
            steps,
            _number(spec.get("global_phase", 0.0), "global_phase"),
        )
    elif kind == "diagonal":
        d1a, d1b = _endpoints(_field(spec, "d1"), "d1")
        d2a, d2b = _endpoints(_field(spec, "d2"), "d2")
        _sweep_state(state)
        _span(d1a, d1b, "d1")
        _span(d2a, d2b, "d2")
        ts = np.linspace(0.0, 1.0, steps)
        diags = np.zeros((steps, 2, 2), dtype=complex)
        diags[:, 0, 0] = d1a + (d1b - d1a) * ts
        diags[:, 1, 1] = d2a + (d2b - d2a) * ts
        columns = _bloch_columns(diags @ state.amps)
    else:
        raise ValueError(f"unknown sweep kind {kind!r}")
    return csv_text("step,radius,theta,phi", range(steps), columns)


def _fail(exc: Exception, code: int) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    sys.stderr.write(dumps(payload) + "\n")
    return code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `anbit` parser, built on first use and shared by every later call (do not modify it).

    Each subcommand's parser sets `handler`, the function that runs it, and
    `out`, the file its output goes to (None: stdout; only simulate has --out).
    """
    parser = argparse.ArgumentParser(prog="anbit", description="Analog photonic gate toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, target):
        p = sub.add_parser(name, help=summary)
        p.add_argument("target", metavar=target)
        p.set_defaults(handler=handler, out=None)
        return p

    p = command("simulate", _cmd_simulate, "resolve a circuit and print sink states", "circuit")
    p.add_argument("--input", required=True, dest="input_path")
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")

    p = command("decompose", _cmd_decompose, "factor a gate", "gate")
    p.add_argument(
        "--method",
        required=True,
        choices=("euler-zxz", "euler-zyz", "svd", "pauli", "mostow-synth"),
    )

    p = command("lower", _cmd_lower, "compile a gate or circuit to a netlist", "target")
    p.add_argument(
        "--arch", required=True, choices=("zxz", "zyz", "svd", "mostow", "pauli", "fanin")
    )

    command("analyze", _cmd_analyze, "reciprocity and symmetry report for a netlist", "netlist")

    p = command("measure", _cmd_measure, "measurement record for a state", "state")
    p.add_argument("--kind", required=True, choices=("coherent", "differential"))
    p.add_argument("--responsivity", required=True, type=float)
    p.add_argument("--omega-c", type=float, default=0.0, dest="omega_c")

    command("trajectory", _cmd_trajectory, "sphere-coordinate sweep as CSV", "sweep_spec")
    return parser


def main(argv=None) -> int:
    """Parse argv (default sys.argv[1:]), run the subcommand; returns the exit code."""
    args = build_parser().parse_args(argv)
    try:
        # a non-finite result is reported by its one error line, not by numpy warnings
        with np.errstate(all="ignore"):
            text = args.handler(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            return 0
    except LoopSingularError as exc:
        return _fail(exc, 3)
    except (ClassError, DimError) as exc:
        return _fail(exc, 4)
    except (AnbitError, ValueError, KeyError, OSError) as exc:
        return _fail(exc, 2)
    sys.stdout.write(text)
    return 0


def run(argv) -> tuple:
    """(exit code, stdout, stderr) of one `anbit` invocation run in this process by `main`.

    Both streams are captured. argparse's exit, on bad arguments or --help,
    gives its code (2 unless an integer says otherwise); any other exception
    escapes, as it would from `main`.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
