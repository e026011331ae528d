"""Lowering of gates and fan-in blocks to photonic device netlists.

A netlist is an ordered list of device primitives acting in place on numbered
wires; two wires carry one anbit. A device kind, a key of `DEVICE_KINDS`
(phase shifter, tunable coupler, fixed 50:50 splitter, attenuator,
amplifier), fixes its wire count, value domain and local 1x1 or 2x2 matrix.
A `Netlist` stores its devices as read-only numpy columns: kind codes into
`KINDS`, first and second wire (-1 for a single-wire kind) and value (nan
for a kind without one), plus a tuple of control bindings. Rows handed to
the constructor, netlist text's too, meet the row rule (`_device_columns`)
alone, which checks each in order, names the first faulty one and builds
the columns. Emitters append column chunks to `_Columns` lists instead,
which the device rule checks as one array pass (`_column_check`); only a
netlist that breaks it meets the row rule too, naming the first fault.
`Device` is the plain record `Netlist.devices` reads the rows back as.

One coefficient rule per kind gives its local matrix for a column of
values, as complex columns built from their real and imaginary parts. A
transfer runs each kind's rule once over that kind's values, then applies the
local matrices to the rows of a block with one column per port: forward
transfer runs the devices in order from the input ports; backward transfer
runs them in reverse from the output ports with each local matrix
transposed, the backward matrix of every reciprocal kind here; every local
matrix is symmetric, so the transpose is the matrix itself. A single-wire
device (a phase or a gain, most of a lowered mesh) is a diagonal factor that
commutes along its wire to the next two-wire device, so a transfer keeps one
pending factor per wire and folds it into that device's coefficients, the
phase-screen argument of Clements et al., Optica 3, 1460 (2016).

Each gate architecture is a factor table plus an emitter: the table factors
a list of gates in one call (`decompositions`' stacked SVD and list form of
the Euler rule), and the emitter appends one gate's device columns to the
caller's `_Columns` on the caller's wires. A standalone gate netlist, the
blocks of the Mostow and controlled forms and the gates of a lowered circuit
are all built through the same tables and emitters.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import index
from types import MappingProxyType
from typing import Callable

import numpy as np

from .algebra import AnbitState, CompositeState
from .circuits import CircuitGraph, FanInGate, FanOutGate, SourceNode
from .decompositions import MostowFactors, _dim2_rows, _euler_table, _pauli_coefficients, _svd_table
from .decompositions import euler_zxz, euler_zyz, pauli_decompose, svd2  # noqa: F401  kept as anbit.lowering names, which perfbench/spans.py wraps
from .errors import AnbitError, ClassError, ControlEncodingError, DimError, GraphError, ParamError
from .errors import _at_device, _at_gate, _at_word, _integer
from .gates import ControlledGate, GateClass, GateMatrix, identity_gate

__all__ = [
    "Device",
    "Netlist",
    "lower_unitary_zxz",
    "lower_unitary_zyz_fixed",
    "lower_general_svd",
    "lower_mostow",
    "lower_pauli_mgate",
    "lower_fanin",
    "lower_controlled_electrooptic",
    "lower_circuit",
    "scattering_matrix",
    "check_fb_symmetry",
]

FB_TOL = 1e-10

# Size caps, refused with ParamError before anything is allocated. A transfer
# keeps one row, one pending factor and one row view per wire (about 140
# bytes a wire with one port), so `anbit analyze` on a device-free netlist of
# MAX_WIRES wires and one port each side peaks at 13.7 MiB under tracemalloc
# (1.4 MiB at 10**4 wires); its device columns are empty arrays. With
# P = |inputs| + |outputs| ports, the W x |inputs| port block and the P x P
# scattering matrix together hold at most (W + P) * P complex entries, capped
# by MAX_PORT_BLOCK (16 MB of entries); `analyze` of 200 + 200 ports peaks at
# 18.0 MiB, on 200 wires as on 2100, mostly the 320 000 Python floats and the
# JSON text of its 160 000 scattering entries.
MAX_WIRES = 10**5
MAX_PORT_BLOCK = 10**6

_HALF_PI = 0.5 * math.pi
_ROOT2 = math.sqrt(2.0)
_INV_SQRT2 = 1.0 / _ROOT2


# each rule builds its complex columns from real and imaginary parts: c + 1j * s
# would turn an imaginary -0.0 into 0.0
def _phase_coefs(phi):
    z = np.empty(len(phi), complex)
    z.real = np.cos(phi)
    z.imag = np.sin(phi)
    return (z,)


def _coupler_coefs(alpha2):
    # mode-coupling angle alpha2, coupling kL = alpha2/2: [[c, -is], [-is, c]]
    half = 0.5 * alpha2
    c = np.cos(half).astype(complex)
    s = np.zeros(len(half), complex)
    s.imag = -np.sin(half)
    return (c, s, s, c)


_SPLITTER_COEFS = tuple(_INV_SQRT2 * z for z in (1 + 0j, 1j, 1j, 1 + 0j))


def _gain_coefs(g):
    return (g.astype(complex),)


@dataclass(frozen=True)
class DeviceKind:
    """One device primitive: wire count, value domain and local matrix.

    coefs(values), the one definition of a kind's matrix, maps a float64
    column of values (nan for a kind that is not `valued`, which has no
    tunable parameter) to the entries of each value's n_wires x n_wires
    forward matrix in row-major order: one complex column per entry, or a
    complex constant where the entry takes no value. A value v of
    a valued kind must be finite and satisfy in_domain(v), low <= v <= high;
    `domain` words the rule for the error message. Every kind is reciprocal:
    its backward matrix is the transpose of the forward one, and equals it,
    since every matrix here is symmetric (m01 == m10).
    """

    n_wires: int
    valued: bool
    coefs: Callable[[np.ndarray], tuple]
    low: float = -math.inf
    high: float = math.inf
    domain: str = ""

    def in_domain(self, value) -> bool:
        return self.low <= value <= self.high


# keyed by the netlist text tag; attenuator gain 0 is the sentinel that blocks a wire
DEVICE_KINDS = {
    "PS": DeviceKind(1, True, _phase_coefs),  # phase e^(i phi)
    "DC": DeviceKind(2, True, _coupler_coefs),  # tunable coupler
    "BS": DeviceKind(2, False, lambda _values: _SPLITTER_COEFS),  # fixed 50:50 splitter
    "ATT": DeviceKind(1, True, _gain_coefs, 0.0, 1.0, "attenuator gain must be in [0, 1]"),
    # a gain above 1 is one of at least the next double after 1
    "AMP": DeviceKind(1, True, _gain_coefs, math.nextafter(1.0, 2.0), math.inf, "amplifier gain must exceed 1"),
}

# the kinds tuple: a netlist's kind column holds int8 codes, KINDS[code] the kind's tag
KINDS = tuple(DEVICE_KINDS)
_CODES = {kind: code for code, kind in enumerate(KINDS)}
_PS, _DC, _BS, _ATT, _AMP = map(_CODES.__getitem__, ("PS", "DC", "BS", "ATT", "AMP"))
_SPECS = tuple(DEVICE_KINDS.values())
_COEFS = tuple(spec.coefs for spec in _SPECS)

# the device rule as one per-code table (`_column_check`), a column per kind:
# the lowest and highest value of its domain with an infinite bound cut to
# the largest double, so a value within them is finite; what a nan value is
# read as (nan for a valued kind, -inf, its one bound, for a valueless one);
# and 1 for a two-wire kind
_BIG = sys.float_info.max
_RULES = np.array([
    [max(spec.low, -_BIG) if spec.valued else -math.inf for spec in _SPECS],
    [min(spec.high, _BIG) if spec.valued else -math.inf for spec in _SPECS],
    [math.nan if spec.valued else -math.inf for spec in _SPECS],
    [spec.n_wires == 2 for spec in _SPECS],
])


# one netlist row: value is the tunable parameter (phase, coupling angle or
# gain), None for the fixed splitter; control_binding names the control that sets it
Device = namedtuple("Device", "kind wires value control_binding", defaults=(None, None))


def _gain_code(gain: float) -> int:
    # attenuator for gain <= 1 (boundary included), amplifier above
    return _AMP if gain > 1.0 else _ATT


def _device_value(kind: str, spec: DeviceKind, value):
    """value as a `kind` device's (DeviceKind spec): a finite real in its domain as a float, or None if valueless."""
    if not spec.valued:
        if value is not None:
            raise ParamError(f"{kind} takes no value, got {value}")
        return None
    if value is None:
        raise ParamError(f"{kind} needs a value")
    try:
        finite = math.isfinite(value)
    except TypeError:
        raise ParamError(f"{kind} value must be a real number, got {value!r}") from None
    except OverflowError:  # an integer past the float range, too long to print
        raise ParamError(f"{kind} value is too large for a float") from None
    if not finite:
        raise ParamError(f"{kind} value must be finite, got {value}")
    if spec.domain and not spec.in_domain(value):
        raise ParamError(f"{spec.domain}, got {value}")
    return float(value)


class _Columns:
    """Device column lists that emitters and the row rule append to; netlist text meets the row rule.

    codes (indices into KINDS), first wires, second wires (-1 for a
    single-wire kind), values (nan for a valueless kind) and bindings; an
    empty bindings list leaves every device unbound. Nothing is checked here:
    the `Netlist` they build checks them.
    """

    __slots__ = ("codes", "wire_a", "wire_b", "values", "bindings")

    def __init__(self):
        self.codes, self.wire_a, self.wire_b, self.values, self.bindings = [], [], [], [], []

    def add(self, codes, wire_a, wire_b, values):
        """Append one chunk: a sequence per column, all of one length."""
        self.codes += codes
        self.wire_a += wire_a
        self.wire_b += wire_b
        self.values += values

    def arrays(self) -> tuple:
        """The int8 codes, 2 x D intp wires, float64 values and the bindings."""
        wires = np.array((self.wire_a, self.wire_b), dtype=np.intp)
        return np.array(self.codes, dtype=np.int8), wires, np.array(self.values, dtype=float), self.bindings

    def rows(self) -> list:
        """The devices as the row rule's (kind, wires, value, binding) rows."""
        return _rows(self.codes, self.wire_a, self.wire_b, self.values, self.bindings or [None] * len(self.codes))


def _rows(codes, wire_a, wire_b, values, bindings) -> list:
    """(kind, wires, value, binding) rows of column lists: wires by the kind's count, value None if it takes none."""
    rows = []
    for code, a, b, value, binding in zip(codes, wire_a, wire_b, values, bindings):
        spec = _SPECS[code]
        rows.append((KINDS[code], (a, b) if spec.n_wires == 2 else (a,), value if spec.valued else None, binding))
    return rows


def _is_token(word) -> bool:
    """Whether word is a string netlist text writes and reads back as one token: it has no whitespace."""
    return isinstance(word, str) and "".join(word.split()) == word


def _column_check(codes, wires, values, width: int) -> np.ndarray:
    """Mask of the devices that keep the device rule, from about ten array operations over the columns.

    The rule of `_device_columns`, for devices of known kinds with the wire
    count and the value or nan their kind takes: a valued kind's value lies
    in its domain and is finite (`_RULES`); wires[0] lies in 0..width-1, and
    wires[1] too, apart from it, for a two-wire kind, while a single-wire
    kind's lies outside (every door writes -1 there). A valueless kind's
    value must be nan, or -inf, which no door writes.
    """
    low, high, nan_read, two = _RULES.take(codes, axis=1)
    value = np.fmax(values, nan_read)  # fmax(v, nan) is v; fmax(nan, -inf) is -inf
    ok = (value >= low) & (value <= high) & (wires[0] != wires[1])
    in_range = wires.view(np.uintp) < width  # a negative wire wraps past any width
    return ok & in_range[0] & (in_range[1] == two)


def _device_columns(rows, width: int) -> _Columns:
    """The `_Columns` of rows, checked row by row: the row rule, which names the first faulty row.

    The one rule set for device faults, applied to each (kind, wires, value,
    binding) row in turn; the first faulty row raises. Wires are any iterable
    of as many distinct integers in 0..width-1 as the kind needs; the value
    obeys `_device_value`; the binding is None or a string without
    whitespace (`_is_token`). It checks every row a netlist is handed, and
    names the fault in columns the column check (`_column_check`) refuses.
    """
    cols = _Columns()
    add_code, add_a, add_b, add_value, add_binding = (
        col.append for col in (cols.codes, cols.wire_a, cols.wire_b, cols.values, cols.bindings)
    )
    try:
        for row in rows:
            try:
                kind, wires, value, binding = row
            except (TypeError, ValueError):
                raise ParamError("netlist devices are (kind, wires, value, binding) rows") from None
            spec = DEVICE_KINDS.get(kind)
            if spec is None:
                raise ParamError(f"unknown device kind {kind!r}")
            if type(wires) is not tuple:
                try:
                    wires = tuple(wires)
                except TypeError:
                    raise ParamError(f"{kind} wires must be a sequence, got {wires!r}") from None
            n = spec.n_wires
            try:  # a non-integer wire is reported before a wrong count or a repeat
                if len(wires) != n or n == 2 and index(wires[0]) == index(wires[1]):
                    raise ParamError(f"{kind} needs {n} distinct wires, got {tuple(map(index, wires))}")
                a = index(wires[0])
                b = index(wires[1]) if n == 2 else -1
            except TypeError:
                raise ParamError(f"{kind} wires must be integers, got {wires!r}") from None
            value = _device_value(kind, spec, value)
            if not (0 <= a < width and (n == 1 or 0 <= b < width)):
                raise ParamError(f"device wire {a if not 0 <= a < width else b} outside 0..{width - 1}")
            if binding is not None and not _is_token(binding):
                raise ParamError(f"device {len(cols.codes)} binding {binding!r} is neither None nor a whitespace-free string")
            add_code(_CODES[kind])
            add_a(a)
            add_b(b)
            add_value(math.nan if value is None else value)
            add_binding(binding)
    except ParamError as exc:  # the rows before it are in cols
        raise _at_device(exc, len(cols.codes))
    return cols


def _checked(devices, width: int) -> tuple:
    """`_Columns.arrays` of devices, rows or `_Columns`, that keep the device rule; the first faulty one raises.

    Rows, netlist text's too, meet the row rule alone, which checks them and
    builds the columns. An emitter's `_Columns` meet the column check once;
    only a device it refuses sends them to the row rule, which names it.
    """
    if not isinstance(devices, _Columns):
        return _device_columns(devices, width).arrays()
    cols = devices.arrays()
    if np.count_nonzero(_column_check(*cols[:3], width)) == len(cols[0]):
        return cols
    _device_columns(devices.rows(), width)
    raise AssertionError("the row rule accepts a device the column check refuses")


def _frozen(column: np.ndarray) -> np.ndarray:
    column.setflags(write=False)
    return column


def _local_matrices(codes, values) -> list:
    """Per device, its local matrix from one coefficient pass per kind over the value column.

    A single-wire device's is its factor as a Python complex, a two-wire
    device's its four entries in row-major order as a list. The devices are
    sorted by kind, stably, so each kind's rule runs on one slice of values.
    """
    order = codes.argsort(kind="stable")
    by_kind = values[order]
    m = np.empty((len(codes), 4), complex)  # rows in kind order
    spans = []  # (devices, local matrices) of the two-wire kinds
    low = 0
    for code, high in enumerate(accumulate(np.bincount(codes, minlength=len(KINDS)).tolist())):
        if high > low:
            for j, entry in enumerate(_COEFS[code](by_kind[low:high])):
                m[low:high, j] = entry
            if _SPECS[code].n_wires == 2:
                spans.append((order[low:high].tolist(), m[low:high].tolist()))
        low = high
    first = np.empty(len(codes), complex)
    first[order] = m[:, 0]
    local = first.tolist()
    for devices, matrices in spans:
        for k, entries in zip(devices, matrices):
            local[k] = entries
    return local


class Netlist:
    """Devices on `wires` wires with declared input/output ports, as read-only columns.

    `devices` is ordered (kind, wires, value, binding) rows (`Device` records
    or plain tuples, as netlist text is read), or an emitter's `_Columns`.
    They are kept as numpy columns that refuse assignment: `kinds` (int8
    codes into `KINDS`), `wire_a`, `wire_b` (intp, -1 for single-wire kinds)
    and `values` (float64, nan where a kind takes no value), plus the tuple
    `bindings`. The device rule runs once (`_checked`): rows meet the row rule
    (`_device_columns`), which raises for the first faulty row, and columns
    meet the column check, which sends a fault to the row rule to be named.
    `devices` reads the rows back. The wire count, ports and wires are
    integers, both port lists are non-empty, and every port and device wire
    lies in 0..wires-1. The wire count is at most MAX_WIRES, and
    (wires + ports) x ports, with ports the length of both port lists
    together, at most MAX_PORT_BLOCK.

    control_map, when present, maps a control word (or the fallback "*") to
    {device index: parameter value}; each index lies in 0..D-1 and each value
    obeys the rule of the device it sets (`_device_value`). The netlist keeps
    a read-only copy of the checked values, `control_map`, and the read-only
    float64 value column each word programs; active_setting names the word
    whose values the emitted devices carry, so each of its entries equals the
    value of the device it sets. A word without an entry of its own needs the
    "*" fallback. Each word and active_setting is a non-empty string without
    whitespace, and each binding None or a string without whitespace: netlist
    text writes each as one token. A fault of a word or of the active word is
    marked with that word (`_at_word`), as a faulty row is with its index
    (`_at_device`), so netlist text can name the line.
    """

    def __init__(self, wires: int, devices, input_ports, output_ports,
                 control_map: dict | None = None, active_setting: str | None = None):
        self.wires = _integer(wires, "netlist wire count")
        if self.wires > MAX_WIRES:
            raise ParamError(f"netlist wire count must be at most {MAX_WIRES}, got {self.wires}")
        self.input_ports = tuple(_integer(w, "input port") for w in input_ports)
        self.output_ports = tuple(_integer(w, "output port") for w in output_ports)
        n_ports = len(self.input_ports) + len(self.output_ports)
        if (self.wires + n_ports) * n_ports > MAX_PORT_BLOCK:
            raise ParamError(
                f"netlist of {self.wires} wires and {n_ports} ports needs (wires + ports) x ports = "
                f"{(self.wires + n_ports) * n_ports} transfer entries, more than {MAX_PORT_BLOCK}"
            )
        self.active_setting = active_setting
        for side, ports in (("input", self.input_ports), ("output", self.output_ports)):
            if not ports:
                raise ParamError(f"netlist has no {side} ports")
        for w in self.input_ports + self.output_ports:
            if not 0 <= w < self.wires:
                raise ParamError(f"port wire {w} outside 0..{self.wires - 1}")
        codes, wires, values, bindings = _checked(devices, self.wires)
        self.kinds, self.values = _frozen(codes), _frozen(values)
        self.wire_a, self.wire_b = _frozen(wires)  # read-only views of the frozen pair
        self.bindings = tuple(bindings) if bindings else (None,) * len(codes)
        top = len(self.kinds) - 1
        words, self._columns = {}, {}  # word -> {device index: value}; word -> value column
        try:
            control_words = () if control_map is None else control_map.items()
        except AttributeError:
            got = type(control_map).__name__
            raise ParamError(f"control map must map control words to {{device: value}}, got a {got}") from None
        setting = None  # the word being checked: a fault is marked with it (`_at_word`)
        try:
            for setting, values in control_words:
                try:
                    entries = values.items()
                except AttributeError:
                    raise ParamError(f"control word {setting!r} maps to {values!r}, not to {{device: value}}") from None
                word, column = {}, self.values.copy()
                for idx, value in entries:
                    idx = _integer(idx, f"control word {setting!r} device index")
                    if not 0 <= idx <= top:
                        raise ParamError(f"control word {setting!r} sets device {idx}, outside 0..{top}")
                    kind = KINDS[self.kinds[idx]]
                    try:
                        value = _device_value(kind, DEVICE_KINDS[kind], value)
                    except ParamError as exc:
                        raise ParamError(f"control word {setting!r} sets device {idx}: {exc}") from None
                    if value is not None:  # None on a valueless device sets nothing
                        word[idx] = column[idx] = value
                if not (setting and _is_token(setting)):
                    raise ParamError(f"control word {setting!r} must be a non-empty whitespace-free string")
                words[setting] = MappingProxyType(word)
                self._columns[setting] = _frozen(column)
            self.control_map = None if control_map is None else MappingProxyType(words)
            # the devices carry the active word's values: both copies must agree (nan on valueless devices)
            if active_setting is not None:
                setting = active_setting
                column = self._column(active_setting)
                if not (active_setting and _is_token(active_setting)):
                    raise ParamError(f"active control word {active_setting!r} must be a non-empty whitespace-free string")
                for idx in np.flatnonzero(column != self.values).tolist():
                    value, carried = column[idx].item(), self.values[idx].item()
                    if carried == carried:
                        raise ParamError(
                            f"active control word {active_setting!r} sets device {idx} to {value}, "
                            f"but the device carries {carried}"
                        )
        except ParamError as exc:
            raise _at_word(exc, setting)

    @cached_property
    def devices(self) -> tuple:
        """The rows as `Device` records, built without checking them again."""
        cols = (self.kinds, self.wire_a, self.wire_b, self.values)
        return tuple(map(Device._make, _rows(*(col.tolist() for col in cols), self.bindings)))

    def _column(self, setting: str) -> np.ndarray:
        """The value column control word `setting` programs, or the "*" fallback's."""
        if not self.control_map:
            raise ParamError("netlist has no control map")
        try:
            column = self._columns.get(setting, self._columns.get("*"))
        except TypeError:  # an unhashable word, such as a list
            raise ParamError(f"control word {setting!r} is not hashable") from None
        if column is None:
            raise ParamError(f"control word {setting!r} matches no control map entry and no '*'")
        return column

    def _port_block(self, setting, start_ports, read_ports, backward: bool) -> np.ndarray:
        """Devices applied to the rows of a W x |start_ports| block of unit columns.

        setting is None (the values the devices carry) or a control word, a
        non-empty whitespace-free string; any other is refused before the "*"
        fallback is looked up. Each device touches only its own rows, so one
        pass costs O(D |ports|). The local matrices come from one coefficient
        pass per kind over the value column (`_local_matrices`). The backward
        pass runs the devices in reverse with transposed matrices, which are
        the matrices themselves: every kind's is symmetric. A single-wire
        device is a diagonal factor that commutes along its wire up to the
        next two-wire device, so it only multiplies its wire's pending Python
        complex factor. A two-wire device folds both wires' pending factors
        into its four coefficients, resets them to 1 and replaces its two rows
        once; the factors still pending scale the rows read out.
        """
        if setting is not None and not (_is_token(setting) and setting):
            raise ParamError(f"control word {setting!r} must be a non-empty whitespace-free string")
        values = self.values if setting is None else self._column(setting)
        blk = np.zeros((self.wires, len(start_ports)), dtype=complex)
        blk[start_ports, range(len(start_ports))] = 1.0
        rows = list(blk)
        pending = [1.0] * self.wires
        cols = (self.wire_a.tolist(), self.wire_b.tolist(), _local_matrices(self.kinds, values))
        for a, b, m in zip(*map(reversed, cols)) if backward else zip(*cols):
            if b < 0:
                pending[a] *= m
                continue
            m00, m01, m10, m11 = m
            pa, pb = pending[a], pending[b]
            pending[a] = pending[b] = 1.0
            row_a, row_b = rows[a], rows[b]
            rows[a] = m00 * pa * row_a + m01 * pb * row_b
            rows[b] = m10 * pa * row_a + m11 * pb * row_b
        return np.array([rows[w] * pending[w] for w in read_ports])

    def forward_transfer(self, setting: str | None = None) -> np.ndarray:
        """Transfer matrix from input ports to output ports, indexed [out, in]."""
        return self._port_block(setting, self.input_ports, self.output_ports, backward=False)

    def backward_transfer(self, setting: str | None = None) -> np.ndarray:
        """Reverse-direction transfer from output ports to input ports, [in, out]."""
        return self._port_block(setting, self.output_ports, self.input_ports, backward=True)


def check_fb_symmetry(tf: np.ndarray, tb: np.ndarray) -> bool:
    """Whether a netlist's forward and backward transfers tf and tb coincide."""
    if tf.shape != tb.shape:
        return False
    scale = max(1.0, float(np.max(np.abs(tf))))
    return float(np.max(np.abs(tb - tf))) <= FB_TOL * scale


def scattering_matrix(tf: np.ndarray, tb: np.ndarray) -> np.ndarray:
    """Port scattering matrix [[0, T_b], [T_f, 0]] of a non-reflective netlist.

    tf is the forward transfer [out, in] and tb the backward one [in, out]; for
    reciprocal devices tb is tf^T, and the matrix is symmetric.
    """
    n_out, n_in = tf.shape
    s = np.zeros((n_in + n_out, n_in + n_out), dtype=complex)
    s[:n_in, n_in:] = tb
    s[n_in:, :n_in] = tf
    return s


# --- factor tables and emitters ---------------------------------------------
# A gate architecture is a factor table plus an emitter. The table factors a
# list of dim-2 gates in one call, in order, so the first gate that cannot be
# factored raises, marked with its index in the list (`_at_gate`); the
# emitter _emit_<arch>(out, f, w) appends the device columns of one table
# entry f on the wires w to the `_Columns` out, checked later with the
# netlist they build: w[0] and w[1] carry the anbit in and out, any further
# wires are the architecture's scratch rails.

def _zxz_table(gates) -> list:
    return _euler_table(_dim2_rows(gates, "Euler factorization", ClassError), "zxz")


def _zyz_table(gates) -> list:
    return _euler_table(_dim2_rows(gates, "Euler factorization", ClassError), "zyz")


def _svd_table_zxz(gates) -> list:
    """(zxz angles of u1, d1, d2, zxz angles of u2) per gate: `svd2`, then `euler_zxz` of both factors."""
    factors = _svd_table(list(_dim2_rows(gates, "svd2", ParamError)))
    try:
        angles = _euler_table([rows for u2, _, _, u1 in factors for rows in (u1, u2)], "zxz")
    except ClassError as exc:  # two rows per gate: its u1, then its u2
        raise _at_gate(exc, exc.gate // 2)
    return [(angles[2 * k], d1, d2, angles[2 * k + 1]) for k, (_, d1, d2, _) in enumerate(factors)]


def _magnitude(z: complex) -> float:
    """abs(z), or inf where z's parts are finite but its magnitude is past the float range."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _pauli_table(gates) -> list:
    """Per gate, the (phase, gain) of each branch scale a0, i a1, i a2, i a3.

    The first gate with a scale above max float / sqrt2, where the clone
    tree's sqrt2 gain times the branch gain overflows in the netlist's
    transfer, is a ParamError marked with its index (`_at_gate`).
    """
    rows = _pauli_coefficients(_dim2_rows(gates, "Pauli expansion", ParamError))
    scales = [scale for a0, a1, a2, a3 in rows for scale in (a0, 1j * a1, 1j * a2, 1j * a3)]
    gains = list(map(_magnitude, scales))
    for k, gain in enumerate(gains):
        if gain > _BIG / _ROOT2:
            message = "Pauli coefficient magnitude is past max float / sqrt2, where the netlist's gains overflow"
            raise _at_gate(ParamError(message), k // 4)
    pairs = [(math.atan2(z.imag, z.real), gain) for z, gain in zip(scales, gains)]
    return [pairs[k:k + 4] for k in range(0, len(pairs), 4)]


_NAN = math.nan
_ZXZ_KINDS = (_PS, _PS, _DC, _PS, _PS, _PS, _PS)
_ZYZ_KINDS = (_PS, _PS, _BS, _PS, _PS, _BS, _PS, _PS, _PS, _PS, _PS)


def _emit_zxz(out: _Columns, f: tuple, w=(0, 1)):
    # R_z(alpha1), the coupler, R_z(alpha3) as phase pairs diag(e^(-i a/2), e^(i a/2)),
    # then the global phase; + 0.0 avoids -0.0 params
    delta, alpha1, alpha2, alpha3 = f
    a, b = w[0], w[1]
    out.add(
        _ZXZ_KINDS,
        (a, b, a, a, b, a, b),
        (-1, -1, b, -1, -1, -1, -1),
        (-0.5 * alpha1 + 0.0, 0.5 * alpha1 + 0.0, alpha2, -0.5 * alpha3 + 0.0, 0.5 * alpha3 + 0.0, delta, delta),
    )


def _emit_zyz(out: _Columns, f: tuple, w):
    # as zxz, with the coupler replaced by splitter, phase pair, splitter, then a pi phase on b
    delta, alpha1, alpha2, alpha3 = f
    a, b = w[0], w[1]
    out.add(
        _ZYZ_KINDS,
        (a, b, a, a, b, a, b, a, b, a, b),
        (-1, -1, b, -1, -1, b, -1, -1, -1, -1, -1),
        (-0.5 * alpha1 + 0.0, 0.5 * alpha1 + 0.0, _NAN, 0.5 * alpha2, -0.5 * alpha2 - math.pi, _NAN, math.pi,
         -0.5 * alpha3 + 0.0, 0.5 * alpha3 + 0.0, delta, delta),
    )


def _emit_svd(out: _Columns, f: tuple, w):
    u1, d1, d2, u2 = f
    _emit_zxz(out, u1, w)
    out.add((_gain_code(d1), _gain_code(d2)), (w[0], w[1]), (-1, -1), (d1, d2))
    _emit_zxz(out, u2, w)


def _gate_netlist(arch: str, m: GateMatrix) -> Netlist:
    factor, emit, wires = _CIRCUIT_ARCHES[arch]
    out = _Columns()
    emit(out, factor([m])[0], range(wires))
    return Netlist(wires, out, (0, 1), (0, 1))


def lower_unitary_zxz(u: GateMatrix) -> Netlist:
    """Euler-angle architecture: two phase pairs around one tunable coupler.

    Always emits the full seven-device template (identity becomes all-zero
    parameters) so controlled variants can swap parameter sets in place.
    """
    return _gate_netlist("zxz", u)


def lower_unitary_zyz_fixed(u: GateMatrix) -> Netlist:
    """Fixed-coupler architecture: 50:50 splitters and phase shifters only.

    The middle rotation uses the interferometer identity
    PS1(pi) . BS . diag(e^(i a2/2), e^(-i(a2/2 + pi))) . BS = R_y(a2),
    costing four extra devices over the tunable-coupler form.
    """
    return _gate_netlist("zyz", u)


def lower_general_svd(m: GateMatrix) -> Netlist:
    """Unitary-diagonal-unitary architecture accepting any 2x2 gate."""
    return _gate_netlist("svd", m)


def lower_mostow(f: MostowFactors) -> Netlist:
    """Five-stage architecture: three unitary blocks around two diagonal stages.

    Application order is the reverse of the factor product order. Both
    diagonal stages are exponentials, lam2 = e^(eigenvalues of B) and
    lam1 = (e^-a, e^a), so each entry is one positive gain device.
    """
    u_last, _, u_mid, _, u_first = f.expanded  # device values come from the scalar fields
    first, mid, last = _zxz_table((u_first, u_mid, u_last))
    out = _Columns()
    _emit_zxz(out, first)
    out.add(tuple(map(_gain_code, f.lam2)), (0, 1), (-1, -1), f.lam2)
    _emit_zxz(out, mid)
    out.add(tuple(map(_gain_code, f.lam1)), (0, 1), (-1, -1), f.lam1)
    _emit_zxz(out, last)
    return Netlist(2, out, (0, 1), (0, 1))


def _sum_values(n: complex, m: complex) -> tuple:
    """(phase, gain) of wire a, then of wire b, of `_sum_block`'s diagonal (sqrt2 n, -i sqrt2 m).

    A weight that is nan or above max float / sqrt2 is a ParamError naming it.
    """
    n, m = complex(n), complex(m)
    for name, w in (("n", n), ("m", m)):
        if not _magnitude(w) <= _BIG / _ROOT2:
            raise ParamError(f"fan weight {name} = {w} needs |{name}| at most max float / sqrt2, for a finite gain sqrt2 |{name}|")
    phase_n, phase_m = math.atan2(n.imag, n.real), math.atan2(m.imag, m.real)
    return phase_n, _ROOT2 * abs(n), phase_m - _HALF_PI, _ROOT2 * abs(m)


# _sum_values(1, 1), the unit weights of the pauli clone and fan-in trees, written out:
# no angle is taken while the package imports
_UNIT_SUM = (0.0, _ROOT2, -_HALF_PI, _ROOT2)


def _sum_block(out: _Columns, a: int, b: int, values: tuple = _UNIT_SUM):
    """Fan-in stage on wires (a, b): transfer [[n, n], [m, -m]], values = `_sum_values(n, m)`.

    Factorized as A.B.C with C a -pi/2 phase on b, B the 50:50 splitter, and
    A the diagonal (sqrt2 n, -i sqrt2 m) realized as phase plus gain per wire.
    """
    phase_a, gain_a, phase_b, gain_b = values
    out.add(
        (_PS, _BS, _PS, _gain_code(gain_a), _PS, _gain_code(gain_b)),
        (b, a, a, a, b, b),
        (-1, b, -1, -1, -1, -1),
        (-_HALF_PI, _NAN, phase_a, gain_a, phase_b, gain_b),
    )


def lower_fanin(g: FanInGate) -> Netlist:
    """Four-wire fan-in block; wires (0,1) carry one anbit, (2,3) the other.

    Each amplitude index k couples only wires (k, k+2); the block transfer is
    [[nI, nI], [mI, -mI]] with the sum anbit leaving on (0,1) and the scaled
    difference on (2,3).
    """
    out = _Columns()
    values = _sum_values(g.n, g.m)
    for k in range(2):
        _sum_block(out, k, k + 2, values)
    return Netlist(4, out, (0, 1, 2, 3), (0, 1, 2, 3))


def _scale_pair(out: _Columns, w0: int, w1: int, scale: tuple):
    # multiply both wires of a branch by the complex scalar whose (phase, gain) is scale
    phase, gain = scale
    code = _gain_code(gain)
    out.add((_PS, code, _PS, code), (w0, w0, w1, w1), (-1, -1, -1, -1), (phase, gain, phase, gain))


def _emit_pauli(out: _Columns, f: list, w):
    # f: the (phase, gain) of the four branch scales; w[2:8] are the three extra branch rails
    # clone tree: after it, wires w[0,2,4,6] carry psi0 and w[1,3,5,7] carry psi1
    for a, b in ((0, 4), (1, 5), (0, 2), (1, 3), (4, 6), (5, 7)):
        _sum_block(out, w[a], w[b])
    # branch 0 on w[0,1]: a0 I
    _scale_pair(out, w[0], w[1], f[0])
    # branch 1 on w[2,3]: i a1 Rx(pi)
    out.add((_DC,), (w[2],), (w[3],), (math.pi,))
    _scale_pair(out, w[2], w[3], f[1])
    # branch 2 on w[4,5]: i a2 Ry(pi) with Ry(pi) = Rz(pi/2) Rx(pi) Rz(-pi/2)
    quarter = 0.25 * math.pi
    out.add((_PS, _PS, _DC, _PS, _PS), (w[4], w[5], w[4], w[4], w[5]), (-1, -1, w[5], -1, -1),
            (quarter, -quarter, math.pi, -quarter, quarter))
    _scale_pair(out, w[4], w[5], f[2])
    # branch 3 on w[6,7]: i a3 Rz(pi)
    out.add((_PS, _PS), (w[6], w[7]), (-1, -1), (-_HALF_PI, _HALF_PI))
    _scale_pair(out, w[6], w[7], f[3])
    # fan-in tree back onto w[0,1]
    for a, b in ((0, 2), (4, 6), (1, 3), (5, 7), (0, 4), (1, 5)):
        _sum_block(out, w[a], w[b])


def lower_pauli_mgate(m: GateMatrix) -> Netlist:
    """Four-branch expansion architecture: m = a0 I + i a1 Rx(pi) + i a2 Ry(pi) + i a3 Rz(pi).

    A cloning tree copies the input anbit to four branch rails, each branch
    applies one scaled term, and a mirrored fan-in tree sums them back. Far
    more devices than the unitary-diagonal-unitary form; provided for the
    architecture comparison, not as the preferred compilation path.
    """
    return _gate_netlist("pauli", m)


def _basis_word(setting, n_controls: int) -> str:
    if isinstance(setting, AnbitState):
        vec = setting.amps
    elif isinstance(setting, CompositeState):
        vec = setting.flat
    else:
        vec = np.array(setting, dtype=complex).reshape(-1)
    want = 2**n_controls
    if vec.size != want:
        raise DimError(f"control setting needs dim {want}, got {vec.size}")
    hot = None
    for k, amp in enumerate(vec):
        if abs(amp - 1.0) <= 1e-12:
            if hot is not None:
                raise ControlEncodingError("control setting is superposed")
            hot = k
        elif abs(amp) > 1e-12:
            raise ControlEncodingError("control setting is not a computational basis state")
    if hot is None:
        raise ControlEncodingError("control setting has no unit-amplitude slot")
    return format(hot, f"0{n_controls}b")


def _shared_kinds(words: dict) -> tuple:
    """The devices' `_Columns`, values left out, and word -> values: one device kind per position under every word.

    The words' columns come from one emitter, so they differ in kind only
    where a gain is an amplifier under one word and an attenuator under
    another. Wherever any word's gain exceeds 1, every word gets a fixed
    amplifier at the largest of those gains, followed by an attenuator at its
    own gain over that largest one; both then lie in their kinds' domains
    under every word.
    """
    first = next(iter(words.values()))
    shared, values = _Columns(), {word: [] for word in words}
    for k, (code, a, b) in enumerate(zip(first.codes, first.wire_a, first.wire_b)):
        gains = [cols.values[k] for cols in words.values()]
        top = max(gains) if code in (_ATT, _AMP) else 1.0
        if top > 1.0:
            shared.add((_AMP, _ATT), (a, a), (b, b), ())
            for out, gain in zip(values.values(), gains):
                out += (top, gain / top)
        else:
            shared.add((code,), (a,), (b,), ())
            for out, value in zip(values.values(), gains):
                out.append(value)
    return shared, values


def lower_controlled_electrooptic(cg: ControlledGate, control_setting) -> Netlist:
    """Target MCA with the control word routed to electrical parameter sets.

    The optical netlist is the target gate's architecture (Euler form for
    unitaries, unitary-diagonal-unitary otherwise), with each gain that
    exceeds 1 under some word split into a fixed amplifier and a tunable
    attenuator (`_shared_kinds`). The control map holds two parameter
    assignments: the all-ones word programs the target, every other word
    programs the identity. Devices are emitted carrying the values selected
    by control_setting, which must be a basis state.
    """
    hot_word = "1" * cg.n_controls
    hot = _basis_word(control_setting, cg.n_controls) == hot_word
    factor, emit, _ = _CIRCUIT_ARCHES["zxz" if cg.target_gate.gate_class is GateClass.UNITARY else "svd"]
    # both templates have the same devices, every one valued; the netlist's
    # devices carry the active one's values, device k bound to control ck
    words = {hot_word: _Columns(), "*": _Columns()}
    for out, f in zip(words.values(), factor((cg.target_gate, identity_gate(2)))):
        emit(out, f, (0, 1))
    devices, values = _shared_kinds(words)
    active = hot_word if hot else "*"
    devices.values = values[active]
    devices.bindings = [f"c{k}" for k in range(len(devices.codes))]
    control_map = {word: dict(enumerate(v)) for word, v in values.items()}
    return Netlist(2, devices, (0, 1), (0, 1), control_map=control_map, active_setting=active)


# factor table, emitter and wire count per gate or circuit architecture
_CIRCUIT_ARCHES = {
    "zxz": (_zxz_table, _emit_zxz, 2),
    "zyz": (_zyz_table, _emit_zyz, 2),
    "svd": (_svd_table_zxz, _emit_svd, 2),
    "pauli": (_pauli_table, _emit_pauli, 8),
}


def lower_circuit(graph: CircuitGraph, arch: str = "zxz") -> Netlist:
    """Compile an acyclic circuit graph to one netlist; feedback is rejected.

    Every signal path gets a dedicated wire pair. The chosen architecture's
    factor table factors every gate in component order in one call; each gate
    node then emits its device columns straight onto its pair, plus fresh
    scratch wires for wide architectures; fan-in couples two pairs with the
    sum block; fan-out (unwired ancilla only, so its m12 and m22 act on null)
    is the same block fed by a fresh null pair. A gate of dim other than 2, a
    fan-out with a wired ancilla or a fan weight `_sum_values` refuses is
    refused only after the gates before it are factored, so the first fault
    in component order is raised; its message starts with the node, `node
    'g37': ...`, whether the node itself or the factor table refused it.
    A node's input pair is the output pair of the edge feeding it, read from
    the graph's port tables. Unwired garbage ports keep their wires out of the
    output port list.
    """
    if arch not in _CIRCUIT_ARCHES:
        raise ParamError(f"circuit lowering supports {sorted(_CIRCUIT_ARCHES)}, got {arch!r}")
    factor, emit, arch_wires = _CIRCUIT_ARCHES[arch]

    components = graph.components()
    if any(cyclic for _, cyclic in components):
        raise GraphError("circuit has feedback; only acyclic graphs lower to a netlist")

    gates, names, sums, fault = [], [], {}, None  # sums: fan node -> its `_sum_values`
    for (nid,), _ in components:
        node = graph.nodes[nid]
        if isinstance(node, GateMatrix):
            if node.dim != 2:
                fault = DimError(f"node {nid!r}: netlist lowering carries dim-2 signals")
                break
            gates.append(node)
            names.append(nid)
        elif isinstance(node, FanOutGate) and graph.in_edges[nid][1] is not None:
            fault = GraphError(f"node {nid!r}: fan-out with a wired ancilla does not lower")
            break
        elif isinstance(node, (FanInGate, FanOutGate)):
            try:
                sums[nid] = _sum_values(node.n, node.m)
            except ParamError as exc:
                fault = ParamError(f"node {nid!r}: {exc}")
                break
    try:
        table = iter(factor(gates))
    except AnbitError as exc:  # every factor table marks the gate it refuses (`_at_gate`)
        raise type(exc)(f"node {names[exc.gate]!r}: {exc}") from None
    if fault is not None:
        raise fault

    next_wire = 0

    def fresh(n: int) -> tuple:
        nonlocal next_wire
        next_wire += n
        return tuple(range(next_wire - n, next_wire))

    out = _Columns()
    out_pair: dict = {}  # (node, output port) -> wire pair

    def in_pair(nid, port: int) -> tuple:
        return out_pair[graph.edges[graph.in_edges[nid][port]][0]]

    for (nid,), _ in components:
        node = graph.nodes[nid]
        if isinstance(node, SourceNode):
            out_pair[(nid, 0)] = fresh(2)
        elif isinstance(node, GateMatrix):
            pair = in_pair(nid, 0)
            emit(out, next(table), pair + fresh(arch_wires - 2))
            out_pair[(nid, 0)] = pair
        elif isinstance(node, (FanInGate, FanOutGate)):
            pa = in_pair(nid, 0)
            pb = in_pair(nid, 1) if isinstance(node, FanInGate) else fresh(2)  # fan-out: a null-fed rail
            for k in range(2):
                _sum_block(out, pa[k], pb[k], sums[nid])
            out_pair[(nid, 0)], out_pair[(nid, 1)] = pa, pb

    # port order follows the graph's node declaration order, not the topo visit
    input_ports = [w for nid in graph.sources() for w in out_pair[(nid, 0)]]
    output_ports = [w for nid in graph.sinks() for w in in_pair(nid, 0)]
    return Netlist(next_wire, out, tuple(input_ports), tuple(output_ports))
