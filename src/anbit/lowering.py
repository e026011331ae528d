"""Lowering of gates and fan-in blocks to photonic device netlists.

A netlist is an ordered list of device primitives acting in place on numbered
wires; two wires carry one anbit. A device kind, a key of `DEVICE_KINDS`
(phase shifter, tunable coupler, fixed 50:50 splitter, attenuator,
amplifier), fixes its wire count, value domain and local 1x1 or 2x2 matrix.
A `Netlist` stores its devices as tuple columns, one per field, built from
(kind, wires, value, binding) rows in one pass that checks each row by its
kind's rules, the only place a row is checked; `Device` is the plain record
`Netlist.devices` reads the rows back as.

One coefficient function per kind gives its local matrix as Python complex
numbers. Transfers apply the local matrices to the rows of a block with one
column per port: forward transfer runs the devices in order from the input
ports; backward transfer runs them in reverse from the output ports with each
local matrix transposed, the backward matrix of every reciprocal kind here;
every local matrix is symmetric, so the transpose is the matrix itself. A
single-wire device (a phase or a gain, most of a lowered mesh) is a diagonal
factor that commutes along its wire to the next two-wire device, so a
transfer keeps one pending factor per wire and folds it into that device's
coefficients, the phase-screen argument of Clements et al., Optica 3, 1460
(2016).

Each gate architecture is one emitter that appends its device rows to the
caller's list on the caller's wires, so a standalone gate netlist and a gate
inside a lowered circuit are built the same way.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from operator import index
from types import MappingProxyType
from typing import Callable

import numpy as np

from .algebra import AnbitState, CompositeState
from .circuits import CircuitGraph, FanInGate, FanOutGate, SourceNode
from .decompositions import MostowFactors, euler_zxz, euler_zyz, svd2, pauli_decompose
from .errors import ControlEncodingError, DimError, GraphError, ParamError, _integer
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
# (1.4 MiB at 10**4 wires). With P = |inputs| + |outputs| ports, the W x
# |inputs| port block and the P x P scattering matrix together hold at most
# (W + P) * P complex entries, capped by MAX_PORT_BLOCK (16 MB of entries);
# `analyze` of 400 ports peaks at 29.4 MiB, mostly the JSON of its 160 000
# scattering entries.
MAX_WIRES = 10**5
MAX_PORT_BLOCK = 10**6

_HALF_PI = 0.5 * math.pi
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _phase_coefs(phi):
    return (complex(math.cos(phi), math.sin(phi)),)


def _coupler_coefs(alpha2):
    # mode-coupling angle alpha2, coupling kL = alpha2/2: [[c, -is], [-is, c]]
    c, s = math.cos(0.5 * alpha2), math.sin(0.5 * alpha2)
    return (complex(c), complex(0.0, -s), complex(0.0, -s), complex(c))


_SPLITTER_COEFS = tuple(_INV_SQRT2 * z for z in (1 + 0j, 1j, 1j, 1 + 0j))


def _gain_coefs(g):
    return (complex(g),)


@dataclass(frozen=True)
class DeviceKind:
    """One device primitive: wire count, value domain and local matrix.

    coefs(value), the one definition of a kind's matrix, gives the entries of
    the n_wires x n_wires forward matrix as Python complex numbers in row-major
    order; kinds that are not `valued` have no tunable parameter. A value v of
    a valued kind must be finite and satisfy in_domain(v); `domain` words the
    rule for the error message. Every kind is reciprocal: its backward matrix
    is the transpose of the forward one, and equals it, since every matrix
    here is symmetric (m01 == m10).
    """

    n_wires: int
    valued: bool
    coefs: Callable[[float | None], tuple]
    in_domain: Callable[[float], bool] = lambda value: True
    domain: str = ""


# keyed by the netlist text tag; attenuator gain 0 is the sentinel that blocks a wire
DEVICE_KINDS = {
    "PS": DeviceKind(1, True, _phase_coefs),  # phase e^(i phi)
    "DC": DeviceKind(2, True, _coupler_coefs),  # tunable coupler
    "BS": DeviceKind(2, False, lambda _value: _SPLITTER_COEFS),  # fixed 50:50 splitter
    "ATT": DeviceKind(1, True, _gain_coefs, lambda g: 0 <= g <= 1, "attenuator gain must be in [0, 1]"),
    "AMP": DeviceKind(1, True, _gain_coefs, lambda g: g > 1, "amplifier gain must exceed 1"),
}


# one netlist row: value is the tunable parameter (phase, coupling angle or
# gain), None for the fixed splitter; control_binding names the control that sets it
Device = namedtuple("Device", "kind wires value control_binding", defaults=(None, None))


def _gain_row(wire: int, gain: float) -> tuple:
    # attenuator for gain <= 1 (boundary included), amplifier above
    return ("AMP" if gain > 1.0 else "ATT", (wire,), gain, None)


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


def _device_columns(rows, width: int) -> list:
    """Kind, first wire, second wire (-1 for one), value and binding columns of rows.

    The one rule set for device faults, applied to each (kind, wires, value,
    binding) row in turn; the first faulty row raises. Wires are any iterable
    of as many distinct integers in 0..width-1 as the kind needs; the value
    obeys `_device_value`.
    """
    cols = kinds, wire_a, wire_b, values, bindings = [], [], [], [], []
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
        kinds.append(kind)
        wire_a.append(a)
        wire_b.append(b)
        values.append(value)
        bindings.append(binding)
    return cols


class Netlist:
    """Devices on `wires` wires with declared input/output ports, as columns.

    `devices`, ordered (kind, wires, value, binding) rows (`Device` records or
    plain tuples), is checked row by row and split in the same pass into one
    tuple column per field: `kinds`, `wire_a`, `wire_b` (-1 for single-wire
    kinds), `values` (floats, None where a kind takes no value) and
    `bindings`; the first faulty row raises. `devices` reads the rows back.
    The wire count, ports and wires are integers, both port lists are
    non-empty, and every port and device wire lies in 0..wires-1. The wire
    count is at most MAX_WIRES, and (wires + ports) x ports, with ports the
    length of both port lists together, at most MAX_PORT_BLOCK.

    control_map, when present, maps a control word (or the fallback "*") to
    {device index: parameter value}; each index lies in 0..D-1 and each value
    obeys the rule of the device it sets (`_device_value`). The netlist keeps
    a read-only copy of the checked values, `control_map`, and the value
    column each word programs; active_setting names the word whose values the
    emitted devices carry, so each of its entries equals the value of the
    device it sets. A word without an entry of its own needs the "*" fallback.
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
        cols = map(tuple, _device_columns(devices, self.wires))
        self.kinds, self.wire_a, self.wire_b, self.values, self.bindings = cols
        top = len(self.kinds) - 1
        words, self._columns = {}, {}  # word -> {device index: value}; word -> value column
        try:
            control_words = () if control_map is None else control_map.items()
        except AttributeError:
            got = type(control_map).__name__
            raise ParamError(f"control map must map control words to {{device: value}}, got a {got}") from None
        for setting, values in control_words:
            try:
                entries = values.items()
            except AttributeError:
                raise ParamError(f"control word {setting!r} maps to {values!r}, not to {{device: value}}") from None
            word, column = {}, list(self.values)
            for idx, value in entries:
                idx = _integer(idx, f"control word {setting!r} device index")
                if not 0 <= idx <= top:
                    raise ParamError(f"control word {setting!r} sets device {idx}, outside 0..{top}")
                kind = self.kinds[idx]
                try:
                    value = _device_value(kind, DEVICE_KINDS[kind], value)
                except ParamError as exc:
                    raise ParamError(f"control word {setting!r} sets device {idx}: {exc}") from None
                if value is not None:  # None on a valueless device sets nothing
                    word[idx] = column[idx] = value
            words[setting] = MappingProxyType(word)
            self._columns[setting] = tuple(column)
        self.control_map = None if control_map is None else MappingProxyType(words)
        # the devices carry the active word's values: both copies must agree
        if active_setting is not None:
            for idx, (value, carried) in enumerate(zip(self._column(active_setting), self.values)):
                if value != carried:
                    raise ParamError(
                        f"active control word {active_setting!r} sets device {idx} to {value}, "
                        f"but the device carries {carried}"
                    )

    @cached_property
    def devices(self) -> tuple:
        """The rows as `Device` records, built without checking them again."""
        cols = zip(self.kinds, self.wire_a, self.wire_b, self.values, self.bindings)
        return tuple(Device._make((k, (a,) if b < 0 else (a, b), v, bind)) for k, a, b, v, bind in cols)

    def _column(self, setting: str) -> tuple:
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

        Each device touches only its own rows, so one pass costs O(D |ports|).
        The backward pass runs the devices in reverse with transposed matrices,
        which are the matrices themselves: every kind's is symmetric.
        A single-wire device is a diagonal factor that commutes along its wire
        up to the next two-wire device, so it only multiplies its wire's
        pending Python complex factor. A two-wire device folds both wires'
        pending factors into its four coefficients, resets them to 1 and
        replaces its two rows once; the factors still pending scale the rows
        read out.
        """
        values = self.values if setting is None else self._column(setting)
        blk = np.zeros((self.wires, len(start_ports)), dtype=complex)
        blk[start_ports, range(len(start_ports))] = 1.0
        rows = list(blk)
        pending = [1.0] * self.wires
        cols = (self.kinds, self.wire_a, self.wire_b, values)
        for kind, a, b, value in zip(*map(reversed, cols)) if backward else zip(*cols):
            coefs = DEVICE_KINDS[kind].coefs(value)
            if b < 0:
                pending[a] *= coefs[0]
                continue
            m00, m01, m10, m11 = coefs
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


# --- stage emitters ---------------------------------------------------------
# Each appends (kind, wires, value, binding) rows to the caller's list, checked
# later with the netlist they build. A gate emitter _emit_<arch>(devices, gate,
# w) writes on the wires w: w[0] and w[1] carry the anbit in and out, any
# further wires are the architecture's scratch rails.

def _rz_pair(devices: list, w0: int, w1: int, theta: float):
    # R_z(theta) = diag(e^(-i theta/2), e^(i theta/2)); + 0.0 avoids -0.0 params
    devices.append(("PS", (w0,), -0.5 * theta + 0.0, None))
    devices.append(("PS", (w1,), 0.5 * theta + 0.0, None))


def _global_phase_pair(devices: list, w0: int, w1: int, delta: float):
    devices.append(("PS", (w0,), delta, None))
    devices.append(("PS", (w1,), delta, None))


def _emit_zxz(devices: list, u: GateMatrix, w=(0, 1)):
    f = euler_zxz(u)
    _rz_pair(devices, w[0], w[1], f.alpha1)
    devices.append(("DC", (w[0], w[1]), f.alpha2, None))
    _rz_pair(devices, w[0], w[1], f.alpha3)
    _global_phase_pair(devices, w[0], w[1], f.delta)


def _emit_zyz(devices: list, u: GateMatrix, w):
    f = euler_zyz(u)
    _rz_pair(devices, w[0], w[1], f.alpha1)
    devices.append(("BS", (w[0], w[1]), None, None))
    devices.append(("PS", (w[0],), 0.5 * f.alpha2, None))
    devices.append(("PS", (w[1],), -0.5 * f.alpha2 - math.pi, None))
    devices.append(("BS", (w[0], w[1]), None, None))
    devices.append(("PS", (w[1],), math.pi, None))
    _rz_pair(devices, w[0], w[1], f.alpha3)
    _global_phase_pair(devices, w[0], w[1], f.delta)


def _emit_svd(devices: list, m: GateMatrix, w):
    f = svd2(m)
    _emit_zxz(devices, f.u1, w)
    devices.append(_gain_row(w[0], f.d1))
    devices.append(_gain_row(w[1], f.d2))
    _emit_zxz(devices, f.u2, w)


def _gate_netlist(arch: str, m: GateMatrix) -> Netlist:
    emit, wires = _CIRCUIT_ARCHES[arch]
    devices: list = []
    emit(devices, m, range(wires))
    return Netlist(wires, devices, (0, 1), (0, 1))


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
    devices: list = []
    _emit_zxz(devices, u_first)
    devices.extend(_gain_row(wire, value) for wire, value in enumerate(f.lam2))
    _emit_zxz(devices, u_mid)
    devices.extend(_gain_row(wire, value) for wire, value in enumerate(f.lam1))
    _emit_zxz(devices, u_last)
    return Netlist(2, devices, (0, 1), (0, 1))


def _scale_pair(devices: list, w0: int, w1: int, z: complex):
    # multiply both wires of a branch by the complex scalar z
    ph, g = float(np.angle(z)), abs(z)
    for w in (w0, w1):
        devices.append(("PS", (w,), ph, None))
        devices.append(_gain_row(w, g))


def _sum_block(devices: list, a: int, b: int, n: complex = 1.0, m: complex = 1.0):
    """Fan-in stage on wires (a, b): transfer [[n, n], [m, -m]].

    Factorized as A.B.C with C a -pi/2 phase on b, B the 50:50 splitter, and
    A the diagonal (sqrt2 n, -i sqrt2 m) realized as phase plus gain per wire.
    """
    n, m = complex(n), complex(m)
    devices.append(("PS", (b,), -_HALF_PI, None))
    devices.append(("BS", (a, b), None, None))
    root2 = math.sqrt(2.0)
    devices.append(("PS", (a,), float(np.angle(n)), None))
    devices.append(_gain_row(a, root2 * abs(n)))
    devices.append(("PS", (b,), float(np.angle(m)) - _HALF_PI, None))
    devices.append(_gain_row(b, root2 * abs(m)))


def lower_fanin(g: FanInGate) -> Netlist:
    """Four-wire fan-in block; wires (0,1) carry one anbit, (2,3) the other.

    Each amplitude index k couples only wires (k, k+2); the block transfer is
    [[nI, nI], [mI, -mI]] with the sum anbit leaving on (0,1) and the scaled
    difference on (2,3).
    """
    devices: list = []
    for k in range(2):
        _sum_block(devices, k, k + 2, g.n, g.m)
    return Netlist(4, devices, (0, 1, 2, 3), (0, 1, 2, 3))


def _emit_pauli(devices: list, m: GateMatrix, w):
    # w[2:8] are the three extra branch rails
    coef = pauli_decompose(m)
    # clone tree: after it, wires w[0,2,4,6] carry psi0 and w[1,3,5,7] carry psi1
    for a, b in ((0, 4), (1, 5), (0, 2), (1, 3), (4, 6), (5, 7)):
        _sum_block(devices, w[a], w[b])
    # branch 0 on w[0,1]: a0 I
    _scale_pair(devices, w[0], w[1], coef[0])
    # branch 1 on w[2,3]: i a1 Rx(pi)
    devices.append(("DC", (w[2], w[3]), math.pi, None))
    _scale_pair(devices, w[2], w[3], 1j * coef[1])
    # branch 2 on w[4,5]: i a2 Ry(pi) with Ry(pi) = Rz(pi/2) Rx(pi) Rz(-pi/2)
    devices.append(("PS", (w[4],), 0.25 * math.pi, None))
    devices.append(("PS", (w[5],), -0.25 * math.pi, None))
    devices.append(("DC", (w[4], w[5]), math.pi, None))
    devices.append(("PS", (w[4],), -0.25 * math.pi, None))
    devices.append(("PS", (w[5],), 0.25 * math.pi, None))
    _scale_pair(devices, w[4], w[5], 1j * coef[2])
    # branch 3 on w[6,7]: i a3 Rz(pi)
    devices.append(("PS", (w[6],), -_HALF_PI, None))
    devices.append(("PS", (w[7],), _HALF_PI, None))
    _scale_pair(devices, w[6], w[7], 1j * coef[3])
    # fan-in tree back onto w[0,1]
    for a, b in ((0, 2), (4, 6), (1, 3), (5, 7), (0, 4), (1, 5)):
        _sum_block(devices, w[a], w[b])


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


def _shared_kinds(rows: dict) -> dict:
    """Word -> rows with one device kind at each position under every word.

    The words' rows come from one emitter, so they differ in kind only where a
    gain is an amplifier under one word and an attenuator under another.
    Wherever any word's gain exceeds 1, every word gets a fixed amplifier at
    the largest of those gains, followed by an attenuator at its own gain over
    that largest one; both then lie in their kinds' domains under every word.
    """
    shared: dict = {word: [] for word in rows}
    for devs in zip(*rows.values()):
        kind, wires = devs[0][:2]
        top = max(dev[2] for dev in devs) if kind in ("ATT", "AMP") else 1.0
        for out, dev in zip(shared.values(), devs):
            if top > 1.0:
                out += [("AMP", wires, top, None), ("ATT", wires, dev[2] / top, None)]
            else:
                out.append(dev)
    return shared


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
    emit = _emit_zxz if cg.target_gate.gate_class is GateClass.UNITARY else _emit_svd
    # both templates have the same devices, every one valued; the active one's
    # rows are the netlist's, device k bound to control ck
    rows: dict = {hot_word: [], "*": []}
    emit(rows[hot_word], cg.target_gate, (0, 1))
    emit(rows["*"], identity_gate(2), (0, 1))
    rows = _shared_kinds(rows)
    control_map = {word: dict(enumerate(row[2] for row in r)) for word, r in rows.items()}
    active = hot_word if hot else "*"
    bound = [(kind, wires, value, f"c{k}") for k, (kind, wires, value, _) in enumerate(rows[active])]
    return Netlist(2, bound, (0, 1), (0, 1), control_map=control_map, active_setting=active)


# gate emitter and its wire count per gate or circuit architecture
_CIRCUIT_ARCHES = {
    "zxz": (_emit_zxz, 2),
    "zyz": (_emit_zyz, 2),
    "svd": (_emit_svd, 2),
    "pauli": (_emit_pauli, 8),
}


def lower_circuit(graph: CircuitGraph, arch: str = "zxz") -> Netlist:
    """Compile an acyclic circuit graph to one netlist; feedback is rejected.

    Every signal path gets a dedicated wire pair. Gate nodes lower through the
    chosen architecture's emitter straight onto their pair, plus fresh scratch
    wires for wide architectures; fan-in couples two pairs with the sum block;
    fan-out (unwired ancilla only, so its m12 and m22 act on null) is the same
    block fed by a fresh null pair.
    A node's input pair is the output pair of the edge feeding it, read from
    the graph's port tables. Unwired garbage ports keep their wires out of the
    output port list.
    """
    if arch not in _CIRCUIT_ARCHES:
        raise ParamError(f"circuit lowering supports {sorted(_CIRCUIT_ARCHES)}, got {arch!r}")
    emit, arch_wires = _CIRCUIT_ARCHES[arch]

    components = graph.components()
    if any(cyclic for _, cyclic in components):
        raise GraphError("circuit has feedback; only acyclic graphs lower to a netlist")

    next_wire = 0

    def fresh(n: int) -> tuple:
        nonlocal next_wire
        next_wire += n
        return tuple(range(next_wire - n, next_wire))

    devices: list = []
    out_pair: dict = {}  # (node, output port) -> wire pair

    def in_pair(nid, port: int) -> tuple:
        return out_pair[graph.edges[graph.in_edges[nid][port]][0]]

    for (nid,), _ in components:
        node = graph.nodes[nid]
        if isinstance(node, SourceNode):
            out_pair[(nid, 0)] = fresh(2)
        elif isinstance(node, GateMatrix):
            if node.dim != 2:
                raise DimError("netlist lowering carries dim-2 signals")
            pair = in_pair(nid, 0)
            emit(devices, node, pair + fresh(arch_wires - 2))
            out_pair[(nid, 0)] = pair
        elif isinstance(node, (FanInGate, FanOutGate)):
            if isinstance(node, FanInGate):
                pb = in_pair(nid, 1)
            elif graph.in_edges[nid][1] is not None:
                raise GraphError("fan-out with a wired ancilla does not lower")
            else:
                pb = fresh(2)  # null-fed rail
            pa = in_pair(nid, 0)
            for k in range(2):
                _sum_block(devices, pa[k], pb[k], node.n, node.m)
            out_pair[(nid, 0)], out_pair[(nid, 1)] = pa, pb

    # port order follows the graph's node declaration order, not the topo visit
    input_ports = [w for nid in graph.sources() for w in out_pair[(nid, 0)]]
    output_ports = [w for nid in graph.sinks() for w in in_pair(nid, 0)]
    return Netlist(next_wire, devices, tuple(input_ports), tuple(output_ports))
