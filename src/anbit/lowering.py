"""Lowering of gates and fan-in blocks to photonic device netlists.

A netlist is an ordered list of device primitives acting in place on numbered
wires; two wires carry one anbit. Each device is one `Device` record whose
kind, a key of `DEVICE_KINDS` (phase shifter, tunable coupler, fixed 50:50
splitter, attenuator, amplifier), fixes its wire count, value domain and
local 1x1 or 2x2 matrix. One coefficient function per kind gives that matrix
as Python complex numbers; `Device.matrix` builds its ndarray from the same
function. Transfers apply the local matrices to the rows of a block with one
column per port: forward transfer runs the devices in order from the input
ports; backward transfer runs them in reverse from the output ports with each
local matrix transposed, the backward matrix of every reciprocal kind here.
Forward-backward symmetry compares the two. A single-wire device (a phase or a
gain, most of a lowered mesh) is a diagonal factor that commutes along its
wire to the next two-wire device, so a transfer keeps one pending factor per
wire and folds it into that device's coefficients, the phase-screen argument
of Clements et al., Optica 3, 1460 (2016).

Each gate architecture is one emitter that appends its devices to the
caller's list on the caller's wires, so a standalone gate netlist and a gate
inside a lowered circuit are built the same way and every device is built
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .algebra import AnbitState, CompositeState
from .circuits import CircuitGraph, FanInGate, FanOutGate, SourceNode
from .decompositions import MostowFactors, euler_zxz, euler_zyz, svd2, pauli_decompose
from .errors import ControlEncodingError, DimError, GraphError, ParamError
from .gates import ControlledGate, GateClass, GateMatrix, identity_gate

__all__ = [
    "Device",
    "Netlist",
    "FbSymmetry",
    "gain_device",
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
    is the transpose of the forward one.
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


@dataclass(frozen=True)
class Device:
    """One device of kind `kind` (a DEVICE_KINDS key) acting on `wires`.

    value is the tunable parameter (phase, coupling angle or gain), None for
    the fixed splitter; control_binding names the electrical control that
    sets it in a controlled netlist.
    """

    kind: str
    wires: tuple[int, ...]
    value: float | None = None
    control_binding: str | None = None

    def __post_init__(self):
        spec = DEVICE_KINDS.get(self.kind)
        if spec is None:
            raise ParamError(f"unknown device kind {self.kind!r}")
        try:
            wires = tuple(self.wires)
        except TypeError:
            raise ParamError(f"{self.kind} wires must be a sequence, got {self.wires!r}") from None
        object.__setattr__(self, "wires", wires)
        if len(wires) != spec.n_wires or len(set(wires)) != len(wires):
            raise ParamError(f"{self.kind} needs {spec.n_wires} distinct wires, got {wires}")
        if not spec.valued:
            if self.value is not None:
                raise ParamError(f"{self.kind} takes no value, got {self.value}")
            return
        if self.value is None:
            raise ParamError(f"{self.kind} needs a value")
        try:
            finite = math.isfinite(self.value)
        except TypeError:
            raise ParamError(f"{self.kind} value must be a real number, got {self.value!r}") from None
        if not finite:
            raise ParamError(f"{self.kind} value must be finite, got {self.value}")
        if not spec.in_domain(self.value):
            raise ParamError(f"{spec.domain}, got {self.value}")

    def matrix(self, value=None) -> np.ndarray:
        """Local forward matrix, at `value` in place of the device's own when given."""
        spec = DEVICE_KINDS[self.kind]
        coefs = spec.coefs(self.value if value is None else value)
        return np.array(coefs, dtype=complex).reshape(spec.n_wires, spec.n_wires)


def gain_device(wire: int, gain: float, binding: str | None = None) -> Device:
    """Attenuator for gain <= 1 (boundary included), amplifier above."""
    if gain < 0.0:
        raise ParamError("gain device needs a non-negative value; fold signs into a phase")
    return Device("AMP" if gain > 1.0 else "ATT", (wire,), gain, binding)


class FbSymmetry(Enum):
    SYMMETRIC = "Symmetric"
    ASYMMETRIC = "Asymmetric"


@dataclass(frozen=True, eq=False)
class Netlist:
    """Ordered device list on `wires` wires with declared input/output ports.

    Both port lists are non-empty and every port and device wire lies in
    0..wires-1.

    control_map, when present, maps a control word (or the fallback "*") to
    {device index: parameter value}; active_setting names the key whose values
    the emitted devices carry. Every device index lies in 0..D-1, and a word
    without an entry of its own needs the "*" fallback.
    """

    wires: int
    devices: tuple
    input_ports: tuple[int, ...]
    output_ports: tuple[int, ...]
    control_map: dict | None = None
    active_setting: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "devices", tuple(self.devices))
        object.__setattr__(self, "input_ports", tuple(int(w) for w in self.input_ports))
        object.__setattr__(self, "output_ports", tuple(int(w) for w in self.output_ports))
        for side, ports in (("input", self.input_ports), ("output", self.output_ports)):
            if not ports:
                raise ParamError(f"netlist has no {side} ports")
        for w in self.input_ports + self.output_ports:
            if not 0 <= w < self.wires:
                raise ParamError(f"port wire {w} outside 0..{self.wires - 1}")
        for dev in self.devices:
            for w in dev.wires:
                if not 0 <= w < self.wires:
                    raise ParamError(f"device wire {w} outside 0..{self.wires - 1}")
        last = len(self.devices) - 1
        for setting, values in (self.control_map or {}).items():
            for idx, value in values.items():
                if not 0 <= idx <= last:
                    raise ParamError(
                        f"control word {setting!r} sets device {idx}, outside 0..{last}"
                    )
                if not math.isfinite(value):
                    raise ParamError(
                        f"control word {setting!r} sets device {idx} to {value}, which is not finite"
                    )
        if self.active_setting is not None:
            self._overrides(self.active_setting)

    def _overrides(self, setting: str | None) -> dict:
        if setting is None:
            return {}
        if not self.control_map:
            raise ParamError("netlist has no control map")
        if setting in self.control_map:
            return self.control_map[setting]
        if "*" not in self.control_map:
            raise ParamError(f"control word {setting!r} matches no control map entry and no '*'")
        return self.control_map["*"]

    def _port_block(self, setting, start_ports, read_ports, backward: bool) -> np.ndarray:
        """Devices applied to the rows of a W x |start_ports| block of unit columns.

        Each device touches only its own rows, so one pass costs O(D |ports|).
        The backward pass runs the devices in reverse with transposed matrices.
        A single-wire device is a diagonal factor that commutes along its wire
        up to the next two-wire device, so it only multiplies its wire's pending
        Python complex factor. A two-wire device folds both wires' pending
        factors into its four coefficients, resets them to 1 and replaces its
        two rows once; the factors still pending scale the rows read out.
        """
        over = self._overrides(setting)
        blk = np.zeros((self.wires, len(start_ports)), dtype=complex)
        blk[start_ports, range(len(start_ports))] = 1.0
        rows = list(blk)
        pending = [1.0] * self.wires
        order = range(len(self.devices) - 1, -1, -1) if backward else range(len(self.devices))
        for idx in order:
            dev = self.devices[idx]
            coefs = DEVICE_KINDS[dev.kind].coefs(over.get(idx, dev.value))
            if len(coefs) == 1:
                pending[dev.wires[0]] *= coefs[0]
                continue
            m00, m01, m10, m11 = coefs
            if backward:
                m01, m10 = m10, m01
            a, b = dev.wires
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


def check_fb_symmetry(nl: Netlist, tf=None, tb=None) -> FbSymmetry:
    """Symmetric when forward and backward transfer matrices coincide.

    tf and tb, when given, are nl's forward and backward transfers already
    computed by the caller; each one missing is computed here.
    """
    tf = nl.forward_transfer() if tf is None else tf
    tb = nl.backward_transfer() if tb is None else tb
    if tf.shape != tb.shape:
        return FbSymmetry.ASYMMETRIC
    scale = max(1.0, float(np.max(np.abs(tf))))
    if float(np.max(np.abs(tb - tf))) <= FB_TOL * scale:
        return FbSymmetry.SYMMETRIC
    return FbSymmetry.ASYMMETRIC


def scattering_matrix(nl: Netlist, reciprocal: bool = True, tf=None) -> np.ndarray:
    """Port scattering matrix [[0, T_b], [T_f, 0]] of a non-reflective netlist.

    With the reciprocal flag the backward block is taken as T_f^T directly;
    otherwise it is computed by the reversed-stage traversal, which agrees
    for the reciprocal device models shipped here. tf, when given, is nl's
    forward transfer already computed by the caller.
    """
    tf = nl.forward_transfer() if tf is None else tf
    tb = tf.T if reciprocal else nl.backward_transfer()
    n_in, n_out = len(nl.input_ports), len(nl.output_ports)
    s = np.zeros((n_in + n_out, n_in + n_out), dtype=complex)
    s[:n_in, n_in:] = tb
    s[n_in:, :n_in] = tf
    return s


# --- stage emitters ---------------------------------------------------------
# Each appends devices to the caller's list. A gate emitter _emit_<arch>(devices,
# gate, w) writes on the wires w: w[0] and w[1] carry the anbit in and out, any
# further wires are the architecture's scratch rails.

def _binding(devices: list, bind: bool) -> str | None:
    # control binding of the device about to be appended: its index in a controlled netlist
    return f"c{len(devices)}" if bind else None


def _rz_pair(devices: list, w0: int, w1: int, theta: float, bind: bool = False):
    # R_z(theta) = diag(e^(-i theta/2), e^(i theta/2)); + 0.0 avoids -0.0 params
    devices.append(Device("PS", (w0,), -0.5 * theta + 0.0, _binding(devices, bind)))
    devices.append(Device("PS", (w1,), 0.5 * theta + 0.0, _binding(devices, bind)))


def _global_phase_pair(devices: list, w0: int, w1: int, delta: float, bind: bool = False):
    devices.append(Device("PS", (w0,), delta, _binding(devices, bind)))
    devices.append(Device("PS", (w1,), delta, _binding(devices, bind)))


def _signed_gain(devices: list, wire: int, value: float):
    # negative diagonal entries are a pi phase shift plus a positive gain
    if value < 0.0:
        devices.append(Device("PS", (wire,), math.pi))
        value = -value
    devices.append(gain_device(wire, value))


def _emit_zxz(devices: list, u: GateMatrix, w=(0, 1), bind: bool = False):
    f = euler_zxz(u)
    _rz_pair(devices, w[0], w[1], f.alpha1, bind)
    devices.append(Device("DC", (w[0], w[1]), f.alpha2, _binding(devices, bind)))
    _rz_pair(devices, w[0], w[1], f.alpha3, bind)
    _global_phase_pair(devices, w[0], w[1], f.delta, bind)


def _emit_zyz(devices: list, u: GateMatrix, w):
    f = euler_zyz(u)
    _rz_pair(devices, w[0], w[1], f.alpha1)
    devices.append(Device("BS", (w[0], w[1])))
    devices.append(Device("PS", (w[0],), 0.5 * f.alpha2))
    devices.append(Device("PS", (w[1],), -0.5 * f.alpha2 - math.pi))
    devices.append(Device("BS", (w[0], w[1])))
    devices.append(Device("PS", (w[1],), math.pi))
    _rz_pair(devices, w[0], w[1], f.alpha3)
    _global_phase_pair(devices, w[0], w[1], f.delta)


def _emit_svd(devices: list, m: GateMatrix, w, bind: bool = False):
    f = svd2(m)
    _emit_zxz(devices, f.u1, w, bind)
    devices.append(gain_device(w[0], f.d1, _binding(devices, bind)))
    devices.append(gain_device(w[1], f.d2, _binding(devices, bind)))
    _emit_zxz(devices, f.u2, w, bind)


def _gate_netlist(emit, m: GateMatrix, wires: int = 2) -> Netlist:
    devices: list = []
    emit(devices, m, range(wires))
    return Netlist(wires, devices, (0, 1), (0, 1))


def lower_unitary_zxz(u: GateMatrix) -> Netlist:
    """Euler-angle architecture: two phase pairs around one tunable coupler.

    Always emits the full seven-device template (identity becomes all-zero
    parameters) so controlled variants can swap parameter sets in place.
    """
    return _gate_netlist(_emit_zxz, u)


def lower_unitary_zyz_fixed(u: GateMatrix) -> Netlist:
    """Fixed-coupler architecture: 50:50 splitters and phase shifters only.

    The middle rotation uses the interferometer identity
    PS1(pi) . BS . diag(e^(i a2/2), e^(-i(a2/2 + pi))) . BS = R_y(a2),
    costing four extra devices over the tunable-coupler form.
    """
    return _gate_netlist(_emit_zyz, u)


def lower_general_svd(m: GateMatrix) -> Netlist:
    """Unitary-diagonal-unitary architecture accepting any 2x2 gate."""
    return _gate_netlist(_emit_svd, m)


def lower_mostow(f: MostowFactors) -> Netlist:
    """Five-stage architecture: three unitary blocks around two diagonal stages.

    Application order is the reverse of the factor product order. The first
    diagonal stage (lam2) may carry negative entries in general, realized as a
    pi phase shift plus a positive gain; lam1 = (e^-a, e^a) is always positive.
    """
    u_last, lam1_stage, u_mid, lam2_stage, u_first = f.expanded
    del lam1_stage, lam2_stage  # device values come from the scalar fields
    devices: list = []
    _emit_zxz(devices, u_first)
    for wire, value in enumerate(f.lam2):
        _signed_gain(devices, wire, value)
    _emit_zxz(devices, u_mid)
    for wire, value in enumerate(f.lam1):
        _signed_gain(devices, wire, value)
    _emit_zxz(devices, u_last)
    return Netlist(2, devices, (0, 1), (0, 1))


def _scale_pair(devices: list, w0: int, w1: int, z: complex):
    # multiply both wires of a branch by the complex scalar z
    ph = float(np.angle(z))
    g = abs(z)
    for w in (w0, w1):
        devices.append(Device("PS", (w,), ph))
        devices.append(gain_device(w, g))


def _sum_block(devices: list, a: int, b: int, n: complex = 1.0, m: complex = 1.0):
    """Fan-in stage on wires (a, b): transfer [[n, n], [m, -m]].

    Factorized as A.B.C with C a -pi/2 phase on b, B the 50:50 splitter, and
    A the diagonal (sqrt2 n, -i sqrt2 m) realized as phase plus gain per wire.
    """
    n = complex(n)
    m = complex(m)
    devices.append(Device("PS", (b,), -_HALF_PI))
    devices.append(Device("BS", (a, b)))
    root2 = math.sqrt(2.0)
    devices.append(Device("PS", (a,), float(np.angle(n))))
    devices.append(gain_device(a, root2 * abs(n)))
    devices.append(Device("PS", (b,), float(np.angle(m)) - _HALF_PI))
    devices.append(gain_device(b, root2 * abs(m)))


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
    coef = pauli_decompose(m).alpha
    # clone tree: after it, wires w[0,2,4,6] carry psi0 and w[1,3,5,7] carry psi1
    for a, b in ((0, 4), (1, 5), (0, 2), (1, 3), (4, 6), (5, 7)):
        _sum_block(devices, w[a], w[b])
    # branch 0 on w[0,1]: a0 I
    _scale_pair(devices, w[0], w[1], coef[0])
    # branch 1 on w[2,3]: i a1 Rx(pi)
    devices.append(Device("DC", (w[2], w[3]), math.pi))
    _scale_pair(devices, w[2], w[3], 1j * coef[1])
    # branch 2 on w[4,5]: i a2 Ry(pi) with Ry(pi) = Rz(pi/2) Rx(pi) Rz(-pi/2)
    devices.append(Device("PS", (w[4],), 0.25 * math.pi))
    devices.append(Device("PS", (w[5],), -0.25 * math.pi))
    devices.append(Device("DC", (w[4], w[5]), math.pi))
    devices.append(Device("PS", (w[4],), -0.25 * math.pi))
    devices.append(Device("PS", (w[5],), 0.25 * math.pi))
    _scale_pair(devices, w[4], w[5], 1j * coef[2])
    # branch 3 on w[6,7]: i a3 Rz(pi)
    devices.append(Device("PS", (w[6],), -_HALF_PI))
    devices.append(Device("PS", (w[7],), _HALF_PI))
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
    if m.dim != 2:
        raise DimError("expansion architecture is defined for dim 2")
    return _gate_netlist(_emit_pauli, m, 8)


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


def lower_controlled_electrooptic(cg: ControlledGate, control_setting) -> Netlist:
    """Target MCA with the control word routed to electrical parameter sets.

    The optical netlist is exactly the target gate's architecture (Euler form
    for unitaries, unitary-diagonal-unitary otherwise). The control map holds
    two parameter assignments: the all-ones word programs the target, every
    other word programs the identity. Devices are emitted carrying the values
    selected by control_setting, which must be a basis state.
    """
    hot_word = "1" * cg.n_controls
    hot = _basis_word(control_setting, cg.n_controls) == hot_word
    emit = _emit_zxz if cg.target_gate.gate_class is GateClass.UNITARY else _emit_svd
    # both templates have the same devices, every one valued; the active one's
    # devices are emitted, each bound to its control as it is built
    target: list = []
    ident: list = []
    emit(target, cg.target_gate, (0, 1), bind=hot)
    emit(ident, identity_gate(2), (0, 1), bind=not hot)
    return Netlist(
        2,
        target if hot else ident,
        (0, 1),
        (0, 1),
        control_map={
            hot_word: {idx: float(dev.value) for idx, dev in enumerate(target)},
            "*": {idx: float(dev.value) for idx, dev in enumerate(ident)},
        },
        active_setting=hot_word if hot else "*",
    )


# gate emitter and its wire count per circuit architecture
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
    fan-out (default ancilla only) is the same block fed by a fresh null pair.
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
        elif isinstance(node, FanInGate):
            pa, pb = in_pair(nid, 0), in_pair(nid, 1)
            for k in range(2):
                _sum_block(devices, pa[k], pb[k], node.n, node.m)
            out_pair[(nid, 0)], out_pair[(nid, 1)] = pa, pb
        elif isinstance(node, FanOutGate):
            if graph.in_edges[nid][1] is not None:
                raise GraphError("fan-out with a wired ancilla does not lower")
            if not node.is_default_ancilla:
                raise GraphError("only default-ancilla fan-out lowers to a netlist")
            pa, pb = in_pair(nid, 0), fresh(2)  # null-fed rail
            for k in range(2):
                _sum_block(devices, pa[k], pb[k], node.n, node.m)
            out_pair[(nid, 0)], out_pair[(nid, 1)] = pa, pb

    # port order follows the graph's node declaration order, not the topo visit
    input_ports = [w for nid in graph.sources() for w in out_pair[(nid, 0)]]
    output_ports = [w for nid in graph.sinks() for w in in_pair(nid, 0)]
    return Netlist(next_wire, devices, tuple(input_ports), tuple(output_ports))
