"""Compare lowering architectures: device counts and transfer accuracy.

For each architecture this draws random target gates, compiles them, and
reports the device-kind census of one compiled netlist plus the worst
forward-transfer error across all draws.
"""

import argparse
from collections import Counter

import numpy as np

from anbit import (
    FanInGate,
    GateMatrix,
    lower_fanin,
    lower_general_svd,
    lower_pauli_mgate,
    lower_unitary_zxz,
    lower_unitary_zyz_fixed,
)


def random_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def census(netlist):
    return Counter(dev.kind for dev in netlist.devices)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--draws", type=int, default=100)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)

    rows = []
    for name, make_target, lower in (
        ("zxz", lambda: GateMatrix(random_unitary(rng)), lower_unitary_zxz),
        ("zyz-fixed", lambda: GateMatrix(random_unitary(rng)), lower_unitary_zyz_fixed),
        ("svd", lambda: GateMatrix(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))), lower_general_svd),
        ("svd-unitary", lambda: GateMatrix(random_unitary(rng)), lower_general_svd),
        ("pauli", lambda: GateMatrix(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))), lower_pauli_mgate),
        ("fanin", lambda: FanInGate(complex(rng.normal(), rng.normal()),
                                    complex(rng.normal(), rng.normal())), lower_fanin),
    ):
        worst = 0.0
        sample = None
        for _ in range(args.draws):
            target = make_target()
            nl = lower(target)
            if sample is None:
                sample = nl
            want = target.matrix if isinstance(target, FanInGate) else target.entries
            err = np.max(np.abs(nl.forward_transfer() - want))
            worst = max(worst, float(err))
        kinds = ", ".join(f"{k}x{v}" for k, v in sorted(census(sample).items()))
        rows.append((name, len(sample.devices), sample.wires, worst, kinds))

    print(f"{'arch':<11} {'devices':>7} {'wires':>5} {'worst err':>12}  kinds")
    for name, ndev, nwires, worst, kinds in rows:
        print(f"{name:<11} {ndev:>7} {nwires:>5} {worst:>12.3e}  {kinds}")


if __name__ == "__main__":
    main()
