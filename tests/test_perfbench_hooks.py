"""The traced benchmark patches anbit names at run time; each one must exist."""

import importlib.util
from pathlib import Path

import pytest

from anbit import cli, gates, lowering

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _spans()


@pytest.mark.parametrize(
    "owner,attr",
    [(cli, name) for name in spans.CLI_LAYERS]
    + [(lowering, name) for name in spans.LOWERING_LAYERS]
    + [
        (lowering.Netlist, "forward_transfer"),
        (lowering.Netlist, "backward_transfer"),
        (gates.GateMatrix, "__post_init__"),
        (gates, "controlled"),
    ],
)
def test_traced_names_exist(owner, attr):
    assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
