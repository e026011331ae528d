"""Analog photonic computation toolkit.

States are complex amplitude vectors with optional delay metadata; gates are
classified 2x2 (or d x d) linear maps; circuits wire gates, fan-in, and
fan-out into combinational or feedback graphs resolved in steady state.
Decompositions factor gates into photonic stage sequences, the lowering layer
compiles them to device netlists, and the measurement and nonlinear layers
model detection and power-dependent gates.
"""

from . import algebra, circuits, decompositions, errors, gates, lowering, measurement, nonlinear
from .algebra import *  # noqa: F403
from .circuits import *  # noqa: F403
from .decompositions import *  # noqa: F403
from .errors import *  # noqa: F403
from .gates import *  # noqa: F403
from .lowering import *  # noqa: F403
from .measurement import *  # noqa: F403
from .nonlinear import *  # noqa: F403

__version__ = "0.1.0"

_MODULES = (algebra, circuits, decompositions, errors, gates, lowering, measurement, nonlinear)
__all__ = [name for module in _MODULES for name in module.__all__]
