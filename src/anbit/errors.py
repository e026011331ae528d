"""Error taxonomy shared by every anbit module, and its one rule for integer arguments."""

from operator import index

__all__ = [
    "AnbitError",
    "AxisError",
    "ClassError",
    "ControlEncodingError",
    "DegenerateStateError",
    "DimError",
    "GraphError",
    "LoopSingularError",
    "ModeError",
    "OrderError",
    "ParamError",
    "SymmetryError",
]


class AnbitError(Exception):
    """Base class for package-specific errors."""


class DimError(AnbitError):
    """Operands have incompatible or unsupported dimensions."""


class DegenerateStateError(AnbitError):
    """Sphere coordinates requested for the null state, where they are undefined."""


class AxisError(AnbitError):
    """Rotation axis is not a unit vector."""


class ClassError(AnbitError):
    """Gate class is incompatible with the requested operation."""


class SymmetryError(AnbitError):
    """A matrix that must be real symmetric is not."""


class ParamError(AnbitError):
    """Scalar parameter outside its documented domain."""


class LoopSingularError(AnbitError):
    """Feedback circuit has no steady state (singular resolvent)."""


class GraphError(AnbitError):
    """Circuit graph is malformed: bad ports, connectivity, or wiring."""


class ControlEncodingError(AnbitError):
    """Control state is not a computational basis state."""


class ModeError(AnbitError):
    """Composite state has the wrong composition mode or shape."""


class OrderError(AnbitError):
    """Requested series order exceeds the supplied derivative data."""


def _integer(v, field: str) -> int:
    """v read by `operator.index`, so 1.5 and "2" are refused, not truncated or parsed."""
    try:
        return index(v)
    except TypeError:
        raise ParamError(f"{field} {v!r} is not an integer") from None
