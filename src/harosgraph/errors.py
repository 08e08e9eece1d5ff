"""Shared exception types."""


class HarosError(Exception):
    """Base class for failures raised by this package."""


class AdjacencyError(HarosError, ValueError):
    """Operands are not Farey neighbours, so the operation is undefined."""


class ResourceLimitError(HarosError, RuntimeError):
    """A size cap was hit before the computation started."""


class NotRationalError(HarosError, TypeError):
    """An input has the wrong type: one that must be an exact rational, or
    for a degree an integer, is a float, a bool or not a number at all, or
    one that must be a Haros graph, a descent path or a term list is
    something else."""
