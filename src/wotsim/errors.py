"""Exception types shared across the package."""

# Largest count a caller may ask for: curve points, robustness steps and the
# oracle grid.  A larger one raises RangeError before anything is allocated
# or run.
MAX_SWEEP_SIZE = 100_000


class WotsimError(Exception):
    """Base class for all package errors."""


class ShapeError(WotsimError):
    """Operands have incompatible or non-square shapes."""


class LayoutError(WotsimError):
    """A register layout or factor-name subset is invalid."""


class NotPSDError(WotsimError):
    """A matrix expected to be positive semidefinite has a significantly
    negative eigenvalue."""


class SpecError(WotsimError):
    """A protocol specification violates a structural invariant."""


class CompletenessError(WotsimError):
    """An operation requiring a complete protocol was given an incomplete one."""


class RangeError(WotsimError):
    """A scalar parameter is outside its admissible range."""


class ConsistencyError(WotsimError):
    """A simulated strategy disagrees with the closed form it must reproduce."""
