"""Exception hierarchy shared across the package."""


class NetforgeError(Exception):
    """Base class for all errors raised by this package."""


class NetworkValidationError(NetforgeError, ValueError):
    """A network description violates a structural invariant."""


class SelfLoopError(NetworkValidationError):
    pass


class DuplicateEdgeError(NetworkValidationError):
    pass


class NonpositiveLengthError(NetworkValidationError):
    pass


class NonFiniteError(NetworkValidationError):
    """A source or edge length is NaN or infinite."""


class UnbalancedSourcesError(NetworkValidationError):
    """Source/sink intensities do not sum to zero."""


class DisconnectedGraphError(NetworkValidationError):
    """The edge set does not connect all vertices."""


class IllConditionedError(NetforgeError):
    """A linear solve finished with an unacceptably large residual.

    Signals the optimizer to restart with a reduced step size.
    """


class DisconnectedSupportError(NetforgeError):
    """An operation needed the positive-conductivity subgraph to carry flow
    it cannot carry (unsolvable balance) or to be connected."""


class NonSymmetricError(NetforgeError, ValueError):
    """A matrix expected to be symmetric is not."""


class TooLargeError(NetforgeError, ValueError):
    """Problem size exceeds the brute-force limit of an operation."""


class TooManyTreesError(NetforgeError):
    """Estimated spanning-tree count exceeds the enumeration limit."""

