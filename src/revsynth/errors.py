"""Exception types raised by the synthesis, verification and analysis APIs."""


class RevsynthError(Exception):
    """Base class for all errors raised by this package."""


class WidthOutOfRangeError(RevsynthError):
    """A permutation or circuit width is outside the supported range."""


class WidthMismatchError(RevsynthError):
    """Two objects that must agree on width (or length) do not."""


class OddPermutationError(RevsynthError):
    """An odd permutation was passed where an even one is required."""


class NotConservativeError(RevsynthError):
    """A permutation that changes Hamming weight was passed to a
    weight-preserving backend."""


class UnexpandableMacroError(RevsynthError):
    """A macro gate cannot be lowered to the requested primitive alphabet."""


class InsufficientLinesError(RevsynthError):
    """A construction needs more free lines than the circuit provides."""


class DepthLimitError(RevsynthError):
    """A recursive construction exceeds its supported depth."""


class RangeError(RevsynthError):
    """A numeric argument is outside its documented range."""
