"""Failure types raised by the numerical layers.

Everything that signals a *numerical* breakdown (as opposed to bad input
values) derives from NumericalFailure so callers, in particular the CLI,
can map the whole family to a single failure path.
"""


class NumericalFailure(Exception):
    """A computation could not be completed to its accuracy contract."""


class TruncationError(NumericalFailure):
    """A Fock-space cutoff is too small for the requested state or evolution."""


class ResourceLimitError(NumericalFailure):
    """A dense allocation would not fit in the machine's physical memory."""


class NormDriftError(NumericalFailure):
    """State norm left the unit sphere beyond tolerance during propagation."""


class PairIdentificationError(NumericalFailure):
    """No eigenvector pair matches the displaced-oscillator doublet well enough."""


class FitDegenerateError(NumericalFailure):
    """The fit objective is flat over the search bracket; no minimum exists."""


class NoPeakError(NumericalFailure):
    """The spectrum has no credible peak below the drive frequency."""
