"""Input checks and the failure types raised by the numerical layers.

Bad input raises ValueError.  Public functions check each scalar argument
through `require_real` (finite, in range, never a bool) or `require_int`
(whatever `operator.index` accepts, never a bool) and work on the value
returned; the message reads "<name> must be ..., got <name>=<value>".  A
computation that cannot meet its accuracy or resource contract on valid
input raises a NumericalFailure, so callers, the CLI in particular, map each
family to one failure path (exit codes 2 and 3).
"""

import math
import operator

import numpy as np


def require_real(name, value, low=-math.inf, high=math.inf, *, above=False) -> float:
    """Return value as a float if it is a number, not a bool, finite and in
    [low, high], or in (low, high] with above=True; otherwise raise
    ValueError naming it."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        x = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a real number, got {name}={value!r}") from None
    if math.isfinite(x) and (x > low if above else x >= low) and x <= high:
        return x
    interval = f"{'(' if above else '['}{low:g}, {high:g}]"
    raise ValueError(f"{name} must be a finite real in {interval}, got {name}={x!r}")


def require_int(name, value, low=0, high=None) -> int:
    """Return value as an int if it is an integer, not a bool, in [low, high]
    (high=None: no upper bound); otherwise raise ValueError naming it."""
    if not isinstance(value, bool):
        try:
            i = operator.index(value)
        except TypeError:
            pass
        else:
            if i >= low and (high is None or i <= high):
                return i
    interval = f"[{low}, {'inf' if high is None else high}]"
    raise ValueError(f"{name} must be an integer in {interval}, got {name}={value!r}")


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
