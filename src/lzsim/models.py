"""Domain types and Hamiltonian/state constructors.

Conventions (dimensionless, hbar = omega = 1):
  * gap  = qubit tunnel splitting Delta / (hbar omega), nonnegative
  * bias = static qubit bias epsilon / (hbar omega), nonnegative
  * sigma_z |up> = +|up>; the up branch is stored first
  * the oscillator basis is the Fock window n_min..n_max (n_min = 0 by
    default); levels = n_max - n_min + 1
  * joint basis index = branch * levels + (m - n_min), branch in {up=0, down=1}
  * the qubit-oscillator Hamiltonian is
        H = -(gap/2) sx - (bias/2) sz + adag a - coupling * sz (a + adag)
  * the semiclassical drive replaces the field by amplitude*cos(t + phase):
        H(t) = -(gap/2) sx - [(bias + amplitude cos(t+phase))/2] sz
Energies are in units of hbar omega and times in units of 1/omega.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ResourceLimitError, TruncationError, require_int, require_real
from .specfun import (
    _LOG_RESCALE,
    _RESCALE,
    MAX_OVERLAP_INDEX,
    _miller_margin,
    displaced_fock_overlap,
)

_NORM_TOL = 1e-9
# below this |d| a displaced Fock column is the number state itself
_MIN_DISPLACEMENT = 1e-50


class Branch(IntEnum):
    """Qubit branch label; UP is the sigma_z = +1 eigenstate and is stored first."""

    UP = 0
    DOWN = 1


@dataclass(frozen=True)
class QubitSpec:
    """Static two-level system: nonnegative tunnel gap and bias.

    gap = 0 describes a pure sigma_z qubit (useful as a degenerate limit);
    spectral quantities built on the mixing angle require gap > 0.
    """

    gap: float
    bias: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "gap", require_real("gap", self.gap, 0.0))
        object.__setattr__(self, "bias", require_real("bias", self.bias, 0.0))


@dataclass(frozen=True)
class SemiclassicalDrive:
    """Classical longitudinal drive amplitude*cos(t + phase), amplitude >= 0."""

    amplitude: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitude", require_real("amplitude", self.amplitude, 0.0))
        object.__setattr__(self, "phase", require_real("phase", self.phase))


@dataclass(frozen=True)
class CavityCoupling:
    """Quantized single-mode field on the Fock window n_min..n_max.

    coupling >= 0; the cutoffs are integers with 0 <= n_min < n_max.  The
    window must hold the states evolved on it: the propagator allows at
    most 1e-8 of a state's norm in the outer 5% of the levels at both edges
    (only the top edge when n_min = 0).
    """

    coupling: float
    n_max: int
    n_min: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "coupling", require_real("coupling", self.coupling, 0.0))
        n_min, n_max = _window(self.n_min, self.n_max)
        object.__setattr__(self, "n_min", n_min)
        object.__setattr__(self, "n_max", n_max)

    @property
    def levels(self) -> int:
        return self.n_max - self.n_min + 1

    @property
    def dim(self) -> int:
        return 2 * self.levels


def _window(n_min, n_max) -> tuple[int, int]:
    """The checked Fock window edges: integers with 0 <= n_min < n_max."""
    n_max = require_int("n_max", n_max, 1)
    return require_int("n_min", n_min, 0, n_max - 1), n_max


def rabi_hamiltonian(qubit: QubitSpec, cavity: CavityCoupling) -> np.ndarray:
    """Dense real-symmetric qubit-oscillator Hamiltonian on the joint basis.

    The oscillator levels are m = n_min..n_max.  Exactly symmetric by
    construction (each off-diagonal entry is written to both triangles from
    the same float).
    """
    n_states = cavity.levels
    dim = 2 * n_states
    h = np.zeros((dim, dim), dtype=float)
    m = np.arange(cavity.n_min, cavity.n_max + 1, dtype=float)
    ladder = cavity.coupling * np.sqrt(np.arange(cavity.n_min + 1.0, cavity.n_max + 1))

    up = slice(0, n_states)
    down = slice(n_states, dim)
    diag = h.reshape(-1)[:: dim + 1]
    diag[up] = -0.5 * qubit.bias + m
    diag[down] = 0.5 * qubit.bias + m

    rows = np.arange(n_states - 1)
    h[rows, rows + 1] = -ladder
    h[rows + 1, rows] = -ladder
    h[n_states + rows, n_states + rows + 1] = ladder
    h[n_states + rows + 1, n_states + rows] = ladder

    cols = np.arange(n_states)
    h[cols, n_states + cols] = -0.5 * qubit.gap
    h[n_states + cols, cols] = -0.5 * qubit.gap
    return h


def _cutoff_pad(mean_occupation: float, coupling: float) -> tuple[float, int]:
    """The checked mean, and the levels the coupling's displacement adds
    beyond either cutoff: ceil(4 c^2 + 8 c)."""
    mean = require_real("mean occupation", mean_occupation, 0.0)
    c = require_real("coupling", coupling, 0.0)
    return mean, math.ceil(4.0 * c * c + 8.0 * c)


def adequate_n_max(mean_occupation: float, coupling: float) -> int:
    """Fock cutoff rule: mean + 10 sqrt(mean) + 20 + ceil(4 c^2 + 8 c)."""
    mean, pad = _cutoff_pad(mean_occupation, coupling)
    return int(math.ceil(mean + 10.0 * math.sqrt(mean) + 20.0)) + pad


def adequate_n_min(mean_occupation: float, coupling: float) -> int:
    """Lower Fock window edge, the mirror of adequate_n_max.

    max(0, floor(mean - 10 sqrt(mean) - 20) - ceil(4 c^2 + 8 c)).
    """
    mean, pad = _cutoff_pad(mean_occupation, coupling)
    low = math.floor(mean - 10.0 * math.sqrt(mean) - 20.0)
    return max(0, low - pad)


def _physical_memory() -> int | None:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None  # platform without sysconf: no guard


def _require_memory(need: int, what: str) -> None:
    """Raise ResourceLimitError when `need` bytes exceed physical memory.

    Called before anything of that size is allocated.
    """
    limit = _physical_memory()
    if limit is not None and need > limit:
        raise ResourceLimitError(
            f"{what} needs about {need} bytes, more than the {limit} bytes of physical memory"
        )


def require_dense_memory(dim: int) -> None:
    """Raise ResourceLimitError when a dense eigh at dim exceeds physical memory.

    The estimate counts the matrix, LAPACK's working copy (overwritten by
    the eigenvectors), the returned eigenvectors and the divide-and-conquer
    workspace of about 2 dim^2 doubles: 5 dim^2 doubles in all.
    """
    dim = require_int("dim", dim, 1)
    _require_memory(8 * (5 * dim * dim + 6 * dim), f"dense diagonalisation at dimension {dim}")


@dataclass(frozen=True, eq=False)
class QubitState:
    """Normalised two-component qubit amplitude vector (up component first)."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2,):
            raise ValueError(f"qubit state needs shape (2,), got {amps.shape}")
        if abs(np.linalg.norm(amps) - 1.0) > 1e-12:
            raise ValueError("qubit state must be normalised to 1e-12")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def up(cls) -> "QubitState":
        return cls(np.array([1.0, 0.0], dtype=complex))

    @classmethod
    def down(cls) -> "QubitState":
        return cls(np.array([0.0, 1.0], dtype=complex))


@dataclass(frozen=True, eq=False)
class JointState:
    """Qubit+cavity state on the Fock window n_min..n_max, unit norm.

    Index layout: amplitudes[branch * levels + (m - n_min)] is the amplitude
    on |branch> x |m>, with levels = n_max - n_min + 1.  The arrays are
    treated as immutable after construction.
    """

    amplitudes: np.ndarray
    n_max: int
    n_min: int = 0

    def __post_init__(self) -> None:
        n_min, n_max = _window(self.n_min, self.n_max)
        object.__setattr__(self, "n_min", n_min)
        object.__setattr__(self, "n_max", n_max)
        amps = np.asarray(self.amplitudes, dtype=complex)
        expected = 2 * self.levels
        if amps.shape != (expected,):
            raise ValueError(
                f"joint state for n_min={self.n_min}, n_max={self.n_max} needs shape "
                f"({expected},), got {amps.shape}"
            )
        if abs(np.linalg.norm(amps) - 1.0) > _NORM_TOL:
            raise ValueError(f"joint state must be normalised within {_NORM_TOL}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def levels(self) -> int:
        return self.n_max - self.n_min + 1

    def branch(self, which: Branch) -> np.ndarray:
        lo = int(which) * self.levels
        return self.amplitudes[lo : lo + self.levels]

    def population_down(self) -> float:
        block = self.branch(Branch.DOWN)
        return float(np.real(np.vdot(block, block)))

    @classmethod
    def from_product(
        cls, qubit: QubitState, cavity: np.ndarray, n_max: int, n_min: int = 0
    ) -> "JointState":
        n_min, n_max = _window(n_min, n_max)
        cav = np.asarray(cavity, dtype=complex)
        levels = n_max - n_min + 1
        if cav.shape != (levels,):
            raise ValueError(f"cavity vector needs shape ({levels},), got {cav.shape}")
        return cls(np.kron(qubit.amplitudes, cav), n_max, n_min)


def fock_state(m: int, n_max: int, n_min: int = 0) -> np.ndarray:
    """Cavity amplitude vector for the Fock state |m> on the window n_min..n_max."""
    n_min, n_max = _window(n_min, n_max)
    m = require_int("m", m, n_min, n_max)
    levels = n_max - n_min + 1
    _require_memory(8 * levels, f"Fock state on {levels} levels")
    vec = np.zeros(levels, dtype=float)
    vec[m - n_min] = 1.0
    return vec


def coherent_state(alpha: float, n_max: int, n_min: int = 0) -> np.ndarray:
    """Real-amplitude coherent state, renormalised on the window n_min..n_max.

    Requires n_max >= alpha^2 + 10 alpha + 20 and, for n_min > 0,
    n_min <= alpha^2 - 10 alpha - 20, so the dropped tails are far below
    the renormalisation noise floor.
    """
    alpha = require_real("alpha", alpha, 0.0)
    n_min, n_max = _window(n_min, n_max)
    needed = alpha * alpha + 10.0 * alpha + 20.0
    if n_max < needed:
        raise TruncationError(
            f"n_max={n_max} below coherent-state requirement {math.ceil(needed)} for alpha={alpha}"
        )
    allowed = alpha * alpha - 10.0 * alpha - 20.0
    if n_min > 0 and n_min > allowed:
        raise TruncationError(
            f"n_min={n_min} above coherent-state limit {allowed:.6g} "
            f"(alpha^2 - 10 alpha - 20) for alpha={alpha}"
        )
    if alpha == 0.0:
        return fock_state(0, n_max)
    levels = n_max - n_min + 1
    # about 64 bytes a level: the level grid, its lgamma list of Python
    # floats and the vectors computed from them
    _require_memory(64 * levels, f"coherent state on {levels} levels")
    m = np.arange(n_min, n_max + 1, dtype=float)
    log_fact = np.array([math.lgamma(v + 1.0) for v in m])
    log_amp = -0.5 * alpha * alpha + m * math.log(alpha) - 0.5 * log_fact
    amps = np.exp(log_amp)
    return amps / np.linalg.norm(amps)


def _displaced_fock_column(m: int, displacement: float, n_min: int, n_max: int) -> np.ndarray:
    """Amplitudes <j| exp(d (adag - a)) |m> for j = n_min..n_max, any real d.

    exp(d (adag - a))|m> is the eigenvector of (adag - d)(a - d) with
    eigenvalue m (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)), so its
    amplitudes c_j obey
        sqrt(j+1) c_{j+1} = ((j + d^2 - m)/d) c_j - sqrt(j) c_{j-1}.
    The column is that recurrence run once over its rows, in two halves that
    meet at p = max(m, floor((sqrt(m) - |d|)^2)): row m, or the lower of the
    turning points (sqrt(m) -/+ |d|)^2 when m lies below it.  Each half runs
    in the direction in which the column grows:
      * upward from the exact seed c_{-1} = 0, c_0 = 1 to row p + 1;
      * downward, Miller-style, to row p - 1 from above the upper turning
        point by _miller_margin of it plus 10|d| (the Poisson tail of a
        small m).
    Both passes rescale at 1e250.  One scalar displaced_fock_overlap, at
    whichever of rows p - 1, p, p + 1 holds the largest amplitude (so never
    at a node of the column), fixes the scale and sign of both halves; rows
    above the Miller start are 0.  A column costs O((sqrt(m) + |d|)^2)
    steps, and for |d| < 1e-50, where no entry off row m reaches 1e-47, it
    is |m> itself.  Raises ValueError when the Miller start lies above
    MAX_OVERLAP_INDEX.
    """
    col = np.zeros(n_max - n_min + 1)
    d = displacement
    if abs(d) < _MIN_DISPLACEMENT:
        if n_min <= m <= n_max:
            col[m - n_min] = 1.0
        return col
    shift = d * d - m
    upper = (math.sqrt(m) + abs(d)) ** 2
    meet = max(m, int((math.sqrt(m) - abs(d)) ** 2))
    top = math.ceil(upper) + _miller_margin(upper) + math.ceil(10.0 * abs(d))
    if top > MAX_OVERLAP_INDEX:
        raise ValueError(
            f"displaced Fock column (m={m}, d={d}) starts its recurrence at row {top}, "
            f"above supported range {MAX_OVERLAP_INDEX}"
        )
    root = np.sqrt(np.arange(top + 2.0)).tolist()

    # each value with the number of rescales its pass had made on reaching it
    up, up_counts = [1.0], [0]  # rows 0..meet+1
    prev, cur, count = 0.0, 1.0, 0
    for j in range(meet + 1):
        prev, cur = cur, ((j + shift) / d * cur - root[j] * prev) / root[j + 1]
        if abs(cur) > _RESCALE:
            prev /= _RESCALE
            cur /= _RESCALE
            count += 1
        up.append(cur)
        up_counts.append(count)
    down, down_counts = [1.0], [0]  # rows top, top-1, ..., max(meet-1, 0)
    prev, cur, count = 0.0, 1.0, 0
    for j in range(top, max(meet - 1, 0), -1):
        prev, cur = cur, ((j + shift) / d * cur - root[j + 1] * prev) / root[j]
        if abs(cur) > _RESCALE:
            prev /= _RESCALE
            cur /= _RESCALE
            count += 1
        down.append(cur)
        down_counts.append(count)

    def log_size(row):  # ln|c_row| up to a constant, from the upward pass
        return math.log(abs(up[row])) + up_counts[row] * _LOG_RESCALE if up[row] else -math.inf

    r = max((row for row in (meet - 1, meet, meet + 1) if row >= 0), key=log_size)
    exact = displaced_fock_overlap(min(r, m), abs(r - m), abs(d))
    if (r - m) % 2 and (r < m) != (d < 0.0):
        exact = -exact
    low = _scaled_to(np.array(up[: r + 1]), np.array(up_counts[: r + 1]), r, exact)
    rising = slice(top - r, None, -1)  # the downward pass's rows r..top, ascending
    high = _scaled_to(np.array(down[rising]), np.array(down_counts[rising]), 0, exact)
    full = np.concatenate((low[:-1], high))
    hi = min(n_max, top)
    if hi >= n_min:
        col[: hi - n_min + 1] = full[n_min : hi + 1]
    return col


def _scaled_to(raw: np.ndarray, counts: np.ndarray, at: int, value: float) -> np.ndarray:
    """One recurrence pass scaled so that its entry `at` equals value.

    raw[i] stands for raw[i] * 1e250^counts[i]; entries far below the scale
    of raw[at] flush to 0.
    """
    return (raw / raw[at]) * np.exp((counts - counts[at]) * _LOG_RESCALE) * value


def grwa_state(branch: Branch, m: int, cavity: CavityCoupling) -> JointState:
    """Displaced-oscillator basis state |branch> x exp(+/- c (adag - a)) |m>.

    The coupling term -c sz (a + adag) puts the up-branch equilibrium at
    <a> = +c, so the up branch displaces with exp(+c (adag - a)) and the down
    branch with the opposite sign.  The column is one two-way recurrence
    over its rows (_displaced_fock_column), its scale and sign fixed by one
    scalar displaced_fock_overlap.  Raises TruncationError when the column,
    cut to the window n_min..n_max, loses more than 1e-8 of its norm; the
    kept column is renormalised.  Raises ValueError when the recurrence
    would start above row MAX_OVERLAP_INDEX, and ResourceLimitError before
    allocating vectors beyond physical memory.
    """
    m = require_int("m", m, cavity.n_min, cavity.n_max)
    # the real column, its renormalised copy and the complex joint vector
    _require_memory(48 * cavity.levels, f"displaced Fock state on {cavity.levels} levels")
    sign = 1.0 if branch == Branch.UP else -1.0
    col = _displaced_fock_column(m, sign * cavity.coupling, cavity.n_min, cavity.n_max)
    deficit = 1.0 - float(col @ col)
    if deficit > 1e-8:
        raise TruncationError(
            f"displaced Fock column (branch={branch.name}, m={m}) loses {deficit:.2e} norm "
            f"on the window n_min={cavity.n_min}, n_max={cavity.n_max}"
        )
    col = col / np.linalg.norm(col)
    n_states = cavity.levels
    amps = np.zeros(2 * n_states, dtype=complex)
    amps[int(branch) * n_states : (int(branch) + 1) * n_states] = col
    return JointState(amps, cavity.n_max, cavity.n_min)
