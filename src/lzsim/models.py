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
from .specfun import _displaced_fock_column, _libm

_NORM_TOL = 1e-9
# the norm a state may lose to, or hold at, the edges of its Fock window
_TRUNCATION_LEAK_TOL = 1e-8


class Branch(IntEnum):
    """Qubit branch label; UP is the sigma_z = +1 eigenstate and is stored first."""

    UP = 0
    DOWN = 1


@dataclass(frozen=True)
class QubitSpec:
    """Static two-level system: nonnegative tunnel gap and bias.

    gap = 0 describes a pure sigma_z qubit (useful as a degenerate limit).
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


def _hamiltonian_entries(
    qubit: QubitSpec, cavity: CavityCoupling
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """The nonzero entries of the joint Hamiltonian on the Fock window.

    Returns (up, down, tunnel, ladder): the diagonal m - bias/2 of the up
    branch and m + bias/2 of the down branch over m = n_min..n_max, the
    tunnel entry -gap/2 between (up, m) and (down, m), and the ladder
    entries c sqrt(m + 1) between levels m and m + 1 for m = n_min..n_max-1,
    which enter the up branch negated and the down branch as they are.
    """
    m = np.arange(cavity.n_min, cavity.n_max + 1, dtype=float)
    ladder = cavity.coupling * np.sqrt(np.arange(cavity.n_min + 1.0, cavity.n_max + 1))
    return -0.5 * qubit.bias + m, 0.5 * qubit.bias + m, -0.5 * qubit.gap, ladder


def rabi_hamiltonian(qubit: QubitSpec, cavity: CavityCoupling) -> np.ndarray:
    """Dense real-symmetric qubit-oscillator Hamiltonian on the joint basis.

    The oscillator levels are m = n_min..n_max.  Exactly symmetric by
    construction (each off-diagonal entry is written to both triangles from
    the same float).
    """
    up_diag, down_diag, tunnel, ladder = _hamiltonian_entries(qubit, cavity)
    n_states = cavity.levels
    dim = 2 * n_states
    h = np.zeros((dim, dim), dtype=float)

    up = slice(0, n_states)
    down = slice(n_states, dim)
    diag = h.reshape(-1)[:: dim + 1]
    diag[up] = up_diag
    diag[down] = down_diag

    rows = np.arange(n_states - 1)
    h[rows, rows + 1] = -ladder
    h[rows + 1, rows] = -ladder
    h[n_states + rows, n_states + rows + 1] = ladder
    h[n_states + rows + 1, n_states + rows] = ladder

    cols = np.arange(n_states)
    h[cols, n_states + cols] = tunnel
    h[n_states + cols, cols] = tunnel
    return h


def _centred_eigh(qubit: QubitSpec, window: CavityCoupling) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of rabi_hamiltonian(qubit, window).

    eigh runs on the matrix with the window's middle level subtracted from
    the diagonal, so that its rounding scales with the window's width, not
    with n_max; the level is added back to the eigenvalues.
    """
    h = rabi_hamiltonian(qubit, window)
    shift = float(window.n_min + window.levels // 2)
    h.reshape(-1)[:: h.shape[0] + 1] -= shift
    energies, modes = np.linalg.eigh(h)
    return energies + shift, modes


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
    # about 64 bytes a level: the level grid, the list of Python floats
    # libm's lgamma is called on and the vectors computed from them
    _require_memory(64 * levels, f"coherent state on {levels} levels")
    m = np.arange(n_min, n_max + 1, dtype=float)
    log_fact = _libm(math.lgamma, m + 1.0)
    log_amp = -0.5 * alpha * alpha + m * math.log(alpha) - 0.5 * log_fact
    amps = np.exp(log_amp)
    return amps / np.linalg.norm(amps)


def grwa_state(branch: Branch, m: int, cavity: CavityCoupling) -> JointState:
    """Displaced-oscillator basis state |branch> x exp(+/- c (adag - a)) |m>.

    The coupling term -c sz (a + adag) puts the up-branch equilibrium at
    <a> = +c, so the up branch displaces with exp(+c (adag - a)) and the down
    branch with the opposite sign.  The column is one two-way recurrence
    over its rows (specfun._displaced_fock_column), of unit norm over the
    rows the recurrence reaches.  Raises TruncationError when the column,
    cut to the window n_min..n_max, loses more than _TRUNCATION_LEAK_TOL of
    its norm; the kept column is renormalised.  Raises ValueError when the
    recurrence would start above row MAX_OVERLAP_INDEX, and
    ResourceLimitError before allocating vectors beyond physical memory.
    """
    m = require_int("m", m, cavity.n_min, cavity.n_max)
    # the real column, its renormalised copy and the complex joint vector
    _require_memory(48 * cavity.levels, f"displaced Fock state on {cavity.levels} levels")
    sign = 1.0 if branch == Branch.UP else -1.0
    col = _displaced_fock_column(m, sign * cavity.coupling, cavity.n_min, cavity.n_max)
    deficit = 1.0 - float(col @ col)
    if deficit > _TRUNCATION_LEAK_TOL:
        raise TruncationError(
            f"displaced Fock column (branch={branch.name}, m={m}) loses {deficit:.2e} norm "
            f"(limit {_TRUNCATION_LEAK_TOL:g}) on the window n_min={cavity.n_min}, "
            f"n_max={cavity.n_max}"
        )
    col = col / np.linalg.norm(col)
    n_states = cavity.levels
    amps = np.zeros(2 * n_states, dtype=complex)
    amps[int(branch) * n_states : (int(branch) + 1) * n_states] = col
    return JointState(amps, cavity.n_max, cavity.n_min)
