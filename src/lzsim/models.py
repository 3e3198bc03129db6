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
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import ResourceLimitError, TruncationError
from .specfun import displaced_fock_overlap

_NORM_TOL = 1e-9


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
        if not 0.0 <= self.gap < math.inf:
            raise ValueError(f"gap must be finite and nonnegative, got {self.gap}")
        if not 0.0 <= self.bias < math.inf:
            raise ValueError(f"bias must be finite and nonnegative, got {self.bias}")


@dataclass(frozen=True)
class SemiclassicalDrive:
    """Classical longitudinal drive amplitude*cos(t + phase), amplitude >= 0."""

    amplitude: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.amplitude < math.inf:
            raise ValueError(f"amplitude must be finite and nonnegative, got {self.amplitude}")
        if not math.isfinite(self.phase):
            raise ValueError(f"phase must be finite, got {self.phase}")


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
        if not 0.0 <= self.coupling < math.inf:
            raise ValueError(f"coupling must be finite and nonnegative, got {self.coupling}")
        if not (isinstance(self.n_max, int) and self.n_max >= 1):
            raise ValueError(f"n_max must be an integer >= 1, got {self.n_max!r}")
        _check_window(self.n_min, self.n_max)

    @property
    def levels(self) -> int:
        return self.n_max - self.n_min + 1

    @property
    def dim(self) -> int:
        return 2 * self.levels


def _check_window(n_min, n_max) -> None:
    if not (isinstance(n_min, int) and 0 <= n_min < n_max):
        raise ValueError(f"n_min must be an integer in [0, n_max={n_max}), got {n_min!r}")


def mixing_angle(qubit: QubitSpec) -> float:
    """theta = atan2(bias, gap), in [0, pi/2) for gap > 0."""
    return math.atan2(qubit.bias, qubit.gap)


def qubit_energy(qubit: QubitSpec) -> float:
    """Bare qubit splitting sqrt(gap^2 + bias^2)."""
    return math.hypot(qubit.gap, qubit.bias)


def semiclassical_hamiltonian(
    qubit: QubitSpec, drive: SemiclassicalDrive, t: float
) -> np.ndarray:
    """Instantaneous 2x2 driven-qubit Hamiltonian in the sigma_z basis."""
    z = 0.5 * (qubit.bias + drive.amplitude * math.cos(t + drive.phase))
    g = 0.5 * qubit.gap
    return np.array([[-z, -g], [-g, z]], dtype=float)


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


def _cutoff_pad(mean_occupation: float, coupling: float) -> int:
    """Levels the coupling's displacement adds beyond either cutoff: ceil(4 c^2 + 8 c)."""
    if not 0.0 <= mean_occupation < math.inf:
        raise ValueError(f"mean occupation must be finite and nonnegative, got {mean_occupation}")
    if not 0.0 <= coupling < math.inf:
        raise ValueError(f"coupling must be finite and nonnegative, got {coupling}")
    return math.ceil(4.0 * coupling * coupling + 8.0 * coupling)


def adequate_n_max(mean_occupation: float, coupling: float) -> int:
    """Fock cutoff rule: mean + 10 sqrt(mean) + 20 + ceil(4 c^2 + 8 c)."""
    pad = _cutoff_pad(mean_occupation, coupling)
    return int(math.ceil(mean_occupation + 10.0 * math.sqrt(mean_occupation) + 20.0)) + pad


def adequate_n_min(mean_occupation: float, coupling: float) -> int:
    """Lower Fock window edge, the mirror of adequate_n_max.

    max(0, floor(mean - 10 sqrt(mean) - 20) - ceil(4 c^2 + 8 c)).
    """
    pad = _cutoff_pad(mean_occupation, coupling)
    low = math.floor(mean_occupation - 10.0 * math.sqrt(mean_occupation) - 20.0)
    return max(0, low - pad)


def _physical_memory() -> int | None:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None  # platform without sysconf: no guard


def require_dense_memory(dim: int) -> None:
    """Raise ResourceLimitError when a dense eigh at dim exceeds physical memory.

    Called before anything of that size is allocated.  The estimate counts
    the matrix, LAPACK's working copy (overwritten by the eigenvectors), the
    returned eigenvectors and the divide-and-conquer workspace of about
    2 dim^2 doubles: 5 dim^2 doubles in all.
    """
    need = 8 * (5 * dim * dim + 6 * dim)
    limit = _physical_memory()
    if limit is not None and need > limit:
        raise ResourceLimitError(
            f"dense diagonalisation at dimension {dim} needs about {need} bytes, "
            f"more than the {limit} bytes of physical memory"
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
        _check_window(self.n_min, self.n_max)
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
        cav = np.asarray(cavity, dtype=complex)
        levels = n_max - n_min + 1
        if cav.shape != (levels,):
            raise ValueError(f"cavity vector needs shape ({levels},), got {cav.shape}")
        return cls(np.kron(qubit.amplitudes, cav), n_max, n_min)


def fock_state(m: int, n_max: int, n_min: int = 0) -> np.ndarray:
    """Cavity amplitude vector for the Fock state |m> on the window n_min..n_max."""
    if not (isinstance(m, int) and 0 <= n_min <= m <= n_max):
        raise ValueError(f"Fock index m={m!r} outside [{n_min}, {n_max}]")
    vec = np.zeros(n_max - n_min + 1, dtype=float)
    vec[m - n_min] = 1.0
    return vec


def coherent_state(alpha: float, n_max: int, n_min: int = 0) -> np.ndarray:
    """Real-amplitude coherent state, renormalised on the window n_min..n_max.

    Requires n_max >= alpha^2 + 10 alpha + 20 and, for n_min > 0,
    n_min <= alpha^2 - 10 alpha - 20, so the dropped tails are far below
    the renormalisation noise floor.
    """
    if not 0.0 <= alpha < math.inf:
        raise ValueError(
            f"alpha must be finite and nonnegative (real positive convention), got {alpha}"
        )
    _check_window(n_min, n_max)
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
    m = np.arange(n_min, n_max + 1, dtype=float)
    log_amp = -0.5 * alpha * alpha + m * math.log(alpha) - 0.5 * _lgamma_array(m)
    amps = np.exp(log_amp)
    return amps / np.linalg.norm(amps)


def _lgamma_array(m: np.ndarray) -> np.ndarray:
    return np.array([math.lgamma(v + 1.0) for v in m])


def _displaced_fock_column(m: int, displacement: float, n_min: int, n_max: int) -> np.ndarray:
    """Amplitudes <j| exp(d (adag - a)) |m> for j = n_min..n_max, any real d."""
    d = abs(displacement)
    col = np.empty(n_max - n_min + 1, dtype=float)
    for j in range(n_min, n_max + 1):
        if j >= m:
            val = displaced_fock_overlap(m, j - m, d)
        else:
            val = displaced_fock_overlap(j, m - j, d)
            if (m - j) % 2:
                val = -val
        if displacement < 0.0 and (j - m) % 2:
            val = -val
        col[j - n_min] = val
    return col


def grwa_state(branch: Branch, m: int, cavity: CavityCoupling) -> JointState:
    """Displaced-oscillator basis state |branch> x exp(+/- c (adag - a)) |m>.

    The coupling term -c sz (a + adag) puts the up-branch equilibrium at
    <a> = +c, so the up branch displaces with exp(+c (adag - a)) and the down
    branch with the opposite sign.  Raises TruncationError when the column,
    cut to the window n_min..n_max, loses more than 1e-8 of its norm; the
    kept column is renormalised.
    """
    if not (isinstance(m, int) and cavity.n_min <= m <= cavity.n_max):
        raise ValueError(f"Fock index m={m!r} outside [{cavity.n_min}, {cavity.n_max}]")
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


def grwa_energy(branch: Branch, m: int, qubit: QubitSpec, cavity: CavityCoupling) -> float:
    """Displaced-oscillator energy -/+ bias/2 + m - coupling^2 (minus for up)."""
    if not (isinstance(m, int) and m >= 0):
        raise ValueError(f"Fock index m={m!r} must be a nonnegative integer")
    sign = -1.0 if branch == Branch.UP else 1.0
    return sign * 0.5 * qubit.bias + m - cavity.coupling**2
