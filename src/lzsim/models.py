"""Domain types and Hamiltonian/state constructors.

Conventions (dimensionless, hbar = omega = 1):
  * gap  = qubit tunnel splitting Delta / (hbar omega), nonnegative
  * bias = static qubit bias epsilon / (hbar omega), nonnegative
  * sigma_z |up> = +|up>; the up branch is stored first
  * joint basis index = branch * (n_max + 1) + m, branch in {up=0, down=1}
  * the qubit-oscillator Hamiltonian is
        H = -(gap/2) sx - (bias/2) sz + adag a - coupling * sz (a + adag)
  * the semiclassical drive replaces the field by amplitude*cos(t + phase):
        H(t) = -(gap/2) sx - [(bias + amplitude cos(t+phase))/2] sz
Energies are in units of hbar omega and times in units of 1/omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import TruncationError
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
    """Quantized single-mode field: coupling strength >= 0 and Fock cutoff n_max >= 1."""

    coupling: float
    n_max: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.coupling < math.inf:
            raise ValueError(f"coupling must be finite and nonnegative, got {self.coupling}")
        if not (isinstance(self.n_max, int) and self.n_max >= 1):
            raise ValueError(f"n_max must be an integer >= 1, got {self.n_max!r}")

    @property
    def dim(self) -> int:
        return 2 * (self.n_max + 1)


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

    Exactly symmetric by construction (each off-diagonal entry is written to
    both triangles from the same float).
    """
    n_states = cavity.n_max + 1
    dim = 2 * n_states
    h = np.zeros((dim, dim), dtype=float)
    m = np.arange(n_states, dtype=float)
    ladder = cavity.coupling * np.sqrt(np.arange(1.0, n_states))

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


def adequate_n_max(mean_occupation: float, coupling: float) -> int:
    """Fock cutoff rule: mean + 10 sqrt(mean) + 20 + ceil(4 c^2 + 8 c)."""
    if not 0.0 <= mean_occupation < math.inf:
        raise ValueError(f"mean occupation must be finite and nonnegative, got {mean_occupation}")
    if not 0.0 <= coupling < math.inf:
        raise ValueError(f"coupling must be finite and nonnegative, got {coupling}")
    pad = math.ceil(4.0 * coupling * coupling + 8.0 * coupling)
    return int(math.ceil(mean_occupation + 10.0 * math.sqrt(mean_occupation) + 20.0)) + pad


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
    """Qubit+cavity state: complex vector of length 2(n_max+1), unit norm.

    Index layout: amplitudes[branch * (n_max+1) + m] is the amplitude on
    |branch> x |m>.  The arrays are treated as immutable after construction.
    """

    amplitudes: np.ndarray
    n_max: int

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        expected = 2 * (self.n_max + 1)
        if amps.shape != (expected,):
            raise ValueError(
                f"joint state for n_max={self.n_max} needs shape ({expected},), got {amps.shape}"
            )
        if abs(np.linalg.norm(amps) - 1.0) > _NORM_TOL:
            raise ValueError(f"joint state must be normalised within {_NORM_TOL}")
        object.__setattr__(self, "amplitudes", amps)

    def branch(self, which: Branch) -> np.ndarray:
        n_states = self.n_max + 1
        lo = int(which) * n_states
        return self.amplitudes[lo : lo + n_states]

    def population_down(self) -> float:
        block = self.branch(Branch.DOWN)
        return float(np.real(np.vdot(block, block)))

    @classmethod
    def from_product(cls, qubit: QubitState, cavity: np.ndarray, n_max: int) -> "JointState":
        cav = np.asarray(cavity, dtype=complex)
        if cav.shape != (n_max + 1,):
            raise ValueError(f"cavity vector needs shape ({n_max + 1},), got {cav.shape}")
        return cls(np.kron(qubit.amplitudes, cav), n_max)


def fock_state(m: int, n_max: int) -> np.ndarray:
    """Cavity amplitude vector for the Fock state |m>."""
    if not (isinstance(m, int) and 0 <= m <= n_max):
        raise ValueError(f"Fock index m={m!r} outside [0, {n_max}]")
    vec = np.zeros(n_max + 1, dtype=float)
    vec[m] = 1.0
    return vec


def coherent_state(alpha: float, n_max: int) -> np.ndarray:
    """Real-amplitude coherent state, renormalised on the truncated basis.

    Requires n_max >= alpha^2 + 10 alpha + 20 so the dropped tail is far below
    the renormalisation noise floor.
    """
    if alpha < 0.0:
        raise ValueError("alpha must be nonnegative (real positive convention)")
    needed = alpha * alpha + 10.0 * alpha + 20.0
    if n_max < needed:
        raise TruncationError(
            f"n_max={n_max} below coherent-state requirement {math.ceil(needed)} for alpha={alpha}"
        )
    if alpha == 0.0:
        return fock_state(0, n_max)
    m = np.arange(n_max + 1, dtype=float)
    log_amp = -0.5 * alpha * alpha + m * math.log(alpha) - 0.5 * _lgamma_array(m)
    amps = np.exp(log_amp)
    return amps / np.linalg.norm(amps)


def _lgamma_array(m: np.ndarray) -> np.ndarray:
    return np.array([math.lgamma(v + 1.0) for v in m])


def _displaced_fock_column(m: int, displacement: float, n_max: int) -> np.ndarray:
    """Amplitudes <j| exp(d (adag - a)) |m> for j = 0..n_max, any real d."""
    d = abs(displacement)
    col = np.empty(n_max + 1, dtype=float)
    for j in range(n_max + 1):
        if j >= m:
            val = displaced_fock_overlap(m, j - m, d)
        else:
            val = displaced_fock_overlap(j, m - j, d)
            if (m - j) % 2:
                val = -val
        if displacement < 0.0 and (j - m) % 2:
            val = -val
        col[j] = val
    return col


def grwa_state(branch: Branch, m: int, cavity: CavityCoupling) -> JointState:
    """Displaced-oscillator basis state |branch> x exp(+/- c (adag - a)) |m>.

    The coupling term -c sz (a + adag) puts the up-branch equilibrium at
    <a> = +c, so the up branch displaces with exp(+c (adag - a)) and the down
    branch with the opposite sign.  Raises TruncationError when the truncated
    column loses more than 1e-8 of its norm; the kept column is renormalised.
    """
    if not (isinstance(m, int) and 0 <= m <= cavity.n_max):
        raise ValueError(f"Fock index m={m!r} outside [0, {cavity.n_max}]")
    sign = 1.0 if branch == Branch.UP else -1.0
    col = _displaced_fock_column(m, sign * cavity.coupling, cavity.n_max)
    deficit = 1.0 - float(col @ col)
    if deficit > 1e-8:
        raise TruncationError(
            f"displaced Fock column (branch={branch.name}, m={m}) loses {deficit:.2e} norm "
            f"at n_max={cavity.n_max}"
        )
    col = col / np.linalg.norm(col)
    n_states = cavity.n_max + 1
    amps = np.zeros(2 * n_states, dtype=complex)
    amps[int(branch) * n_states : (int(branch) + 1) * n_states] = col
    return JointState(amps, cavity.n_max)


def grwa_energy(branch: Branch, m: int, qubit: QubitSpec, cavity: CavityCoupling) -> float:
    """Displaced-oscillator energy -/+ bias/2 + m - coupling^2 (minus for up)."""
    if not (isinstance(m, int) and m >= 0):
        raise ValueError(f"Fock index m={m!r} must be a nonnegative integer")
    sign = -1.0 if branch == Branch.UP else 1.0
    return sign * 0.5 * qubit.bias + m - cavity.coupling**2
