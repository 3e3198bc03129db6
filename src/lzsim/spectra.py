"""Rabi frequencies of the driven qubit: analytic routes and exact spectra.

Two analytic expressions are compared throughout:
  * semiclassical strong-driving frequency  gap * J_k(a)   for a classical
    drive of amplitude a on the k-photon resonance (bias = k), and
  * the quantized-field counterpart         gap * <n+k| exp(2c (adag-a)) |n>
    from the displaced-oscillator doublet coupled by the tunnel term.
Both are signed; magnitudes are a presentation choice left to callers.

The field amplitude felt by the qubit for n photons is a = 4 c sqrt(n); the
small empirical offset s in a_eff = 4 c sqrt(n + s) is fitted here by a
golden-section search.  The two routes correspond only for large n and at
the shifted amplitude: unshifted, J_k(4 c sqrt(n)) vanishes at n = 0 for
k >= 1 while the overlap does not, and an O(c (k+1)/sqrt(n)) argument offset
remains that relative errors magnify near Bessel zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import FitDegenerateError, PairIdentificationError, require_int, require_real
from .models import (
    Branch,
    CavityCoupling,
    QubitSpec,
    grwa_state,
    mixing_angle,
    rabi_hamiltonian,
    require_dense_memory,
)
from .specfun import (
    bessel_j,
    displaced_fock_overlap,
    displaced_fock_overlap_grid,
    require_overlap_index,
)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def rabi_freq_weak_semiclassical(qubit: QubitSpec, amplitude: float) -> float:
    """Weak-drive resonant Rabi frequency (amplitude/2) cos(theta)."""
    amplitude = require_real("amplitude", amplitude, 0.0)
    return 0.5 * amplitude * math.cos(mixing_angle(qubit))


def jc_splitting(n: int, qubit: QubitSpec, coupling: float) -> float:
    """Resonant one-photon splitting 2 c cos(theta) sqrt(n), n >= 1."""
    n = require_int("n", n, 1)
    coupling = require_real("coupling", coupling, 0.0)
    return 2.0 * coupling * math.cos(mixing_angle(qubit)) * math.sqrt(n)


def rabi_freq_semiclassical(qubit: QubitSpec, amplitude: float, k: int) -> float:
    """Strong-driving k-resonance Rabi frequency gap * J_k(amplitude), signed."""
    amplitude = require_real("amplitude", amplitude, 0.0)
    return qubit.gap * bessel_j(k, amplitude)


def rabi_freq_quantum(qubit: QubitSpec, coupling: float, n: int, k: int) -> float:
    """Quantized-field k-resonance Rabi frequency, signed.

    gap * exp(-2c^2) (2c)^k sqrt(n!/(n+k)!) L_n^k(4c^2); the sign of the
    Laguerre factor is kept.
    """
    coupling = require_real("coupling", coupling, 0.0)
    return qubit.gap * displaced_fock_overlap(n, k, 2.0 * coupling)


def equivalent_amplitude(coupling: float, n: float, shift: float = 0.0) -> float:
    """Effective classical amplitude 4 c sqrt(n + shift); all finite, c and n + shift >= 0."""
    coupling = require_real("coupling", coupling, 0.0)
    radicand = require_real("n + shift", n + shift, 0.0)  # finite only if n and shift are
    return 4.0 * coupling * math.sqrt(radicand)


def exact_splitting(qubit: QubitSpec, cavity: CavityCoupling, n: int, k: int) -> float:
    """Eigenvalue gap of the displaced-oscillator doublet ((up, n+k), (down, n)).

    Diagonalises the dense joint Hamiltonian on the resonance bias = k and
    finds the two eigenvectors with the largest summed squared overlap
    against the doublet; their mean captured weight must reach 0.8.  Raises
    ResourceLimitError, before allocating, when the diagonalisation would
    not fit in physical memory.
    """
    n = require_int("n", n)
    k = require_int("k", k)
    if abs(qubit.bias - k) > 1e-9:
        raise ValueError(f"resonance requires bias = k, got bias={qubit.bias}, k={k}")
    if n + k > cavity.n_max:
        raise ValueError(f"n+k={n + k} exceeds n_max={cavity.n_max}")
    require_dense_memory(cavity.dim)
    energies, modes = np.linalg.eigh(rabi_hamiltonian(qubit, cavity))
    pair_a = grwa_state(Branch.UP, n + k, cavity).amplitudes.real
    pair_b = grwa_state(Branch.DOWN, n, cavity).amplitudes.real
    weights = (modes.T @ pair_a) ** 2 + (modes.T @ pair_b) ** 2
    first, second = np.argsort(weights)[-2:]
    captured = 0.5 * (weights[first] + weights[second])
    if captured < 0.8:
        raise PairIdentificationError(
            f"doublet (n={n}, k={k}) captured weight {captured:.3f} < 0.8; "
            "the displaced-oscillator labels are not faithful here"
        )
    return float(abs(energies[first] - energies[second]))


@dataclass(frozen=True)
class ComparisonRow:
    """One photon-number point of the semiclassical/quantum comparison."""

    n: int
    omega_s: float
    omega_q: float
    a_eff: float


def _photon_grid(n_values: Iterable[int]) -> list[int]:
    """The distinct photon numbers, checked as integers >= 0, in ascending order."""
    ns = sorted({require_int("n", n) for n in n_values})
    if not ns:
        raise ValueError("empty photon-number grid")
    return ns


def comparison_grid(
    qubit: QubitSpec,
    coupling: float,
    k: int,
    n_values: Iterable[int],
    shift: float = 0.0,
) -> list[ComparisonRow]:
    """Both frequency routes over a photon-number grid, ascending in n.

    Runs on the k-photon resonance (bias = k enforced).  Each row holds what
    rabi_freq_semiclassical and rabi_freq_quantum return for its n, bit for
    bit; the quantum column comes from one Laguerre pass over the whole grid,
    whose checks run before any Bessel evaluation.
    """
    k = require_int("k", k)
    coupling = require_real("coupling", coupling, 0.0)
    shift = require_real("shift", shift)
    if abs(qubit.bias - k) > 1e-9:
        raise ValueError(f"resonance requires bias = k, got bias={qubit.bias}, k={k}")
    ns = _photon_grid(n_values)
    overlaps = displaced_fock_overlap_grid(ns, k, 2.0 * coupling)
    rows = []
    for n, overlap in zip(ns, overlaps):
        a_eff = equivalent_amplitude(coupling, n, shift)
        rows.append(
            ComparisonRow(
                n=n,
                omega_s=rabi_freq_semiclassical(qubit, a_eff, k),
                omega_q=qubit.gap * overlap,
                a_eff=a_eff,
            )
        )
    return rows


def agreement_onset(
    rows: Sequence[ComparisonRow],
    gap: float,
    rel_tol: float = 0.1,
) -> int | None:
    """Smallest n after which the two routes agree for every larger grid point.

    Agreement at a point means |omega_s - omega_q| <= rel_tol * scale with
    scale = max(|omega_s|, |omega_q|, gap/8).  Both frequencies are bounded
    by the gap, so a fixed fraction of it marks the level below which a
    point reads as zero on a shared axis; the floor keeps near-coincident
    zero crossings (where both values vanish and pointwise ratios blow up)
    from breaking an otherwise sustained agreement.  Returns None when even
    the last point disagrees.
    """
    gap = require_real("gap", gap, 0.0)
    rel_tol = require_real("rel_tol", rel_tol, 0.0)
    onset = None
    for row in rows:
        scale = max(abs(row.omega_s), abs(row.omega_q), 0.125 * gap)
        if abs(row.omega_s - row.omega_q) <= rel_tol * scale:
            if onset is None:
                onset = row.n
        else:
            onset = None
    return onset


@dataclass(frozen=True)
class ShiftFitResult:
    """Fitted photon-number offset and the rms frequency residual at the fit."""

    offset: float
    residual: float


def fit_amplitude_shift(
    qubit: QubitSpec,
    coupling: float,
    k: int,
    n_values: Iterable[int],
) -> ShiftFitResult:
    """Least-squares offset s in a_eff = 4 c sqrt(n + s), by golden section.

    Minimises sum_n [omega_s(a_eff(n, s)) - omega_q(n)]^2 for s in
    [-2, k/2 + 2] (the lower edge is raised to -min(n) so the radicand stays
    nonnegative).  Raises FitDegenerateError when the objective is flat over
    the bracket.
    """
    k = require_int("k", k)
    coupling = require_real("coupling", coupling, 0.0, above=True)
    ns = _photon_grid(n_values)

    # rabi_freq_quantum at each n, from one Laguerre pass
    targets = [qubit.gap * v for v in displaced_fock_overlap_grid(ns, k, 2.0 * coupling)]

    def objective(s: float) -> float:
        total = 0.0
        for n, target in zip(ns, targets):
            a_eff = 4.0 * coupling * math.sqrt(n + s)
            diff = rabi_freq_semiclassical(qubit, a_eff, k) - target
            total += diff * diff
        return total

    lo = max(-2.0, -float(ns[0]))
    hi = 0.5 * k + 2.0
    probes = [objective(lo + f * (hi - lo)) for f in (0.0, 0.25, 0.5, 0.75, 1.0)]
    if max(probes) - min(probes) < 1e-15:
        raise FitDegenerateError(
            f"shift objective varies by < 1e-15 over [{lo}, {hi}]; nothing to fit"
        )

    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = objective(c), objective(d)
    # interval shrinks by 1/phi per step; 60 steps take (hi-lo) below 1e-12
    for _ in range(60):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = objective(d)
        if b - a < 1e-10:
            break
    best = 0.5 * (a + b)
    return ShiftFitResult(offset=best, residual=math.sqrt(objective(best) / len(ns)))


def predicted_shift(coupling: float, k: int) -> float:
    """Empirical offset formula k/2 + 1/2 - c^2/3 for the equivalent amplitude."""
    coupling = require_real("coupling", coupling, 0.0)
    k = require_int("k", k)
    return 0.5 * k + 0.5 - coupling * coupling / 3.0


def bessel_laguerre_identity_error(x: float, n: int, k: int) -> float:
    """Relative gap between J_k(4 x sqrt(n)) and its displaced-overlap twin.

    |J_k(4 x sqrt(n)) - exp(-2x^2)(2x)^k sqrt(n!/(n+k)!) L_n^k(4x^2)| divided
    by max(|J_k|, 1e-3); the floor keeps Bessel zeros from dominating sweeps.

    The identity is deliberately unshifted, so it fails structurally in two
    places: at n = 0 for k >= 1 the Bessel side is exactly 0 while the
    overlap is not, and for n >= 1 the argument carries an O(x (k+1)/sqrt(n))
    offset that the 1e-3 floor still magnifies near Bessel zeros.  The
    correspondence holds for large n at 4 x sqrt(n + predicted_shift(x, k)).
    """
    x = require_real("x", x, 0.0)
    n = require_int("n", n)
    # the overlap first: its index bound refuses before the O(x) Bessel pass
    rhs = displaced_fock_overlap(n, k, 2.0 * x)
    return _identity_error(x, n, k, rhs)


def bessel_laguerre_identity_error_grid(
    xs: Iterable[float], ns: Iterable[int], ks: Iterable[int]
) -> list[list[list[float]]]:
    """bessel_laguerre_identity_error at every (x, n, k) of a product grid.

    errors[i][j][l] is the error at (xs[i], ns[j], ks[l]); values may come in
    any order and repeat.  One Laguerre pass per distinct (x, k) serves every
    n, and each error equals the scalar function's bit for bit.  Every x, n
    and k, and the largest n + k against MAX_OVERLAP_INDEX, is checked before
    any recurrence or Bessel call.
    """
    xs = [require_real("x", x, 0.0) for x in xs]
    ns = [require_int("n", n) for n in ns]
    ks = [require_int("k", k) for k in ks]
    require_overlap_index(max(ns, default=0), max(ks, default=0))
    errors = []
    for x in xs:
        columns = {}
        for k in dict.fromkeys(ks):
            rhs = displaced_fock_overlap_grid(ns, k, 2.0 * x)
            columns[k] = [_identity_error(x, n, k, r) for n, r in zip(ns, rhs)]
        errors.append([[columns[k][j] for k in ks] for j in range(len(ns))])
    return errors


def _identity_error(x: float, n: int, k: int, overlap: float) -> float:
    """Relative identity gap at (x, n, k), given the displaced overlap there."""
    lhs = bessel_j(k, 4.0 * x * math.sqrt(n))
    return abs(lhs - overlap) / max(abs(lhs), 1e-3)


def figure_photon_grid() -> list[int]:
    """Standard photon-number axis: dense to 10, step 5 to 100, step 25 to 1000."""
    grid = set(range(0, 11))
    grid.update(range(10, 101, 5))
    grid.update(range(100, 1001, 25))
    return sorted(grid)
