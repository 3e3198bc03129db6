"""Time-domain evolution in the driven and quantized pictures.

Time is measured in units of the oscillator period over 2*pi, so the drive
term cos(t + phase) has period 2*pi.  Populations refer to the bare qubit
basis with the up state stored first (see models).

The driven two-level problem is integrated with a commutator-free
fourth-order exponential scheme: each step applies two matrix exponentials
built from the Hamiltonian at the two Gauss-Legendre nodes.  Every factor
is exactly unitary, so norm is conserved to rounding accuracy on runs of
any length; norm drift therefore signals a genuine failure and is never
repaired by renormalization.  Because the drive is periodic, only one
period of steps is built: their prefix products end in the one-period
(Floquet) operator F, and the propagator to any time is a partial step
times a prefix times a closed-form power of F.  A trace therefore costs
O(steps per period + samples), whatever the simulated time.  F is checked
for unitarity like any sample, and its powers use only its unitary part,
so the rounding of one period is not compounded over many.

The quantized model has no time dependence, so it is diagonalized once and
states evolve by exact phase rotation in the eigenbasis.  Its eigenmodes are
localized along the Fock ladder, so the diagonalization runs on overlapping
tiles of a few dozen levels, each keeping the modes centred in its core,
rather than on the whole window at once.  The sample grid is uniform, so
a mode's phase exp(-i E t) at the r-th sample after a block start t_b is
the product of a block factor exp(-i E t_b), one exp per block of samples,
and an in-block factor exp(-i E r dt) from one table per call: one complex
product per mode and sample instead of one exp.  The state is then built
core by core: each core's rows of the modes that reach it form one real
block, one product per core and chunk of samples gives its amplitudes, and
the population, norm and quadrature are reduced from that small result
while it is still in cache; no array spans the window and the samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    FitDegenerateError,
    NoPeakError,
    NormDriftError,
    TruncationError,
    require_int,
    require_real,
)
from .models import (
    CavityCoupling,
    JointState,
    QubitSpec,
    QubitState,
    SemiclassicalDrive,
    _NORM_TOL,
    _TRUNCATION_LEAK_TOL,
    _centred_eigh,
    _require_memory,
)

#: integration steps per drive period for the driven propagator
STEPS_PER_PERIOD = 4096
#: largest |t| a TimeGrid accepts
MAX_TIME = 1e15

# kept modes of two tiles may overlap by at most this much: a pair that
# overlaps by s moves a state's norm by at most 2 s, so the tiles alone
# never trip the norm check
_OVERLAP_TOL = 0.5 * _NORM_TOL

# Gauss-Legendre nodes on [0, 1] and the fourth-order exponential weights.
# Each step is exp(-i h (B H1 + A H2)) exp(-i h (A H1 + B H2)) with
# H_j = H(t + c_j h); the factor applied first weights the early node by A.
_NODE_1 = 0.5 - math.sqrt(3.0) / 6.0
_NODE_2 = 0.5 + math.sqrt(3.0) / 6.0
_WEIGHT_A = (3.0 + 2.0 * math.sqrt(3.0)) / 12.0
_WEIGHT_B = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0

_SAMPLE_CHUNK = 512
# samples per block of SpectralEvolution.traces' phase tables; divides
# _SAMPLE_CHUNK so that every chunk starts a block
_PHASE_BLOCK = 32


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling times t0, ..., t1 with `samples` points.

    |t0| and |t1| are at most 1e15, where neighbouring doubles lie 0.125 rad
    of drive phase apart; beyond it a sample time no longer fixes the phase.
    """

    t0: float
    t1: float
    samples: int

    def __post_init__(self):
        t0 = require_real("t0", self.t0, -MAX_TIME, MAX_TIME)
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "t1", require_real("t1", self.t1, t0, MAX_TIME, above=True))
        object.__setattr__(self, "samples", require_int("samples", self.samples, 2))

    def times(self) -> np.ndarray:
        """The sample times.  Raises ResourceLimitError, before allocating,
        when they and the trace arrays built on them would not fit in
        physical memory: 32 bytes a sample, where tracemalloc measured 16-26
        in both propagators."""
        _require_memory(32 * self.samples, f"a trace of {self.samples} samples")
        return np.linspace(self.t0, self.t1, self.samples)


@dataclass(frozen=True, eq=False)
class PopulationTrace:
    """Sampled occupation of the down state."""

    times: np.ndarray
    p_down: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        p = np.asarray(self.p_down, dtype=float)
        if times.shape != p.shape or times.ndim != 1:
            raise ValueError("times and p_down must be equal-length vectors")
        # written so that NaN fails too
        if not (np.all(np.isfinite(times)) and np.all((p >= 0.0) & (p <= 1.0 + 1e-9))):
            raise ValueError("times must be finite and populations lie in [0, 1]")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "p_down", p)


@dataclass(frozen=True, eq=False)
class QuadratureTrace:
    """Sampled oscillator position expectation <(a + a^dag)/2>."""

    times: np.ndarray
    x_mean: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        x = np.asarray(self.x_mean, dtype=float)
        if times.shape != x.shape or times.ndim != 1:
            raise ValueError("times and x_mean must be equal-length vectors")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(x))):
            raise ValueError("times and x_mean must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "x_mean", x)


@dataclass(frozen=True)
class DecayEstimate:
    """Envelope 1/e time and the confidence of the log-linear fit.

    tau is +inf for signals whose envelope does not decay resolvably over
    the fitted span; quality is the coefficient of determination clipped
    to [0, 1].
    """

    tau: float
    quality: float

    def __post_init__(self):
        if not self.tau > 0.0:
            raise ValueError(f"decay time must be positive, got {self.tau}")
        object.__setattr__(self, "quality", require_real("quality", self.quality, 0.0, 1.0))


def _cf4_step_matrices(qubit, drive, t_start, h, count):
    """2x2 step matrices for `count` consecutive substeps of width h.

    Returns the four matrix entries as complex vectors; entry [j] advances
    the state from t_start + j*h to t_start + (j+1)*h.
    """
    j = np.arange(count)
    base = t_start + j * h
    # sigma_z coefficient of H at the two intra-step nodes
    z1 = -0.5 * (qubit.bias + drive.amplitude * np.cos(base + _NODE_1 * h + drive.phase))
    z2 = -0.5 * (qubit.bias + drive.amplitude * np.cos(base + _NODE_2 * h + drive.phase))
    # sigma_x coefficient is time independent; each factor carries half of it
    gx = -0.25 * h * qubit.gap

    def factor(bz):
        # exp(-i (gx sigma_x + bz sigma_z)) entrywise
        r = np.hypot(gx, bz)
        c = np.cos(r)
        s = np.sinc(r / np.pi)  # sin(r)/r, finite at r = 0
        return c, s * gx, s * bz

    c1, x1, zz1 = factor(h * (_WEIGHT_A * z1 + _WEIGHT_B * z2))
    c2, x2, zz2 = factor(h * (_WEIGHT_B * z1 + _WEIGHT_A * z2))

    # product (second factor) @ (first factor)
    d1 = c1 - 1j * zz1
    u1 = c1 + 1j * zz1
    d2 = c2 - 1j * zz2
    u2 = c2 + 1j * zz2
    m00 = d2 * d1 - x2 * x1
    m01 = -1j * (d2 * x1 + x2 * u1)
    m10 = -1j * (x2 * d1 + u2 * x1)
    m11 = u2 * u1 - x2 * x1
    return m00, m01, m10, m11


# bytes held per step of the period while it is built and scanned: the
# step formula's float and complex temporaries plus the (n, 2, 2) prefixes
# (a peak of about 220 under tracemalloc)
_BYTES_PER_STEP = 256


def _period_prefixes(qubit, drive, t0, h, steps):
    """Prefix products of one period of steps starting at t0, shape (steps+1, 2, 2).

    Entry j is M_{j-1} ... M_0, the first j steps; entry 0 is the identity
    and the last is the one-period operator F.  The Hillis-Steele scan takes
    ceil(log2(steps)) vectorised rounds: after the round with stride d,
    entry j covers steps max(0, j - 2d + 1) .. j.
    """
    scan = np.stack(_cf4_step_matrices(qubit, drive, t0, h, steps), axis=-1)
    scan = scan.reshape(steps, 2, 2)
    stride = 1
    while stride < steps:
        scan[stride:] = scan[stride:] @ scan[:-stride]
        stride *= 2
    return np.concatenate((np.eye(2, dtype=complex)[None], scan))


def _floquet_power_on(f, psi, m):
    """F^m psi, shape (m.size, 2), for a float array of period counts m.

    G = F / sqrt(det F) is in SU(2) up to rounding, with rotation angle
    theta, and G^m = cos(m theta) I + sin(m theta)/sin(theta) (G - cos(theta) I),
    the ratio m at theta = 0 (G = I).  Cosine and sine take the one rounded
    m theta, so their squares sum to 1 however large it grows.  Only the
    unit phase of sqrt(det F) and G's first row (a, b), read as the SU(2)
    matrix [[a, b], [-b*, a*]], enter, so F's rounding-level departure from
    unitarity, which the caller has checked, is not compounded m times.
    """
    phase = np.sqrt(f[0, 0] * f[1, 1] - f[0, 1] * f[1, 0])
    a, b = f[0] / phase
    theta = math.atan2(math.hypot(a.imag, abs(b)), a.real)
    phi = m * theta
    ratio = np.sin(phi) / math.sin(theta) if theta else m
    # (G - cos(theta) I) psi
    k_psi = np.array([
        1j * a.imag * psi[0] + b * psi[1],
        -b.conjugate() * psi[0] - 1j * a.imag * psi[1],
    ])
    out = np.cos(phi)[:, None] * psi + ratio[:, None] * k_psi
    return np.exp(1j * np.angle(phase) * m)[:, None] * out


def propagate_semiclassical(
    qubit: QubitSpec,
    drive: SemiclassicalDrive,
    psi0: QubitState,
    grid: TimeGrid,
    *,
    steps_per_period: int = STEPS_PER_PERIOD,
) -> PopulationTrace:
    """Integrate the driven two-level Schrodinger equation.

    Fourth-order steps of width h = 2*pi/steps_per_period (default 4096)
    tile time from grid.t0 on, so step boundaries lie on the lattice
    t0 + j*h whatever the sample times; the override exists for
    convergence studies such as step-halving checks.  Only the first
    period's steps are built (the drive repeats every 2*pi).  Their prefix
    products P_j, the first j steps, come from a scan in log2(steps_per_period)
    vectorised rounds, and the last one is the one-period operator F.  A
    sample at t = t0 + m*2*pi + j*h + r with 0 <= r < h is
    S_r P_j F^m psi0, where S_r is one partial step of width r from
    t0 + j*h and F^m comes in closed form from F's SU(2) form; no step is
    wider than h.  The cost is O(steps_per_period + samples), independent
    of the simulated time.  Raises NormDriftError if the state norm drifts
    from 1 by more than 1e-9 at any sample, or F from unitarity by as much
    (the scheme is unitary, so this indicates a genuine numerical failure
    rather than expected integrator error), and ResourceLimitError, before
    building any step, when one period of steps would not fit in physical
    memory.
    """
    steps_per_period = require_int("steps_per_period", steps_per_period, 1)
    _require_memory(
        _BYTES_PER_STEP * steps_per_period, f"one period of {steps_per_period} steps"
    )
    period = 2.0 * math.pi
    h = period / steps_per_period
    t0 = grid.t0
    prefixes = _period_prefixes(qubit, drive, t0, h, steps_per_period)
    floquet = prefixes[-1]
    drift = float(np.max(np.abs(floquet.conj().T @ floquet - np.eye(2))))
    if drift > _NORM_TOL:
        raise NormDriftError(
            f"one-period propagator from t = {t0:.6g} departs from unitarity by "
            f"{drift:.3e} (limit {_NORM_TOL:g})"
        )
    times = grid.times()
    p = np.empty(times.size)

    for lo in range(0, times.size, _SAMPLE_CHUNK):
        t = times[lo : lo + _SAMPLE_CHUNK]
        # fmod is exact, so tau is the exact remainder in [0, period)
        m, tau = np.divmod(t - t0, period)
        # j reaches steps_per_period when tau is within rounding of a whole
        # period; prefix steps_per_period is F and r is then a rounding-size
        # step back
        j = np.floor(tau / h).astype(np.intp)
        r = tau - j * h
        psi = _floquet_power_on(floquet, psi0.amplitudes, m)
        psi = (prefixes[j] @ psi[:, :, None])[:, :, 0]
        s00, s01, s10, s11 = _cf4_step_matrices(qubit, drive, t0 + j * h, r, 1)
        u0 = s00 * psi[:, 0] + s01 * psi[:, 1]
        u1 = s10 * psi[:, 0] + s11 * psi[:, 1]
        p_down = u1.real ** 2 + u1.imag ** 2
        norm = u0.real ** 2 + u0.imag ** 2 + p_down
        bad = np.flatnonzero(np.abs(norm - 1.0) > _NORM_TOL)
        if bad.size:
            i = bad[0]
            raise NormDriftError(f"norm drifted to {norm[i]:.12f} at t = {t[i]:.6g}")
        p[lo : lo + t.size] = p_down

    return PopulationTrace(times, np.clip(p, 0.0, 1.0))


def _tile_margin(qubit: QubitSpec, cavity: CavityCoupling) -> int:
    """First margin of the Fock tiles: ceil(4 c sqrt(n_max) + bias) + 20 levels.

    4 c sqrt(n) is the spread of a displaced number state and bias the
    distance between the two levels a resonant doublet pairs.
    """
    return math.ceil(4.0 * cavity.coupling * math.sqrt(cavity.n_max) + qubit.bias) + 20


def _tile_bounds(levels: int, margin: int) -> list[tuple[int, int, int, int]]:
    """(tile start, tile stop, core start, core stop) window indices per tile.

    Cores of `margin` levels cover the window; each tile is its core widened
    by `margin` on both sides and clipped to the window.  A window of at most
    3 margin levels is one tile.
    """
    if levels <= 3 * margin:
        return [(0, levels, 0, levels)]
    return [
        (max(0, core - margin), min(levels, core + 2 * margin), core, min(levels, core + margin))
        for core in range(0, levels, margin)
    ]


def _require_tile_memory(levels: int, tile_levels: int) -> None:
    """Raise ResourceLimitError when the tiled propagator exceeds physical memory.

    The estimate, in doubles, counts the largest tile's dense eigh, 5 T^2
    + 6 T at tile dimension T: the matrix, LAPACK's working copy
    (overwritten by the eigenvectors), the returned eigenvectors and the
    divide-and-conquer workspace of about 2 T^2, plus a few vectors of T.
    It adds the kept modes and their copy in the core blocks (each of the
    window's 2L modes stored on at most T rows, twice), the in-block phase
    table of traces (_PHASE_BLOCK complex values per mode) and its sample
    chunk buffers: per sample, 2 per mode for the complex phases, and 6 T
    for a core's product, the one before it and their squares.
    """
    tile, dim = 2 * tile_levels, 2 * levels
    need = 8 * (
        5 * tile * tile + 6 * tile + 2 * tile * dim + 2 * _PHASE_BLOCK * dim
        + _SAMPLE_CHUNK * (6 * tile + 2 * dim)
    )
    _require_memory(
        need, f"diagonalising Fock tiles of dimension {tile} on a window of dimension {dim}"
    )


def _cross_tile_overlap(tiles) -> float:
    """Largest |<a|b>| between kept modes a and b of two different tiles.

    Only tiles one or two apart share levels.
    """
    worst = 0.0
    for step in (1, 2):
        for (first, _, low), (second, _, high) in zip(tiles, tiles[step:]):
            rows = low.shape[0] // 2
            shared = first + rows - second
            if shared > 0:
                a = low.reshape(2, rows, low.shape[1])[:, second - first :]
                b = high.reshape(2, high.shape[0] // 2, high.shape[1])[:, :shared]
                cross = a.reshape(2 * shared, -1).T @ b.reshape(2 * shared, -1)
                worst = max(worst, float(np.max(np.abs(cross), initial=0.0)))
    return worst


def _core_blocks(tiles, bounds):
    """One real block per core of the tiling `bounds`, in window order.

    Each entry is (core start, core stop, first mode, end mode, block): the
    block holds the core's rows of both branches, up rows first, of the kept
    modes first..end-1 of the tiles concatenated in order, which are the
    modes of every tile whose rows reach the core (the core's own tile and
    at most its two neighbours).  A (row, mode) pair outside the mode's tile
    is zero.
    """
    offsets = np.cumsum([0] + [energies.size for _, energies, _ in tiles])
    cores = []
    for _, _, core_start, core_stop in bounds:
        reach = [
            j for j, (start, _, modes) in enumerate(tiles)
            if start < core_stop and start + modes.shape[0] // 2 > core_start
        ]
        first, end = int(offsets[reach[0]]), int(offsets[reach[-1] + 1])
        block = np.zeros((2, core_stop - core_start, end - first))
        for j in reach:
            start, _, modes = tiles[j]
            rows = modes.shape[0] // 2
            top, bottom = max(core_start, start), min(core_stop, start + rows)
            block[:, top - core_start : bottom - core_start,
                  offsets[j] - first : offsets[j + 1] - first] = (
                modes.reshape(2, rows, -1)[:, top - start : bottom - start]
            )
        cores.append((core_start, core_stop, first, end, block.reshape(-1, end - first)))
    return cores


def _sample_phases(energies, coeff, starts, in_block, samples):
    """coeff exp(-i E t) at `samples` uniform samples, shape (modes, samples).

    Block b of the samples starts at time starts[b]; in_block[:, r] is
    exp(-i E r dt).  Each block-start sample gets exactly
    exp(-i E t) coeff, and every other one the product of its block's factor
    and its in-block factor.  The last block is trimmed to `samples`.
    """
    head = np.exp(np.outer(energies, -1j * starts)) * coeff[:, None]
    rot = head[:, :, None] * in_block[:, None, :]
    return rot.reshape(energies.size, starts.size * in_block.shape[1])[:, :samples]


class SpectralEvolution:
    """Diagonalize-once evolution of the coupled qubit-oscillator model.

    The joint Hamiltonian on the cavity's Fock window n_min..n_max is
    diagonalized at construction, tile by tile along the Fock ladder, and
    unitarity is exact up to rounding because evolution is a pure phase
    rotation.  The phases come from two small tables over all kept modes:
    exp(-i E t) at the first sample of each block of 32 (with the mode's
    initial coefficient folded in), and exp(-i E r dt) for the offsets
    r = 0..31 within a block, built once per call.  Each sample's phase is
    one complex product of the two, and at block starts it equals the direct
    exp(-i E t).  A chunk of 512 samples reads them in place as real pairs.
    Traces for any number of initial states and grids then cost one real
    matrix product per core and chunk: the core's block, its rows of both
    branches against the modes of the (at most three) tiles that reach it,
    times those modes' rows of the pairs.  Population, norm and quadrature
    are reduced from each core's result; the quadrature pair across a core
    edge takes the previous core's last row.

    Every eigenmode is localized on a few dozen levels around its centre
    sum_m m |v_m|^2.  The window is covered by cores of M levels, first
    M = ceil(4 c sqrt(n_max) + bias) + 20, and each core widened by M on
    both sides (clipped to the window) is one tile, diagonalized densely
    about its middle level; a tile keeps the modes whose centre lies in its
    core, whose edges sit at half-integer levels.  A kept mode leaks into
    the rest of the window only through the ladder entry c sqrt(m) at each
    interior tile edge, so that entry times the mode's amplitude there is
    its exact extra residual in the window.  M doubles until the tiles keep
    exactly one mode per basis state, every extra residual is at most
    eps * max|E| (eps the machine epsilon) and no two kept modes of
    different tiles overlap by more than 5e-10, which a pair of
    (near-)degenerate modes mixed differently by two tiles would.  A window
    of at most 3 M levels is one tile, the dense diagonalization of the
    whole window.

    Construction raises ResourceLimitError, before allocating anything,
    when the tiles, the kept modes, the core blocks and the sample chunks
    of traces would not fit in physical memory.  Each initial state must
    live on the same window and may hold at most 1e-8 of its norm in the
    outer 5% of the window's levels at either edge (only the top edge when
    n_min = 0); otherwise TruncationError.
    """

    def __init__(self, qubit: QubitSpec, cavity: CavityCoupling):
        self.qubit = qubit
        self.cavity = cavity
        margin = _tile_margin(qubit, cavity)
        while (tiles := self._diagonalise_tiles(margin)) is None:
            margin *= 2
        self._margin = margin
        # (tile start, energies, modes on the tile's rows of both branches)
        self._tiles = tiles
        self._cores = _core_blocks(tiles, _tile_bounds(cavity.levels, margin))

    def _diagonalise_tiles(self, margin):
        """The kept modes of each tile at this margin, or None if they fail a check."""
        cav = self.cavity
        bounds = _tile_bounds(cav.levels, margin)
        _require_tile_memory(cav.levels, max(stop - start for start, stop, _, _ in bounds))
        tiles, leak = [], 0.0
        for start, stop, core_start, core_stop in bounds:
            tile = CavityCoupling(cav.coupling, cav.n_min + stop - 1, cav.n_min + start)
            # diagonalised about the tile's middle level: eigh's rounding sets
            # how differently two tiles resolve a near-degenerate pair they share
            energies, modes = _centred_eigh(self.qubit, tile)
            weight = modes.reshape(2, stop - start, -1) ** 2
            weight = weight[0] + weight[1]
            centre = np.arange(start, stop) @ weight
            keep = (centre >= core_start - 0.5) & (centre < core_stop - 0.5)
            tiles.append((start, energies[keep], modes[:, keep]))
            # squared ladder entry times squared edge amplitude, at each interior edge
            edges = np.zeros(np.count_nonzero(keep))
            if start > 0:
                edges += cav.coupling**2 * (cav.n_min + start) * weight[0, keep]
            if stop < cav.levels:
                edges += cav.coupling**2 * (cav.n_min + stop) * weight[-1, keep]
            leak = max(leak, float(np.max(edges, initial=0.0)))
        if sum(energies.size for _, energies, _ in tiles) != cav.dim:
            return None
        scale = max(float(np.max(np.abs(energies), initial=0.0)) for _, energies, _ in tiles)
        if math.sqrt(leak) > np.finfo(float).eps * scale:
            return None
        return tiles if _cross_tile_overlap(tiles) <= _OVERLAP_TOL else None

    def _prepare(self, initial: JointState):
        cav = self.cavity
        if (initial.n_min, initial.n_max) != (cav.n_min, cav.n_max):
            raise ValueError(
                f"initial state has n_min={initial.n_min}, n_max={initial.n_max}; "
                f"propagator was built with n_min={cav.n_min}, n_max={cav.n_max}"
            )
        levels = cav.levels
        band = max(1, int(round(0.05 * levels)))
        weight = np.abs(initial.amplitudes.reshape(2, levels)) ** 2
        edges = {"top": weight[:, levels - band :]}
        if cav.n_min > 0:
            edges["bottom"] = weight[:, :band]
        for edge, block in edges.items():
            leak = float(np.sum(block))
            if leak > _TRUNCATION_LEAK_TOL:
                raise TruncationError(
                    f"initial state holds {leak:.3e} of its norm in the {edge} {band} "
                    f"oscillator levels (limit {_TRUNCATION_LEAK_TOL:g}) of the window "
                    f"n_min={cav.n_min}, n_max={cav.n_max}; widen it"
                )
        amplitudes = initial.amplitudes.reshape(2, levels)
        # the initial state's coefficients on the kept modes, in tile order
        return np.concatenate([
            modes.T @ amplitudes[:, start : start + modes.shape[0] // 2].reshape(-1)
            for start, _, modes in self._tiles
        ])

    def traces(
        self,
        initial: JointState,
        grid: TimeGrid,
        quadrature: bool = False,
    ) -> tuple[PopulationTrace, QuadratureTrace | None]:
        """Population trace and, optionally, the quadrature trace."""
        coeffs = self._prepare(initial)
        energies = np.concatenate([energies for _, energies, _ in self._tiles])
        times = grid.times()
        root = np.sqrt(np.arange(self.cavity.n_min + 1, self.cavity.n_max + 1))
        p = np.zeros(times.size)
        x = np.zeros(times.size) if quadrature else None
        # linspace's own step, so that t0 + r dt is sample r up to rounding
        dt = (grid.t1 - grid.t0) / (grid.samples - 1)
        in_block = np.exp(np.outer(energies, -1j * (dt * np.arange(_PHASE_BLOCK))))

        for lo in range(0, times.size, _SAMPLE_CHUNK):
            t = times[lo : lo + _SAMPLE_CHUNK]
            n = t.size
            # real and imaginary parts interleaved, read in place: one real
            # product per core gives both parts of its amplitudes
            phases = _sample_phases(energies, coeffs, t[::_PHASE_BLOCK], in_block, n).view(float)
            norm = np.zeros(n)
            for start, stop, first, end, block in self._cores:
                amp = (block @ phases[first:end]).reshape(2, stop - start, 2 * n)
                dens = (amp * amp).sum(axis=1)
                dens = dens[:, 0::2] + dens[:, 1::2]
                norm += dens[0] + dens[1]
                p[lo : lo + n] += dens[1]
                if quadrature:
                    weights = root[start : stop - 1]
                    pair = weights @ (amp[0, :-1] * amp[0, 1:])
                    pair += weights @ (amp[1, :-1] * amp[1, 1:])
                    if start > 0:
                        # the pair across the core boundary
                        pair += root[start - 1] * np.sum(last * amp[:, 0], axis=0)
                    last = amp[:, -1].copy()
                    x[lo : lo + n] += pair[0::2] + pair[1::2]
            del phases  # not held while the next chunk builds its own
            drift = float(np.max(np.abs(norm - 1.0)))
            if drift > _NORM_TOL:
                raise NormDriftError(f"eigenbasis norm drift {drift:.3e}")

        pop = PopulationTrace(times, np.clip(p, 0.0, 1.0))
        return pop, (QuadratureTrace(times, x) if quadrature else None)


def dominant_frequency(trace: PopulationTrace) -> float:
    """Frequency of the strongest sub-drive spectral line of a trace.

    The mean-subtracted signal is Hann-windowed and Fourier transformed;
    the peak magnitude bin strictly between zero and the drive frequency
    (1 in these units) is refined by parabolic interpolation.  Raises
    NoPeakError when no bin in that band rises to 3x the band's median
    magnitude, or when the trace is constant.
    """
    p = trace.p_down
    y = p - p.mean()
    scale = float(np.max(np.abs(y)))
    if scale < 1e-14 * max(1.0, float(np.max(np.abs(p)))):
        raise NoPeakError("trace is constant")

    n = p.size
    dt = (trace.times[-1] - trace.times[0]) / (n - 1)
    spectrum = np.abs(np.fft.rfft(y * np.hanning(n)))
    freqs = 2.0 * math.pi * np.fft.rfftfreq(n, d=dt)

    band = np.nonzero((freqs > 0.0) & (freqs < 1.0))[0]
    if band.size == 0:
        raise NoPeakError("no spectral bins below the drive frequency")
    mags = spectrum[band]
    peak = int(np.argmax(mags))
    if mags[peak] <= 0.0 or mags[peak] < 3.0 * np.median(mags):
        raise NoPeakError(
            f"strongest sub-drive line ({mags[peak]:.3e}) does not stand out "
            f"from the median magnitude ({np.median(mags):.3e})"
        )

    j = band[peak]
    shift = 0.0
    if 0 < j < spectrum.size - 1:
        left, mid, right = spectrum[j - 1 : j + 2]
        denom = left - 2.0 * mid + right
        if denom < 0.0:
            shift = max(-0.5, min(0.5, 0.5 * (left - right) / denom))
    return float((j + shift) * 2.0 * math.pi / (n * dt))


def estimate_decay_time(trace: PopulationTrace) -> DecayEstimate:
    """1/e decay time of a trace's oscillation envelope.

    Envelope points are the maxima of |p - mean| over consecutive
    half-periods of the dominant oscillation, taken at the time of each
    maximum; ln(envelope) is fit linearly against time.  The fit covers
    the leading e-fold: from the envelope peak to its first crossing
    below peak/e (all remaining points when it never crosses).  Later
    points sit at the post-collapse fluctuation floor, carry no rate
    information, and would flatten a log-scale fit.  When no envelope
    point at all lies below peak/e the envelope is flat to within one
    e-fold, the position of its peak is noise, and the fit starts from
    the first envelope point instead.  A non-negative slope, or a fitted
    envelope drop of less than 5% across the trace span (not resolvable
    from windowing effects), is reported as non-decaying: tau = +inf.
    """
    freq = dominant_frequency(trace)
    half = math.pi / freq
    r = np.abs(trace.p_down - trace.p_down.mean())
    t0 = trace.times[0]

    blocks = np.floor((trace.times - t0) / half).astype(int)
    t_env, v_env = [], []
    for b in range(blocks[-1] + 1):
        idx = np.nonzero(blocks == b)[0]
        if idx.size == 0:
            continue
        top = idx[np.argmax(r[idx])]
        t_env.append(trace.times[top])
        v_env.append(r[top])
    t_env = np.array(t_env)
    v_env = np.array(v_env)

    floor = float(np.max(v_env)) / math.e
    start = int(np.argmax(v_env)) if np.any(v_env < floor) else 0
    below = np.nonzero(v_env[start:] < floor)[0]
    stop = start + (int(below[0]) + 1 if below.size else v_env.size - start)
    stop = min(max(stop, start + 3), v_env.size)
    t_env, v_env = t_env[start:stop], v_env[start:stop]
    if t_env.size < 3:
        raise FitDegenerateError(
            f"only {t_env.size} usable envelope points; trace too short"
        )

    slope, intercept = np.polyfit(t_env, np.log(v_env), 1)
    fitted = slope * t_env + intercept
    resid = np.log(v_env) - fitted
    total = np.log(v_env) - np.log(v_env).mean()
    ss_tot = float(total @ total)
    quality = 1.0 if ss_tot == 0.0 else 1.0 - float(resid @ resid) / ss_tot
    quality = min(1.0, max(0.0, quality))

    span = trace.times[-1] - trace.times[0]
    if slope >= 0.0 or -slope * span < -math.log(0.95):
        return DecayEstimate(tau=math.inf, quality=quality)
    return DecayEstimate(tau=-1.0 / float(slope), quality=quality)
