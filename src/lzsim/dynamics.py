"""Time-domain evolution in the driven and quantized pictures.

Time is measured in units of the oscillator period over 2*pi, so the drive
term cos(t + phase) has period 2*pi.  Populations refer to the bare qubit
basis with the up state stored first (see models).

The driven two-level problem is integrated with a commutator-free
fourth-order exponential scheme: each step applies two matrix exponentials
built from the Hamiltonian at the two Gauss-Legendre nodes.  Every factor
is exactly unitary, so norm is conserved to rounding accuracy on runs of
any length; norm drift therefore signals a genuine failure and is never
repaired by renormalization.

The quantized model has no time dependence, so it is diagonalized once and
states evolve by exact phase rotation in the eigenbasis.
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
    rabi_hamiltonian,
    require_dense_memory,
)

#: integration steps per drive period for the driven propagator
STEPS_PER_PERIOD = 4096

_NORM_TOL = 1e-9
_TRUNCATION_LEAK_TOL = 1e-8

# Gauss-Legendre nodes on [0, 1] and the fourth-order exponential weights.
# Each step is exp(-i h (B H1 + A H2)) exp(-i h (A H1 + B H2)) with
# H_j = H(t + c_j h); the factor applied first weights the early node by A.
_NODE_1 = 0.5 - math.sqrt(3.0) / 6.0
_NODE_2 = 0.5 + math.sqrt(3.0) / 6.0
_WEIGHT_A = (3.0 + 2.0 * math.sqrt(3.0)) / 12.0
_WEIGHT_B = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0

_SUBSTEP_CHUNK = 1 << 16
_SAMPLE_CHUNK = 512


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling times t0, ..., t1 with `samples` points."""

    t0: float
    t1: float
    samples: int

    def __post_init__(self):
        object.__setattr__(self, "t0", require_real("t0", self.t0))
        object.__setattr__(self, "t1", require_real("t1", self.t1, self.t0, above=True))
        object.__setattr__(self, "samples", require_int("samples", self.samples, 2))

    def times(self) -> np.ndarray:
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


def propagate_semiclassical(
    qubit: QubitSpec,
    drive: SemiclassicalDrive,
    psi0: QubitState,
    grid: TimeGrid,
    *,
    steps_per_period: int = STEPS_PER_PERIOD,
) -> PopulationTrace:
    """Integrate the driven two-level Schrodinger equation.

    Fixed-step fourth-order integration with step 2*pi/steps_per_period
    (default 4096); each grid interval is subdivided evenly so sample
    times are hit exactly.  The override exists for convergence studies
    such as step-halving checks.  Raises NormDriftError if the state norm
    drifts from 1 by more than 1e-9 at any sample (the scheme is unitary,
    so this indicates a genuine numerical failure rather than expected
    integrator error).
    """
    steps_per_period = require_int("steps_per_period", steps_per_period, 1)
    base = 2.0 * math.pi / steps_per_period
    times = grid.times()
    p = np.empty(times.size)
    u0 = complex(psi0.amplitudes[0])
    u1 = complex(psi0.amplitudes[1])
    p[0] = abs(u1) ** 2

    for i in range(times.size - 1):
        dt = times[i + 1] - times[i]
        nsub = max(1, math.ceil(dt / base - 1e-12))
        h = dt / nsub
        done = 0
        while done < nsub:
            count = min(nsub - done, _SUBSTEP_CHUNK)
            m00, m01, m10, m11 = _cf4_step_matrices(
                qubit, drive, times[i] + done * h, h, count
            )
            for a00, a01, a10, a11 in zip(
                m00.tolist(), m01.tolist(), m10.tolist(), m11.tolist()
            ):
                u0, u1 = a00 * u0 + a01 * u1, a10 * u0 + a11 * u1
            done += count
        norm = abs(u0) ** 2 + abs(u1) ** 2
        if abs(norm - 1.0) > _NORM_TOL:
            raise NormDriftError(
                f"norm drifted to {norm:.12f} at t = {times[i + 1]:.6g}"
            )
        p[i + 1] = abs(u1) ** 2

    return PopulationTrace(times, np.clip(p, 0.0, 1.0))


class SpectralEvolution:
    """Diagonalize-once evolution of the coupled qubit-oscillator model.

    The dense joint Hamiltonian on the cavity's Fock window n_min..n_max is
    diagonalized at construction; traces for any number of initial states
    and grids then cost one dense matrix-matrix product per batch of
    samples, and unitarity is exact up to rounding because evolution is a
    pure phase rotation.  Construction raises ResourceLimitError, before
    allocating anything, when the diagonalization would not fit in physical
    memory.  Each initial state must live on the same window and may hold
    at most 1e-8 of its norm in the outer 5% of the window's levels at
    either edge (only the top edge when n_min = 0); otherwise
    TruncationError.
    """

    def __init__(self, qubit: QubitSpec, cavity: CavityCoupling):
        require_dense_memory(cavity.dim)
        self.qubit = qubit
        self.cavity = cavity
        self._energies, self._modes = np.linalg.eigh(rabi_hamiltonian(qubit, cavity))

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
        return self._modes.T @ initial.amplitudes

    def traces(
        self,
        initial: JointState,
        grid: TimeGrid,
        quadrature: bool = False,
    ) -> tuple[PopulationTrace, QuadratureTrace | None]:
        """Population trace and, optionally, the quadrature trace."""
        coeff = self._prepare(initial)
        times = grid.times()
        levels = self.cavity.levels
        root = np.sqrt(np.arange(self.cavity.n_min + 1, self.cavity.n_max + 1))
        p = np.empty(times.size)
        x = np.empty(times.size) if quadrature else None

        for lo in range(0, times.size, _SAMPLE_CHUNK):
            t = times[lo : lo + _SAMPLE_CHUNK]
            rot = np.exp(np.outer(self._energies, -1j * t)) * coeff[:, None]
            # keep the eigenvector matrix real (two real products instead of
            # one complex product against an upcast copy); the contiguous
            # copies keep matmul on its fast path
            re = self._modes @ np.ascontiguousarray(rot.real)
            im = self._modes @ np.ascontiguousarray(rot.imag)
            dens = re * re + im * im
            norm = dens.sum(axis=0)
            drift = float(np.max(np.abs(norm - 1.0)))
            if drift > _NORM_TOL:
                raise NormDriftError(f"eigenbasis norm drift {drift:.3e}")
            p[lo : lo + t.size] = dens[levels:].sum(axis=0)
            if quadrature:
                cross = np.zeros(t.size)
                for block in (slice(0, levels), slice(levels, 2 * levels)):
                    rb, ib = re[block], im[block]
                    cross += np.einsum(
                        "m,mj->j", root, rb[:-1] * rb[1:] + ib[:-1] * ib[1:]
                    )
                x[lo : lo + t.size] = cross

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
