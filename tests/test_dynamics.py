import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lzsim import (
    CavityCoupling,
    DecayEstimate,
    FitDegenerateError,
    JointState,
    NoPeakError,
    PopulationTrace,
    QuadratureTrace,
    QubitSpec,
    QubitState,
    SemiclassicalDrive,
    SpectralEvolution,
    TimeGrid,
    TruncationError,
    adequate_n_max,
    adequate_n_min,
    coherent_state,
    dominant_frequency,
    estimate_decay_time,
    fock_state,
    jc_splitting,
    propagate_semiclassical,
    rabi_hamiltonian,
)
from lzsim import dynamics
from lzsim.dynamics import _cf4_step_matrices


def _step_product(qubit, drive, t_start, h, count):
    m00, m01, m10, m11 = _cf4_step_matrices(qubit, drive, t_start, h, count)
    u = np.eye(2, dtype=complex)
    for a, b, c, d in zip(m00, m01, m10, m11):
        u = np.array([[a, b], [c, d]]) @ u
    return u


# ----------------------------------------------------------- grid plumbing


def test_time_grid_validation():
    grid = TimeGrid(0.0, 1.0, 5)
    assert np.allclose(grid.times(), [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0.0, 5)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        TimeGrid(0.0, math.inf, 5)


def test_population_trace_validation():
    t = np.linspace(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        PopulationTrace(t, np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError):
        PopulationTrace(t, np.array([0.1, -0.2, 0.3, 0.4]))


def test_traces_reject_non_finite_samples():
    # one NaN sample used to pass the [0, 1] check and shift the spectral
    # peak of this 0.3 rad/unit cosine to 0.0627
    t = np.linspace(0.0, 100.0, 400)
    p = 0.5 + 0.5 * np.cos(0.3 * t)
    assert dominant_frequency(PopulationTrace(t, p)) == pytest.approx(0.3, rel=0.02)
    p[200] = math.nan
    with pytest.raises(ValueError, match="populations"):
        PopulationTrace(t, p)
    bad_t = t.copy()
    bad_t[-1] = math.inf
    with pytest.raises(ValueError, match="times"):
        PopulationTrace(bad_t, np.full(400, 0.5))
    for times, x in [(t, p), (bad_t, np.zeros(400))]:
        with pytest.raises(ValueError, match="finite"):
            QuadratureTrace(times, x)


def test_decay_estimate_validation():
    DecayEstimate(math.inf, 1.0)
    with pytest.raises(ValueError):
        DecayEstimate(-1.0, 0.5)
    with pytest.raises(ValueError):
        DecayEstimate(1.0, 1.5)


# -------------------------------------------------- semiclassical propagator


def test_undriven_rabi_oscillation():
    # amplitude 0, bias 0: P_down(t) = cos^2(gap t / 2) exactly
    gap = 0.3
    grid = TimeGrid(0.0, 50.0, 401)
    trace = propagate_semiclassical(
        QubitSpec(gap, 0.0), SemiclassicalDrive(0.0), QubitState.down(), grid
    )
    ref = np.cos(0.5 * gap * grid.times()) ** 2
    assert np.max(np.abs(trace.p_down - ref)) < 1e-10


def test_degenerate_qubit_is_stationary():
    # gap 0 conserves sigma_z no matter how hard the drive works
    trace = propagate_semiclassical(
        QubitSpec(0.0, 0.7), SemiclassicalDrive(2.0), QubitState.down(),
        TimeGrid(0.0, 40.0, 201),
    )
    assert np.max(np.abs(trace.p_down - 1.0)) < 1e-12


def test_step_matrices_are_unitary():
    qubit = QubitSpec(0.4, 2.0)
    drive = SemiclassicalDrive(10.0, 0.3)
    m00, m01, m10, m11 = _cf4_step_matrices(qubit, drive, 0.0, 2.0 * math.pi / 512, 512)
    for a, b, c, d in zip(m00, m01, m10, m11):
        u = np.array([[a, b], [c, d]])
        assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(
    gap=st.floats(min_value=0.0, max_value=5.0),
    bias=st.floats(min_value=0.0, max_value=5.0),
    amplitude=st.floats(min_value=0.0, max_value=20.0),
    phase=st.floats(min_value=-3.0, max_value=3.0),
)
def test_period_product_is_unitary(gap, bias, amplitude, phase):
    u = _step_product(
        QubitSpec(gap, bias), SemiclassicalDrive(amplitude, phase),
        0.0, 2.0 * math.pi / 256, 256,
    )
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-9


def test_forward_backward_round_trip():
    qubit = QubitSpec(0.4, 2.0)
    drive = SemiclassicalDrive(10.0, 0.0)
    span = 3.0 * 2.0 * math.pi
    steps = 3 * 4096
    forward = _step_product(qubit, drive, 0.0, span / steps, steps)
    backward = _step_product(qubit, drive, span, -span / steps, steps)
    assert np.max(np.abs(backward @ forward - np.eye(2))) < 1e-10


def test_step_halving_convergence():
    qubit = QubitSpec(0.4, 2.0)
    drive = SemiclassicalDrive(10.0, 0.0)
    grid = TimeGrid(0.0, 3.0 * 2.0 * math.pi, 97)
    runs = {
        n: propagate_semiclassical(
            qubit, drive, QubitState.down(), grid, steps_per_period=n
        ).p_down
        for n in (64, 128, 4096, 8192)
    }
    err64 = np.max(np.abs(runs[64] - runs[8192]))
    err128 = np.max(np.abs(runs[128] - runs[8192]))
    assert err128 < err64 / 8.0  # fourth-order scheme: halving gains ~16x
    assert np.max(np.abs(runs[4096] - runs[8192])) < 1e-6


def test_long_interval_spans_several_step_chunks(monkeypatch):
    # one interval of 20 periods is 81,920 substeps at the default step,
    # more than one chunk of step matrices; the split must not show
    qubit = QubitSpec(0.4, 2.0)
    drive = SemiclassicalDrive(10.0, 0.0)
    grid = TimeGrid(0.0, 20.0 * 2.0 * math.pi, 2)
    assert 20 * 4096 > dynamics._SUBSTEP_CHUNK
    chunked = propagate_semiclassical(qubit, drive, QubitState.down(), grid).p_down
    monkeypatch.setattr(dynamics, "_SUBSTEP_CHUNK", 1 << 20)
    whole = propagate_semiclassical(qubit, drive, QubitState.down(), grid).p_down
    assert np.max(np.abs(chunked - whole)) < 1e-12


# ------------------------------------------------------- quantum propagator


def test_decoupled_population_is_constant():
    # gap 0: sigma_z commutes with everything even at finite coupling
    qubit = QubitSpec(0.0, 0.8)
    cavity = CavityCoupling(0.5, 60)
    initial = JointState.from_product(QubitState.down(), coherent_state(2.0, 60), 60)
    trace, _ = SpectralEvolution(qubit, cavity).traces(initial, TimeGrid(0.0, 30.0, 151))
    assert np.max(np.abs(trace.p_down - 1.0)) < 1e-12


def test_free_oscillator_quadrature():
    # zero coupling: <(a + adag)/2>(t) = alpha cos t for a real coherent state
    alpha = 1.3
    qubit = QubitSpec(0.3, 0.4)
    cavity = CavityCoupling(0.0, 40)
    initial = JointState.from_product(QubitState.down(), coherent_state(alpha, 40), 40)
    grid = TimeGrid(0.0, 20.0, 301)
    _, quad = SpectralEvolution(qubit, cavity).traces(initial, grid, quadrature=True)
    assert np.max(np.abs(quad.x_mean - alpha * np.cos(grid.times()))) < 1e-12


def test_displaced_equilibrium_oscillation():
    # up branch with gap 0: vacuum swings around the displaced equilibrium
    # at +c, so x(t) = c (1 - cos t), range [0, 2c], time average c
    c = 1.0
    cavity = CavityCoupling(c, 40)
    initial = JointState.from_product(QubitState.up(), fock_state(0, 40), 40)
    grid = TimeGrid(0.0, 4.0 * 2.0 * math.pi, 257)
    _, quad = SpectralEvolution(QubitSpec(0.0, 0.0), cavity).traces(initial, grid, quadrature=True)
    ref = c * (1.0 - np.cos(grid.times()))
    assert np.max(np.abs(quad.x_mean - ref)) < 1e-8
    assert quad.x_mean.min() > -1e-8
    assert quad.x_mean.max() == pytest.approx(2.0 * c, rel=1e-3)
    assert quad.x_mean.mean() == pytest.approx(c, rel=0.05)


def test_initial_sample_matches_state():
    qubit = QubitSpec(0.4, 2.0)
    cavity = CavityCoupling(0.3, 50)
    initial = JointState.from_product(QubitState.down(), coherent_state(1.5, 50), 50)
    trace, _ = SpectralEvolution(qubit, cavity).traces(initial, TimeGrid(0.0, 1.0, 8))
    assert trace.p_down[0] == pytest.approx(initial.population_down(), abs=1e-12)


def test_truncation_guard_rejects_top_weight():
    cavity = CavityCoupling(0.1, 20)
    evo = SpectralEvolution(QubitSpec(0.4, 2.0), cavity)
    top = JointState.from_product(QubitState.down(), fock_state(20, 20), 20)
    with pytest.raises(TruncationError):
        evo.traces(top, TimeGrid(0.0, 5.0, 10))


def test_mismatched_n_max_rejected():
    evo = SpectralEvolution(QubitSpec(0.4, 2.0), CavityCoupling(0.1, 20))
    other = JointState.from_product(QubitState.down(), fock_state(0, 30), 30)
    with pytest.raises(ValueError):
        evo.traces(other, TimeGrid(0.0, 5.0, 10))


def _window_pair(mean, coupling, start, grid):
    """Traces from the full basis 0..n_max and from the adequate_n_min window."""
    qubit = QubitSpec(0.4, 2.0)
    n_max = adequate_n_max(mean, coupling)
    n_min = adequate_n_min(mean, coupling)
    assert n_min > 0
    out = []
    for lo in (0, n_min):
        if start == "coherent":
            vec = coherent_state(math.sqrt(mean), n_max, lo)
        else:
            vec = fock_state(int(mean), n_max, lo)
        initial = JointState.from_product(QubitState.down(), vec, n_max, lo)
        evo = SpectralEvolution(qubit, CavityCoupling(coupling, n_max, lo))
        out.append(evo.traces(initial, grid, quadrature=True))
    return out


@pytest.mark.parametrize("start", ["coherent", "fock"])
def test_window_matches_full_basis_at_strong_coupling(start):
    grid = TimeGrid(0.0, 60.0, 241)
    (pop_full, x_full), (pop_win, x_win) = _window_pair(200.0, 1.0, start, grid)
    assert np.max(np.abs(pop_win.p_down - pop_full.p_down)) < 1e-10
    assert np.max(np.abs(x_win.x_mean - x_full.x_mean)) < 1e-10
    # the oscillator actually moves: the comparison is not of constants
    assert np.ptp(x_full.x_mean) > 1.0


def test_truncation_guard_rejects_bottom_weight():
    cavity = CavityCoupling(0.1, 60, 20)
    evo = SpectralEvolution(QubitSpec(0.4, 2.0), cavity)
    bottom = JointState.from_product(QubitState.down(), fock_state(21, 60, 20), 60, 20)
    with pytest.raises(TruncationError, match="bottom 2 oscillator levels"):
        evo.traces(bottom, TimeGrid(0.0, 5.0, 10))
    # at n_min = 0 the bottom band is the physical vacuum, not an edge
    vacuum = JointState.from_product(QubitState.down(), fock_state(0, 60), 60)
    SpectralEvolution(QubitSpec(0.4, 2.0), CavityCoupling(0.1, 60)).traces(
        vacuum, TimeGrid(0.0, 5.0, 10)
    )


def test_mismatched_n_min_rejected():
    evo = SpectralEvolution(QubitSpec(0.4, 2.0), CavityCoupling(0.1, 60, 20))
    other = JointState.from_product(QubitState.down(), fock_state(40, 60, 10), 60, 10)
    with pytest.raises(ValueError, match="n_min=10"):
        evo.traces(other, TimeGrid(0.0, 5.0, 10))


def test_jc_dynamics_oscillates_at_the_splitting():
    # weak coupling on the one-photon resonance: a qubit prepared in its
    # ground state swaps excitation with the field at 2 c cos(theta) sqrt(n)
    qubit = QubitSpec(1.0, 0.0)
    c = 0.01
    n_max = 40
    h = rabi_hamiltonian(qubit, CavityCoupling(c, n_max))
    energies, modes = np.linalg.eigh(h)
    for n in (1, 4, 9):
        target = jc_splitting(n, qubit, c)
        psi0 = np.kron(np.array([1.0, 1.0]) / math.sqrt(2.0), fock_state(n, n_max))
        times = np.linspace(0.0, 3.2 * 2.0 * math.pi / target, 4000)
        coeff = modes.T @ psi0
        phases = np.exp(-1j * np.outer(energies, times))
        psi_t = modes @ (phases * coeff[:, None])
        upper, lower = psi_t[: n_max + 1], psi_t[n_max + 1 :]
        p_g = 0.5 * np.sum(np.abs(upper + lower) ** 2, axis=0)
        trace = PopulationTrace(times, np.clip(p_g, 0.0, 1.0))
        assert dominant_frequency(trace) == pytest.approx(target, rel=0.02)


def test_strong_coupling_coherent_sidebands():
    # occupation 10 at amplitude 10: the populated photon numbers form a
    # comb of splitting lines around the main one, and a far-detuned tail
    # line near 0.031 carries visible weight; this multi-line structure is
    # what collapses the low-occupation envelope
    qubit = QubitSpec(0.4, 2.0)
    coupling = 10.0 / (4.0 * math.sqrt(10.0))
    n_max = 71
    cavity = CavityCoupling(coupling, n_max)
    initial = JointState.from_product(
        QubitState.down(), coherent_state(math.sqrt(10.0), n_max), n_max
    )
    trace, _ = SpectralEvolution(qubit, cavity).traces(initial, TimeGrid(0.0, 1600.0, 4096))
    main = dominant_frequency(trace)
    assert main == pytest.approx(0.083, rel=0.03)

    y = trace.p_down - trace.p_down.mean()
    mags = np.abs(np.fft.rfft(y * np.hanning(y.size)))
    freqs = 2.0 * math.pi * np.fft.rfftfreq(y.size, d=trace.times[1] - trace.times[0])
    side = (freqs > 0.005) & (freqs < main - 0.02)
    peak = np.argmax(mags[side])
    assert freqs[side][peak] == pytest.approx(0.0314, rel=0.15)
    ratio = mags[side][peak] / mags[np.argmin(np.abs(freqs - main))]
    assert 0.25 < ratio < 0.6


def test_semiclassical_quantum_crossover(
    mean1000_short_trace, semiclassical_short_trace, fig4_period
):
    # high occupation: the quantized field reproduces the classical drive
    # pointwise at first; ensemble curvature then pulls the traces apart
    diff = np.abs(mean1000_short_trace.p_down - semiclassical_short_trace.p_down)
    times = mean1000_short_trace.times
    assert np.max(diff[times <= fig4_period]) < 0.05
    assert np.max(diff) < 0.15


# ----------------------------------------------------------- trace analysis


def test_dominant_frequency_synthetic():
    t = np.linspace(0.0, 600.0, 4096)
    trace = PopulationTrace(t, 0.5 + 0.4 * np.cos(0.1 * t))
    assert dominant_frequency(trace) == pytest.approx(0.1, rel=5e-3)


def test_dominant_frequency_requires_structure():
    t = np.linspace(0.0, 100.0, 512)
    with pytest.raises(NoPeakError):
        dominant_frequency(PopulationTrace(t, np.full(t.size, 0.3)))
    # a span under one drive period leaves no spectral bins below the drive
    short = np.linspace(0.0, 3.0, 4)
    with pytest.raises(NoPeakError):
        dominant_frequency(PopulationTrace(short, np.array([0.1, 0.9, 0.1, 0.9])))


def test_estimate_decay_time_synthetic():
    t = np.linspace(0.0, 150.0, 2048)
    p = 0.5 + 0.45 * np.exp(-t / 50.0) * np.cos(0.8 * t)
    est = estimate_decay_time(PopulationTrace(t, p))
    assert type(est.tau) is float
    assert est.tau == pytest.approx(50.0, rel=0.1)
    assert est.quality > 0.95


def test_estimate_decay_time_flat_envelope():
    t = np.linspace(0.0, 200.0, 2048)
    est = estimate_decay_time(PopulationTrace(t, 0.5 + 0.4 * np.cos(0.3 * t)))
    assert est.tau == math.inf


def test_estimate_decay_time_flat_envelope_peaking_late():
    # undamped driven trace whose flat envelope peaks in the last
    # half-periods: the fit starts from the first envelope point
    trace = propagate_semiclassical(
        QubitSpec(0.433491252151831, 2.0),
        SemiclassicalDrive(9.873665924199525, 2.1582021402623273),
        QubitState.down(),
        TimeGrid(0.0, 400.0 * math.pi, 3201),
    )
    assert estimate_decay_time(trace).tau == math.inf


def test_estimate_decay_time_needs_points_past_the_peak():
    # envelope peaking at the very end leaves too few points to fit
    t = np.linspace(0.0, 50.0, 512)
    p = np.clip(0.5 + 0.1 * np.exp(t / 30.0) * np.cos(0.5 * t), 0.0, 1.0)
    with pytest.raises(FitDegenerateError):
        estimate_decay_time(PopulationTrace(t, p))
