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
    NormDriftError,
    PopulationTrace,
    QuadratureTrace,
    QubitSpec,
    QubitState,
    ResourceLimitError,
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
    propagate_semiclassical,
    rabi_hamiltonian,
)
from lzsim import dynamics
from lzsim.dynamics import _PHASE_BLOCK, _cf4_step_matrices, _sample_phases

import oracles


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


def _stepper_reference(qubit, drive, psi0, grid, steps_per_period):
    """The per-substep stepper that Floquet composition replaced.

    Each grid interval is cut into ceil(dt / base) equal steps, so step
    boundaries restart at every sample; on grids whose sample spacing is a
    whole number of steps they are the lattice t0 + j * base.
    """
    base = 2.0 * math.pi / steps_per_period
    times = grid.times()
    p = np.empty(times.size)
    u0, u1 = (complex(a) for a in psi0.amplitudes)
    p[0] = abs(u1) ** 2
    for i in range(times.size - 1):
        dt = times[i + 1] - times[i]
        nsub = max(1, math.ceil(dt / base - 1e-12))
        m00, m01, m10, m11 = _cf4_step_matrices(qubit, drive, times[i], dt / nsub, nsub)
        for a00, a01, a10, a11 in zip(m00.tolist(), m01.tolist(), m10.tolist(), m11.tolist()):
            u0, u1 = a00 * u0 + a01 * u1, a10 * u0 + a11 * u1
        p[i + 1] = abs(u1) ** 2
    return np.clip(p, 0.0, 1.0)


def _floquet_and_stepper(qubit, drive, grid, steps_per_period, psi0=None):
    psi0 = QubitState.down() if psi0 is None else psi0
    floquet = propagate_semiclassical(
        qubit, drive, psi0, grid, steps_per_period=steps_per_period
    ).p_down
    return floquet, _stepper_reference(qubit, drive, psi0, grid, steps_per_period)


def test_long_interval_matches_the_stepper():
    # one interval of 20 periods: 81,920 steps of the stepper, against
    # 20 powers of the one-period operator
    qubit = QubitSpec(0.4, 2.0)
    drive = SemiclassicalDrive(10.0, 0.0)
    floquet, stepper = _floquet_and_stepper(
        qubit, drive, TimeGrid(0.0, 20.0 * 2.0 * math.pi, 2), 4096
    )
    assert np.max(np.abs(floquet - stepper)) <= 1e-11


@settings(max_examples=25, deadline=None)
@given(
    gap=st.floats(min_value=0.0, max_value=5.0),
    bias=st.floats(min_value=0.0, max_value=5.0),
    amplitude=st.floats(min_value=0.0, max_value=20.0),
    phase=st.floats(min_value=-3.0, max_value=3.0),
)
def test_floquet_matches_the_stepper_on_step_aligned_grids(gap, bias, amplitude, phase):
    # 5 periods at 16 samples per period: every sample spacing is 4 of 64 steps
    floquet, stepper = _floquet_and_stepper(
        QubitSpec(gap, bias), SemiclassicalDrive(amplitude, phase),
        TimeGrid(0.0, 5.0 * 2.0 * math.pi, 81), 64,
    )
    assert np.max(np.abs(floquet - stepper)) <= 1e-11


@pytest.mark.parametrize("steps", [24, 64])
@pytest.mark.parametrize("periods", [1, 3])
@pytest.mark.parametrize("side", [-math.inf, 0, math.inf])
def test_samples_on_and_beside_period_multiples(steps, periods, side):
    # exact multiples give m whole periods and j = 0; one ulp below gives
    # m - 1 periods and the last step, and at 24 steps per period tau / h
    # rounds up to j = 24 there (see the next test)
    end = periods * 2.0 * math.pi
    if side:
        end = float(np.nextafter(end, side))
    floquet, stepper = _floquet_and_stepper(
        QubitSpec(0.4, 2.0), SemiclassicalDrive(10.0, 0.3), TimeGrid(0.0, end, 2), steps
    )
    assert np.max(np.abs(floquet - stepper)) <= 1e-11


def test_step_index_reaches_a_whole_period():
    # the propagator's own split of the sample one ulp below 2 pi
    h = 2.0 * math.pi / 24
    _, tau = np.divmod(np.nextafter(2.0 * math.pi, 0.0), 2.0 * math.pi)
    assert np.floor(tau / h) == 24


def test_offset_start_with_phase_matches_the_stepper():
    # 641 samples also cross the boundary between two sample chunks
    floquet, stepper = _floquet_and_stepper(
        QubitSpec(0.7, 1.3), SemiclassicalDrive(6.0, 0.9),
        TimeGrid(1.25, 1.25 + 40.0 * 2.0 * math.pi, 641), 64,
    )
    assert np.max(np.abs(floquet - stepper)) <= 1e-11


@pytest.mark.parametrize("bias", [2.0, 0.7])
def test_gap_zero_floquet_operator(bias):
    # gap 0 makes F diagonal; at integer bias it is the identity, where
    # sin(theta) = 0 and the power formula must take its limit
    psi0 = QubitState(np.array([0.6, 0.8j]))
    floquet, stepper = _floquet_and_stepper(
        QubitSpec(0.0, bias), SemiclassicalDrive(10.0, 0.4),
        TimeGrid(0.0, 7.0 * 2.0 * math.pi, 113), 64, psi0,
    )
    assert np.max(np.abs(floquet - 0.64)) < 1e-12
    assert np.max(np.abs(floquet - stepper)) <= 1e-11


def _random_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(z)
    return q


@pytest.mark.parametrize("kind", ["random", "identity", "minus identity", "diagonal", "swap"])
def test_floquet_power_matches_repeated_products(kind):
    rng = np.random.default_rng(7)
    f = {
        "random": _random_unitary(rng),
        "identity": np.eye(2, dtype=complex),
        "minus identity": -np.eye(2, dtype=complex),
        "diagonal": np.diag(np.exp([0.3j, -1.1j])),
        "swap": np.array([[0.0, 1.0j], [1.0j, 0.0]]),
    }[kind]
    psi = np.array([0.6, 0.8j])
    powers = np.arange(0, 40)
    got = dynamics._floquet_power_on(f, psi, powers.astype(float))
    want = np.array([np.linalg.matrix_power(f, k) @ psi for k in powers])
    assert np.max(np.abs(got - want)) < 1e-13


@pytest.mark.parametrize("t_end", [1e9, 1e12, 1e15])
def test_long_horizons_keep_the_norm(t_end):
    # m theta reaches 1e7 and more: a cosine and a sine of two different
    # roundings of it would leave the norm by more than 1e-9 from t = 2.6e8 on
    trace = propagate_semiclassical(
        QubitSpec(0.4, 2.0), SemiclassicalDrive(10.0), QubitState.down(),
        TimeGrid(0.0, t_end, 1001),
    )
    assert trace.times[-1] == t_end and np.all(np.isfinite(trace.p_down))


def test_golden_grid_converges_for_both_stepping_rules():
    # the golden evolve case: its sample spacing is not a whole number of
    # steps, so Floquet and the stepper place step boundaries differently;
    # both stay within 1e-8 of a 16,384-step run
    qubit = QubitSpec(0.4, 2.0)
    drive = SemiclassicalDrive(10.0, 0.0)
    grid = TimeGrid(0.0, 20.0, 41)
    floquet, stepper = _floquet_and_stepper(qubit, drive, grid, 256)
    converged = propagate_semiclassical(
        qubit, drive, QubitState.down(), grid, steps_per_period=16384
    ).p_down
    assert np.max(np.abs(floquet - converged)) < 1e-8
    assert np.max(np.abs(stepper - converged)) < 1e-8


@pytest.mark.parametrize(
    "which, message", [("period", "unitarity"), ("partial step", "norm drifted")]
)
def test_non_unitary_steps_raise_norm_drift(monkeypatch, which, message):
    # the sample at exactly one period is F psi0 with no prefix and a
    # zero-width partial step, so the period's own check must catch a leak
    # in the period's steps, and the per-sample check one in the partial step
    real = dynamics._cf4_step_matrices

    def leaky(qubit, drive, t_start, h, count):
        scale = 1.0 + 1e-6 if (count > 1) == (which == "period") else 1.0
        return tuple(scale * entry for entry in real(qubit, drive, t_start, h, count))

    monkeypatch.setattr(dynamics, "_cf4_step_matrices", leaky)
    with pytest.raises(NormDriftError, match=message):
        propagate_semiclassical(
            QubitSpec(0.4, 2.0), SemiclassicalDrive(10.0), QubitState.down(),
            TimeGrid(0.0, 2.0 * math.pi, 2), steps_per_period=256,
        )


def test_period_too_large_for_memory_is_refused(monkeypatch):
    import lzsim.models

    def unreachable(*args):
        raise AssertionError("step matrices built before the memory check")

    monkeypatch.setattr(lzsim.models, "_physical_memory", lambda: 10**6)
    monkeypatch.setattr(dynamics, "_cf4_step_matrices", unreachable)
    with pytest.raises(ResourceLimitError, match="one period of 8192 steps"):
        propagate_semiclassical(
            QubitSpec(0.4, 2.0), SemiclassicalDrive(10.0), QubitState.down(),
            TimeGrid(0.0, 1.0, 3), steps_per_period=8192,
        )


def test_sample_times_beyond_memory_are_refused_before_allocating(monkeypatch):
    # 32 bytes a sample: the times and the trace arrays built on them
    import lzsim.models

    evolution = SpectralEvolution(QubitSpec(0.4, 2.0), CavityCoupling(0.1, 40))
    state = JointState.from_product(QubitState.down(), fock_state(3, 40), 40)
    monkeypatch.setattr(lzsim.models, "_physical_memory", lambda: 10**5)
    grid = TimeGrid(0.0, 1.0, 3126)
    with pytest.raises(ResourceLimitError, match="a trace of 3126 samples needs about 100032"):
        grid.times()
    with pytest.raises(ResourceLimitError, match="a trace of 3126 samples"):
        propagate_semiclassical(
            QubitSpec(0.4, 2.0), SemiclassicalDrive(10.0), QubitState.down(), grid,
            steps_per_period=64,
        )
    with pytest.raises(ResourceLimitError, match="a trace of 3126 samples"):
        evolution.traces(state, grid)


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


def _apply_hamiltonian(qubit, cavity, v):
    """rabi_hamiltonian(qubit, cavity) @ v from its ladder structure, v of shape (dim, k)."""
    levels = cavity.levels
    up, down = v[:levels], v[levels:]
    m = np.arange(cavity.n_min, cavity.n_max + 1.0)[:, None]
    ladder = cavity.coupling * np.sqrt(np.arange(cavity.n_min + 1.0, cavity.n_max + 1))[:, None]
    h_up = (m - 0.5 * qubit.bias) * up - 0.5 * qubit.gap * down
    h_down = (m + 0.5 * qubit.bias) * down - 0.5 * qubit.gap * up
    h_up[:-1] -= ladder * up[1:]
    h_up[1:] -= ladder * up[:-1]
    h_down[:-1] += ladder * down[1:]
    h_down[1:] += ladder * down[:-1]
    return np.concatenate((h_up, h_down))


def _residuals(qubit, cavity, energies, modes):
    """H v - E v for eigenpairs given on the whole window, shape (2, levels, k)."""
    resid = _apply_hamiltonian(qubit, cavity, modes) - modes * energies
    return resid.reshape(2, cavity.levels, -1)


def _column_norms(block):
    """Norm of each eigenpair's residual, from shape (2, levels, k)."""
    return np.sqrt(np.sum(block * block, axis=(0, 1)))


def _one_eigh_traces(qubit, cavity, initial, grid):
    """Population, quadrature and worst residual from one eigh of the whole window.

    The synthesis SpectralEvolution ran before it diagonalised tile by tile.
    """
    energies, modes = np.linalg.eigh(rabi_hamiltonian(qubit, cavity))
    coeff = modes.T @ initial.amplitudes
    t = grid.times()
    rot = np.exp(np.outer(energies, -1j * t)) * coeff[:, None]
    re = modes @ np.ascontiguousarray(rot.real)
    im = modes @ np.ascontiguousarray(rot.imag)
    levels = cavity.levels
    p = (re * re + im * im)[levels:].sum(axis=0)
    root = np.sqrt(np.arange(cavity.n_min + 1, cavity.n_max + 1))
    x = np.zeros(t.size)
    for block in (slice(0, levels), slice(levels, 2 * levels)):
        rb, ib = re[block], im[block]
        x += root @ (rb[:-1] * rb[1:] + ib[:-1] * ib[1:])
    resid = _residuals(qubit, cavity, energies, modes)
    return p, x, float(np.max(_column_norms(resid)))


def _tiled_residuals(evo):
    """Worst window residual of the kept modes, and the worst part of it outside their tiles.

    Each kept mode is zero-padded to the whole window first.
    """
    cav = evo.cavity
    worst = outside = 0.0
    for start, energies, modes in evo._tiles:
        rows = modes.shape[0] // 2
        full = np.zeros((2, cav.levels, energies.size))
        full[:, start : start + rows] = modes.reshape(2, rows, energies.size)
        full = full.reshape(cav.dim, energies.size)
        resid = _residuals(evo.qubit, cav, energies, full)
        worst = max(worst, float(np.max(_column_norms(resid), initial=0.0)))
        resid[:, start : start + rows] = 0.0
        outside = max(outside, float(np.max(_column_norms(resid), initial=0.0)))
    return worst, outside


def _tiled_against_one_eigh(gap, bias, coupling, mean):
    """SpectralEvolution on the adequate window against the one-eigh synthesis."""
    qubit = QubitSpec(gap, bias)
    n_max, n_min = adequate_n_max(mean, coupling), adequate_n_min(mean, coupling)
    cavity = CavityCoupling(coupling, n_max, n_min)
    initial = JointState.from_product(
        QubitState.down(), coherent_state(math.sqrt(mean), n_max, n_min), n_max, n_min
    )
    grid = TimeGrid(0.0, 60.0, 241)
    evo = SpectralEvolution(qubit, cavity)
    pop, quad = evo.traces(initial, grid, quadrature=True)
    p, x, full_residual = _one_eigh_traces(qubit, cavity, initial, grid)
    assert np.max(np.abs(pop.p_down - p)) <= 1e-10
    assert np.max(np.abs(quad.x_mean - x)) <= 1e-10
    worst, outside = _tiled_residuals(evo)
    assert worst <= 2.0 * full_residual
    # what a kept mode adds to its residual outside its tile is the edge leak
    scale = max(float(np.max(np.abs(energies), initial=0.0)) for _, energies, _ in evo._tiles)
    assert outside <= np.finfo(float).eps * scale
    return evo


@pytest.mark.parametrize(
    "gap, bias, coupling, mean",
    [
        (0.4, 2.0, 10.0 / (4.0 * math.sqrt(1000.0)), 1000.0),  # the Figure 4 drive
        (0.4, 2.0, 1.0, 200.0),
        (0.4, 20.0, 0.3, 400.0),
        (0.4, 20.5, 0.3, 1000.0),  # the last tile keeps no mode
        (0.4, 60.0, 0.3, 400.0),
        (0.0, 2.0, 0.3, 400.0),  # resonant doublets exactly degenerate
        (0.4, 2.0, 0.0, 400.0),
    ],
)
def test_tiles_match_one_diagonalisation_of_the_window(gap, bias, coupling, mean):
    evo = _tiled_against_one_eigh(gap, bias, coupling, mean)
    assert len(evo._tiles) > 1  # the comparison is of the tiled path


@pytest.mark.parametrize("amplitude, margin", [(10.0, 4), (9.0, 23)])
def test_too_narrow_a_margin_is_widened(monkeypatch, amplitude, margin):
    # a 4-level margin fails every check; at amplitude 9 a 23-level margin
    # fails only the edge-residual check (its worst mode leaks 5.3 eps max|E|).
    # The margin doubles until the tiles pass, and the traces still match the
    # one-eigh synthesis
    monkeypatch.setattr(dynamics, "_tile_margin", lambda qubit, cavity: margin)
    evo = _tiled_against_one_eigh(0.4, 2.0, amplitude / (4.0 * math.sqrt(1000.0)), 1000.0)
    assert evo._diagonalise_tiles(margin) is None
    assert evo._margin > margin and len(evo._tiles) > 1


def test_modes_no_tile_keeps_widen_the_margin(monkeypatch):
    # cores that leave two levels uncovered lose the modes centred there;
    # the count check widens the margin instead of evolving without them
    # (here up to one tile, since every tiling leaves the gap)
    tile_bounds = dynamics._tile_bounds

    def leave_a_gap(levels, margin):
        bounds = tile_bounds(levels, margin)
        if len(bounds) > 1:
            start, stop, core_start, core_stop = bounds[1]
            bounds[1] = (start, stop, core_start + 2, core_stop)
        return bounds

    monkeypatch.setattr(dynamics, "_tile_bounds", leave_a_gap)
    evo = _tiled_against_one_eigh(0.4, 2.0, 1.0, 200.0)
    assert len(evo._tiles) == 1


def test_modes_mixed_across_tiles_widen_the_margin(monkeypatch):
    # gap 2 at bias 0 puts levels m and m - 2 at the same energy m - 1; a
    # weak coupling lets neighbouring tiles mix such a pair differently, so
    # their kept modes overlap and the traces drift in norm.  The overlap
    # check widens the margin until no kept modes overlap.
    qubit, coupling, mean = QubitSpec(2.0, 0.0), 1e-7, 100.0
    n_max, n_min = adequate_n_max(mean, coupling), adequate_n_min(mean, coupling)
    initial = JointState.from_product(
        QubitState.down(), coherent_state(math.sqrt(mean), n_max, n_min), n_max, n_min
    )
    monkeypatch.setattr(dynamics, "_OVERLAP_TOL", math.inf)
    mixed = SpectralEvolution(qubit, CavityCoupling(coupling, n_max, n_min))
    assert dynamics._cross_tile_overlap(mixed._tiles) > 1e-3
    with pytest.raises(NormDriftError):
        mixed.traces(initial, TimeGrid(0.0, 60.0, 241))
    monkeypatch.undo()
    evo = _tiled_against_one_eigh(2.0, 0.0, coupling, mean)
    assert evo._margin > mixed._margin


def _direct_phase_traces(evo, initial, grid):
    """p_down and x_mean with one exp(-i E t) per mode and sample.

    The same cores, chunks and products as traces, but each phase is a
    direct exp; p_down is summed core by core as traces sums it, and x_mean
    over the whole window assembled from the core products.
    """
    coeffs = evo._prepare(initial)
    energies = np.concatenate([energies for _, energies, _ in evo._tiles])
    times = grid.times()
    levels = evo.cavity.levels
    root = np.sqrt(np.arange(evo.cavity.n_min + 1, evo.cavity.n_max + 1))
    p, x = np.empty(times.size), np.empty(times.size)
    for lo in range(0, times.size, dynamics._SAMPLE_CHUNK):
        t = times[lo : lo + dynamics._SAMPLE_CHUNK]
        n = t.size
        rot = np.exp(np.outer(energies, -1j * t)) * coeffs[:, None]
        phases = np.concatenate((rot.real, rot.imag), axis=1)
        re, im = np.empty((2, levels, n)), np.empty((2, levels, n))
        down = np.zeros(n)
        for start, stop, first, end, block in evo._cores:
            amp = (block @ phases[first:end]).reshape(2, stop - start, 2 * n)
            re[:, start:stop], im[:, start:stop] = amp[:, :, :n], amp[:, :, n:]
            dens = (amp[1] * amp[1]).sum(axis=0)
            down += dens[:n] + dens[n:]
        p[lo : lo + n] = down
        cross = np.zeros(n)
        for rb, ib in zip(re, im):
            cross += root @ (rb[:-1] * rb[1:] + ib[:-1] * ib[1:])
        x[lo : lo + n] = cross
    return np.clip(p, 0.0, 1.0), x


def _assert_phases_match_direct(evo, initial, grid, quadrature):
    pop, quad = evo.traces(initial, grid, quadrature=quadrature)
    p, x = _direct_phase_traces(evo, initial, grid)
    scale = max(float(np.max(np.abs(energies), initial=0.0)) for _, energies, _ in evo._tiles)
    tol = 8.0 * np.finfo(float).eps * scale * max(abs(grid.t0), abs(grid.t1)) + 1e-14
    assert np.max(np.abs(pop.p_down - p)) <= tol
    if quadrature:
        assert np.max(np.abs(quad.x_mean - x)) <= tol
    else:
        assert quad is None
    # the first sample of every block is a block factor alone: no rounding moves it
    assert np.array_equal(pop.p_down[::_PHASE_BLOCK], p[::_PHASE_BLOCK])


# 2 and 33 end in a partly filled block, 513 in a one-sample chunk, 2000 in a
# 464-sample chunk whose last block holds 16 samples
@pytest.mark.parametrize("samples", [2, 33, 513, 2000])
@pytest.mark.parametrize("quadrature", [False, True])
def test_factorised_phases_match_one_exp_per_sample(mean1000_evolution, samples, quadrature):
    evo, initial = mean1000_evolution
    _assert_phases_match_direct(evo, initial, TimeGrid(37.5, 222.5, samples), quadrature)


@pytest.fixture(scope="module")
def empty_tile_evolution():
    """Bias 20.5 at mean 1000 and coupling 0.3, where the last tile keeps no mode."""
    mean, coupling = 1000.0, 0.3
    n_max, n_min = adequate_n_max(mean, coupling), adequate_n_min(mean, coupling)
    evo = SpectralEvolution(QubitSpec(0.4, 20.5), CavityCoupling(coupling, n_max, n_min))
    assert min(energies.size for _, energies, _ in evo._tiles) == 0
    initial = JointState.from_product(
        QubitState.down(), coherent_state(math.sqrt(mean), n_max, n_min), n_max, n_min
    )
    return evo, initial


def test_factorised_phases_with_a_tile_that_keeps_no_mode(empty_tile_evolution):
    evo, initial = empty_tile_evolution
    _assert_phases_match_direct(evo, initial, TimeGrid(-20.0, 45.0, 513), True)


@pytest.mark.parametrize("case", ["tiles", "one tile", "empty tile"])
def test_core_blocks_hold_every_kept_mode_pair_once(
    mean1000_evolution, empty_tile_evolution, case
):
    # scattered back onto the window, the core blocks are each tile's kept
    # modes on that tile's rows: no (row, mode) pair dropped or counted twice
    if case == "tiles":
        evo, _ = mean1000_evolution
    elif case == "one tile":
        evo = SpectralEvolution(QubitSpec(0.4, 2.0), CavityCoupling(0.25, 80))
        assert len(evo._tiles) == 1
    else:
        evo, _ = empty_tile_evolution
    levels = evo.cavity.levels
    offsets = np.cumsum([0] + [energies.size for _, energies, _ in evo._tiles])
    expected = np.zeros((2, levels, offsets[-1]))
    for (start, _, modes), first, end in zip(evo._tiles, offsets, offsets[1:]):
        rows = modes.shape[0] // 2
        expected[:, start : start + rows, first:end] = modes.reshape(2, rows, -1)
    scattered = np.zeros_like(expected)
    edges = [0]
    for start, stop, first, end, block in evo._cores:
        assert start == edges[-1] < stop
        edges.append(stop)
        scattered[:, start:stop, first:end] += block.reshape(2, stop - start, end - first)
    assert edges[-1] == levels
    assert len(evo._cores) == len(evo._tiles)
    assert np.array_equal(scattered, expected)


def test_traces_stay_within_the_memory_estimate(monkeypatch):
    # construction and a 2,000-sample quadrature trace at mean 1000 and
    # amplitude 10: tracemalloc's peak stays under what the guard counted
    import tracemalloc

    needs = []
    check = dynamics._require_memory
    monkeypatch.setattr(
        dynamics, "_require_memory", lambda need, what: (needs.append(need), check(need, what))
    )
    mean, coupling = 1000.0, 10.0 / (4.0 * math.sqrt(1000.0))
    n_max, n_min = adequate_n_max(mean, coupling), adequate_n_min(mean, coupling)
    initial = JointState.from_product(
        QubitState.down(), coherent_state(math.sqrt(mean), n_max, n_min), n_max, n_min
    )
    tracemalloc.start()
    try:
        evo = SpectralEvolution(QubitSpec(0.4, 2.0), CavityCoupling(coupling, n_max, n_min))
        estimate = needs[-1]
        evo.traces(initial, TimeGrid(0.0, 185.0, 2000), quadrature=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(evo._tiles) > 1
    assert peak <= estimate


def test_factorised_and_direct_phases_are_near_exact(mean1000_evolution):
    # both phase forms stay within 2 eps |E t| + 4 eps of the exact phase of
    # the exact sample time t0 + j dt; the rounding of E t itself is the floor
    evo, _ = mean1000_evolution
    energies = np.concatenate([e for _, e, _ in evo._tiles])
    energies = np.sort(energies)[:: energies.size // 12][:12]
    grid = TimeGrid(37.5, 1037.5, 2000)
    t = grid.times()
    dt = (grid.t1 - grid.t0) / (grid.samples - 1)
    direct = np.exp(np.outer(energies, -1j * t))
    in_block = np.exp(np.outer(energies, -1j * (dt * np.arange(_PHASE_BLOCK))))
    factorised = np.concatenate([
        _sample_phases(energies, np.ones(energies.size), chunk[::_PHASE_BLOCK], in_block, chunk.size)
        for chunk in np.split(t, range(dynamics._SAMPLE_CHUNK, t.size, dynamics._SAMPLE_CHUNK))
    ], axis=1)
    eps = np.finfo(float).eps
    js = sorted(set(range(0, t.size, 7)) | {31, 32, 511, 512, t.size - 1})
    for i, energy in enumerate(energies):
        for j in js:
            exact = oracles.phase_ref(energy, grid.t0, dt, j)
            bound = 2.0 * eps * abs(energy * t[j]) + 4.0 * eps
            assert abs(direct[i, j] - exact) <= bound
            assert abs(factorised[i, j] - exact) <= bound


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
    cos_theta = math.cos(math.atan2(qubit.bias, qubit.gap))
    for n in (1, 4, 9):
        target = 2.0 * c * cos_theta * math.sqrt(n)
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
