import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lzsim import (
    Branch,
    CavityCoupling,
    JointState,
    QubitSpec,
    QubitState,
    SemiclassicalDrive,
    TruncationError,
    ResourceLimitError,
    SpectralEvolution,
    adequate_n_max,
    adequate_n_min,
    coherent_state,
    exact_splitting,
    fock_state,
    grwa_energy,
    grwa_state,
    mixing_angle,
    qubit_energy,
    rabi_hamiltonian,
    semiclassical_hamiltonian,
)


# ------------------------------------------------------------ static specs


def test_qubit_spec_validation():
    QubitSpec(gap=0.0, bias=0.0)  # degenerate limit is allowed
    with pytest.raises(ValueError):
        QubitSpec(gap=-0.1)
    with pytest.raises(ValueError):
        QubitSpec(gap=1.0, bias=-2.0)
    with pytest.raises(ValueError):
        QubitSpec(gap=math.nan)
    with pytest.raises(ValueError, match="gap"):
        QubitSpec(gap=math.inf)
    with pytest.raises(ValueError, match="bias"):
        QubitSpec(1.0, bias=math.inf)


def test_drive_validation():
    assert SemiclassicalDrive(0.0).phase == 0.0
    with pytest.raises(ValueError):
        SemiclassicalDrive(-1.0)
    with pytest.raises(ValueError, match="amplitude"):
        SemiclassicalDrive(math.inf)
    with pytest.raises(ValueError, match="phase"):
        SemiclassicalDrive(1.0, phase=math.nan)


def test_cavity_validation():
    cav = CavityCoupling(0.5, 10)
    assert cav.dim == 22
    with pytest.raises(ValueError):
        CavityCoupling(-0.5, 10)
    with pytest.raises(ValueError):
        CavityCoupling(0.5, 0)
    with pytest.raises(ValueError):
        CavityCoupling(0.5, 10.0)
    with pytest.raises(ValueError, match="coupling"):
        CavityCoupling(math.inf, 10)


def test_mixing_angle_and_energy():
    q = QubitSpec(gap=3.0, bias=4.0)
    assert qubit_energy(q) == pytest.approx(5.0, rel=1e-15)
    assert mixing_angle(q) == pytest.approx(math.atan2(4.0, 3.0), rel=1e-15)
    assert mixing_angle(QubitSpec(gap=1.0, bias=0.0)) == 0.0


# ------------------------------------------------------------ Hamiltonians


def test_semiclassical_hamiltonian_entries():
    q = QubitSpec(gap=0.3, bias=1.1)
    d = SemiclassicalDrive(2.0, phase=0.4)
    t = 0.7
    z = 0.5 * (1.1 + 2.0 * math.cos(t + 0.4))
    h = semiclassical_hamiltonian(q, d, t)
    assert h == pytest.approx(np.array([[-z, -0.15], [-0.15, z]]), rel=1e-15)


def test_rabi_hamiltonian_structure():
    q = QubitSpec(gap=0.8, bias=1.5)
    cav = CavityCoupling(0.3, 3)
    h = rabi_hamiltonian(q, cav)

    # build the same operator from explicit kron products
    n_states = 4
    eye_q = np.eye(2)
    sz = np.diag([1.0, -1.0])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    lower = np.diag(np.sqrt(np.arange(1.0, n_states)), 1)
    number = np.diag(np.arange(float(n_states)))
    ref = (
        -0.5 * q.gap * np.kron(sx, np.eye(n_states))
        - 0.5 * q.bias * np.kron(sz, np.eye(n_states))
        + np.kron(eye_q, number)
        - cav.coupling * np.kron(sz, lower + lower.T)
    )
    assert np.allclose(h, ref, atol=1e-15)
    assert np.array_equal(h, h.T)  # bitwise symmetric


def test_rabi_hamiltonian_symmetric_for_irrational_coupling():
    h = rabi_hamiltonian(QubitSpec(gap=0.1, bias=0.7), CavityCoupling(1.0 / 3.0, 50))
    assert np.array_equal(h, h.T)


# ------------------------------------------------------------ state vectors


def test_qubit_state_basis():
    assert QubitState.up().amplitudes[0] == 1.0
    assert QubitState.down().amplitudes[1] == 1.0
    with pytest.raises(ValueError):
        QubitState(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        QubitState(np.array([1.0, 0.0, 0.0]))


def test_joint_state_layout():
    n_max = 3
    cav = fock_state(2, n_max)
    state = JointState.from_product(QubitState.down(), cav, n_max)
    assert state.population_down() == pytest.approx(1.0, abs=1e-15)
    assert state.branch(Branch.DOWN)[2] == 1.0
    assert np.all(state.branch(Branch.UP) == 0.0)

    up = JointState.from_product(QubitState.up(), cav, n_max)
    assert up.population_down() == pytest.approx(0.0, abs=1e-15)
    assert up.amplitudes[2] == 1.0  # up block occupies the first n_max+1 slots


def test_joint_state_validation():
    with pytest.raises(ValueError):
        JointState(np.ones(8) / math.sqrt(8.0), 2)  # wrong length for n_max=2
    with pytest.raises(ValueError):
        JointState(np.ones(6), 2)  # unnormalised


def test_fock_state_vector():
    vec = fock_state(0, 5)
    assert vec[0] == 1.0 and np.all(vec[1:] == 0.0)
    with pytest.raises(ValueError):
        fock_state(6, 5)
    with pytest.raises(ValueError):
        fock_state(-1, 5)


def test_coherent_state_moments():
    alpha = 3.0
    n_max = 60
    vec = coherent_state(alpha, n_max)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-14)
    m = np.arange(n_max + 1)
    probs = vec * vec
    mean = float(probs @ m)
    var = float(probs @ (m - mean) ** 2)
    # Poisson statistics: mean = variance = alpha^2
    assert mean == pytest.approx(alpha * alpha, rel=1e-12)
    assert var == pytest.approx(alpha * alpha, rel=1e-10)


def test_coherent_state_zero_amplitude_is_vacuum():
    assert np.array_equal(coherent_state(0.0, 25), fock_state(0, 25))


def test_coherent_state_truncation_guard():
    with pytest.raises(TruncationError):
        coherent_state(5.0, 40)  # needs 25 + 50 + 20 = 95
    with pytest.raises(ValueError):
        coherent_state(-1.0, 100)


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(min_value=0.0, max_value=6.0, allow_nan=False))
def test_coherent_state_mean_property(alpha):
    n_max = 120
    vec = coherent_state(alpha, n_max)
    probs = vec * vec
    mean = float(probs @ np.arange(n_max + 1))
    assert mean == pytest.approx(alpha * alpha, rel=1e-9, abs=1e-9)


def test_adequate_n_max_covers_coherent_construction():
    for mean, coupling in [(0.0, 0.1), (10.0, 0.79), (100.0, 0.25), (1000.0, 0.079)]:
        n_max = adequate_n_max(mean, coupling)
        vec = coherent_state(math.sqrt(mean), n_max)  # must not raise
        assert vec.size == n_max + 1
    with pytest.raises(ValueError):
        adequate_n_max(-1.0, 0.1)
    with pytest.raises(ValueError):
        adequate_n_max(10.0, -0.1)
    for mean in (math.nan, math.inf):
        with pytest.raises(ValueError, match="mean occupation"):
            adequate_n_max(mean, 0.1)
    with pytest.raises(ValueError, match="coupling"):
        adequate_n_max(10.0, math.nan)


# -------------------------------------------------- displaced-branch states


def test_grwa_state_is_displaced_fock_column():
    cav = CavityCoupling(0.4, 50)
    for branch, sign in [(Branch.UP, +1.0), (Branch.DOWN, -1.0)]:
        state = grwa_state(branch, 2, cav)
        from scipy.linalg import expm

        lower = np.diag(np.sqrt(np.arange(1.0, 51.0)), 1)
        disp = expm(sign * cav.coupling * (lower.T - lower))
        ref = disp[:, 2]
        got = state.branch(branch).real
        # global sign is fixed by the dominant component
        if np.sign(got[2]) != np.sign(ref[2]):
            ref = -ref
        assert np.allclose(got, ref, atol=1e-10)
        other = Branch.DOWN if branch == Branch.UP else Branch.UP
        assert np.all(state.branch(other) == 0.0)


def test_grwa_state_truncation_guard():
    with pytest.raises(TruncationError):
        grwa_state(Branch.UP, 49, CavityCoupling(2.0, 50))
    with pytest.raises(ValueError):
        grwa_state(Branch.UP, 51, CavityCoupling(0.1, 50))


def test_grwa_energy_values():
    q = QubitSpec(gap=0.01, bias=2.0)
    cav = CavityCoupling(0.5, 30)
    # displaced-oscillator ladder: -/+ bias/2 + m - coupling^2
    assert grwa_energy(Branch.UP, 3, q, cav) == pytest.approx(-1.0 + 3.0 - 0.25)
    assert grwa_energy(Branch.DOWN, 0, q, cav) == pytest.approx(1.0 - 0.25)
    with pytest.raises(ValueError):
        grwa_energy(Branch.UP, -1, q, cav)


def test_grwa_energy_matches_spectrum_at_zero_gap():
    # with gap = 0 the displaced ladder is exact; compare against eigh
    q = QubitSpec(gap=0.0, bias=0.8)
    cav = CavityCoupling(0.3, 120)
    energies = np.linalg.eigh(rabi_hamiltonian(q, cav))[0]
    for branch in (Branch.UP, Branch.DOWN):
        for m in range(4):
            target = grwa_energy(branch, m, q, cav)
            assert np.min(np.abs(energies - target)) < 1e-9


# ------------------------------------------------------------- Fock window


def test_cavity_window_validation():
    cav = CavityCoupling(0.5, 10, 3)
    assert (cav.levels, cav.dim) == (8, 16)
    assert CavityCoupling(0.5, 10).levels == 11  # n_min defaults to 0
    for bad in (-1, 10, 11, 3.0, None):
        with pytest.raises(ValueError, match="n_min"):
            CavityCoupling(0.5, 10, bad)


def test_joint_state_window_validation():
    vec = fock_state(5, 10, 3)
    assert vec.size == 8 and vec[2] == 1.0
    state = JointState.from_product(QubitState.down(), vec, 10, 3)
    assert (state.n_min, state.levels) == (3, 8)
    assert state.population_down() == 1.0
    assert state.branch(Branch.DOWN)[2] == 1.0
    with pytest.raises(ValueError):
        JointState.from_product(QubitState.down(), fock_state(5, 10), 10, 3)  # full-length vector
    with pytest.raises(ValueError):
        JointState(state.amplitudes, 10, 2)  # length of a 3..10 window
    for bad in (-1, 10, 2.5):
        with pytest.raises(ValueError, match="n_min"):
            JointState(np.ones(2) / math.sqrt(2.0), 10, bad)
    with pytest.raises(ValueError):
        fock_state(2, 10, 3)  # below the window


def test_adequate_n_min_mirrors_n_max():
    c = 10.0 / (4.0 * math.sqrt(1000.0))
    assert adequate_n_min(1000.0, c) == 662
    assert adequate_n_max(1000.0, c) - adequate_n_min(1000.0, c) == 676
    assert adequate_n_min(10.0, 0.25) == 0
    assert adequate_n_min(200.0, 1.0) == 26  # floor(38.58) - 12
    for mean in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="mean occupation"):
            adequate_n_min(mean, 0.1)
    with pytest.raises(ValueError, match="coupling"):
        adequate_n_min(10.0, math.inf)
    for mean in (0.0, 3.0, 150.0, 1000.0, 5000.0):
        for coupling in (0.0, 0.1, 1.0):
            n_min = adequate_n_min(mean, coupling)
            n_max = adequate_n_max(mean, coupling)
            vec = coherent_state(math.sqrt(mean), n_max, n_min)  # must not raise
            assert vec.size == n_max - n_min + 1


def test_windowed_coherent_state_is_renormalised_slice():
    alpha = math.sqrt(1000.0)
    n_max = 1400
    full = coherent_state(alpha, n_max)
    for n_min in (1, 300, 662):
        part = full[n_min:]
        assert np.max(np.abs(coherent_state(alpha, n_max, n_min) - part / np.linalg.norm(part))) < 1e-14


def test_coherent_state_window_guard():
    alpha = math.sqrt(1000.0)  # alpha^2 - 10 alpha - 20 = 663.77
    coherent_state(alpha, 1400, 663)
    with pytest.raises(TruncationError, match="n_min=664"):
        coherent_state(alpha, 1400, 664)
    with pytest.raises(TruncationError):
        coherent_state(0.0, 40, 1)  # the vacuum has all its weight at n = 0


def test_coherent_state_rejects_non_finite_alpha():
    for alpha in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="alpha"):
            coherent_state(alpha, 50)


def test_windowed_hamiltonian_is_a_block_of_the_full_one():
    q = QubitSpec(gap=0.3, bias=1.7)
    n_min, n_max = 7, 30
    full = rabi_hamiltonian(q, CavityCoupling(0.45, n_max))
    part = rabi_hamiltonian(q, CavityCoupling(0.45, n_max, n_min))
    keep = np.r_[n_min : n_max + 1, n_max + 1 + n_min : 2 * (n_max + 1)]
    assert np.array_equal(part, full[np.ix_(keep, keep)])


def test_windowed_grwa_state_is_a_slice_of_the_full_one():
    full = grwa_state(Branch.DOWN, 30, CavityCoupling(0.4, 60))
    part = grwa_state(Branch.DOWN, 30, CavityCoupling(0.4, 60, 10))
    ref = full.branch(Branch.DOWN)[10:]
    assert np.allclose(part.branch(Branch.DOWN), ref / np.linalg.norm(ref), atol=1e-14)
    with pytest.raises(TruncationError, match="n_min=28"):
        grwa_state(Branch.DOWN, 30, CavityCoupling(0.4, 60, 28))  # cuts the lower tail
    with pytest.raises(ValueError):
        grwa_state(Branch.DOWN, 9, CavityCoupling(0.4, 60, 10))


# ----------------------------------------------------------- resource guard


def test_dense_memory_guard_raises_before_allocating(monkeypatch):
    import lzsim.models

    monkeypatch.setattr(lzsim.models, "_physical_memory", lambda: 4 * 10**6)
    qubit = QubitSpec(0.4, 2.0)
    # 8 * (5 * 2002^2 + 6 * 2002) bytes
    with pytest.raises(ResourceLimitError, match="dimension 2002 needs about 160416256 bytes"):
        SpectralEvolution(qubit, CavityCoupling(0.1, 1000))
    with pytest.raises(ResourceLimitError, match="4000000 bytes of physical memory"):
        exact_splitting(qubit, CavityCoupling(0.1, 1000), 10, 2)
    # the window is what is counted: 2 x 180 levels need 5.2 MB, 2 x 150 need 3.6 MB
    with pytest.raises(ResourceLimitError, match="dimension 360"):
        SpectralEvolution(qubit, CavityCoupling(0.1, 999, 820))
    SpectralEvolution(qubit, CavityCoupling(0.1, 999, 850))


def test_state_constructors_guard_memory_before_allocating(monkeypatch):
    # the first four vectors need more than the faked 4 MB; the guard must
    # raise before numpy is asked for them
    import lzsim.models

    monkeypatch.setattr(lzsim.models, "_physical_memory", lambda: 4 * 10**6)
    with pytest.raises(ResourceLimitError, match="4000000 bytes of physical memory"):
        coherent_state(1e6, adequate_n_max(1e12, 0.1))
    with pytest.raises(ResourceLimitError, match="on 1000001 levels needs about 8000008 bytes"):
        fock_state(0, 10**6)
    with pytest.raises(ResourceLimitError, match="coherent state on"):
        coherent_state(10.0, 10**5)  # 6.4 MB for the coherent amplitudes
    with pytest.raises(ResourceLimitError, match="displaced Fock state"):
        grwa_state(Branch.UP, 0, CavityCoupling(0.1, 10**12))
    assert fock_state(0, 10**5).size == 10**5 + 1  # 0.8 MB fits
