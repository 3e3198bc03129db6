import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lzsim import (
    Branch,
    CavityCoupling,
    ComparisonRow,
    FitDegenerateError,
    PairIdentificationError,
    QubitSpec,
    adequate_n_max,
    agreement_onset,
    bessel_laguerre_identity_error,
    comparison_grid,
    equivalent_amplitude,
    exact_splitting,
    figure_photon_grid,
    fit_amplitude_shift,
    grwa_state,
    predicted_shift,
    rabi_freq_quantum,
    rabi_freq_semiclassical,
    rabi_hamiltonian,
)


# ----------------------------------------------------- analytic frequencies


def test_semiclassical_frequency_is_signed_bessel():
    q = QubitSpec(gap=0.01, bias=0.0)
    assert rabi_freq_semiclassical(q, 10.0, 0) == pytest.approx(
        0.01 * oracles.bessel_ref(0, 10.0), rel=1e-10
    )
    # J_0(10) < 0: the sign must survive
    assert rabi_freq_semiclassical(q, 10.0, 0) < 0.0
    with pytest.raises(ValueError):
        rabi_freq_semiclassical(q, -1.0, 0)


def test_quantum_frequency_is_signed_overlap():
    q = QubitSpec(gap=0.01, bias=1.0)
    got = rabi_freq_quantum(q, 1.0, 30, 1)
    ref = 0.01 * oracles.overlap_ref(30, 1, 2.0)
    assert got == pytest.approx(ref, rel=1e-10)
    # L_1^1(4) = 2 - 4 < 0: the sign must survive
    assert rabi_freq_quantum(q, 1.0, 1, 1) < 0.0
    with pytest.raises(ValueError):
        rabi_freq_quantum(q, -1.0, 30, 1)


def test_equivalent_amplitude():
    assert equivalent_amplitude(0.25, 100.0) == pytest.approx(10.0, rel=1e-15)
    assert equivalent_amplitude(0.25, 99.0, shift=1.0) == pytest.approx(10.0, rel=1e-15)
    with pytest.raises(ValueError, match="got n \\+ shift="):
        equivalent_amplitude(0.25, 0.0, shift=-0.5)
    with pytest.raises(ValueError):
        equivalent_amplitude(-0.25, 4.0)
    with pytest.raises(ValueError, match="coupling"):
        equivalent_amplitude(math.inf, 4.0)
    # a non-finite argument is named itself, not through the sum
    for n, shift, name in [(math.nan, 0.0, "n"), (math.inf, 0.0, "n"), (4.0, math.nan, "shift")]:
        with pytest.raises(ValueError, match=f"got {name}="):
            equivalent_amplitude(0.1, n, shift)


# ------------------------------------------------------------ exact spectra


def test_exact_splitting_weak_coupling_matches_jc():
    # bias-dominated qubit, weak coupling: the ((up, n+1), (down, n)) doublet
    # gap is the one-photon splitting 2 c cos(theta) sqrt(n+1) up to
    # counter-rotating corrections of a few percent
    q = QubitSpec(gap=0.01, bias=1.0)
    cav = CavityCoupling(0.01, 40)
    cos_theta = math.cos(math.atan2(q.bias, q.gap))
    for n in (0, 3, 8):
        target = 2.0 * 0.01 * cos_theta * math.sqrt(n + 1)
        assert exact_splitting(q, cav, n, 1) == pytest.approx(target, rel=5e-2)


def test_exact_splitting_matches_quantum_route():
    # gap = 0.01 keeps the doublet perturbative; the displaced-overlap
    # frequency should then match the diagonalized gap tightly
    q = QubitSpec(gap=0.01, bias=0.0)
    cav = CavityCoupling(0.1, 60)
    for n in (0, 3, 10):
        target = abs(rabi_freq_quantum(q, 0.1, n, 0))
        assert exact_splitting(q, cav, n, 0) == pytest.approx(target, rel=1e-3)


def test_exact_splitting_validation():
    q = QubitSpec(gap=0.01, bias=0.0)
    cav = CavityCoupling(0.1, 30)
    with pytest.raises(ValueError):
        exact_splitting(q, cav, 2, 1)  # bias != k
    with pytest.raises(ValueError):
        exact_splitting(QubitSpec(0.01, 1.0), cav, 30, 1)  # n + k > n_max
    with pytest.raises(ValueError):
        exact_splitting(q, cav, -1, 0)


def test_exact_splitting_reports_unidentifiable_pairs():
    # a huge gap hybridizes everything; the doublet labels lose meaning
    q = QubitSpec(gap=30.0, bias=0.0)
    cav = CavityCoupling(1.0, 40)
    with pytest.raises(PairIdentificationError):
        exact_splitting(q, cav, 1, 0)


def _full_basis_splitting(qubit, cavity, n, k):
    # the replaced body: eigh of the whole cavity, modes weighed against the
    # full doublet columns
    energies, modes = np.linalg.eigh(rabi_hamiltonian(qubit, cavity))
    pair_a = grwa_state(Branch.UP, n + k, cavity).amplitudes.real
    pair_b = grwa_state(Branch.DOWN, n, cavity).amplitudes.real
    weights = (modes.T @ pair_a) ** 2 + (modes.T @ pair_b) ** 2
    first, second = np.argsort(weights)[-2:]
    return float(abs(energies[first] - energies[second]))


def _splitting_cases():
    # (coupling, n_max, n_min, n, k), all at gap 0.01
    cases = []
    for coupling in (0.1, 1.0):  # test_02's grid
        for k in (0, 1, 2):
            cases += [(coupling, 80, 0, n, k) for n in range(11)]
    cases += [(0.01, 40, 0, n, 1) for n in (0, 3, 8)]
    cases += [(0.1, 60, 0, n, 0) for n in (0, 3, 10)]
    n_max = adequate_n_max(300, 1.0)
    for coupling in (0.1, 0.55, 1.0):
        cases += [(coupling, n_max, 0, 300, k) for k in (0, 1, 2, 5)]
    cases.append((0.55, n_max, 200, 300, 2))  # a caller's cavity with n_min > 0
    cases.append((1.0, adequate_n_max(1000, 1.0), 0, 1000, 5))
    return cases


def test_windowed_splitting_matches_the_full_basis():
    # eigh rounding alone separates the two: a few ulps of the doublet
    # energy, about n + k
    eps = np.finfo(float).eps
    for coupling, n_max, n_min, n, k in _splitting_cases():
        qubit, cavity = QubitSpec(0.01, float(k)), CavityCoupling(coupling, n_max, n_min)
        got = exact_splitting(qubit, cavity, n, k)
        want = _full_basis_splitting(qubit, cavity, n, k)
        assert abs(got - want) <= 64 * eps * (n + k + 1), (coupling, n_min, n, k, got, want)


def test_exact_splitting_at_figure_grid_photon_numbers():
    qubit = QubitSpec(0.01, 5.0)
    start = time.perf_counter()
    got = exact_splitting(qubit, CavityCoupling(1.0, adequate_n_max(1000, 1.0)), 1000, 5)
    elapsed = time.perf_counter() - start
    assert got == pytest.approx(abs(rabi_freq_quantum(qubit, 1.0, 1000, 5)), rel=0.02)
    assert elapsed < 3.0, f"exact_splitting at n = 1000 took {elapsed:.2f} s"


# -------------------------------------------------------- comparison grids


def test_comparison_grid_rows():
    q = QubitSpec(gap=0.01, bias=2.0)
    rows = comparison_grid(q, 0.1, 2, [5, 1, 5, 3])
    assert [r.n for r in rows] == [1, 3, 5]  # sorted, deduplicated
    for r in rows:
        assert r.a_eff == pytest.approx(0.4 * math.sqrt(r.n), rel=1e-15)
        assert r.omega_s == pytest.approx(rabi_freq_semiclassical(q, r.a_eff, 2), rel=1e-15)
        assert r.omega_q == pytest.approx(rabi_freq_quantum(q, 0.1, r.n, 2), rel=1e-15)


def test_comparison_grid_validation():
    q = QubitSpec(gap=0.01, bias=1.0)
    with pytest.raises(ValueError):
        comparison_grid(q, 0.1, 2, [1, 2])  # off resonance
    with pytest.raises(ValueError):
        comparison_grid(q, 0.1, 1, [])
    with pytest.raises(ValueError):
        comparison_grid(q, 0.1, 1, [-1, 2])


def test_comparison_grid_accepts_shift():
    q = QubitSpec(gap=0.01, bias=0.0)
    rows = comparison_grid(q, 0.1, 0, [4], shift=0.5)
    assert rows[0].a_eff == pytest.approx(0.4 * math.sqrt(4.5), rel=1e-15)


def test_agreement_onset_synthetic():
    def row(n, s, q):
        return ComparisonRow(n=n, omega_s=s, omega_q=q, a_eff=0.0)

    gap = 0.01
    rows = [
        row(0, 1.0, 2.0),     # disagrees
        row(1, 1.0, 1.05),    # agrees
        row(2, 1.0, 1.5),     # disagrees again: onset resets
        row(3, 1.0, 1.02),    # agrees
        row(4, 0.0, 1e-4),    # both below gap/8 floor: reads as agreement
    ]
    assert agreement_onset(rows, gap) == 3
    assert agreement_onset(rows[:3], gap) is None
    assert agreement_onset([row(7, 1.0, 1.0)], gap) == 7


def test_figure_photon_grid_shape():
    grid = figure_photon_grid()
    assert grid[0] == 0 and grid[-1] == 1000
    assert len(grid) == len(set(grid)) == 65
    assert all(b > a for a, b in zip(grid, grid[1:]))
    assert set(range(0, 11)).issubset(grid)
    assert 95 in grid and 975 in grid


# -------------------------------------------------------------- shift fits


def test_fit_shift_matches_independent_minimizer():
    ns = range(100, 1001, 25)
    for coupling, k in [(0.1, 0), (0.1, 2), (1.0, 1)]:
        got = fit_amplitude_shift(QubitSpec(gap=0.01, bias=float(k)), coupling, k, ns)
        ref_offset, ref_residual = oracles.fit_offset_ref(0.01, coupling, k, ns)
        assert got.offset == pytest.approx(ref_offset, abs=1e-6)
        assert got.residual == pytest.approx(ref_residual, rel=1e-6, abs=1e-15)


def test_fit_shift_recovers_half_integer_rule():
    # for weak coupling on a large-n grid the fitted offset approaches
    # k/2 + 1/2 - coupling^2/3
    q = QubitSpec(gap=0.01, bias=1.0)
    fit = fit_amplitude_shift(q, 0.1, 1, range(100, 1001, 25))
    assert fit.offset == pytest.approx(predicted_shift(0.1, 1), abs=0.05)


def test_fit_shift_degenerate_objective():
    # coupling so small that omega_s is flat in the shift over the bracket
    q = QubitSpec(gap=0.01, bias=0.0)
    with pytest.raises(FitDegenerateError):
        fit_amplitude_shift(q, 1e-12, 0, [1_000_000])


def test_fit_shift_validation():
    q = QubitSpec(gap=0.01, bias=0.0)
    with pytest.raises(ValueError):
        fit_amplitude_shift(q, 0.1, 0, [])
    with pytest.raises(ValueError):
        fit_amplitude_shift(q, 0.1, 0, [-1, 5])
    with pytest.raises(ValueError):
        fit_amplitude_shift(q, -0.1, 0, [5])
    with pytest.raises(ValueError):
        fit_amplitude_shift(q, 0.1, -1, [5])


def test_predicted_shift_values():
    assert predicted_shift(0.1, 0) == pytest.approx(0.5 - 0.01 / 3.0, rel=1e-14)
    assert predicted_shift(1.0, 2) == pytest.approx(1.5 - 1.0 / 3.0, rel=1e-14)
    assert predicted_shift(0.1, 1) == pytest.approx(1.0 - 0.01 / 3.0, rel=1e-14)


# --------------------------------------------------------- overlap identity


def test_identity_error_against_extended_precision():
    for x, n, k in [(0.1, 100, 0), (0.05, 400, 2), (0.01, 900, 5), (0.1, 0, 1)]:
        got = bessel_laguerre_identity_error(x, n, k)
        ref = oracles.identity_error_ref(x, n, k)
        assert got == pytest.approx(ref, rel=1e-8, abs=1e-12)


def test_identity_error_small_x_large_n_is_small():
    # the regime where both routes describe the same physics
    assert bessel_laguerre_identity_error(0.01, 1000, 1) < 1e-3
    assert bessel_laguerre_identity_error(0.05, 900, 0) < 5e-3


def test_identity_error_vacuum_counterexample():
    # at n = 0 the Bessel side vanishes for k >= 1 while the overlap side
    # does not; the mismatch is structural, not numerical
    err = bessel_laguerre_identity_error(0.1, 0, 1)
    assert err == pytest.approx(196.04, rel=1e-3)


def test_identity_error_negative_control():
    # a deliberately broken pairing (wrong k on one side) must register big
    lhs_k1_err = bessel_laguerre_identity_error(0.05, 400, 2)
    assert lhs_k1_err < 0.01
    mismatched = abs(
        oracles.bessel_ref(1, 4 * 0.05 * math.sqrt(400))
        - oracles.overlap_ref(400, 2, 0.1)
    ) / max(abs(oracles.bessel_ref(1, 4 * 0.05 * math.sqrt(400))), 1e-3)
    assert mismatched > 10.0 * lhs_k1_err


def test_identity_error_rejects_negative_x():
    with pytest.raises(ValueError):
        bessel_laguerre_identity_error(-0.1, 10, 0)


def test_identity_error_refuses_huge_n_before_the_bessel_pass(monkeypatch):
    # J_0(4e7) alone would take seconds; the overlap's index bound must come first
    def no_bessel(k, x):
        raise AssertionError(f"bessel_j({k}, {x}) evaluated before the index check")

    monkeypatch.setattr("lzsim.spectra.bessel_j", no_bessel)
    with pytest.raises(ValueError, match="above supported range"):
        bessel_laguerre_identity_error(0.1, 10**16, 0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=50, max_value=1000),
    k=st.integers(min_value=0, max_value=5),
)
def test_identity_error_property_small_x(n, k):
    # x = 0.01: past n = 50 every order up to 5 stays within 5%, either
    # genuinely or through the denominator floor at high k
    assert bessel_laguerre_identity_error(0.01, n, k) < 0.05
