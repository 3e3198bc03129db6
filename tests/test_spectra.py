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
    bessel_j,
    bessel_laguerre_identity_error,
    comparison_grid,
    equivalent_amplitude,
    exact_splitting,
    displaced_fock_overlap,
    figure_photon_grid,
    fit_amplitude_shift,
    grwa_state,
    predicted_shift,
    rabi_freq_quantum,
    rabi_freq_semiclassical,
    rabi_hamiltonian,
)
from lzsim.spectra import _band_lu, _band_solve, _shift_objective, _zeroin


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


def test_exact_splitting_resolves_a_small_gap_at_n_1000():
    # the doublet sits near n = 1000: an unshifted dense eigh, rounding at
    # about eps n, put the splitting 6.2e-9 off the 40-digit value; the
    # centred band iteration is within 3.5e-16 of it
    qubit, cavity = QubitSpec(1e-4, 2.0), CavityCoupling(0.1, adequate_n_max(1000, 0.1))
    want = oracles.splitting_ref(1e-4, 2.0, 0.1, 1000, 2)
    assert exact_splitting(qubit, cavity, 1000, 2) == pytest.approx(want, rel=1e-11, abs=0.0)


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


def test_exact_splitting_failures_name_inputs_and_thresholds():
    # converged onto two modes that are not the doublet
    with pytest.raises(
        PairIdentificationError,
        match=r"doublet \(n=10, k=0\) at gap=1.5, bias=0.0, coupling=0.1 on the window "
        r"n_min=\d+, n_max=\d+: captured weight 0\.\d+ < 0.8",
    ):
        exact_splitting(QubitSpec(1.5, 0.0), CavityCoupling(0.1, 400), 10, 0)
    # the doublet is not isolated: the iteration stalls
    with pytest.raises(
        PairIdentificationError,
        match=r"doublet \(n=1, k=0\) at gap=30.0, bias=0.0, coupling=1.0 on the window "
        r"n_min=0, n_max=\d+: Ritz residual \S+ still above \S+ after 16 inverse iterations",
    ):
        exact_splitting(QubitSpec(30.0, 0.0), CavityCoupling(1.0, 40), 1, 0)


@pytest.mark.parametrize("pivot", [1, 2])
@pytest.mark.parametrize("size", [4, 5, 9, 40])
def test_band_solve_matches_a_dense_solve(size, pivot):
    # exact_splitting's band layout (no entry between (down, m) and
    # (up, m+1)), with column 0 zero on two of its three candidate rows, so
    # that it must pivot on the other
    rng = np.random.default_rng(size)
    diag, off1, off2 = rng.normal(size=size), rng.normal(size=size - 1), rng.normal(size=size - 2)
    off1[1::2] = 0.0
    diag[0] = 0.0
    (off2 if pivot == 1 else off1)[0] = 0.0
    dense = np.diag(diag) + np.diag(off1, 1) + np.diag(off1, -1) + np.diag(off2, 2) + np.diag(off2, -2)
    rhs = rng.normal(size=(size, 2))
    got = _band_solve(_band_lu(diag, off1, off2), rhs)
    assert np.allclose(got, np.linalg.solve(dense, rhs), rtol=1e-12, atol=1e-12)


def test_exact_splitting_runs_no_dense_diagonalisation(monkeypatch):
    import lzsim.models

    def refuse(*args, **kwargs):
        raise AssertionError("exact_splitting reached a dense route")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(lzsim.models, "rabi_hamiltonian", refuse)
    for coupling, n_max, n_min, n, k in _splitting_cases()[::5]:
        qubit, cavity = QubitSpec(0.01, float(k)), CavityCoupling(coupling, n_max, n_min)
        assert exact_splitting(qubit, cavity, n, k) > 0.0


def test_exact_splitting_takes_few_inverse_iterations(monkeypatch):
    # the seeds are the doublet to first order in the gap, and each step
    # contracts the residual by about half the splitting (at most 0.005
    # here), so two steps reach the bound, three where the seed is rougher
    import lzsim.spectra

    solves = []
    band_solve = lzsim.spectra._band_solve

    def counted(factors, rhs):
        solves.append(rhs.shape)
        return band_solve(factors, rhs)

    monkeypatch.setattr(lzsim.spectra, "_band_solve", counted)
    for coupling, n_max, n_min, n, k in _splitting_cases():
        solves.clear()
        exact_splitting(QubitSpec(0.01, float(k)), CavityCoupling(coupling, n_max, n_min), n, k)
        assert 1 <= len(solves) <= 3, (coupling, n_min, n, k, len(solves))


@pytest.mark.parametrize("coupling, k, levels", [(1.0, 5, 236), (0.55, 2, 152)])
def test_exact_splitting_matches_mpmath_at_strong_coupling(coupling, k, levels):
    # each Ritz value is within eps levels / delta of its eigenvalue, with
    # levels the window's width (236 and 152 levels here) and delta, the
    # distance to the next levels, about 1: so the splitting is within
    # eps levels absolute, eps levels / splitting relative (4e-10 and 3e-11)
    qubit, cavity = QubitSpec(0.01, float(k)), CavityCoupling(coupling, adequate_n_max(300, 1.0))
    want = oracles.splitting_ref(0.01, float(k), coupling, 300, k)
    got = exact_splitting(qubit, cavity, 300, k)
    assert abs(got - want) <= np.finfo(float).eps * levels, (got, want)


@pytest.mark.parametrize("gap", [1e-12, 0.0])
def test_exact_splitting_of_a_degenerate_doublet(gap):
    # H - sigma is singular to working precision, and exactly singular at
    # gap 0 and coupling 0, where two pivots are exactly 0: none may divide,
    # and the splitting stays within eps times the window's width of
    # gap |overlap|
    for coupling, n, k in ((0.1, 10, 0), (1.0, 300, 2), (0.3, 5, 1), (0.0, 10, 2)):
        qubit = QubitSpec(gap, float(k))
        cavity = CavityCoupling(coupling, adequate_n_max(n, coupling))
        got = exact_splitting(qubit, cavity, n, k)
        assert math.isfinite(got) and got >= 0.0
        want = abs(rabi_freq_quantum(qubit, coupling, n, k))
        assert abs(got - want) <= np.finfo(float).eps * cavity.levels, (coupling, n, k, got)


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


SHIFT_NS = range(100, 1001, 25)


@pytest.mark.parametrize("coupling", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("k", [0, 2, 5])
def test_fit_shift_is_the_root_of_the_gradient(coupling, k):
    # a root pins its argument to rounding, a minimiser only to about sqrt(eps):
    # golden section sat up to 1.7e-8 from this root, the zeroin fit 1.1e-10
    fit = fit_amplitude_shift(QubitSpec(0.01, float(k)), coupling, k, SHIFT_NS)
    ref = oracles.fit_offset_root_ref(0.01, coupling, k, SHIFT_NS, fit.offset)
    assert abs(fit.offset - ref) <= 5e-10


def _golden_section_shift(gap, coupling, k, ns):
    """The fit's former rule: golden section on the objective, down to a 1e-10 bracket."""
    qubit = QubitSpec(gap, float(k))
    targets = [rabi_freq_quantum(qubit, coupling, n, k) for n in ns]

    def objective(s):
        return sum((gap * bessel_j(k, 4.0 * coupling * math.sqrt(n + s)) - t) ** 2
                   for n, t in zip(ns, targets))

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = max(-2.0, -float(min(ns))), 0.5 * k + 2.0
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a >= 1e-10:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = objective(d)
    return 0.5 * (a + b)


@pytest.mark.parametrize("coupling", [0.1, 1.0])
@pytest.mark.parametrize("k", [0, 1, 2, 5])
def test_fit_shift_agrees_with_the_golden_section_it_replaced(coupling, k):
    fit = fit_amplitude_shift(QubitSpec(0.01, float(k)), coupling, k, SHIFT_NS)
    assert abs(fit.offset - _golden_section_shift(0.01, coupling, k, SHIFT_NS)) <= 1e-7


@pytest.mark.parametrize("coupling", [0.1, 1.0])
@pytest.mark.parametrize("k", [0, 1, 2, 5])
def test_fit_shift_makes_few_kernel_passes(monkeypatch, coupling, k):
    # golden section made 59-60; five probes and one zeroin make 9-20
    import lzsim.spectra as spectra

    passes = []
    column = spectra._bessel_column

    def counting(*args, **kwargs):
        passes.append(args[0])
        return column(*args, **kwargs)

    monkeypatch.setattr(spectra, "_bessel_column", counting)
    fit_amplitude_shift(QubitSpec(0.01, float(k)), coupling, k, SHIFT_NS)
    assert 6 <= len(passes) <= 20


@pytest.mark.parametrize("k", [0, 1, 2])
def test_shift_gradient_at_a_zero_radicand_is_the_one_sided_limit(k):
    # n = 0 at s = lo = 0: a = 0, where the factor 8c^2/a divides by zero; the
    # limit of dJ_k/ds is -4c^2, +inf and 2c^2 at k = 0, 1, 2
    gap, coupling = 0.01, 0.5
    ns = np.arange(0.0, 11.0)
    targets = gap * np.array([displaced_fock_overlap(n, k, 2.0 * coupling) for n in range(11)])
    f0, g0 = _shift_objective(0.0, k, coupling, gap, ns, targets)
    f1, g1 = _shift_objective(1e-24, k, coupling, gap, ns, targets)
    assert f0 == pytest.approx(f1, rel=1e-9)
    if k == 1:  # J_1 rises like sqrt(s) toward omega_q(0) > 0
        assert g0 == -math.inf and g1 < -1e3
    else:
        assert math.isfinite(g0) and g0 == pytest.approx(g1, rel=1e-6)
    # where omega_q(0) = 0 the k = 1 term is 0 * inf; it tends to 2 gap c^2
    g0 = _shift_objective(0.0, k, coupling, gap, ns[:1], np.zeros(1))[1]
    g1 = _shift_objective(1e-24, k, coupling, gap, ns[:1], np.zeros(1))[1]
    assert g0 == pytest.approx(g1, rel=1e-9, abs=1e-15)
    assert g0 == pytest.approx((-4.0, 2.0, 0.0)[k] * gap * coupling**2, rel=1e-15)
    fit = fit_amplitude_shift(QubitSpec(gap, float(k)), coupling, k, range(0, 11))
    assert math.isfinite(fit.offset) and math.isfinite(fit.residual)


def test_fit_shift_with_several_minima_is_the_lowest_candidate():
    # c = 3 on n = 0..10: f has several minima.  f and g are rebuilt from scipy
    # primitives, the candidates by the fit's rule: a -/+ root of g in each
    # probe interval where g goes from <= 0 to >= 0, lo if g(lo) > 0, hi if
    # g(hi) < 0.  The fit must be one of them, the one with the lowest f.
    from scipy.optimize import brentq
    from scipy.special import jv, jvp

    gap, coupling, ns = 0.01, 3.0, range(0, 11)
    counts = []
    for k in (0, 1, 2, 5):
        targets = [gap * oracles.overlap_ref(n, k, 2.0 * coupling) for n in ns]

        def f(s):
            return sum((gap * jv(k, 4.0 * coupling * math.sqrt(n + s)) - t) ** 2
                       for n, t in zip(ns, targets))

        def g(s):
            total = 0.0
            for n, t in zip(ns, targets):
                if n + s == 0.0:  # the one-sided limits at a = 0
                    total += ((gap - t) * -4.0 * coupling**2, -math.inf * t,
                              -t * 2.0 * coupling**2)[k] if k <= 2 else 0.0
                    continue
                a = 4.0 * coupling * math.sqrt(n + s)
                total += (gap * jv(k, a) - t) * jvp(k, a) * 2.0 * coupling / math.sqrt(n + s)
            return total

        lo, hi = 0.0, 0.5 * k + 2.0
        probes = [lo + q * (hi - lo) for q in (0.0, 0.25, 0.5, 0.75, 1.0)]
        grads = [g(s) for s in probes]
        candidates = ([lo] if grads[0] > 0.0 else []) + ([hi] if grads[-1] < 0.0 else [])
        candidates += [brentq(g, a, b, xtol=1e-14)
                       for a, b, ga, gb in zip(probes, probes[1:], grads, grads[1:])
                       if ga <= 0.0 <= gb]
        counts.append(len(candidates))

        fit = fit_amplitude_shift(QubitSpec(gap, float(k)), coupling, k, ns)
        if fit.offset == lo:
            assert g(lo) > 0.0
        elif fit.offset == hi:
            assert g(hi) < 0.0
        else:
            assert g(fit.offset - 1e-7) < 0.0 < g(fit.offset + 1e-7)
        assert f(fit.offset) <= min(f(s) for s in candidates) * (1.0 + 1e-9)
    assert max(counts) >= 2


def test_zeroin_starts_from_an_infinite_end_and_stops_at_the_tolerance():
    calls = []

    def func(s):
        calls.append(s)
        return -math.inf if s == 0.0 else math.expm1(s) - 0.3

    root = _zeroin(func, 0.0, 1.0, -math.inf, math.expm1(1.0) - 0.3, 1e-14)
    assert abs(root - math.log1p(0.3)) <= 1e-14
    assert 0.0 not in calls and len(calls) <= 12
    assert _zeroin(func, 0.5, 1.0, 0.0, 1.0, 1e-14) == 0.5  # a zero end is the root


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
