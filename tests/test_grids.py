"""The grid paths against the per-cell paths they replace, bit for bit.

One Laguerre recurrence now serves every degree of a (k, x) column.  Each
grid value must equal the per-cell value exactly, the sign of a zero
included, so these tests compare with `==` and never with a tolerance.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lzsim import (
    QubitSpec,
    assoc_laguerre_scaled,
    bessel_laguerre_identity_error,
    comparison_grid,
    displaced_fock_overlap,
    fit_amplitude_shift,
    rabi_freq_quantum,
    rabi_freq_semiclassical,
)
from lzsim.specfun import _laguerre_scaled_pass, displaced_fock_overlap_grid
from lzsim.spectra import bessel_laguerre_identity_error_grid

_RESCALE = 1e250
_LOG_RESCALE = math.log(_RESCALE)


def per_degree_laguerre(n, k, x):
    """The per-degree recurrence the shared pass replaced, kept as the reference."""
    if n == 0:
        return 1.0, 0.0
    prev = 1.0
    cur = 1.0 + k - x
    log_scale = 0.0
    for m in range(1, n):
        prev, cur = cur, ((2 * m + k + 1 - x) * cur - (m + k) * prev) / (m + 1)
        if abs(cur) > _RESCALE or abs(prev) > _RESCALE:
            prev /= _RESCALE
            cur /= _RESCALE
            log_scale += _LOG_RESCALE
    return cur, log_scale


def identical(a, b):
    """Equal floats with the same sign bit, so 0.0 and -0.0 differ."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def identical_pairs(got, want):
    return len(got) == len(want) and all(
        identical(g[0], w[0]) and identical(g[1], w[1]) for g, w in zip(got, want)
    )


# ------------------------------------------------------------ the Laguerre pass


def test_scalar_laguerre_equals_the_per_degree_recurrence_in_the_rescaled_range():
    got = assoc_laguerre_scaled(500, 3, 2000.0)
    assert got[1] > 0.0  # the rescale branch ran
    assert identical_pairs([got], [per_degree_laguerre(500, 3, 2000.0)])


@settings(max_examples=120, deadline=None)
@given(
    degrees=st.lists(st.integers(min_value=0, max_value=600), min_size=1, max_size=25),
    k=st.integers(min_value=0, max_value=12),
    x=st.floats(min_value=0.0, max_value=2500.0, allow_nan=False),
)
def test_pass_over_unsorted_repeated_degrees_equals_each_degree_alone(degrees, k, x):
    want = [per_degree_laguerre(n, k, x) for n in degrees]
    assert identical_pairs(_laguerre_scaled_pass(degrees, k, x), want)


@settings(max_examples=60, deadline=None)
@given(
    ns=st.lists(st.integers(min_value=0, max_value=400), min_size=1, max_size=15),
    k=st.integers(min_value=0, max_value=8),
    d=st.floats(min_value=0.0, max_value=45.0, allow_nan=False),
)
def test_overlap_grid_over_unsorted_repeated_n_equals_each_cell(ns, k, d):
    got = displaced_fock_overlap_grid(ns, k, d)
    assert len(got) == len(ns)
    assert all(identical(g, displaced_fock_overlap(n, k, d)) for g, n in zip(got, ns))


# ----------------------------------------------------------------- overlaps

# dense at small n, sparse up to 1,200, shuffled so the grid sees no order
OVERLAP_NS = list(range(0, 40)) + list(range(40, 1201, 41)) + [1200, 7, 7]
random.Random(8).shuffle(OVERLAP_NS)


@pytest.mark.parametrize("d", [0.0, 0.02, 0.2, 2.0, 12.0, 40.0])
def test_overlap_grid_equals_scalar_overlap(d):
    for k in range(13):
        got = displaced_fock_overlap_grid(OVERLAP_NS, k, d)
        want = [displaced_fock_overlap(n, k, d) for n in OVERLAP_NS]
        bad = [(n, g, w) for n, g, w in zip(OVERLAP_NS, got, want) if not identical(g, w)]
        assert not bad, f"d={d}, k={k}: (n, grid, scalar) {bad[:3]}"


def test_overlap_grid_cells_reach_the_rescaled_range():
    # d = 40 puts L_n^k(1600) far beyond 1e250, so log_scale > 0 is exercised
    laguerre = _laguerre_scaled_pass(OVERLAP_NS, 12, 1600.0)
    assert any(log_scale > 0.0 for _, log_scale in laguerre)


# -------------------------------------------------------- spectra and the CLI


def test_identity_grid_equals_scalar_on_the_readme_sweep():
    xs, ns, ks = (0.01, 0.05, 0.1), range(0, 1001), range(0, 6)
    errors = bessel_laguerre_identity_error_grid(xs, ns, ks)
    cells = 0
    for x, plane in zip(xs, errors):
        for n, line in zip(ns, plane):
            for k, error in zip(ks, line):
                assert identical(error, bessel_laguerre_identity_error(x, n, k)), (x, n, k)
                cells += 1
    assert cells == 18_018


def test_identity_grid_keeps_order_and_repeats():
    xs, ns, ks = (0.05, 0.01, 0.05), (7, 3, 7, 0, 900), (2, 0, 2, 5)
    errors = bessel_laguerre_identity_error_grid(xs, ns, ks)
    assert [len(errors), len(errors[0]), len(errors[0][0])] == [3, 5, 4]
    for x, plane in zip(xs, errors):
        for n, line in zip(ns, plane):
            for k, error in zip(ks, line):
                assert identical(error, bessel_laguerre_identity_error(x, n, k))


def test_comparison_grid_rows_equal_the_scalar_routes():
    for coupling, k in [(0.1, 2), (1.0, 5), (3.0, 0)]:
        qubit = QubitSpec(0.01, float(k))
        for row in comparison_grid(qubit, coupling, k, range(0, 1001, 7), shift=0.3):
            assert identical(row.omega_q, rabi_freq_quantum(qubit, coupling, row.n, k))
            assert identical(row.omega_s, rabi_freq_semiclassical(qubit, row.a_eff, k))


def test_fit_shift_targets_equal_the_scalar_route(monkeypatch):
    # the fit reads its targets off one pass; the result must not move
    import lzsim.spectra as spectra

    qubit, coupling, k, ns = QubitSpec(0.01, 2.0), 0.5, 2, range(100, 1001, 100)
    fast = fit_amplitude_shift(qubit, coupling, k, ns)

    def per_cell(ns, k, d):
        return [displaced_fock_overlap(n, k, d) for n in ns]

    monkeypatch.setattr(spectra, "displaced_fock_overlap_grid", per_cell)
    slow = fit_amplitude_shift(qubit, coupling, k, ns)
    assert identical(fast.offset, slow.offset) and identical(fast.residual, slow.residual)


# -------------------------------------------------- every cell checked first


def _refuse_work(monkeypatch):
    def no_work(*args):
        raise AssertionError(f"work started before every cell was checked: {args[:2]}")

    monkeypatch.setattr("lzsim.specfun._laguerre_scaled_pass", no_work)
    monkeypatch.setattr("lzsim.spectra.bessel_j", no_work)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_identity_grid_checks_a_bad_last_x_before_any_work(monkeypatch, bad):
    _refuse_work(monkeypatch)
    with pytest.raises(ValueError, match="got x="):
        bessel_laguerre_identity_error_grid([0.1, bad], [3], [1])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1, True, 2.5])
def test_grids_check_a_bad_last_index_before_any_work(monkeypatch, bad):
    _refuse_work(monkeypatch)
    with pytest.raises(ValueError, match="got n="):
        bessel_laguerre_identity_error_grid([0.1], [3, bad], [1])
    with pytest.raises(ValueError, match="got k="):
        bessel_laguerre_identity_error_grid([0.1], [3], [1, bad])
    with pytest.raises(ValueError, match="got n="):
        displaced_fock_overlap_grid([3, bad], 1, 0.2)


def test_grids_refuse_an_index_past_the_bound_before_any_work(monkeypatch):
    _refuse_work(monkeypatch)
    with pytest.raises(ValueError, match="above supported range"):
        displaced_fock_overlap_grid([0, 5, 10**6], 1, 0.2)
    # n = 10**6 is in range at k = 0, so only checking the whole grid refuses
    with pytest.raises(ValueError, match="above supported range"):
        bessel_laguerre_identity_error_grid([0.1], [0, 10**6], [0, 1])
