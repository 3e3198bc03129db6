"""The grid paths against the per-cell paths they replace, bit for bit.

One Laguerre recurrence now serves every degree of a (k, x) column, and one
numpy pass per Bessel regime every x of a column.  Each grid value must
equal the per-cell value exactly, the sign of a zero included, so these
tests compare with `==` and never with a tolerance.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lzsim import (
    CavityCoupling,
    QubitSpec,
    assoc_laguerre_scaled,
    bessel_j,
    bessel_laguerre_identity_error,
    comparison_grid,
    displaced_fock_overlap,
    exact_splitting,
    fit_amplitude_shift,
    rabi_freq_quantum,
    rabi_freq_semiclassical,
)
from lzsim import specfun
from lzsim.specfun import (
    MAX_BESSEL_ORDER,
    _bessel_column,
    _laguerre_scaled_pass,
    _overlap_grid,
)
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
    got = _overlap_grid(ns, k, d)
    assert len(got) == len(ns)
    assert all(identical(g, displaced_fock_overlap(n, k, d)) for g, n in zip(got, ns))


# ------------------------------------------------------------ the Bessel column


def assert_column_equals_scalar(k, xs):
    got = _bessel_column(k, xs)
    assert got.shape == (len(xs),)
    bad = [(x, g, bessel_j(k, x)) for x, g in zip(xs, got.tolist())
           if not identical(g, bessel_j(k, x))]
    assert not bad, f"k={k}: (x, column, scalar) {bad[:3]}"


def numpy_lanes(monkeypatch):
    """Force the numpy pass whatever the lane count."""
    monkeypatch.setattr(specfun, "_MIN_LANES", 1)


@pytest.mark.parametrize("k", [0, 1, 7])
def test_column_at_zero_and_subnormal_x(monkeypatch, k):
    numpy_lanes(monkeypatch)
    # 5e-324 halves to 0.0: the scalar returns J_k(0) there, not a series sum
    assert_column_equals_scalar(k, [0.0, 5e-324, 1e-323, 2.2e-308, 1e-300, 0.0, 3.0])


@pytest.mark.parametrize("k", [0, 2, 31, 200])
def test_column_across_the_regime_edges(monkeypatch, k):
    numpy_lanes(monkeypatch)
    edge = math.sqrt(2.0 * (k + 1))  # x * x == 2(k + 1): the series rule's second bound
    near = [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]
    xs = [math.nextafter(8.0, 0.0), 8.0, math.nextafter(8.0, 9.0)] + near
    xs += [edge * f for f in (0.5, 0.99, 1.01, 1.5, 3.0)]
    assert_column_equals_scalar(k, xs)


def test_column_flushes_large_orders_to_signed_zero(monkeypatch):
    # k = 10000 at small x: the log-space leading term falls below e^-745
    numpy_lanes(monkeypatch)
    xs = [1e-3 * i for i in range(1, 200)] + [1.0, 7.5, 50.0, 141.0]
    assert_column_equals_scalar(MAX_BESSEL_ORDER, xs)
    assert all(v == 0.0 for v in _bessel_column(MAX_BESSEL_ORDER, xs[:199]).tolist())


@pytest.mark.parametrize("k, lo, hi", [(200, 20.06, 30.0), (1000, 45.0, 300.0), (200, 140.0, 160.0)])
def test_column_through_the_miller_rescale(monkeypatch, k, lo, hi):
    # just above x = sqrt(2(k+1)) the trial values pass 1e250 and are rescaled
    numpy_lanes(monkeypatch)
    xs = [lo + (hi - lo) * i / 149 for i in range(150)]
    assert_column_equals_scalar(k, xs)


def test_the_first_rescale_case_passes_the_rescale_threshold():
    # so the test above runs the per-lane rescale mask, not only its no-op
    two_over_x, above, cur, m = 2.0 / 20.06, 0.0, 1.0, specfun._miller_start(200, 20.06)
    while m >= 1 and abs(cur) <= specfun._RESCALE:
        above, cur, m = cur, m * two_over_x * cur - above, m - 1
    assert m >= 1


@settings(max_examples=80, deadline=None)
@given(
    k=st.integers(min_value=0, max_value=200),
    xs=st.lists(
        st.one_of(
            st.sampled_from([0.0, 5e-324, 8.0, 12.5]),
            st.floats(min_value=0.0, max_value=8.0),
            st.floats(min_value=0.0, max_value=300.0),
        ),
        min_size=1, max_size=40,
    ),
    repeat=st.integers(min_value=1, max_value=6),
)
def test_column_mixing_regimes_with_repeated_unsorted_x(k, xs, repeat):
    # zero, series and Miller lanes in one column, in the order given
    # (hypothesis runs many examples per test: no function-scoped monkeypatch)
    saved = specfun._MIN_LANES
    try:
        specfun._MIN_LANES = 1
        assert_column_equals_scalar(k, xs * repeat)
    finally:
        specfun._MIN_LANES = saved


@pytest.mark.parametrize("offset", [-1, 0])
def test_columns_at_the_short_column_threshold(monkeypatch, offset):
    # one lane below the threshold each regime calls the scalar routine; at
    # it, the numpy pass runs
    lanes = specfun._MIN_LANES + offset
    calls = {"series": 0, "miller": 0}

    def counting(name, routine):
        def wrapped(k, x):
            calls[name] += 1
            return routine(k, x)
        return wrapped

    monkeypatch.setattr(specfun, "_bessel_series", counting("series", specfun._bessel_series))
    monkeypatch.setattr(specfun, "_bessel_miller", counting("miller", specfun._bessel_miller))
    xs = [0.05 * (i + 1) for i in range(lanes)] + [9.0 + 0.01 * i for i in range(lanes)]
    got = _bessel_column(3, xs).tolist()
    monkeypatch.undo()
    assert all(identical(g, bessel_j(3, x)) for g, x in zip(got, xs))
    want = lanes if offset < 0 else 0
    assert calls == {"series": want, "miller": want}


def test_column_sends_an_outlying_miller_start_to_the_scalar_routine(monkeypatch):
    # one lane at x = 20000 would hold the numpy pass for 20,000 rows
    calls = []

    def counting(k, x):
        calls.append(x)
        return scalar_miller(k, x)

    scalar_miller = specfun._bessel_miller
    monkeypatch.setattr(specfun, "_bessel_miller", counting)
    xs = [9.0 + 0.05 * i for i in range(400)] + [20000.0]
    got = _bessel_column(1, xs).tolist()
    monkeypatch.undo()
    assert calls == [20000.0]
    assert all(identical(g, bessel_j(1, x)) for g, x in zip(got, xs))


# ----------------------------------------------------------------- overlaps

# dense at small n, sparse up to 1,200, shuffled so the grid sees no order
OVERLAP_NS = list(range(0, 40)) + list(range(40, 1201, 41)) + [1200, 7, 7]
random.Random(8).shuffle(OVERLAP_NS)


@pytest.mark.parametrize("d", [0.0, 0.02, 0.2, 2.0, 12.0, 40.0])
def test_overlap_grid_equals_scalar_overlap(d):
    for k in range(13):
        got = _overlap_grid(OVERLAP_NS, k, d)
        want = [displaced_fock_overlap(n, k, d) for n in OVERLAP_NS]
        bad = [(n, g, w) for n, g, w in zip(OVERLAP_NS, got, want) if not identical(g, w)]
        assert not bad, f"d={d}, k={k}: (n, grid, scalar) {bad[:3]}"


def test_overlap_grid_cells_reach_the_rescaled_range():
    # d = 40 puts L_n^k(1600) far beyond 1e250, so log_scale > 0 is exercised
    laguerre = _laguerre_scaled_pass(OVERLAP_NS, 12, 1600.0)
    assert any(log_scale > 0.0 for _, log_scale in laguerre)


# ------------------------------------------------------ the lane-wise closings


def per_cell_overlap_closing(n, k, d, mantissa, log_scale):
    """The per-cell overlap closing the lane-wise one replaced, kept as the reference."""
    if mantissa == 0.0:
        return 0.0
    log_mag = (
        -0.5 * d * d
        + k * math.log(d)
        + 0.5 * (math.lgamma(n + 1) - math.lgamma(n + k + 1))
        + math.log(abs(mantissa))
        + log_scale
    )
    if log_mag < -745.0:
        return math.copysign(0.0, mantissa)
    return math.copysign(math.exp(log_mag), mantissa)


def per_cell_series_closing(k, half, total):
    """The per-lane series closing the lane-wise one replaced, kept as the reference."""
    if total == 0.0:
        return 0.0
    value = k * math.log(half) - math.lgamma(k + 1) + math.log(abs(total))
    if value < -745.0:
        return math.copysign(0.0, total)
    return math.copysign(math.exp(value), total)


def per_cell_overlap(n, k, d):
    return per_cell_overlap_closing(n, k, d, *per_degree_laguerre(n, k, d * d))


def per_cell_bessel_series(k, x):
    half = 0.5 * x
    q, term, total = half * half, 1.0, 1.0
    for m in range(1, 1001):
        term *= -q / (m * (m + k))
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
    return per_cell_series_closing(k, half, total)


# (ns, k, d): the first n of each column takes a special branch; at k = 300,
# d = 0.3 the overlap is 0 below n = 1000, subnormal at 1000 and normal at 4000
OVERLAP_BRANCH_COLUMNS = [
    ([0, 100, 1000, 4000, 7], 300, 0.3),  # n = 0 and 100: log below -745, a zero
    ([300, 0], 300, 0.01),                # every lane below -745
    ([1, 0, 2, 5, 30], 3, 2.0),           # n = 1: L_1^3(4) = 0 exactly, mantissa 0
]


@pytest.mark.parametrize("ns, k, d", OVERLAP_BRANCH_COLUMNS)
def test_overlap_closing_branch_lanes_equal_the_per_cell_closing(ns, k, d):
    want = [per_cell_overlap(n, k, d) for n in ns]
    assert want[0] == 0.0  # a zero lane, from a special branch
    column = _overlap_grid(ns, k, d)
    one_lane = _overlap_grid(ns[:1], k, d)
    assert all(identical(g, w) for g, w in zip(column.tolist(), want)), (column, want)
    assert identical(one_lane.tolist()[0], want[0])
    assert all(identical(displaced_fock_overlap(n, k, d), w) for n, w in zip(ns, want))


@pytest.mark.parametrize("d", [0.02, 2.0, 40.0])
def test_overlap_grid_equals_the_per_cell_closing(d):
    # grid and scalar share one closing, so pin both to the per-cell one
    for k in (0, 3, 12):
        got = _overlap_grid(OVERLAP_NS, k, d).tolist()
        want = [per_cell_overlap(n, k, d) for n in OVERLAP_NS]
        bad = [(n, g, w) for n, g, w in zip(OVERLAP_NS, got, want) if not identical(g, w)]
        assert not bad, f"d={d}, k={k}: (n, grid, per cell) {bad[:3]}"


@pytest.mark.parametrize("k", [0, 1, 7, 200])
def test_bessel_series_lanes_equal_the_per_lane_closing(monkeypatch, k):
    numpy_lanes(monkeypatch)
    xs = [x for x in (0.037 * i for i in range(1, 560)) if specfun._series_regime(k, x)]
    got = _bessel_column(k, xs).tolist()
    bad = [(x, g) for x, g in zip(xs, got) if not identical(g, per_cell_bessel_series(k, x))]
    assert not bad, f"k={k}: (x, column) {bad[:3]}"


@pytest.mark.parametrize("numpy_pass", [True, False])
def test_series_closing_branch_lanes_equal_the_per_lane_closing(monkeypatch, numpy_pass):
    # k = 200 at x = 1e-3: the log of the leading term lies far below -745
    if numpy_pass:
        numpy_lanes(monkeypatch)
    xs = [1e-3, 1.0, 5.0, 8.0, 20.0, 1e-3, 12.0]  # all in the series regime at k = 200
    want = [per_cell_bessel_series(200, x) for x in xs]
    assert want[0] == 0.0 and want[-1] != 0.0
    column = specfun._series_lanes(200, np.array(xs))
    one_lane = specfun._series_lanes(200, np.array(xs[:1]))
    assert all(identical(g, w) for g, w in zip(column.tolist(), want))
    assert identical(one_lane.tolist()[0], want[0])
    assert all(identical(bessel_j(200, x), w) for x, w in zip(xs, want))


def test_closings_keep_the_sign_of_every_zero_and_flush_below_minus_745():
    # synthetic lanes: negative sums and mantissas that underflow must give
    # -0.0, a zero (of either sign) +0.0, as the per-cell closings do
    half = np.array([5e-4, 5e-4, 5e-4, 5e-4, 0.5, 0.5])
    totals = [-1.0, 1.0, 0.0, -0.0, -0.75, 0.75]
    got = specfun._close_series(200, half, totals).tolist()
    want = [per_cell_series_closing(200, h, t) for h, t in zip(half.tolist(), totals)]
    assert all(identical(g, w) for g, w in zip(got, want)), (got, want)
    assert [math.copysign(1.0, g) for g in got[:4]] == [-1.0, 1.0, 1.0, 1.0]

    ns = [0, 5, 5, 5, 5, 2]
    laguerre = [(-1.0, 0.0), (-3.5, 0.0), (2.0, 0.0), (0.0, 0.0), (-0.0, 0.0), (-2.0, _LOG_RESCALE)]
    got = specfun._close_overlap(ns, 300, 0.01, laguerre).tolist()
    want = [per_cell_overlap_closing(n, 300, 0.01, *lag) for n, lag in zip(ns, laguerre)]
    assert all(identical(g, w) for g, w in zip(got, want)), (got, want)
    assert [math.copysign(1.0, g) for g in got] == [-1.0, -1.0, 1.0, 1.0, 1.0, -1.0]

    # just below -745 exp still returns a subnormal; the closings flush it
    assert math.exp(-745.05) > 0.0
    got = specfun._close_overlap([0, 0, 0], 0, 1.0, [(1.0, -744.55), (-1.0, -744.55), (1.0, -744.45)])
    assert all(identical(g, w) for g, w in zip(got.tolist(), [0.0, -0.0, 5e-324]))
    half = 1e-300
    totals = [math.exp(-745.05 - math.log(half)) * f for f in (1.0, -1.0)]
    got = specfun._close_series(1, np.array([half, half]), totals)
    assert all(identical(g, w) for g, w in zip(got.tolist(), [0.0, -0.0]))


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


def test_identity_grid_checks_each_photon_number_once(monkeypatch):
    # the grid checks its n axis once; its (x, k) columns do not check it again
    checked = []
    require_int = specfun.require_int

    def counting(name, value, *bounds):
        checked.append(name)
        return require_int(name, value, *bounds)

    monkeypatch.setattr(specfun, "require_int", counting)
    monkeypatch.setattr("lzsim.spectra.require_int", counting)
    bessel_laguerre_identity_error_grid((0.01, 0.05), range(0, 101), (0, 2, 5))
    assert checked.count("n") == 101


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

    monkeypatch.setattr(spectra, "_overlap_grid", per_cell)
    slow = fit_amplitude_shift(qubit, coupling, k, ns)
    assert identical(fast.offset, slow.offset) and identical(fast.residual, slow.residual)


# -------------------------------------------------- every cell checked first


def _refuse_work(monkeypatch):
    def no_work(*args):
        raise AssertionError(f"work started before every cell was checked: {args[:2]}")

    monkeypatch.setattr("lzsim.specfun._laguerre_scaled_pass", no_work)
    monkeypatch.setattr("lzsim.specfun.assoc_laguerre_scaled", no_work)
    monkeypatch.setattr("lzsim.spectra.bessel_j", no_work)
    monkeypatch.setattr("lzsim.spectra._bessel_column", no_work)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 1e200])
def test_identity_grid_checks_a_bad_last_x_before_any_work(monkeypatch, bad):
    _refuse_work(monkeypatch)
    # x = 1e200 is finite, but the square of its displacement 2 x is not
    message = r"got d\^2=inf" if bad == 1e200 else "got x="
    with pytest.raises(ValueError, match=message):
        bessel_laguerre_identity_error_grid([0.1, bad], [3], [1])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1, True, 2.5])
def test_grids_check_a_bad_last_index_before_any_work(monkeypatch, bad):
    _refuse_work(monkeypatch)
    with pytest.raises(ValueError, match="got n="):
        bessel_laguerre_identity_error_grid([0.1], [3, bad], [1])
    with pytest.raises(ValueError, match="got k="):
        bessel_laguerre_identity_error_grid([0.1], [3], [1, bad])
    for grid in (comparison_grid, fit_amplitude_shift):
        with pytest.raises(ValueError, match="got n="):
            grid(QubitSpec(0.01, 1.0), 0.2, 1, [3, bad])


def test_grids_refuse_an_index_past_the_bound_before_any_work(monkeypatch):
    _refuse_work(monkeypatch)
    for grid in (comparison_grid, fit_amplitude_shift):
        with pytest.raises(ValueError, match="above supported range"):
            grid(QubitSpec(0.01, 1.0), 0.2, 1, [0, 5, 10**6])
    # n = 10**6 is in range at k = 0, so only checking the whole grid refuses
    with pytest.raises(ValueError, match="above supported range"):
        bessel_laguerre_identity_error_grid([0.1], [0, 10**6], [0, 1])


def test_identity_grid_checks_the_bessel_side_before_any_work(monkeypatch):
    _refuse_work(monkeypatch)
    with pytest.raises(ValueError, match="got k=10001"):
        bessel_laguerre_identity_error_grid([0.1], [3], [1, MAX_BESSEL_ORDER + 1])
    # 4 x sqrt(n) overflows although x, n and 2x are all finite
    with pytest.raises(ValueError, match=r"got 4 x sqrt\(n\)=inf"):
        bessel_laguerre_identity_error_grid([0.1, 1e308], [0, 4], [0])


def test_photon_grids_check_the_bessel_order_before_any_work(monkeypatch):
    # n + k stays in range up to n = 9e5, so only the Bessel bound refuses;
    # unchecked, a Laguerre pass up to 9e5 ran before the first Bessel call
    _refuse_work(monkeypatch)
    k = MAX_BESSEL_ORDER + 1
    for grid in (comparison_grid, fit_amplitude_shift):
        with pytest.raises(ValueError, match="got k=10001"):
            grid(QubitSpec(0.01, float(k)), 0.1, k, range(0, 900_001, 1000))


def test_comparison_grid_checks_n_plus_shift_before_any_work(monkeypatch):
    _refuse_work(monkeypatch)
    with pytest.raises(ValueError, match=r"got n \+ shift=-1\.0"):
        comparison_grid(QubitSpec(0.01, 1.0), 0.1, 1, [0, 5], shift=-1.0)


def test_every_resonant_entry_point_refuses_bias_off_k():
    # bias 0 with k = 2 is off resonance for the fit as for the other two
    with pytest.raises(ValueError, match="resonance requires bias = k"):
        fit_amplitude_shift(QubitSpec(0.01, 0.0), 0.5, 2, range(100, 1001, 100))
    # a k past float range is off resonance too, not an OverflowError
    qubit, huge = QubitSpec(0.01, 1.0), 10**400
    calls = [
        lambda: comparison_grid(qubit, 0.1, huge, [1]),
        lambda: fit_amplitude_shift(qubit, 0.1, huge, [1]),
        lambda: exact_splitting(qubit, CavityCoupling(0.1, 10), 1, huge),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="resonance requires bias = k"):
            call()


@pytest.mark.parametrize("d", [1e200, 1e100, 1.0000001e29])
def test_every_overlap_entry_point_refuses_a_huge_displacement_before_any_work(monkeypatch, d):
    # unchecked, the grid returned NaN (d^2 = inf at 1e200; a Laguerre step
    # overflowing past the 1e250 rescale above d^2 = 1e58) and comparison_grid
    # went on to a Bessel pass at 6.9e200
    _refuse_work(monkeypatch)
    qubit = QubitSpec(0.01, 1.0)
    calls = [
        lambda: displaced_fock_overlap(1000, 1, d),
        lambda: _overlap_grid([0, 1000], 1, d),
        lambda: rabi_freq_quantum(qubit, 0.5 * d, 1000, 1),
        lambda: comparison_grid(qubit, 0.5 * d, 1, [0, 1000]),
        lambda: fit_amplitude_shift(qubit, 0.5 * d, 1, [0, 1000]),
        lambda: bessel_laguerre_identity_error(0.5 * d, 0, 1),
        lambda: bessel_laguerre_identity_error_grid([0.1, 0.5 * d], [0], [1]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"got d\^2="):
            call()


def test_overlap_at_the_largest_displacement_is_finite():
    # d^2 = 1e58 is the bound: no Laguerre step overflows, and the overlap
    # underflows to a signed zero
    for n, k in [(0, 0), (1, 3), (1000, 0), (2, 999_998), (10**6, 0)]:
        value = displaced_fock_overlap(n, k, 1e29)
        assert value == 0.0, (n, k, value)
