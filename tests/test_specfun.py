import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lzsim import (
    assoc_laguerre,
    assoc_laguerre_scaled,
    bessel_j,
    bessel_j_adiabatic_impulse,
    bessel_j_adiabatic_impulse_expanded,
    bessel_j_asymptotic,
    displaced_fock_overlap,
)
from lzsim.specfun import MAX_BESSEL_ORDER, MAX_OVERLAP_INDEX, _bessel_column


# ---------------------------------------------------------------- bessel_j

# spans the series/recurrence switchover and both small and large order
BESSEL_PROBES = [
    (0, 0.0),
    (0, 1e-8),
    (0, 2.404825557695773),  # first zero of J_0
    (0, 8.0),
    (0, 25.0),
    (1, 0.5),
    (2, 10.0),
    (2, 3.9),
    (3, 4.1),
    (5, 1.0),
    (5, 40.0),
    (10, 2.0),
    (10, 12.5),
    (20, 21.0),
    (50, 30.0),
    (50, 100.0),
    (120, 1.0),
    (300, 320.0),
]


@pytest.mark.parametrize("k,x", BESSEL_PROBES)
def test_bessel_matches_extended_precision(k, x):
    ref = oracles.bessel_ref(k, x)
    got = bessel_j(k, x)
    assert got == pytest.approx(ref, rel=1e-10, abs=1e-13)


def test_bessel_known_values():
    assert bessel_j(2, 10.0) == pytest.approx(0.25463031368512062, rel=1e-12)
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(3, 0.0) == 0.0
    assert abs(bessel_j(0, 2.404825557695773)) < 1e-12


def test_bessel_tiny_value_keeps_relative_accuracy():
    # J_3000(2000) ~ 1.3e-285: the Miller pass rescales after recording it,
    # and abs=0 so a flushed or wrongly scaled tiny value cannot pass
    assert bessel_j(3000, 2000.0) == pytest.approx(
        oracles.bessel_ref(3000, 2000.0), rel=1e-10, abs=0.0
    )


def test_bessel_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bessel_j(-1, 1.0)
    with pytest.raises(ValueError):
        bessel_j(2, -0.5)
    with pytest.raises(ValueError):
        bessel_j(2, math.nan)
    with pytest.raises(ValueError, match="x=inf"):
        bessel_j(0, math.inf)
    with pytest.raises(ValueError):
        bessel_j(1.0, 2.0)
    with pytest.raises(ValueError):
        bessel_j(True, 2.0)
    with pytest.raises(ValueError):
        bessel_j(MAX_BESSEL_ORDER + 1, 2.0)


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=80),
    x=st.floats(min_value=0.05, max_value=60.0, allow_nan=False),
)
def test_bessel_three_term_recurrence(k, x):
    # J_{k-1}(x) + J_{k+1}(x) = (2k/x) J_k(x), scaled by the largest term
    lhs = bessel_j(k - 1, x) + bessel_j(k + 1, x)
    rhs = 2.0 * k / x * bessel_j(k, x)
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) / scale < 1e-9


@settings(max_examples=60, deadline=None)
@given(x=st.floats(min_value=0.0, max_value=40.0, allow_nan=False))
def test_bessel_normalization(x):
    # J_0^2 + 2 sum_{k>=1} J_k^2 = 1; orders above x + 40 are negligible
    top = int(x) + 40
    total = bessel_j(0, x) ** 2
    total += 2.0 * sum(bessel_j(k, x) ** 2 for k in range(1, top))
    assert abs(total - 1.0) < 1e-9


# ------------------------------------------- J_k and J_{k+1} from one pass


@pytest.mark.parametrize("lanes", [30, 200])
@pytest.mark.parametrize("k", [0, 1, 5, 30])
def test_pair_column_rows_equal_bessel_j_bit_for_bit(k, lanes):
    # zero and subnormal lanes, then `lanes` series lanes (x <= 8) and as many
    # Miller lanes: 30 go to the scalar routines, 200 to the numpy passes
    series = [8.0 * (i + 1) / lanes for i in range(lanes)]
    miller = [8.0 + 120.0 * (i + 1) / lanes for i in range(lanes)]
    xs = [0.0, 5e-324] + series + miller
    j, upper = _bessel_column(k, xs, pair=True)
    assert j.tobytes() == np.array([bessel_j(k, x) for x in xs]).tobytes()
    assert j.tobytes() == _bessel_column(k, xs).tobytes()
    # series lanes sum the series at order k + 1, as bessel_j(k + 1, x) does there
    assert upper[:2].tolist() == [0.0, 0.0]
    assert upper[2 : 2 + lanes].tolist() == [bessel_j(k + 1, x) for x in series]


@pytest.mark.parametrize(
    "k, lo, hi, floor", [(0, 0.05, 120.0, 0.3), (30, 8.05, 29.95, 0.0), (200, 20.1, 30.0, 0.0)]
)
def test_pair_column_second_row_matches_extended_precision(k, lo, hi, floor):
    # k = 30 on (8, 30) and k = 200 on (20, 30), where the pass rescales, are
    # Miller's x < k range, with no zero of J_{k+1}; at k = 0 "away from
    # zeros" is |J_1| at least 0.3 of its envelope sqrt(2/(pi x))
    xs = np.linspace(lo, hi, 240)
    upper = _bessel_column(k, xs, pair=True)[1]
    # a one-lane column runs the scalar routines, the same steps lane by lane
    assert upper.tolist() == [_bessel_column(k, [x], pair=True)[1, 0] for x in xs.tolist()]
    ref = np.array([oracles.bessel_ref(k + 1, x) for x in xs.tolist()])
    away = np.abs(ref) >= floor * np.sqrt(2.0 / (np.pi * xs))
    assert away.sum() >= 120
    assert np.max(np.abs(upper - ref)[away] / np.abs(ref)[away]) <= 1e-13


# ---------------------------------------------------- associated Laguerre

LAGUERRE_PROBES = [
    (0, 0, 0.3),
    (1, 0, 2.0),
    (2, 1, 0.04),
    (5, 2, 4.0),
    (10, 5, 0.36),
    (50, 3, 0.01),
    (200, 2, 4.0),
    (1000, 5, 0.04),
]


@pytest.mark.parametrize("n,k,x", LAGUERRE_PROBES)
def test_laguerre_matches_extended_precision(n, k, x):
    ref = oracles.laguerre_ref(n, k, x)
    assert assoc_laguerre(n, k, x) == pytest.approx(ref, rel=1e-10, abs=1e-300)


def test_laguerre_known_value():
    # L_2^1(x) = (x^2 - 6x + 6) / 2
    assert assoc_laguerre(2, 1, 0.04) == pytest.approx(2.8808, rel=1e-12)


def test_laguerre_scaled_consistency():
    for n, k, x in [(3, 1, 0.5), (40, 2, 1.2), (500, 0, 0.1)]:
        mantissa, log_scale = assoc_laguerre_scaled(n, k, x)
        ref = oracles.laguerre_ref(n, k, x)
        assert mantissa * math.exp(log_scale) == pytest.approx(ref, rel=1e-10)
        assert 1e-2 <= abs(mantissa) <= 1e2 or mantissa == 0.0


def test_laguerre_scaled_survives_huge_values():
    # a long recurrence that stays in range (log_scale 0), and L_500^3(2000)
    # ~ exp(994.8), which overflows a double: the scaled form must carry the
    # sign and magnitude in log space
    for n, k, x, rescaled in [(100_000, 0, 4.0, False), (500, 3, 2000.0, True)]:
        mantissa, log_scale = assoc_laguerre_scaled(n, k, x)
        assert math.isfinite(mantissa) and math.isfinite(log_scale)
        assert (log_scale > 0.0) == rescaled
        ref = oracles.mp.laguerre(n, k, x)
        assert math.copysign(1.0, mantissa) == oracles.mp.sign(ref)
        assert math.log(abs(mantissa)) + log_scale == pytest.approx(
            float(oracles.mp.log(abs(ref))), rel=1e-9
        )
    assert assoc_laguerre(500, 0, 2000.0) == math.inf


def test_laguerre_rejects_bad_arguments():
    with pytest.raises(ValueError):
        assoc_laguerre(-1, 0, 1.0)
    with pytest.raises(ValueError):
        assoc_laguerre(2, -1, 1.0)
    with pytest.raises(ValueError):
        assoc_laguerre(2, 0, -1.0)
    with pytest.raises(ValueError):
        assoc_laguerre(2.0, 0, 1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="x="):
            assoc_laguerre(3, 1, bad)


@pytest.mark.parametrize(
    "fn, n, k, x, name",
    [
        # unchecked, these gave (-inf, 1151.29...), (inf, ...), OverflowError and -inf
        (assoc_laguerre_scaled, 3, 0, 1e200, "x"),
        (assoc_laguerre_scaled, 3, 10**200, 0.5, "n+k"),
        (assoc_laguerre_scaled, 1, 10**400, 0.5, "n+k"),
        (assoc_laguerre, 3, 0, 1e200, "x"),
    ],
)
def test_laguerre_refuses_input_it_cannot_compute(fn, n, k, x, name):
    bound = "1e+58" if name == "x" else str(MAX_OVERLAP_INDEX)
    with pytest.raises(ValueError, match=re.escape(bound) + ".*" + re.escape(f"got {name}=")):
        fn(n, k, x)


# ------------------------------------------------- displaced Fock overlap

OVERLAP_PROBES = [
    (0, 0, 0.5),
    (5, 1, 0.2),
    (10, 3, 1.0),
    (3, 0, 2.0),
    (100, 2, 0.5),
    (40, 5, 0.1),
    (7, 2, 3.0),
]


@pytest.mark.parametrize("n,k,d", OVERLAP_PROBES)
def test_overlap_matches_closed_form_reference(n, k, d):
    ref = oracles.overlap_ref(n, k, d)
    assert displaced_fock_overlap(n, k, d) == pytest.approx(ref, rel=1e-10, abs=1e-300)


@pytest.mark.parametrize("n,k,d", [(5, 1, 0.2), (10, 3, 1.0), (0, 0, 0.5), (7, 2, 3.0)])
def test_overlap_matches_matrix_exponential(n, k, d):
    # second, structurally different route: expm of the displacement generator
    ref = oracles.overlap_matrix_ref(n, k, d)
    assert displaced_fock_overlap(n, k, d) == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_overlap_zero_displacement():
    assert displaced_fock_overlap(4, 0, 0.0) == 1.0
    assert displaced_fock_overlap(4, 3, 0.0) == 0.0


def test_overlap_bounded_and_large_index():
    # overlaps of unit vectors never exceed one, even at extreme indices
    for n, k, d in [(1_000_000, 0, 1.0), (500_000, 5, 0.3), (1000, 0, 30.0)]:
        value = displaced_fock_overlap(n, k, d)
        assert abs(value) <= 1.0 + 1e-12


def test_overlap_rejects_bad_arguments():
    with pytest.raises(ValueError):
        displaced_fock_overlap(-1, 0, 0.5)
    with pytest.raises(ValueError):
        displaced_fock_overlap(0, -1, 0.5)
    with pytest.raises(ValueError):
        displaced_fock_overlap(0, 0, -0.5)
    with pytest.raises(ValueError):
        displaced_fock_overlap(MAX_OVERLAP_INDEX, 1, 0.5)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="d="):
            displaced_fock_overlap(3, 1, bad)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=300),
    k=st.integers(min_value=0, max_value=10),
    d=st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
)
def test_overlap_property_reference(n, k, d):
    ref = oracles.overlap_ref(n, k, d)
    got = displaced_fock_overlap(n, k, d)
    assert got == pytest.approx(ref, rel=1e-9, abs=1e-12)


# ------------------------------------------------------ large-x closed forms


def test_asymptotic_form_values():
    for k, x in [(0, 5.0), (1, 12.0), (4, 30.0)]:
        assert bessel_j_asymptotic(k, x) == pytest.approx(
            oracles.asymptotic_ref(k, x), rel=1e-12
        )


def test_adiabatic_form_values():
    for k, x in [(0, 5.0), (2, 4.0), (10, 14.0), (20, 21.0)]:
        assert bessel_j_adiabatic_impulse(k, x) == pytest.approx(
            oracles.adiabatic_ref(k, x), rel=1e-12
        )
        assert bessel_j_adiabatic_impulse_expanded(k, x) == pytest.approx(
            oracles.adiabatic_expanded_ref(k, x), rel=1e-12
        )


def test_adiabatic_forms_collapse_at_zero_order():
    # with k = 0 both turning-point forms reduce to the plain asymptotic one
    for x in (0.5, 3.0, 17.2):
        base = bessel_j_asymptotic(0, x)
        assert bessel_j_adiabatic_impulse(0, x) == base
        assert bessel_j_adiabatic_impulse_expanded(0, x) == base


def test_asymptotic_accuracy_improves_with_x():
    errs = [abs(bessel_j_asymptotic(1, x) - bessel_j(1, x)) for x in (10.0, 100.0)]
    assert errs[1] < errs[0]


def test_approximation_domains():
    with pytest.raises(ValueError):
        bessel_j_asymptotic(0, 0.0)
    with pytest.raises(ValueError):
        bessel_j_asymptotic(0, -1.0)
    for fn in (bessel_j_adiabatic_impulse, bessel_j_adiabatic_impulse_expanded):
        with pytest.raises(ValueError):
            fn(3, 3.0)  # turning point itself
        with pytest.raises(ValueError):
            fn(3, 2.0)  # below it
