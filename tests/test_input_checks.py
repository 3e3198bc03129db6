"""One table for the input-check policy of the public library functions.

Each row names a public callable, a valid set of arguments and the argument
under test.  Every bad value put in that argument's place must raise
ValueError whose message names the argument ("got <name>=...").  Reals are
refused when non-finite, below their range or a bool; integers also when
they are a non-integral float.
"""

import math
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lzsim import (
    Branch,
    CavityCoupling,
    DecayEstimate,
    JointState,
    QubitSpec,
    QubitState,
    SemiclassicalDrive,
    TimeGrid,
    adequate_n_max,
    adequate_n_min,
    agreement_onset,
    assoc_laguerre,
    assoc_laguerre_scaled,
    bessel_j,
    bessel_j_adiabatic_impulse,
    bessel_j_adiabatic_impulse_expanded,
    bessel_j_asymptotic,
    bessel_laguerre_identity_error,
    coherent_state,
    comparison_grid,
    displaced_fock_overlap,
    equivalent_amplitude,
    exact_splitting,
    fit_amplitude_shift,
    fock_state,
    grwa_state,
    predicted_shift,
    propagate_semiclassical,
    rabi_freq_quantum,
    rabi_freq_semiclassical,
)
from lzsim.specfun import MAX_BESSEL_ORDER, MAX_OVERLAP_INDEX
from lzsim.spectra import bessel_laguerre_identity_error_grid

NON_FINITE = (math.nan, math.inf, -math.inf)
# DERIVED rows bound an expression of several arguments: only their
# out-of-range values are tried, under the expression's label
REAL, INT, DERIVED = "real", "int", "derived"

Q0 = QubitSpec(0.01, 0.0)
CAV = CavityCoupling(0.1, 10)


class Row(NamedTuple):
    fn: Callable
    base: dict
    arg: str
    kind: str
    below: tuple = ()  # values outside the argument's range
    label: str = ""  # the name the message uses, when not the argument's
    wrap: Callable = lambda v: v  # places the bad value into the argument

    def call(self, value):
        return self.fn(**{**self.base, self.arg: self.wrap(value)})

    def bad_values(self):
        if self.kind == DERIVED:
            return self.below
        kind_bad = NON_FINITE + (True, np.True_) + ((2.5,) if self.kind == INT else ())
        return kind_bad + self.below


def rows(fn, base, *specs):
    return [Row(fn, base, *spec) for spec in specs]


TABLE = [
    # specfun
    *rows(bessel_j, dict(k=2, x=1.0),
          ("k", INT, (-1, MAX_BESSEL_ORDER + 1)), ("x", REAL, (-0.5,))),
    *rows(bessel_j_asymptotic, dict(k=2, x=5.0),
          ("k", INT, (-1,)), ("x", REAL, (0.0, -1.0))),
    *rows(bessel_j_adiabatic_impulse, dict(k=2, x=5.0),
          ("k", INT, (-1,)), ("x", REAL, (2.0, 1.0))),
    *rows(bessel_j_adiabatic_impulse_expanded, dict(k=2, x=5.0),
          ("k", INT, (-1,)), ("x", REAL, (2.0, 1.0))),
    *rows(assoc_laguerre_scaled, dict(n=3, k=1, x=0.5),
          ("n", INT, (-1,)), ("k", INT, (-1,)), ("x", REAL, (-0.5, 1.1e58)),
          ("n", DERIVED, (MAX_OVERLAP_INDEX + 1,), "n+k"),
          ("k", DERIVED, (MAX_OVERLAP_INDEX,), "n+k")),
    *rows(assoc_laguerre, dict(n=3, k=1, x=0.5),
          ("n", INT, (-1,)), ("k", INT, (-1,)), ("x", REAL, (-0.5, 1.1e58)),
          ("n", DERIVED, (MAX_OVERLAP_INDEX + 1,), "n+k"),
          ("k", DERIVED, (MAX_OVERLAP_INDEX,), "n+k")),
    *rows(displaced_fock_overlap, dict(n=3, k=1, d=0.5),
          ("n", INT, (-1,)), ("k", INT, (-1,)), ("d", REAL, (-0.5,))),
    # models
    *rows(QubitSpec, dict(gap=0.1, bias=0.0), ("gap", REAL, (-0.1,)), ("bias", REAL, (-0.1,))),
    *rows(SemiclassicalDrive, dict(amplitude=1.0, phase=0.0),
          ("amplitude", REAL, (-1.0,)), ("phase", REAL)),
    *rows(CavityCoupling, dict(coupling=0.1, n_max=10, n_min=0),
          ("coupling", REAL, (-0.1,)), ("n_max", INT, (0,)), ("n_min", INT, (-1, 10))),
    *rows(JointState, dict(amplitudes=np.eye(22)[0], n_max=10, n_min=0),
          ("n_max", INT, (0,)), ("n_min", INT, (-1, 10))),
    *rows(adequate_n_max, dict(mean_occupation=10.0, coupling=0.1),
          ("mean_occupation", REAL, (-1.0,), "mean occupation"), ("coupling", REAL, (-0.1,))),
    *rows(adequate_n_min, dict(mean_occupation=10.0, coupling=0.1),
          ("mean_occupation", REAL, (-1.0,), "mean occupation"), ("coupling", REAL, (-0.1,))),
    *rows(fock_state, dict(m=2, n_max=10, n_min=0),
          ("m", INT, (-1, 11)), ("n_max", INT, (0,)), ("n_min", INT, (-1, 10))),
    *rows(coherent_state, dict(alpha=1.0, n_max=40, n_min=0),
          ("alpha", REAL, (-1.0,)), ("n_max", INT, (0,)), ("n_min", INT, (-1, 40))),
    *rows(grwa_state, dict(branch=Branch.UP, m=2, cavity=CAV), ("m", INT, (-1, 11))),
    # spectra
    *rows(rabi_freq_semiclassical, dict(qubit=Q0, amplitude=1.0, k=0),
          ("amplitude", REAL, (-1.0,)), ("k", INT, (-1,))),
    *rows(rabi_freq_quantum, dict(qubit=Q0, coupling=0.1, n=3, k=0),
          ("coupling", REAL, (-0.1,)), ("n", INT, (-1,)), ("k", INT, (-1,))),
    *rows(equivalent_amplitude, dict(coupling=0.1, n=4.0, shift=0.0),
          ("coupling", REAL, (-0.1,)), ("n", REAL), ("shift", REAL),
          ("n", DERIVED, (-5.0,), "n + shift"), ("shift", DERIVED, (-5.0,), "n + shift")),
    *rows(exact_splitting, dict(qubit=Q0, cavity=CAV, n=1, k=0),
          ("n", INT, (-1,)), ("k", INT, (-1,))),
    *rows(comparison_grid, dict(qubit=Q0, coupling=0.1, k=0, n_values=[1, 2], shift=0.0),
          ("k", INT, (-1,)), ("coupling", REAL, (-0.1,)), ("shift", REAL),
          ("n_values", INT, (-1,), "n", lambda v: [1, v])),
    *rows(agreement_onset, dict(rows=[], gap=0.01, rel_tol=0.1),
          ("gap", REAL, (-0.01,)), ("rel_tol", REAL, (-0.1,))),
    *rows(fit_amplitude_shift, dict(qubit=Q0, coupling=0.1, k=0, n_values=[5, 10]),
          ("coupling", REAL, (0.0, -0.1)), ("k", INT, (-1,)),
          ("n_values", INT, (-1,), "n", lambda v: [5, v])),
    *rows(predicted_shift, dict(coupling=0.1, k=1),
          ("coupling", REAL, (-0.1,)), ("k", INT, (-1,))),
    *rows(bessel_laguerre_identity_error, dict(x=0.1, n=10, k=2),
          ("x", REAL, (-0.1,)), ("n", INT, (-1,)), ("k", INT, (-1,))),
    *rows(bessel_laguerre_identity_error_grid, dict(xs=[0.1], ns=[10], ks=[2]),
          ("xs", REAL, (-0.1,), "x", lambda v: [0.1, v]),
          ("ns", INT, (-1,), "n", lambda v: [10, v]),
          ("ks", INT, (-1,), "k", lambda v: [2, v])),
    # dynamics
    *rows(TimeGrid, dict(t0=0.0, t1=1.0, samples=5),
          ("t0", REAL, (-2e15, 2e15)), ("t1", REAL, (0.0, -1.0, 2e15)), ("samples", INT, (1,))),
    *rows(propagate_semiclassical,
          dict(qubit=Q0, drive=SemiclassicalDrive(1.0), psi0=QubitState.down(),
               grid=TimeGrid(0.0, 1.0, 3), steps_per_period=64),
          ("steps_per_period", INT, (0, -5))),
    *rows(DecayEstimate, dict(tau=1.0, quality=0.5), ("quality", REAL, (-0.1, 1.5))),
]

CASES = [
    pytest.param(row, bad, id=f"{row.fn.__name__}-{row.arg}-{bad!r}")
    for row in TABLE
    for bad in row.bad_values()
]


def _assert_refused(row, bad):
    with pytest.raises(ValueError) as err:
        row.call(bad)
    assert f"got {row.label or row.arg}=" in str(err.value)


@pytest.mark.parametrize(
    "row", {row.fn: row for row in TABLE}.values(), ids=lambda row: row.fn.__name__
)
def test_table_baseline_is_valid(row):
    # a row whose own arguments were bad would pass the refusals below vacuously
    row.fn(**row.base)


@pytest.mark.parametrize("row, bad", CASES)
def test_bad_scalar_is_refused_by_name(row, bad):
    _assert_refused(row, bad)


@settings(max_examples=150, deadline=None)
@given(
    row=st.sampled_from([row for row in TABLE if row.kind == REAL]),
    bad=st.sampled_from(NON_FINITE + (-math.nan,)),
    scalar=st.sampled_from([float, np.float64, np.float32]),
)
def test_non_finite_reals_are_refused_by_name(row, bad, scalar):
    _assert_refused(row, scalar(bad))
