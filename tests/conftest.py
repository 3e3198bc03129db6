"""Shared fixtures for the strongly driven time-domain scenario.

The expensive resources are the two SpectralEvolution objects, for mean
occupation 1000 on the Fock window 662..1400 and for occupation 100.  Each
diagonalises its window tile by tile along the Fock ladder.  They are
built once per session and shared between the unit tests and the
acceptance checks.
"""

import math

import pytest

from lzsim import (
    CavityCoupling,
    JointState,
    QubitSpec,
    QubitState,
    SemiclassicalDrive,
    SpectralEvolution,
    TimeGrid,
    adequate_n_max,
    adequate_n_min,
    bessel_j,
    coherent_state,
    propagate_semiclassical,
)

TWO_PI = 2.0 * math.pi

# strongly driven two-photon resonance: gap 0.4, bias 2, drive amplitude 10
FIG4_GAP = 0.4
FIG4_BIAS = 2.0
FIG4_AMPLITUDE = 10.0


@pytest.fixture(scope="session")
def fig4_qubit() -> QubitSpec:
    return QubitSpec(gap=FIG4_GAP, bias=FIG4_BIAS)


@pytest.fixture(scope="session")
def fig4_period() -> float:
    """Rabi period 2 pi / |gap J_2(amplitude)| of the scenario."""
    return TWO_PI / abs(FIG4_GAP * bessel_j(2, FIG4_AMPLITUDE))


@pytest.fixture(scope="session")
def fig4_grid(fig4_period):
    """Grid factory: so many Rabi periods, so many samples per drive cycle."""

    def build(periods: float, samples_per_drive: int) -> TimeGrid:
        span = periods * fig4_period
        n = max(2, round(span / TWO_PI * samples_per_drive))
        return TimeGrid(0.0, span, n)

    return build


@pytest.fixture(scope="session")
def mean1000_evolution(fig4_qubit):
    """Diagonalized joint model for coherent mean occupation 1000.

    coupling = amplitude / (4 sqrt(1000)); the oscillator basis is the Fock
    window n_min..n_max with n_min = adequate_n_min(1000, coupling) = 662
    and n_max 1400, which keeps the leak of the initial coherent state at
    both edges far below the truncation guard.
    """
    coupling = FIG4_AMPLITUDE / (4.0 * math.sqrt(1000.0))
    n_min = adequate_n_min(1000.0, coupling)
    n_max = 1400
    evo = SpectralEvolution(fig4_qubit, CavityCoupling(coupling, n_max, n_min))
    initial = JointState.from_product(
        QubitState.down(), coherent_state(math.sqrt(1000.0), n_max, n_min), n_max, n_min
    )
    return evo, initial


@pytest.fixture(scope="session")
def mean1000_short_trace(mean1000_evolution, fig4_grid):
    evo, initial = mean1000_evolution
    pop, _ = evo.traces(initial, fig4_grid(3, 64))
    return pop


@pytest.fixture(scope="session")
def mean1000_long_trace(mean1000_evolution, fig4_grid):
    evo, initial = mean1000_evolution
    pop, _ = evo.traces(initial, fig4_grid(60, 16))
    return pop


@pytest.fixture(scope="session")
def semiclassical_short_trace(fig4_qubit, fig4_grid):
    drive = SemiclassicalDrive(FIG4_AMPLITUDE, 0.0)
    return propagate_semiclassical(
        fig4_qubit, drive, QubitState.down(), fig4_grid(3, 64)
    )


@pytest.fixture(scope="session")
def occ100_evolution(fig4_qubit):
    """Diagonalized joint model for occupation 100 (coupling 0.25)."""
    coupling = FIG4_AMPLITUDE / (4.0 * math.sqrt(100.0))
    n_max = adequate_n_max(100.0, coupling)
    evo = SpectralEvolution(fig4_qubit, CavityCoupling(coupling, n_max))
    return evo, n_max
