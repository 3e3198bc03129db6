"""Rabi oscillations of a strongly driven two-level system, with the drive
treated either as a classical sinusoid or as a quantized cavity mode.

Everything is expressed in units hbar = omega = 1: energies in units of the
drive/cavity quantum, times in 1/omega, one drive period = 2 pi.
"""

from .errors import (
    NumericalFailure,
    TruncationError,
    ResourceLimitError,
    NormDriftError,
    PairIdentificationError,
    FitDegenerateError,
    NoPeakError,
)
from .models import (
    Branch,
    QubitSpec,
    SemiclassicalDrive,
    CavityCoupling,
    QubitState,
    JointState,
    rabi_hamiltonian,
    adequate_n_max,
    adequate_n_min,
    fock_state,
    coherent_state,
    grwa_state,
)
from .specfun import (
    bessel_j,
    bessel_j_asymptotic,
    bessel_j_adiabatic_impulse,
    bessel_j_adiabatic_impulse_expanded,
    assoc_laguerre,
    assoc_laguerre_scaled,
    displaced_fock_overlap,
)
from .spectra import (
    ComparisonRow,
    ShiftFitResult,
    rabi_freq_semiclassical,
    rabi_freq_quantum,
    equivalent_amplitude,
    exact_splitting,
    comparison_grid,
    agreement_onset,
    fit_amplitude_shift,
    predicted_shift,
    bessel_laguerre_identity_error,
    figure_photon_grid,
)
from .dynamics import (
    TimeGrid,
    PopulationTrace,
    QuadratureTrace,
    DecayEstimate,
    SpectralEvolution,
    propagate_semiclassical,
    dominant_frequency,
    estimate_decay_time,
)

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "CavityCoupling",
    "ComparisonRow",
    "DecayEstimate",
    "FitDegenerateError",
    "JointState",
    "NoPeakError",
    "NormDriftError",
    "NumericalFailure",
    "PairIdentificationError",
    "PopulationTrace",
    "QuadratureTrace",
    "QubitSpec",
    "QubitState",
    "ResourceLimitError",
    "SemiclassicalDrive",
    "ShiftFitResult",
    "SpectralEvolution",
    "TimeGrid",
    "TruncationError",
    "adequate_n_max",
    "adequate_n_min",
    "agreement_onset",
    "assoc_laguerre",
    "assoc_laguerre_scaled",
    "bessel_j",
    "bessel_j_adiabatic_impulse",
    "bessel_j_adiabatic_impulse_expanded",
    "bessel_j_asymptotic",
    "bessel_laguerre_identity_error",
    "coherent_state",
    "comparison_grid",
    "displaced_fock_overlap",
    "dominant_frequency",
    "equivalent_amplitude",
    "estimate_decay_time",
    "exact_splitting",
    "figure_photon_grid",
    "fit_amplitude_shift",
    "fock_state",
    "grwa_state",
    "predicted_shift",
    "propagate_semiclassical",
    "rabi_freq_quantum",
    "rabi_freq_semiclassical",
    "rabi_hamiltonian",
]
