"""Desk-scale simulation and reconstruction of biphoton temporal wave
functions measured through two-photon interference with a coherent
reference.

The pipeline mirrors the measurement: simulate time-tagged photon
arrivals for three analyzer phases, histogram the coincidences, invert
the three histograms analytically into the complex wave function, and
fit the envelope and phase.
"""

from .correlate import (
    CoincidenceHistogram,
    TimeTagStream,
    apply_gate,
    cross_correlate,
    normalize_g2,
)
from .errors import (
    BiphotonError,
    ConfigError,
    DataError,
    InvalidBinError,
    NumericalError,
)
from .fit import FitResult, fit_constant_phase, fit_double_exponential, fit_visibility
from .model import (
    RECONSTRUCTION_PHASES,
    AnalyzerSetting,
    ReferenceAmplitude,
    TpwfModel,
    bandwidth_to_corr_time,
    bandwidth_to_intensity_fwhm,
    forward_g2,
    forward_two_photon_amplitude,
    tpwf_eval,
    visibility_curve,
)
from .reconstruct import (
    PhaseTriple,
    ReconstructedTpwf,
    background_estimate,
    propagate_errors,
    reconstruct_bin,
    reconstruct_curve,
    reconstruct_values,
)
from .simulate import (
    PairDelaySampler,
    SimConfig,
    derive_setting_seed,
    generate_blocks,
    generate_stream,
    rate_level_histogram,
    sample_pair_delay,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyzerSetting",
    "BiphotonError",
    "CoincidenceHistogram",
    "ConfigError",
    "DataError",
    "FitResult",
    "InvalidBinError",
    "NumericalError",
    "PairDelaySampler",
    "PhaseTriple",
    "RECONSTRUCTION_PHASES",
    "ReconstructedTpwf",
    "ReferenceAmplitude",
    "SimConfig",
    "TimeTagStream",
    "TpwfModel",
    "apply_gate",
    "background_estimate",
    "bandwidth_to_corr_time",
    "bandwidth_to_intensity_fwhm",
    "cross_correlate",
    "derive_setting_seed",
    "fit_constant_phase",
    "fit_double_exponential",
    "fit_visibility",
    "forward_g2",
    "forward_two_photon_amplitude",
    "generate_blocks",
    "generate_stream",
    "normalize_g2",
    "propagate_errors",
    "rate_level_histogram",
    "reconstruct_bin",
    "reconstruct_curve",
    "reconstruct_values",
    "sample_pair_delay",
    "tpwf_eval",
    "visibility_curve",
]
