"""Shared test helpers: the inputs the tests build, each built in one place.

SHIPPED_MODEL is the model of the shipped default config.  forward_triple
gives the exact rates of a phase triple, rate_level_triple a seeded phase
triple of rate-level histograms, phase_histogram one setting's histogram
of given counts, and stream a tag stream of given timestamps.
"""

import numpy as np

from biphoton import (
    RECONSTRUCTION_PHASES,
    AnalyzerSetting,
    CoincidenceHistogram,
    PhaseTriple,
    SimConfig,
    TimeTagStream,
    derive_setting_seed,
    rate_level_histogram,
)
from biphoton.cli import PipelineConfig

BALANCED = AnalyzerSetting.balanced

_SHIPPED = PipelineConfig()
SHIPPED_MODEL = _SHIPPED.model

PHASE_FACTORS = [np.exp(-2j * phi) for phi in RECONSTRUCTION_PHASES]


def forward_triple(gamma, psi):
    """Definitional rates y_k = |gamma exp(-2 i phi_k) - psi|^2 at the
    three reconstruction phases."""
    return [np.abs(gamma * f - psi) ** 2 for f in PHASE_FACTORS]


def rate_level_triple(
    seed,
    *,
    model=SHIPPED_MODEL,
    gamma=_SHIPPED.gamma,
    duration=_SHIPPED.sim.duration,
    pair_rate=_SHIPPED.sim.pair_rate,
    singles_rate=_SHIPPED.sim.singles_rate_a,
    bin_width=_SHIPPED.bin_width,
) -> PhaseTriple:
    """Rate-level histograms at the three reconstruction phases, setting k
    drawn from derive_setting_seed(seed, k) as the pipeline seeds it.  The
    defaults are the shipped config's, both channels at singles_rate."""
    hists = []
    for k, phi in enumerate(RECONSTRUCTION_PHASES):
        cfg = SimConfig(
            pair_rate=pair_rate,
            singles_rate_a=singles_rate,
            singles_rate_b=singles_rate,
            duration=duration,
            # The literal, not the shipped sim.tau_window (400.0 * 1e-9, one
            # ulp above it), so the draws stay those the tests were set on.
            tau_window=400e-9,
            seed=derive_setting_seed(seed, k),
        )
        hists.append(rate_level_histogram(cfg, BALANCED(phi), model, gamma, bin_width))
    return PhaseTriple(*hists)


def phase_histogram(counts, duration, singles, k, bin_width_ps=4000, tau_min_ps=None):
    """The histogram of the given counts at RECONSTRUCTION_PHASES[k].

    singles is both channels' total or a pair (singles_a, singles_b).  The
    bins start at tau_min_ps, by default -bin_width_ps * (n // 2)."""
    counts = np.asarray(counts, dtype=np.int64)
    singles_a, singles_b = singles if isinstance(singles, tuple) else (singles, singles)
    if tau_min_ps is None:
        tau_min_ps = -bin_width_ps * (counts.size // 2)
    return CoincidenceHistogram(
        bin_width_ps=bin_width_ps,
        tau_min_ps=tau_min_ps,
        counts=counts,
        acquisition_time=duration,
        singles_a=singles_a,
        singles_b=singles_b,
        setting=BALANCED(RECONSTRUCTION_PHASES[k]),
    )


def stream(channel, ts_ps, duration=1.0):
    """A tag stream of the given timestamps (ps)."""
    return TimeTagStream(channel, np.asarray(ts_ps, dtype=np.int64), duration)
