"""Shared test helpers: the exact rates of a phase triple."""

import numpy as np

from biphoton import RECONSTRUCTION_PHASES

PHASE_FACTORS = [np.exp(-2j * phi) for phi in RECONSTRUCTION_PHASES]


def forward_triple(gamma, psi):
    """Definitional rates y_k = |gamma exp(-2 i phi_k) - psi|^2 at the
    three reconstruction phases."""
    return [np.abs(gamma * f - psi) ** 2 for f in PHASE_FACTORS]
