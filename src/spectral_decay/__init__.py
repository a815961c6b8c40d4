"""Band structure, gap eigenvalues and decay-rate verification for 1D
periodic Schrodinger (Hill) and Dirac operators."""

from .potentials import (
    CompactPerturbation,
    MatrixPerturbation,
    PeriodicPotential,
    load_perturbation,
    load_potential,
)
from .floquet import FloquetData, discriminant, discriminant_derivative, \
    floquet_solutions, multiplicator
from .bands import BandStructure, band_edges, spectral_distance
from .symbols import SymbolSystem, SymbolReport, dirac_alpha_system, gamma, \
    pauli_system, symbol
from .gap import BSSpectrum, GapEigenpair, birman_schwinger_spectrum, \
    eigenfunction, matching_determinant, solve_coupling
from .dirac import DiracEigenpair, dirac_eigenfunction, dirac_gap_eigenvalues, \
    dirac_tail
from .decay import (
    DecayFit,
    check_F_prime_asymptotics,
    check_edge_asymptotics,
    check_prop_H,
    counterexample_search,
    fit_decay_rate,
    gap_ratio,
)

__version__ = "0.1.0"
