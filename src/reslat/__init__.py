"""Analysis toolkit for finite residuated lattices.

Structures are given by operation tables over a carrier {0, .., n-1}.
Subsets of the carrier (filters, ideals, join-closed sets) are plain int
bit vectors throughout.
"""

__version__ = "0.1.0"

from .structure import Structure, ValidationReport, validate_structure, leq, is_mtl
from .filters import (
    all_filters,
    all_ideals,
    generated_filter,
    generated_ideal,
    is_filter,
    is_ideal,
)
from .spectra import (
    SpectrumReport,
    is_join_closed,
    is_prime,
    minimal_primes_over,
    spectrum,
)
from .coann import coann_family, coannihilator, gamma_join
from .omega import (
    dense_set,
    divisor,
    omega,
    omega_family,
    omega_join,
    sigma,
)
from .normality import (
    EquivalenceVerdict,
    NormalityReport,
    is_n_prime,
    n_normality_verdict,
    normality_report,
    normality_verdict,
    omega_sublattice_verdict,
    separating_elements,
    sigma_greatest_check,
)
from .battery import VerificationReport, run_battery

__all__ = [
    "Structure",
    "ValidationReport",
    "validate_structure",
    "leq",
    "is_mtl",
    "all_filters",
    "all_ideals",
    "generated_filter",
    "generated_ideal",
    "is_filter",
    "is_ideal",
    "SpectrumReport",
    "is_join_closed",
    "is_prime",
    "minimal_primes_over",
    "spectrum",
    "coann_family",
    "coannihilator",
    "gamma_join",
    "dense_set",
    "divisor",
    "omega",
    "omega_family",
    "omega_join",
    "sigma",
    "EquivalenceVerdict",
    "NormalityReport",
    "is_n_prime",
    "n_normality_verdict",
    "normality_report",
    "normality_verdict",
    "omega_sublattice_verdict",
    "separating_elements",
    "sigma_greatest_check",
    "VerificationReport",
    "run_battery",
]
