"""Decompositions of simplicial and Vietoris-Rips complexes over a vertex
cover, with exact homological verification."""

from .analyzer import CRITERIA, analyze, analyze_metric
from .complexes import (
    Complex,
    Cover,
    enumerate_p_complement,
    make_simplex,
)
from .errors import (
    CoverError,
    EmptyComplex,
    EnumerationRefused,
    InvalidInput,
    NotASubcomplex,
    RipsDecompError,
)
from .homology import (
    BoundaryMatrix,
    ContractibilityCertificate,
    HomologyProfile,
    boundary_matrix,
    contractibility_certificate,
    homology,
    induced_map,
)
from .metric import (
    DistanceSpace,
    MetricCover,
    check_cross_domination,
    check_shared_witness,
    check_simplex_assumption,
    check_strong_simplex_assumption,
    diam,
    is_metric_gluing,
    is_pseudometric,
    validate,
    vietoris_rips,
)
from .reporting import CriterionVerdict, DecompositionReport

__version__ = "0.1.0"
