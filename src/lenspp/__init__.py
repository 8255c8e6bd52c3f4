"""Exact classification of free linear (Z/p)^2 quotients of products of two
odd-dimensional spheres: freeness tests, k-invariants, Pontrjagin classes,
equivalence deciders with witnesses, and small-prime censuses."""

from .actions import (
    FreenessReport,
    RotationData,
    from_json,
    is_free,
    is_free_plane_form,
    product_of_lens_spaces,
    validate,
)
from .census import (
    ApplicationReport,
    CensusRecord,
    ClassRepresentative,
    enumerate_free,
    run_census,
    verify_application,
    write_census,
)
from .classify import (
    EquivalenceWitness,
    Verdict,
    canonical_form,
    homeomorphic,
    homotopy_equivalent,
    lens_homotopy_equivalent,
    lens_simple_homotopy_equivalent,
    matching_substitutions,
    simple_homotopy_equivalent,
)
from .errors import (
    CapacityError,
    DegenerateIdeal,
    HypothesisViolation,
    InvalidDimension,
    InvalidPrime,
    InvalidRotation,
    InvalidSpan,
)
from .forms import (
    HomogeneousForm,
    KInvariant,
    k_invariant,
    product_of_linear_forms,
    substitute,
)
from .gfp import Mat2, is_quadratic_residue
from .pontrjagin import (
    TotalClass,
    lens_total_pontrjagin,
    total_pontrjagin,
    total_pontrjagin_raw,
)
from .quotient_ring import CohomRingModel

__version__ = "0.1.0"

__all__ = [
    "ApplicationReport",
    "CapacityError",
    "CensusRecord",
    "ClassRepresentative",
    "CohomRingModel",
    "DegenerateIdeal",
    "EquivalenceWitness",
    "FreenessReport",
    "HomogeneousForm",
    "HypothesisViolation",
    "InvalidDimension",
    "InvalidPrime",
    "InvalidRotation",
    "InvalidSpan",
    "KInvariant",
    "Mat2",
    "RotationData",
    "TotalClass",
    "Verdict",
    "canonical_form",
    "enumerate_free",
    "from_json",
    "homeomorphic",
    "homotopy_equivalent",
    "is_free",
    "is_free_plane_form",
    "is_quadratic_residue",
    "k_invariant",
    "lens_homotopy_equivalent",
    "lens_simple_homotopy_equivalent",
    "lens_total_pontrjagin",
    "matching_substitutions",
    "product_of_lens_spaces",
    "product_of_linear_forms",
    "run_census",
    "simple_homotopy_equivalent",
    "substitute",
    "total_pontrjagin",
    "total_pontrjagin_raw",
    "validate",
    "verify_application",
    "write_census",
]
