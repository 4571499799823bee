"""Homology of finite delta-complexes, finite regular covers, and homology
growth along towers, with exact integer linear algebra underneath."""

from .intlinalg import (
    ExactnessViolation,
    FgAbelianGroup,
    IntegerMatrix,
    SmithDecomposition,
    cokernel_structure,
    rank_mod_p,
    ranks_mod_primes,
    smith_normal_form,
    soule_torsion_bound,
    verify_torsion_exactness_lemmas,
)
from .deltacomplex import (
    ComplexFormatError,
    DeltaComplex,
    FundamentalCycle,
    NonOrientableError,
    NotPseudomanifoldError,
    boundary_matrix,
    builtin,
    cap_duality_check,
    complex_from_json,
    complex_to_json,
    homology_profile,
    orient,
    validate_complex,
)
from .covers import (
    PermutationAction,
    Presentation,
    Tower,
    action_to_json,
    build_cover,
    edge_path_presentation,
    mod_power_tower,
    orientation_double_cover,
    validate_action,
)
from .bounds import (
    BoundReport,
    BoundViolation,
    check_bounds,
    check_index2_reduction,
    duality_report,
    rank_bound_value,
    torsion_bound_value,
)
from .growth import GrowthReport, gap_consistency_check, run_tower

__version__ = "0.1.0"
