"""dethodge: exact combinatorics of Hodge ideals, weight filtrations, and
Decomposition Theorem multiplicities for determinantal rank strata.

Everything is exact integer arithmetic: weight predicates, Gaussian
binomials, dimension formulas, and an oracle that cross-validates the
symbolic-power predicate by orders of vanishing along random lines in
the matrix entries.
"""

from .characters import (
    cauchy_check,
    dim_irrep,
    hilbert_function,
    lr_coefficient,
    tensor_decomposition_check,
    tensor_expansion,
)
from .hodgeideals import (
    WeightSet,
    grF_Dp_layer,
    hodge_ideal_exponents,
    in_Fk_Sdet,
    in_hodge_ideal,
    in_symbolic_power,
    minimal_generators,
    parse_weight_set,
    translate,
    verify_equivalence,
)
from .matrixspace import (
    MatrixSpace,
    Stratum,
    codim_stratum,
    dim_stratum,
    local_cohomology_degree,
)
from .mhmweights import (
    filtration_support_check,
    generation_level_Sdet,
    local_cohomology_weight,
    local_weight_ledger_check,
    square_start_levels_consistency,
    square_weight_layer,
    start_level,
    weight_ledger,
)
from .oracle import (
    RankConstrainedSampler,
    dcep_cross_validation_upto,
    ideal_power_hilbert,
    line_vanishing_order,
)
from .qseries import (
    DecompositionTable,
    LaurentPoly,
    closed_form_OYp,
    grassmannian_poincare,
    pushforward_structure_checks,
    pushforward_DpY,
    pushforward_prefactor,
    q_binomial,
    qbinomial_identity_verdicts,
    solve_pushforward_OYp,
    stalk_poly,
    verify_qbinomial_identity,
)
from .reporting import VerificationReport
from .repsets import (
    classify,
    compose_weight,
    decompose_weight,
    in_Ukp,
    in_Wp,
    in_Wpd,
    lambda_p_mu,
    minimal_elements,
)
from .weights import (
    WeightBox,
    delta_p,
    dominant_tuples,
    dual,
    is_dominant,
    is_partition,
    lambda_of_p,
    leq,
    pad,
    partitions_of,
    strip_zeros,
)

__version__ = "0.1.0"
