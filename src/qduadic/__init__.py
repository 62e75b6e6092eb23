"""Duadic codes over finite fields and the quantum stabilizer codes they
generate, with exact desk-scale minimum-distance verification."""

from .cyclic import (
    CyclicCode,
    DefiningSet,
    CosetStructure,
    cyclotomic_cosets,
    code_under_mu,
    dual_defining_set,
    euclidean_dual,
    hermitian_dual,
    hermitian_dual_defining_set,
    is_quadratic_residue,
    make_cyclic_code,
    mu_apply,
    ord_mod,
)
from .distance import (
    DistanceResult,
    macwilliams,
    support_search_min_weight,
    weight_distribution,
)
from .duadic import (
    DegeneracyCertificate,
    DuadicQuartet,
    Splitting,
    build_quartet,
    default_splitting,
    degeneracy_certificate,
    duadic_exists,
    find_splittings,
    iter_splittings,
    splitting_by,
)
from .galois import (
    Field,
    FieldError,
    Poly,
    make_field,
    primitive_nth_root,
)
from .stabilizer import (
    StabilizerParams,
    check_square_root_bound,
    degeneracy_verdict,
    select_splitting,
    stabilizer_params,
)

__version__ = "0.1.0"
