"""Finite-instance verification that products and coproducts merge into
biproducts whenever a weakly unital tensor distributes over both.

The construction runs inside concrete categories (boolean relations,
matrices over a semiring, ordered integers, componentwise products) and
certifies every intermediate isomorphism as it is built.
"""
from __future__ import annotations

from .construction import (
    BiproductWitness,
    ZeroWitness,
    biproduct,
    c_map,
    canonical_mixed_map,
    hom_add,
    idempotents,
    star_map,
    t_inverse,
    t_map,
    verify_interchange,
    verify_intertwining,
    verify_semiadditive,
    y_map,
    zero_map,
    zero_object,
)
from .errors import (
    CategoryError,
    DomainMismatch,
    InvalidBounds,
    MissingStructure,
    NoNullaryStructure,
    ParseError,
    UnknownInstance,
    WitnessInvalid,
)
from .kernel import (
    Category,
    CheckResult,
    EquationCheck,
    InversePair,
    Mor,
    Obj,
    check_inverse_pair,
    compose,
    equation,
    identity,
)
from .monoidal import (
    dist_coprod,
    dist_prod,
    has_nullary,
    tensor,
    tensor_obj,
)
from .structure import (
    CoproductWitness,
    Mat2,
    ProductWitness,
    copair,
    from_matrix,
    matrix_of,
    pair,
    plus_map,
    times_map,
    verify_coproduct_witness,
    verify_product_witness,
)

__version__ = "0.1.0"
