"""Cogroups in connected graded algebras over exact coefficient rings.

The package builds tensor-algebra cogroups from presented coalgebras,
computes the cogroup inverse and the antipode of the underlying Hopf
structure, and classifies when the two coincide (exactly the graded
commutative case).  All arithmetic is exact; everything is truncated at
a chosen top degree.
"""

from .rings import RingSpec, is_prime
from .modules import (
    CyclicGenerator,
    GradedModulePresentation,
    LocalityResult,
    direct_sum,
    is_admissible_free_cyclic,
    is_locally_at_most_singly_generated,
    module,
    shift,
)
from .algebra import (
    AlgebraElement,
    AlgebraMorphism,
    FreeProduct,
    TensorSquare,
    TruncatedTensorAlgebra,
    compose,
    format_word,
    free_product,
    is_graded_commutative,
    renaming_morphism,
    tensor_algebra,
)
from .coalgebra import (
    AxiomReport,
    CoalgebraPresentation,
    check_coalgebra_axioms,
    is_cocommutative,
    trivial_coalgebra,
)
from .cogroup import (
    Cogroup,
    check_cogroup_axioms,
    fold,
    is_cogroup_morphism,
    tensor_cogroup,
)
from .convolution import (
    CoalgebraSource,
    CogroupSource,
    GradedMap,
    antipode,
    antipode_by_recursion,
    check_hopf_antipode,
    convolution_inverse,
    convolve,
    identity_map,
    is_algebra_morphism,
    is_antipode_surjective,
    unit_map,
)
from .classify import (
    ClassificationReport,
    classify_cogroup,
    classify_module,
    inverse_equals_antipode,
)
from .dsl import ParseError, ProblemSpec, parse_spec, render_spec

__all__ = [
    "RingSpec", "is_prime",
    "CyclicGenerator", "GradedModulePresentation", "LocalityResult",
    "direct_sum", "is_admissible_free_cyclic",
    "is_locally_at_most_singly_generated", "module", "shift",
    "AlgebraElement", "AlgebraMorphism", "FreeProduct",
    "TensorSquare", "TruncatedTensorAlgebra", "compose", "format_word",
    "free_product", "is_graded_commutative", "renaming_morphism",
    "tensor_algebra",
    "AxiomReport", "CoalgebraPresentation", "check_coalgebra_axioms",
    "is_cocommutative", "trivial_coalgebra",
    "Cogroup", "check_cogroup_axioms", "fold", "is_cogroup_morphism",
    "tensor_cogroup",
    "CoalgebraSource", "CogroupSource", "GradedMap", "antipode",
    "antipode_by_recursion", "check_hopf_antipode", "convolution_inverse",
    "convolve", "identity_map", "is_algebra_morphism", "is_antipode_surjective",
    "unit_map",
    "ClassificationReport", "classify_cogroup", "classify_module",
    "inverse_equals_antipode",
    "ParseError", "ProblemSpec", "parse_spec", "render_spec",
]
