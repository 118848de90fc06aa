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
    is_admissible_free_cyclic,
    is_locally_at_most_singly_generated,
)
from .algebra import (
    AlgebraElement,
    AlgebraMorphism,
    AntiMorphism,
    TensorSquare,
    TruncatedTensorAlgebra,
    format_word,
    is_graded_commutative,
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
    is_cogroup_morphism,
    tensor_cogroup,
)
from .convolution import (
    CogroupSource,
    GradedMap,
    antipode,
    antipode_by_recursion,
    check_hopf_antipode,
    convolution_inverse,
    identity_map,
    is_algebra_morphism,
    is_antipode_surjective,
)
from .classify import (
    ClassificationReport,
    classify_cogroup,
    inverse_equals_antipode,
)
from .dsl import ParseError, ProblemSpec, parse_spec

__all__ = [
    "RingSpec", "is_prime",
    "CyclicGenerator", "GradedModulePresentation", "LocalityResult",
    "is_admissible_free_cyclic", "is_locally_at_most_singly_generated",
    "AlgebraElement", "AlgebraMorphism", "AntiMorphism", "TensorSquare",
    "TruncatedTensorAlgebra", "format_word", "is_graded_commutative",
    "AxiomReport", "CoalgebraPresentation", "check_coalgebra_axioms",
    "is_cocommutative", "trivial_coalgebra",
    "Cogroup", "check_cogroup_axioms", "is_cogroup_morphism", "tensor_cogroup",
    "CogroupSource", "GradedMap", "antipode",
    "antipode_by_recursion", "check_hopf_antipode", "convolution_inverse",
    "identity_map", "is_algebra_morphism", "is_antipode_surjective",
    "ClassificationReport", "classify_cogroup", "inverse_equals_antipode",
    "ParseError", "ProblemSpec", "parse_spec",
]
