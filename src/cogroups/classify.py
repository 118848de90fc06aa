"""Classification: when does the cogroup inverse equal the antipode?

For a cogroup A built on a tensor algebra the following are equivalent:
the inverse nu coincides with the antipode chi of the underlying Hopf
structure; chi is an algebra morphism; the underlying algebra is graded
commutative.  For trivial coproducts all three are further equivalent to
the defining module being locally at most singly generated, which over a
field means: zero, or one free generator of even degree (any degree in
characteristic 2).

Every predicate below is computed independently - nu and chi as
convolution inverses of two different maps (the inclusion C -> A,
extended to an algebra morphism, and the identity of A, word by word),
commutativity on generator pairs, locality by primary decomposition -
and the report records whether they agree.  chi comes from
``antipode_by_recursion``: ``antipode`` builds chi as an
anti-homomorphism, so chi-is-morphism would then only restate
commutativity.  That chi is filled on demand, one degree at a time, so
``classify_cogroup`` builds it only as deep as its two verdicts read.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import format_word, is_graded_commutative
from .coalgebra import trivial_coalgebra
from .cogroup import Cogroup, tensor_cogroup
from .convolution import antipode, antipode_by_recursion, is_algebra_morphism
from .modules import (
    GradedModulePresentation,
    is_admissible_free_cyclic,
    is_locally_at_most_singly_generated,
)


@dataclass
class ClassificationReport:
    """Independently computed verdicts, plus their mutual consistency.

    ``module_free_cyclic`` is None over non-fields, where the membership
    test does not apply.
    """

    inverse_equals_antipode: bool
    antipode_is_morphism: bool
    graded_commutative: bool
    module_locally_cyclic: bool
    module_free_cyclic: bool | None
    consistent: bool
    witness: str | None = None

    def verdicts(self):
        out = [
            ("nu-eq-chi", self.inverse_equals_antipode),
            ("chi-is-morphism", self.antipode_is_morphism),
            ("graded-commutative", self.graded_commutative),
            ("locally-at-most-singly-generated", self.module_locally_cyclic),
            ("free-cyclic-admissible", self.module_free_cyclic),
            ("consistent", self.consistent),
        ]
        return out


def inverse_equals_antipode(A: Cogroup, truncation: int | None = None):
    """Compare nu and chi on every word up to the truncation.

    Returns (verdict, witness); the witness names the first word where
    the two maps differ, with both values.
    """
    return _first_difference(A, antipode(A), truncation)


def _first_difference(A: Cogroup, chi, truncation: int | None):
    D = A.truncation if truncation is None else min(truncation, A.truncation)
    alg = A.algebra
    for d in range(1, D + 1):
        for w in alg.basis(d):
            nu_w = A.nu.word_image(w)
            chi_w = chi.image(w)
            if nu_w != chi_w:
                return False, f"{format_word(w)}: nu = {nu_w}, chi = {chi_w}"
    return True, None


def classify_cogroup(A: Cogroup, truncation: int | None = None) -> ClassificationReport:
    """Run all predicates on a cogroup and cross-check them.

    chi comes from the word recursion, never from nu, and is computed
    once for both the nu-eq-chi and the chi-is-morphism verdicts.  It is
    read only as deep as they need: up to the first word where nu and
    chi differ, then up to the first pair of words that chi fails to
    multiply.  When the algebra is not graded commutative, some pair of
    generators u, v fails, and nu(uv) - chi(uv) has the nonzero length-2
    part uv - (-1)^{|u||v|} vu, so both verdicts are decided by degree
    2 * (top generator degree).  Below that depth they are read off the
    cogroup rebuilt from A's coalgebra at that depth, the depth to which
    ``is_graded_commutative`` widens.
    """
    D = A.truncation if truncation is None else min(truncation, A.truncation)
    need = 2 * A.module.max_degree()
    if A.truncation < need:
        A = Cogroup(A.coalgebra, need)
    chi = antipode_by_recursion(A)
    nec, witness = _first_difference(A, chi, max(D, need))
    chi_mor = is_algebra_morphism(chi, A)
    gc, pair = is_graded_commutative(A.algebra)
    if witness is None and pair is not None:
        u, v = pair
        witness = f"generators {u}, {v} do not graded-commute"
    loc = is_locally_at_most_singly_generated(A.module)
    if witness is None and loc.witness is not None:
        witness = loc.witness
    free_cyclic = (
        is_admissible_free_cyclic(A.module) if A.ring.is_field() else None
    )
    consistent = nec == chi_mor == gc == loc.ok
    if free_cyclic is not None:
        consistent = consistent and free_cyclic == loc.ok
    return ClassificationReport(
        inverse_equals_antipode=nec,
        antipode_is_morphism=chi_mor,
        graded_commutative=gc,
        module_locally_cyclic=loc.ok,
        module_free_cyclic=free_cyclic,
        consistent=consistent,
        witness=witness,
    )


def classify_module(
    N: GradedModulePresentation, truncation: int | None = None
) -> ClassificationReport:
    """Classify the cogroup on T(N) with every generator primitive.

    The truncation defaults to 2 * (max generator degree) + 2, enough to
    watch the inverse and the antipode part ways on generator squares.
    For a single cyclic summand the commutativity verdict is also checked
    against the closed form: degree even, or cyclic quotient of
    characteristic 2.
    """
    if truncation is None:
        truncation = 2 * N.max_degree() + 2
    A = tensor_cogroup(trivial_coalgebra(N), truncation)
    report = classify_cogroup(A)
    if len(N.generators) == 1:
        g = N.generators[0]
        eff = g.annihilator or N.ring.characteristic()
        if eff != 1:
            closed_form = g.degree % 2 == 0 or eff == 2
            if closed_form != report.graded_commutative:
                report.consistent = False
                report.witness = (
                    f"closed form predicts graded commutative = {closed_form}"
                )
    return report
