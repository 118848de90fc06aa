"""Classification: when does the cogroup inverse equal the antipode?

For a cogroup A built on a tensor algebra the following are equivalent:
the inverse nu coincides with the antipode chi of the underlying Hopf
structure; chi is an algebra morphism; the underlying algebra is graded
commutative.  For trivial coproducts all three are further equivalent to
the defining module being locally at most singly generated, which over a
field means: zero, or one free generator of even degree (any degree in
characteristic 2).

Every predicate below is computed independently - nu from its
generator images read off the coalgebra table, extended to an algebra
morphism, chi as the convolution inverse of the identity of A, word by
word over Dbar, chi-is-morphism against the morphism fill of chi's
generator images, commutativity on generator pairs, locality by pairwise
gcds - and the report records whether they agree.  chi comes
from ``antipode_by_recursion``: ``antipode`` builds chi as an
anti-homomorphism on nu's generator images, so chi-is-morphism would
then only restate commutativity.  Both chis, like nu, are graded maps
filled on demand, one whole degree at a time in basis order: nu and chi
are compared row triple against row triple, and ``classify_cogroup``
builds chi, and the Dbar it reads, only as deep as its two verdicts read.
"""

from __future__ import annotations

from .algebra import _format_terms, is_algebra_morphism, is_graded_commutative, row
from .cogroup import Cogroup
from .convolution import antipode, antipode_by_recursion
from .modules import is_admissible_free_cyclic, is_locally_at_most_singly_generated
from .rings import value_eq


class ClassificationReport:
    """Independently computed verdicts, plus their mutual consistency.

    ``module_free_cyclic`` is None over non-fields, where the membership
    test does not apply.  Reports with equal fields are equal.
    """

    __slots__ = ("inverse_equals_antipode", "antipode_is_morphism", "graded_commutative",
                 "module_locally_cyclic", "module_free_cyclic", "consistent", "witness")
    __eq__ = value_eq(*__slots__)

    def __init__(
        self, inverse_equals_antipode: bool, antipode_is_morphism: bool,
        graded_commutative: bool, module_locally_cyclic: bool,
        module_free_cyclic: bool | None, consistent: bool, witness: str | None = None,
    ):
        self.inverse_equals_antipode = inverse_equals_antipode
        self.antipode_is_morphism = antipode_is_morphism
        self.graded_commutative = graded_commutative
        self.module_locally_cyclic = module_locally_cyclic
        self.module_free_cyclic = module_free_cyclic
        self.consistent = consistent
        self.witness = witness

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
    """nu against chi in basis order, a degree at a time: whole row triples,
    each row in print order, then the first row of a degree that differs."""
    D = A.truncation if truncation is None else min(truncation, A.truncation)
    alg = A.algebra
    for d in alg.degrees(1, D):
        nu_d, chi_d = A.nu.degree_images(d), chi.degree_images(d)
        if nu_d != chi_d:
            for p in range(len(nu_d[2]) - 1):
                nu_w, chi_w = row(nu_d, p), row(chi_d, p)
                if nu_w != chi_w:
                    label = alg.labels(d).__getitem__
                    nu_w, chi_w = _format_terms(nu_w, label), _format_terms(chi_w, label)
                    return False, f"{label(p)}: nu = {nu_w}, chi = {chi_w}"
    return True, None


def classify_cogroup(A: Cogroup, truncation: int | None = None) -> ClassificationReport:
    """Run all predicates on a cogroup and cross-check them.

    chi comes from the word recursion, never from nu, and is computed
    once for both the nu-eq-chi and the chi-is-morphism verdicts.  It is
    read only as deep as they need: up to the first word where nu and
    chi differ, then up to the first degree where chi is not the morphism
    fill of its own generator images.  When the algebra is not graded
    commutative, some pair of generators u, v fails, and nu(uv) - chi(uv)
    has the nonzero length-2 part uv - (-1)^{|u||v|} vu, so both verdicts
    are decided by degree 2 * (top generator degree).  Below that depth
    they are read off the cogroup rebuilt from A's coalgebra at that
    depth, the depth to which ``is_graded_commutative`` widens.
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
