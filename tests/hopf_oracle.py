"""Antipode properties on every word, for the tests.

``check_hopf_on_words`` is the tests' oracle for ``check_hopf_antipode``,
which checks the laws on generators only: it checks them on every word,
for any map, anti-morphism or not.  It convolves chi with the identity
both ways through ``convolve`` (in ``convolution_oracle``) and
``identity_map``, which build Dbar(w) for every word, and assumes
nothing about products.
``antipode_negates_indecomposables`` reads chi modulo decomposables.
"""

import cogroups as cg
from convolution_oracle import convolve


def check_hopf_on_words(A, chi) -> cg.AxiomReport:
    """mul.(chi (x) 1).D = eta.eps = mul.(1 (x) chi).D on every word of
    positive degree up to the truncation.  chi is any map with an
    ``image`` of each word; it is read as a full table."""
    ident = cg.identity_map(A)
    table = {w: chi.image(w) for w in A.algebra.words_up_to() if w}
    chi = cg.GradedMap(ident.source, A.algebra, table)
    left = convolve(chi, ident)
    right = convolve(ident, chi)
    checked = 0
    violations = []
    for d in range(1, A.truncation + 1):
        for w in A.algebra.basis(d):
            checked += 1
            if left.image(w):
                violations.append(
                    f"(chi * id)({cg.format_word(w)}) = {left.image(w)}, expected 0"
                )
            if right.image(w):
                violations.append(
                    f"(id * chi)({cg.format_word(w)}) = {right.image(w)}, expected 0"
                )
    return cg.AxiomReport(checked, violations)


def antipode_negates_indecomposables(A, chi) -> dict:
    """Per degree: chi acts as -1 on the quotient by decomposables.

    Decomposables in the tensor algebra are spanned by the words of
    length >= 2, so the check is that the single-letter part of chi(w)
    equals minus the single-letter part of w, for every word w.
    """
    alg = A.algebra
    out = {0: True}
    for d in range(1, A.truncation + 1):
        out[d] = all(
            {v: c for v, c in chi.image(w).terms.items() if len(v) == 1}
            == (alg.element({w: -1}).terms if len(w) == 1 else {})
            for w in alg.basis(d)
        )
    return out
