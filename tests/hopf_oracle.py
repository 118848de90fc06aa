"""The antipode laws on every word: the tests' oracle for ``check_hopf_antipode``.

This is the check that ``cogroups.convolution`` ran before the laws moved
to generators.  It convolves chi with the identity both ways through the
public ``convolve`` and ``identity_map``, which build Dbar(w) for every
word, and assumes nothing about products.
"""

import cogroups as cg


def check_hopf_on_words(A, chi) -> cg.AxiomReport:
    """mul.(chi (x) 1).D = eta.eps = mul.(1 (x) chi).D on every word of
    positive degree up to the truncation."""
    ident = cg.identity_map(A)
    left = cg.convolve(chi, ident)
    right = cg.convolve(ident, chi)
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
