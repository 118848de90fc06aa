"""The convolution inverse built in one eager pass: the tests' oracle for
``convolution_inverse``, which fills its table on demand, by degree.

``convolution_inverse_eagerly`` is the loop that ``cogroups.convolution``
ran before the table was filled on demand: it builds every degree up to
the truncation before it returns.  ``explicit_identity`` is the identity
of a cogroup's algebra as a full table.
"""

import cogroups as cg


def convolution_inverse_eagerly(f, via="right"):
    """Inverse in the convolution group, by either one-sided recursion."""
    if via not in ("right", "left"):
        raise ValueError("via must be 'right' or 'left'")
    src = f.source
    alg = f.target
    table: dict = {}
    for d in range(1, src.truncation + 1):
        for x in src.basis(d):
            acc = {k: -v for k, v in f.image(x).terms.items()}
            for c, y, z in src.reduced_coproduct(x):
                if via == "right":
                    alg.mul_into(acc, f.image(y).terms, table[z].terms, -c)
                else:
                    alg.mul_into(acc, table[y].terms, f.image(z).terms, -c)
            table[x] = cg.AlgebraElement(alg, acc)
    return cg.GradedMap(src, alg, table, check=False)


def explicit_identity(A):
    """The identity of A's algebra, every word of degree 1..D in the table."""
    alg = A.algebra
    table = {
        w: alg.element({w: 1}) for d in range(1, A.truncation + 1) for w in alg.basis(d)
    }
    return cg.GradedMap(cg.CogroupSource(A), alg, table, check=False)
