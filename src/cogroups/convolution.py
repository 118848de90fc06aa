"""Convolution groups of degree-preserving maps into a graded algebra.

For a connected graded coalgebra C and a connected graded algebra B, the
maps f : C -> B that preserve degree and fix the unit form a group under
convolution f * g = mul . (f (x) g) . D.  On a basis element x with
D(x) = x (x) 1 + sum c_i y_i (x) z_i + 1 (x) x this reads

    (f * g)(x) = f(x) + g(x) + sum c_i f(y_i) g(z_i)

and the inverse is computed by degree induction:

    right:  g(x) = -f(x) - sum c_i f(y_i) g(z_i)
    left:   h(x) = -f(x) - sum c_i h(y_i) f(z_i)

(the two recursions agree; the test suite asserts it).  Sources come in
two flavours: a presented coalgebra with its finite table, and the whole
underlying coalgebra of a cogroup, whose basis elements are words.

The antipode of the underlying Hopf structure is the convolution inverse
of the identity.  ``antipode`` builds it from generator data: the
recursion chi(x) = -x - sum c_i y_i chi(z_i) on generators, then one
product per longer word, since chi is a graded anti-homomorphism.
``antipode_by_recursion`` runs the recursion on every word instead and
assumes no product structure; ``classify`` uses it as the independent chi.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraElement, TruncatedTensorAlgebra, accumulate, format_word
from .coalgebra import AxiomReport, CoalgebraPresentation
from .cogroup import Cogroup
from .rings import smith_normal_form


class CoalgebraSource:
    """Basis = the coalgebra's generators; reduced coproducts from its table."""

    def __init__(self, coalgebra: CoalgebraPresentation, truncation: int):
        self.coalgebra = coalgebra
        self.module = coalgebra.module
        self.ring = coalgebra.ring
        self.truncation = truncation

    def basis(self, d: int):
        if d < 1 or d > self.truncation:
            return []
        return [g.name for g in self.module.generators if g.degree == d]

    def degree(self, key) -> int:
        return self.module.degree_of(key)

    def annihilator(self, key) -> int:
        return self.module.effective_annihilator(key)

    def reduced_coproduct(self, key):
        return self.coalgebra.reduced_coproduct(key)

    def format_key(self, key) -> str:
        return key

    def __eq__(self, other):
        return (
            isinstance(other, CoalgebraSource)
            and self.coalgebra == other.coalgebra
            and self.truncation == other.truncation
        )


class CogroupSource:
    """Basis = all words of the cogroup's underlying algebra."""

    def __init__(self, cogroup: Cogroup):
        self.cogroup = cogroup
        self.ring = cogroup.ring
        self.truncation = cogroup.truncation
        self._algebra = cogroup.algebra

    def basis(self, d: int):
        if d < 1:
            return []
        return self._algebra.basis(d)

    def degree(self, key) -> int:
        return self._algebra.word_degree(key)

    def annihilator(self, key) -> int:
        return self._algebra.word_modulus(key)

    def reduced_coproduct(self, key):
        return self.cogroup.reduced_coproduct_word(key)

    def format_key(self, key) -> str:
        return format_word(key)

    def __eq__(self, other):
        return (
            isinstance(other, CogroupSource)
            and self.cogroup is other.cogroup
        )


class GradedMap:
    """Degree-preserving map from a convolution source into an algebra.

    The table maps basis keys of degree 1..D to elements; missing keys
    mean zero.  Degree 0 is silently the identity on scalars.
    """

    def __init__(self, source, target: TruncatedTensorAlgebra, table: dict, *, check=True):
        self.source = source
        self.target = target
        self.table = dict(table)
        if check:
            self._validate()

    def _validate(self):
        for key, img in self.table.items():
            d = self.source.degree(key)
            if d < 1 or d > self.source.truncation:
                raise ValueError(f"key {key!r} has degree {d} outside 1..{self.source.truncation}")
            if img and not img.is_homogeneous(d):
                raise ValueError(f"image of {key!r} is not homogeneous of degree {d}")
            a = self.source.annihilator(key)
            if a and img.scale(a):
                raise ValueError(f"image of {key!r} is not killed by {a}")

    def image(self, key) -> AlgebraElement:
        img = self.table.get(key)
        return img if img is not None else self.target.zero()

    __call__ = image

    def __eq__(self, other):
        if not isinstance(other, GradedMap):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            return False
        for d in range(1, self.source.truncation + 1):
            for key in self.source.basis(d):
                if self.image(key) != other.image(key):
                    return False
        return True

    def difference_witness(self, other):
        """First basis key where the two maps disagree, or None."""
        for d in range(1, self.source.truncation + 1):
            for key in self.source.basis(d):
                if self.image(key) != other.image(key):
                    return key
        return None


def identity_map(A: Cogroup) -> GradedMap:
    src = CogroupSource(A)
    table = {
        w: A.algebra.element({w: 1})
        for d in range(1, A.truncation + 1)
        for w in A.algebra.basis(d)
    }
    return GradedMap(src, A.algebra, table, check=False)


def unit_map(source, target: TruncatedTensorAlgebra) -> GradedMap:
    """eta . eps: the convolution identity."""
    return GradedMap(source, target, {}, check=False)


def _require_parallel(f: GradedMap, g: GradedMap):
    if f.source != g.source or f.target != g.target:
        raise ValueError("maps do not share source and target")


def convolve(f: GradedMap, g: GradedMap) -> GradedMap:
    _require_parallel(f, g)
    src = f.source
    alg = f.target
    table = {}
    for d in range(1, src.truncation + 1):
        for x in src.basis(d):
            acc = dict(f.image(x).terms)
            accumulate(acc, g.image(x).terms)
            for c, y, z in src.reduced_coproduct(x):
                alg.mul_into(acc, f.image(y).terms, g.image(z).terms, c)
            table[x] = AlgebraElement(alg, acc)
    return GradedMap(src, alg, table, check=False)


def convolution_inverse(f: GradedMap, via: str = "right") -> GradedMap:
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
            table[x] = AlgebraElement(alg, acc)
    return GradedMap(src, alg, table, check=False)


def antipode(A: Cogroup) -> GradedMap:
    """chi = the convolution inverse of the identity, from generator data.

    On a generator, chi(g) = -g - sum c y chi(z) over Dbar(g), read off D
    and never off nu.  A longer word a.w is then one product: chi is a
    graded anti-homomorphism, chi(a.w) = (-1)^{|a||w|} chi(w) chi(a).
    That holds because D is coassociative, which ``tensor_cogroup``
    guarantees; ``antipode_by_recursion`` computes chi without it.
    """
    alg = A.algebra
    deg = alg.word_degree
    table: dict = {}
    for d in range(1, A.truncation + 1):
        for w in alg.basis(d):
            if len(w) == 1:
                acc = {w: -1}
                for c, y, z in A.reduced_coproduct_word(w):
                    alg.mul_into(acc, {y: 1}, table[z].terms, -c)
            else:
                a, rest = w[:1], w[1:]
                acc = {}
                sign = -1 if deg(a) * deg(rest) % 2 else 1
                alg.mul_into(acc, table[rest].terms, table[a].terms, sign)
            table[w] = AlgebraElement(alg, acc)
    return GradedMap(CogroupSource(A), alg, table, check=False)


def antipode_by_recursion(A: Cogroup) -> GradedMap:
    """chi by the memoized word recursion chi(w) = -w - sum c y chi(z)
    over Dbar(w): no product structure assumed, about 2^len(w) terms."""
    src = CogroupSource(A)
    alg = A.algebra
    memo: dict = {}

    def chi(w):
        img = memo.get(w)
        if img is None:
            acc = {w: -1}
            for c, y, z in src.reduced_coproduct(w):
                alg.mul_into(acc, {y: 1}, chi(z).terms, -c)
            img = memo[w] = AlgebraElement(alg, acc)
        return img

    for d in range(1, A.truncation + 1):
        for w in alg.basis(d):
            chi(w)
    return GradedMap(src, alg, memo, check=False)


def check_hopf_antipode(A: Cogroup, chi: GradedMap) -> AxiomReport:
    """Both antipode laws, mul.(chi (x) 1).D = eta.eps = mul.(1 (x) chi).D,
    verified on every word of positive degree up to the truncation."""
    ident = identity_map(A)
    left = convolve(chi, ident)
    right = convolve(ident, chi)
    checked = 0
    violations = []
    for d in range(1, A.truncation + 1):
        for w in A.algebra.basis(d):
            checked += 1
            if left.image(w):
                violations.append(
                    f"(chi * id)({format_word(w)}) = {left.image(w)}, expected 0"
                )
            if right.image(w):
                violations.append(
                    f"(id * chi)({format_word(w)}) = {right.image(w)}, expected 0"
                )
    return AxiomReport(checked, violations)


def _field_rank(rows, ncols, p=0) -> int:
    """Rank over Q (p = 0) or F_p, by forward elimination."""
    if p:
        mat = [[int(v) % p for v in row] for row in rows]
    else:
        mat = [[Fraction(v) for v in row] for row in rows]
    nrows = len(mat)
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        piv = next((r for r in range(rank, nrows) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pivot_row = mat[rank][col:]
        inv = pow(pivot_row[0], -1, p) if p else 1 / pivot_row[0]
        for r in range(rank + 1, nrows):
            row = mat[r]
            if row[col]:
                f = row[col] * inv
                if p:
                    row[col:] = [(a - f * b) % p for a, b in zip(row[col:], pivot_row)]
                else:
                    row[col:] = [a - f * b for a, b in zip(row[col:], pivot_row)]
        rank += 1
    return rank


def is_antipode_surjective(A: Cogroup, chi: GradedMap) -> dict:
    """Per-degree surjectivity of chi on the underlying algebra.

    Over a field this is a rank computation.  Over Z or Z/n the degree-d
    component is a direct sum of cyclic groups Z/m_w (m_w the word
    modulus, 0 meaning free), and chi_d is onto exactly when the
    augmented matrix [C | diag(m_w)] has trivial integer cokernel, i.e.
    all its invariant factors are 1.
    """
    alg = A.algebra
    ring = A.ring
    out: dict = {0: True}
    for d in range(1, A.truncation + 1):
        words = alg.basis(d)
        k = len(words)
        if k == 0:
            out[d] = True
            continue
        index = {w: i for i, w in enumerate(words)}
        cols = []
        for w in words:
            img = chi.image(w)
            if not index.keys() >= img.terms.keys():
                raise ValueError(f"image of {format_word(w)} leaves degree {d}")
            cols.append([img.terms.get(v, 0) for v in words])
        # matrix with chi(w_j) in column j
        mat = [[cols[j][i] for j in range(k)] for i in range(k)]
        if ring.is_field():
            out[d] = _field_rank(mat, k, ring.characteristic()) == k
        else:
            moduli = [alg.word_modulus(w) for w in words]
            aug = [
                [int(mat[i][j]) for j in range(k)]
                + [moduli[i] if j == i else 0 for j in range(k)]
                for i in range(k)
            ]
            factors = smith_normal_form(aug).factors
            out[d] = all(f == 1 for f in factors[:k])
    return out


def antipode_negates_indecomposables(A: Cogroup, chi: GradedMap) -> dict:
    """Per degree: chi acts as -1 on the quotient by decomposables.

    Decomposables in the tensor algebra are spanned by the words of
    length >= 2, so the check is that the single-letter part of chi(w)
    equals minus the single-letter part of w, for every word w.
    """
    alg = A.algebra
    out: dict = {0: True}
    for d in range(1, A.truncation + 1):
        ok = True
        for w in alg.basis(d):
            img = chi.image(w)
            proj = {v: c for v, c in img.terms.items() if len(v) == 1}
            want = alg.element({w: -1}).terms if len(w) == 1 else {}
            if proj != want:
                ok = False
                break
        out[d] = ok
    return out


def is_algebra_morphism(f: GradedMap, A: Cogroup) -> bool:
    """f(uv) = f(u) f(v) on all word pairs with deg u + deg v <= truncation."""
    return _morphism_test(f, A, anti=False)


def is_graded_antihomomorphism(f: GradedMap, A: Cogroup) -> bool:
    """f(uv) = (-1)^{|u||v|} f(v) f(u) on the same pairs."""
    return _morphism_test(f, A, anti=True)


def _morphism_test(f: GradedMap, A: Cogroup, anti: bool) -> bool:
    alg = A.algebra
    D = A.truncation
    for du in range(1, D):
        for dv in range(1, D - du + 1):
            sign = -1 if anti and (du * dv) % 2 else 1
            for u in alg.basis(du):
                fu = f.image(u)
                for v in alg.basis(dv):
                    lhs = f.image(u + v)
                    if anti:
                        rhs = (f.image(v) * fu).scale(sign)
                    else:
                        rhs = fu * f.image(v)
                    if lhs != rhs:
                        return False
    return True
