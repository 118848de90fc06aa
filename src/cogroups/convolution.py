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

The cogroup's inverse nu and the antipode chi are both convolution
inverses, computed by the one routine ``convolution_inverse``: nu of the
inclusion C -> A on the coalgebra source (``Cogroup`` extends it to an
algebra morphism), chi of the identity of A on the cogroup source
(``antipode_by_recursion``, which assumes no product structure;
``classify`` uses it as the independent chi).  ``antipode`` builds the
same chi from generator data instead: the recursion on generators, then
one product per longer word, since chi is a graded anti-homomorphism.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING

from .algebra import AlgebraElement, TruncatedTensorAlgebra, accumulate, format_word
from .coalgebra import AxiomReport, CoalgebraPresentation

if TYPE_CHECKING:
    from .cogroup import Cogroup


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
        return self.difference_witness(other) is None

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
    table: dict = {}
    for d in range(1, A.truncation + 1):
        for w in alg.basis(d):
            if len(w) == 1:
                acc = {w: -1}
                for c, y, z in A.reduced_coproduct_word(w):
                    alg.mul_into(acc, {y: 1}, table[z].terms, -c)
            else:
                acc = _anti_product(alg, table.__getitem__, w)
            table[w] = AlgebraElement(alg, acc)
    return GradedMap(CogroupSource(A), alg, table, check=False)


def _anti_product(alg: TruncatedTensorAlgebra, image, w) -> dict:
    """(-1)^{|a||v|} image(v) image(a) for the word w = a.v, unreduced."""
    a, rest = w[:1], w[1:]
    acc: dict = {}
    sign = -1 if alg.word_degree(a) * alg.word_degree(rest) % 2 else 1
    alg.mul_into(acc, image(rest).terms, image(a).terms, sign)
    return acc


def antipode_by_recursion(A: Cogroup) -> GradedMap:
    """chi as the convolution inverse of the identity, word by word:
    chi(w) = -w - sum c y chi(z) over Dbar(w).  It assumes no product
    structure and builds about 2^len(w) terms per word."""
    return convolution_inverse(identity_map(A))


def check_hopf_antipode(A: Cogroup, chi: GradedMap) -> AxiomReport:
    """Both antipode laws, mul.(chi (x) 1).D = eta.eps = mul.(1 (x) chi).D,
    for every word of positive degree up to the truncation.

    The laws are computed on generators, from Dbar(g).  A longer word
    a.w is checked against chi(a.w) = (-1)^{|a||w|} chi(w) chi(a), one
    product and no Dbar.  Since D is an algebra morphism, a graded
    anti-homomorphism that satisfies both laws on generators satisfies
    them on every word, by induction on length (Milnor-Moore).  For chi
    = ``antipode(A)`` that identity holds by construction, so only the
    generator recursion is then tested; the word-level check is kept in
    ``tests/hopf_oracle.py`` and in ``perfbench/oracle.py``.
    """
    alg = A.algebra
    checked = 0
    violations = []
    for d in range(1, A.truncation + 1):
        for w in alg.basis(d):
            checked += 1
            img = chi.image(w)
            if len(w) == 1:
                left = dict(img.terms)
                left[w] = left.get(w, 0) + 1
                right = dict(left)
                for c, y, z in A.reduced_coproduct_word(w):
                    alg.mul_into(left, chi.image(y).terms, {z: 1}, c)
                    alg.mul_into(right, {y: 1}, chi.image(z).terms, c)
                for law, terms in (("chi * id", left), ("id * chi", right)):
                    value = AlgebraElement(alg, terms)
                    if value:
                        violations.append(
                            f"({law})({format_word(w)}) = {value}, expected 0"
                        )
                continue
            want = AlgebraElement(alg, _anti_product(alg, chi.image, w))
            if img != want:
                violations.append(
                    f"chi({format_word(w)}) = {img}, expected {want} "
                    "(graded anti-homomorphism)"
                )
    return AxiomReport(checked, violations)


def _spans(vectors, k, ring) -> bool:
    """Whether the sparse vectors ``{coordinate: coefficient}`` span R^k.

    Forward elimination over the coordinates 0..k-1 that pivots only on a
    unit of R: a nonzero entry over Q and F_p, +-1 over Z, an entry prime
    to n over Z/n.  Once the coordinates before i are cleared with unit
    pivots, the pivot rows and the coordinates from i on split R^k as a
    direct sum, so the vectors span R^k exactly when the unused ones span
    the coordinates from i on: exactly when, at i and at each later
    coordinate, their entries generate the unit ideal of R (R is a PID or
    a quotient of Z).  Over Z and Z/n a Euclid loop of row operations
    turns entries that generate it into a unit; when it leaves one
    non-unit, or none, they generate a proper ideal.
    """
    n = ring.characteristic()
    if ring.kind == "Z":
        is_unit, inverse = (lambda x: abs(x) == 1), (lambda x: x)
    elif ring.kind == "Q":
        is_unit, inverse = bool, (lambda x: Fraction(1) / x)
    else:  # Z/n and F_p, entries reduced mod n
        is_unit, inverse = (lambda x: gcd(x, n) == 1), (lambda x: pow(x, -1, n))
    rows = []
    for v in vectors:
        row: dict = {}
        _add_row(row, v, 1, n)
        if row:
            rows.append(row)
    for i in range(k):
        live = [r for r in rows if i in r]
        top = next((r for r in live if is_unit(r[i])), None)
        while top is None:
            if len(live) < 2:
                return False
            p = min(live, key=lambda r: abs(r[i]))
            for r in live:
                if r is not p:
                    _add_row(r, p, -(r[i] // p[i]), n)
            live = [r for r in live if i in r]
            top = next((r for r in live if is_unit(r[i])), None)
        inv = inverse(top[i])
        for r in live:
            if r is not top:
                _add_row(r, top, -r[i] * inv, n)
        rows = [r for r in rows if r is not top]
    return True


def _add_row(row: dict, top: dict, f, n: int) -> None:
    """row += f * top, reduced mod n (n = 0: unreduced), zeros dropped."""
    accumulate(row, top, f)
    for c in top:
        x = row[c] % n if n else row[c]
        if x:
            row[c] = x
        else:
            del row[c]


def is_antipode_surjective(A: Cogroup, chi: GradedMap) -> dict:
    """Per-degree surjectivity of chi on the underlying algebra.

    The degree-d component is the direct sum over its words w of R / m_w
    (m_w the word modulus; m_w = 0 or the characteristic adds nothing).
    chi_d is onto exactly when the images chi(w), together with m_w e_w
    for every word, span R^k; ``_spans`` decides that.  The antipode of
    a connected graded Hopf algebra is bijective, so for chi =
    ``antipode(A)`` every degree is expected to be onto.
    """
    alg = A.algebra
    char = A.ring.characteristic()
    out: dict = {0: True}
    for d in range(1, A.truncation + 1):
        words = alg.basis(d)
        index = {w: i for i, w in enumerate(words)}
        vectors = []
        for w in words:
            terms = chi.image(w).terms
            if not index.keys() >= terms.keys():
                raise ValueError(f"image of {format_word(w)} leaves degree {d}")
            vectors.append({index[v]: c for v, c in terms.items()})
            m = alg.word_modulus(w)
            if m not in (0, char):
                vectors.append({index[w]: m})
        out[d] = _spans(vectors, len(words), A.ring)
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
