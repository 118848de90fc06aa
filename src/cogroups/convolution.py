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

``convolution_inverse`` and ``identity_map`` fill their tables on
demand, one whole degree at a time and in order: reading a key of degree
d first fills every degree up to d not yet filled, so a caller that
stops reading at a low degree never builds the higher ones.
"""

from __future__ import annotations

from collections import defaultdict
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
    mean zero.  Degree 0 is silently the identity on scalars.  Read
    images through ``image``: the maps of ``identity_map`` and
    ``convolution_inverse`` fill their table on demand, by degree, so
    their ``table`` holds only the degrees read so far.
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


class _FilledByDegree(GradedMap):
    """A GradedMap whose table ``fill(table, d)`` fills one whole degree
    at a time, in order, when a key of a degree not yet filled is read.

    Filling whole degrees in order keeps the fill a loop, so a deep
    truncation cannot hit the recursion limit, and ``fill`` may read any
    key of a lower degree straight from the table.
    """

    def __init__(self, source, target, fill):
        super().__init__(source, target, {}, check=False)
        self._fill = fill
        self._filled = 0

    def image(self, key) -> AlgebraElement:
        img = self.table.get(key)
        if img is None:
            top = min(self.source.degree(key), self.source.truncation)
            while self._filled < top:
                self._filled += 1
                self._fill(self.table, self._filled)
            img = self.table.get(key)
            if img is None:
                return self.target.zero()
        return img

    __call__ = image


def identity_map(A: Cogroup) -> GradedMap:
    alg = A.algebra

    def fill(table, d):
        for w in alg.basis(d):
            table[w] = alg.element({w: 1})

    return _FilledByDegree(CogroupSource(A), alg, fill)


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
    """Inverse in the convolution group, by either one-sided recursion.

    The recursion runs on demand, a whole degree at a time and in the
    order of a full build, so every image is the one a full build gives.
    """
    if via not in ("right", "left"):
        raise ValueError("via must be 'right' or 'left'")
    src = f.source
    alg = f.target

    def fill(table, d):
        for x in src.basis(d):
            acc = {k: -v for k, v in f.image(x).terms.items()}
            for c, y, z in src.reduced_coproduct(x):
                if via == "right":
                    alg.mul_into(acc, f.image(y).terms, table[z].terms, -c)
                else:
                    alg.mul_into(acc, table[y].terms, f.image(z).terms, -c)
            table[x] = AlgebraElement(alg, acc)

    return _FilledByDegree(src, alg, fill)


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
    structure and builds about 2^len(w) terms per word, on demand: only
    the degrees read so far are built."""
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


def _spans(vectors, coords, ring) -> bool:
    """Whether the sparse vectors ``{coordinate: coefficient}`` span R^k,
    k = len(coords).

    Forward elimination over ``coords``, in their order, that pivots only
    on a unit of R: a nonzero entry over Q and F_p, +-1 over Z, an entry
    prime to n over Z/n.  Once the coordinates before i are cleared with
    unit pivots, the pivot rows and the coordinates from i on split R^k
    as a direct sum, so the vectors span R^k exactly when the unused ones
    span the coordinates from i on: exactly when, at i and at each later
    coordinate, their entries generate the unit ideal of R (R is a PID or
    a quotient of Z).  Over Z and Z/n a Euclid loop of row operations
    turns entries that generate it into a unit; when it leaves one
    non-unit, or none, they generate a proper ideal.

    A column index, coordinate -> ids of the rows that hold it, finds the
    rows at i without scanning the others; the row operation updates it
    for the coordinates it creates or cancels, and a used pivot row
    leaves it.  Rows are taken in id order, the order of ``vectors``, so
    the pivot at i is the first unit among them.  Over Q a +-1 pivot is
    its own inverse as a plain int, so integral rows stay ints and
    ``Fraction`` arithmetic starts only at a pivot that is not +-1.
    """
    n = ring.characteristic()
    if ring.kind == "Z":
        is_unit, inverse = (lambda x: abs(x) == 1), (lambda x: x)
    elif ring.kind == "Q":
        is_unit, inverse = bool, (lambda x: x if abs(x) == 1 else Fraction(1) / x)
    else:  # Z/n and F_p, entries reduced mod n
        is_unit, inverse = (lambda x: gcd(x, n) == 1), (lambda x: pow(x, -1, n))
    rows = []
    cols = defaultdict(set)
    for v in vectors:
        row = {}
        for c, x in v.items():
            # an integral Fraction over Q becomes an int
            x = x % n if n else x.numerator if x.denominator == 1 else x
            if x:
                row[c] = x
                cols[c].add(len(rows))
        rows.append(row)
    for i in coords:
        live = sorted(cols[i])
        top = next((t for t in live if is_unit(rows[t][i])), None)
        while top is None:
            if len(live) < 2:
                return False
            p = min(live, key=lambda t: abs(rows[t][i]))
            pivot = rows[p]
            for t in live:
                if t != p:
                    _add_row(rows[t], t, pivot, -(rows[t][i] // pivot[i]), n, cols)
            live = sorted(cols[i])
            top = next((t for t in live if is_unit(rows[t][i])), None)
        pivot = rows[top]
        inv = inverse(pivot[i])
        for t in live:
            if t != top:
                _add_row(rows[t], t, pivot, -rows[t][i] * inv, n, cols)
        for c in pivot:
            cols[c].discard(top)
    return True


def _add_row(row: dict, rid: int, top: dict, f, n: int, cols) -> None:
    """row += f * top, reduced mod n (n = 0: unreduced), zeros dropped;
    ``cols`` gains or loses the row's id ``rid`` where an entry appears
    or cancels."""
    get = row.get
    for c, y in top.items():
        x = get(c, 0)
        z = (x + f * y) % n if n else x + f * y
        if z:
            row[c] = z
            if not x:
                cols[c].add(rid)
        elif x:
            del row[c]
            cols[c].discard(rid)


def is_antipode_surjective(A: Cogroup, chi: GradedMap) -> dict:
    """Per-degree surjectivity of chi on the underlying algebra.

    The degree-d component is the direct sum over its words w of R / m_w
    (m_w the word modulus; m_w = 0 or the characteristic adds nothing).
    chi_d is onto exactly when the images chi(w), together with m_w e_w
    for every word, span R^k; ``_spans`` decides that, with the words
    themselves as coordinates, in basis order, and each image's terms as
    its row.  The antipode of a connected graded Hopf algebra is
    bijective, so for chi = ``antipode(A)`` every degree is expected to
    be onto.
    """
    alg = A.algebra
    char = A.ring.characteristic()
    out: dict = {0: True}
    for d in range(1, A.truncation + 1):
        words = alg.basis(d)
        inside = set(words)
        vectors = []
        for w in words:
            terms = chi.image(w).terms
            if not inside.issuperset(terms):
                raise ValueError(f"image of {format_word(w)} leaves degree {d}")
            vectors.append(terms)
            m = alg.word_modulus(w)
            if m not in (0, char):
                vectors.append({w: m})
        out[d] = _spans(vectors, words, A.ring)
    return out


def is_algebra_morphism(f: GradedMap, A: Cogroup) -> bool:
    """f(uv) = f(u) f(v) on all word pairs with deg u + deg v <= truncation."""
    alg = A.algebra
    D = A.truncation
    for du in range(1, D):
        for dv in range(1, D - du + 1):
            for u in alg.basis(du):
                fu = f.image(u)
                for v in alg.basis(dv):
                    if f.image(u + v) != fu * f.image(v):
                        return False
    return True
