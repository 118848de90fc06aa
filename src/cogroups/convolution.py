"""The antipode of a tensor-algebra cogroup, its Hopf laws and bijectivity.

For a connected graded coalgebra C and a connected graded algebra B, the
maps f : C -> B that preserve degree and fix the unit form a group under
convolution f * g = mul . (f (x) g) . D.  On a basis element x with
D(x) = x (x) 1 + sum c_i y_i (x) z_i + 1 (x) x this reads

    (f * g)(x) = f(x) + g(x) + sum c_i f(y_i) g(z_i)

and the inverse of f follows by degree induction, from the right:

    g(x) = -f(x) - sum c_i f(y_i) g(z_i).

The antipode chi is the inverse of the identity of A, on whose words
the recursion runs.  The inverse nu and chi agree on generators and
differ in how they extend: nu is an ``AlgebraMorphism``, chi an
``AntiMorphism``.  Both take the one set of generator images
``Cogroup.generator_images`` computes off the coalgebra table,
g -> -g - sum c y f(z) over Dbar(g): the inverse of the inclusion
C -> A.  ``antipode_by_recursion`` runs the recursion on every word of
A instead, with no product structure on A, over Dbar(w) from
``Cogroup.reduced_coproducts``, which multiplies D's generator pair
dicts; ``classify`` uses it as the independent chi.  Like nu and chi it
is a ``GradedMap``, filled one whole degree at a time and in order, as a
row triple keyed by position with each row in print order, so a caller
that stops reading at a low degree never builds the higher ones.  The
convolution product,
the left recursion and the inverse of any map on a dict table are the
tests' oracles.

The Hopf laws and the bijectivity of chi are proved from its generator
images; a map that fails the bijectivity certificate goes to ``_spans``.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd

from .algebra import AlgebraElement, AntiMorphism, GradedMap, _reduce_terms, format_word
from .coalgebra import AxiomReport
from .cogroup import Cogroup


def antipode(A: Cogroup) -> AntiMorphism:
    """chi = the convolution inverse of the identity, from generator data:
    the graded anti-morphism with chi(g) = -g - sum c y chi(z) over the
    table's Dbar(g), the generator images it shares with nu.  It is the
    inverse because D is coassociative, which ``tensor_cogroup``
    guarantees; ``antipode_by_recursion`` computes chi without that."""
    return AntiMorphism(A.algebra, A.algebra, A.generator_images)


def antipode_by_recursion(A: Cogroup) -> GradedMap:
    """chi as the convolution inverse of the identity, word by word:
    chi(w) = -w - sum c y chi(z) over Dbar(w).  It assumes no product
    structure and builds about 2^len(w) terms per word, a degree at a
    time: only the degrees read so far are built."""
    return _RecursionInverse(A)


class _RecursionInverse(GradedMap):
    """The right recursion g(w) = -w - sum c y g(z) over A's Dbar(w)."""

    def __init__(self, A: Cogroup):
        super().__init__(A.algebra, A.algebra)
        self.cogroup = A

    def _fill(self, d: int) -> tuple:
        """g on basis(d) as a row triple: y.t, t at position q of
        basis(|z|), is the word at P(y, d) + q.  Each row is reduced as
        ``_reduce_terms`` reduces it, then put in print order."""
        alg, filled, prefix_at = self.target, self._by_degree, {}
        position, prefixes = alg.sort_key, alg.prefixes
        moduli = alg.moduli(d) if alg.fixed_modulus is None else None
        keys, coefficients, starts = [], [], [0]
        for p, dbar in enumerate(self.cogroup.reduced_coproducts(d)):
            acc = {p: -1}
            get = acc.get
            for c, y, z in dbar:
                e, i = position(z)
                start = prefix_at.get(y)
                if start is None:  # P(y, d), once a degree
                    k, j = position(y)
                    start = prefix_at[y] = prefixes(k, d)[j]
                ke, ce, se = filled[e]
                for x in range(se[i], se[i + 1]):
                    q = start + ke[x]
                    acc[q] = get(q, 0) - c * ce[x]
            acc = _reduce_terms(alg, acc, moduli)
            order = sorted(acc)
            keys += order
            coefficients += map(acc.__getitem__, order)
            starts.append(len(keys))
        return keys, coefficients, starts


def check_hopf_antipode(A: Cogroup, chi: AntiMorphism) -> AxiomReport:
    """Both antipode laws, mul.(chi (x) 1).D = eta.eps = mul.(1 (x) chi).D.

    D is an algebra morphism, so an anti-morphism that satisfies both laws
    on generators satisfies them on every word, by induction on length
    (Milnor-Moore); only generators are checked, and any other map is
    refused.  The check on every word is the oracle in the tests and in
    ``perfbench/oracle.py``.
    """
    if not isinstance(chi, AntiMorphism):
        raise ValueError("the antipode laws are checked for an AntiMorphism only")
    alg, images = A.algebra, chi.images
    gens = [(g.name,) for g in alg.generators]
    violations = []
    for w in gens:
        left = dict(images[w[0]].terms)
        left[w] = left.get(w, 0) + 1
        right = dict(left)
        for c, y, z in A.coalgebra.table.get(w[0], ()):  # Dbar(g), read off the table
            alg.mul_into(left, images[y].terms, {(z,): 1}, c)
            alg.mul_into(right, {(y,): 1}, images[z].terms, c)
        for law, terms in (("chi * id", left), ("id * chi", right)):
            value = AlgebraElement(alg, terms)
            if value:
                violations.append(f"({law})({w[0]}) = {value}, expected 0")
    return AxiomReport(len(gens), violations)


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
            x = x % n if n else x
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


def _bijective_on_generators(A: Cogroup, chi) -> bool:
    """Whether chi is an anti-morphism of A.algebra that sends each
    generator g to u g plus words of length >= 2 and degree |g|, with u a
    unit mod the modulus m_g of g: +-1 over Z and nonzero over Q where
    m_g = 0, anything where m_g = 1 (g is zero)."""
    alg = A.algebra
    if not (isinstance(chi, AntiMorphism) and chi.source == alg == chi.target):
        return False
    for g in alg.generators:
        w, img = (g.name,), chi.images.get(g.name)
        if img is None or any(
            alg.word_degree(v) != g.degree or len(v) < 2 and v != w for v in img.terms
        ):
            return False
        u, m = img.terms.get(w, 0), alg.word_modulus(w)
        if not (gcd(u, m) == 1 if m else u != 0 if A.ring.kind == "Q" else abs(u) == 1):
            return False
    return True


def is_antipode_surjective(A: Cogroup, chi: AntiMorphism | GradedMap) -> dict:
    """Per-degree surjectivity of chi on the underlying algebra.

    The degree-d component is the direct sum over its words w of R / m_w
    (m_w the word modulus).  If chi passes ``_bijective_on_generators``,
    no word is read: chi reverses products, so chi(a_1 ... a_L) =
    +-u_{a_L} ... u_{a_1} a_L ... a_1 plus longer words, with a unit
    coefficient since m_w divides each m_{a_i}.  chi then keeps the
    filtration of each degree by word length and is an isomorphism on
    its graded pieces, so it is bijective over any commutative ring
    (Milnor-Moore).  ``antipode(A)`` always passes.  Otherwise, and as
    the tests' oracle, chi_d is onto exactly when the images chi(w),
    with m_w e_w for every word (zero where m_w is 0 or the
    characteristic), span R^k; ``_spans`` decides that, with the words
    as coordinates, in basis order, and each image as a row.
    """
    if _bijective_on_generators(A, chi):
        return dict.fromkeys(range(A.truncation + 1), True)
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

