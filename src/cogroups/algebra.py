"""Truncated tensor algebras on presented graded modules.

The tensor algebra T(N) on a graded module N has, in each degree d, one
basis word for every sequence of generators whose degrees sum to d.  We
keep everything below a truncation degree D: products simply drop the
part above D, which is safe because every computation here is degreewise.

There is one element type, ``AlgebraElement``: a sparse dict from words
(tuples of generator names) to coefficients over its parent, a
``TruncatedTensorAlgebra``, which supplies each word's degree and
modulus and the product of words.

Reduction rule: the coefficient module of a key is R/(m), where m is the
gcd of the ring characteristic and the annihilators of its letters, so a
word mixing coprime torsion letters is identically zero.  A key is a
word or a tuple of words, such as a pair (u, v) of the tensor square,
whose letters are those of its words.  Coefficients are stored
canonically, as the ring's ``normalize`` gives them: residues in [0, m)
when m > 0, and otherwise plain ``int`` over Z and Q, with a ``Fraction``
only for a non-integral rational.  Sums and products accumulate into one
dict and reduce once, in ``_reduce_terms``, at the end.

There is one map type out of a tensor algebra, ``GradedMap``: word
images stored a whole degree at a time, in basis order, as term dicts.
A subclass fills one degree from those below.  A morphism's fill
multiplies homogeneous images whose term pairs never meet, so there the
reduction is chosen once for the whole map.
"""

from __future__ import annotations

from functools import reduce
from itertools import count, repeat
from math import gcd

from .modules import GradedModulePresentation


def format_word(word) -> str:
    """A word as its runs of letters: ("x", "x", "y") is x^2*y."""
    if not word:
        return "1"
    parts = []
    prev, n = word[0], 0
    for letter in word:
        if letter == prev:
            n += 1
        else:
            parts.append(prev if n == 1 else f"{prev}^{n}")
            prev, n = letter, 1
    parts.append(prev if n == 1 else f"{prev}^{n}")
    return "*".join(parts)


def _format_terms(items, fmt_key):
    """Render sorted (key, coeff) pairs as a signed sum."""
    out = []
    for key, c in items:
        if c < 0:
            c = -c
            out.append(" - ")
        else:
            out.append(" + ")
        if not key:
            out.append(str(c))
        elif c == 1:
            out.append(fmt_key(key))
        else:
            out.append(f"{c}*{fmt_key(key)}")
    if not out:
        return "0"
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)


def _reduce_terms(parent, terms: dict) -> dict:
    """Each coefficient reduced into R/(parent.modulus(key)); zeros dropped.

    A key is a word, or a tuple of words such as a pair or triple of the
    coalgebra layer.  ``int`` coefficients take the fast path.  Anything
    else goes through the ring's ``normalize``, which rejects values
    outside the ring and returns the value stored.
    """
    modulus = parent.modulus
    fixed = parent.fixed_modulus
    out = {}
    for k, c in terms.items():
        if type(c) is not int:
            c = parent.ring.normalize(c)
        m = fixed if fixed is not None else modulus(k)
        if m:
            c %= m
        if c:
            out[k] = c
    return out


class _Memo(dict):
    """A dict that computes and keeps the value of a missing key.

    Its bound ``__getitem__`` stands in for the function it memoises.
    """

    __slots__ = ("compute",)

    def __init__(self, compute):
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


class _ByDegree(dict):
    """word -> its entry in a table kept a degree at a time.

    A miss fills every word of the word's degree d at once: basis(d),
    built through the algebra, zipped with ``entries(d)``.  A word in no
    basis gets ``absent(word)``, or a KeyError.
    """

    __slots__ = ("degrees", "basis", "entries", "absent")

    def __init__(self, algebra, entries, absent=None):
        self.degrees, self.basis = algebra._degrees, algebra.basis
        self.entries, self.absent = entries, absent

    def __missing__(self, word):
        try:
            d = self.degrees[word]
        except KeyError:  # a letter that is no generator: in no basis
            d = -1
        self.update(zip(self.basis(d), self.entries(d)))
        if word in self:
            return self[word]
        if self.absent is None:
            raise KeyError(word)
        return self.absent(word)


def accumulate(acc: dict, terms: dict, c=1) -> None:
    """acc += c * terms, unreduced."""
    get = acc.get
    for k, v in terms.items():
        acc[k] = get(k, 0) + c * v


class TruncatedTensorAlgebra:
    """T(N) kept up to a truncation degree."""

    def __init__(self, module: GradedModulePresentation, truncation: int):
        if truncation < 0:
            raise ValueError("truncation must be >= 0")
        self.module = module
        self.ring = module.ring
        self.truncation = truncation
        # the generators in play, in declaration order: the one-letter words
        self.generators = [g for g in module.generators if g.degree <= truncation]
        self._deg = {g.name: g.degree for g in module.generators}
        self._ann = {g.name: g.annihilator for g in module.generators}
        self._basis_cache: list = [[()]]  # basis(d) at index d
        self._labels: list = [["1"]]  # labels(d) at index d
        self._runs: list = [[("1", None, 0, "")]]  # per word: label, first letter, its run, rest
        deg, ann, char = self._deg, self._ann, self.ring.characteristic()
        self._degrees = _Memo(lambda w: sum(deg[l] for l in w))
        self._degrees.update(((n,), d) for n, d in deg.items())
        self.word_degree = self._degrees.__getitem__
        self._moduli = moduli = _Memo(lambda key: reduce(
            gcd, (ann[l] if type(l) is str else moduli[l] for l in key), char))
        # how elements print: terms in basis order, words as their labels
        self.sort_key = _ByDegree(self, lambda d: zip(repeat(d), count())).__getitem__
        self.format_key = _ByDegree(self, self.labels, format_word).__getitem__
        # the modulus of every word, when no letter's annihilator lowers it
        self.fixed_modulus = char if all(gcd(char, a) == char for a in ann.values()) else None

    def __eq__(self, other):
        return self is other or (
            isinstance(other, TruncatedTensorAlgebra)
            and self.module == other.module
            and self.truncation == other.truncation
        )

    def __repr__(self):
        return f"TruncatedTensorAlgebra({self.module.ring}, D={self.truncation})"

    def word_modulus(self, key) -> int:
        """gcd of the ring characteristic and the letters' annihilators; for
        a tuple of words such as (u, v) or (u, v, w), the gcd of their
        moduli (kept in the memo too), the modulus of their concatenation."""
        if self.fixed_modulus is not None:
            return self.fixed_modulus
        return self._moduli[key]

    # the name ``_reduce_terms`` reads a key's modulus by
    modulus = word_modulus

    def mul_into(self, acc: dict, left: dict, right: dict, c=1) -> None:
        """acc += c * left * right (concatenation), unreduced and truncated."""
        deg = self._degrees
        top = self.truncation
        get = acc.get
        for w1, v1 in left.items():
            room = top - deg[w1]
            cv = c * v1
            for w2, v2 in right.items():
                if deg[w2] <= room:
                    w = w1 + w2
                    acc[w] = get(w, 0) + cv * v2

    def basis(self, d: int) -> list:
        """All words of degree d, in a fixed order (first letter major).

        The degrees below d are built first, in a loop, so a deep
        truncation cannot hit the recursion limit.  Building a degree
        records each word's degree.
        """
        if d < 0 or d > self.truncation:
            return []
        cache, gens = self._basis_cache, self.module.generators
        while len(cache) <= d:
            e = len(cache)
            words = [(g.name,) + w for g in gens if g.degree <= e for w in cache[e - g.degree]]
            cache.append(words)
            self._degrees.update(zip(words, repeat(e)))
        return cache[d]

    def labels(self, d: int) -> list:
        """``format_word`` of each word of basis(d), in its order, built as the
        basis is: the label of g.v follows from v's label, the length of v's
        first run of letters and the label after that run (x, x^2*y: x^3*y)."""
        if d < 0 or d > self.truncation:
            return []
        labels, runs = self._labels, self._runs
        while len(runs) <= d:
            e, info = len(runs), []
            for g in self.module.generators:
                n, k = g.name, e - g.degree  # the words g.v, v in basis(k)
                for label, head, run, rest in runs[k] if k >= 0 else ():
                    if head == n:
                        run += 1
                        label = f"{n}^{run}*{rest}" if rest else f"{n}^{run}"
                    else:
                        run, rest = 1, label if head else ""
                        label = f"{n}*{rest}" if rest else n
                    info.append((label, n, run, rest))
            runs.append(info)
            labels.append([t[0] for t in info])
        return labels[d]

    def words_up_to(self, dmax: int | None = None):
        top = self.truncation if dmax is None else min(dmax, self.truncation)
        for d in range(top + 1):
            yield from self.basis(d)

    def element(self, terms: dict) -> "AlgebraElement":
        for w in terms:
            for l in w:
                if l not in self._deg:
                    raise ValueError(f"unknown generator {l!r} in word")
        kept = {
            w: c for w, c in terms.items() if self.word_degree(w) <= self.truncation
        }
        return AlgebraElement(self, kept)

    def zero(self) -> "AlgebraElement":
        return AlgebraElement.trusted(self, {})

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, {(): 1})

    def scalar(self, c) -> "AlgebraElement":
        return AlgebraElement(self, {(): c})

    def generator(self, name: str) -> "AlgebraElement":
        if name not in self._deg:
            raise KeyError(name)
        return self.element({(name,): 1})


class AlgebraElement:
    """Sparse element of a truncated tensor algebra.

    Treat instances as immutable: morphisms cache and share them.
    """

    __slots__ = ("parent", "terms")

    def __init__(self, parent, terms: dict):
        self.parent = parent
        self.terms = _reduce_terms(parent, terms)

    @classmethod
    def trusted(cls, parent, terms: dict) -> "AlgebraElement":
        """Wrap terms that are already reduced, without checking them."""
        elem = cls.__new__(cls)
        elem.parent = parent
        elem.terms = terms
        return elem

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.terms == other.terms
            and (self.parent is other.parent or self.parent == other.parent)
        )

    def coefficient(self, key):
        return self.terms.get(key, 0)

    def is_homogeneous(self, d: int) -> bool:
        deg = self.parent.word_degree
        return all(deg(k) == d for k in self.terms)

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        accumulate(out, other.terms)
        return AlgebraElement(self.parent, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        accumulate(out, other.terms, -1)
        return AlgebraElement(self.parent, out)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "AlgebraElement":
        return AlgebraElement(self.parent, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return self.scale(other)
        self._check(other)
        out: dict = {}
        self.parent.mul_into(out, self.terms, other.terms)
        return AlgebraElement(self.parent, out)

    def __rmul__(self, c):
        return self.scale(c)

    def _check(self, other):
        if not isinstance(other, AlgebraElement) or not (
            other.parent is self.parent or other.parent == self.parent
        ):
            raise ValueError("elements belong to different algebras")

    def __str__(self):
        terms = self.terms
        items = terms.items()
        if len(terms) > 1:
            items = [(k, terms[k]) for k in sorted(terms, key=self.parent.sort_key)]
        return _format_terms(items, self.parent.format_key)

    __repr__ = __str__


class GradedMap:
    """Degree-preserving map out of a truncated tensor algebra, stored a
    whole degree at a time: f on basis(d), in its order, as reduced term
    dicts of the target.  A subclass supplies ``_fill(d)``, which may read
    every degree below d from ``_by_degree``.  Degree 0 is 1 -> 1.

    Reading a word fills its degree and those below, in a loop, so a deep
    truncation cannot hit the recursion limit; the library reads in basis
    order, or reads generators only.
    """

    def __init__(self, source: TruncatedTensorAlgebra, target):
        self.source = source
        self.target = target
        self._by_degree: list = []  # f on basis(d), as term dicts, at index d

    def image(self, word) -> AlgebraElement:
        """The image of a basis word of the source."""
        try:
            d, i = self.source.sort_key(word)
        except KeyError:
            raise ValueError(f"{format_word(word)} is not a basis word of the source") from None
        return AlgebraElement.trusted(self.target, self.degree_images(d)[i])

    def degree_images(self, d: int) -> list:
        """f on basis(d), d <= the source's truncation, in its order, as shared
        reduced term dicts.  The first read fills d and each degree below."""
        filled = self._by_degree
        while len(filled) <= d:
            filled.append(self._fill(len(filled)) if filled else [self.target.one().terms])
        return filled[d]

    def __call__(self, elem: AlgebraElement):
        if elem.parent is not self.source and elem.parent != self.source:
            raise ValueError("element is not in the source algebra")
        acc: dict = {}
        for w, c in elem.terms.items():
            accumulate(acc, self.image(w).terms, c)
        return AlgebraElement(self.target, acc)


class AlgebraMorphism(GradedMap):
    """Degree-preserving algebra map out of a truncated tensor algebra.

    Determined by generator images, extended multiplicatively over words
    and linearly over terms.  The ``images`` dict is kept, not copied,
    so maps built on one dict share it; do not change it afterwards.

    basis(d) lists a.v for each generator a and v in basis(d - |a|), so
    f on basis(d) is f(a) times each image of degree d - |a|, in turn.
    """

    _anti = False  # f(a.v) = f(a) f(v); an AntiMorphism swaps the factors and signs

    def __init__(self, source: TruncatedTensorAlgebra, target, images: dict, *, check=True):
        super().__init__(source, target)
        self.images = images
        self._top = 0  # a degree up to this multiplies homogeneous images
        self._mod = None  # reduce there: % m, dropping zeros (m > 0), none (0), _reduce_terms (None)
        if check:
            self._validate()
            self._top = min(source.truncation, target.truncation)
            # a Fraction, or a modulus that varies by word, needs _reduce_terms
            if all(type(c) is int for g in source.generators for c in images[g.name].terms.values()):
                self._mod = target.fixed_modulus

    def _validate(self):
        for g in self.source.generators:
            if g.name not in self.images:
                raise ValueError(f"no image for generator {g.name}")
            img = self.images[g.name]
            if img.parent != self.target:
                raise ValueError(f"image of {g.name} is not in the target")
            if img and not img.is_homogeneous(g.degree):
                raise ValueError(
                    f"image of {g.name} is not homogeneous of degree {g.degree}"
                )
            if g.annihilator and img.scale(g.annihilator):
                raise ValueError(
                    f"image of {g.name} is not killed by its annihilator "
                    f"{g.annihilator}"
                )

    def _fill(self, d: int) -> list:
        filled, images, target, out = self._by_degree, self.images, self.target, []
        general, mod, anti = d > self._top, self._mod, self._anti
        for g in self.source.module.generators:
            e = d - g.degree
            if e < 0 or not filled[e]:
                continue
            fa = images[g.name].terms
            if not e:  # a one-letter word: its image, with no product by 1
                out.append(fa)
                continue
            sign = -1 if anti and g.degree * e % 2 else 1
            pairs = zip(filled[e], repeat(fa)) if anti else zip(repeat(fa), filled[e])
            if general:  # the images may meet or leave the target: multiply out
                for left, right in pairs:
                    acc: dict = {}
                    target.mul_into(acc, left, right, sign)
                    out.append(_reduce_terms(target, acc))
            elif mod:  # a product of residues mod n can vanish: drop it
                out += [
                    {w1 + w2: c for w1, v1 in left.items() for w2, v2 in right.items() if (c := sign * v1 * v2 % mod)}
                    for left, right in pairs
                ]
            else:
                products = [
                    {w1 + w2: sign * v1 * v2 for w1, v1 in left.items() for w2, v2 in right.items()}
                    for left, right in pairs
                ]
                out += products if mod == 0 else [_reduce_terms(target, t) for t in products]
        return out


class AntiMorphism(AlgebraMorphism):
    """A graded anti-morphism: f(a.v) = (-1)^{|a||v|} f(v) f(a)."""

    _anti = True


def is_graded_commutative(algebra: TruncatedTensorAlgebra):
    """Check uv = (-1)^{|u||v|} vu on all generator pairs.

    Products of generators generate everything, so this decides graded
    commutativity of the whole algebra, independent of truncation: the
    pairs are multiplied in a widened copy when the truncation is too
    small to see them.
    """
    mod = algebra.module
    need = 2 * mod.max_degree()
    amb = algebra if algebra.truncation >= need else TruncatedTensorAlgebra(mod, need)
    for u in mod.generators:
        for v in mod.generators:
            gu, gv = amb.generator(u.name), amb.generator(v.name)
            sign = -1 if (u.degree * v.degree) % 2 else 1
            if gu * gv != (gv * gu).scale(sign):
                return False, (u.name, v.name)
    return True, None


def is_algebra_morphism(f: GradedMap, A: "Cogroup") -> bool:
    """f(uv) = f(u) f(v) on all word pairs with deg u + deg v <= truncation:
    by induction on the length of u, f on each basis(d) is the morphism fill
    of f's generator images over f's own lists below d, filled first."""
    alg = A.algebra
    images = {g.name: f.image((g.name,)) for g in alg.generators}
    fill = AlgebraMorphism(alg, f.target, images, check=False)
    fill._by_degree = f._by_degree
    return all(f.degree_images(d) == fill._fill(d) for d in range(2, A.truncation + 1) if alg.basis(d))
