"""Truncated tensor algebras on presented graded modules.

The tensor algebra T(N) on a graded module N has, in each degree d, one
basis word for every sequence of generators whose degrees sum to d.  We
keep everything below a truncation degree D: products simply drop the
part above D, which is safe because every computation here is degreewise.

There is one element type, ``AlgebraElement``: a sparse dict from basis
keys to coefficients over a parent.  The parent is either a
``TruncatedTensorAlgebra``, whose keys are words (tuples of generator
names), or its ``TensorSquare``, whose keys are pairs of words.  The
parent supplies each key's degree and modulus and the product of keys.

Reduction rule: the coefficient module of a key is R/(m), where m is the
gcd of the ring characteristic and the annihilators of its letters, so a
word mixing coprime torsion letters is identically zero.  Coefficients
are stored canonically: residues in [0, m) when m > 0, and otherwise
plain ``int`` over Z and Q, with a ``Fraction`` only for a non-integral
rational.  Sums and products accumulate into one dict and reduce once,
in ``_reduce_terms``, at the end; ``homogeneous_product``, the word-table
product of nu and chi, whose term pairs never meet, reduces each term.

Sign conventions: multiplication of simple tensors in the tensor square
follows the Koszul rule (a (x) b)(c (x) d) = (-1)^{|b||c|} ac (x) bd.
Degree-preserving maps are applied to tensors slotwise without signs.
"""

from __future__ import annotations

from fractions import Fraction
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

    ``int`` coefficients take the fast path.  Anything else goes through
    the ring's ``normalize``, which rejects values outside the ring, and
    an integral ``Fraction`` comes back as an ``int``.
    """
    modulus = parent.modulus
    fixed = parent.fixed_modulus
    out = {}
    for k, c in terms.items():
        if type(c) is not int:
            c = parent.ring.normalize(c)
            if type(c) is not Fraction or c.denominator == 1:
                c = int(c)
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


class _BasisOrder(dict):
    """word -> (d, position of the word in basis(d)): the order terms print in.

    A miss builds basis(d), through the algebra, for the word's degree d
    and records the keys of all its words at once.
    """

    __slots__ = ("degrees", "basis")

    def __init__(self, degrees, basis):
        self.degrees = degrees
        self.basis = basis

    def __missing__(self, word):
        d = self.degrees[word]
        self.update(zip(self.basis(d), zip(repeat(d), count())))
        if word not in self:  # above the truncation: in no basis
            raise KeyError(word)
        return self[word]


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
        self._deg = {g.name: g.degree for g in module.generators}
        self._ann = {g.name: g.annihilator for g in module.generators}
        self._basis_cache: dict[int, list] = {}
        deg, ann, char = self._deg, self._ann, self.ring.characteristic()
        self._degrees = _Memo(lambda w: sum(deg[l] for l in w))
        self._moduli = _Memo(lambda w: reduce(gcd, (ann[l] for l in w), char))
        # how elements print: terms in basis order, words as labels
        self.sort_key = _BasisOrder(self._degrees, self.basis).__getitem__
        self.format_key = _Memo(format_word).__getitem__
        # the modulus of every word, when no letter's annihilator lowers it
        self.fixed_modulus = (
            char if all(gcd(char, a) == char for a in ann.values()) else None
        )
        # every word's modulus where no product of nonzero coefficients vanishes, else None
        self._exact = None if self.ring.kind == "Zmod" else self.fixed_modulus

    def __eq__(self, other):
        return self is other or (
            isinstance(other, TruncatedTensorAlgebra)
            and self.module == other.module
            and self.truncation == other.truncation
        )

    def __repr__(self):
        return f"TruncatedTensorAlgebra({self.module.ring}, D={self.truncation})"

    def word_degree(self, word) -> int:
        return self._degrees[word]

    def word_modulus(self, word) -> int:
        """gcd of the ring characteristic and the letters' annihilators."""
        if self.fixed_modulus is not None:
            return self.fixed_modulus
        return self._moduli[word]

    # the element protocol's names for a word's degree and modulus
    degree = word_degree
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

    def homogeneous_product(self, left: dict, right: dict, sign=1) -> "AlgebraElement":
        """sign * left * right for sign = +-1, a homogeneous left factor and
        a product inside the truncation: every word w1 + w2 then has one
        prefix of the left factor's degree, so no two term pairs meet, and
        over Z, Q and F_p no term needs more than its own reduction."""
        p, rhs = self._exact, right.items()
        if p:  # F_p
            terms = {w1 + w2: sign * v1 * v2 % p for w1, v1 in left.items() for w2, v2 in rhs}
            return AlgebraElement.trusted(self, terms)
        terms = {w1 + w2: sign * v1 * v2 for w1, v1 in left.items() for w2, v2 in rhs}
        if p is None or self.ring.kind == "Q" and Fraction in map(type, terms.values()):
            return AlgebraElement(self, terms)
        return AlgebraElement.trusted(self, terms)

    def basis(self, d: int) -> list:
        """All words of degree d, in a fixed order (first letter major).

        Building it records each word's degree.
        """
        if d < 0 or d > self.truncation:
            return []
        cached = self._basis_cache.get(d)
        if cached is None:
            if d == 0:
                cached = [()]
            else:
                cached = [
                    (g.name,) + w
                    for g in self.module.generators
                    if g.degree <= d
                    for w in self.basis(d - g.degree)
                ]
            self._basis_cache[d] = cached
            self._degrees.update(zip(cached, repeat(d)))
        return cached

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


class TensorSquare:
    """A (x) A with the Koszul-signed multiplication, truncated by total degree."""

    def __init__(self, algebra: TruncatedTensorAlgebra):
        self.algebra = algebra
        self.ring = algebra.ring
        self.truncation = algebra.truncation
        self.fixed_modulus = algebra.fixed_modulus
        wm = algebra.word_modulus
        self._moduli = _Memo(lambda p: gcd(wm(p[0]), wm(p[1])))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, TensorSquare) and self.algebra == other.algebra
        )

    def degree(self, pair) -> int:
        wd = self.algebra.word_degree
        return wd(pair[0]) + wd(pair[1])

    def modulus(self, pair) -> int:
        return self._moduli[pair]

    def mul_into(self, acc: dict, left: dict, right: dict, c=1) -> None:
        """acc += c * left * right with the Koszul sign, unreduced and truncated."""
        deg = self.algebra._degrees
        top = self.truncation
        get = acc.get
        for (a1, b1), v1 in left.items():
            db = deg[b1]
            room = top - deg[a1] - db
            cv = c * v1
            for (a2, b2), v2 in right.items():
                da2 = deg[a2]
                if da2 + deg[b2] <= room:
                    p = (a1 + a2, b1 + b2)
                    acc[p] = get(p, 0) + (-cv * v2 if db * da2 % 2 else cv * v2)

    def sort_key(self, pair):
        key = self.algebra.sort_key
        return (key(pair[0]), key(pair[1]))

    def format_key(self, pair) -> str:
        fmt = self.algebra.format_key
        return f"{fmt(pair[0])}(x){fmt(pair[1])}"

    def element(self, terms: dict) -> "AlgebraElement":
        kept = {p: c for p, c in terms.items() if self.degree(p) <= self.truncation}
        return AlgebraElement(self, kept)

    def one(self):
        return AlgebraElement(self, {((), ()): 1})

    def pure(self, w1, w2, c=1):
        return self.element({(w1, w2): c})


class AlgebraElement:
    """Sparse element of a truncated tensor algebra or of its tensor square.

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
        deg = self.parent.degree
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


class AlgebraMorphism:
    """Degree-preserving algebra map out of a truncated tensor algebra.

    Determined by generator images, extended multiplicatively over words
    and linearly over terms.  The target is any element parent: a tensor
    algebra or a tensor square.  The ``images`` dict is kept, not copied,
    so maps built on one dict share it; do not change it afterwards.
    """

    def __init__(self, source: TruncatedTensorAlgebra, target, images: dict, *, check=True):
        self.source = source
        self.target = target
        self.images = images
        # one-letter words are the images themselves: no product by 1
        self._word_cache: dict = {(n,): img for n, img in self.images.items()}
        self._word_cache[()] = target.one()
        self._top = 0  # a word up to this degree multiplies homogeneous images
        if check:
            self._validate()
            if isinstance(target, TruncatedTensorAlgebra) and self.images.keys() <= source._deg.keys():
                self._top = min(source.truncation, target.truncation)

    def _validate(self):
        for g in self.source.module.generators:
            if g.degree > self.source.truncation:
                continue
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

    def image(self, word):
        """The image of a basis word, one step from its cut word (the word
        less one end letter) when that is cached, as it always is for
        words read in basis order.  Otherwise the missing cut words are
        built first, in a loop: a long word cannot hit the recursion limit."""
        cache = self._word_cache
        img = cache.get(word)
        if img is not None:
            return img
        cut = self._rest
        img = cache.get(word[cut])
        if img is None:
            pending = [word[cut]]
            while (img := cache.get(pending[-1][cut])) is None:
                pending.append(pending[-1][cut])
            for part in reversed(pending):
                img = self._extend(part, img)
        return self._extend(word, img)

    def _extend(self, word, img):
        """f(word) from f of its cut word, cached."""
        letter, sign = self._step(word)
        right = self.images[letter].terms
        if self._top and self.source._degrees[word] <= self._top:
            img = self.target.homogeneous_product(img.terms, right, sign)
        else:
            acc: dict = {}
            self.target.mul_into(acc, img.terms, right, sign)
            img = AlgebraElement(self.target, acc)
        self._word_cache[word] = img
        return img

    # f(word) = sign f(cut) f(a) with cut = word[_rest] and (a, sign) = _step(word)
    _rest = slice(None, -1)

    @staticmethod
    def _step(word):
        return word[-1], 1

    def __call__(self, elem: AlgebraElement):
        if elem.parent is not self.source and elem.parent != self.source:
            raise ValueError("element is not in the source algebra")
        acc: dict = {}
        for w, c in elem.terms.items():
            accumulate(acc, self.image(w).terms, c)
        return AlgebraElement(self.target, acc)


class AntiMorphism(AlgebraMorphism):
    """A graded anti-morphism: f(a.v) = (-1)^{|a||v|} f(v) f(a), built from
    the cached suffix v where an ``AlgebraMorphism`` uses the prefix."""

    _rest = slice(1, None)

    def _step(self, word):
        da, d = self.source._deg[word[0]], self.source._degrees[word]
        return word[0], -1 if da * (d - da) % 2 else 1


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
