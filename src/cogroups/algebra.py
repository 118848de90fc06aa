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

A word is also its position in ``basis(d)``, which lists g.v block by
block, generators in declaration order: u.v is at P(u, d) + pos(v), P
summing over u's letters the offsets off(e, g) = sum of N(e - |g'|)
over the g' declared before g, N(e) = len(basis(e)) counted without
listing it.

There is one map type out of a tensor algebra, ``GradedMap``, and one
layout for its word images: a whole degree at a time, as one row triple
(keys, coefficients, starts).  The terms of the images of basis(d) lie
end to end in basis order, keyed by position, so a product of words is a
sum of positions, and the row of word i is keys[starts[i]:starts[i + 1]],
its terms in print order.  A subclass fills one degree from those below.
A morphism's fill builds the block of rows g.v, v in basis(d - |g|), from
degree d - |g|'s lists, the keys in one comprehension and the
coefficients in another; only nu's block for an f(g) of several terms
goes row by row.  Every morphism fills this way, checked or not: a checked
map validates its generator images, and an unchecked one trusts them to
be homogeneous and inside the target.  Its term pairs never meet, so the
reduction is chosen once for the whole map, when it is built: none over
Z and Q, a remainder over F_p and Z/n, and ``_reduce_terms`` for a
Fraction or a modulus that varies by word; where a product can vanish,
the block drops it.  The tables are written a degree at a time, each
degree's labels and row texts from ``_format_rows``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import reduce
from itertools import accumulate as partial_sums, compress, repeat
from math import gcd
from operator import not_

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
    """Render sorted (key, coeff) pairs as a signed sum; the unit, the empty
    word, as its coefficient alone."""
    out = []
    for key, c in items:
        if c < 0:
            c = -c
            out.append(" - ")
        else:
            out.append(" + ")
        label = fmt_key(key)
        if key == ():
            out.append(str(c))
        elif c == 1:
            out.append(label)
        else:
            out.append(f"{c}*{label}")
    if not out:
        return "0"
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)


def _format_rows(algebra, d: int, triple) -> tuple:
    """(labels, rows) of degree d: ``algebra.labels(d)``, and each row of a
    row triple of degree d as ``_format_terms`` renders it, position k
    labelled ``labels[k]``.  Where every row has one term, a row is that
    term's signed text; otherwise each term's text follows its separator,
    " - " for a negative coefficient and " + " otherwise, and a row is its
    texts joined, the first separator read as the sign."""
    labels = algebra.labels(d)
    keys, coefficients, starts = triple
    if starts == [*range(len(starts))]:
        return labels, [
            labels[k] if c == 1 else "-" + labels[k] if c == -1
            else f"-{-c}*{labels[k]}" if c < 0 else f"{c}*{labels[k]}"
            for k, c in zip(keys, coefficients)
        ]
    texts = [
        f" + {labels[k]}" if c == 1 else f" - {labels[k]}" if c == -1
        else f" - {-c}*{labels[k]}" if c < 0 else f" + {c}*{labels[k]}"
        for k, c in zip(keys, coefficients)
    ]
    return labels, [
        (t[3:] if t[1] == "+" else "-" + t[3:]) if (t := "".join(texts[i:j])) else "0"
        for i, j in zip(starts, starts[1:])
    ]


def _reduce_terms(parent, terms: dict, moduli=None) -> dict:
    """Each coefficient reduced into R/(parent.modulus(key)); zeros dropped.

    A key is a word, or a tuple of words such as a pair or triple of the
    coalgebra layer, or a position whose modulus is in the list
    ``moduli``.  ``int`` coefficients take the fast path.  Anything else
    goes through the ring's ``normalize``, which rejects values outside
    the ring and returns the value stored.
    """
    modulus = parent.modulus if moduli is None else moduli.__getitem__
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
        self._runs: list = [[(None, 0, "")]]  # per word: first letter, its run, the label after it
        self._counts: list = [1]  # N(d) at index d
        self._offsets: list = [{}]  # {g: off(d, g)} at index d
        self._nonempty: list = [0]  # the degrees d with N(d) > 0, ascending
        self._position_moduli: list = [[self.ring.characteristic()]]  # moduli(d) at index d
        self._prefixes: dict = {}  # d - e -> prefixes(e, d) at index e
        deg, ann, char = self._deg, self._ann, self.ring.characteristic()
        self._degrees = _Memo(lambda w: sum(deg[l] for l in w))
        self._degrees.update(((n,), d) for n, d in deg.items())
        self.word_degree = self._degrees.__getitem__
        self._moduli = moduli = _Memo(lambda key: reduce(
            gcd, (ann[l] if type(l) is str else moduli[l] for l in key), char))
        # how elements print: terms in basis order, words as their labels
        self.sort_key = _Memo(self._sort_key).__getitem__
        self.format_key = _Memo(format_word).__getitem__
        # the modulus of every word, when no letter's annihilator lowers it
        self.fixed_modulus = char if all(gcd(char, a) == char for a in ann.values()) else None

    def _sort_key(self, word) -> tuple:
        """(d, position in basis(d)); a KeyError for a word in no basis."""
        d = self._degrees[word]
        if d > self.truncation:
            raise KeyError(word)
        return d, self.prefix(word, d)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, TruncatedTensorAlgebra)
            and self.module == other.module
            and self.truncation == other.truncation
        )

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
        cache = self._basis_cache
        if 0 <= d < len(cache):
            return cache[d]
        if d < 0 or d > self.truncation:
            return []
        return self.fill_to(cache, d, self._basis_of, [])

    def _basis_of(self, e: int) -> list:
        cache = self._basis_cache
        words = [(g.name,) + w for g in self.module.generators if g.degree <= e for w in cache[e - g.degree]]
        self._degrees.update(zip(words, repeat(e)))
        return words

    def size(self, d: int) -> int:
        """N(d) = len(basis(d)) = sum of N(d - |g|), and off(d, g), the
        position where the block of words g.v starts, without the basis."""
        counts = self._counts
        if 0 <= d < len(counts):
            return counts[d]
        if d < 0 or d > self.truncation:
            return 0
        offsets, nonempty, empty = self._offsets, self._nonempty, {}
        while len(counts) <= d:
            e, row, start = len(counts), {}, 0
            for g in self.module.generators:
                if g.degree <= e:
                    row[g.name] = start
                    start += counts[e - g.degree]
            counts.append(start)
            offsets.append(row if start else empty)
            if start:
                nonempty.append(e)
        return counts[d]

    def degrees(self, lo: int, hi: int) -> list:
        """The degrees from lo to hi, in order, that have words."""
        self.size(min(hi, self.truncation))
        nonempty = self._nonempty
        return nonempty[bisect_left(nonempty, lo):bisect_right(nonempty, hi)]

    def fill_to(self, filled: list, d: int, fill, empty) -> list:
        """filled[d] of a list by degree, extended first up to d: fill(e) at
        each degree e with words, in order, and ``empty`` at the others."""
        counts = self._counts
        if len(counts) <= d:
            self.size(min(d, self.truncation))
        while len(filled) <= d:
            e = len(filled)
            if e < len(counts) and counts[e]:
                filled.append(fill(e))
            elif e + 1 < len(counts) and counts[e + 1]:  # one degree with no words
                filled.append(empty)
            else:  # a run of degrees with no words: up to the next with words, or d
                nonempty = self._nonempty
                i = bisect_right(nonempty, e)
                filled += repeat(empty, min(nonempty[i] if i < len(nonempty) else d + 1, d + 1) - e)
        return filled[d]

    def prefix(self, word, d: int) -> int:
        """P(word, d): word.v is at P(word, d) + pos(v) in basis(d)."""
        p, offsets, deg = 0, self._offsets, self._deg
        if len(offsets) <= d:
            self.size(d)
        for letter in word:
            p += offsets[d][letter]
            d -= deg[letter]
        return p

    def prefixes(self, e: int, d: int) -> list:
        """P(u, d) for u in basis(e), N(d - e) > 0: P(g.v, d) = off(d, g) + P(v, d - |g|)."""
        shift = d - e
        rows = self._prefixes.get(shift)
        if rows is None:
            rows = self._prefixes[shift] = [[0]]
        elif e < len(rows):
            return rows[e]
        self.size(d)
        counts, offsets, empty = self._counts, self._offsets, []
        while len(rows) <= e:
            k, row = len(rows), []
            if counts[k] and counts[k + shift]:
                starts = offsets[k + shift]
                for g in self.module.generators:
                    if g.degree <= k:
                        row += map(starts[g.name].__add__, rows[k - g.degree])
            rows.append(row or empty)
        return rows[e]

    def moduli(self, d: int) -> list:
        """``word_modulus`` of basis(d), in its order: gcd(ann g, modulus of v) for g.v."""
        lists = self._position_moduli
        if 0 <= d < len(lists):
            return lists[d]
        if d < 0 or d > self.truncation:
            return []
        return self.fill_to(lists, d, self._moduli_of, [])

    def _moduli_of(self, e: int) -> list:
        lists = self._position_moduli
        return [gcd(g.annihilator, m) for g in self.module.generators if g.degree <= e for m in lists[e - g.degree]]

    def labels(self, d: int) -> list:
        """``format_word`` of each word of basis(d), in its order, built as the
        basis is: the label of g.v follows from v's label, the length of v's
        first run of letters and the label after that run (x, x^2*y: x^3*y)."""
        if d < 0 or d > self.truncation:
            return []
        labels, runs = self._labels, self._runs
        while len(runs) <= d:
            e, out, info = len(runs), [], []
            for g in self.module.generators:
                n, k = g.name, e - g.degree  # the words g.v, v in basis(k)
                if k < 0:
                    continue
                for label, (head, run, rest) in zip(labels[k], runs[k]):
                    if head == n:
                        run += 1
                        label = f"{n}^{run}*{rest}" if rest else f"{n}^{run}"
                    else:
                        run, rest = 1, label if head else ""
                        label = f"{n}*{rest}" if rest else n
                    out.append(label)
                    info.append((n, run, rest))
            labels.append(out)
            runs.append(info)
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

    def is_homogeneous(self, d: int) -> bool:
        deg = self.parent.word_degree
        return all(deg(k) == d for k in self.terms)

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        accumulate(out, other.terms)
        return AlgebraElement(self.parent, out)

    def scale(self, c) -> "AlgebraElement":
        return AlgebraElement(self.parent, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return self.scale(other)
        self._check(other)
        out: dict = {}
        self.parent.mul_into(out, self.terms, other.terms)
        return AlgebraElement(self.parent, out)

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
    whole degree at a time as one row triple (keys, coefficients, starts):
    the reduced terms of f on basis(d), word after word in its order, end
    to end, so the row of word i is keys[starts[i]:starts[i + 1]] with its
    coefficients alongside, keyed by position in the target's basis(d)
    and in that order.  A subclass supplies ``_fill(d)``, which may read
    every degree below d from ``_by_degree``; a degree with no words gets
    ``_NO_WORDS`` without it.  Degree 0 is 1 -> 1.

    Reading a word fills its degree and those below, in a loop, so a deep
    truncation cannot hit the recursion limit; the library reads in basis
    order, or reads generators only.  ``image`` and ``__call__`` convert
    positions to words.
    """

    def __init__(self, source: TruncatedTensorAlgebra, target):
        self.source = source
        self.target = target
        self._by_degree: list = []  # the row triple of degree d at index d

    def image(self, word) -> AlgebraElement:
        """The image of a basis word of the source."""
        try:
            d, i = self.source.sort_key(word)
        except KeyError:
            raise ValueError(f"{format_word(word)} is not a basis word of the source") from None
        terms, words = row(self.degree_images(d), i), self.target.basis(d)
        return AlgebraElement.trusted(self.target, {words[p]: c for p, c in terms})

    def degree_images(self, d: int) -> tuple:
        """f on basis(d), d <= the source's truncation, as its shared row
        triple.  The first read fills d and each degree below."""
        filled = self._by_degree
        if d < len(filled):
            return filled[d]
        if not filled:
            filled.append(([0], [1], [0, 1]))
        return self.source.fill_to(filled, d, self._fill, _NO_WORDS)

    def __call__(self, elem: AlgebraElement):
        if elem.parent is not self.source and elem.parent != self.source:
            raise ValueError("element is not in the source algebra")
        acc: dict = {}
        for w, c in elem.terms.items():
            accumulate(acc, self.image(w).terms, c)
        return AlgebraElement(self.target, acc)


_NO_WORDS = ([], [], [0])  # the row triple of a degree with no words


def row(triple, i: int) -> list:
    """Row i of a row triple: the (key, coefficient) pairs of word i."""
    keys, coefficients, starts = triple
    s, t = starts[i], starts[i + 1]
    return list(zip(keys[s:t], coefficients[s:t]))


class AlgebraMorphism(GradedMap):
    """Degree-preserving algebra map out of a truncated tensor algebra.

    Determined by generator images, extended multiplicatively over words
    and linearly over terms.  The ``images`` dict is kept, not copied,
    so maps built on one dict share it; do not change it afterwards.

    basis(d) lists g.v for each generator g and v in basis(d - |g|), so
    f on basis(d) is f(g) times each row of degree d - |g|, in turn: one
    block of rows per generator.  Each image is homogeneous, in the
    target, so the word at a of f(g) times the term at b of f(v) is at
    P(the word, d) + b, and f(v) times it at P(the word at b, d) + a.
    ``check`` validates the images; an unchecked map's are trusted to be
    homogeneous, of their generator's degree, and inside the target.
    """

    _anti = False  # f(a.v) = f(a) f(v); an AntiMorphism swaps the factors and signs

    def __init__(self, source: TruncatedTensorAlgebra, target, images: dict, *, check=True):
        super().__init__(source, target)
        self.images = images
        if check:
            self._validate()
        self._own: dict = {}  # g -> f(g): positions in basis(|g|), coefficients, words
        self._top = min(source.truncation, target.truncation)  # a degree above leaves the target
        # reduce: % m (m > 0), none (0), or _reduce_terms (None) for a
        # Fraction or a modulus that varies by word
        ints = all(type(c) is int for g in source.generators for c in images[g.name].terms.values())
        self._mod = target.fixed_modulus if ints else None
        # whether a reduced product can vanish: over a field no product of
        # nonzero residues does
        self._drops = self._mod != 0 and not target.ring.is_field()

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

    def _fill(self, d: int) -> tuple:
        target, filled, own, mod, drops = self.target, self._by_degree, self._own, self._mod, self._drops
        anti = self._anti
        if d > self._top:  # every product leaves the target
            return [], [], [0] * (self.source.size(d) + 1)
        keys, coefficients, starts = [], [], [0]
        moduli = target.moduli(d) if mod is None and target.fixed_modulus is None else None
        for g in self.source.module.generators:
            e = d - g.degree
            if e < 0 or filled[e] is _NO_WORDS:
                continue
            fg = own.get(g.name)
            if fg is None:  # f(g), kept for the degrees above
                terms = self.images[g.name].terms
                words = list(terms)
                fg = own[g.name] = [target.prefix(w, g.degree) for w in words], list(terms.values()), words
            at, xs, words = fg
            if not e:  # the one-letter word g: its image, with no product by 1
                keys += at
                coefficients += xs
                starts.append(len(keys))
                continue
            ke, ce, se = filled[e]
            n = len(at)
            if anti and g.degree * e % 2:  # the sign of f(a.v) = -f(v) f(a)
                xs = [-x for x in xs]
            # the term at a of the left factor times the one at b of the right
            # one is the word at P(the word at a, d) + b
            if n == 1:  # the whole block from degree e's lists
                x = xs[0]
                if anti:  # f(v) f(g)
                    pre, a = target.prefixes(e, d), at[0]
                    block = [pre[b] + a for b in ke]
                else:  # f(g) f(v)
                    p = target.prefix(words[0], d)
                    block = [p + b for b in ke]
                products = [x * y % mod for y in ce] if mod else [x * y for y in ce]
            elif anti:  # f(v) f(g), each term of f(v) times each of f(g)
                pre = target.prefixes(e, d)
                block = [pre[b] + a for b in ke for a in at]
                products = [y * x % mod for y in ce for x in xs] if mod else [y * x for y in ce for x in xs]
            else:  # row by row
                pre = [target.prefix(w, d) for w in words]
                rows_e = list(zip(se, se[1:]))
                block = [p + b for i, j in rows_e for p in pre for b in ke[i:j]]
                products = ([x * y % mod for i, j in rows_e for x in xs for y in ce[i:j]] if mod
                            else [x * y for i, j in rows_e for x in xs for y in ce[i:j]])
            if mod is None:  # each product reduced, a zero left in its place
                kept = _reduce_terms(
                    target, dict(enumerate(products)), None if moduli is None else [moduli[k] for k in block])
                products = [kept.get(i, 0) for i in range(len(products))]
            offset = len(keys)
            if drops and 0 in products:  # drop the products that vanish
                dropped = list(partial_sums(map(not_, products), initial=0))
                starts += [offset + n * j - dropped[n * j] for j in se[1:]]
                keys += compress(block, products)
                coefficients += filter(None, products)
            else:  # n terms for each term of f(v)
                starts += [offset + n * j for j in se[1:]]
                keys += block
                coefficients += products
        return keys, coefficients, starts


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
    of f's generator rows over f's own triples below d, filled first."""
    alg, images = A.algebra, {}
    for g in alg.generators:  # f(g), read off f's triple of degree |g|
        terms = row(f.degree_images(g.degree), alg.prefix((g.name,), g.degree))
        words = f.target.basis(g.degree)
        images[g.name] = AlgebraElement.trusted(f.target, {words[p]: c for p, c in terms})
    # f preserves degree; its images need not respect annihilators
    fill = AlgebraMorphism(alg, f.target, images, check=False)
    fill._by_degree = f._by_degree
    return all(f.degree_images(d) == fill._fill(d) for d in alg.degrees(2, A.truncation))
