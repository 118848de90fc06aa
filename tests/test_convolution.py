"""Convolution groups, the antipode, and the antipode's properties."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import cogroups as cg
from cogroups import convolution
from cogroups.algebra import _format_terms, _reduce_terms, accumulate
from cogroups.convolution import _bijective_on_generators, _spans
from cogroups.dsl import parse_spec
from convolution_oracle import (
    CoalgebraSource,
    TableMap,
    WordSource,
    antipode_eagerly,
    as_triple,
    as_words,
    convolution_inverse_eagerly,
    convolve,
    explicit_identity,
    inclusion_inverse,
    morphism_fill_by_words,
    recursion_fill_by_words,
    rows,
    unit_map,
)
from hopf_oracle import antipode_negates_indecomposables, check_hopf_on_words
from instances import (
    F2,
    F3,
    MATRIX_KEYS,
    Q,
    RINGS,
    Z,
    Z4,
    Z6,
    Z_THREE_PRIMES,
    coassociative_coalgebras,
    coprime_torsion_coalgebras,
    graded_map,
    make_antipode,
    make_cogroup,
    make_module,
    module,
    random_coefficient,
    random_graded_map,
    zero_divisor_coalgebras,
)
from snf import smith_normal_form, unindexed_spans


def loop_source(D=6):
    m = module(Q, [("y", 1), ("x", 2)])
    C = cg.CoalgebraPresentation(m, {"x": [(1, "y", "y")]})
    A = cg.tensor_cogroup(C, D)
    return CoalgebraSource(C, D), A


def test_coalgebra_source_basis():
    src, A = loop_source()
    assert src.basis(1) == ["y"]
    assert src.basis(2) == ["x"]
    assert src.basis(3) == []
    assert src.degree("x") == 2
    assert src.reduced_coproduct("x") == ((1, "y", "y"),)


def test_cogroup_source_basis_is_words():
    A = make_cogroup("q-even2", 8)
    src = WordSource(A)
    assert src.basis(4) == [("x", "x")]
    assert src.annihilator(("x", "x")) == 0


def test_unit_map_is_convolution_identity():
    src, A = loop_source()
    rng = random.Random(2)
    e = unit_map(src, A.algebra)
    for _ in range(5):
        f = random_graded_map(src, A.algebra, rng)
        assert convolve(f, e) == f
        assert convolve(e, f) == f


def test_convolution_is_associative():
    src, A = loop_source()
    rng = random.Random(9)
    for _ in range(5):
        f = random_graded_map(src, A.algebra, rng)
        g = random_graded_map(src, A.algebra, rng)
        h = random_graded_map(src, A.algebra, rng)
        assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))


def test_convolution_inverse_both_sides():
    src, A = loop_source()
    rng = random.Random(4)
    e = unit_map(src, A.algebra)
    for _ in range(5):
        f = random_graded_map(src, A.algebra, rng)
        g = convolution_inverse_eagerly(f, "right")
        assert g == convolution_inverse_eagerly(f, "left")
        assert convolve(f, g) == e
        assert convolve(g, f) == e


def test_trivial_coproduct_convolution_is_addition():
    for key in ("z-coprime", "f3-pair"):
        A = make_cogroup(key, 6)
        src = CoalgebraSource(A.coalgebra, 6)
        rng = random.Random(8)
        for _ in range(3):
            f = random_graded_map(src, A.algebra, rng)
            g = random_graded_map(src, A.algebra, rng)
            s = convolve(f, g)
            for d in range(1, 7):
                for x in src.basis(d):
                    assert s.image(x) == f.image(x) + g.image(x)


def test_convolve_requires_parallel_maps():
    src, A = loop_source()
    other = WordSource(A)
    f = unit_map(src, A.algebra)
    g = unit_map(other, A.algebra)
    with pytest.raises(ValueError):
        convolve(f, g)


def test_inverse_of_identity_worked_example():
    A = make_cogroup("q-even2", 6)
    g = cg.antipode_by_recursion(A)
    x = A.algebra.generator("x")
    assert g.image(("x",)) == x.scale(-1)
    assert g.image(("x", "x")) == x * x
    assert g.image(("x", "x", "x")) == (x * x * x).scale(-1)


def test_antipode_matches_generic_inverse():
    for key in ("q-even2", "q-odd3", "z-tor43", "f2-odd1", "z6-coprime"):
        A = make_cogroup(key, 6)
        chi = make_antipode(key, 6)
        generic = convolution_inverse_eagerly(explicit_identity(A))
        assert generic.difference_witness(chi) is None, key


def degree_difference(f, g, A):
    """The first word, in basis order, where the term dicts of f's and g's
    degree lists differ, or None."""
    for d in range(1, A.truncation + 1):
        for w, fw, gw in zip(A.algebra.basis(d), rows(f.degree_images(d)), rows(g.degree_images(d))):
            if fw != gw:
                return w
    return None


@pytest.mark.parametrize("key", MATRIX_KEYS)
def test_antipode_matches_the_word_recursion(key):
    A = make_cogroup(key, 8)
    assert degree_difference(cg.antipode_by_recursion(A), cg.antipode(A), A) is None


@settings(max_examples=40, deadline=None)
@given(st.one_of(coassociative_coalgebras(), coprime_torsion_coalgebras()))
def test_antipode_matches_the_word_recursion_on_coproduct_tables(case):
    A = cg.tensor_cogroup(*case)
    witness = degree_difference(cg.antipode_by_recursion(A), cg.antipode(A), A)
    assert witness is None, witness


def top_degree_first(keys, degree, rng):
    """The keys in shuffled order, with one of the highest degree first."""
    keys = list(keys)
    rng.shuffle(keys)
    top = max(keys, key=degree)
    keys.remove(top)
    return [top] + keys


def assert_recursion_matches_the_eager_loop(A, rng):
    """The word recursion, filled on demand and read top degree first,
    equals the eager loop on the full table of the identity, by either
    recursion, and each of its degree lists holds the eager images as
    term dicts, word by word."""
    words = [w for w in A.algebra.words_up_to() if w]
    for via in ("right", "left"):
        want = convolution_inverse_eagerly(explicit_identity(A), via)
        got = cg.antipode_by_recursion(A)
        for w in top_degree_first(words, A.algebra.word_degree, rng):
            assert got.image(w) == want.image(w), (via, w)
        assert degree_difference(got, want, A) is None, via


@pytest.mark.parametrize("key", MATRIX_KEYS)
def test_on_demand_inverse_matches_the_eager_loop(key):
    A = make_cogroup(key, 8)
    assert_recursion_matches_the_eager_loop(A, random.Random(key))


@settings(max_examples=40, deadline=None)
@given(st.one_of(coassociative_coalgebras(), coprime_torsion_coalgebras()))
def test_on_demand_inverse_matches_the_eager_loop_on_coproduct_tables(case):
    A = cg.tensor_cogroup(*case)
    assert_recursion_matches_the_eager_loop(A, random.Random(0))
    alg = A.algebra
    inclusion = graded_map(
        CoalgebraSource(A.coalgebra, A.truncation),
        alg,
        {g.name: alg.generator(g.name) for g in A.module.generators if g.degree <= A.truncation},
    )
    right = convolution_inverse_eagerly(inclusion, "right")
    assert right == convolution_inverse_eagerly(inclusion, "left")


def assert_antipode_matches_the_eager_loop(A, rng):
    """chi, built on demand and read top degree first, equals the eager
    loop that multiplies only in general."""
    want = antipode_eagerly(A)
    chi = cg.antipode(A)
    for w in top_degree_first(want.table, A.algebra.word_degree, rng):
        assert chi.image(w) == want.image(w), w
    assert want.difference_witness(chi) is None


@pytest.mark.parametrize("key", MATRIX_KEYS)
def test_on_demand_antipode_matches_the_eager_loop(key):
    assert_antipode_matches_the_eager_loop(make_cogroup(key, 8), random.Random(key))


@settings(max_examples=40, deadline=None)
@given(coassociative_coalgebras())
def test_on_demand_antipode_matches_the_eager_loop_on_coproduct_tables(case):
    assert_antipode_matches_the_eager_loop(cg.tensor_cogroup(*case), random.Random(0))


def test_antipode_refuses_a_non_homogeneous_coproduct():
    """chi is read off the table, so a coproduct term of the wrong degree
    is refused there; an image x^2 + x^3 of y, as such a term would give
    chi, is refused by the anti-morphism's validation."""
    m = module(Q, [("x", 1), ("y", 2)])
    with pytest.raises(ValueError, match="coproduct of y: term x\\(x\\)y has degree 3, expected 2"):
        cg.CoalgebraPresentation(m, {"y": [(1, "x", "y")]})
    alg = cg.tensor_cogroup(cg.trivial_coalgebra(m), 5).algebra
    x, y = alg.generator("x"), alg.generator("y")
    with pytest.raises(ValueError, match="image of y is not homogeneous of degree 2"):
        cg.AntiMorphism(alg, alg, {"x": x.scale(-1), "y": y.scale(-1) + x * x + x * x * x})


def test_the_top_word_of_a_deep_truncation_needs_no_recursion():
    """nu and chi build a word's image in a loop, so reading the top word
    first works past the recursion limit."""
    D = 1500
    assert D > sys.getrecursionlimit()
    C = cg.trivial_coalgebra(module(Q, [("x", 1)]))
    A, B = cg.tensor_cogroup(C, D), cg.tensor_cogroup(C, D)
    # nu(x) = chi(x) = -x, so nu(x^n) = (-1)^n x^n and chi(x^n) = (-1)^(n(n+1)/2) x^n
    top = ("x",) * D
    assert A.nu.image(top) == A.algebra.element({top: 1})
    assert cg.antipode(A).image(top) == A.algebra.element({top: 1})
    deep = B.algebra.element({("x",) * 1400: 1})
    assert B.nu(deep) == deep


@pytest.mark.parametrize("key", MATRIX_KEYS)
def test_on_demand_tables_hold_only_the_degrees_read(key):
    """The word recursion, and the Dbar it reads, hold only the degrees up
    to the deepest word read, each the eager images in basis order."""
    B = make_cogroup(key, 8)
    full = convolution_inverse_eagerly(explicit_identity(B))
    rng = random.Random(key)
    for d in range(9):
        A = cg.tensor_cogroup(B.coalgebra, 8)
        alg = A.algebra
        chi = cg.antipode_by_recursion(A)
        words = [w for w in alg.words_up_to(d) if w]
        rng.shuffle(words)
        for w in words:
            chi.image(w)
        filled = max(map(alg.word_degree, words)) + 1 if words else 0
        assert len(chi._by_degree) == len(A._reduced_by_degree) == filled, d
        for e in range(1, filled):
            got = as_words(alg, e, chi._by_degree[e])
            assert got == [full.image(w).terms for w in alg.basis(e)], (d, e)


@settings(max_examples=80, deadline=None)
@given(st.one_of(coassociative_coalgebras(), coprime_torsion_coalgebras(), zero_divisor_coalgebras()))
def test_position_fills_match_the_fills_on_words(case):
    """The row triples of nu, chi from generator images and the recursion
    chi, each degree converted through basis(d), against the fills written
    on tuple words: the same words, coefficients and term order, word by
    word.  A triple holds one row per word, each in print order."""
    A = cg.tensor_cogroup(*case)
    alg = A.algebra
    for f, want in (
        (A.nu, morphism_fill_by_words(A.nu)),
        (cg.antipode(A), morphism_fill_by_words(cg.antipode(A))),
        (cg.antipode_by_recursion(A), recursion_fill_by_words(A)),
    ):
        for d in range(A.truncation + 1):
            keys, coefficients, starts = triple = f.degree_images(d)
            assert len(starts) == len(alg.basis(d)) + 1 and starts[0] == 0, (type(f).__name__, d)
            assert starts == sorted(starts) and starts[-1] == len(keys) == len(coefficients)
            assert all(row == sorted(row) for row in rows(triple)), (type(f).__name__, d)
            got = [list(terms.items()) for terms in as_words(alg, d, triple)]
            assert got == [list(terms.items()) for terms in want[d]], (type(f).__name__, d)


def assert_nu_is_chi_on_generators(A):
    """nu and chi share one dict of generator images, and it is the
    convolution inverse of the inclusion C -> A."""
    chi = cg.antipode(A)
    assert chi.images is A.nu.images is A.generator_images
    assert A.generator_images == inclusion_inverse(A)
    for g in A.module.generators:
        if g.degree <= A.truncation:
            assert A.nu.images[g.name] == chi.image((g.name,)), g.name


@pytest.mark.parametrize("key", MATRIX_KEYS)
def test_nu_and_chi_agree_on_generators(key):
    # the two inverses can part ways only on decomposables
    assert_nu_is_chi_on_generators(make_cogroup(key, 8))


@settings(max_examples=40, deadline=None)
@given(coassociative_coalgebras())
def test_nu_and_chi_agree_on_generators_of_coproduct_tables(case):
    assert_nu_is_chi_on_generators(cg.tensor_cogroup(*case))


@settings(max_examples=60, deadline=None)
@given(st.one_of(coassociative_coalgebras(), coprime_torsion_coalgebras()), st.booleans())
def test_word_images_are_stored_in_print_order(case, top_first):
    """Every word image of nu and chi holds its terms in the order ``str``
    sorts them into, whether the words are read in basis order or the
    highest degree first, so the table commands print them unsorted: the
    stored positions rise, and converted through basis(d) they are the
    words of ``image`` in ``sort_key`` order."""
    A = cg.tensor_cogroup(*case)
    alg, fmt = A.algebra, A.algebra.format_key
    words = [w for w in alg.words_up_to() if w]
    for f in (A.nu, cg.antipode(A)):
        converted = {}  # d -> degree d's rows, and the same rows keyed by words
        for w in reversed(words) if top_first else words:
            img = f.image(w)
            d, i = alg.sort_key(w)
            if d not in converted:  # once per degree, after its first read
                converted[d] = rows(f.degree_images(d)), as_words(alg, d, f.degree_images(d))
            stored_rows, word_rows = converted[d]
            stored = stored_rows[i]
            assert stored == sorted(stored), w
            assert list(word_rows[i].items()) == list(img.terms.items()), w
            assert list(img.terms) == sorted(img.terms, key=alg.sort_key), w
            assert _format_terms(img.terms.items(), fmt) == str(img), w
            assert _format_terms(stored, alg.labels(d).__getitem__) == str(img), w


def _snf_spans(vectors, k, ring):
    """Oracle: do the vectors span R^k, read off invariant factors?"""
    n = ring.characteristic()
    if ring.kind == "Zmod":
        vectors = vectors + [{i: n} for i in range(k)]
    # one column per vector
    factors = smith_normal_form(
        [[v.get(i, 0) for v in vectors] for i in range(k)]
    ).factors
    if ring.kind == "Q":
        return sum(1 for f in factors if f) == k
    if ring.kind == "Fp":
        return sum(1 for f in factors if f % n) == k
    return len(factors) >= k and all(f == 1 for f in factors[:k])


@settings(max_examples=400, deadline=None)
@given(
    st.integers(0, 5).flatmap(lambda k: st.tuples(
        st.just(k),
        st.lists(
            st.dictionaries(st.integers(0, k - 1), st.integers(-6, 6), max_size=k)
            if k else st.just({}),
            max_size=7,
        ),
    )),
    st.sampled_from((Z, Q, Z4, Z6, F2, F3)),
)
def test_spans_matches_invariant_factors(case, ring):
    k, vectors = case
    assert _spans(vectors, range(k), ring) == _snf_spans(vectors, k, ring)


# twelve distinct words: the coordinates of the word-keyed cases
WORDS = [(a,) for a in "xyz"] + [(a, b) for a in "xyz" for b in "xyz"]


@st.composite
def spanning_problems(draw):
    """(k, vectors over 0..k-1, ring, row scales): up to 12 coordinates
    and 20 sparse rows.

    A core of rows is triangular in a drawn coordinate order.  At most
    three leading entries split into 2 and 3 on two rows, which over Z
    and Z/6 only the Euclid loop turns into a unit; at most two are a
    non-unit, a pair with gcd 2, or absent.  Up to three noise rows come
    on top, and the rows are shuffled.  Over Q a row is divided by its
    scale, which leaves the span the same.
    """
    ring = draw(st.sampled_from(RINGS))
    k = draw(st.integers(0, 12))
    order = draw(st.permutations(range(k)))
    entry = st.integers(-6, 6)
    gaps = draw(st.sets(st.integers(0, 11), max_size=2))
    pairs = draw(st.sets(st.integers(0, 11), max_size=3))
    vectors = []
    for pos, i in enumerate(order):
        if pos in gaps:
            leads = draw(st.sampled_from(((), (2,), (4, -6))))
        elif pos in pairs:
            leads = (2, 3)
        else:
            leads = (draw(st.sampled_from((1, -1))),)
        later = order[pos + 1:]
        tails = (
            st.dictionaries(st.sampled_from(later), entry, max_size=2) if later else st.just({})
        )
        for a in leads:
            vectors.append({**draw(tails), i: a})
    if k:
        vectors += draw(st.lists(
            st.dictionaries(st.integers(0, k - 1), entry, min_size=1, max_size=3),
            max_size=3,
        ))
    vectors = draw(st.permutations(vectors))
    vectors = [{c: ring.normalize(x) for c, x in v.items()} for v in vectors]
    scales = [draw(st.sampled_from((1, 2, 3))) for _ in vectors]
    return k, vectors, ring, scales


@settings(max_examples=200, deadline=None)
@given(spanning_problems(), st.booleans())
@example((1, [{0: 2}, {0: 3}], Z, [1, 1]), True)
@example((2, [{0: 2, 1: 1}, {0: 3}, {1: 2}], Z6, [1, 1, 1]), False)
@example((2, [{1: 2}, {0: 3, 1: 1}], Q, [2, 3]), True)
def test_indexed_spans_matches_both_oracles(case, by_words):
    k, vectors, ring, scales = case
    want = _snf_spans(vectors, k, ring)
    if ring.kind == "Q":
        vectors = [{c: Fraction(x, s) for c, x in v.items()} for v, s in zip(vectors, scales)]
    assert unindexed_spans(vectors, k, ring) == want
    coords = WORDS[:k] if by_words else range(k)
    rows = [{coords[c]: x for c, x in v.items()} for v in vectors]
    assert _spans(rows, coords, ring) == want


def test_spans_euclid_branch():
    # no entry is a unit, but the entries generate the unit ideal
    assert _spans([{0: 2}, {0: 3}], range(1), Z)
    assert _spans([{0: 2}, {0: 3}], range(1), Z6)
    assert not _spans([{0: 2}, {0: 4}], range(1), Z6)
    assert not _spans([{0: 2}, {0: -2}], range(1), Z)
    assert _spans([{0: 2}], range(1), Q)
    assert not _spans([{0: 2}], range(1), F2)
    assert _spans([], range(0), Z)


def unindexed_surjectivity(monkeypatch, A, f):
    """``is_antipode_surjective`` with the unindexed oracle in place of
    ``_spans``, fed integer coordinates in basis order."""

    def spans(vectors, coords, ring):
        index = {w: i for i, w in enumerate(coords)}
        rows = [{index[w]: c for w, c in v.items()} for v in vectors]
        return unindexed_spans(rows, len(coords), ring)

    with monkeypatch.context() as m:
        m.setattr(convolution, "_spans", spans)
        return cg.is_antipode_surjective(A, f)


def doubler(A) -> TableMap:
    """w -> 2w: onto exactly where 2 is a unit mod the word moduli."""
    alg = A.algebra
    return graded_map(
        WordSource(A),
        alg,
        {w: alg.element({w: 2}) for w in alg.words_up_to() if w},
    )


def surjectivity_by_oracles(monkeypatch, A, f) -> dict:
    """``is_antipode_surjective`` on f, which must give the flags that
    ``_spans`` and the unindexed oracle give on a table copy of f: the
    generator certificate never says onto where they say not."""
    flags = cg.is_antipode_surjective(A, f)
    table = with_images(A, f, {})
    assert cg.is_antipode_surjective(A, table) == flags
    assert unindexed_surjectivity(monkeypatch, A, table) == flags
    return flags


@pytest.mark.parametrize("key", MATRIX_KEYS)
def test_surjectivity_verdicts_match_the_unindexed_oracle(key, monkeypatch):
    A = make_cogroup(key, 8)
    chi = make_antipode(key, 8)
    assert _bijective_on_generators(A, chi)
    flags = surjectivity_by_oracles(monkeypatch, A, chi)
    assert flags == dict.fromkeys(range(9), True)
    if A.ring in (Z, Z4):
        f = doubler(A)
        assert unindexed_surjectivity(monkeypatch, A, f) == cg.is_antipode_surjective(A, f)


@settings(max_examples=40, deadline=None)
@given(coassociative_coalgebras())
def test_surjectivity_verdicts_match_the_unindexed_oracle_on_coproduct_tables(case):
    A = cg.tensor_cogroup(*case)
    with pytest.MonkeyPatch.context() as monkeypatch:
        chi = cg.antipode(A)
        assert _bijective_on_generators(A, chi)
        assert all(surjectivity_by_oracles(monkeypatch, A, chi).values())
        f = doubler(A)
        assert unindexed_surjectivity(monkeypatch, A, f) == cg.is_antipode_surjective(A, f)


@st.composite
def near_antipodes(draw):
    """(A, f): a cogroup of ``coassociative_coalgebras`` and an
    AntiMorphism that sends each generator g to u g, u often +-1, plus
    random words of degree |g| and length >= 2, and now and then another
    generator of that degree: maps on both sides of the certificate."""
    A = cg.tensor_cogroup(*draw(coassociative_coalgebras()))
    alg = A.algebra
    rng = random.Random(draw(st.integers(0, 2**32)))
    images = {}
    for g in A.module.generators:
        if g.degree > A.truncation:
            continue
        terms = {}
        for w in alg.basis(g.degree):
            if len(w) > 1 or rng.random() < 0.2:
                terms[w] = random_coefficient(rng, A.ring, g.annihilator, alg.word_modulus(w))
        u = random_coefficient(rng, A.ring, g.annihilator, alg.word_modulus((g.name,)))
        terms[(g.name,)] = rng.choice((1, -1, u))
        images[g.name] = alg.element(terms)
    return A, cg.AntiMorphism(alg, alg, images)


@settings(max_examples=60, deadline=None)
@given(near_antipodes())
def test_surjectivity_certificate_never_says_onto_where_the_oracle_says_not(case):
    A, f = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        flags = surjectivity_by_oracles(monkeypatch, A, f)
    if _bijective_on_generators(A, f):
        assert all(flags.values())


def anti_morphism(A, images) -> cg.AntiMorphism:
    alg = A.algebra
    return cg.AntiMorphism(alg, alg, {g: alg.element(t) for g, t in images.items()})


def flag_pattern(flags) -> str:
    return "".join("T" if flags[d] else "f" for d in sorted(flags))


def test_surjectivity_mutations_reach_the_fallback(monkeypatch):
    # over Z, x -> 2x: the leading coefficient is no unit
    A = make_cogroup("z-free2", 6)
    f = anti_morphism(A, {"x": {("x",): 2}})
    assert not _bijective_on_generators(A, f)
    flags = surjectivity_by_oracles(monkeypatch, A, f)
    assert flag_pattern(flags) == "TTfTfTf"
    assert cg.is_antipode_surjective(A, doubler(A)) == flags
    # x -> -x + y with |y| = |x|: a length-1 extra term, onto or not
    B = make_cogroup("q-pair22", 6)
    x, y = ("x",), ("y",)
    for images, want in (
        ({"x": {x: -1, y: 1}, "y": {y: -1}}, "TTTTTTT"),
        ({"x": {x: -1, y: 1}, "y": {x: 1, y: -1}}, "TTfTfTf"),
    ):
        f = anti_morphism(B, images)
        assert not _bijective_on_generators(B, f)
        assert flag_pattern(surjectivity_by_oracles(monkeypatch, B, f)) == want
    # over Z with ann 4, x -> 3x: 3 is a unit mod 4
    C = make_cogroup("z-tor43", 8)
    f = anti_morphism(C, {"x": {("x",): 3}})
    assert _bijective_on_generators(C, f)
    assert all(surjectivity_by_oracles(monkeypatch, C, f).values())
    # a generator with ann 1 is zero, and its image 0 has a unit mod 1
    m = module(Z6, [("x", 1, 2), ("y", 1, 3), ("z", 1, 1)])
    E = cg.tensor_cogroup(cg.trivial_coalgebra(m), 5)
    chi = cg.antipode(E)
    assert not chi.images["z"] and _bijective_on_generators(E, chi)
    assert all(surjectivity_by_oracles(monkeypatch, E, chi).values())


def test_antipode_signs_on_a_single_even_generator():
    A = make_cogroup("q-even2", 8)
    chi = make_antipode("q-even2", 8)
    x = A.algebra.generator("x")
    for k in range(1, 5):
        word = ("x",) * k
        want = x
        for _ in range(k - 1):
            want = want * x
        assert chi.image(word) == want.scale((-1) ** k)


def test_antipode_signs_on_a_single_odd_generator():
    A = make_cogroup("q-odd3", 9)
    chi = make_antipode("q-odd3", 9)
    x = A.algebra.generator("x")
    signs = {1: -1, 2: -1, 3: 1}  # (-1)^(k(k+1)/2)
    for k, s in signs.items():
        word = ("x",) * k
        elem = x
        for _ in range(k - 1):
            elem = elem * x
        assert chi.image(word) == elem.scale(s)


def test_antipode_reverses_words_with_sign():
    m = module(Q, [("u", 1), ("v", 1)])
    A = cg.tensor_cogroup(cg.trivial_coalgebra(m), 6)
    chi = cg.antipode(A)
    alg = A.algebra
    assert chi.image(("u", "v")) == alg.element({("v", "u"): -1})
    assert chi.image(("u", "v", "u")) == alg.element({("u", "v", "u"): 1})


def test_antipode_over_f2_is_identity_on_one_generator():
    for key in ("f2-odd1", "f2-even2", "f2-odd3"):
        A = make_cogroup(key, 6)
        chi = make_antipode(key, 6)
        assert explicit_identity(A).difference_witness(chi) is None, key
    # two generators: the algebra is noncommutative and chi reverses words
    A = make_cogroup("f2-pair", 6)
    chi = make_antipode("f2-pair", 6)
    assert explicit_identity(A).difference_witness(chi) is not None
    assert chi.image(("x", "y")) == A.algebra.element({("y", "x"): 1})


def test_antipode_on_odd_torsion_generator():
    A = make_cogroup("z4-free3", 10)
    chi = make_antipode("z4-free3", 10)
    alg = A.algebra
    assert chi.image(("x",)) == alg.element({("x",): 3})
    assert chi.image(("x", "x")) == alg.element({("x", "x"): 3})
    assert chi.image(("x", "x", "x")) == alg.element({("x", "x", "x"): 1})


def test_identity_convolved_with_itself_doubles_primitives():
    A = make_cogroup("q-even2", 6)
    ident = explicit_identity(A)
    sq = convolve(ident, ident)
    x = A.algebra.generator("x")
    assert sq.image(("x",)) == x.scale(2)
    assert sq.image(("x", "x")) == (x * x).scale(4)  # morphism square of Delta


def test_hopf_laws_hold():
    for key in ("q-even2", "q-pair11", "z-tor43", "z6-common3"):
        A = make_cogroup(key, 6)
        chi = make_antipode(key, 6)
        rep = cg.check_hopf_antipode(A, chi)
        assert rep.ok, f"{key}: {rep}"


def test_hopf_laws_catch_a_wrong_antipode():
    # the identity on generators, extended as an anti-morphism
    A = make_cogroup("q-even2", 6)
    fake = cg.AntiMorphism(A.algebra, A.algebra, {"x": A.algebra.generator("x")})
    rep = cg.check_hopf_antipode(A, fake)
    assert not rep.ok
    assert rep.violations == [
        "(chi * id)(x) = 2*x, expected 0", "(id * chi)(x) = 2*x, expected 0"
    ]


def test_hopf_check_refuses_a_map_that_is_not_an_anti_morphism():
    A = make_cogroup("q-pair11", 6)
    for f in (explicit_identity(A), cg.antipode_by_recursion(A), A.nu):
        with pytest.raises(ValueError, match="AntiMorphism"):
            cg.check_hopf_antipode(A, f)


def with_images(A, chi, changes) -> TableMap:
    """chi as a full table, with some images replaced."""
    table = {w: chi.image(w) for w in A.algebra.words_up_to() if w}
    table.update(changes)
    return TableMap(WordSource(A), A.algebra, table)


def wrong_on_a_generator(A, chi) -> cg.AntiMorphism:
    """chi with g added to the image of the first generator g."""
    g = A.module.generators[0].name
    images = dict(chi.images)
    images[g] = images[g] + A.algebra.generator(g)
    return cg.AntiMorphism(A.algebra, A.algebra, images)


def wrong_on_a_long_word(A, chi):
    """chi plus w on the last word of length >= 2 that carries a nonzero
    coefficient, or None when the truncation has no such word."""
    alg = A.algebra
    long = [w for w in alg.words_up_to() if len(w) > 1 and alg.word_modulus(w) != 1]
    if not long:
        return None
    w = long[-1]
    return with_images(A, chi, {w: chi.image(w) + alg.element({w: 1})})


def off_degree_on_a_long_word(A, chi):
    """chi plus w.w on the first word w of length >= 2 where w.w fits the
    truncation with a nonzero coefficient, or None: the words a.w then
    read an image that is not homogeneous."""
    alg = A.algebra
    for w in alg.words_up_to():
        if len(w) > 1 and 2 * alg.word_degree(w) <= A.truncation and alg.word_modulus(w + w) != 1:
            return with_images(A, chi, {w: chi.image(w) + alg.element({w + w: 1})})
    return None


def without_the_koszul_sign(A, chi):
    """chi on generators, extended by chi(a.w) = chi(w) chi(a), unsigned."""
    table = {}
    for w in A.algebra.words_up_to():
        if len(w) == 1:
            table[w] = chi.image(w)
        elif w:
            table[w] = table[w[1:]] * table[w[:1]]
    return TableMap(WordSource(A), A.algebra, table)


def hopf_reports(A, f):
    """The check on generators and the word-level oracle, which must agree."""
    fast, slow = cg.check_hopf_antipode(A, f), check_hopf_on_words(A, f)
    assert fast.ok == slow.ok, (fast, slow)
    assert fast.checked == sum(1 for g in A.module.generators if g.degree <= A.truncation)
    return fast


@pytest.mark.parametrize("key", MATRIX_KEYS)
def test_hopf_check_matches_the_word_oracle(key):
    A = make_cogroup(key, 8)
    chi = make_antipode(key, 8)
    assert hopf_reports(A, chi).ok
    assert not hopf_reports(A, wrong_on_a_generator(A, chi)).ok
    # the mutations that are not anti-morphisms go to the oracle only
    for mutate in (wrong_on_a_long_word, off_degree_on_a_long_word):
        f = mutate(A, chi)  # a generator of degree 5 has no long word by D = 8
        assert f is None or not check_hopf_on_words(A, f).ok, mutate.__name__


@settings(max_examples=40, deadline=None)
@given(coassociative_coalgebras())
def test_hopf_check_matches_the_word_oracle_on_coproduct_tables(case):
    A = cg.tensor_cogroup(*case)
    chi = cg.antipode(A)
    assert hopf_reports(A, chi).ok
    # the antipode is unique: a map passes exactly when it is chi
    f = wrong_on_a_generator(A, chi)
    assert hopf_reports(A, f).ok == (f.images == chi.images)
    for mutate in (wrong_on_a_long_word, off_degree_on_a_long_word, without_the_koszul_sign):
        f = mutate(A, chi)
        if f is not None:
            same = f.difference_witness(chi) is None
            assert check_hopf_on_words(A, f).ok == same, mutate.__name__


@pytest.mark.parametrize(
    "key", ["q-odd1", "q-pair11", "q-odd3", "z-free3", "z-tor43", "z4-free3", "f3-odd3"]
)
def test_hopf_checks_catch_a_dropped_koszul_sign(key):
    A = make_cogroup(key, 8)
    chi = make_antipode(key, 8)
    f = without_the_koszul_sign(A, chi)
    assert f.difference_witness(chi) is not None
    assert not check_hopf_on_words(A, f).ok


def test_hopf_check_names_the_wrong_word():
    A = make_cogroup("q-pair11", 6)
    chi = make_antipode("q-pair11", 6)
    rep = check_hopf_on_words(A, wrong_on_a_long_word(A, chi))
    assert rep.violations == [
        "(chi * id)(y^6) = y^6, expected 0", "(id * chi)(y^6) = y^6, expected 0"
    ]


def deconcatenation_cogroup(D=8) -> cg.Cogroup:
    m = module(Z, [("a", 1), ("b", 2), ("c", 3)])
    C = cg.CoalgebraPresentation(
        m, {"b": [(1, "a", "a")], "c": [(1, "a", "b"), (1, "b", "a")]}
    )
    return cg.tensor_cogroup(C, D)


def test_hopf_check_builds_dbar_on_generators_only():
    # Dbar of a generator is read off the table: no D, no Phi, no nu
    A = deconcatenation_cogroup()
    chi = cg.antipode(A)
    assert cg.check_hopf_antipode(A, chi).ok
    assert A._reduced_by_degree == []
    assert not {"delta", "phi", "nu"} & vars(A).keys()
    assert chi._by_degree == []  # no word image is built


def test_surjectivity_of_the_antipode_reads_generators_only():
    A = deconcatenation_cogroup()
    chi = cg.antipode(A)
    assert cg.is_antipode_surjective(A, chi) == dict.fromkeys(range(9), True)
    assert chi._by_degree == []  # no word image is built


def test_antipode_is_surjective_everywhere():
    for key in ("q-even2", "z-tor43", "z4-free3", "f3-odd3", "z6-coprime"):
        A = make_cogroup(key, 8)
        chi = make_antipode(key, 8)
        flags = cg.is_antipode_surjective(A, chi)
        assert set(flags) == set(range(9))
        assert all(flags.values()), key


def test_surjectivity_detector_sees_a_gap():
    patterns = {
        "z-free2": "TTfTfTf",
        "z4-free2": "TTfTfTf",
        "z-tor43": "TTTfTTf",
        "z-tor32": "TTTTTTT",
        "z6-coprime": "TTfTfTf",
        "f2-odd1": "Tffffff",
        "q-even2": "TTTTTTT",
    }
    for key, want in patterns.items():
        A = make_cogroup(key, 6)
        assert flag_pattern(cg.is_antipode_surjective(A, doubler(A))) == want, key


def test_antipode_negates_indecomposables():
    for key in ("q-even2", "q-pair11", "z4-free3"):
        A = make_cogroup(key, 6)
        chi = make_antipode(key, 6)
        flags = antipode_negates_indecomposables(A, chi)
        assert all(flags.values()), key
    A = make_cogroup("q-even2", 6)
    flags = antipode_negates_indecomposables(A, explicit_identity(A))
    assert not flags[2]


def is_graded_antihomomorphism(f, A) -> bool:
    """f(uv) = (-1)^{|u||v|} f(v) f(u) on all word pairs with
    deg u + deg v <= truncation."""
    alg = A.algebra
    D = A.truncation
    return all(
        f.image(u + v) == (f.image(v) * f.image(u)).scale(-1 if du * dv % 2 else 1)
        for du in range(1, D)
        for dv in range(1, D - du + 1)
        for u in alg.basis(du)
        for v in alg.basis(dv)
    )


def is_algebra_morphism_on_pairs(f, A) -> bool:
    """f(uv) = f(u) f(v) on all word pairs with deg u + deg v <= truncation:
    the oracle of ``is_algebra_morphism``, which looks up generators only."""
    alg = A.algebra
    D = A.truncation
    for du in range(1, D):
        if not alg.basis(du):  # no u: skip the pass over every dv
            continue
        for dv in range(1, D - du + 1):
            for u in alg.basis(du):
                fu = f.image(u)
                for v in alg.basis(dv):
                    if f.image(u + v) != fu * f.image(v):
                        return False
    return True


@st.composite
def maps_to_multiply(draw):
    """(f, A): the recursion chi, nu, the antipode, or nu's degree lists with
    one word image changed at a degree d from 2 to D, so that f is
    multiplicative below d."""
    C, D = draw(coassociative_coalgebras() | coprime_torsion_coalgebras())
    A = cg.tensor_cogroup(C, D)
    kind = draw(st.sampled_from(("recursion", "nu", "antipode", "changed")))
    if kind == "recursion":
        return cg.antipode_by_recursion(A), A
    if kind == "antipode":
        return cg.antipode(A), A
    alg = A.algebra
    degrees = [d for d in range(2, D + 1) if alg.basis(d)]
    if kind == "nu" or not degrees:
        return A.nu, A
    d = draw(st.sampled_from(degrees))
    words = alg.basis(d)
    lists = [A.nu.degree_images(e) for e in range(D + 1)]
    images = [dict(row) for row in rows(lists[d])]
    i = draw(st.integers(0, len(words) - 1))
    changed = as_words(alg, d, lists[d])[i]
    accumulate(changed, {draw(st.sampled_from(words)): draw(st.sampled_from((1, -1, 2)))})
    position = {w: p for p, w in enumerate(words)}
    images[i] = dict(sorted((position[w], c) for w, c in _reduce_terms(alg, changed).items()))
    lists[d] = as_triple(images)
    f = cg.GradedMap(alg, alg)
    f._by_degree = lists
    return f, A


@settings(max_examples=200, deadline=None)
@given(maps_to_multiply())
def test_the_morphism_check_on_generators_matches_the_check_on_every_pair(case):
    f, A = case
    assert cg.is_algebra_morphism(f, A) == is_algebra_morphism_on_pairs(f, A)


def test_the_morphism_check_reads_every_degree_up_to_the_truncation():
    """nu with its top degree doubled, far above twice the generator's
    degree, is multiplicative below D only: the check must read degree D."""
    A = cg.tensor_cogroup(cg.trivial_coalgebra(module(Q, [("x", 1)])), 6)
    keys, coefficients, starts = A.nu.degree_images(6)
    f = cg.GradedMap(A.algebra, A.algebra)
    f._by_degree = [A.nu.degree_images(e) for e in range(6)] + [(keys, [2 * c for c in coefficients], starts)]
    assert cg.is_algebra_morphism(A.nu, A) and is_algebra_morphism_on_pairs(A.nu, A)
    assert not cg.is_algebra_morphism(f, A) and not is_algebra_morphism_on_pairs(f, A)


def test_the_morphism_check_looks_up_generators_only(monkeypatch):
    """The generator images are the rows of f's own triples of their
    degrees, read there: no word is looked up through ``image``."""
    A = cg.tensor_cogroup(parse_spec(Z_THREE_PRIMES).coalgebra(), 10)
    chi = cg.antipode_by_recursion(A)
    looked_up = []
    image = cg.GradedMap.image

    def counted(self, word):
        looked_up.append(word)
        return image(self, word)

    monkeypatch.setattr(cg.GradedMap, "image", counted)
    assert cg.is_algebra_morphism(chi, A)
    assert looked_up == []


def test_antipode_is_antihomomorphism():
    for key in ("q-pair11", "q-even2", "z-tor43"):
        A = make_cogroup(key, 6)
        chi = make_antipode(key, 6)
        assert is_graded_antihomomorphism(chi, A), key
    A = make_cogroup("q-pair11", 6)
    assert not is_graded_antihomomorphism(explicit_identity(A), A)
    assert not cg.is_algebra_morphism(make_antipode("q-pair11", 6), A)
    B = make_cogroup("q-even2", 6)
    assert cg.is_algebra_morphism(make_antipode("q-even2", 6), B)


def test_the_morphism_check_skips_empty_degrees(monkeypatch):
    # one generator of degree 50 at D = 100: every degree but 50 and 100 is
    # empty, and the check reads each degree's words a bounded number of times
    A = cg.tensor_cogroup(cg.trivial_coalgebra(module(Q, [("x", 50)])), 100)
    calls = []
    basis = A.algebra.basis

    def counted(d):
        calls.append(d)
        return basis(d)

    monkeypatch.setattr(A.algebra, "basis", counted)
    assert cg.is_algebra_morphism(cg.antipode_by_recursion(A), A)  # x^2 = x^2
    assert len(calls) < 4 * A.truncation


def test_degrees_with_no_words_are_filled_without_a_call(monkeypatch):
    # one generator of degree 50 at D = 100: only degrees 0, 50 and 100 hold
    # words, and nu, chi, the recursion chi and Dbar fill those alone
    A = cg.tensor_cogroup(cg.trivial_coalgebra(module(Q, [("x", 50)])), 100)
    calls = []

    def counting(cls, name):
        fill = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda self, d: calls.append((type(self).__name__, d)) or fill(self, d))

    counting(cg.AlgebraMorphism, "_fill")
    counting(convolution._RecursionInverse, "_fill")
    counting(cg.Cogroup, "_reduced_coproducts_of")
    maps = (A.nu, cg.antipode(A), cg.antipode_by_recursion(A))
    for f in maps:
        f.degree_images(100)
    assert calls == [(name, d) for name in ("AlgebraMorphism", "AntiMorphism") for d in (50, 100)] + [
        ("_RecursionInverse", 50), ("Cogroup", 50), ("_RecursionInverse", 100), ("Cogroup", 100)]
    for f in maps:
        assert [d for d in range(101) if rows(f.degree_images(d))] == [0, 50, 100]
    assert [d for d in range(101) if A.reduced_coproducts(d)] == [0, 50, 100]
    x = A.algebra.generator("x")
    assert cg.antipode_by_recursion(A).image(("x", "x")) == x * x
    assert cg.classify_cogroup(A).consistent


def test_graded_map_validation():
    A = make_cogroup("q-even2", 6)
    src = WordSource(A)
    alg = A.algebra
    x = alg.generator("x")
    with pytest.raises(ValueError):
        graded_map(src, alg, {("x",): x * x})  # wrong degree
    T = make_cogroup("z-tor32", 6)
    tsrc = WordSource(T)
    free = cg.TruncatedTensorAlgebra(module(Z, [("u", 2)]), 6)
    with pytest.raises(ValueError):
        graded_map(tsrc, free, {("x",): free.generator("u")})  # 3u != 0


def test_graded_maps_compare_with_algebra_morphisms():
    # a table map against the library's maps, through the oracle's __eq__
    A = make_cogroup("z-tor43", 6)
    chi, table = cg.antipode(A), with_images(A, cg.antipode_by_recursion(A), {})
    assert chi == table and table == chi
    assert not (chi != table or table != chi)
    wrong = wrong_on_a_generator(A, chi)
    assert wrong != table and table != wrong
    assert not (wrong == table or table == wrong)
    # nu is an AlgebraMorphism; on the odd generator x, nu(xx) = -chi(xx)
    nu_table = with_images(A, A.nu, {})
    assert A.nu == nu_table and nu_table == A.nu
    assert A.nu != table and table != A.nu
    # a morphism out of other words is never equal
    deeper = cg.antipode(make_cogroup("z-tor43", 8))
    assert table != deeper and deeper != table
    src, B = loop_source()
    assert TableMap(src, B.algebra, {}) != B.nu


def test_difference_witness_points_at_first_gap():
    A = make_cogroup("q-even2", 6)
    ident = explicit_identity(A)
    chi = make_antipode("q-even2", 6)
    assert ident.difference_witness(chi) == ("x",)
    assert ident.difference_witness(explicit_identity(A)) is None
