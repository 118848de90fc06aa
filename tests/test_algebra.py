"""Truncated tensor algebras, and the tests' signed tensor square and free products."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import cogroups as cg
from cogroup_oracle import TensorSquare, free_product, renaming_morphism
from instances import (
    F2,
    F3,
    MATRIX,
    Q,
    RINGS,
    Z,
    Z4,
    Z6,
    annihilators,
    brute_force_graded_commutative,
    coassociative_coalgebras,
    coprime_torsion_coalgebras,
    make_module,
    module,
)


def poly_algebra(D=10):
    return cg.TruncatedTensorAlgebra(module(Q, [("X", 2)]), D)


def two_letter_algebra(D=6):
    return cg.TruncatedTensorAlgebra(module(Q, [("x", 1), ("y", 2)]), D)


def test_basis_single_generator():
    A = poly_algebra()
    assert A.basis(0) == [()]
    assert A.basis(2) == [("X",)]
    assert A.basis(3) == []
    assert A.basis(8) == [("X",) * 4]
    assert A.basis(12) == []  # above truncation


@pytest.mark.parametrize("key", [row[0] for row in MATRIX])
def test_the_algebra_lists_the_generators_it_holds(key):
    for D in (0, 3, 8):  # 3 lies below some generator degrees
        alg = cg.TruncatedTensorAlgebra(make_module(key), D)
        names = [g.name for g in alg.generators]
        letters = [w[0] for w in alg.words_up_to() if len(w) == 1]
        # the one-letter words, in declaration order where words_up_to lists
        # them by degree ("f3-pair" declares x of degree 4 before y of degree 2)
        assert names == [n for n in alg.module.names() if n in letters], (key, D)
        assert len(names) == len(letters), (key, D)


def test_basis_counts_follow_compositions():
    A = two_letter_algebra()
    # words of degree d in letters of degrees 1 and 2: Fibonacci counts
    expect = {0: 1, 1: 1, 2: 2, 3: 3, 4: 5, 5: 8, 6: 13}
    for d, n in expect.items():
        assert len(A.basis(d)) == n
    assert A.basis(2) == [("x", "x"), ("y",)]


def test_word_degree_and_modulus():
    m = module(Z, [("x", 2, 3), ("y", 4, 5)])
    A = cg.TruncatedTensorAlgebra(m, 10)
    assert A.word_degree(("x", "y")) == 6
    assert A.word_modulus(("x",)) == 3
    assert A.word_modulus(("x", "x")) == 3
    assert A.word_modulus(("x", "y")) == 1
    assert A.word_modulus(()) == 0
    B = cg.TruncatedTensorAlgebra(module(Z6, [("u", 1), ("v", 1, 3)]), 4)
    assert B.word_modulus(("u",)) == 6
    assert B.word_modulus(("u", "v")) == 3


def test_coprime_torsion_words_vanish():
    m = module(Z, [("x", 2, 3), ("y", 4, 5)])
    A = cg.TruncatedTensorAlgebra(m, 10)
    x, y = A.generator("x"), A.generator("y")
    assert not (x * y)
    assert not A.element({("x", "y"): 1})
    assert x * x  # same letter keeps its torsion


def test_element_normalization_and_equality():
    A = cg.TruncatedTensorAlgebra(module(Z6, [("x", 2, 3)]), 6)
    assert A.element({("x",): 4}) == A.element({("x",): 1})
    assert A.element({("x",): 3}) == A.zero()
    assert A.element({("x",): 1}) != A.zero()
    with pytest.raises(ValueError):
        A.element({("nope",): 1})


def test_unit_and_scalar():
    A = poly_algebra()
    X = A.generator("X")
    assert A.one() * X == X
    assert X * A.one() == X
    assert A.scalar(3) == A.one().scale(3)
    assert X.scale(0) == A.zero()
    assert X.scale(2) == X + X


def test_truncation_drops_high_degree():
    A = poly_algebra(4)
    X = A.generator("X")
    sq = X * X
    assert sq.terms.get(("X", "X"), 0) == 1
    assert not (sq * X)  # degree 6 > 4


def test_multiplication_is_associative_and_distributive():
    A = two_letter_algebra()
    rng = random.Random(11)

    def rand_elem():
        terms = {}
        for d in range(0, 4):
            for w in A.basis(d):
                if rng.random() < 0.5:
                    terms[w] = Fraction(rng.randint(-3, 3))
        return A.element(terms)

    for _ in range(12):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_truncation_coherence():
    m = module(Q, [("x", 1), ("y", 2)])
    low, high = cg.TruncatedTensorAlgebra(m, 5), cg.TruncatedTensorAlgebra(m, 9)
    rng = random.Random(5)
    for _ in range(8):
        terms = {w: rng.randint(-3, 3) for w in high.words_up_to(4) if rng.random() < 0.4}
        a_low, a_high = low.element(dict(terms)), high.element(dict(terms))
        prod_high = a_high * a_high
        cut = {w: c for w, c in prod_high.terms.items() if high.word_degree(w) <= 5}
        assert a_low * a_low == low.element(cut)


def test_str_rendering():
    A = two_letter_algebra()
    x, y = A.generator("x"), A.generator("y")
    assert str(A.zero()) == "0"
    assert str(A.one()) == "1"
    assert str(x * x * y) == "x^2*y"
    assert str(y + (x * x).scale(-1)) == "-x^2 + y"
    assert str(x.scale(Fraction(1, 2))) == "1/2*x"
    assert str(A.one().scale(-2) + y) == "-2 + y"


def test_morphism_extends_multiplicatively():
    A = poly_algebra(8)
    f = cg.AlgebraMorphism(A, A, {"X": A.generator("X").scale(2)})
    X = A.generator("X")
    assert f(X * X) == (X * X).scale(4)
    assert f(A.one()) == A.one()
    assert f(A.zero()) == A.zero()


def test_morphism_validation():
    A = poly_algebra(8)
    B = two_letter_algebra(8)
    with pytest.raises(ValueError):
        cg.AlgebraMorphism(A, A, {})
    with pytest.raises(ValueError):
        cg.AlgebraMorphism(A, B, {"X": B.generator("x")})  # degree 1 != 2
    T = cg.TruncatedTensorAlgebra(module(Z, [("t", 2, 2)]), 8)
    U = cg.TruncatedTensorAlgebra(module(Z, [("u", 2, 0)]), 8)
    with pytest.raises(ValueError):
        cg.AlgebraMorphism(T, U, {"t": U.generator("u")})  # 2u != 0
    cg.AlgebraMorphism(U, T, {"u": T.generator("t")})  # free source is fine
    with pytest.raises(ValueError):
        f = cg.AlgebraMorphism(A, A, {"X": A.generator("X")})
        f(B.generator("x"))


def test_morphism_images_must_lie_in_the_target():
    A = poly_algebra(8)
    with pytest.raises(ValueError):
        cg.AlgebraMorphism(A, A, {"X": poly_algebra(6).generator("X")})


def test_compose_and_renaming():
    A = poly_algebra(8)
    double = cg.AlgebraMorphism(A, A, {"X": A.generator("X").scale(2)})
    quad = cg.AlgebraMorphism(A, A, {"X": double(double.images["X"])})
    assert quad(A.generator("X")) == A.generator("X").scale(4)
    m2 = module(Q, [("Y", 2)])
    B = cg.TruncatedTensorAlgebra(m2, 8)
    rho = renaming_morphism(A, B, {"X": "Y"})
    X = A.generator("X")
    assert rho(X * X) == B.generator("Y") * B.generator("Y")


def test_free_product_with_unit_keeps_names():
    unit = cg.TruncatedTensorAlgebra(module(Q, []), 6)
    B = two_letter_algebra()
    fp = free_product(unit, B)
    assert fp.algebra.module.names() == ("x", "y")
    assert fp.inclusions[1](B.generator("x")) == fp.algebra.generator("x")


def test_free_product_renames_only_collisions():
    A = cg.TruncatedTensorAlgebra(module(Q, [("x", 2), ("u", 2)]), 6)
    B = cg.TruncatedTensorAlgebra(module(Q, [("x", 2), ("v", 2)]), 6)
    fp = free_product(A, B)
    assert fp.name_maps[0] == {"x": "x'", "u": "u"}
    assert fp.name_maps[1] == {"x": "x''", "v": "v"}
    assert set(fp.algebra.module.names()) == {"x'", "u", "x''", "v"}


def test_free_product_inclusions_are_multiplicative():
    A = two_letter_algebra()
    fp = free_product(A, A)
    rng = random.Random(3)
    for _ in range(6):
        terms = {w: rng.randint(-2, 2) for w in A.words_up_to(3)}
        a = A.element(terms)
        b = A.element({w: rng.randint(-2, 2) for w in A.words_up_to(3)})
        assert fp.inclusions[0](a * b) == fp.inclusions[0](a) * fp.inclusions[0](b)
        assert fp.inclusions[1](a * b) == fp.inclusions[1](a) * fp.inclusions[1](b)


def test_free_power_matches_self_product():
    A = two_letter_algebra()
    cube = free_product(A, A, A)
    assert cube.algebra.module.names() == (
        "x'", "y'", "x''", "y''", "x'''", "y'''",
    )
    x = A.generator("x")
    assert cube.inclusions[2](x) == cube.algebra.generator("x'''")


def test_free_product_keeps_primed_names_disjoint():
    A = cg.TruncatedTensorAlgebra(module(Q, [("x", 2), ("x'", 4)]), 6)
    names = free_product(A, A).algebra.module.names()
    assert len(set(names)) == 4


def test_free_product_primes_mark_the_factor():
    A = cg.TruncatedTensorAlgebra(module(Q, [("x", 2)]), 6)
    B = cg.TruncatedTensorAlgebra(module(Q, [("y", 2)]), 6)
    fp = free_product(A, B, A)
    assert fp.algebra.module.names() == ("x'", "y", "x'''")


def test_free_product_needs_a_factor():
    with pytest.raises(ValueError):
        free_product()


def test_free_product_needs_matching_context():
    A = poly_algebra(6)
    with pytest.raises(ValueError):
        free_product(A, cg.TruncatedTensorAlgebra(module(Z, [("x", 2)]), 6))
    with pytest.raises(ValueError):
        free_product(A, poly_algebra(8))


def test_tensor_square_koszul_sign():
    A = cg.TruncatedTensorAlgebra(module(Q, [("x", 1), ("y", 2)]), 6)
    sq = TensorSquare(A)
    x_left = sq.pure(("x",), ())
    x_right = sq.pure((), ("x",))
    assert x_left * x_right == sq.pure(("x",), ("x",))
    assert x_right * x_left == sq.pure(("x",), ("x",), -1)
    y_right = sq.pure((), ("y",))
    y_left = sq.pure(("y",), ())
    assert y_right * y_left == sq.pure(("y",), ("y",))  # even: no sign


def test_tensor_square_is_associative():
    A = cg.TruncatedTensorAlgebra(module(Q, [("x", 1), ("y", 2)]), 6)
    sq = TensorSquare(A)
    rng = random.Random(7)
    pairs = [(u, v) for u in A.words_up_to(2) for v in A.words_up_to(2)]

    def rand():
        return sq.element(
            {p: rng.randint(-2, 2) for p in pairs if rng.random() < 0.3}
        )

    for _ in range(10):
        a, b, c = rand(), rand(), rand()
        assert (a * b) * c == a * (b * c)


def test_tensor_square_coefficients_reduce_by_pair():
    m = module(Z, [("x", 2, 3), ("y", 4, 5)])
    sq = TensorSquare(cg.TruncatedTensorAlgebra(m, 10))
    assert not sq.pure(("x",), ("y",))  # coprime torsion across the pair
    assert sq.pure(("x",), ("x",), 4) == sq.pure(("x",), ("x",), 1)


def test_graded_commutativity_matches_brute_force():
    for key, ring, gens, expected in MATRIX:
        A = cg.TruncatedTensorAlgebra(make_module(key), 6)
        flag, witness = cg.is_graded_commutative(A)
        assert flag == expected, key
        assert flag == brute_force_graded_commutative(A, 6), key
        if not flag:
            u, v = witness
            assert u in A.module.names() and v in A.module.names()


@st.composite
def random_modules(draw):
    ring = draw(st.sampled_from(RINGS))
    anns = annihilators(ring)
    gens = [
        (name, draw(st.integers(1, 3)), draw(st.sampled_from(anns)))
        for name in "xyz"[:draw(st.integers(1, 3))]
    ]
    return module(ring, gens)


@settings(max_examples=100, deadline=None)
@given(random_modules())
def test_graded_commutativity_matches_brute_force_and_locality(M):
    A = cg.TruncatedTensorAlgebra(M, 6)
    flag = cg.is_graded_commutative(A)[0]
    assert flag == brute_force_graded_commutative(A, 6)
    assert flag == cg.is_locally_at_most_singly_generated(M).ok


def test_graded_commutativity_ignores_truncation():
    # truncation 3 cannot see the degree-8 commutator; the check widens
    A = cg.TruncatedTensorAlgebra(module(Q, [("X", 4)]), 3)
    assert cg.is_graded_commutative(A) == (True, None)
    B = cg.TruncatedTensorAlgebra(module(Q, [("X", 3)]), 3)
    flag, witness = cg.is_graded_commutative(B)
    assert not flag and witness == ("X", "X")


def test_format_word():
    assert cg.format_word(()) == "1"
    assert cg.format_word(("x",)) == "x"
    assert cg.format_word(("x", "x", "y")) == "x^2*y"
    assert cg.format_word(("x", "y", "x")) == "x*y*x"


@st.composite
def labelled_modules(draw):
    """Up to three letters, some of one degree, some named with primes."""
    names = draw(st.lists(st.sampled_from(("x", "x'", "x''", "y", "y'")), min_size=1, max_size=3, unique=True))
    return module(Q, [(n, draw(st.integers(1, 2))) for n in names])


@settings(max_examples=80, deadline=None)
@given(labelled_modules(), st.integers(0, 6))
def test_labels_are_format_word_of_the_basis(N, D):
    A = cg.TruncatedTensorAlgebra(N, D)
    for d in range(-1, D + 2):
        assert A.labels(d) == [cg.format_word(w) for w in A.basis(d)], d
    # format_key labels a basis word by its position, and the words above D too
    B = cg.TruncatedTensorAlgebra(N, D)
    for w in all_words(N, D + 2):
        assert B.format_key(w) == cg.format_word(w), w


def test_format_key_labels_a_word_in_no_basis():
    """Above the truncation, or with a letter that is no generator: a label
    from ``format_word``, and no sort key."""
    A = cg.TruncatedTensorAlgebra(module(Q, [("x", 1), ("y", 4)]), 3)
    assert A.format_key(("x",) * 5) == "x^5"  # before and after its degree is filled
    assert A.format_key(("x",) * 5) == "x^5"
    assert A.format_key(("y",)) == "y" and A.format_key(("x", "x", "y")) == "x^2*y"
    assert A.format_key(("x",) * 3) == "x^3" and A.format_key(("q", "q")) == "q^2"
    for word in (("x",) * 5, ("q", "q")):
        with pytest.raises(KeyError):
            A.sort_key(word)


def render_terms(items, fmt_key):
    """Oracle renderer: sorted (key, coeff) pairs as a signed sum, term by term."""
    if not items:
        return "0"
    chunks = []
    for key, c in items:
        neg = c < 0
        mag = -c if neg else c
        body = fmt_key(key) if mag == 1 and key else str(mag) + ("*" + fmt_key(key) if key else "")
        if not key and mag == 1:
            body = "1"
        if not chunks:
            chunks.append(("-" if neg else "") + body)
        else:
            chunks.append(("- " if neg else "+ ") + body)
    return " ".join(chunks)


def oracle_key(module):
    """The print order of words: (degree, letter-order tuple)."""
    order = {g.name: i for i, g in enumerate(module.generators)}

    def key(w):
        return (sum(module.degree_of(l) for l in w), tuple(order[l] for l in w))

    return key


def oracle_str(elem):
    """An element rendered from ``oracle_key`` and ``format_word`` alone."""
    parent = elem.parent
    if isinstance(parent, TensorSquare):
        key = oracle_key(parent.algebra.module)
        items = sorted(elem.terms.items(), key=lambda kv: (key(kv[0][0]), key(kv[0][1])))
        return render_terms(
            items, lambda p: f"{cg.format_word(p[0])}(x){cg.format_word(p[1])}"
        )
    key = oracle_key(parent.module)
    return render_terms(sorted(elem.terms.items(), key=lambda kv: key(kv[0])), cg.format_word)


def all_words(module, top):
    """Every word of degree <= top, listed without any algebra's basis."""
    words, frontier = [()], [((), 0)]
    while frontier:
        frontier = [
            (w + (g.name,), d + g.degree)
            for w, d in frontier
            for g in module.generators
            if d + g.degree <= top
        ]
        words += [w for w, _ in frontier]
    return words


@st.composite
def printable_elements(draw):
    """(algebra, element of A, element of A (x) A) over Z, Q, Z/4, F_3.

    No ``basis(d)`` of the algebra has been built yet.
    """
    ring = draw(st.sampled_from((Z, Q, Z4, F3)))
    names = draw(st.permutations("xyz"))[: draw(st.integers(1, 3))]
    N = module(ring, [(n, draw(st.integers(1, 2))) for n in names])
    A = cg.TruncatedTensorAlgebra(N, 4)
    words = all_words(N, 4)
    coeff = st.integers(-5, 5)
    if ring is Q:
        coeff = coeff | st.fractions(min_value=-3, max_value=3, max_denominator=4)
    elem = A.element(draw(st.dictionaries(st.sampled_from(words), coeff, max_size=6)))
    pairs = st.tuples(st.sampled_from(words), st.sampled_from(words))
    sq = TensorSquare(A)
    pair_elem = sq.element(draw(st.dictionaries(pairs, coeff, max_size=6)))
    return A, elem, pair_elem


@settings(max_examples=80, deadline=None)
@given(printable_elements())
def test_str_matches_a_render_from_format_word(case):
    A, elem, pair_elem = case
    want, want_pairs = oracle_str(elem), oracle_str(pair_elem)
    # before any basis(d): sort keys are counted on demand
    assert str(elem) == want and str(pair_elem) == want_pairs
    # after basis(d) is built: the keys counted above are read back
    list(A.words_up_to())
    assert str(elem) == want and str(pair_elem) == want_pairs
    # an algebra whose basis was built first
    B = cg.TruncatedTensorAlgebra(A.module, A.truncation)
    list(B.words_up_to())
    assert str(B.element(elem.terms)) == want
    assert str(TensorSquare(B).element(pair_elem.terms)) == want_pairs


def test_str_sorts_terms_of_mixed_degree_in_basis_order():
    A = two_letter_algebra()
    terms = {("y", "y", "x", "x"): 1, ("y", "x"): 1, ("x", "y"): -1, ("x",): 2, (): 3}
    want = "3 + 2*x - x*y + y*x + y^2*x^2"
    assert str(A.element(terms)) == want  # no basis built
    B = two_letter_algebra()
    B.basis(3)  # keys up to degree 3 come from the bases, y^2*x^2's is counted
    assert str(B.element(terms)) == want
    sq = TensorSquare(B)
    pair = sq.element({(("y",), ("x",)): 1, (("x",), ("y",)): 1, ((), ("x", "x")): -1})
    assert str(pair) == "-1(x)x^2 + x(x)y + y(x)x" == oracle_str(pair)


def test_basis_follows_the_oracle_key_and_counted_positions():
    for key, *_ in MATRIX:
        module = make_module(key)
        A = cg.TruncatedTensorAlgebra(module, 8)
        words = all_words(module, 8)
        counted = {w: A.sort_key(w) for w in words}  # before any basis(d)
        oracle = oracle_key(module)
        for d in range(9):
            basis = A.basis(d)
            assert basis == sorted(basis, key=oracle), (key, d)
            assert [counted[w] for w in basis] == [(d, i) for i in range(len(basis))]
        assert list(A.words_up_to()) == sorted(words, key=oracle), key


@settings(max_examples=80, deadline=None)
@given(st.one_of(coassociative_coalgebras(), coprime_torsion_coalgebras()))
# a generator above D, degrees with no words, and torsion letters
@example((cg.trivial_coalgebra(module(Z, [("x", 2, 4), ("y", 3), ("z", 9)])), 8))
@example((cg.trivial_coalgebra(module(Z6, [("a", 2, 2), ("b", 3, 3)])), 7))
def test_a_word_is_its_position_and_concatenation_an_addition(case):
    """basis(d) lists g.v block by block, so the position of u.v in
    basis(d) is P(u, d) + the position of v: checked on every pair up to
    D.  The count recurrence gives len(basis(d)), the per-position moduli
    are ``word_modulus`` of the basis, and a prefix table lists P(u, d)
    over basis(e)."""
    C, D = case
    B = cg.TruncatedTensorAlgebra(C.module, D)  # counted, never listed
    sizes, degrees = [B.size(d) for d in range(-1, D + 3)], B.degrees(0, D + 2)
    moduli = [B.moduli(d) for d in range(D + 1)]
    assert B._basis_cache == [[()]]
    A = cg.TruncatedTensorAlgebra(C.module, D)
    position = [{w: p for p, w in enumerate(A.basis(d))} for d in range(D + 1)]
    assert sizes == [len(A.basis(d)) for d in range(-1, D + 3)]
    assert degrees == [d for d in range(D + 1) if A.basis(d)]
    assert moduli == [[A.word_modulus(w) for w in A.basis(d)] for d in range(D + 1)]
    for d in range(D + 1):
        for e in range(d + 1):
            for u in A.basis(e):
                for v in A.basis(d - e):
                    assert A.prefix(u, d) + position[d - e][v] == position[d][u + v], (u, v)
            if A.basis(d - e):
                assert A.prefixes(e, d) == [A.prefix(u, d) for u in A.basis(e)], (e, d)
