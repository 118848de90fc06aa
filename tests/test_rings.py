"""Ring contexts and Smith normal form."""

import pickle
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, strategies as st

import cogroups as cg
from cogroups import RingSpec
from snf import smith_normal_form


def test_ring_constructors_and_str():
    assert str(RingSpec.integers()) == "Z"
    assert str(RingSpec.rationals()) == "Q"
    assert str(RingSpec.integers_mod(6)) == "Zmod 6"
    assert str(RingSpec.prime_field(3)) == "Fp 3"


def test_characteristics():
    assert RingSpec.integers().characteristic() == 0
    assert RingSpec.rationals().characteristic() == 0
    assert RingSpec.integers_mod(4).characteristic() == 4
    assert RingSpec.prime_field(7).characteristic() == 7


def test_invalid_ring_parameters():
    with pytest.raises(ValueError):
        RingSpec.integers_mod(1)
    with pytest.raises(ValueError):
        RingSpec.integers_mod(0)
    with pytest.raises(ValueError):
        RingSpec.prime_field(6)
    with pytest.raises(ValueError):
        RingSpec.prime_field(1)


def test_ring_spec_is_a_frozen_value():
    ring = RingSpec("Zmod", 4)
    same = RingSpec(kind="Zmod", modulus=4)
    assert ring == same and hash(ring) == hash(same) and len({ring, same}) == 1
    assert ring != RingSpec("Zmod", 6) and ring != RingSpec.integers()
    assert ring != ("Zmod", 4) and ring.__eq__(("Zmod", 4)) is NotImplemented
    with pytest.raises(AttributeError):
        ring.modulus = 6
    with pytest.raises(AttributeError):
        del ring.kind
    assert (ring.kind, ring.modulus) == ("Zmod", 4)
    assert repr(ring) == "RingSpec(kind='Zmod', modulus=4)"
    assert repr(RingSpec.rationals()) == "RingSpec(kind='Q', modulus=0)"
    assert pickle.loads(pickle.dumps(ring)) == ring


def test_composite_modulus_is_legal():
    ring = RingSpec.integers_mod(6)
    assert not ring.is_field()
    assert ring.normalize(7) == 1


def test_is_field():
    assert RingSpec.rationals().is_field()
    assert RingSpec.prime_field(2).is_field()
    assert not RingSpec.integers().is_field()
    assert not RingSpec.integers_mod(4).is_field()


@given(st.integers(-100, 100), st.integers(-100, 100))
def test_zmod_normalize_is_ring_morphism(a, b):
    ring = RingSpec.integers_mod(6)
    assert ring.normalize(a + b) == ring.normalize(ring.normalize(a) + ring.normalize(b))
    assert ring.normalize(a * b) == ring.normalize(ring.normalize(a) * ring.normalize(b))
    assert 0 <= ring.normalize(a) < 6


def test_normalize_rejects_nonintegral_fraction_outside_q():
    with pytest.raises(TypeError):
        RingSpec.integers().normalize(Fraction(1, 2))
    assert RingSpec.integers().normalize(Fraction(4, 2)) == 2
    assert RingSpec.rationals().normalize(Fraction(1, 2)) == Fraction(1, 2)


@pytest.mark.parametrize(
    "ring, value, want",
    [
        (RingSpec.integers(), 3, 3),
        (RingSpec.integers(), True, 1),
        (RingSpec.integers(), Fraction(-4, 2), -2),
        (RingSpec.rationals(), -3, -3),
        (RingSpec.rationals(), True, 1),
        (RingSpec.rationals(), Fraction(4, 2), 2),
        (RingSpec.rationals(), Fraction(1, 2), Fraction(1, 2)),
        (RingSpec.rationals(), Fraction(-6, 4), Fraction(-3, 2)),
        (RingSpec.integers_mod(6), -1, 5),
        (RingSpec.integers_mod(6), True, 1),
        (RingSpec.integers_mod(6), Fraction(14, 2), 1),
        (RingSpec.prime_field(7), 10, 3),
        (RingSpec.prime_field(7), Fraction(-14, 2), 0),
    ],
)
def test_normalize_returns_the_value_the_algebra_stores(ring, value, want):
    """An int for every integral value, a Fraction only for a non-integral
    rational, the residue over Z/n and F_p."""
    got = ring.normalize(value)
    assert got == want and type(got) is type(want)
    A = cg.TruncatedTensorAlgebra(cg.GradedModulePresentation(ring, (cg.CyclicGenerator("x", 1),)), 1)
    stored = A.element({("x",): value}).terms.values()
    assert [(c, type(c)) for c in stored] == ([(want, type(want))] if want else [])


def test_legal_annihilator():
    assert RingSpec.integers().legal_annihilator(0)
    assert RingSpec.integers().legal_annihilator(5)
    assert RingSpec.rationals().legal_annihilator(0)
    assert not RingSpec.rationals().legal_annihilator(2)
    assert RingSpec.integers_mod(6).legal_annihilator(3)
    assert not RingSpec.integers_mod(6).legal_annihilator(4)
    assert RingSpec.prime_field(5).legal_annihilator(0)
    assert not RingSpec.prime_field(5).legal_annihilator(5)
    assert not RingSpec.prime_field(5).legal_annihilator(2)


def test_is_prime_small_and_carmichael():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for n in range(-3, 42):
        assert cg.is_prime(n) == (n in primes)
    assert not cg.is_prime(561)
    assert not cg.is_prime(341550071728321)
    assert cg.is_prime(2**31 - 1)


# psi_12 and psi_13: the least strong pseudoprimes to the first 12 and 13
# prime bases.
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_is_prime_certifies_below_psi13_and_refuses_from_it():
    assert all(_strong_probable_prime(PSI_12, a) for a in BASES[:12])
    assert not _strong_probable_prime(PSI_12, 41)
    assert not cg.is_prime(PSI_12)
    assert PSI_13 == 1287836182261 * 2575672364521
    assert all(_strong_probable_prime(PSI_13, a) for a in BASES)
    assert cg.is_prime(2**61 - 1)
    for n in (PSI_13, PSI_13 + 2, 2**89 - 1):
        with pytest.raises(ValueError, match=f"{PSI_13}, the bound"):
            cg.is_prime(n)
    with pytest.raises(ValueError, match="bound") as info:
        RingSpec.prime_field(PSI_13)
    assert "not prime" not in str(info.value)


# psi_1 .. psi_13, the least strong pseudoprimes to the first k prime bases
# (Jaeschke 1993; Sorenson and Webster 2017); psi_7 = psi_8 and
# psi_9 = psi_10 = psi_11.
PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321,
    3825123056546413051, 3825123056546413051, 3825123056546413051,
    PSI_12, PSI_13,
)


def _is_prime_on_all_13_bases(n):
    if n < 2:
        return False
    for p in BASES:
        if n % p == 0:
            return n == p
    return all(_strong_probable_prime(n, a) for a in BASES)


def test_is_prime_with_bases_sized_to_n_matches_all_13_bases():
    assert all(_strong_probable_prime(psi, a) for k, psi in enumerate(PSI, 1) for a in BASES[:k])
    rng = random.Random(23)
    numbers = list(range(10**5))
    numbers += [psi + e for psi in PSI[:-1] for e in (-2, -1, 0, 1, 2)]
    numbers += [PSI_13 - e for e in (1, 2)]
    for digits in range(5, 26):
        top = min(10**digits, PSI_13)
        numbers += [rng.randrange(10 ** (digits - 1), top) | 1 for _ in range(200)]
    for n in numbers:
        assert cg.is_prime(n) == _is_prime_on_all_13_bases(n), n


# Smith normal form --------------------------------------------------------


def _det(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def _gcd_of_minors(matrix, k):
    """Oracle: product of the first k invariant factors."""
    rows = range(len(matrix))
    cols = range(len(matrix[0]))
    g = 0
    for rs in combinations(rows, k):
        for cs in combinations(cols, k):
            sub = [[matrix[r][c] for c in cs] for r in rs]
            g = gcd(g, _det(sub))
    return g


def _mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def check_snf(matrix):
    res = smith_normal_form(matrix)
    u = [list(r) for r in res.U]
    v = [list(r) for r in res.V]
    d = [list(r) for r in res.D]
    assert _mat_mul(_mat_mul(u, [list(r) for r in matrix]), v) == d
    assert abs(_det(u)) == 1
    assert abs(_det(v)) == 1
    factors = res.factors
    for i, f in enumerate(factors):
        assert f >= 0
        if i + 1 < len(factors) and f:
            assert factors[i + 1] % f == 0
        if i + 1 < len(factors) and f == 0:
            assert factors[i + 1] == 0
    for i in range(len(d)):
        for j in range(len(d[0])):
            if i != j:
                assert d[i][j] == 0
    # invariant factor products match the gcd-of-minors oracle
    prod = 1
    for k, f in enumerate(factors, start=1):
        prod *= f
        assert prod == _gcd_of_minors(matrix, k)
    return factors


def test_snf_frozen_examples():
    assert check_snf([[1, 0], [0, 1]]) == (1, 1)
    assert check_snf([[2, 4], [6, 8]]) == (2, 4)
    assert check_snf([[0, 0], [0, 0]]) == (0, 0)
    assert check_snf([[6]]) == (6,)
    assert check_snf([[2, 0], [0, 3]]) == (1, 6)
    assert check_snf([[4, 6, 8]]) == (2,)
    assert check_snf([[3], [5]]) == (1,)


@st.composite
def _matrices(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    return [[draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(m)]


@given(_matrices())
def test_snf_random(matrix):
    check_snf(matrix)


def test_snf_accepts_empty_and_rejects_ragged():
    res = smith_normal_form([])
    assert res.factors == ()
    assert res.D == ()
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])
