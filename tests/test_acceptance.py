"""Acceptance gate: ten exact-arithmetic criteria, one line each.

Every criterion runs as its own parametrized case, so `pytest -v` prints
one pass/fail line per criterion; the bodies also print a criterion
summary line that shows up under `-s` and in failure captures.  All
comparisons are exact (ints, Fractions, canonical residues); there are
no tolerances anywhere.
"""

import io
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import cogroups as cg
from cogroups.cli import main as cli_main
from convolution_oracle import (
    CoalgebraSource, WordSource, convolution_inverse_eagerly, convolve, unit_map,
)
from hopf_oracle import antipode_negates_indecomposables
from instances import (
    F2,
    MATRIX,
    Q,
    Z,
    classify_module,
    make_antipode,
    make_cogroup,
    make_module,
    module,
    random_graded_map,
)

GOLDEN = Path(__file__).parent / "golden"


def criterion_01_convolution_group_laws():
    """Randomized convolution group laws on two word-basis coalgebras."""
    start = time.monotonic()
    torsion_pair = module(Z, [("x", 2, 3), ("y", 4, 5)])
    cogroups = (
        cg.tensor_cogroup(cg.trivial_coalgebra(module(Q, [("X", 2)])), 10),
        cg.tensor_cogroup(cg.trivial_coalgebra(torsion_pair), 10),
    )
    for A in cogroups:
        src = WordSource(A)
        rng = random.Random(0)
        maps = [random_graded_map(src, A.algebra, rng) for _ in range(20)]
        e = unit_map(src, A.algebra)
        for i, f in enumerate(maps):
            inv_right = convolution_inverse_eagerly(f, "right")
            inv_left = convolution_inverse_eagerly(f, "left")
            assert inv_right == inv_left
            assert convolve(f, inv_right) == e
            assert convolve(inv_right, f) == e
            assert convolve(f, e) == f
            assert convolve(e, f) == f
            g = maps[(i + 1) % len(maps)]
            h = maps[(i + 2) % len(maps)]
            assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))
    assert time.monotonic() - start < 10.0


def criterion_02_inverse_meets_antipode_on_generators():
    """nu and chi agree on every generator of every matrix instance."""
    assert len(MATRIX) >= 20
    for key, ring, gens, expected in MATRIX:
        A = make_cogroup(key, 8)
        chi = make_antipode(key, 8)
        for g in A.module.generators:
            if g.degree > 8:
                continue
            word = (g.name,)
            assert A.nu(A.algebra.generator(g.name)) == chi.image(word), key


def criterion_03_three_way_equivalence():
    """nu=chi on words, chi multiplicative, graded commutative: identical."""
    trues = falses = 0
    for key, ring, gens, expected in MATRIX:
        A = make_cogroup(key, 8)
        chi = make_antipode(key, 8)
        nu_eq_chi, _ = cg.inverse_equals_antipode(A)
        chi_morphism = cg.is_algebra_morphism(chi, A)
        commutative, _ = cg.is_graded_commutative(A.algebra)
        assert nu_eq_chi == chi_morphism == commutative, key
        assert commutative == expected, key
        if commutative:
            trues += 1
        else:
            falses += 1
    assert trues >= 5 and falses >= 5


def criterion_04_surjectivity_and_indecomposables():
    """chi is onto in every degree <= 8, and is -1 mod decomposables."""
    for key, ring, gens, expected in MATRIX:
        A = make_cogroup(key, 8)
        chi = make_antipode(key, 8)
        onto = cg.is_antipode_surjective(A, chi)
        assert set(onto) == set(range(9)), key
        assert all(onto.values()), key
        negates = antipode_negates_indecomposables(A, chi)
        assert all(negates.values()), key
    # the degree-6 component of the Zmod 4 torsion instance: chi = -1
    A = make_cogroup("z4-free3", 8)
    chi = make_antipode("z4-free3", 8)
    word = ("x", "x")
    assert chi.image(word) == A.algebra.element({word: 3})
    assert A.algebra.element({word: 3}) == A.algebra.element({word: 1}).scale(-1)


def criterion_05_closed_form_for_one_cyclic_summand():
    """Closed form (degree even or quotient characteristic 2) vs direct check."""
    rings = (Z, Q, F2, cg.RingSpec.prime_field(3))
    checked = 0
    for ring in rings:
        for a in (0, 2, 3, 4, 6):
            if not ring.legal_annihilator(a):
                continue
            for n in range(1, 7):
                m = module(ring, [("x", n, a)])
                direct, _ = cg.is_graded_commutative(cg.TruncatedTensorAlgebra(m, 2 * n))
                quotient_char = a or ring.characteristic()
                closed = n % 2 == 0 or quotient_char == 2
                assert direct == closed, (str(ring), a, n)
                checked += 1
    assert checked == (5 + 1 + 1 + 1) * 6  # Z gets all five annihilators


def criterion_06_module_membership_matches_commutativity():
    """classify_module's locality verdict equals graded commutativity."""
    for key, ring, gens, expected in MATRIX:
        N = make_module(key)
        report = classify_module(N)
        direct, _ = cg.is_graded_commutative(
            cg.TruncatedTensorAlgebra(N, 2 * N.max_degree())
        )
        assert report.module_locally_cyclic == direct == expected, key
        assert report.consistent, key
    coprime = module(Z, [("x", 2, 3), ("y", 4, 5)])
    assert classify_module(coprime).module_locally_cyclic is True
    common = module(Z, [("x", 2, 3), ("y", 4, 6)])
    assert classify_module(common).module_locally_cyclic is False


def criterion_07_characteristic_two_trivial_inverse():
    """Over F2, single cyclic summands: nu = chi = identity on words <= 9."""
    for degree in (1, 3, 2):
        N = module(F2, [("x", degree)])
        A = cg.tensor_cogroup(cg.trivial_coalgebra(N), 9)
        chi = cg.antipode(A)
        for d in range(1, 10):
            for w in A.algebra.basis(d):
                word_elem = A.algebra.element({w: 1})
                assert A.nu(word_elem) == word_elem
                assert chi.image(w) == word_elem


def criterion_08_hom_sets_between_polynomial_cogroups():
    """Generator-level cogroup morphisms A(m) -> A(n) over Q."""
    degrees = (2, 4, 6)
    coeffs = (0, 1, -1, 2, -2, Fraction(1, 2))
    built = {
        n: cg.tensor_cogroup(cg.trivial_coalgebra(module(Q, [("X", n)])), 12)
        for n in degrees
    }
    for n in degrees:
        A = built[n]
        for c in coeffs:
            f = cg.AlgebraMorphism(
                A.algebra, A.algebra, {"X": A.algebra.generator("X").scale(c)}
            )
            assert cg.is_cogroup_morphism(f, A, A), (n, c)
    for m in degrees:
        for n in degrees:
            if m == n:
                continue
            src, tgt = built[m], built[n]
            zero = cg.AlgebraMorphism(
                src.algebra, tgt.algebra, {"X": tgt.algebra.zero()}
            )
            assert cg.is_cogroup_morphism(zero, src, tgt), (m, n)
            if m % n:
                continue  # no degree-legal nonzero assignment exists
            power = tgt.algebra.one()
            for _ in range(m // n):
                power = power * tgt.algebra.generator("X")
            for c in coeffs:
                f = cg.AlgebraMorphism(
                    src.algebra, tgt.algebra, {"X": power.scale(c)}
                )
                assert cg.is_cogroup_morphism(f, src, tgt) == (c == 0), (m, n, c)


def criterion_09_trivial_sources_convolve_by_addition():
    """On generator-basis sources with trivial tables, * is +, degreewise."""
    for key, ring, gens, expected in MATRIX:
        A = make_cogroup(key, 8)
        src = CoalgebraSource(A.coalgebra, 8)
        rng = random.Random(hash(key) & 0xFFFF)
        for _ in range(10):
            f = random_graded_map(src, A.algebra, rng)
            g = random_graded_map(src, A.algebra, rng)
            s = convolve(f, g)
            for d in range(1, 9):
                for x in src.basis(d):
                    assert s.image(x) == f.image(x) + g.image(x), key


def criterion_10_golden_cli_transcripts():
    """The three reference runs reproduce byte-identically with --seed 0."""
    import sys

    cases = (
        (
            "nu_eq_chi_poly.txt",
            "ring Q\ngenerator X degree 2\n",
            ["nu-eq-chi", "-", "--max-degree", "10", "--seed", "0"],
            0,
        ),
        (
            "nu_eq_chi_torsion.txt",
            "ring Zmod 4\ngenerator x degree 3\n",
            ["nu-eq-chi", "-", "--seed", "0"],
            1,
        ),
        (
            "classify_poly.json",
            "ring Q\ngenerator X degree 2\n",
            ["classify", "-", "--json", "--seed", "0"],
            0,
        ),
    )
    import contextlib

    for fname, text, argv, want_rc in cases:
        golden = (GOLDEN / fname).read_text()
        old_stdin = sys.stdin
        buf = io.StringIO()
        try:
            sys.stdin = io.StringIO(text)
            with contextlib.redirect_stdout(buf):
                rc = cli_main(argv)
        finally:
            sys.stdin = old_stdin
        assert rc == want_rc, fname
        assert buf.getvalue() == golden, fname
    doc = json.loads((GOLDEN / "classify_poly.json").read_text())
    assert doc["exit_code"] == 0
    assert {"name": "consistent", "value": True} in doc["verdicts"]


CRITERIA = (
    (1, "convolution-group-laws", criterion_01_convolution_group_laws),
    (2, "inverse-meets-antipode-on-generators", criterion_02_inverse_meets_antipode_on_generators),
    (3, "three-way-equivalence", criterion_03_three_way_equivalence),
    (4, "surjectivity-and-indecomposables", criterion_04_surjectivity_and_indecomposables),
    (5, "closed-form-one-summand", criterion_05_closed_form_for_one_cyclic_summand),
    (6, "module-membership-vs-commutativity", criterion_06_module_membership_matches_commutativity),
    (7, "characteristic-two-identity", criterion_07_characteristic_two_trivial_inverse),
    (8, "polynomial-hom-sets", criterion_08_hom_sets_between_polynomial_cogroups),
    (9, "trivial-source-addition", criterion_09_trivial_sources_convolve_by_addition),
    (10, "golden-transcripts", criterion_10_golden_cli_transcripts),
)


@pytest.mark.parametrize(
    "number,label,body",
    CRITERIA,
    ids=[f"{num:02d}-{label}" for num, label, _ in CRITERIA],
)
def test_criterion(number, label, body):
    try:
        body()
    except BaseException:
        print(f"criterion {number:02d} ({label}): FAIL")
        raise
    print(f"criterion {number:02d} ({label}): PASS")
