"""A catalogue of mutants of ``src/cogroups``: would the tests notice?

Each entry is one named edit to one file under ``src/cogroups``: an old
text, exactly once in the package, replaced by a new one.  It names the
fast path it attacks and, where the edit can change no result, the
reason it is equivalent.  ``tests/test_mutants.py`` checks that every
old text still occurs exactly once, so a change that moves the code
must update its entry.

Running the catalogue is opt-in:

    python tests/mutants.py [NAME ...]

applies each mutant (or the named ones) to a temporary copy of the
repository, one at a time, runs the tier-1 suite there with ``-x``
(less ``tests/test_mutants.py``, which fails on any mutated copy) and
prints ``killed`` (with the first failing test), ``survived`` or
``equivalent``, and the wall time.  It exits 1 when a mutant with no
equivalence reason survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cogroups"


class Mutant(NamedTuple):
    name: str
    file: str  # under src/cogroups
    old: str
    new: str
    attacks: str
    equivalent: str | None = None


MUTANTS = [
    # the usual command line without argparse
    Mutant(
        "read-args-first-value-wins", "cli.py",
        "numbers[token] = int(n)\n",
        "numbers[token] = int(n) if numbers[token] in (0, 10) else numbers[token]\n",
        "cli._read_args",
    ),
    Mutant(
        "read-args-second-path-taken", "cli.py",
        'elif path is None and (token == "-" or not token.startswith("-")):',
        'elif token == "-" or not token.startswith("-"):',
        "cli._read_args",
    ),
    Mutant(
        "read-args-option-taken-as-path", "cli.py",
        '(token == "-" or not token.startswith("-"))',
        '(token == "-" or not token.startswith("--"))',
        "cli._read_args",
    ),
    Mutant(
        "read-args-no-default-path", "cli.py",
        'return argv[0], "-" if path is None else path,',
        "return argv[0], path,",
        "cli._read_args",
    ),
    Mutant(
        "read-args-unguarded-int", "cli.py",
        "            try:\n"
        "                numbers[token] = int(n)\n"
        "            except ValueError:  # more digits than int() converts\n"
        "                return None\n",
        "            numbers[token] = int(n)\n",
        "cli._read_args",
    ),
    # chi-is-morphism from generator images
    Mutant(
        "morphism-check-to-twice-top-degree", "algebra.py",
        "for d in alg.degrees(2, A.truncation))",
        "for d in alg.degrees(2, min(A.truncation, 2 * max((g.degree for g in alg.generators), default=0))))",
        "algebra.is_algebra_morphism",
    ),
    Mutant(
        "morphism-check-stops-at-D-minus-1", "algebra.py",
        "for d in alg.degrees(2, A.truncation))",
        "for d in alg.degrees(2, A.truncation - 1))",
        "algebra.is_algebra_morphism",
    ),
    Mutant(
        "morphism-check-ignores-coefficients", "algebra.py",
        "return all(f.degree_images(d) == fill._fill(d) for d",
        "return all(f.degree_images(d)[::2] == fill._fill(d)[::2] for d",
        "algebra.is_algebra_morphism",
    ),
    # table labels built with the basis, and the fixed-modulus fill
    Mutant(
        "labels-run-off-by-one", "algebra.py",
        "run += 1\n",
        "run += 2\n",
        "TruncatedTensorAlgebra.labels",
    ),
    Mutant(
        "labels-rest-dropped", "algebra.py",
        'label = f"{n}^{run}*{rest}" if rest else f"{n}^{run}"',
        'label = f"{n}^{run}"',
        "TruncatedTensorAlgebra.labels",
    ),
    Mutant(
        "fixed-modulus-fill-keeps-zeros", "algebra.py",
        "if drops and 0 in products:",
        "if drops and 0 in products and False:",
        "AlgebraMorphism._fill",
    ),
    Mutant(
        "zero-drop-only-on-even-moduli", "algebra.py",
        "self._drops = self._mod != 0 and not target.ring.is_field()",
        "self._drops = self._mod is None or self._mod % 2 == 0",
        "AlgebraMorphism._fill",
    ),
    Mutant(
        "validated-fill-refuses-extra-names", "algebra.py",
        "self._mod = target.fixed_modulus if ints else None\n",
        "self._mod = target.fixed_modulus if ints and images.keys() <= source._deg.keys() else None\n",
        "AlgebraMorphism._fill",
    ),
    # one fill for every map: check gates only the validation
    Mutant(
        "check-never-validates", "algebra.py",
        "        if check:\n            self._validate()\n",
        "        if check and False:\n            self._validate()\n",
        "AlgebraMorphism.__init__",
    ),
    Mutant(
        "morphism-check-reads-the-first-generator-row", "algebra.py",
        "terms = row(f.degree_images(g.degree), alg.prefix((g.name,), g.degree))",
        "terms = row(f.degree_images(g.degree), 0)",
        "algebra.is_algebra_morphism",
    ),
    # word images stored by position
    Mutant(
        "offset-skips-a-generator-of-the-degree", "algebra.py",
        "if g.degree <= e:\n                    row[g.name] = start",
        "if g.degree < e:\n                    row[g.name] = start",
        "TruncatedTensorAlgebra.size",
    ),
    Mutant(
        "prefix-table-read-at-d", "algebra.py",
        "row += map(starts[g.name].__add__, rows[k - g.degree])",
        "row += map(starts[g.name].__add__, self.prefixes(k - g.degree, k + shift))",
        "TruncatedTensorAlgebra.prefixes",
    ),
    Mutant(
        "recursion-prefix-at-the-degree-of-z", "convolution.py",
        "prefix_at[y] = prefixes(k, d)[j]",
        "prefix_at[y] = prefixes(k, e)[j]",
        "convolution._RecursionInverse._fill",
    ),
    # one row triple per degree: block fills and tables printed a degree at a time
    Mutant(
        "single-term-block-shifted-by-one", "algebra.py",
        "block = [p + b for b in ke]",
        "block = [p + b + 1 for b in ke]",
        "AlgebraMorphism._fill",
    ),
    Mutant(
        "anti-block-sign-dropped", "algebra.py",
        "if anti and g.degree * e % 2:  # the sign",
        "if False:  # the sign",
        "AlgebraMorphism._fill",
    ),
    Mutant(
        "row-starts-not-shifted", "algebra.py",
        "starts += [offset + n * j for j in se[1:]]\n",
        "starts += [n * j for j in se[1:]]\n",
        "AlgebraMorphism._fill",
    ),
    Mutant(
        "unit-coefficients-print-1-star", "algebra.py",
        'f" + {labels[k]}" if c == 1 else',
        'f" + 1*{labels[k]}" if c == 1 else',
        "algebra._format_rows",
    ),
    # the tables' row texts and their writers
    Mutant(
        "format-rows-separator-read-off-the-text", "algebra.py",
        '(t := "".join(texts[i:j]))',
        '(t := "".join(texts[i:j]).replace(" + -", " - "))',
        "algebra._format_rows",
    ),
    Mutant(
        "one-term-row-loses-its-sign", "algebra.py",
        'else "-" + labels[k] if c == -1',
        'else labels[k] if c == -1',
        "algebra._format_rows",
    ),
    Mutant(
        "format-terms-unit-by-its-label", "algebra.py",
        "        if key == ():\n",
        '        if label == "1":\n',
        "algebra._format_terms",
    ),
    Mutant(
        "json-table-plain-on-the-first-generator", "cli.py",
        'ESCAPE_ASCII.search("".join(self.generators))',
        "ESCAPE_ASCII.search(self.generators[0])",
        "cli.Report.json_pieces",
    ),
    Mutant(
        "json-degrees-run-together", "cli.py",
        '                sep = ","\n',
        '                sep = ""\n',
        "cli.Report.json_pieces",
    ),
    Mutant(
        "recursion-rows-unsorted", "convolution.py",
        "order = sorted(acc)",
        "order = list(acc)",
        "convolution._RecursionInverse._fill",
    ),
    Mutant(
        "position-modulus-of-the-first-generator", "algebra.py",
        "gcd(g.annihilator, m) for g in self.module.generators",
        "gcd(self.module.generators[0].annihilator, m) for g in self.module.generators",
        "TruncatedTensorAlgebra.moduli",
    ),
    # one reduction rule in the table layer
    Mutant(
        "coassociativity-unreduced", "coalgebra.py",
        "if _reduce_terms(C, diff):",
        "if any(diff.values()):",
        "coalgebra.check_coalgebra_axioms",
    ),
    Mutant(
        "cocommutativity-twist-unreduced", "coalgebra.py",
        "if _reduce_terms(C, twisted) != ",
        "if twisted != ",
        "coalgebra.is_cocommutative",
    ),
    Mutant(
        "annihilator-product-unreduced", "coalgebra.py",
        "offenders = a and _reduce_terms(self, {k: a * c for k, c in reduced.items()})",
        "offenders = a and {k: a * c for k, c in reduced.items()}",
        "CoalgebraPresentation table normalisation",
    ),
    Mutant(
        "table-unreduced", "coalgebra.py",
        "reduced = _reduce_terms(self, combined)",
        "reduced = {k: c for k, c in combined.items() if c}",
        "CoalgebraPresentation table normalisation",
    ),
    Mutant(
        "coproduct-laws-zero-word-kept", "cogroup.py",
        "dw = (delta[w[0]] if w else {((), ()): 1}) if one else {}",
        "dw = delta[w[0]] if w else {((), ()): 1}",
        "cogroup.check_cogroup_axioms, D's laws",
    ),
    Mutant(
        "cogroup-axioms-zero-word-kept", "cogroup.py",
        "one = _reduce_terms(alg, {w: 1})",
        "one = {w: 1}",
        "cogroup.check_cogroup_axioms",
    ),
    # the substitution kernel and its Koszul-signed pair parent
    Mutant(
        "substitute-subtracted-side-unsigned", "cogroup.py",
        "        c *= sign\n",
        "",
        "cogroup._substitute",
    ),
    Mutant(
        "substitute-one-letter-term-unscaled", "cogroup.py",
        "out[key] = get(key, 0) + c * v",
        "out[key] = get(key, 0) + v",
        "cogroup._substitute",
    ),
    Mutant(
        "pair-parent-koszul-sign-dropped", "cogroup.py",
        "acc[key] = get(key, 0) + (-cv * v2 if odd and deg(p) % 2 else cv * v2)",
        "acc[key] = get(key, 0) + cv * v2",
        "cogroup._Pairs.mul_into",
    ),
    Mutant(
        "difference-left-unreduced", "cogroup.py",
        "return not any(lhs.values()) or not _reduce_terms(parent, lhs)",
        "return not any(lhs.values())",
        "cogroup._vanishes",
    ),
    # locality from pairwise gcds
    Mutant(
        "locality-no-free-first-order", "modules.py",
        "key=lambda e: e[1] != 0)",
        "key=lambda e: 0)",
        "modules.is_locally_at_most_singly_generated",
    ),
    Mutant(
        "locality-z2-exemption-as-4-divides", "modules.py",
        "m // 2 if m % 4 == 2 else m",
        "m // 2 if m % 4 == 0 else m",
        "modules.is_locally_at_most_singly_generated",
    ),
    Mutant(
        "locality-odd-generator-wins-a-tie", "modules.py",
        "n, a, b = next(c for c in cands if c[0] % p == 0)",
        "n, a, b = next(c for c in sorted(cands, key=lambda c: c[2] is not None) if c[0] % p == 0)",
        "modules.is_locally_at_most_singly_generated",
    ),
    Mutant(
        "locality-two-free-meet-at-3", "modules.py",
        "(n or 2, a, b)",
        "(n or 3, a, b)",
        "modules.is_locally_at_most_singly_generated",
    ),
    Mutant(
        "locality-q-short-one-factor", "modules.py",
        "while n % (q * p) == 0:",
        "while n % (q * p * p) == 0:",
        "modules.is_locally_at_most_singly_generated",
    ),
    Mutant(
        "least-prime-largest-when-all-prime", "modules.py",
        "return min(numbers)  #",
        "return max(numbers)  #",
        "modules._least_prime_divisor",
    ),
    Mutant(
        "least-prime-bound-squared", "modules.py",
        "if d >= TRIAL_DIVISION_BOUND:",
        "if d >= TRIAL_DIVISION_BOUND ** 2:",
        "modules._least_prime_divisor",
    ),
    Mutant(
        "least-prime-tries-composites", "modules.py",
        "d += 1 if d == 2 else 2\n",
        "d += 1\n",
        "modules._least_prime_divisor",
        equivalent="a composite's prime factors are smaller and tried first, so it is never "
        "the first divisor found; the pass only gets slower",
    ),
]


def first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ")[0]
    return "the suite's exit code"


def run(mutant: Mutant, timeout: float = 900) -> tuple:
    """(status, detail) of the tier-1 suite under ``-x`` on a copy of the
    repository with ``mutant`` applied."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(
            ROOT, copy,
            ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache"),
        )
        path = copy / "src" / "cogroups" / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: the old text is not in {mutant.file} exactly once")
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                "--continue-on-collection-errors", "--ignore", "tests/test_mutants.py"]
        try:
            proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return "killed", f"timeout after {timeout:.0f} s"
    if proc.returncode:
        return "killed", first_failure(proc.stdout)
    return ("equivalent", mutant.equivalent) if mutant.equivalent else ("survived", "")


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in chosen}
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
    start, survivors = time.perf_counter(), 0
    for m in chosen:
        t0 = time.perf_counter()
        status, detail = run(m)
        survivors += status == "survived"
        print(f"{status:10} {m.name} ({m.attacks}, {time.perf_counter() - t0:.1f} s) {detail}",
              flush=True)
    print(f"{len(chosen)} mutants, {survivors} survived, {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
