"""Coefficients are reduced in one routine.

A coefficient lives in R/(m), m the gcd of the characteristic and its
letters' annihilators, and ``algebra._reduce_terms`` is the routine that
reduces it.  A ``%`` in ``src/cogroups`` is allowed only in the
functions below, each of which does integer arithmetic of its own, or
with the literal ``2`` as its right operand (a sign parity).  Any other
``%`` is hand-written modular arithmetic that belongs in
``_reduce_terms``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# qualified name of the innermost def -> why it may take a remainder
ALLOWED = {
    "_reduce_terms": "the reduction routine itself",
    "AlgebraMorphism._fill": "a fixed modulus reduced inside the product comprehension",
    "_spans": "elimination mod n",
    "_add_row": "elimination mod n",
    "RingSpec.normalize": "the ring's stored value",
    "RingSpec.legal_annihilator": "divisibility of the modulus",
    "is_prime": "integer arithmetic",
    "_least_prime_divisor": "integer arithmetic",
    "is_locally_at_most_singly_generated": "integer arithmetic",
}


def remainder_sites(path):
    """(file name, line, qualified name of the innermost def) of each ``%``
    in a Python file whose right operand is not the literal 2."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope += (node.name,)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod):
            right = node.right if isinstance(node, ast.BinOp) else node.value
            if not (isinstance(right, ast.Constant) and right.value == 2):
                sites.append((path.name, node.lineno, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return sites


def test_every_remainder_is_in_an_allowed_function():
    stray = [
        site
        for path in sorted((ROOT / "src" / "cogroups").glob("*.py"))
        for site in remainder_sites(path)
        if site[2] not in ALLOWED
    ]
    assert stray == []


def test_a_remainder_is_found_at_any_depth(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "def parity(n):\n    return n % 2\n\n\n"
        "class K:\n    def f(self, c, m):\n        c %= m\n        return [x % m for x in (c,)]\n"
    )
    assert remainder_sites(path) == [("mod.py", 7, "K.f"), ("mod.py", 8, "K.f")]
