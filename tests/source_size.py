"""Size of the package source: bytes, lines and AST nodes per module.

    python tests/source_size.py [REV]

prints one row per module of ``src/cogroups`` in the working tree, and
their totals.  Given a git revision, it prints the same for that
revision, its files read through ``git show``, and then the difference,
working tree minus revision.  An AST node is one node of ``ast.walk``
over the module's parse tree.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/cogroups"


def measure(source: bytes) -> tuple:
    """(bytes, lines, AST nodes) of one module's source."""
    return len(source), source.count(b"\n"), sum(1 for _ in ast.walk(ast.parse(source)))


def working_tree() -> dict:
    return {path.name: measure(path.read_bytes()) for path in sorted((ROOT / PACKAGE).glob("*.py"))}


def revision(rev: str) -> dict:
    def git(*args) -> bytes:
        run = subprocess.run(["git", *args], cwd=ROOT, capture_output=True)
        if run.returncode:
            raise SystemExit(f"error: git {' '.join(args)}: {run.stderr.decode().strip()}")
        return run.stdout

    names = git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").decode().split()
    return {name: measure(git("show", f"{rev}:{PACKAGE}/{name}")) for name in sorted(names) if name.endswith(".py")}


def table(title: str, sizes: dict) -> list:
    total = tuple(map(sum, zip(*sizes.values()))) if sizes else (0, 0, 0)
    rows = [f"{title}", f"  {'module':16} {'bytes':>9} {'lines':>7} {'nodes':>7}"]
    rows += [f"  {name:16} {b:>9,} {n:>7,} {a:>7,}" for name, (b, n, a) in sizes.items()]
    rows.append(f"  {'total':16} {total[0]:>9,} {total[1]:>7,} {total[2]:>7,}")
    return rows


def difference(new: dict, old: dict) -> list:
    rows = ["difference (working tree - revision)"]
    for name in sorted(new.keys() | old.keys()):
        d = [a - b for a, b in zip(new.get(name, (0, 0, 0)), old.get(name, (0, 0, 0)))]
        if any(d):
            rows.append(f"  {name:16} {d[0]:>+9,} {d[1]:>+7,} {d[2]:>+7,}")
    total = [sum(v[i] for v in new.values()) - sum(v[i] for v in old.values()) for i in range(3)]
    rows.append(f"  {'total':16} {total[0]:>+9,} {total[1]:>+7,} {total[2]:>+7,}")
    return rows


def main(argv) -> int:
    if len(argv) > 1:
        raise SystemExit("usage: python tests/source_size.py [REV]")
    new = working_tree()
    rows = table("working tree", new)
    if argv:
        old = revision(argv[0])
        rows += table(f"revision {argv[0]}", old) + difference(new, old)
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
