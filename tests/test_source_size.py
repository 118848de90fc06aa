"""``tests/source_size.py`` reports what it says it reports."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_source_size_counts_every_module_of_the_working_tree():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "source_size.py")],
        capture_output=True, text=True, timeout=60, check=True,
    )
    lines = run.stdout.splitlines()
    assert lines[:2] == ["working tree", f"  {'module':16} {'bytes':>9} {'lines':>7} {'nodes':>7}"]
    rows = {}
    for line in lines[2:]:
        name, *numbers = line.split()
        rows[name] = [int(n.replace(",", "")) for n in numbers]
    paths = sorted((ROOT / "src" / "cogroups").glob("*.py"))
    assert list(rows) == [p.name for p in paths] + ["total"]
    for path in paths:
        source = path.read_bytes()
        nodes = len(list(ast.walk(ast.parse(source))))
        assert rows[path.name] == [len(source), len(source.splitlines()), nodes], path.name
    assert rows["total"] == [sum(rows[p.name][i] for p in paths) for i in range(3)]
