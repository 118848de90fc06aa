"""Every public name has a caller outside the tests.

A name in ``cogroups.__all__`` must be used somewhere besides its own
definition: in the code of ``src/cogroups`` (the package root's
re-exports do not count), in ``perfbench/``, or in the code of
``README.md``.  A name that only the tests call belongs in the tests'
helper modules.  The one other way to pass is ``AWAITING``: a name kept
for the ROADMAP item that will call it.
"""

import re
import tokenize
from pathlib import Path

import cogroups as cg

ROOT = Path(__file__).resolve().parent.parent

# name -> the ROADMAP item that gives it a caller
AWAITING = {"is_cogroup_morphism": "item 5, the `hom` command"}


def code_names(path):
    """The names in a Python file's code, less the one each def or class defines;
    strings and comments do not count."""
    names = set()
    prev = None
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type == tokenize.NAME and prev not in ("def", "class"):
                names.add(tok.string)
            prev = tok.string
    return names


def readme_names():
    """The identifiers in README.md's code blocks and inline code."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S)
    return set(re.findall(r"[A-Za-z_]\w*", "\n".join(code)))


def test_every_public_name_has_a_caller_outside_the_tests():
    used = readme_names()
    for path in [*(ROOT / "src" / "cogroups").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        if path.name != "__init__.py":
            used |= code_names(path)
    unused = sorted(set(cg.__all__) - used)
    # an awaited name that gains a caller leaves the allowlist
    assert unused == sorted(AWAITING)


def test_a_definition_alone_is_not_a_use(tmp_path):
    path = tmp_path / "lonely.py"
    path.write_text('def lonely():\n    """lonely"""  # lonely\n\n\nclass Alone:\n    pass\n')
    assert code_names(path) == {"def", "class", "pass"}
