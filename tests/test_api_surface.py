"""Every public name and every module-level function has a caller outside the tests.

A name in ``cogroups.__all__``, and a function defined at the top level
of a module of ``src/cogroups``, must be used somewhere besides its own
definition: in the code of ``src/cogroups`` (the package root's
re-exports do not count), in ``perfbench/``, or in the code of
``README.md``.  A name that only the tests call belongs in the tests'
helper modules.  The one other way to pass is ``AWAITING``: a name kept
for the ROADMAP item that will call it.
"""

import ast
import re
from pathlib import Path

import cogroups as cg

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cogroups"

# name -> the ROADMAP item that gives it a caller
AWAITING = {"is_cogroup_morphism": "item 5, the `hom` command"}


def code_names(path):
    """The names a Python file's code reads, writes or looks up as an
    attribute, the code inside f-strings included; a def, a class, an
    import, a string or a comment is not a use."""
    names = set()
    for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def readme_names():
    """The identifiers in README.md's code blocks and inline code."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S)
    return set(re.findall(r"[A-Za-z_]\w*", "\n".join(code)))


def used_names():
    used = readme_names()
    for path in [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        if path.name != "__init__.py":
            used |= code_names(path)
    return used


def module_functions():
    """The functions defined at the top level of each module of the package."""
    return {
        node.name
        for path in SRC.glob("*.py")
        for node in ast.parse(path.read_bytes(), str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = sorted(set(cg.__all__) - used_names())
    # an awaited name that gains a caller leaves the allowlist
    assert unused == sorted(AWAITING)


def test_every_module_level_function_has_a_caller_outside_the_tests():
    assert sorted(module_functions() - used_names()) == sorted(AWAITING)


def test_a_definition_alone_is_not_a_use(tmp_path):
    path = tmp_path / "lonely.py"
    path.write_text(
        'from os import sep\n\n\ndef lonely():\n    """lonely"""  # lonely\n\n\nclass Alone:\n    pass\n'
    )
    assert code_names(path) == set()


def test_a_name_used_only_in_an_f_string_is_a_use(tmp_path):
    path = tmp_path / "formatted.py"
    path.write_text('def show(x):\n    return f"{_render(x)} {x.label}"\n')
    assert code_names(path) == {"_render", "x", "label"}
