"""The mutant catalogue stays in step with the code it mutates."""

from mutants import MUTANTS, SRC


def test_each_mutant_edits_one_place_in_the_package():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    for m in MUTANTS:
        assert m.old != m.new, m.name
        assert sources[m.file].count(m.old) == 1, m.name
        assert sum(text.count(m.old) for text in sources.values()) == 1, m.name


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))
