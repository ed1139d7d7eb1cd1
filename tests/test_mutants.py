"""The mutant catalogue stays applicable: each snippet occurs exactly once
in today's source, and each named test exists. Running the mutants is
`python tests/mutants.py`."""

import re

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


def test_each_mutant_snippet_occurs_exactly_once():
    for m in MUTANTS:
        assert m.snippet != m.replacement, m.name
        assert (ROOT / m.path).read_text().count(m.snippet) == 1, m.name


def test_each_mutant_names_tests_that_exist():
    for m in MUTANTS:
        assert m.tests, m.name
        for node in m.tests:
            path, name = node.split("::")
            source = (ROOT / path).read_text()
            assert re.search(rf"^def {name}\(", source, re.M), node
