"""The mutation catalogue (``tests/mutants.py``) still points at the code:
every snippet occurs exactly once in ``src/``, and every node id names a
test that exists.  The mutants themselves run outside tier-1:
``python tests/mutants.py``."""

import os
import re

import pytest

from mutants import MUTANTS, REPO, SRC


def _sources():
    for root, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as fh:
                    yield os.path.relpath(path, SRC), fh.read()


SOURCES = dict(_sources())


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_snippet_occurs_once_in_src(mutant):
    counts = {path: text.count(mutant.snippet) for path, text in SOURCES.items()}
    assert {path: c for path, c in counts.items() if c} == {mutant.path: 1}
    assert mutant.replacement != mutant.snippet


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_node_ids_name_tests(mutant):
    assert mutant.node_ids
    for node_id in mutant.node_ids:
        path, *names = node_id.split("::")
        with open(os.path.join(REPO, path), encoding="utf-8") as fh:
            text = fh.read()
        for name in names:
            assert re.search(rf"^\s*(def|class) {re.escape(name.split('[')[0])}\b",
                             text, re.M), node_id
