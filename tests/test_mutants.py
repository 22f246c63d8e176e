"""The mutant list of ``mutants.py`` against the tree it describes."""

import ast

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])
def test_each_mutant_text_occurs_exactly_once(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1


def _top_level_tests(test_file):
    tree = ast.parse((ROOT / test_file).read_text(), filename=test_file)
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}


def test_mutant_ids_are_unique_and_each_catching_test_exists():
    ids = [m.id for m in MUTANTS]
    assert len(set(ids)) == len(ids)
    named = [(m.id, *test_id.split("::")) for m in MUTANTS for test_id in m.caught_by]
    # each test file is parsed once, however many mutants name it
    defined = {test_file: _top_level_tests(test_file)
               for test_file in {test_file for _, test_file, _ in named}}
    missing = [(mutant_id, f"{test_file}::{name}") for mutant_id, test_file, name in named
               if name.split("[")[0] not in defined[test_file]]
    assert missing == []
