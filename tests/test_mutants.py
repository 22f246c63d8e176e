"""The mutant list of ``mutants.py`` against the tree it describes."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])
def test_each_mutant_text_occurs_exactly_once(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
