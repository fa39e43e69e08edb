from pathlib import Path

import pytest

from mutant_table import MUTANTS

SRC = Path(__file__).resolve().parent.parent / "src" / "cvsep"


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_fragment_occurs_exactly_once(mutant):
    # tests/run_mutants.py edits the one occurrence; a fragment that moved or
    # repeats would leave its row testing nothing.
    assert (SRC / mutant.module).read_text().count(mutant.fragment) == 1
