"""The mutation gate's list stays applicable to the program.

The gate itself (`python tests/mutants.py`) runs each mutant's killing tests
on a mutated copy; this only checks that each old text occurs exactly once
in `src/`, in the mutant's file, and that each killing test exists.
"""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_names_one_text_of_src_and_existing_tests(mutant):
    sources = {path: path.read_text() for path in (ROOT / "src").rglob("*.py")}
    assert sum(text.count(mutant.old) for text in sources.values()) == 1
    assert mutant.old in sources[ROOT / mutant.path]
    assert mutant.new != mutant.old and mutant.tests and mutant.reason
    for test in mutant.tests:
        path, _, name = test.partition("::")
        assert (ROOT / path).is_file(), test
        assert not name or f"def {name.split('[')[0]}(" in (ROOT / path).read_text(), test
