"""The mutation gate's catalogue still applies to the package.

tools/mutants.py runs outside the tier-1 suite, so a refactor that moves
a mutated line would only show there.  This checks, without running any
mutant, that every catalogued edit matches exactly once inside its
function, that the mutated module still compiles, and that every test
module the catalogue names exists.
"""

from __future__ import annotations

import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_gate():
    spec = importlib.util.spec_from_file_location("mutation_gate", os.path.join(ROOT, "tools", "mutants.py"))
    gate = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gate  # its dataclass looks its module up there
    spec.loader.exec_module(gate)
    return gate


GATE = _load_gate()


@pytest.mark.parametrize("mutant", GATE.CATALOGUE, ids=lambda m: m.name)
def test_catalogued_mutant_applies(mutant):
    with open(os.path.join(ROOT, "src", "verolab", mutant.module)) as fh:
        source = fh.read()
    mutated = GATE.mutate(source, mutant)  # LookupError unless each edit matches once
    assert mutated != source
    compile(mutated, mutant.module, "exec")
    assert os.path.isfile(os.path.join(ROOT, mutant.tests))

