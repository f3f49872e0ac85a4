import doctest
import importlib

import pytest

MODULES = [
    "rsinv.permutations",
    "rsinv.tableaux",
    "rsinv.insertion",
    "rsinv.greene",
    "rsinv.direct",
    "rsinv.enumeration",
]


@pytest.mark.parametrize("name", MODULES)
def test_doctests(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module)
    assert result.failed == 0
