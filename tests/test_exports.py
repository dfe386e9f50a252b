"""Every name a cflow module lists in ``__all__`` exists, so ``import *`` works.

A deleted function can otherwise stay in its module's ``__all__`` (or in
``cflow.diffcore``'s re-exports) and break ``from cflow.energy import *``
with no other test failing.
"""

import importlib
import pkgutil

import pytest

import cflow

MODULES = ["cflow", *sorted(info.name for info in pkgutil.walk_packages(cflow.__path__, "cflow."))]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
