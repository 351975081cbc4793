import importlib

import pytest


@pytest.mark.parametrize("package", ["survbench", "survbench.nnet"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
