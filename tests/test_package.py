import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.mark.parametrize("package", ["survbench", "survbench.nnet"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


# which of scipy's slow-to-import modules a fresh interpreter has loaded
# after each step of a Cox-Weibull run, then of a log-normal baseline
_IMPORTS_SCRIPT = """
import sys

def loaded():
    print(sorted(m for m in ("scipy.optimize", "scipy.special")
                 if m in sys.modules))

import survbench, survbench.bench
loaded()
import numpy as np
from survbench.metrics import reference_metrics
from survbench.simgen import (LogNormal, ModelFamily, SimulationSpec,
                              Weibull, generate)
sim = generate(SimulationSpec(family=ModelFamily.COX,
                              baseline=Weibull(2.0, 1.3e-7),
                              n=200, p=4, k=4, seed=0))
reference_metrics(sim, np.arange(100))
loaded()
baseline = LogNormal(7.73, 0.7)
loaded()
baseline.cumulative_hazard(1000.0)
loaded()
"""


def test_cox_weibull_path_loads_neither_scipy_optimize_nor_special():
    src = str(Path(importlib.import_module("survbench").__file__)
              .resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]]
                 if os.environ.get("PYTHONPATH") else [])))
    out = subprocess.run([sys.executable, "-c", _IMPORTS_SCRIPT], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["[]", "[]", "[]", "['scipy.special']"]
